"""Interchange documents: parsing, validation, canonical serialization."""

import json

import pytest

from quadlie.documents import (
    DocumentError,
    algebra_document_from_json,
    construct_from_json,
    dumps_canonical,
    dumps_document,
    loads_document,
)
from quadlie.exactla import Matrix
from quadlie.heisenberg import heisenberg
from quadlie.quadform import BilinearForm


def h1_doc_json():
    return {
        "name": "h1",
        "dim": 3,
        "basis": ["u1", "u2", "hbar"],
        "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "c": "1"}]}],
    }


def test_parse_h1():
    doc = algebra_document_from_json(h1_doc_json())
    assert doc.algebra == heisenberg(1)
    assert doc.metric is None


def test_roundtrip_byte_exact():
    data = h1_doc_json()
    doc = algebra_document_from_json(data)
    printed = dumps_document(doc)
    reparsed = loads_document(printed)
    assert dumps_document(reparsed) == printed


def test_metric_parsing():
    data = h1_doc_json()
    data["metric"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    doc = algebra_document_from_json(data)
    assert doc.metric == BilinearForm(Matrix.identity(3))


@pytest.mark.parametrize(
    "mutate,where",
    [
        (lambda d: d.pop("dim"), "$"),
        (lambda d: d.update(dim=-1), "dim"),
        (lambda d: d.update(basis=["u1"]), "basis"),
        (lambda d: d["brackets"][0].update(i=1, j=0), "brackets[0]"),
        (lambda d: d["brackets"][0]["terms"][0].update(c="1/0"), "terms[0]"),
        (lambda d: d["brackets"][0]["terms"][0].update(c="2/4"), "terms[0]"),
        (lambda d: d["brackets"][0]["terms"][0].update(k=9), "terms[0]"),
        (lambda d: d.update(metric=[["0", "1"], ["1", "0"]]), "metric"),
    ],
)
def test_parse_errors_carry_location(mutate, where):
    data = h1_doc_json()
    mutate(data)
    with pytest.raises(DocumentError) as info:
        algebra_document_from_json(data)
    assert where in str(info.value)


@pytest.mark.parametrize(
    "metric,message",
    [
        ([["1", "0", "0"], "row", ["0", "0", "1"]], "metric[1]: expected a row (list)"),
        ([["1", "0", "0"], ["0", 1, "0"], ["0", "0", "1"]],
         "metric[1][1]: expected a rational string, got 1"),
        ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2/4"]],
         "metric[2][2]: rational literal not in canonical form: '2/4'"),
        ([["1", "0", "0"], ["0", "1", "0"], ["x", "0", "1"]],
         "metric[2][0]: not a rational literal: 'x'"),
    ],
)
def test_matrix_entry_errors_keep_their_messages(metric, message):
    data = h1_doc_json()
    data["metric"] = metric
    with pytest.raises(DocumentError) as info:
        algebra_document_from_json(data)
    assert str(info.value) == message


def test_loads_reports_json_position():
    with pytest.raises(DocumentError, match="line"):
        loads_document("{\n  bad json\n}")


def test_construct_heisenberg():
    doc = construct_from_json(
        {"kind": "heisenberg", "name": "h1", "parameters": {"m": 1}}
    )
    assert doc.algebra == heisenberg(1)
    assert doc.metric is None


def test_construct_rejects_unknown_kind():
    with pytest.raises(DocumentError, match="kind"):
        construct_from_json({"kind": "mystery", "parameters": {}})


def test_construct_surfaces_precondition_failures():
    with pytest.raises(ValueError, match="invertible"):
        construct_from_json(
            {
                "kind": "extend_heisenberg",
                "parameters": {"m": 1, "phi": [["0", "0"], ["0", "0"]]},
            }
        )


def test_canonical_dump_is_sorted_and_newline_terminated():
    text = dumps_canonical({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [2, 3], "b": 1}
