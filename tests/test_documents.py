"""Interchange documents: parsing, validation, canonical serialization."""

import gc
import json
import pathlib
import random
from fractions import Fraction

import pytest

from oracles import dumps_by_encoder, parse_rational_fraction
from quadlie import cli
from quadlie.documents import (
    DocumentError,
    algebra_document_from_json,
    construct_from_json,
    dumps_canonical,
    dumps_document,
    loads_document,
)
from quadlie.exactla import Matrix, format_rational, parse_rational
from quadlie.heisenberg import double_extension, heisenberg
from quadlie.liealg import LieAlgebra
from quadlie.quadform import BilinearForm, QuadraticLieAlgebra

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def test_quadratic_needs_a_metric():
    doc = loads_document((pathlib.Path(cli.__file__).parent / "corpus"
                          / "five_dim_trace_zero.algebra.json").read_text())
    assert doc.metric is None
    with pytest.raises(DocumentError, match="^metric: document carries no metric$") as info:
        doc.quadratic()
    assert info.value.where == "metric"


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


# -- the literal parser against the Fraction parse -----------------------------

def _seeded_literals(seed, count=40):
    """Literals canonical and not: p/q as written, reduced, with a leading
    zero, a sign, a blank or a doubled slash."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p, q = rng.randint(-60, 60), rng.randint(1, 12)
        text = rng.choice([
            format_rational(Fraction(p, q)),
            f"{p}/{q}",
            f"0{abs(p)}",
            f"{p}/0{q}",
            f"+{abs(p)}/{q}",
            f"{p} /{q}",
            f"{p}//{q}",
        ])
        out.append(text)
    return out


EDGE_LITERALS = [
    "1\n", "-0", "007", "+1", "1/1", "2/4", "1/0", "1/-2", " 1", "١", "1e3",
    "1" * 5000, "-" + "7" * 5000, "1/" + "3" * 5000,
]
LITERALS = _seeded_literals(0) + EDGE_LITERALS


def _outcome(call):
    try:
        return ("value", call())
    except DocumentError as exc:
        return ("DocumentError", exc.message, exc.where)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _expected(literal, where, build):
    """A document holding ``literal`` at ``where``, read by the Fraction
    parse: its error there, or the outcome of ``build`` on the value."""
    try:
        value = parse_rational_fraction(literal)
    except ValueError as exc:
        return ("DocumentError", str(exc), where)
    return _outcome(lambda: build(value))


def _core_document(literal_at):
    """The 2-dim core S with [s1, s2] = c s1 and the hyperbolic metric,
    and D = 0, each entry "0" or "1" unless ``literal_at`` names it."""
    def entry(name, default):
        return literal_at.get(name, default)

    return {
        "kind": "double_extension",
        "parameters": {
            "S": {
                "name": "S", "dim": 2, "basis": ["s1", "s2"],
                "brackets": [{"i": 0, "j": 1, "terms": [{"k": 0, "c": entry("c", "0")}]}],
                "metric": [[entry("B", "0"), "1"], ["1", "0"]],
            },
            "D": [[entry("D", "0"), "0"], ["0", "0"]],
        },
    }


def _algebra_and_metric(doc):
    return doc.algebra, doc.metric


def _double_extension_of(c, b, d):
    """What the core document of ``_core_document`` builds, from values."""
    try:
        S = QuadraticLieAlgebra(
            LieAlgebra(2, {(0, 1): [(0, c)]}, ["s1", "s2"]),
            BilinearForm(Matrix([[b, 1], [1, 0]])),
        )
    except ValueError as exc:
        raise DocumentError(str(exc), "parameters.S") from exc
    q = double_extension(S, Matrix([[d, 0], [0, 0]]))
    return q.algebra, q.metric


@pytest.mark.parametrize("literal", LITERALS, ids=range(len(LITERALS)))
def test_literals_parse_as_the_fraction_parse_did(literal):
    """Each literal gives the Fraction parse's value, or its message, in
    ``parse_rational`` and wherever a document holds one: a bracket term,
    a metric entry, and the nested core S (a term and a metric entry) and
    D of a construction document, with the same location."""
    assert _outcome(lambda: parse_rational(literal)) == _outcome(
        lambda: parse_rational_fraction(literal)
    )
    term = h1_doc_json()
    term["brackets"][0]["terms"][0]["c"] = literal
    assert _outcome(lambda: algebra_document_from_json(term).algebra) == _expected(
        literal, "brackets[0].terms[0].c",
        lambda v: LieAlgebra(3, {(0, 1): [(2, v)]}, ["u1", "u2", "hbar"]),
    )
    metric = h1_doc_json()
    metric["metric"] = [[literal, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert _outcome(lambda: algebra_document_from_json(metric).metric.gram) == _expected(
        literal, "metric[0][0]", lambda v: Matrix([[v, 0, 0], [0, 1, 0], [0, 0, 1]]),
    )
    for name, where, build in [
        ("c", "parameters.S.brackets[0].terms[0].c", lambda v: _double_extension_of(v, 0, 0)),
        ("B", "parameters.S.metric[0][0]", lambda v: _double_extension_of(0, v, 0)),
        ("D", "parameters.D[0][0]", lambda v: _double_extension_of(0, 0, v)),
    ]:
        document = _core_document({name: literal})
        got = _outcome(lambda: _algebra_and_metric(construct_from_json(document)))
        assert got == _expected(literal, where, build)


def test_literal_outcomes_cover_values_and_both_messages():
    """The literals above reach every branch: values, and both messages."""
    kinds = set()
    for literal in LITERALS:
        try:
            parse_rational_fraction(literal)
            kinds.add("value")
        except ValueError as exc:
            kinds.add(str(exc).split(":")[0])
    assert kinds >= {"value", "not a rational literal", "rational literal not in canonical form"}


# -- the canonical writer against json.dumps -----------------------------------

def _workload_reports(monkeypatch):
    """Every value the seed-0 passes of the three benchmark workloads write
    through ``dumps_canonical``."""
    monkeypatch.syspath_prepend(str(ROOT))
    from bench import workloads

    reports = []

    def recording(data):
        reports.append(data)
        return dumps_canonical(data)

    monkeypatch.setattr(cli, "dumps_canonical", recording)
    monkeypatch.setattr(workloads, "dumps_canonical", recording)
    for name in workloads.WORKLOADS:
        for op in workloads.prepare(name, workloads.DEFAULT_SEED):
            assert workloads.run_op(op)[1] is not None
    return reports


def test_writer_matches_json_dumps_on_the_workload_reports(monkeypatch):
    reports = _workload_reports(monkeypatch)
    assert len(reports) >= 50
    for report in reports:
        assert dumps_canonical(report) == dumps_by_encoder(report)


EDGE_VALUES = [
    {}, [], [[]], [{}], {"a": {}}, {"a": []}, {"a": [[], {}, [[{}]]]}, [[], [[]], [{}]],
    "", 'say "hi"', "back\\slash", "\x00\x01\x1f\x7f\t\n\r\b\f", "\u2028\u2029",
    "line\u2028para\u2029", "äöü ħ ∂ 漢字 \U0001f600", {"ħbar": "ħ", "\u2028": ["\n"]},
    0, -1, -(10**40), 10**4000, True, False, None,
    {"b": [True, False, None], "a": [1, "1", -3], "é": {"z": 0, "y": ""}},
    ["mixed", 1, None, ["x"], {"k": "v"}], ("tuple", ["in", ("tuple",)]),
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=range(len(EDGE_VALUES)))
def test_writer_matches_json_dumps_on_edge_values(value):
    """Empty containers at each depth, escapes, control characters, U+2028,
    non-ASCII labels and keys, large and negative ints, bools, None,
    mixed lists and tuples."""
    assert dumps_canonical(value) == dumps_by_encoder(value)
    assert dumps_canonical({"outer": [value]}) == dumps_by_encoder({"outer": [value]})


@pytest.mark.parametrize("value", [1.5, [1.0], {"a": [0.0]}, ["a", 2.5], {1: "a"}, object()])
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        dumps_canonical(value)


def test_writer_leaves_no_unreachable_objects():
    """Ten calls build no reference cycle for the collector to find."""
    report = {"name": "h1", "basis": [["1", "0"], ["0", "-1/2"]], "flags": {"ok": True}}
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            dumps_canonical(report)
        assert gc.collect() == 0
    finally:
        gc.enable()
