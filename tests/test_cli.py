"""CLI subcommands: exit codes, deterministic reports, the shipped corpus."""

import argparse
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from fixtures import (
    DIAG_1_M1,
    ROUNDTRIP_IDEALS,
    abelian_line_quadratic,
    abelian_plane_quadratic,
    build_abelian_line_fixture,
    build_rotation_core_fixture,
    build_sl2_fixture,
    h1_phi,
    oscillator,
    sl2,
    sl2_quadratic,
    zero_quadratic,
)
from oracles import obstruction_holds
from quadlie import cli, liealg, quadform, structure
from quadlie.cli import main
from quadlie.documents import (
    AlgebraDocument,
    dumps_document,
    loads_document,
    matrix_to_json,
    vector_to_json,
)
from quadlie.errors import InternalVerificationError
from quadlie.exactla import Matrix, Subspace, unit_vector
from quadlie.heisenberg import build_with_heisenberg_ideal, extend_heisenberg
from quadlie.quadform import transport_quadratic
from quadlie.randomized import random_build_input, random_unimodular

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "quadlie" / "corpus"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_path(name: str) -> str:
    return str(CORPUS / name)


def test_check_clean_h1(capsys):
    code, out, err = run_cli(["check", corpus_path("h1.algebra.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["jacobi_violations"] == []
    assert report["center_dim"] == 1
    assert report["derived_dim"] == 1
    assert report["nilpotent"] is True


def test_check_flags_bad_metric(tmp_path, capsys):
    doc = json.loads((CORPUS / "h1.algebra.json").read_text())
    doc["metric"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    bad = tmp_path / "h1_bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(["check", str(bad)], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["metric_violations"]


def test_check_reports_the_derived_series_of_a_table_that_violates_jacobi(tmp_path, capsys):
    """Cartan's criterion in ``is_solvable`` holds for Lie algebras only; on
    this table it disagrees with the derived series, which ``check`` reports."""
    structure = {(0, 2): [(0, 1), (1, -1), (2, -1)], (0, 3): [(1, -2), (2, -1)]}
    g = liealg.LieAlgebra(4, structure)
    assert liealg.check_jacobi(g)
    solvable = liealg.derived_series(g)[-1].is_zero()
    assert liealg.is_solvable(g) is not solvable
    doc = {
        "name": "not_lie",
        "dim": 4,
        "basis": ["a", "b", "c", "d"],
        "brackets": [
            {"i": i, "j": j, "terms": [{"k": k, "c": str(c)} for k, c in terms]}
            for (i, j), terms in structure.items()
        ],
    }
    path = tmp_path / "not_lie.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["solvable"] is solvable


def test_check_rejects_malformed_rational(tmp_path, capsys):
    doc = json.loads((CORPUS / "h1.algebra.json").read_text())
    doc["brackets"][0]["terms"][0]["c"] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 2
    assert "c" in err


def test_construct_matches_corpus_bytes(capsys):
    for path in sorted(CORPUS.glob("*.construction.json")):
        expected = CORPUS / path.name.replace(".construction.", ".algebra.")
        code, out, _ = run_cli(["construct", str(path)], capsys)
        assert code == 0
        assert out == expected.read_text(encoding="utf-8"), path.name


def test_construct_determinism(capsys):
    path = corpus_path("build_sl2.construction.json")
    code1, out1, _ = run_cli(["construct", path], capsys)
    code2, out2, _ = run_cli(["construct", path], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_construct_with_an_explicit_omega(tmp_path, capsys):
    """An ``extend_heisenberg`` document that gives omega builds h_1(phi)
    over that omega: [u1, u2] = 2 hbar, and B(u, v) = omega(phi^-1 u, v)."""
    omega = [["0", "2"], ["-2", "0"]]
    path = tmp_path / "h1_omega.json"
    path.write_text(json.dumps({
        "kind": "extend_heisenberg",
        "name": "h1_omega",
        "parameters": {"m": 1, "omega": omega, "phi": [["1", "0"], ["0", "-1"]]},
    }))
    code, out, err = run_cli(["construct", str(path)], capsys)
    assert (code, err) == (0, "")
    q = extend_heisenberg(1, Matrix(omega, 2), DIAG_1_M1)
    assert out == dumps_document(AlgebraDocument("h1_omega", q.algebra, q.metric))
    doc = loads_document(out)
    assert liealg.bracket(doc.algebra, unit_vector(4, 1), unit_vector(4, 2)) == (0, 0, 0, 2)
    assert doc.metric.gram.entry(1, 2) == doc.metric.gram.entry(2, 1) == 2


def _sl2_document(tmp_path, metric):
    doc = json.loads(dumps_document(AlgebraDocument("sl2", sl2())))
    doc["metric"] = metric
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_reports_a_metric_that_is_not_invariant(tmp_path, capsys):
    """sl2 with the identity Gram matrix: analyze exits 1 with the
    violation report, whose metric violations are those of ``check``."""
    path = _sl2_document(tmp_path, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    code, out, err = run_cli(["analyze", path], capsys)
    assert (code, err) == (cli.EXIT_VIOLATION, "") == (1, "")
    report = json.loads(out)
    assert set(report) == {"name", "dim", "jacobi_violations", "metric_violations"}
    assert (report["name"], report["dim"], report["jacobi_violations"]) == ("sl2", 3, 0)
    assert {v["kind"] for v in report["metric_violations"]} == {"invariance"}
    code, out, _ = run_cli(["check", path], capsys)
    assert code == 1
    assert json.loads(out)["metric_violations"] == report["metric_violations"]


@pytest.mark.parametrize("command", ["check", "analyze"])
def test_a_metric_that_is_not_symmetric_is_a_document_error(tmp_path, capsys, command):
    path = _sl2_document(tmp_path, [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    code, out, err = run_cli([command, path], capsys)
    assert (code, out) == (2, "")
    assert err == "error: metric: metric must be symmetric\n"


def test_construct_precondition_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "extend_heisenberg",
                "parameters": {"m": 1, "phi": [["0", "0"], ["0", "0"]]},
            }
        )
    )
    code, out, err = run_cli(["construct", str(bad)], capsys)
    assert code == 2
    assert "invertible" in err


def test_construct_non_jacobi_core_is_input_error(tmp_path, capsys):
    """A core with an invariant metric that fails Jacobi is bad input (exit 2).

    The brackets are [e_i, e_j] = sum_k c_ijk e_k for the 3-form
    c = e1^e2^e3 + e1^e4^e5, so B = I is invariant, but
    [e2, [e4, e5]] + [e4, [e5, e2]] + [e5, [e2, e4]] = -e3.
    """
    def term(k, c):
        return [{"k": k, "c": c}]

    core = {
        "name": "three_form",
        "dim": 5,
        "basis": ["e1", "e2", "e3", "e4", "e5"],
        "brackets": [
            {"i": 0, "j": 1, "terms": term(2, "1")},
            {"i": 0, "j": 2, "terms": term(1, "-1")},
            {"i": 0, "j": 3, "terms": term(4, "1")},
            {"i": 0, "j": 4, "terms": term(3, "-1")},
            {"i": 1, "j": 2, "terms": term(0, "1")},
            {"i": 3, "j": 4, "terms": term(0, "1")},
        ],
        "metric": [["1" if r == c else "0" for c in range(5)] for r in range(5)],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "double_extension",
                "parameters": {"S": core, "D": [["0"] * 5 for _ in range(5)]},
            }
        )
    )
    code, out, err = run_cli(["construct", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: parameters.S: algebra fails the Jacobi identity\n"


@pytest.mark.parametrize(
    "construction, message",
    [
        (
            {"kind": "double_extension", "parameters": {"S": 5, "D": []}},
            "parameters.S: expected an object",
        ),
        (
            {
                "kind": "double_extension",
                "parameters": {
                    "S": {"name": "s", "dim": 0, "basis": [], "brackets": "x", "metric": []},
                    "D": [],
                },
            },
            "parameters.S.brackets: brackets must be a list",
        ),
        (
            {
                "kind": "coadjoint_double",
                "parameters": {"g": {"name": "g", "dim": 2, "basis": ["x"], "brackets": []}},
            },
            "parameters.g.basis: basis length must equal dim",
        ),
    ],
    ids=["core-not-an-object", "core-brackets-not-a-list", "g-basis-short"],
)
def test_nested_document_errors_are_located_under_their_parameter(
    construction, message, tmp_path, capsys
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(construction))
    code, out, err = run_cli(["construct", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_analyze_h1_phi(capsys):
    code, out, _ = run_cli(["analyze", corpus_path("h1_phi.algebra.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["recognizer"]["verdict"] == "extended_heisenberg"
    assert report["recovery"]["s_dim"] == 0
    assert report["recovery"]["round_trip_exact"] is True
    assert report["quotient_metric"]["exists"] is True
    assert report["complement"]["exists"] is True
    assert report["nilradical_theorem"]["applicable"] is True
    assert report["nilradical_theorem"]["passed"] is True


def test_analyze_decomposable(capsys):
    code, out, _ = run_cli(
        ["analyze", corpus_path("build_abelian_line.algebra.json")], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["recognizer"]["verdict"] == "decomposable"


def test_analyze_not_applicable(capsys):
    code, out, _ = run_cli(["analyze", corpus_path("coadjoint_h1.algebra.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["recognizer"]["verdict"] == "not_applicable"


def test_analyze_requires_metric(capsys):
    code, out, err = run_cli(
        ["analyze", corpus_path("five_dim_trace_zero.algebra.json")], capsys
    )
    assert code == 2
    assert "metric" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["roundtrip", corpus_path("five_dim_trace_zero.algebra.json"), "--ideal", "0,1,2"],
         "metric: roundtrip requires a metric"),
        (["analyze", corpus_path("h1_phi.algebra.json"), "--ideal", "0,1,a"],
         "ideal: bad ideal index list: '0,1,a'"),
    ],
    ids=["roundtrip-without-metric", "ideal-not-integers"],
)
def test_input_errors_exit_2_with_their_message(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_analyze_deterministic(capsys):
    args = ["analyze", corpus_path("build_sl2.algebra.json")]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    # the quotient metric is decided exactly, so analyze takes no seed
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed", "5"])
    assert exc.value.code == 2


def test_analyze_with_given_ideal(capsys):
    code, out, _ = run_cli(
        ["analyze", corpus_path("h1_phi.algebra.json"), "--ideal", "1,2,3"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["heisenberg_ideal"]["source"] == "given"
    assert report["heisenberg_ideal"]["found"] is True
    assert report["heisenberg_ideal"]["m"] == 1


def test_analyze_with_invalid_given_ideal(capsys):
    """A given ideal that fails validation is reported, not fatal."""
    code, out, _ = run_cli(
        ["analyze", corpus_path("h1_phi.algebra.json"), "--ideal", "0,1,2"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["heisenberg_ideal"] == {"found": False, "source": "given"}
    assert "recovery" not in report
    assert report["recognizer"]["verdict"] == "extended_heisenberg"


def test_analyze_ideal_index_out_of_range(capsys):
    code, _, err = run_cli(
        ["analyze", corpus_path("h1_phi.algebra.json"), "--ideal", "1,2,9"], capsys
    )
    assert code == 2
    assert "out of range" in err


def test_ideal_with_repeated_index_is_input_error(capsys):
    for command in ("analyze", "roundtrip"):
        code, out, err = run_cli(
            [command, corpus_path("h1_phi.algebra.json"), "--ideal", "1,1,2"], capsys
        )
        assert code == 2
        assert out == ""
        assert "ideal index 1 given twice" in err


def test_internal_verification_failure_has_its_own_exit_code(monkeypatch, capsys):
    def failing_nilradical(g, R, K_g):
        raise InternalVerificationError("nilradical candidate is not an ideal")

    # analyze runs the body of ``nilradical`` on the Killing form it shares
    monkeypatch.setattr(structure, "_nilradical", failing_nilradical)
    code, out, err = run_cli(["analyze", corpus_path("h1_phi.algebra.json")], capsys)
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == "error: internal verification failed: nilradical candidate is not an ideal\n"


def test_missing_heisenberg_data_on_the_radical_is_an_internal_failure(monkeypatch, capsys):
    """The nilradical theorem check runs the recognizer on the radical once
    the first three clauses hold, and the theory forces an extended
    Heisenberg verdict there.  Any other verdict contradicts it, so analyze
    exits 3 instead of reporting a failed clause.  Rad(g) = g here, so the
    recognizer runs as its body on the [g, g] that the analysis shares."""
    seen = []

    def not_extended_on_the_radical(q, derived, h=None):
        seen.append(q)
        return structure.NotApplicableVerdict("derived subalgebra is zero")

    monkeypatch.setattr(structure, "_recognize", not_extended_on_the_radical)
    code, out, err = run_cli(["analyze", corpus_path("h1_phi.algebra.json")], capsys)
    assert len(seen) == 1
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == (
        "error: internal verification failed: "
        "the radical is not an extended Heisenberg algebra\n"
    )


def _call_counter(monkeypatch):
    """(calls, count): ``count(name, original)`` counts the calls of a
    quadlie function through every module binding, so none slips past."""
    calls = {}

    def count(name, original):
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("quadlie"):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)

    return calls, count


def test_analyze_computes_each_invariant_once(monkeypatch, capsys):
    """One analyze pass of h2_phi, where Rad(g) = g: one Killing form and
    one [g, g] of g, which the radical, the nilradical and the recognizer
    share; one nilradical; one radical (the theorem check's, passed on to
    the nilradical); one recognizer run and one recovery (the theorem
    check's on the radical,
    which is g in its own coordinates, so the report reuses both); one
    Heisenberg-data search (the nilradical's on g, the only
    ``find_heisenberg_ideal`` call, whose data the recognizer takes, as
    [g, g] = Nil(g)); one Jacobi check and one invariance check (the document's
    metric: the quotient metric that the decision picks is invariant by
    construction); one normalized complement with its brackets and one
    quotient, shared by the quotient-metric decision and the complement it
    returns.  Recovery certifies its core and rebuild by the round trip and
    restriction inherits both properties, so neither checks again.  The
    analysis runs the private bodies of ``nilradical``, ``radical`` and
    ``recognize_extended_heisenberg``, which take K(g) and [g, g]."""
    path = corpus_path("h2_phi.algebra.json")
    g = loads_document(pathlib.Path(path).read_text(encoding="utf-8")).algebra
    calls, count = _call_counter(monkeypatch)
    for name in (
        "_nilradical", "_radical", "_recognize", "recover_structure",
        "find_heisenberg_ideal", "_heisenberg_data", "_complement_brackets",
    ):
        count(name, getattr(structure, name))
    on_g = {}
    for name in ("killing_form", "derived_subalgebra"):
        original = getattr(liealg, name)

        def counted(h, *args, name=name, original=original):
            on_g[name] = on_g.get(name, 0) + (h == g)
            return original(h, *args)

        for module in (liealg, structure):
            monkeypatch.setattr(module, name, counted)
    count("check_jacobi", liealg.check_jacobi)
    count("quotient", liealg.quotient)
    count("check_invariant_metric", quadform.check_invariant_metric)
    # one normalized complement, the recovery's, which the decision reuses;
    # Rad(g) = g is recognized as g, not as a restricted copy; and the
    # algebras on a subspace are the nilradical's, for its nilpotency
    # ensure, and the Heisenberg ideal's, once for the search and once for
    # the certificate of its data
    count("_normalized_complement", structure._normalized_complement)
    count("restrict_quadratic", quadform.restrict_quadratic)
    count("subalgebra_on", liealg.subalgebra_on)
    code, _, _ = run_cli(["analyze", path], capsys)
    assert code == 0
    assert on_g == {"killing_form": 1, "derived_subalgebra": 1}
    assert (calls.pop("_normalized_complement"), calls.pop("restrict_quadratic")) == (1, 0)
    assert calls.pop("subalgebra_on") == 3
    assert calls == {
        "_nilradical": 1,
        "_radical": 1,
        "_recognize": 1,
        "recover_structure": 1,
        "find_heisenberg_ideal": 1,
        "_heisenberg_data": 1,
        "_complement_brackets": 1,
        "check_jacobi": 1,
        "quotient": 1,
        "check_invariant_metric": 1,
    }


def test_check_reads_nilpotency_off_the_killing_form(monkeypatch, capsys):
    """``check`` on a grid algebra computes one Killing form and one [g, g],
    for solvability and nilpotency alike: K(g) != 0 proves g is not
    nilpotent, so no lower central series is computed."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    _, text = workloads.grid_documents(workloads.GRID_ANALYZE, 0)[0]
    calls, count = _call_counter(monkeypatch)
    for name in ("killing_form", "derived_subalgebra", "lower_central_series"):
        count(name, getattr(liealg, name))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli(["check", "-"], capsys)
    assert code == 0
    assert json.loads(out)["nilpotent"] is False
    assert calls == {"killing_form": 1, "derived_subalgebra": 1, "lower_central_series": 0}


def test_analyze_recognizes_a_proper_radical_and_the_algebra_apart(monkeypatch, capsys):
    """build_sl2 has Rad(g) != g: the theorem check recognizes and recovers
    the radical, and analyze recognizes g (not applicable: [g, g] = g) and
    recovers g over its nilradical, so each runs twice, once per algebra.
    The recognizer is counted as its body, which the radical reaches
    through ``recognize_extended_heisenberg`` and g directly."""
    calls, count = _call_counter(monkeypatch)
    for name in ("_recognize", "recover_structure"):
        count(name, getattr(structure, name))
    code, out, _ = run_cli(["analyze", corpus_path("build_sl2.algebra.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["nilradical_theorem"]["whole_algebra"] is False
    assert report["recognizer"]["verdict"] == "not_applicable"
    assert calls == {"_recognize": 2, "recover_structure": 2}


def test_analyze_reuses_the_recognizer_data_for_the_derived_fallback(monkeypatch, capsys):
    """build_abelian_line has no Heisenberg ideal among its nilradical, so
    analyze falls back to [g, g]: the recognizer has already found that
    data and recovered from it, so it is neither searched nor recovered
    again (one search for the theorem check, one for the recognizer)."""
    calls, count = _call_counter(monkeypatch)
    for name in ("_heisenberg_data", "recover_structure"):
        count(name, getattr(structure, name))
    code, out, _ = run_cli(["analyze", corpus_path("build_abelian_line.algebra.json")], capsys)
    assert code == 0
    assert json.loads(out)["heisenberg_ideal"]["source"] == "derived"
    assert calls == {"_heisenberg_data": 2, "recover_structure": 1}


VERDICT_NAMES = {
    structure.ExtendedHeisenbergVerdict: "extended_heisenberg",
    structure.DecomposableVerdict: "decomposable",
    structure.NotApplicableVerdict: "not_applicable",
}


def _assert_report_serializes(result, report, g):
    """The ``analyze`` report says what the ``structure.analyze`` result
    holds, and the result's ideal is the one its ``source`` names."""
    theorem, h = result.theorem, result.heisenberg
    assert report["radical"] == cli._subspace_to_json(theorem.radical)
    assert report["nilradical"] == cli._subspace_to_json(theorem.nilradical)
    assert report["nilradical_theorem"]["passed"] is theorem.passed
    assert report["nilradical_theorem"]["whole_algebra"] is theorem.whole_algebra
    assert report["recognizer"]["verdict"] == VERDICT_NAMES[type(result.verdict)]
    assert report["heisenberg_ideal"]["source"] == result.source
    assert report["heisenberg_ideal"]["found"] is (h is not None)
    if result.source == "nilradical":
        assert h == theorem.heisenberg == structure.find_heisenberg_ideal(g, theorem.nilradical)
    elif result.source == "derived":
        assert theorem.heisenberg is None
        assert h == structure.find_heisenberg_ideal(g, liealg.derived_subalgebra(g))
    if h is None:
        assert (result.recovery, result.quotient_metric) == (None, None)
        assert not {"recovery", "quotient_metric", "complement"} & set(report)
        return
    assert report["heisenberg_ideal"] == {
        **cli._heisenberg_to_json(h), "found": True, "source": result.source
    }
    rec = result.recovery
    assert rec.heis == h
    assert report["recovery"]["D"] == matrix_to_json(rec.D)
    assert report["recovery"]["base_change"] == matrix_to_json(rec.base_change)
    witness = result.quotient_metric
    exists = isinstance(witness, structure.ComplementWitness)
    assert report["quotient_metric"]["exists"] is exists
    if exists:
        assert report["quotient_metric"]["gram"] == matrix_to_json(witness.quotient_metric.gram)
        assert report["complement"]["c"] == vector_to_json(witness.c)
    else:
        assert report["quotient_metric"]["obstruction"]["y"] == vector_to_json(witness.y)


def _analysis_inputs():
    """(document, ideal indices or None): the corpus documents with a metric,
    the coordinate ideals of ``ROUNDTRIP_IDEALS``, the quadratic fixtures
    and 40 seeded builds, the odd seeds moved by a random base change."""
    inputs = []
    for path in sorted(CORPUS.glob("*.algebra.json")):
        doc = loads_document(path.read_text(encoding="utf-8"))
        if doc.metric is not None:
            inputs.append((doc, None))
            stem = path.name.split(".")[0]
            if stem in ROUNDTRIP_IDEALS:
                inputs.append((doc, cli._parse_ideal(ROUNDTRIP_IDEALS[stem])))
    fixtures = {
        "sl2": sl2_quadratic(), "h1_phi": h1_phi(), "oscillator": oscillator(),
        "line": abelian_line_quadratic(), "plane": abelian_plane_quadratic(),
        "zero": zero_quadratic(), "build_sl2": build_sl2_fixture(),
        "build_abelian_line": build_abelian_line_fixture(),
        "build_rotation_core": build_rotation_core_fixture(),
    }
    for seed in range(40):
        rng = random.Random(seed)
        q = build_with_heisenberg_ideal(*random_build_input(rng, 4, 3))
        if seed % 2:
            q = transport_quadratic(q, random_unimodular(rng, q.dim))
        fixtures[f"seed{seed}"] = q
    inputs += [(AlgebraDocument(name, q.algebra, q.metric), None) for name, q in fixtures.items()]
    return inputs


def test_analysis_fields_match_the_analyze_report():
    """On every input the report is the serialized analysis; together the
    inputs reach each source and a radical other than g (build_sl2)."""
    sources, proper = set(), 0
    for doc, indices in _analysis_inputs():
        report, code = cli.cmd_analyze(doc, indices)
        assert code == 0, doc.name
        ideal = None if indices is None else cli._candidate_from_indices(doc, indices)
        result = structure.analyze(doc.quadratic(), ideal)
        _assert_report_serializes(result, report, doc.algebra)
        sources.add(result.source)
        proper += not result.theorem.whole_algebra
    assert sources == {"given", "nilradical", "derived"}
    assert proper


def test_analysis_over_a_given_non_heisenberg_ideal_stops_at_the_ideal():
    """A given subspace that is not a Heisenberg ideal is reported as not
    found, with no recovery and no quotient-metric decision."""
    q = h1_phi()
    for indices in ((0,), (0, 1, 2), (1, 2), (3,)):
        ideal = Subspace.from_vectors(4, [unit_vector(4, i) for i in indices])
        result = structure.analyze(q, ideal)
        assert result.source == "given"
        assert (result.heisenberg, result.recovery, result.quotient_metric) == (None, None, None)
        assert isinstance(result.verdict, structure.ExtendedHeisenbergVerdict)


def test_corpus_outputs_match_benchmark_reference(capsys):
    """Every corpus CLI output has the SHA-256 the benchmark pins."""
    reference = json.loads((ROOT / "bench" / "reference.json").read_text(encoding="utf-8"))
    expected = reference["corpus_cli"]
    assert len(expected) == 42
    wrong = []
    for label, digest in sorted(expected.items()):
        command, stem = label.split(":")
        if command == "construct":
            args = [command, corpus_path(f"{stem}.construction.json")]
        else:
            args = [command, corpus_path(f"{stem}.algebra.json")]
        if command == "roundtrip":
            args += ["--ideal", ROUNDTRIP_IDEALS[stem]]
        code, out, _ = run_cli(args, capsys)
        if code != 0 or hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
            wrong.append(label)
    assert wrong == []


@pytest.mark.parametrize("workload", ["grid_analyze", "grid_forms"])
def test_grid_outputs_match_benchmark_reference(workload, monkeypatch):
    """Every seed-0 grid output (``analyze`` on dense builder outputs among
    them) has the SHA-256 the benchmark pins."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    expected = workloads.load_reference(workload, 0)
    assert len(expected) == {"grid_analyze": 8, "grid_forms": 6}[workload]
    ops = workloads.prepare(workload, 0)
    assert sorted(op.label for op in ops) == sorted(expected)
    wrong = [
        op.label
        for op in ops
        if workloads.digest(workloads.run_op(op)[2]) != expected[op.label]
    ]
    assert wrong == []


def test_analyze_reports_missing_quotient_metric(capsys):
    """Over the small ideal of the rotation-core build, the quotient admits
    no invariant metric and no complement subalgebra exists; the reported
    obstruction re-checks against brackets solved anew."""
    code, out, _ = run_cli(
        [
            "analyze",
            corpus_path("build_rotation_core.algebra.json"),
            "--ideal",
            "3,4,5",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    quotient_metric = report["quotient_metric"]
    assert sorted(quotient_metric) == ["exists", "obstruction"]
    assert quotient_metric["exists"] is False
    assert report["complement"] == {"exists": False}

    def vec(entries):
        return tuple(Fraction(x) for x in entries)

    heis = report["heisenberg_ideal"]
    obstruction = quotient_metric["obstruction"]
    g = loads_document(
        pathlib.Path(corpus_path("build_rotation_core.algebra.json")).read_text("utf-8")
    ).algebra
    assert obstruction_holds(
        g,
        [vec(a) for a in obstruction["complement"]],
        [vec(v) for v in heis["v_basis"]],
        vec(heis["hbar"]),
        vec(obstruction["y"]),
    )
    # the same algebra, seen whole, is an extended Heisenberg over h_2
    assert report["recognizer"]["verdict"] == "extended_heisenberg"
    assert report["nilradical"]["dim"] == 5


def test_roundtrip_h1_phi(capsys):
    code, out, _ = run_cli(
        ["roundtrip", corpus_path("h1_phi.algebra.json"), "--ideal", "1,2,3"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    assert report["s_dim"] == 0
    assert report["core"]["dim"] == 0


def test_roundtrip_build_sl2(capsys):
    code, out, _ = run_cli(
        ["roundtrip", corpus_path("build_sl2.algebra.json"), "--ideal", "4,5,6"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    assert report["s_dim"] == 3
    assert report["core"]["dim"] == 3


def test_roundtrip_seeded_base_change(tmp_path, capsys):
    """A base-changed build fixture still round-trips exactly via the CLI.

    The base change mixes the core-and-d block only, so the Heisenberg
    ideal keeps its coordinate span and stays expressible as an index list.
    """
    import random

    from fixtures import build_sl2_fixture
    from quadlie.documents import AlgebraDocument, dumps_document
    from quadlie.exactla import Matrix
    from quadlie.quadform import transport_quadratic
    from quadlie.randomized import random_unimodular

    rng = random.Random(77)
    q = build_sl2_fixture()
    block = random_unimodular(rng, 4)  # acts on (s1, s2, s3, d)
    rows = []
    for i in range(7):
        row = [0] * 7
        if i < 4:
            for j in range(4):
                row[j] = block.entry(i, j)
        else:
            row[i] = 1
        rows.append(row)
    moved = transport_quadratic(q, Matrix(rows, 7))
    doc = AlgebraDocument("moved_build", moved.algebra, moved.metric)
    path = tmp_path / "moved.json"
    path.write_text(dumps_document(doc))
    code, out, _ = run_cli(["roundtrip", str(path), "--ideal", "4,5,6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    assert report["s_dim"] == 3


def test_roundtrip_rejects_non_ideal(capsys):
    code, out, err = run_cli(
        ["roundtrip", corpus_path("h1_phi.algebra.json"), "--ideal", "0,1,2"], capsys
    )
    assert code == 2
    assert "ideal" in err


def test_roundtrip_flags_invalid_metric(tmp_path, capsys):
    doc = json.loads((CORPUS / "h1_phi.algebra.json").read_text())
    doc["metric"][1][2] = "7"
    doc["metric"][2][1] = "7"
    bad = tmp_path / "bad_metric.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(["roundtrip", str(bad), "--ideal", "1,2,3"], capsys)
    assert code == 1
    assert json.loads(out)["metric_violations"]


def test_forms_h1(capsys):
    code, out, _ = run_cli(["forms", corpus_path("h1.algebra.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 3
    hb = 2
    for gram in report["forms"]:
        assert all(gram[hb][t] == "0" for t in range(3))


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["check", corpus_path("h1.algebra.json"), "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dim"] == 3


def _run_module(args, **kwargs):
    """``python -m quadlie.cli`` in a child process that imports this
    checkout's ``src`` first, whether or not the package is installed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "quadlie.cli", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def test_console_script_runs(capsys):
    """Under ``python -m`` the module runs as ``__main__``, with its own
    parser slot; its output is main()'s, byte for byte."""
    for args, dim in (
        (["check", corpus_path("h1.algebra.json")], 3),
        (["analyze", corpus_path("h1_phi.algebra.json")], 4),
    ):
        result = _run_module(args)
        code, out, _ = run_cli(args, capsys)
        assert result.returncode == code == 0
        assert result.stdout == out.encode("utf-8")
        assert json.loads(out)["dim"] == dim


def test_main_builds_its_parser_once(monkeypatch, capsys):
    """Five subcommands in one process: the first call builds the parser
    and its 5 subparsers, later calls build none."""
    monkeypatch.setattr(cli, "_parser", None)
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    commands = [
        ["check", corpus_path("h1.algebra.json")],
        ["construct", corpus_path("h1_phi.construction.json")],
        ["analyze", corpus_path("h1_phi.algebra.json")],
        ["roundtrip", corpus_path("h1_phi.algebra.json"), "--ideal", "1,2,3"],
        ["forms", corpus_path("h1.algebra.json")],
    ]
    per_call = []
    for args in commands:
        before = len(built)
        assert main(args) == 0
        per_call.append(len(built) - before)
    capsys.readouterr()
    assert per_call == [6, 0, 0, 0, 0]


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """A usage error and an --out call leave nothing behind for the next."""
    args = ["analyze", corpus_path("h1_phi.algebra.json")]
    code1, out1, _ = run_cli(args, capsys)
    for bad in (args + ["--seed", "5"], ["roundtrip", args[1]]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    target = tmp_path / "report.json"
    code2, out2, _ = run_cli(args + ["--out", str(target)], capsys)
    assert code2 == 0 and out2 == ""
    assert target.read_text(encoding="utf-8") == out1
    code3, out3, _ = run_cli(args, capsys)
    assert code1 == code3 == 0
    assert out3 == out1


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(["check", "/nonexistent/path.json"], capsys)
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(["check", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ")


def test_non_utf8_stdin_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
    code, out, err = run_cli(["check", "-"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read stdin: ")


def test_undecodable_stdin_bytes_are_input_error():
    """A raw 0xff in piped stdin is refused, as the same bytes in a file are."""
    data = (CORPUS / "h1_phi.algebra.json").read_bytes().replace(b'"h1_phi"', b'"h1\xffphi"', 1)
    assert b"\xff" in data
    result = _run_module(["check", "-"], input=data)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"error: cannot read stdin: ")


def test_lone_surrogate_stdin_is_input_error(monkeypatch, capsys):
    """Under surrogateescape an undecodable byte reads as a lone surrogate."""
    text = (CORPUS / "h1_phi.algebra.json").read_text(encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text.replace("h1_phi", "h1\udcffphi", 1)))
    code, out, err = run_cli(["check", "-"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read stdin: ")


def test_unwritable_out_is_input_error(tmp_path, capsys):
    for command, name in (("check", "h1.algebra.json"), ("construct", "h1.construction.json")):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli([command, corpus_path(name), "--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()


def test_unencodable_report_is_input_error(tmp_path, capsys):
    """A JSON escape of a lone surrogate decodes, but no UTF-8 report holds it."""
    doc = json.loads((CORPUS / "h1.algebra.json").read_text())
    doc["name"] = "h\udcff"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    target = tmp_path / "report.json"
    code, out, err = run_cli(["check", str(path), "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


def test_unencodable_report_keeps_earlier_out_file(tmp_path, capsys):
    """The report is encoded before --out is opened, so a failed write
    leaves the earlier report there byte for byte."""
    target = tmp_path / "report.json"
    assert run_cli(["check", corpus_path("h1.algebra.json"), "--out", str(target)], capsys)[0] == 0
    before = target.read_bytes()
    assert before
    doc = json.loads((CORPUS / "h1.algebra.json").read_text())
    doc["name"] = "n\udcffm"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["check", str(path), "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert target.read_bytes() == before


# -- robustness: truncated and mutated corpus documents --------------------------

CORPUS_FILES = sorted(CORPUS.glob("*.json"))
MUTATION_CHARS = '0123456789-/"{}[],:. aeiknx\\'


def _commands_for(path):
    """The subcommands a corpus file is an input of."""
    if path.name.endswith(".construction.json"):
        return [["construct"]]
    commands = [["check"], ["forms"]]
    if json.loads(path.read_text(encoding="utf-8")).get("metric") is not None:
        commands.append(["analyze"])
    return commands


def _mutations(text, rng, count):
    """``count`` single-character replacements, deletions and insertions."""
    for _ in range(count):
        pos = rng.randrange(len(text))
        kind = rng.randrange(3)
        if kind == 0:
            char = rng.choice(MUTATION_CHARS.replace(text[pos], ""))
            yield text[:pos] + char + text[pos + 1:]
        elif kind == 1:
            yield text[:pos] + text[pos + 1:]
        else:
            yield text[:pos] + rng.choice(MUTATION_CHARS) + text[pos:]


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_truncated_corpus_documents_are_input_errors(path, tmp_path, capsys):
    """Every proper prefix of a document is invalid JSON: exit 2, one message."""
    text = path.read_text(encoding="utf-8").rstrip()
    rng = random.Random(f"truncate {path.name}")
    cuts = sorted(rng.sample(range(len(text)), 12)) + [0, len(text) - 1]
    doc = tmp_path / "cut.json"
    for cut in cuts:
        doc.write_text(text[:cut], encoding="utf-8")
        for command in _commands_for(path):
            code, out, err = run_cli(command + [str(doc)], capsys)
            assert code == 2, (command, cut)
            assert out == ""
            assert err.startswith("error:"), (command, cut, err)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_mutated_corpus_documents_keep_the_exit_contract(path, tmp_path, capsys):
    """A one-character change may leave the document valid, make it a
    violation or make it bad input (exit 0, 1 or 2), never an internal
    failure (3) or an uncaught exception."""
    text = path.read_text(encoding="utf-8")
    rng = random.Random(f"mutate {path.name}")
    doc = tmp_path / "mutated.json"
    for mutated in _mutations(text, rng, 12):
        doc.write_text(mutated, encoding="utf-8")
        for command in _commands_for(path):
            code, out, err = run_cli(command + [str(doc)], capsys)
            assert code in (0, 1, 2), (command, mutated)
            if code == 2:
                assert out == "" and err.startswith("error:"), (command, mutated)


def _h1_with(change):
    doc = json.loads((CORPUS / "h1.algebra.json").read_text(encoding="utf-8"))
    change(doc)
    return doc


@pytest.mark.parametrize(
    "command, data, where",
    [
        (["check"], _h1_with(lambda d: d.update(dim=True, basis=["x"], brackets=[])), "dim"),
        (["check"], _h1_with(lambda d: d["brackets"][0].update(i=False)), "brackets[0]"),
        (["check"], _h1_with(lambda d: d["brackets"][0]["terms"][0].update(k=True)),
         "brackets[0].terms[0]"),
        (["construct"], {"kind": "heisenberg", "parameters": {"m": True}}, "parameters.m"),
    ],
    ids=["dim", "i", "k", "m"],
)
def test_json_booleans_are_not_integers(command, data, where, tmp_path, capsys):
    doc = tmp_path / "bool.json"
    doc.write_text(json.dumps(data))
    code, out, err = run_cli(command + [str(doc)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {where}:")


@pytest.mark.parametrize("command", [["check"], ["construct"]])
@pytest.mark.parametrize(
    "text",
    ["[" * 100000 + "]" * 100000, '{"dim": ' + "9" * 5000 + "}"],
    ids=["deep-nesting", "long-integer"],
)
def test_json_past_parser_limits_is_input_error(command, text, tmp_path, capsys):
    doc = tmp_path / "limits.json"
    doc.write_text(text)
    code, out, err = run_cli(command + [str(doc)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON")
