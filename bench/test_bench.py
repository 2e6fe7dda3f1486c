"""Tests of the benchmark itself: run with ``python -m pytest bench``."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_subtract_child_coverage():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has a child
    # [6, 8]; a child reaching past its parent only counts inside it.
    start = [0.0, 1.0, 5.0, 6.0, 20.0, 21.0]
    end = [10.0, 4.0, 9.0, 8.0, 30.0, 35.0]
    parent = [-1, 0, 0, 2, -1, 4]
    assert tracer.self_times(start, end, parent) == [3.0, 3.0, 2.0, 2.0, 1.0, 14.0]


def test_summary_aggregates_a_nested_tree():
    t = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 6, 7, 10]))
    with t.span("cli.main"):                  # 0 .. 10
        with t.span("structure.nilradical"):  # 1 .. 7
            with t.span("exactla.rref"):      # 2 .. 3
                pass
            with t.span("exactla.rref"):      # 4 .. 6
                pass
    s = tracer.Summary(t)
    assert s.calls("exactla.rref") == 2
    assert s.self_s["exactla.rref"] == 3.0
    assert s.self_s["structure.nilradical"] == 3.0
    assert s.self_s["cli.main"] == 4.0
    assert s.layer_self_s("exactla") == 3.0
    assert s.outermost_s("structure.nilradical") == 6.0
    assert s.children_of("structure.nilradical", "exactla.rref") == (2, 0)
    assert s.calls_under_roots("exactla.rref", ["cli.main"]) == 2


def test_tracer_restores_every_binding_and_counts_imported_names():
    from quadlie import exactla, structure

    kernel, ensure, rref = structure.kernel, structure.ensure, exactla.Matrix.rref
    t = tracer.Tracer()
    t.install()
    try:
        assert structure.kernel is not kernel and exactla.kernel is structure.kernel
        structure.kernel(exactla.Matrix([[1, 2]]))
        structure.ensure(True, "certificate")
    finally:
        t.uninstall()
    assert (structure.kernel, structure.ensure, exactla.Matrix.rref) == (kernel, ensure, rref)
    s = tracer.Summary(t)
    assert s.calls("exactla.kernel") == 1
    assert s.children_of("exactla.kernel", "exactla.rref") == (1, 2)
    assert s.calls("structure.ensure") == 1


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    from quadlie import exactla, liealg

    original, rref = liealg.check_jacobi, exactla.Matrix.rref
    monkeypatch.setattr(tracer, "REQUIRED", tracer.REQUIRED + ("liealg.no_such_function",))
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.Tracer().install()
    monkeypatch.setattr(tracer, "METHODS", tracer.METHODS + (("Matrix", "no_such_method", "x", None),))
    with pytest.raises(LookupError, match="no_such_method"):
        tracer.Tracer().install()
    assert (liealg.check_jacobi, exactla.Matrix.rref) == (original, rref)


def _corpus_op(label):
    return next(op for op in workloads.prepare("corpus_cli", 0) if op.label == label)


@pytest.mark.parametrize("label", ["check:h1", "forms:h2_phi", "roundtrip:h1_phi"])
def test_gate_flags_a_one_byte_mutation(label):
    op = _corpus_op(label)
    reference = workloads.load_reference("corpus_cli", 0)
    _, code, text = workloads.run_op(op)
    assert workloads.failure(op, code, text, reference) is None
    mutated = text[:-2] + ("0" if text[-2] != "0" else "1") + text[-1]
    assert workloads.failure(op, code, mutated, reference) is not None


def test_gate_flags_construct_bytes_and_bad_exit_code():
    op = _corpus_op("construct:h1")
    _, code, text = workloads.run_op(op)
    assert workloads.failure(op, code, text, {}) is None
    assert workloads.failure(op, code, text.replace('"h1"', '"h2"'), {}) is not None
    assert workloads.failure(op, 1, text, {}) == "exit code 1"
    assert workloads.failure(op, None, "ValueError: boom", {}).startswith("raised")
    check = _corpus_op("check:h1")
    assert workloads.failure(check, 0, "not a report\n", {}).startswith("malformed output")


def test_gate_checks_skew_and_forms_outputs_structurally():
    name, text = workloads.grid_documents(workloads.GRID_FORMS[:1], seed=5)[0]
    skew = workloads.Op("skew", f"skew:{name}", stdin=text)
    _, code, out = workloads.run_op(skew)
    assert workloads.structural_failure(skew, out) is None
    matrices = json.loads(out)
    assert matrices
    matrices[0][0][0] = str(Fraction(matrices[0][0][0]) + 1)
    assert workloads.structural_failure(skew, json.dumps(matrices)) is not None
    forms = workloads.Op("forms", f"forms:{name}", ("forms", "-"), stdin=text)
    _, code, out = workloads.run_op(forms)
    assert workloads.structural_failure(forms, out) is None
    report = json.loads(out)
    report["forms"] = []
    assert workloads.structural_failure(forms, json.dumps(report)) is not None


def test_grid_documents_follow_the_seed():
    entries = workloads.GRID_ANALYZE[:2]
    first = workloads.grid_documents(entries, seed=7)
    assert workloads.grid_documents(entries, seed=7) == first
    other = workloads.grid_documents(entries, seed=8)
    assert [name for name, _ in other] == [name for name, _ in first]
    assert all(a != b for (_, a), (_, b) in zip(first, other))


def test_tracer_sees_the_operations_the_benchmark_runs():
    text = (workloads.CORPUS / "h1_phi.algebra.json").read_text(encoding="utf-8")
    ops = [workloads.Op("skew", "skew:h1_phi", stdin=text),
           workloads.Op("forms", "forms:h1_phi", ("forms", "-"), stdin=text)]
    t = tracer.Tracer()
    t.install()
    try:
        results = [workloads.run_op(op) for op in ops]
    finally:
        t.uninstall()
    assert [code for _, code, _ in results] == [0, 0]
    s = tracer.Summary(t)
    assert s.calls("quadform.skew_derivation_space") == 1
    assert s.calls("quadform.invariant_symmetric_forms") == 1
    assert s.calls("cli.main") == 1 and s.calls("documents.loads_document") == 2
