#!/usr/bin/env python3
"""quadlie benchmark: one closed-loop client, one process, one thread.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus_cli --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics.
Every output is checked (see ``workloads.failure``); the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is nonzero when any operation failed.

``--write-reference`` records the reference digests of every workload at
the default seed into ``bench/reference.json``.

Nothing here pins CPUs or controls frequency (the machine allows neither),
so the spread of repeated measurements is reported, not suppressed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_REPEATS = 5
COLD_STARTS = 15
COLD_STARTS_PER_PASS = 2
COLD_START_DOC = SRC / "quadlie" / "corpus" / "h1.algebra.json"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
ANALYSIS_KINDS = ("op.analyze", "op.roundtrip")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="corpus_cli")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest-rank percentile
        if n - rank >= 10:
            return p, ordered[int(rank) - 1]
    return None


def run_pass(workloads, ops, tracer=None):
    """Run the fixed operation list once; returns (wall seconds, results)."""
    results = []
    start = time.perf_counter()
    for op in ops:
        if tracer is None:
            results.append(workloads.run_op(op))
        else:
            with tracer.span(f"op.{op.kind}"):
                results.append(workloads.run_op(op))
    return time.perf_counter() - start, results


def check_pass(workloads, ops, results, reference, failures):
    for op, (_, code, text) in zip(ops, results):
        reason = workloads.failure(op, code, text, reference)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")


def cold_starts(count, workloads, reference, failures):
    """Wall time of fresh `python -m quadlie.cli check` processes, one at a time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    expected = reference.get("check:h1")
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "quadlie.cli", "check", str(COLD_START_DOC)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failures.append(f"cold start: exit code {proc.returncode}")
        elif expected is None or workloads.digest(proc.stdout) != expected:
            failures.append("cold start: output digest differs from the reference")
    return times


def import_times():
    """Seconds to import every quadlie layer, in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import quadlie.cli, quadlie.randomized; print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                                 capture_output=True, text=True, timeout=60, check=True).stdout)
            for _ in range(SETUP_REPEATS)]


def metric(value, unit, samples, **extra):
    return {"value": value, "unit": unit, "samples": samples, **extra}


def end_to_end(args, workloads, ops, setup_times, reference):
    failures = []
    walls, per_op, colds = [], [[] for _ in ops], []
    start = time.perf_counter()
    while True:
        wall, results = run_pass(workloads, ops)
        walls.append(wall)
        for samples, (seconds, _, _) in zip(per_op, results):
            samples.append(seconds)
        check_pass(workloads, ops, results, reference, failures)
        # cold starts are spread over the run, between passes
        colds += cold_starts(COLD_STARTS_PER_PASS, workloads, reference, failures)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    colds += cold_starts(max(0, COLD_STARTS - len(colds)), workloads, reference, failures)
    attempted = len(walls) * len(ops) + len(colds)
    imports = import_times()

    # Other tenants slow this machine down by up to 2x for seconds to
    # minutes at a time, and that noise only ever adds time.  Like timeit,
    # the gated timings therefore take the fastest repeat of each operation;
    # medians and quartiles are printed beside them.
    metrics = {
        "setup_s": metric(statistics.median(imports) + statistics.median(setup_times), "s",
                          len(setup_times), import_s=statistics.median(imports)),
        "wall_s": metric(sum(min(samples) for samples in per_op), "s", len(walls),
                         estimator="sum over ops of the fastest pass"),
        "cold_start_s": metric(min(colds), "s", len(colds), estimator="fastest",
                               median=statistics.median(colds), quartiles=quartiles(colds)),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    report = dict(metrics)
    report["pass_wall_s"] = metric(statistics.median(walls), "s", len(walls),
                                   quartiles=quartiles(walls))
    kinds = {}
    for op, samples in zip(ops, per_op):
        kinds.setdefault(op.kind, []).extend(samples)
    for kind, values in sorted(kinds.items()):
        report[f"{kind}_p50_s"] = metric(statistics.median(values), "s", len(values))
    every = [v for values in kinds.values() for v in values]
    found = tail(every)
    if found is None:
        report["op_tail_s"] = {"absent": f"{len(every)} op samples: no percentile has ten beyond it"}
    else:
        report["op_tail_s"] = metric(found[1], "s", len(every), percentile=found[0])
    report["failed_ratio"] = metric(len(failures) / attempted, "ratio", attempted)
    return metrics, report, attempted, failures


def per_layer(workloads, ops, reference):
    from tracer import Summary, Tracer, LAYERS

    failures = []
    untraced, results = run_pass(workloads, ops)
    check_pass(workloads, ops, results, reference, failures)
    tracer = Tracer()
    tracer.install()
    try:
        traced, results = run_pass(workloads, ops, tracer)
    finally:
        tracer.uninstall()
    check_pass(workloads, ops, results, reference, failures)
    s = Summary(tracer)

    m = {}

    def put(name, value, unit, **extra):
        m[name] = {"value": value, "unit": unit, **extra}

    for name in ("rref", "det", "inverse", "matmul"):
        put(f"exactla.{name}.calls", s.calls(f"exactla.{name}"), "count")
        put(f"exactla.{name}.self_s", s.self_s.get(f"exactla.{name}", 0.0), "s")
    put("exactla.rref.cells", s.measure_sum("exactla.rref"), "cells")
    put("exactla.rref.max_cells", s.measure_max("exactla.rref"), "cells")
    for name in ("kernel", "solve", "sum_intersect"):
        put(f"exactla.{name}.self_s", s.self_s.get(f"exactla.{name}", 0.0), "s")
    put("exactla.subspace.calls", s.calls("exactla.subspace"), "count")
    put("exactla.matmul.mults", s.measure_sum("exactla.matmul"), "count")

    for name in ("check_jacobi", "killing_form"):
        put(f"liealg.{name}.calls", s.calls(f"liealg.{name}"), "count")
        put(f"liealg.{name}.self_s", s.self_s.get(f"liealg.{name}", 0.0), "s")
    put("liealg.transport.self_s", s.self_s.get("liealg.transport", 0.0), "s")
    put("liealg.bracket.calls", s.calls("liealg.bracket"), "count")

    put("quadform.check_invariant_metric.calls", s.calls("quadform.check_invariant_metric"), "count")
    put("quadform.check_invariant_metric.self_s",
        s.self_s.get("quadform.check_invariant_metric", 0.0), "s")
    for name in ("invariant_symmetric_forms", "skew_derivation_space"):
        put(f"quadform.{name}.self_s", s.self_s.get(f"quadform.{name}", 0.0), "s")
        put(f"quadform.{name}.system_cells",
            s.children_of(f"quadform.{name}", "exactla.kernel")[1], "cells")
    put("quadform.transport_quadratic.calls", s.calls("quadform.transport_quadratic"), "count")

    put("heisenberg.build_with_heisenberg_ideal.calls",
        s.calls("heisenberg.build_with_heisenberg_ideal"), "count")
    put("heisenberg.build_with_heisenberg_ideal.self_s",
        s.self_s.get("heisenberg.build_with_heisenberg_ideal", 0.0), "s")

    for name in ("radical", "nilradical", "recover_structure"):
        put(f"structure.{name}.calls", s.calls(f"structure.{name}"), "count")
        put(f"structure.{name}.self_s", s.self_s.get(f"structure.{name}", 0.0), "s")
    put("structure.find_heisenberg_ideal.calls", s.calls("structure.find_heisenberg_ideal"), "count")
    for name in ("recognize_extended_heisenberg", "complement_from_quotient_metric",
                 "verify_nilradical_theorem", "has_invariant_quotient_metric"):
        put(f"structure.{name}.self_s", s.self_s.get(f"structure.{name}", 0.0), "s")
    probes, hits = s.children_of("structure.has_invariant_quotient_metric", "exactla.det")
    put("structure.has_invariant_quotient_metric.det_probes", probes, "count")
    put("structure.quotient_probe.hit_ratio", hits / probes if probes else 0.0, "ratio",
        base=probes)
    put("structure.ensure.calls", s.calls("structure.ensure"), "count")
    put("structure.nilradical.subtree_share",
        s.outermost_s("structure.nilradical") / traced, "ratio")

    analysis_ops = sum(s.calls(kind) for kind in ANALYSIS_KINDS)
    for name in ("liealg.check_jacobi", "quadform.check_invariant_metric",
                 "structure.nilradical", "structure.radical"):
        calls = s.calls_under_roots(name, ANALYSIS_KINDS)
        put(f"{name}.per_op", calls / analysis_ops if analysis_ops else 0.0, "calls/op",
            base=analysis_ops)

    for name in ("loads_document", "dumps_canonical", "construct_from_json"):
        put(f"documents.{name}.self_s", s.self_s.get(f"documents.{name}", 0.0), "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", s.layer_self_s(layer), "s")

    put("trace.wall_s", traced, "s")
    put("trace.untraced_wall_s", untraced, "s")
    put("trace.overhead_ratio", traced / untraced - 1.0, "ratio")
    put("trace.spans", s.spans, "count")
    return m, 2 * len(ops), failures


def write_reference(workloads):
    table = {}
    for name in workloads.WORKLOADS:
        ops = workloads.prepare(name, workloads.DEFAULT_SEED)
        _, results = run_pass(workloads, ops)
        failures = []
        check_pass(workloads, ops, results, {}, failures)
        if failures:
            raise SystemExit("not recording a reference from failing outputs:\n" + "\n".join(failures))
        key = name if name == "corpus_cli" else f"{name}@{workloads.DEFAULT_SEED}"
        table[key] = {op.label: workloads.digest(text)
                      for op, (_, _, text) in zip(ops, results)}
    workloads.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadlie" / "cli.py").is_file():
        print(f"error: no quadlie sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.write_reference:
        write_reference(workloads)
        return 0

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workloads.prepare(args.workload, args.seed)
        reference = workloads.load_reference(args.workload, args.seed)
        corpus_reference = workloads.load_reference("corpus_cli", args.seed)
        setup_times.append(time.perf_counter() - start)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_pass": len(ops),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(),
        "note": "closed loop, one client, one thread; no CPU pinning or frequency "
                "control is possible here, so spread is reported, not suppressed",
    }
    if args.trace:
        report, attempted, failures = per_layer(workloads, ops, reference)
        metrics = report
    else:
        metrics, report, attempted, failures = end_to_end(
            args, workloads, ops, setup_times, {**corpus_reference, **reference})
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}
    print(json.dumps({"meta": meta}, sort_keys=True))
    for name, entry in report.items():
        print(f"{name:52s} {json.dumps(entry, sort_keys=True)}")
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}, sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
