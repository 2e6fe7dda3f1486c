#!/usr/bin/env python3
"""Time the two large exact solvers, constructor validation, the
nilradical, ``quadlie check`` and ``quadlie analyze`` at the scale of the
benchmark grid, and the nilradical's word closure on fixed shapes that
run it.

Builds the fixed ``bench.workloads.grid_algebras`` shapes (4, False, m) for
m = 2..7, that is, a 4-dimensional non-abelian core extended to dimension
10, 12, ..., 20, and times ``quadform.skew_derivation_space``,
``quadform.invariant_symmetric_forms``, the validating constructor
``QuadraticLieAlgebra(algebra, metric)`` (the Jacobi identity and the
invariant-metric check), ``structure.nilradical`` (with the radical it
computes first) and the whole ``quadlie check`` and ``quadlie analyze``
commands (``cli.main`` reading the algebra's document from stdin, output
discarded) once each on every shape, and the interchange boundary:
``documents.loads_document`` on the shape's document and
``documents.dumps_canonical`` on its ``analyze`` report.  Each shape is its own one-entry
grid, so the dim-10 algebra is the first one of the ``grid_forms``
workload.  Standard library only, no options:

    python tools/time_solvers.py

Prints first one JSON line ``{"import_s": ...}``: the median seconds of
``import quadlie.cli, quadlie.randomized`` over 5 fresh interpreters,
measured by ``bench/run.py``'s own ``import_times``, the import part of
its ``setup_s``.  Then one JSON line per shape: the shape, the
dimension, the seconds of each call (``time.perf_counter``, one call,
set-up excluded; ``loads_s`` and ``dumps_s`` for the boundary), the
dimension of each solution space and that of the nilradical, the
number of equations of each solver's system (``invariance_rows``,
``cocycle_rows``: the nonzero rows passed to ``kernel``) beside its rank
(``invariance_rank``, ``cocycle_rank``: the unknowns minus the kernel
dimension; rows minus rank counts the redundant equations), and the
nilradical's closure rounds (``nilradical_closure_rounds``, counted on a
second, untimed call).  The grid shapes run no round: ker K_R meets the
floor [g, R] + Z(g) at once.

Last, one JSON line per closure shape (``CLOSURES``), algebras whose
kernel starts above the floor: ``coadjoint_double`` of the filiform
algebras of dimension 5 and 7 (nilpotent, dimension 10 and 14) and the
rotation core of the corpus (``build_rotation_core``, solvable and not
nilpotent) with its ``coadjoint_double``.  Each line holds the dimension,
that of the radical and of the nilradical, the fastest of 5 timed
``nilradical(g, R)`` calls on the precomputed radical
(``nilradical_s``) and the closure rounds.  Single runs on a shared
machine vary; repeat the command to see the spread.
"""

import contextlib
import io
import json
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from bench.run import import_times  # noqa: E402
from bench.workloads import grid_algebras  # noqa: E402
from quadlie import cli  # noqa: E402
from quadlie.documents import (  # noqa: E402
    AlgebraDocument,
    dumps_canonical,
    dumps_document,
    loads_document,
)
from quadlie.quadform import (  # noqa: E402
    QuadraticLieAlgebra,
    _cocycle_system,
    _invariance_system,
    invariant_symmetric_forms,
    skew_derivation_space,
)
from quadlie import structure  # noqa: E402
from quadlie.heisenberg import coadjoint_double  # noqa: E402
from quadlie.liealg import LieAlgebra  # noqa: E402
from quadlie.structure import nilradical, radical  # noqa: E402

SHAPES = tuple((4, False, m) for m in range(2, 8))
CLOSURES = (
    "coadjoint_double(filiform 5)",
    "coadjoint_double(filiform 7)",
    "build_rotation_core",
    "coadjoint_double(build_rotation_core)",
)
CORPUS = ROOT / "src" / "quadlie" / "corpus"


def time_command(q, command: str) -> float:
    """Seconds of one ``quadlie <command> -`` on the document of ``q``.

    Raises ``RuntimeError`` when the command does not exit with 0."""
    text = dumps_document(AlgebraDocument("grid", q.algebra, q.metric))
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(text)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.main([command, "-"])
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    if code != 0:
        raise RuntimeError(f"{command} exited with {code}: {sink.getvalue()}")
    return elapsed


def closure_rounds(g) -> int:
    """The rounds of words that one ``nilradical(g)`` runs: its
    eliminations of flattened k x k matrices, k = dim Rad(g), past the one
    that reduces the generators (``structure._echelon`` calls k^2 wide)."""
    R = radical(g)
    saved = structure._echelon
    widths = []

    def counting(rows, ncols):
        widths.append(ncols)
        return saved(rows, ncols)

    structure._echelon = counting
    try:
        nilradical(g, R)
    finally:
        structure._echelon = saved
    return max(widths.count(R.dim ** 2) - 1, 0)


def filiform(n: int) -> LieAlgebra:
    """The model filiform algebra: [e_1, e_i] = e_(i+1) for 1 < i < n."""
    return LieAlgebra(n, {(0, i): [(i + 1, 1)] for i in range(1, n - 1)})


def closure_algebra(name: str) -> LieAlgebra:
    """The algebra of one of the ``CLOSURES`` names."""
    text = (CORPUS / "build_rotation_core.algebra.json").read_text(encoding="utf-8")
    rotation = loads_document(text).algebra
    return {
        "coadjoint_double(filiform 5)": coadjoint_double(filiform(5)).algebra,
        "coadjoint_double(filiform 7)": coadjoint_double(filiform(7)).algebra,
        "build_rotation_core": rotation,
        "coadjoint_double(build_rotation_core)": coadjoint_double(rotation).algebra,
    }[name]


def time_closure(name: str) -> dict:
    """The fastest of 5 timed ``nilradical`` calls on the closure shape
    ``name``, given its radical, with the dimensions and the rounds."""
    g = closure_algebra(name)
    R = radical(g)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        nil = nilradical(g, R)
        times.append(time.perf_counter() - start)
    return {
        "closure": name,
        "dim": g.dim,
        "radical_dim": R.dim,
        "nilradical_dim": nil.dim,
        "nilradical_s": round(min(times), 5),
        "nilradical_closure_rounds": closure_rounds(g),
    }


def time_boundary(q) -> tuple:
    """Seconds of one ``loads_document`` of the document of ``q`` and of
    one ``dumps_canonical`` of its ``analyze`` report."""
    text = dumps_document(AlgebraDocument("grid", q.algebra, q.metric))
    start = time.perf_counter()
    doc = loads_document(text)
    loaded = time.perf_counter()
    report, _ = cli.cmd_analyze(doc)
    start_dump = time.perf_counter()
    dumps_canonical(report)
    return loaded - start, time.perf_counter() - start_dump


def time_solvers(shape) -> dict:
    """One timed call of each solver, of the validating constructor, of
    the nilradical, of ``check`` and of ``analyze`` on the grid algebra of
    ``shape``, of the document's parse and of the report's dump, and the
    row counts and ranks of the two solver systems."""
    q = grid_algebras([shape])[0]
    invariance, cocycle = _invariance_system(q.algebra), _cocycle_system(q.algebra)
    start = time.perf_counter()
    skew = skew_derivation_space(q)
    middle = time.perf_counter()
    forms = invariant_symmetric_forms(q.algebra)
    end = time.perf_counter()
    QuadraticLieAlgebra(q.algebra, q.metric)
    validated = time.perf_counter()
    nil = nilradical(q.algebra)
    nil_end = time.perf_counter()
    loads_s, dumps_s = time_boundary(q)
    return {
        "shape": list(shape),
        "dim": q.dim,
        "skew_derivation_space_s": round(middle - start, 4),
        "skew_derivations": len(skew),
        "invariant_symmetric_forms_s": round(end - middle, 4),
        "invariant_forms": len(forms),
        "invariance_rows": invariance.nrows,
        "invariance_rank": invariance.ncols - len(forms),
        "cocycle_rows": cocycle.nrows,
        "cocycle_rank": cocycle.ncols - len(skew),
        "quadratic_constructor_s": round(validated - end, 4),
        "nilradical_s": round(nil_end - validated, 4),
        "nilradical_dim": nil.dim,
        "nilradical_closure_rounds": closure_rounds(q.algebra),
        "check_s": round(time_command(q, "check"), 4),
        "analyze_s": round(time_command(q, "analyze"), 4),
        "loads_s": round(loads_s, 5),
        "dumps_s": round(dumps_s, 5),
    }


def main() -> int:
    print(json.dumps({"import_s": round(statistics.median(import_times()), 4)}), flush=True)
    for shape in SHAPES:
        print(json.dumps(time_solvers(shape)), flush=True)
    for name in CLOSURES:
        print(json.dumps(time_closure(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
