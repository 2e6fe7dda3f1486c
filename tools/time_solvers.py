#!/usr/bin/env python3
"""Time the two large exact solvers, constructor validation, the
builders, the nilradical, ``quadlie check`` and ``quadlie analyze`` at the
scale of the benchmark grid, and the nilradical's word closure on fixed
shapes that run it.

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
``documents.dumps_canonical`` on its ``analyze`` report.  It also times
the three builders, each the fastest of 3 calls: ``build_with_heisenberg_ideal``
on the draws that build the shape's algebra (``build_input``, before the
base change), ``double_extension`` of the shape's algebra by its first
skew derivation, and ``coadjoint_double`` of its Lie algebra.  Each shape
is its own one-entry grid, so the dim-10 algebra is the first one of the
``grid_forms`` workload.  Standard library only, no options:

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
second, untimed call), and the seconds of the three builders
(``build_with_heisenberg_ideal_s``, ``double_extension_s``,
``coadjoint_double_s``).  The grid shapes run no round: ker K_R meets the
floor [g, R] + Z(g) at once.

Last, one JSON line per closure shape (``CLOSURES``), algebras whose
kernel starts above the floor: ``coadjoint_double`` of the filiform
algebras of dimension 5 and 7 (nilpotent, dimension 10 and 14) and the
rotation core of the corpus (``build_rotation_core``, solvable and not
nilpotent) with its ``coadjoint_double``.  Each line holds the dimension,
that of the radical and of the nilradical, the fastest of 5 timed
``nilradical(g, R)`` calls on the precomputed radical
(``nilradical_s``) and the closure rounds.

Last, one JSON line per recovery shape (``RECOVERIES``): the grid shapes
(3, False, m) for m = 3, 5, 7, dimension 11, 15 and 19, on which
``analyze`` finds a Heisenberg ideal (on the (4, False, m) shapes above it
finds none, so their ``analyze_s`` never reaches recovery).  Each line
holds the shape, the dimension, the seconds of one ``quadlie analyze``
(``analyze_s``) and the fastest of 3 timed calls of ``recover_structure``
(``recover_s``) and of the ``HeisenbergIdealData`` certificate
(``certificate_s``) on the data that an untimed ``analyze`` found.
Single runs on a shared machine vary; repeat the command to see the
spread.
"""

import contextlib
import io
import json
import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from bench.run import import_times  # noqa: E402
from bench.workloads import GRID_SEED, _core, grid_algebras  # noqa: E402
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
from quadlie.heisenberg import (  # noqa: E402
    SymplecticSpace,
    build_with_heisenberg_ideal,
    coadjoint_double,
    double_extension,
)
from quadlie.liealg import LieAlgebra  # noqa: E402
from quadlie.randomized import (  # noqa: E402
    random_invertible_omega_skew,
    random_skew_derivation,
    random_unimodular,
)
from quadlie.structure import (  # noqa: E402
    HeisenbergIdealData,
    analyze,
    nilradical,
    radical,
    recover_structure,
)

SHAPES = tuple((4, False, m) for m in range(2, 8))
CLOSURES = (
    "coadjoint_double(filiform 5)",
    "coadjoint_double(filiform 7)",
    "build_rotation_core",
    "coadjoint_double(build_rotation_core)",
)
RECOVERIES = tuple((3, False, m) for m in (3, 5, 7))
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


def fastest(call, repeats: int = 3) -> tuple:
    """(seconds, result): the fewest seconds of ``repeats`` timed calls of
    ``call()``, and what the last one returned."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return min(times), result


def time_closure(name: str) -> dict:
    """The fastest of 5 timed ``nilradical`` calls on the closure shape
    ``name``, given its radical, with the dimensions and the rounds."""
    g = closure_algebra(name)
    R = radical(g)
    nilradical_s, nil = fastest(lambda: nilradical(g, R), 5)
    return {
        "closure": name,
        "dim": g.dim,
        "radical_dim": R.dim,
        "nilradical_dim": nil.dim,
        "nilradical_s": round(nilradical_s, 5),
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


def build_input(shape) -> tuple:
    """(S, D, V, sigma, P): the draws from which ``grid_algebras`` builds
    the algebra of ``shape`` as a one-entry grid, that is the builder's
    input and the base change that moves its output."""
    core_dim, abelian, m = shape
    rng = random.Random(GRID_SEED)
    S = _core(rng, core_dim, abelian)
    D = random_skew_derivation(rng, S)
    V = SymplecticSpace.standard(m)
    sigma = random_invertible_omega_skew(rng, V)
    return S, D, V, sigma, random_unimodular(rng, S.dim + V.dim + 2)


def time_solvers(shape) -> dict:
    """One timed call of each solver, of the validating constructor, of
    the nilradical, of ``check`` and of ``analyze`` on the grid algebra of
    ``shape``, of the document's parse and of the report's dump, the
    fastest of 3 calls of each builder, and the row counts and ranks of
    the two solver systems."""
    q = grid_algebras([shape])[0]
    S, D, V, sigma, _ = build_input(shape)
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
        "build_with_heisenberg_ideal_s": round(
            fastest(lambda: build_with_heisenberg_ideal(S, D, V, sigma))[0], 5
        ),
        "double_extension_s": round(fastest(lambda: double_extension(q, skew[0]))[0], 5),
        "coadjoint_double_s": round(fastest(lambda: coadjoint_double(q.algebra))[0], 5),
    }


def time_recovery(shape) -> dict:
    """One timed ``quadlie analyze`` on the grid algebra of ``shape``, and
    the fastest of 3 timed recoveries and certificates of the Heisenberg
    data that an untimed ``analyze`` found on it."""
    q = grid_algebras([shape])[0]
    analyze_s = time_command(q, "analyze")
    h = analyze(q).heisenberg
    if h is None:
        raise RuntimeError(f"analyze finds no Heisenberg ideal on {shape}")
    return {
        "recovery": list(shape),
        "dim": q.dim,
        "analyze_s": round(analyze_s, 4),
        "recover_s": round(fastest(lambda: recover_structure(q, h))[0], 5),
        "certificate_s": round(fastest(
            lambda: HeisenbergIdealData(h.algebra, h.ideal, h.hbar, h.v_basis, h.omega)
        )[0], 5),
    }


def main() -> int:
    print(json.dumps({"import_s": round(statistics.median(import_times()), 4)}), flush=True)
    for shape in SHAPES:
        print(json.dumps(time_solvers(shape)), flush=True)
    for name in CLOSURES:
        print(json.dumps(time_closure(name)), flush=True)
    for shape in RECOVERIES:
        print(json.dumps(time_recovery(shape)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
