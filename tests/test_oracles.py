"""The direct Killing form, nilradical (also against the word-at-a-time
closure), the recognizer's recovery on the radical, constructors, sparse
row reduction, integer matrix product and determinant, bracket, solver
systems, kernel, skew-derivation solver, Jacobi/invariance checks and
the ``liealg`` bracket kernels against the earlier algorithms, also over
structure constants with denominators; the integer ``liealg`` kernels
against their Fraction versions.

The oracles in ``oracles.py`` compute the same values the slow way.  Subspaces
are compared by literal rref equality, so any difference in the result fails;
constructor outputs are compared as values, by labels and by document bytes.
"""

import inspect
import pathlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

import fixtures
from oracles import (
    ad_by_brackets,
    ad_fraction,
    add_fraction,
    apply_fraction,
    alternating_rows_dense,
    bracket_by_formula,
    bracket_subspaces_by_pairs,
    bracket_subspaces_fraction,
    centralizer_by_brackets,
    centralizer_fraction,
    check_invariant_metric_dense,
    check_jacobi_dense,
    coadjoint_double_by_bracket_basis,
    cocycle_rows_dense,
    coordinates_fraction,
    derived_subalgebra_fraction,
    det_by_scaled_rows,
    det_fraction,
    build_with_heisenberg_ideal_direct,
    double_extension_direct,
    echelon_by_column_sweep,
    extend_heisenberg_direct,
    heisenberg_data_by_pairs,
    heisenberg_data_checks_by_pairs,
    heisenberg_ideal_span,
    ideal_generated_by,
    ideal_generated_by_brackets,
    inverse_fraction,
    invariance_rows_dense,
    is_derivation_by_brackets,
    is_ideal_by_brackets,
    is_subalgebra_by_brackets,
    kernel_by_free_columns,
    killing_form_by_products,
    killing_form_fraction,
    lower_central_series_fraction,
    matmul_by_scaled_rows,
    matmul_fraction,
    nilradical_four_step,
    nilradical_incremental,
    quotient_by_reduction,
    quotient_fraction,
    radical_recovery_by_refind,
    random_integer_matrix,
    rref_dense,
    rref_rows_by_echelon,
    rref_rows_fraction,
    scale_fraction,
    skew_derivation_rows_dense,
    skew_derivation_space_fraction,
    structure_in_fraction,
    sub_fraction,
    subalgebra_on_by_brackets,
    subalgebra_on_fraction,
    transport_by_brackets,
    transport_fraction,
    transport_matrix_fraction,
    transport_subspace,
    transpose_fraction,
)

from quadlie.cli import cmd_check
from quadlie.documents import AlgebraDocument, dumps_document, loads_document
from quadlie.heisenberg import (
    SymplecticSpace,
    build_with_heisenberg_ideal,
    coadjoint_double,
    double_extension,
    extend_heisenberg,
    standard_symplectic_matrix,
)
from quadlie.exactla import (
    Matrix,
    SparseSystem,
    Subspace,
    _echelon,
    form_restrict_nondegenerate,
    kernel,
    restricted_gram,
    sum_intersect,
    unit_vector,
    zero_vector,
)
from quadlie.liealg import (
    LieAlgebra,
    _integer_table,
    _structure_in,
    ad,
    bracket,
    bracket_subspaces,
    center,
    centralizer,
    check_jacobi,
    derived_series,
    derived_subalgebra,
    direct_sum,
    is_derivation,
    is_ideal,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    killing_form,
    lower_central_series,
    quotient,
    subalgebra_on,
    transport,
)
from quadlie.quadform import (
    QuadraticLieAlgebra,
    _cocycle_system,
    _invariance_system,
    check_invariant_metric,
    invariant_symmetric_forms,
    restrict_quadratic,
    skew_derivation_space,
    transport_quadratic,
)
from quadlie.randomized import (
    random_build_input,
    random_core_algebra,
    random_invertible_omega_skew,
    random_skew_derivation,
    random_symmetric_matrix,
    random_unimodular,
)
from quadlie import structure as structure_module
from quadlie.structure import (
    HeisenbergIdealData,
    _heisenberg_data,
    find_heisenberg_ideal,
    nilradical,
    radical,
    verify_nilradical_theorem,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "quadlie" / "corpus"
RANDOM_SEEDS = range(30)


def _fixture_values():
    """(name, value) of every no-argument constructor in fixtures.py."""
    found = []
    for name, function in inspect.getmembers(fixtures, inspect.isfunction):
        if function.__module__ != fixtures.__name__:
            continue
        params = inspect.signature(function).parameters.values()
        if any(p.default is inspect.Parameter.empty for p in params):
            continue
        found.append((name, function()))
    return found


def _fixture_algebras():
    """Every algebra that a no-argument constructor in fixtures.py returns."""
    found = []
    for name, value in _fixture_values():
        if isinstance(value, QuadraticLieAlgebra):
            value = value.algebra
        if isinstance(value, LieAlgebra):
            found.append(pytest.param(value, id=name))
    return found


def _fixture_quadratics():
    return [
        pytest.param(value, id=name)
        for name, value in _fixture_values()
        if isinstance(value, QuadraticLieAlgebra)
    ]


def _corpus_documents():
    return [
        (path.name, loads_document(path.read_text(encoding="utf-8")))
        for path in sorted(CORPUS.glob("*.algebra.json"))
    ]


def _corpus_algebras():
    return [pytest.param(doc.algebra, id=name) for name, doc in _corpus_documents()]


def _corpus_quadratics():
    return [
        pytest.param(doc.quadratic(), id=name)
        for name, doc in _corpus_documents()
        if doc.metric is not None
    ]


def _random_quadratic(seed):
    """A random builder output (dim 4 to 10) moved by a random unimodular base change."""
    rng = random.Random(seed)
    q = build_with_heisenberg_ideal(*random_build_input(rng))
    return transport_quadratic(q, random_unimodular(rng, q.dim))


def _random_build(seed):
    return _random_quadratic(seed).algebra


def _assert_matches_oracles(g):
    assert killing_form(g) == killing_form_by_products(g)
    assert nilradical(g) == nilradical_four_step(g) == nilradical_incremental(g)
    assert is_solvable(g) == derived_series(g)[-1].is_zero()


def _assert_radical_verdict_matches_refind(q):
    """The nilradical theorem's recognizer verdict on the radical recovers
    what searching the nilradical again in radical coordinates recovers."""
    verdict = verify_nilradical_theorem(q).radical_verdict
    expected = radical_recovery_by_refind(q)
    assert (None if verdict is None else verdict.recovered) == expected


def test_fixture_and_corpus_lists_are_found():
    assert len(_fixture_algebras()) >= 13
    assert len(_corpus_algebras()) >= 10
    assert len(_fixture_quadratics()) >= 8
    assert len(_corpus_quadratics()) >= 7


@pytest.mark.parametrize("g", _fixture_algebras() + _corpus_algebras())
def test_fixture_and_corpus_algebras_match_oracles(g):
    _assert_matches_oracles(g)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_builds_match_oracles(seed):
    """Also: the elimination core and the kernel on the forms and skew
    2-cocycle systems, and the recognizer's recovery on the radical."""
    q = _random_quadratic(seed)
    g = q.algebra
    assert 4 <= g.dim <= 10
    _assert_matches_oracles(g)
    _assert_radical_verdict_matches_refind(q)
    for system in (_invariance_system(g), _cocycle_system(g)):
        _assert_rref_matches_oracles(_dense(system))
        _assert_kernel_matches_oracle(system)


@pytest.mark.parametrize("seed", range(8))
def test_nilradical_matches_word_closure_on_larger_random_builds(seed):
    """Dims 4 to 15, where the four-step oracle is too slow.  On seed 4
    (dim 15) Nil(g) is larger than [g, R]: the oracle's closure runs to the
    end, while the library stops on the floor [g, R] + Z(g)."""
    rng = random.Random(seed)
    q = build_with_heisenberg_ideal(*random_build_input(rng, 4, 6))
    g = transport_quadratic(q, random_unimodular(rng, q.dim)).algebra
    assert 4 <= g.dim <= 15
    nil = nilradical(g)
    assert nil == nilradical_incremental(g)
    if seed == 4:
        assert g.dim == 15
        assert nil.dim > bracket_subspaces(g, Subspace.full(g.dim), radical(g)).dim


CONSTRUCTOR_SEEDS = range(40)


def _assert_same_construction(built, direct):
    assert built == direct
    assert built.algebra.basis_labels == direct.algebra.basis_labels
    assert dumps_document(AlgebraDocument("x", built.algebra, built.metric)) == dumps_document(
        AlgebraDocument("x", direct.algebra, direct.metric)
    )


@pytest.mark.parametrize("seed", CONSTRUCTOR_SEEDS)
def test_extend_heisenberg_is_the_builder_with_zero_core(seed):
    """Random m, a random nondegenerate omega (or the default) and a random
    invertible phi, given as a matrix or as a map of the symplectic space."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    omega = None
    if rng.random() < 0.5:
        P = random_unimodular(rng, 2 * m)
        omega = P.transpose() @ standard_symplectic_matrix(m) @ P
    V = SymplecticSpace.standard(m) if omega is None else SymplecticSpace(omega)
    phi = random_invertible_omega_skew(rng, V)
    if rng.random() < 0.5:
        phi = phi.matrix
    _assert_same_construction(
        extend_heisenberg(m, omega, phi), extend_heisenberg_direct(m, omega, phi)
    )


@pytest.mark.parametrize("seed", CONSTRUCTOR_SEEDS)
def test_double_extension_is_the_builder_with_zero_v(seed):
    """Random cores (the zero core included), moved by a random base change,
    with a random metric-skew derivation."""
    rng = random.Random(seed)
    S = random_core_algebra(rng)
    if S.dim > 0 and rng.random() < 0.5:
        S = transport_quadratic(S, random_unimodular(rng, S.dim))
    D = random_skew_derivation(rng, S)
    rng.random()  # drawn and unused, so that each seed's draws stay fixed
    _assert_same_construction(double_extension(S, D), double_extension_direct(S, D))


@pytest.mark.parametrize("seed", CONSTRUCTOR_SEEDS)
def test_builder_matches_its_entry_by_entry_oracle(seed):
    """Draws with a nonzero core S, at times moved by a random base change,
    and a nonzero V: every block of the bracket table and the metric."""
    rng = random.Random(seed)
    S, D, V, sigma = random_build_input(rng, 4, 3)
    while S.dim == 0:
        S, D, V, sigma = random_build_input(rng, 4, 3)
    if rng.random() < 0.5:
        P = random_unimodular(rng, S.dim)  # its rows are the new basis
        S, D = transport_quadratic(S, P), P.transpose().inverse() @ D @ P.transpose()
    assert S.dim > 0 and V.dim > 0
    _assert_same_construction(
        build_with_heisenberg_ideal(S, D, V, sigma),
        build_with_heisenberg_ideal_direct(S, D, V, sigma),
    )


# -- the integer elimination core against the Fraction and dense cores --------

def _fraction_rows(A):
    """The rows of A as fresh dicts {column: nonzero Fraction}."""
    return [{j: x for j, x in enumerate(row) if x} for row in A.rows]


def _assert_core_matches_fraction_core(A):
    """``_echelon``, divided by its pivots, returns the rows of the Fraction
    core: nonzero Fraction entries only, and every pivot entry exactly
    Fraction(1); on the integer rows of ``sparse_rows`` it returns the same."""
    reduced, pivots = rref_rows_by_echelon(_fraction_rows(A), A.ncols)
    assert (reduced, pivots) == rref_rows_fraction(_fraction_rows(A), A.ncols)
    assert rref_rows_by_echelon(A.sparse_rows(), A.ncols) == (reduced, pivots)
    assert all(type(x) is Fraction and x for row in reduced for x in row.values())
    assert all(type(row[c]) is Fraction and row[c] == 1 for row, c in zip(reduced, pivots))


def _assert_rref_matches_oracles(A):
    R, pivots = A.rref()
    assert (R, pivots) == rref_dense(A)
    _assert_core_matches_fraction_core(A)
    assert R.shape == A.shape
    assert all(type(x) is Fraction for row in R.rows for x in row)
    rank = len(pivots)
    assert all(R.rows[r][c] == 1 for r, c in enumerate(pivots))
    assert all(any(row) for row in R.rows[:rank])
    assert not any(any(row) for row in R.rows[rank:])


def _random_entry(rng, density):
    if rng.random() >= density:
        return 0
    kind = rng.random()
    if kind < 0.5:
        return rng.randint(-3, 3)
    if kind < 0.85:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**15))


def _random_matrix(rng):
    """A random shape and density; sometimes rank-deficient or with repeated rows."""
    nrows, ncols = rng.randint(0, 12), rng.randint(0, 12)
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    rows = [[_random_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.4:
        # append combinations of the rows so far: rank stays below nrows
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-5, 5), rng.randint(1, 5)), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    if rows and rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    rng.shuffle(rows)
    return Matrix(rows, ncols)


RREF_SEEDS = range(200)


@pytest.mark.parametrize("seed", RREF_SEEDS)
def test_rref_matches_dense_on_random_matrices(seed):
    _assert_rref_matches_oracles(_random_matrix(random.Random(seed)))


def _big(p, q):
    return Fraction(p * 10**18 + 7, q * 10**17 + 3)


EDGE_MATRICES = [
    pytest.param(Matrix([], 0), id="0x0"),
    pytest.param(Matrix([], 5), id="0x5"),
    pytest.param(Matrix([(), (), ()], 0), id="3x0"),
    pytest.param(Matrix.zeros(4, 6), id="all-zero"),
    pytest.param(Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1], [1, 2, 4]], 3), id="rank-deficient"),
    pytest.param(Matrix([[0, 1, 2], [0, 1, 2], [0, 1, 2]], 3), id="duplicated-rows"),
    pytest.param(Matrix([[0, 0, 2, 0, 1, 0, 0, 3], [0, 5, 0, 0, 0, 1, 0, 0]], 8), id="wide"),
    pytest.param(Matrix([[0, 1], [0, 2], [3, 0], [0, 0], [1, 1], [2, 7]], 2), id="tall"),
    pytest.param(
        Matrix([[_big(1, 2), _big(3, 5), 1], [_big(7, 1), 0, _big(2, 9)], [1, _big(4, 4), 0]], 3),
        id="large-denominators",
    ),
    pytest.param(Matrix.identity(5), id="identity"),
]


@pytest.mark.parametrize("A", EDGE_MATRICES)
def test_rref_matches_dense_on_edge_cases(A):
    _assert_rref_matches_oracles(A)


def _tall_system(rng):
    """(rows, ncols): sparse rows, many more than their rank, as the
    solvers' systems are.  Beside combinations of a few primitive base
    rows they hold zero rows, duplicates, scalar multiples (some by a
    Fraction) and rows whose entries are Fractions or ints and Fractions
    mixed, and the row order is random."""
    ncols = rng.randint(1, 14)
    base = []
    for _ in range(rng.randint(1, min(ncols, 6))):
        support = rng.sample(range(ncols), rng.randint(1, min(ncols, 5)))
        base.append({j: rng.choice((-3, -2, -1, 1, 2, 5, 10**12 + 1)) for j in support})
    rows = [dict(row) for row in base]
    for _ in range(rng.randint(2, 8) * len(base)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.35:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.6:
            scale = rng.choice((-1, 2, -6, Fraction(3, 7), Fraction(-1, 2)))
            rows.append({j: scale * x for j, x in rng.choice(base).items()})
        else:
            row: dict = {}
            for b in rng.sample(base, rng.randint(1, len(base))):
                c = rng.randint(-4, 4) or 1
                for j, x in b.items():
                    row[j] = row.get(j, 0) + c * x
            rows.append({j: x for j, x in row.items() if x})
    for i, row in enumerate(rows):
        if row and rng.random() < 0.15:
            rows[i] = {j: x if rng.random() < 0.5 else Fraction(x) for j, x in row.items()}
    rng.shuffle(rows)
    return rows, ncols


def _copies(rows):
    return [dict(row) for row in rows]


def _fractions_of(rows):
    return [{j: Fraction(x) for j, x in row.items()} for row in rows]


TALL_SEEDS = range(150)


@pytest.mark.parametrize("seed", TALL_SEEDS)
def test_echelon_matches_column_sweep_and_fraction_core_on_tall_systems(seed):
    """Row insertion, divided by its pivots, gives the rows of the column
    sweep it replaced and of the Fraction core, and so it does on a seeded
    shuffle of the same rows."""
    rng = random.Random(seed)
    rows, ncols = _tall_system(rng)
    assert len(rows) > 2 * len(rref_rows_fraction(_fractions_of(rows), ncols)[1])
    for order in (rows, rng.sample(rows, len(rows))):
        reduced = rref_rows_by_echelon(_copies(order), ncols)
        assert reduced == rref_rows_by_echelon(_copies(order), ncols, echelon_by_column_sweep)
        assert reduced == rref_rows_fraction(_fractions_of(order), ncols)


@pytest.mark.parametrize("seed", TALL_SEEDS[:50])
def test_echelon_returns_primitive_pivot_rows_and_leaves_its_rows_alone(seed):
    """The contract ``_reduced_matrix`` and ``kernel`` read: each returned
    row has content 1 and holds its pivot entry.  The argument rows are
    left as they were, also when a call's own rows come back in beside new
    ones, as ``structure._nilradical`` passes them round after round."""
    rows, ncols = _tall_system(random.Random(seed))
    before = _copies(rows)
    done, pivots = _echelon(rows, ncols)
    assert rows == before
    for c, row in zip(pivots, done):
        assert c in row and gcd(*row.values()) == 1
        assert all(type(x) is int for x in row.values())
    more = [{j: 1 for j in row} for row in before]
    again = done + more
    kept = _copies(again)
    done_again, pivots_again = _echelon(again, ncols)
    assert again == kept
    for c, row in zip(pivots_again, done_again):
        assert c in row and gcd(*row.values()) == 1


def _dense(system):
    return Matrix(
        [[row.get(j, 0) for j in range(system.ncols)] for row in system.rows], system.ncols
    )


def _assert_kernel_matches_oracle(A):
    """kernel(A) is the Subspace of the free-column oracle: the same basis
    rows and pivots, every entry a Fraction.  A SparseSystem gives the
    kernel of its dense matrix too.  Returns the kernel."""
    K = kernel(A)
    expected = kernel_by_free_columns(A)
    assert K == expected and K.pivots == expected.pivots
    assert K.basis.shape == (len(K.pivots), A.ncols)
    assert all(type(x) is Fraction for row in K.vectors() for x in row)
    if isinstance(A, SparseSystem):
        assert kernel(_dense(A)) == expected
    return K


def _sparse_system(A):
    system = SparseSystem(A.ncols)
    for row in A.rows:
        system.add(enumerate(row))
    return system


@pytest.mark.parametrize("A", EDGE_MATRICES + [
    pytest.param(Matrix([[1, 2, 0, 5], [0, 3, 1, 0], [7, 0, 0, 1]], 4), id="full-row-rank"),
    pytest.param(Matrix([[1, 2], [3, 4], [5, 7]], 2), id="full-column-rank"),
])
def test_kernel_matches_free_column_oracle_on_edge_cases(A):
    _assert_kernel_matches_oracle(A)
    _assert_kernel_matches_oracle(_sparse_system(A))


@pytest.mark.parametrize("seed", range(100))
def test_kernel_matches_free_column_oracle_on_random_matrices(seed):
    """Denominators up to 10^6, some zero rows and columns; one matrix in
    three gets rows that combine the others, so its rank drops."""
    rng = random.Random(seed)
    A = _rational_matrix(rng, rng.randint(0, 9), rng.randint(0, 9))
    if A.nrows and seed % 3 == 0:
        rows = [list(row) for row in A.rows]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            rows.insert(rng.randrange(len(rows) + 1), [x + c * y for x, y in zip(a, b)])
        A = Matrix(rows, A.ncols)
    _assert_kernel_matches_oracle(A)
    _assert_kernel_matches_oracle(_sparse_system(A))


def _assert_kernel_of(system, dense):
    """kernel(system) is the oracle's null space of the dense system: A v = 0
    on its basis, and its dimension is the number of free columns."""
    K = _assert_kernel_matches_oracle(system)
    assert K == kernel_by_free_columns(dense)
    assert K.ambient_dim == dense.ncols
    assert K.dim == dense.ncols - len(rref_dense(dense)[1])
    assert all(not any(dense.apply(v)) for v in K.vectors())


def _assert_forms_system_matches_dense(g):
    """The system is d times the alternating-form rows built entry by entry,
    in order, d the structure-constant denominator, with integer
    coefficients; they say what the full n^3 system says: its rref is that
    of the full system, and the invariant forms span the full system's
    kernel.  Returns the system and the full dense system."""
    system = _invariance_system(g)
    d, _ = _integer_table(g)
    n = g.dim
    ncols = n * (n + 1) // 2
    full = Matrix([row for _, row in invariance_rows_dense(g)], ncols)
    assert _dense(system) == Matrix(alternating_rows_dense(g), ncols).scale(d)
    assert all(type(c) is int for row in system.rows for c in row.values())
    R, pivots = system.rref()
    R_full, pivots_full = rref_dense(full)
    assert pivots == pivots_full
    assert R.rows[: len(pivots)] == R_full.rows[: len(pivots)]
    forms = [
        [B.gram.entry(p, q) for p in range(n) for q in range(p, n)]
        for B in invariant_symmetric_forms(g)
    ]
    assert len(forms) == ncols - len(pivots)
    assert Subspace.from_vectors(ncols, forms).dim == len(forms)
    assert all(not any(full.apply(v)) for v in forms)
    return system, full


@pytest.mark.parametrize("g", _fixture_algebras() + _corpus_algebras())
def test_forms_system_matches_dense_builder(g):
    system, full = _assert_forms_system_matches_dense(g)
    _assert_core_matches_fraction_core(_dense(system))
    _assert_rref_matches_oracles(full)
    _assert_kernel_of(system, full)


def _assert_skew_space_matches_fraction_solver(q):
    """skew_derivation_space(q) is literally the Fraction solver's list,
    every entry a Fraction.  Returns it."""
    result = skew_derivation_space(q)
    assert result == skew_derivation_space_fraction(q)
    assert all(D.shape == (q.dim, q.dim) for D in result)
    assert all(type(x) is Fraction for D in result for row in D.rows for x in row)
    return result


def _assert_skew_space_is_d_system_kernel(q):
    """skew_derivation_space(q) is the free-column oracle's rref kernel of
    the system in the n^2 entries of D ("D is a derivation and
    D^T G + G D = 0"), reshaped, and the Fraction solver's list; the library
    kernel of that system is the oracle's too."""
    n = q.dim
    d_system = Matrix(skew_derivation_rows_dense(q), n * n)
    d_space = kernel_by_free_columns(d_system)
    expected = [Matrix([v[r * n : (r + 1) * n] for r in range(n)], n) for v in d_space.vectors()]
    assert _assert_skew_space_matches_fraction_solver(q) == expected
    _assert_kernel_matches_oracle(d_system)


def _assert_cocycle_system_matches_dense(g):
    """The system is d times the dense rows, with integer coefficients."""
    system = _cocycle_system(g)
    dense = Matrix(cocycle_rows_dense(g), g.dim * (g.dim - 1) // 2)
    assert _dense(system) == dense.scale(_integer_table(g)[0])
    assert all(type(c) is int for row in system.rows for c in row.values())
    return system, dense


@pytest.mark.parametrize("q", _fixture_quadratics() + _corpus_quadratics())
def test_skew_system_matches_dense_builder(q):
    system, dense = _assert_cocycle_system_matches_dense(q.algebra)
    _assert_rref_matches_oracles(dense)
    _assert_kernel_of(system, dense)
    _assert_skew_space_is_d_system_kernel(q)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_skew_space_matches_d_system_on_random_builds(seed):
    q = _random_quadratic(seed)
    assert 4 <= q.dim <= 10
    _assert_cocycle_system_matches_dense(q.algebra)
    _assert_skew_space_is_d_system_kernel(q)


# -- Jacobi and invariant-metric checks against the dense checkers --------------

def _assert_same_violations(g, gram):
    jacobi = check_jacobi(g)
    assert jacobi == check_jacobi_dense(g)
    assert all(type(x) is Fraction for v in jacobi for x in v.residual)
    assert all(len(v.residual) == g.dim for v in jacobi)
    if gram is not None:
        violations = check_invariant_metric(g, gram)
        assert violations == check_invariant_metric_dense(g, gram)
        assert all(type(x) is int for v in violations for x in v.indices)


@pytest.mark.parametrize("q", _fixture_quadratics() + _corpus_quadratics())
def test_checks_match_dense_on_quadratic_algebras(q):
    _assert_same_violations(q.algebra, q.metric)


@pytest.mark.parametrize("g", _fixture_algebras() + _corpus_algebras())
def test_checks_match_dense_on_algebras(g):
    """Each algebra with the identity and with a random symmetric Gram matrix,
    neither of which need be invariant."""
    _assert_same_violations(g, Matrix.identity(g.dim))
    _assert_same_violations(g, random_symmetric_matrix(random.Random(g.dim), g.dim))


# -- rational structure constants: denominators d > 1 ---------------------------

def _rational_base_change(rng, n):
    """An invertible matrix with denominators 2 to 7: a rational diagonal
    and about n/2 rational entries off it."""
    def entry():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(2, 7))

    while True:
        rows = [[entry() if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(max(1, n // 2)):
            rows[rng.randrange(n)][rng.randrange(n)] = entry()
        P = Matrix(rows, n)
        if det_fraction(P) != 0:
            return P


def _assert_rational_case(q, rng):
    """q moved by a rational base change has d > 1.  Its checks agree with
    the dense checkers on the valid metric, on a perturbed fractional Gram
    matrix (symmetric and not) and on the algebra with one structure
    constant c_ij^k moved by 1/11, the first (i < j, k) in lexicographic
    order whose Jacobi residuals are not all integers.  The forms and skew
    solvers agree with their dense systems."""
    t = transport_quadratic(q, _rational_base_change(rng, q.dim))
    g, n = t.algebra, t.dim
    assert _integer_table(g)[0] > 1
    gram = [list(row) for row in t.metric.gram.rows]
    symmetric = [list(row) for row in gram]
    a, b = rng.randrange(n), rng.randrange(n)
    _perturb(rng, symmetric, a, b)
    symmetric[b][a] = symmetric[a][b]
    asymmetric = [list(row) for row in gram]
    a, b = rng.sample(range(n), 2)
    _perturb(rng, asymmetric, a, b)
    for G in (t.metric.gram, Matrix(symmetric, n), Matrix(asymmetric, n)):
        _assert_same_violations(g, G)
    assert not check_jacobi(g) and not check_invariant_metric(g, t.metric)

    for i, j, k in ((i, j, k) for i, j in combinations(range(n), 2) for k in range(n)):
        structure = {key: dict(terms) for key, terms in g.structure.items()}
        slot = structure.setdefault((i, j), {})
        slot[k] = slot.get(k, 0) + Fraction(1, 11)
        broken = LieAlgebra(n, structure)
        if any(x.denominator > 1 for v in check_jacobi(broken) for x in v.residual):
            break
    else:
        pytest.fail("no move of one structure constant gives a fractional residual")
    _assert_same_violations(broken, t.metric.gram)

    _assert_forms_system_matches_dense(g)
    _assert_cocycle_system_matches_dense(g)
    _assert_skew_space_is_d_system_kernel(t)


@pytest.mark.parametrize(
    "q", [p for p in _fixture_quadratics() + _corpus_quadratics() if p.values[0].algebra.structure]
)
def test_checks_and_solvers_match_oracles_with_rational_constants(q):
    _assert_rational_case(q, random.Random(q.dim))


@pytest.mark.parametrize("seed", range(10))
def test_checks_and_solvers_match_oracles_with_rational_constants_on_random_builds(seed):
    rng = random.Random(seed)
    _assert_rational_case(build_with_heisenberg_ideal(*random_build_input(rng)), rng)


# -- the integer product and determinant against the Fraction versions ---------

def _rational_matrix(rng, nrows, ncols):
    """Entries with denominators up to 10^6; in one matrix in three, some
    rows and columns are zero."""
    density = rng.choice((0.4, 0.7, 1.0))
    zero_share = rng.choice((0, 0, 0.2))
    zero_rows = {i for i in range(nrows) if rng.random() < zero_share}
    zero_cols = {j for j in range(ncols) if rng.random() < zero_share}
    return Matrix(
        [
            [
                0 if i in zero_rows or j in zero_cols or rng.random() >= density
                else Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                for j in range(ncols)
            ]
            for i in range(nrows)
        ],
        ncols,
    )


def _assert_product_and_det_match_oracles(A, B):
    product = A @ B
    assert product == matmul_fraction(A, B)
    assert product.shape == (A.nrows, B.ncols)
    assert all(type(x) is Fraction for row in product.rows for x in row)
    for M in (A, B, product):
        if M.nrows == M.ncols:
            det = M.det()
            assert type(det) is Fraction and det == det_fraction(M)


@pytest.mark.parametrize("seed", range(100))
def test_product_and_det_match_fraction_oracles_on_random_matrices(seed):
    """Non-square products and square ones (0x0 and 1x1 included); one square
    matrix in three is made singular by a row that combines the others."""
    rng = random.Random(seed)
    n, m, p = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
    _assert_product_and_det_match_oracles(_rational_matrix(rng, n, m), _rational_matrix(rng, m, p))
    S = _rational_matrix(rng, n, n)
    if n and seed % 3 == 0:
        rows = [list(row) for row in S.rows]
        r = rng.randrange(n)
        others = [row for i, row in enumerate(rows) if i != r]
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in others]
        rows[r] = [sum(x * row[j] for x, row in zip(c, others)) for j in range(n)]
        S = Matrix(rows, n)
        assert S.det() == det_fraction(S) == 0
    _assert_product_and_det_match_oracles(S, S)


@pytest.mark.parametrize("n", range(0, 10))
def test_product_and_det_match_fraction_oracles_on_hilbert_matrices(n):
    H = Matrix([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)], n)
    _assert_product_and_det_match_oracles(H, H)
    _assert_product_and_det_match_oracles(H, H.inverse())


@pytest.mark.parametrize("q", _fixture_quadratics() + _corpus_quadratics())
def test_product_and_det_match_fraction_oracles_on_gram_matrices(q):
    G = q.metric.gram
    P = _random_invertible(random.Random(q.dim), q.dim)
    _assert_product_and_det_match_oracles(G, G)
    _assert_product_and_det_match_oracles(P, G)
    _assert_product_and_det_match_oracles(G, P.transpose())


# -- the integer Matrix against its Fraction bodies ------------------------------

def _assert_value(M, expected):
    """M equals ``expected``, a Matrix built from Fractions, with the same
    hash and shape; its integer form is normalized and its view is Fractions."""
    assert M == expected and hash(M) == hash(expected)
    assert M.shape == expected.shape and M.rows == expected.rows
    assert M._den > 0 and gcd(M._den, *(x for row in M._ints for x in row)) == 1
    assert all(type(x) is Fraction for row in M.rows for x in row)
    rebuilt = Matrix(M.rows, M.ncols)
    assert rebuilt == M and hash(rebuilt) == hash(M)


def _square(rng, n, singular):
    """A random n x n matrix; when ``singular``, one row combines the others."""
    M = _rational_matrix(rng, n, n)
    if not (singular and n):
        return M
    rows = [list(row) for row in M.rows]
    r = rng.randrange(n)
    c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    rows[r] = [sum(x * row[j] for x, row in zip(c, rows) if row is not rows[r]) for j in range(n)]
    return Matrix(rows, n)


@pytest.mark.parametrize("seed", range(60))
def test_integer_matrix_matches_its_fraction_bodies(seed):
    """Shapes 0x0, 0xn, nx0 and nxn, square ones singular in every other
    seed: ``+``, ``-``, ``scale``, ``apply``, ``transpose``, ``@``, ``rref``,
    ``det`` and ``inverse`` equal the Fraction bodies, values and hashes."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    for r, c in ((0, 0), (0, n), (n, 0), (n, n)):
        A = _square(rng, n, seed % 2) if r == c == n else _rational_matrix(rng, r, c)
        B = _rational_matrix(rng, r, c)
        _assert_value(A + B, add_fraction(A, B))
        _assert_value(A - B, sub_fraction(A, B))
        _assert_value(A - A, Matrix.zeros(r, c))
        for k in (0, -1, Fraction(rng.randint(-50, 50), rng.randint(1, 50))):
            _assert_value(A.scale(k), scale_fraction(A, k))
        _assert_value(-A, scale_fraction(A, -1))
        _assert_value(A.transpose(), transpose_fraction(A))
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(c)]
        assert A.apply(v) == apply_fraction(A, v)
        assert all(type(x) is Fraction for x in A.apply(v))
        for p in (0, rng.randint(1, 5)):
            C = _rational_matrix(rng, c, p)
            _assert_value(A @ C, matmul_fraction(A, C))
            _assert_value(A @ C, matmul_by_scaled_rows(A, C))
        R, pivots = A.rref()
        R_dense, pivots_dense = rref_dense(A)
        _assert_value(R, R_dense)
        assert pivots == pivots_dense
        if r != c:
            continue
        assert A.det() == det_fraction(A) == det_by_scaled_rows(A)
        if A.det() == 0:
            for inverse in (Matrix.inverse, inverse_fraction):
                with pytest.raises(ValueError, match="singular"):
                    inverse(A)
        else:
            _assert_value(A.inverse(), inverse_fraction(A))
            _assert_value(A @ A.inverse(), Matrix.identity(r))


def test_integer_matrix_values_from_kernels_equal_constructed_ones():
    """The same value reached through the constructor and through the
    integer kernels is one Matrix: equal, with one hash, in a set and as a
    dict key, whichever denominators the kernels multiplied."""
    half = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], 2)
    two = Matrix([[2, 0], [0, 2]], 2)
    kernels = [
        half @ two,
        two.inverse().inverse().scale(Fraction(1, 2)),
        (half + half) - Matrix.zeros(2, 2),
        half.scale(2),
        Subspace.full(2).basis,
        Matrix.identity(2).transpose(),
        two.inverse() @ two,
    ]
    identity = Matrix([[1, 0], [0, 1]], 2)
    assert all(M == identity and hash(M) == hash(identity) for M in kernels)
    assert len(set(kernels + [identity])) == 1
    assert {identity: "I"}[half @ two] == "I"
    assert Matrix.zeros(0, 3) != Matrix.zeros(3, 0)
    assert Matrix.zeros(0, 3).transpose().shape == (3, 0)
    assert Matrix.zeros(2, 0) != Matrix.zeros(3, 0)


# -- restriction against the validating constructor -----------------------------

@pytest.mark.parametrize("q", _fixture_quadratics() + _corpus_quadratics())
def test_restriction_to_radical_passes_the_constructor(q):
    """``restrict_quadratic`` checks only the subalgebra and nondegeneracy; on
    a nondegenerate radical the full constructor accepts the same pair.
    The recognizer's recovery on the radical equals the earlier one."""
    _assert_radical_verdict_matches_refind(q)
    rad = radical(q.algebra)
    if not form_restrict_nondegenerate(q.metric.gram, rad):
        with pytest.raises(ValueError):
            restrict_quadratic(q, rad)
        return
    restricted = restrict_quadratic(q, rad)
    assert QuadraticLieAlgebra(restricted.algebra, restricted.metric) == restricted


def _perturb(rng, matrix_rows, i, j):
    matrix_rows[i][j] += Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def _corrupted_inputs(seed):
    """A quadratic algebra (fixture, corpus or random build) with one structure
    constant changed, and its Gram matrix made asymmetric, singular, or
    changed in one entry."""
    rng = random.Random(seed)
    pool = [p for p in _fixture_quadratics() + _corpus_quadratics() if p.values[0].dim >= 2]
    if seed % 2:
        q = _random_quadratic(seed)
    else:
        q = pool[seed // 2 % len(pool)].values[0]
    g, n = q.algebra, q.dim
    structure = {key: dict(terms) for key, terms in g.structure.items()}
    i, j = sorted(rng.sample(range(n), 2))
    k = rng.randrange(n)
    slot = structure.setdefault((i, j), {})
    slot[k] = slot.get(k, 0) + rng.choice((-2, -1, 1, 2))
    bad_algebra = LieAlgebra(n, structure)

    gram = [list(row) for row in q.metric.gram.rows]
    perturbed = [list(row) for row in gram]
    _perturb(rng, perturbed, rng.randrange(n), rng.randrange(n))
    asymmetric = [list(row) for row in gram]
    a, b = rng.sample(range(n), 2)
    _perturb(rng, asymmetric, a, b)
    C = random_integer_matrix(rng, n - 1, n)
    singular = C.transpose() @ C
    grams = [q.metric.gram, Matrix(perturbed, n), Matrix(asymmetric, n), singular]
    return [(g, G) for G in grams] + [(bad_algebra, G) for G in grams]


@pytest.mark.parametrize("seed", range(40))
def test_checks_match_dense_on_corrupted_inputs(seed):
    for g, gram in _corrupted_inputs(seed):
        _assert_same_violations(g, gram)


# -- bracket ---------------------------------------------------------------------

def _assert_bracket_matches_formula(g):
    """Unit vectors, and random vectors with zero and nonzero entries."""
    rng = random.Random(g.dim)
    n = g.dim
    vectors = [unit_vector(n, i) for i in range(n)]
    vectors += [[_random_entry(rng, 0.5) for _ in range(n)] for _ in range(4)]
    for x in vectors:
        for y in vectors:
            result = bracket(g, x, y)
            assert result == bracket_by_formula(g, x, y)
            assert all(type(c) is Fraction for c in result)


@pytest.mark.parametrize("g", _fixture_algebras() + _corpus_algebras())
def test_bracket_matches_formula(g):
    _assert_bracket_matches_formula(g)


@pytest.mark.parametrize("seed", range(5))
def test_bracket_matches_formula_on_random_builds(seed):
    _assert_bracket_matches_formula(_random_build(seed))


# -- liealg bracket kernels against the per-function bracket loops -------------

def _assert_same_algebra(got, expected):
    assert got == expected
    assert got.basis_labels == expected.basis_labels
    assert all(type(c) is Fraction for terms in got.structure.values() for _, c in terms)


def _all_fractions(M):
    return all(type(x) is Fraction for row in M.rows for x in row)


def _small_entry(rng):
    """0 with probability 0.4, else a rational with numerator and denominator below 4."""
    return 0 if rng.random() < 0.4 else Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _subspaces(g, rng):
    """The derived and lower central series and the center (ideals), the
    coordinate lines, and one seeded random subspace of each dimension
    1..n-1 (of dimension 2 and up, mostly neither ideals nor subalgebras)."""
    n = g.dim
    found = derived_series(g) + lower_central_series(g) + [center(g)]
    found += [Subspace.from_vectors(n, [unit_vector(n, i)]) for i in range(n)]
    for d in range(1, n):
        vectors = [[_small_entry(rng) for _ in range(n)] for _ in range(d)]
        found.append(Subspace.from_vectors(n, vectors))
    return found


def _random_invertible(rng, n):
    """A dense invertible matrix with non-integer entries."""
    while True:
        P = Matrix([[_small_entry(rng) for _ in range(n)] for _ in range(n)], n)
        if P.det() != 0:
            return P


def _assert_kernels_match_oracles(g, seed):
    """ad, the ideal/subalgebra/derivation tests, subalgebra_on, quotient,
    centralizer, ideal_generated_by, [g, U], transport and the coadjoint
    double against the loops they replaced; returns the (test, answer)
    pairs seen."""
    rng = random.Random(seed)
    n = g.dim
    full = Subspace.full(n)
    seen = set()
    vectors = [unit_vector(n, i) for i in range(n)]
    vectors += [[_small_entry(rng) for _ in range(n)] for _ in range(3)]
    for x in vectors:
        got = ad(g, x)
        assert got == ad_by_brackets(g, x)
        assert _all_fractions(got)
        assert ideal_generated_by(g, [x]) == ideal_generated_by_brackets(g, [x])
    for U in _subspaces(g, rng):
        ideal, sub = is_ideal(g, U), is_subalgebra(g, U)
        assert ideal == is_ideal_by_brackets(g, U)
        assert sub == is_subalgebra_by_brackets(g, U)
        seen |= {("ideal", ideal), ("subalgebra", sub)}
        if sub:
            _assert_same_algebra(subalgebra_on(g, U), subalgebra_on_by_brackets(g, U))
        else:
            with pytest.raises(ValueError, match="not a subalgebra"):
                subalgebra_on(g, U)
        if ideal:
            (got, proj), (expected, expected_proj) = quotient(g, U), quotient_by_reduction(g, U)
            _assert_same_algebra(got, expected)
            assert proj == expected_proj
            assert (proj.ncols, proj.nrows) == (n, n - U.dim)
            assert _all_fractions(proj)
        else:
            with pytest.raises(ValueError, match="not an ideal"):
                quotient(g, U)
        assert centralizer(g, U) == centralizer_by_brackets(g, U)
        assert bracket_subspaces(g, full, U) == bracket_subspaces_by_pairs(g, full, U)
    # inner derivations, then random matrices (almost never derivations)
    matrices = [ad(g, x) for x in vectors[n:]]
    matrices += [random_integer_matrix(rng, n, n) for _ in range(3)]
    for M in matrices:
        answer = is_derivation(g, M)
        assert answer == is_derivation_by_brackets(g, M)
        seen.add(("derivation", answer))
    P = random_unimodular(rng, n)
    _assert_same_algebra(transport(g, P), transport_by_brackets(g, P))
    P, labels = _random_invertible(rng, n), [f"t{i}" for i in range(n)]
    _assert_same_algebra(transport(g, P, labels), transport_by_brackets(g, P, labels))
    double, expected = coadjoint_double(g), coadjoint_double_by_bracket_basis(g)
    _assert_same_algebra(double.algebra, expected.algebra)
    assert double.metric == expected.metric
    return seen


@pytest.mark.parametrize("g", _fixture_algebras() + _corpus_algebras())
def test_kernels_match_oracles(g):
    _assert_kernels_match_oracles(g, g.dim)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_kernels_match_oracles_on_random_builds(seed):
    """Each random build also meets both answers of every test."""
    seen = _assert_kernels_match_oracles(_random_build(seed), seed)
    assert seen == {
        (test, answer)
        for test in ("ideal", "subalgebra", "derivation")
        for answer in (True, False)
    }


# -- integer liealg kernels against their Fraction versions --------------------

BIG = 10**15


def _big_base_change(rng, n):
    """An invertible matrix whose entries have denominators near 10^15."""
    while True:
        P = Matrix(
            [
                [
                    Fraction(rng.choice((-2, -1, 1, 2)), BIG + rng.randint(0, 99))
                    if i == j or rng.random() < 0.3 else 0
                    for j in range(n)
                ]
                for i in range(n)
            ],
            n,
        )
        if P.det() != 0:
            return P


def _fraction_structure(result):
    """``_structure_in``'s (den, brackets) as the oracle's dict of Fraction
    terms, or None."""
    if result is None:
        return None
    den, brackets = result
    return {pair: [(k, Fraction(v, den)) for k, v in terms] for pair, terms in brackets.items()}


def _assert_integer_kernels_match_fractions(g, rng):
    """bracket, ad, killing_form, transport, subalgebra_on (with
    is_subalgebra and ``_structure_in``) and quotient give the values of
    the Fraction kernels, every entry a Fraction, on unit vectors and on
    vectors that mix zeros, integers and denominators up to 10^15."""
    n = g.dim
    vectors = [unit_vector(n, i) for i in range(n)]
    vectors += [[_random_entry(rng, 0.7) for _ in range(n)] for _ in range(3)]
    for x in vectors:
        for y in vectors[n:] + vectors[:2]:
            result = bracket(g, x, y)
            assert result == bracket_by_formula(g, x, y)
            assert all(type(c) is Fraction for c in result)
        got = ad(g, x)
        assert got == ad_fraction(g, x) and _all_fractions(got)
    K = killing_form(g)
    assert K == killing_form_fraction(g) and _all_fractions(K)
    for P in (random_unimodular(rng, n), _random_invertible(rng, n), _big_base_change(rng, n)):
        _assert_same_algebra(transport(g, P), transport_fraction(g, P))
    for U in _subspaces(g, rng):
        expected = structure_in_fraction(g, U.vectors(), lambda w: coordinates_fraction(U, w))
        assert _fraction_structure(_structure_in(g, U.basis, U)) == expected
        assert is_subalgebra(g, U) == (expected is not None)
        if expected is not None:
            _assert_same_algebra(subalgebra_on(g, U), subalgebra_on_fraction(g, U))
        else:
            with pytest.raises(ValueError, match="not a subalgebra"):
                subalgebra_on(g, U)
        if is_ideal(g, U):
            (got, proj), (want, want_proj) = quotient(g, U), quotient_fraction(g, U)
            _assert_same_algebra(got, want)
            assert proj == want_proj and _all_fractions(proj)


def _assert_integer_table_of(g):
    """table[i][j] holds (k, d c) for [e_i, e_j] = sum c e_k, both signs."""
    d, table = _integer_table(g)
    assert d == lcm(*(c.denominator for terms in g.structure.values() for _, c in terms))
    for i in range(g.dim):
        for j in range(g.dim):
            expected = g.bracket_basis(i, j)
            assert all(type(v) is int for _, v in table[i][j])
            assert tuple(Fraction(v, d) for _, v in table[i][j]) == tuple(c for c in expected if c)
            assert [k for k, _ in table[i][j]] == [k for k, c in enumerate(expected) if c]


@pytest.mark.parametrize("g", _fixture_algebras() + _corpus_algebras())
def test_integer_kernels_match_fraction_kernels(g):
    _assert_integer_table_of(g)
    _assert_integer_kernels_match_fractions(g, random.Random(g.dim))


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_integer_kernels_match_fraction_kernels_on_random_builds(seed):
    g = _random_build(seed)
    _assert_integer_table_of(g)
    _assert_integer_kernels_match_fractions(g, random.Random(seed))


@pytest.mark.parametrize(
    "g", [p for p in _fixture_algebras() + _corpus_algebras() if p.values[0].structure]
)
def test_integer_kernels_match_fraction_kernels_with_large_denominators(g):
    """g moved by a base change with denominators near 10^15: structure
    constants with large, mixed denominators, and d > 1."""
    rng = random.Random(g.dim)
    moved = transport_fraction(g, _big_base_change(rng, g.dim))
    assert _integer_table(moved)[0] > BIG
    _assert_integer_table_of(moved)
    _assert_integer_kernels_match_fractions(moved, rng)


@pytest.mark.parametrize(
    "q", [p for p in _fixture_quadratics() + _corpus_quadratics() if p.values[0].algebra.structure]
)
def test_skew_space_matches_fraction_solver_with_large_denominators(q):
    """q moved by a base change with denominators near 10^15: s G^{-1}, s
    the lcm of the denominators of G^{-1}, has large entries."""
    rng = random.Random(q.dim)
    moved = transport_quadratic(q, _big_base_change(rng, q.dim))
    ginv = moved.metric.gram.inverse()
    assert lcm(*(x.denominator for row in ginv.rows for x in row)) > BIG
    _assert_skew_space_matches_fraction_solver(moved)


def test_integer_kernels_on_dim_0_and_abelian_algebras():
    empty = LieAlgebra(0, {})
    assert _integer_table(empty) == (1, ())
    assert bracket(empty, (), ()) == ()
    assert ad(empty, ()) == Matrix([], 0) == killing_form(empty)
    assert transport(empty, Matrix([], 0)) == empty
    assert subalgebra_on(empty, Subspace.zero(0)) == empty
    assert quotient(empty, Subspace.zero(0))[0] == empty
    flat = LieAlgebra.abelian(4)
    assert _integer_table(flat) == (1, (((),) * 4,) * 4)
    rng = random.Random(4)
    x, y = ([_random_entry(rng, 0.8) for _ in range(4)] for _ in range(2))
    assert bracket(flat, x, y) == zero_vector(4) == bracket_by_formula(flat, x, y)
    assert ad(flat, x) == Matrix.zeros(4, 4) == killing_form(flat)
    assert transport(flat, _big_base_change(rng, 4)).structure == {}
    _assert_integer_kernels_match_fractions(flat, rng)


def _fifths_entry(rng):
    """0 with probability 0.3, else a rational with |numerator| and denominator at most 5."""
    return 0 if rng.random() < 0.3 else Fraction(rng.randint(-5, 5), rng.randint(1, 5))


@pytest.mark.parametrize("seed", range(4))
def test_subspace_membership_matches_the_fraction_reference(seed):
    """coordinates_of, contains and contains_subspace on integers agree with
    the Fraction residual loop, on seeded subspaces of QQ^n spanned by 0..n
    random vectors (denominators up to 5), the zero and the full space, n <= 9,
    for vectors inside (where the coordinates are the combination's
    coefficients), outside, and off by one non-pivot unit vector; and both
    raise the same ValueError on a length or ambient mismatch."""
    rng = random.Random(seed)
    for n in range(10):
        spaces = [Subspace.zero(n), Subspace.full(n)]
        for d in range(n + 1):
            vectors = [[_fifths_entry(rng) for _ in range(n)] for _ in range(d)]
            spaces.append(Subspace.from_vectors(n, vectors))
        for U in spaces:
            coefficients = [_fifths_entry(rng) for _ in range(U.dim)]
            inside = [sum((c * x for c, x in zip(coefficients, column)), Fraction(0))
                      for column in zip(*U.vectors())] if U.dim else [0] * n
            vectors = [inside, [_fifths_entry(rng) for _ in range(n)], [0] * n]
            free = [c for c in range(n) if c not in U.pivots]
            if free:
                off = rng.choice(free)
                vectors.append([x + (j == off) for j, x in enumerate(inside)])
            for v in vectors:
                expected = coordinates_fraction(U, v)
                got = U.coordinates_of(v)
                assert got == expected and U.contains(v) == (expected is not None)
                assert got is None or all(type(c) is Fraction for c in got)
            assert U.coordinates_of(inside) == tuple(coefficients)
            if free:
                assert U.coordinates_of(vectors[-1]) is None
            for W in spaces:
                expected = all(coordinates_fraction(U, w) is not None for w in W.vectors())
                assert U.contains_subspace(W) == expected
            assert U.contains_subspace(Subspace.from_vectors(n, [inside]))
            for call in (U.coordinates_of, U.contains, lambda v: coordinates_fraction(U, v)):
                with pytest.raises(ValueError, match="vector length does not match ambient"):
                    call([1] * (n + 1))
            with pytest.raises(ValueError, match="vector length does not match ambient"):
                U.contains_subspace(Subspace.full(n + 1))


def test_structure_in_rejects_a_non_subalgebra():
    """[e1, e2] = e3 leaves span(e1, e2); its pivot entries (0, 0) alone
    would read as coordinates."""
    g = LieAlgebra(3, {(0, 1): [(2, 1)]})
    U = Subspace.from_vectors(3, [unit_vector(3, 0), unit_vector(3, 1)])
    assert _structure_in(g, U.basis, U) is None
    assert structure_in_fraction(g, U.vectors(), lambda w: coordinates_fraction(U, w)) is None
    assert not is_subalgebra(g, U)
    with pytest.raises(ValueError, match="not a subalgebra"):
        subalgebra_on(g, U)
    with pytest.raises(ValueError, match="not an ideal"):
        quotient(g, U)


@pytest.mark.parametrize("g", _fixture_algebras() + _corpus_algebras())
def test_integer_table_leaves_equality_and_hash_alone(g):
    """Equality and hash read dimension and structure constants only; an
    algebra built from the negated, reversed pairs and other labels is the
    same value, with the same integer table."""
    swapped = {(j, i): [(k, -c) for k, c in terms] for (i, j), terms in g.structure.items()}
    other = LieAlgebra(g.dim, swapped, [f"z{t}" for t in range(g.dim)])
    assert other == g and hash(other) == hash(g)
    assert hash(g) == hash((g.dim, _integer_table(g)))
    assert _integer_table(other) == _integer_table(g)
    with pytest.raises(AttributeError):
        g._integers = None


def _random_constants(rng, n):
    """Structure constants on random pairs, either order, with repeated
    targets, zero terms and mixed denominators (``_random_entry``)."""
    structure = {}
    for _ in range(rng.randint(0, n * n)):
        i, j = rng.sample(range(n), 2)
        structure.setdefault((i, j), []).extend(
            (rng.randrange(n), _random_entry(rng, 0.8)) for _ in range(rng.randint(1, 3))
        )
    return structure


def _integer_terms(structure, den):
    """The terms of ``structure`` as ints over ``den``, a common denominator."""
    return {
        key: [(k, int(Fraction(c) * den)) for k, c in terms] for key, terms in structure.items()
    }


@pytest.mark.parametrize("seed", range(12))
def test_integer_constructor_agrees_with_the_public_one(seed):
    """On seeded tables with mixed denominators, ``LieAlgebra._from_ints``
    over a common denominator times a random factor gives the public
    constructor's structure, equality, hash and integer table; the same
    algebra over any other common denominator is the same value."""
    rng = random.Random(seed)
    for n in range(2, 8):
        structure = _random_constants(rng, n)
        public = LieAlgebra(n, structure)
        d = lcm(*(Fraction(c).denominator for terms in structure.values() for _, c in terms))
        labels = [f"e{i + 1}" for i in range(n)]
        for den in (d, d * rng.randint(2, 50), d * 10**15):
            built = LieAlgebra._from_ints(n, den, _integer_terms(structure, den), labels)
            assert built.structure == public.structure
            assert built == public and hash(built) == hash(public)
            assert _integer_table(built) == _integer_table(public)
        d_g, table = _integer_table(public)
        assert d_g > 0 and gcd(d_g, *(v for row in table for terms in row for _, v in terms)) == 1


def test_structure_is_a_read_only_view():
    g = fixtures.sl2()
    view = g.structure
    assert g.structure is view and all(type(c) is Fraction for t in view.values() for _, c in t)
    with pytest.raises(AttributeError):
        g.structure = {}
    with pytest.raises(TypeError):
        view[(0, 1)] = ()
    assert g.structure == view


def _filiform(n):
    """The standard filiform algebra [e_1, e_i] = e_(i+1), 1 < i < n."""
    return LieAlgebra(n, {(0, i): [(i + 1, 1)] for i in range(1, n - 1)})


def _counting_closure(monkeypatch, k):
    """Record (rows in, pivots out) of each elimination of flattened
    k x k matrices that ``structure._nilradical`` runs."""
    calls = []
    echelon = structure_module._echelon

    def counting_echelon(rows, ncols):
        done, pivots = echelon(rows, ncols)
        if ncols == k * k:
            calls.append((len(rows), len(pivots)))
        return done, pivots

    monkeypatch.setattr(structure_module, "_echelon", counting_echelon)
    return calls


def test_nilradical_forms_each_round_of_words_in_one_product(monkeypatch):
    """sl2 beside the two cyclic shifts, whose radical R is that solvable,
    non-nilpotent summand: K_R = 0 but R is not nilpotent, so the kernel
    stays above the floor [g, R] + Z(g) for two rounds of words (R is not
    g, so the generators are read in R's rref basis).  The generators are
    the ad_R of the s = dim R - dim floor unit vectors of R off the
    floor's pivots, reduced in one elimination.  Each round forms the s
    generators times each row new in the last elimination, s x (fresh
    rows) words, and reduces the nonzero ones with the rows of A in one
    elimination; no matrix product meets a k^2-wide or a k x k matrix."""
    g = direct_sum(fixtures.sl2(), fixtures.two_cyclic_shifts())
    R = radical(g)
    k = R.dim
    floor = sum_intersect(bracket_subspaces(g, Subspace.full(g.dim), R), center(g))[0]
    s = k - floor.dim
    shapes, rounds = [], []
    matmul = Matrix.__matmul__

    def counting_matmul(A, B):
        shapes.append((A.shape, B.shape))
        return matmul(A, B)

    class CountingSystem(SparseSystem):
        """Counts the words added to each k^2-wide system of words."""

        def __init__(self, ncols):
            super().__init__(ncols)
            if ncols == k * k:
                rounds.append(self)
                self.added = 0

        def add(self, terms):
            if self.ncols == k * k:
                self.added += 1
            super().add(terms)

    calls = _counting_closure(monkeypatch, k)
    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(structure_module, "SparseSystem", CountingSystem)
    nil = nilradical(g, R)
    monkeypatch.undo()
    assert nil == floor == nilradical_incremental(g)
    assert (g.dim, k, s) == (12, 9, 2) and len(calls) == 3 == len(rounds) + 1
    assert calls[0] == (s, s)
    dims = [0] + [done for _, done in calls]
    # round r: s words for each row new in A_(r-1), the nonzero ones beside A_(r-1)
    for r, words in enumerate(rounds, start=1):
        assert words.added == s * (dims[r] - dims[r - 1])
        assert calls[r][0] == dims[r] + words.nrows
    assert any(words.nrows < words.added for words in rounds)  # x y = y x = 0
    assert not any(k * k in A + B or (A, B) == ((k, k), (k, k)) for A, B in shapes)


# the four grid_analyze algebras and 40 seeded builds of dim 4 to 12
SETTLING = [("grid", index) for index in range(4)] + [("seed", seed) for seed in range(40)]


@pytest.mark.parametrize("source,index", SETTLING, ids=[f"{s}{i}" for s, i in SETTLING])
def test_nilradical_settles_in_round_one(monkeypatch, source, index):
    """ker K_R meets the floor [g, R] + Z(g) on these inputs, so the
    nilradical eliminates no flattened k x k matrices (no k^2-wide
    ``_echelon``) and still equals the word closure; Cartan's criterion
    agrees with the derived series, sl2 cores included.  On grid1 Z(g) is
    not in [g, R], so the floor needs it."""
    if source == "grid":
        monkeypatch.syspath_prepend(str(ROOT))
        from bench.workloads import GRID_ANALYZE, grid_algebras

        g = grid_algebras([GRID_ANALYZE[index]])[0].algebra
    else:
        rng = random.Random(index)
        q = build_with_heisenberg_ideal(*random_build_input(rng, 4, 3))
        g = transport_quadratic(q, random_unimodular(rng, q.dim)).algebra
    R = radical(g)
    k = R.dim
    assert k * k > g.dim  # a k^2-wide call is none of the g-wide ones
    calls = _counting_closure(monkeypatch, k)
    nil = nilradical(g, R)
    monkeypatch.undo()
    assert calls == []
    assert nil == nilradical_incremental(g)
    assert is_solvable(g) == derived_series(g)[-1].is_zero() == (k == g.dim)
    if (source, index) == ("grid", 1):
        assert GRID_ANALYZE[1] == (1, True, 2)
        floor = bracket_subspaces(g, Subspace.full(g.dim), R)
        assert nil.dim > floor.dim and not floor.contains_subspace(center(g))


def test_settling_inputs_include_cores_that_are_not_solvable():
    """Some of the 40 seeded builds have an sl2 core, so Cartan's criterion
    meets both answers above."""
    solvable = []
    for seed in range(40):
        rng = random.Random(seed)
        g = build_with_heisenberg_ideal(*random_build_input(rng, 4, 3)).algebra
        solvable.append(is_solvable(g))
    assert not all(solvable) and any(solvable)


def _rotation_core():
    return fixtures.build_rotation_core_fixture().algebra


# The closure population: algebras on which ker K_R exceeds the floor
# [g, R] + Z(g), each with the fixed seed of its random unimodular move.
CLOSURE_POPULATION = (
    [(f"coadjoint_double_filiform{n}", lambda n=n: coadjoint_double(_filiform(n)).algebra, n)
     for n in range(3, 7)]
    + [
        ("rotation_core", _rotation_core, 11),
        ("coadjoint_double_rotation_core", lambda: coadjoint_double(_rotation_core()).algebra, 12),
        ("sl2_filiform5", lambda: direct_sum(fixtures.sl2(), _filiform(5)), 13),
        ("five_dim_trace_zero", fixtures.five_dim_trace_zero, 14),
        ("two_cyclic_shifts", fixtures.two_cyclic_shifts, 15),
    ]
)
CLOSURE_CASES = [(build, seed, moved) for _, build, seed in CLOSURE_POPULATION for moved in (0, 1)]
CLOSURE_IDS = [f"{name}-{'moved' if moved else 'built'}"
               for name, _, _ in CLOSURE_POPULATION for moved in (0, 1)]


@pytest.mark.parametrize("build,seed,moved", CLOSURE_CASES, ids=CLOSURE_IDS)
def test_nilradical_matches_both_oracles_on_the_closure_population(build, seed, moved):
    """Nilpotent doubles, the solvable rotation core and its double, a
    nilpotent radical beside sl2, and the two trace-zero traps, as built
    and after a seeded unimodular base change: ker K_R exceeds the floor,
    so the nilpotent-ideal test or the word closure decides, and the
    result equals both oracles and is a nilpotent ideal."""
    g = build()
    if moved:
        g = transport(g, random_unimodular(random.Random(seed), g.dim))
    R = radical(g)
    floor = sum_intersect(bracket_subspaces(g, Subspace.full(g.dim), R), center(g))[0]
    assert kernel(restricted_gram(killing_form(g), R)).dim > floor.dim
    nil = nilradical(g, R)
    assert nil == nilradical_four_step(g) == nilradical_incremental(g)
    assert is_ideal(g, nil) and is_nilpotent(subalgebra_on(g, nil))


# -- integer spans and coordinates against their Fraction bodies ----------------

def _seeded_build(seed):
    """A random builder output (dim 4 to 10), moved by a random unimodular
    base change for odd seeds."""
    rng = random.Random(seed)
    q = build_with_heisenberg_ideal(*random_build_input(rng))
    return transport_quadratic(q, random_unimodular(rng, q.dim)) if seed % 2 else q


def _random_table(seed):
    """A table of dim 2 to 4 (4 twice as often) with seeded constants,
    integers and fractions; most such tables violate the Jacobi identity."""
    rng = random.Random(seed)
    n = rng.choice((2, 3, 4, 4))
    structure = {
        (i, j): [(k, _random_entry(rng, 0.5)) for k in range(n)]
        for i, j in combinations(range(n), 2)
        if rng.random() < 0.8
    }
    return LieAlgebra(n, structure)


def _assert_spans_match_fractions(g, rng):
    """center, [g, g], [g, U] and [U, U], the lower central series and
    transport give the subspaces and algebras of their Fraction bodies; the
    ``nilpotent`` flag of ``check`` is the lower central series' answer.
    Returns whether K(g) = 0 and whether g is nilpotent."""
    n = g.dim
    full = Subspace.full(n)
    assert center(g) == centralizer_fraction(g, full)
    assert derived_subalgebra(g) == derived_subalgebra_fraction(g)
    series = lower_central_series(g)
    assert series == lower_central_series_fraction(g)
    for U in [full] + _subspaces(g, rng):
        assert bracket_subspaces(g, full, U) == bracket_subspaces_fraction(g, full, U)
        assert bracket_subspaces(g, U, U) == bracket_subspaces_fraction(g, U, U)
        assert centralizer(g, U) == centralizer_fraction(g, U)
    for P in (random_unimodular(rng, n), _random_invertible(rng, n)):
        labels = [f"t{i}" for i in range(n)]
        _assert_same_algebra(transport(g, P), transport_matrix_fraction(g, P))
        _assert_same_algebra(transport(g, P, labels), transport_matrix_fraction(g, P, labels))
    nilpotent = series[-1].is_zero()
    assert cmd_check(AlgebraDocument("g", g))[0]["nilpotent"] is nilpotent
    return killing_form(g).is_zero(), nilpotent


@pytest.mark.parametrize("g", _fixture_algebras() + _corpus_algebras())
def test_integer_spans_match_fraction_bodies(g):
    _assert_spans_match_fractions(g, random.Random(g.dim))


@pytest.mark.parametrize("seed", range(40))
def test_integer_spans_match_fraction_bodies_on_seeded_builds(seed):
    _assert_spans_match_fractions(_seeded_build(seed).algebra, random.Random(seed))


@pytest.mark.parametrize("n", range(5, 9))
def test_integer_spans_match_fraction_bodies_on_filiform_algebras(n):
    assert _assert_spans_match_fractions(_filiform(n), random.Random(n)) == (True, True)


def test_integer_spans_match_fraction_bodies_on_random_tables():
    """200 tables, most of them violating Jacobi, with K = 0 and K != 0
    both present.  K = 0 does not make g nilpotent: ad e_1 permuting e_2,
    e_3, e_4 cyclically has eigenvalues the cube roots of 1, whose squares
    sum to 0, so K = 0 while [g, g] = [g, [g, g]] is not 0."""
    cyclic = LieAlgebra(4, {(0, 1): [(2, 1)], (0, 2): [(3, 1)], (0, 3): [(1, 1)]})
    seen = {_assert_spans_match_fractions(cyclic, random.Random(0))}
    assert seen == {(True, False)}
    violating = 0
    for seed in range(200):
        g = _random_table(seed)
        violating += bool(check_jacobi(g))
        seen.add(_assert_spans_match_fractions(g, random.Random(seed)))
    assert violating > 100
    assert seen == {(True, True), (True, False), (False, False)}


# -- the Heisenberg-ideal certificate against the checks one at a time ---------

def _heisenberg_candidates():
    """(name, g, candidates): Nil(g) and [g, g] of every fixture and corpus
    algebra, the coordinate Heisenberg ideals of the builder fixtures and of
    the corpus documents, and 60 seeded builds moved by a unimodular base
    change, with their coordinate ideal moved along."""
    out = []
    # builder outputs with m = 1, in the builder's coordinates
    builds = {"h1_phi", "build_sl2_fixture", "build_abelian_line_fixture",
              "build_rotation_core_fixture"}
    for name, value in _fixture_values():
        g = value.algebra if isinstance(value, QuadraticLieAlgebra) else value
        if isinstance(g, LieAlgebra):
            candidates = [nilradical(g), derived_subalgebra(g)]
            if name in builds:
                candidates.append(heisenberg_ideal_span(value, 1))
            out.append((name, g, candidates))
    for name, doc in _corpus_documents():
        g = doc.algebra
        candidates = [nilradical(g), derived_subalgebra(g)]
        indices = fixtures.ROUNDTRIP_IDEALS.get(name.split(".")[0])
        if indices:
            units = [unit_vector(g.dim, int(i)) for i in indices.split(",")]
            candidates.append(Subspace.from_vectors(g.dim, units))
        out.append((name, g, candidates))
    for seed in range(60):
        rng = random.Random(seed)
        S, D, V, sigma = random_build_input(rng)
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        P = random_unimodular(rng, q.dim)
        g = transport_quadratic(q, P).algebra
        ideal = transport_subspace(heisenberg_ideal_span(q, V.dim // 2), P)
        out.append((f"seed{seed}", g, [ideal, nilradical(g), derived_subalgebra(g)]))
    return out


HEISENBERG_CANDIDATES = _heisenberg_candidates()


def _accepts(make) -> bool:
    try:
        make()
    except ValueError:
        return False
    return True


def _random_in(rng, U: Subspace):
    """A nonzero seeded integer combination of U's basis rows."""
    while True:
        coeffs = [rng.randint(-2, 2) for _ in range(U.dim)]
        if any(coeffs):
            return tuple(sum(c * row[j] for c, row in zip(coeffs, U.vectors()))
                         for j in range(U.ambient_dim))


def _mutations(g, h, rng):
    """(kind, ideal, hbar, v_basis, omega): seeded single-field changes of
    valid Heisenberg-ideal data."""
    ideal, hbar, vs, omega = h.ideal, h.hbar, list(h.v_basis), h.omega
    n, two_m = g.dim, len(vs)
    i, j = sorted(rng.sample(range(two_m), 2))
    c = rng.choice((-2, -1, 1, 2))
    others = Subspace.from_vectors(n, vs[:i] + vs[i + 1:] + [hbar])
    outside = []
    while not ideal.is_full() and not outside:
        w = _random_in(rng, Subspace.full(n))
        outside = [] if ideal.contains(w) else [("v outside", w)]
    other = hbar
    while other == hbar:
        other = _random_in(rng, ideal)
    out = [
        ("hbar", ideal, other, vs, omega),
        ("hbar doubled", ideal, tuple(2 * x for x in hbar), vs, omega),
    ]
    for kind, v in [
        ("v dependent", _random_in(rng, others)),
        ("v shifted by hbar", tuple(a + c * b for a, b in zip(vs[i], hbar))),
        ("v doubled", tuple(2 * x for x in vs[i])),
    ] + outside:
        out.append((kind, ideal, hbar, vs[:i] + [v] + vs[i + 1:], omega))
    rows = [list(row) for row in omega.rows]
    rows[i][j] += c
    rows[j][i] -= c
    out.append(("omega pair", ideal, hbar, vs, Matrix(rows, two_m)))
    singular = [
        [0 if i in (a, b) else x for b, x in enumerate(row)] for a, row in enumerate(omega.rows)
    ]
    out.append(("omega singular", ideal, hbar, vs, Matrix(singular, two_m)))
    for _ in range(20 if outside else 0):
        w = _random_in(rng, Subspace.full(n))
        moved = Subspace.from_vectors(n, vs[:i] + [w] + vs[i + 1:] + [hbar])
        if not is_ideal(g, moved):
            out.append(("not an ideal", moved, hbar, vs, omega))
            break
    return out


@pytest.mark.parametrize(
    "name,g,candidates", HEISENBERG_CANDIDATES, ids=[c[0] for c in HEISENBERG_CANDIDATES]
)
def test_heisenberg_search_matches_the_pairwise_search(name, g, candidates):
    """On every ideal candidate ``_heisenberg_data`` returns the data or
    the reason that the search off the ambient pair brackets returns."""
    for candidate in candidates:
        assert is_ideal(g, candidate)
        found, expected = _heisenberg_data(g, candidate), heisenberg_data_by_pairs(g, candidate)
        if isinstance(expected, str):
            assert found == expected
        else:
            assert isinstance(found, HeisenbergIdealData)
            assert (found.hbar, found.v_basis, found.omega) == expected
            assert (found.algebra, found.ideal) == (g, candidate)


def test_heisenberg_certificate_accepts_exactly_what_the_pairwise_checks_accept():
    """The constructor's one equality with h_m(omega) accepts exactly the
    data that the separate checks accept: every valid datum found among
    the candidates and seeded single-field mutations of each.  Valid data
    and data with one v shifted by a multiple of hbar are accepted, every
    other kind of mutation is rejected, and a candidate that is not a
    subalgebra finds no data either way."""
    outcomes = {}
    found = 0
    for index, (name, g, candidates) in enumerate(HEISENBERG_CANDIDATES):
        rng = random.Random(index)
        for candidate in candidates:
            h = find_heisenberg_ideal(g, candidate)
            if h is None:
                continue
            found += 1
            valid = ("valid", h.ideal, h.hbar, list(h.v_basis), h.omega)
            for kind, ideal, hbar, vs, omega in [valid] + _mutations(g, h, rng):
                args = (g, ideal, hbar, tuple(vs), omega)
                accepted = _accepts(lambda: HeisenbergIdealData(*args))
                assert accepted == _accepts(lambda: heisenberg_data_checks_by_pairs(*args)), (
                    name, kind
                )
                outcomes.setdefault(kind, set()).add(accepted)
                if kind == "not an ideal" and not is_subalgebra(g, ideal):
                    assert find_heisenberg_ideal(g, ideal) is None
                    assert isinstance(heisenberg_data_by_pairs(g, ideal), str)
    assert found > 60
    assert outcomes.pop("valid") == outcomes.pop("v shifted by hbar") == {True}
    assert outcomes == dict.fromkeys(
        ("hbar", "hbar doubled", "v dependent", "v doubled", "v outside", "omega pair",
         "omega singular", "not an ideal"),
        {False},
    )
