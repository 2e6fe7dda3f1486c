"""Exact linear algebra: solving, kernels, subspace lattice, form utilities."""

import random
from fractions import Fraction
from math import comb

import pytest

from quadlie.exactla import (
    Matrix,
    Subspace,
    add_vec,
    dot,
    form_orthogonal,
    form_restrict_nondegenerate,
    format_rational,
    kernel,
    parse_rational,
    rat,
    restricted_gram,
    solve,
    sub_vec,
    sum_intersect,
    unit_vector,
    vector,
    zero_vector,
)


def test_parse_rational_canonical():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational("0") == 0
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(4, 2)) == "2"


@pytest.mark.parametrize("bad", ["1/0", "2/4", "-0", "0/5", "1.5", "+3", " 1", "3/-2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_messages_and_values():
    """Values equal ``Fraction(text)``; the two messages are exact, and a
    trailing newline, which ``$`` lets the pattern match, is not canonical."""
    for text in ("7", "-12/35", "0", "123456789012345678901/2"):
        assert parse_rational(text) == Fraction(text)
    for bad, message in [
        ("1.5", "not a rational literal: '1.5'"),
        (3, "not a rational literal: 3"),
        ("2/4", "rational literal not in canonical form: '2/4'"),
        ("007", "rational literal not in canonical form: '007'"),
        ("1/2\n", "rational literal not in canonical form: '1/2\\n'"),
    ]:
        with pytest.raises(ValueError) as info:
            parse_rational(bad)
        assert str(info.value) == message


def test_solve_identity():
    A = Matrix.identity(2)
    assert solve(A, vector([3, Fraction(1, 2)])) == vector([3, Fraction(1, 2)])


def test_solve_inconsistent():
    A = Matrix([[1, 1], [2, 2]], 2)
    assert solve(A, vector([1, 3])) is None


def test_solve_diagonal():
    A = Matrix([[2, 0], [0, 3]], 2)
    assert solve(A, vector([1, 1])) == (Fraction(1, 2), Fraction(1, 3))


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(3)).is_zero()
    assert kernel(Matrix.zeros(2, 2)) == Subspace.full(2)


def test_full_subspace_is_the_reduced_span_of_the_unit_vectors():
    for n in range(7):
        full = Subspace.full(n)
        spanned = Subspace.from_vectors(n, [unit_vector(n, i) for i in range(n)])
        assert full == spanned
        assert full.pivots == spanned.pivots == tuple(range(n))


def test_kernel_line():
    K = kernel(Matrix([[1, 2]], 2))
    assert K == Subspace.from_vectors(2, [vector([-2, 1])])
    assert K.dim == 1


def test_sum_intersect_basic():
    U = Subspace.from_vectors(2, [unit_vector(2, 0)])
    W = Subspace.from_vectors(2, [unit_vector(2, 1)])
    total, meet = sum_intersect(U, W)
    assert total == Subspace.full(2)
    assert meet.is_zero()


def test_sum_intersect_idempotent():
    U = Subspace.from_vectors(3, [vector([1, 1, 0]), vector([0, 0, 1])])
    total, meet = sum_intersect(U, U)
    assert total == U and meet == U


def test_sum_intersect_example():
    U = Subspace.from_vectors(3, [vector([1, 1, 0])])
    W = Subspace.from_vectors(3, [vector([1, -1, 0]), vector([1, 0, 0])])
    total, meet = sum_intersect(U, W)
    assert total == Subspace.from_vectors(3, [unit_vector(3, 0), unit_vector(3, 1)])
    assert meet == Subspace.from_vectors(3, [vector([1, 1, 0])])


def test_sum_intersect_dimension_formula():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 6)
        U = Subspace.from_vectors(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        W = Subspace.from_vectors(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        total, meet = sum_intersect(U, W)
        assert total.dim + meet.dim == U.dim + W.dim


def test_sum_intersect_matches_reduced_spans():
    """Both results read straight off the Zassenhaus rref carry the basis
    and the pivots that reducing their spans again gives."""
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 7)
        U, W = (
            Subspace.from_vectors(
                n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
            )
            for _ in range(2)
        )
        total, meet = sum_intersect(U, W)
        expected = Subspace.from_vectors(n, U.vectors() + W.vectors())
        assert (total.basis, total.pivots) == (expected.basis, expected.pivots)
        again = Subspace.from_vectors(n, meet.vectors())
        assert (meet.basis, meet.pivots) == (again.basis, again.pivots)
        assert all(U.contains(v) and W.contains(v) for v in meet.vectors())


def test_sum_intersect_ambient_mismatch():
    with pytest.raises(ValueError):
        sum_intersect(Subspace.full(2), Subspace.full(3))


def test_form_orthogonal_euclidean():
    G = Matrix.identity(2)
    U = Subspace.from_vectors(2, [unit_vector(2, 0)])
    assert form_orthogonal(G, U) == Subspace.from_vectors(2, [unit_vector(2, 1)])


def test_form_orthogonal_full_space():
    G = Matrix([[2, 1], [1, 1]], 2)
    assert form_orthogonal(G, Subspace.full(2)).is_zero()


def test_form_orthogonal_isotropic_line():
    G = Matrix([[0, 1], [1, 0]], 2)
    U = Subspace.from_vectors(2, [unit_vector(2, 0)])
    assert form_orthogonal(G, U) == U


def test_form_restrict_nondegenerate():
    G = Matrix([[0, 1], [1, 0]], 2)
    line = Subspace.from_vectors(2, [unit_vector(2, 0)])
    assert not form_restrict_nondegenerate(G, line)
    assert form_restrict_nondegenerate(G, Subspace.full(2))
    assert form_restrict_nondegenerate(Matrix.identity(3), Subspace.from_vectors(3, [vector([1, 1, 0])]))


def test_solve_and_kernel_exact_random():
    rng = random.Random(5)
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        A = Matrix(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)],
            nc,
        )
        K = kernel(A)
        for v in K.vectors():
            assert all(x == 0 for x in A.apply(v))
        x = vector([rng.randint(-3, 3) for _ in range(nc)])
        b = A.apply(x)
        got = solve(A, b)
        assert got is not None
        assert A.apply(got) == b


def test_double_orthogonal_is_identity():
    rng = random.Random(23)
    trials = 0
    while trials < 100:
        n = rng.randint(1, 8)
        G = Matrix(
            [[0] * n for _ in range(n)], n
        )
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[j][i] = rows[i][j]
        G = Matrix(rows, n)
        if G.det() == 0:
            continue
        U = Subspace.from_vectors(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        assert form_orthogonal(G, form_orthogonal(G, U)) == U
        trials += 1


def test_rref_canonical_equality():
    U = Subspace.from_vectors(3, [vector([2, 4, 0]), vector([0, 0, 5])])
    W = Subspace.from_vectors(3, [vector([1, 2, 1]), vector([0, 0, -1])])
    assert U == W
    assert hash(U) == hash(W)


def test_matrix_inverse_and_det():
    A = Matrix([[2, 1], [1, 1]], 2)
    assert A.det() == 1
    assert A @ A.inverse() == Matrix.identity(2)
    with pytest.raises(ValueError):
        Matrix([[1, 1], [1, 1]], 2).inverse()


def _hilbert(n):
    return Matrix([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)], n)


def _hilbert_inverse(n):
    """The closed form (-1)^(i+j) (i+j+1) C(n+i, n-j-1) C(n+j, n-i-1) C(i+j, i)^2."""
    return Matrix(
        [
            [
                (-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1)
                * comb(n + j, n - i - 1) * comb(i + j, i) ** 2
                for j in range(n)
            ]
            for i in range(n)
        ],
        n,
    )


@pytest.mark.parametrize("n", range(1, 10))
def test_hilbert_inverse_is_exact_under_bit_growth(n):
    """The Hilbert matrices are the classic ill-conditioned case: their
    inverses have integer entries up to 122,367,445,200 at n = 9, and every
    step of the elimination must stay exact to reach them."""
    H = _hilbert(n)
    H_inv = H.inverse()
    assert H_inv == _hilbert_inverse(n)
    assert all(type(x) is Fraction for row in H_inv.rows for x in row)
    assert H @ H_inv == Matrix.identity(n)
    b = [Fraction((-1) ** i * (2 * i + 1), i + 2) for i in range(n)]
    assert solve(H, b) == H_inv.apply(b)


def test_coordinates_of():
    U = Subspace.from_vectors(3, [vector([1, 0, 1]), vector([0, 1, 1])])
    assert U.coordinates_of(vector([2, 3, 5])) == (Fraction(2), Fraction(3))
    assert U.coordinates_of(vector([0, 0, 1])) is None
    # all rows at once: one membership check, then the pivot entries
    assert U.coordinate_rows([(2, 3, 5), (1, 0, 1)]) == Matrix([[2, 3], [1, 0]], 2)
    assert U.coordinate_rows([(2, 3, 5), (0, 0, 1)]) is None
    assert U.coordinate_rows([]) == Matrix([], 2)
    with pytest.raises(ValueError, match="vector length"):
        U.coordinate_rows([(1, 0, 1), (1, 0)])


def test_products_return_fractions_even_when_every_term_is_skipped():
    """Zero factors are skipped, yet every product is a Fraction, never an int."""
    for x, y in [((), ()), (zero_vector(3), zero_vector(3)), ((1, 0), (0, 1)), ((2, 3), (5, 7))]:
        assert type(dot(x, y)) is Fraction
    assert dot((2, 3), (5, 7)) == 31
    matrix_pairs = [
        (Matrix([], 0), Matrix([], 0)),
        (Matrix.zeros(2, 0), Matrix([], 3)),
        (Matrix.zeros(2, 3), Matrix.zeros(3, 2)),
        (Matrix([[1, 0], [0, 0]], 2), Matrix([[0, 0], [0, 1]], 2)),
    ]
    for A, B in matrix_pairs:
        product = A @ B
        assert product.shape == (A.nrows, B.ncols)
        assert all(type(x) is Fraction for row in product.rows for x in row)
    assert Matrix.zeros(2, 0).apply(()) == (0, 0)
    applications = [(Matrix.zeros(2, 0), ()), (Matrix.zeros(2, 2), (0, 0)), (Matrix([[0, 1]], 2), (1, 0))]
    for M, v in applications:
        assert all(type(x) is Fraction for x in M.apply(v))
    for M in (Matrix([], 0), Matrix.zeros(2, 2), Matrix.identity(3)):
        assert type(M.trace()) is Fraction


def test_from_columns_builds_the_transpose_of_its_rows():
    assert Matrix.from_columns([[1, 2, 3], [4, 5, 6]]) == Matrix([[1, 4], [2, 5], [3, 6]], 2)
    assert Matrix.from_columns([[1, 2], [3, 4]], 2) == Matrix([[1, 3], [2, 4]], 2)
    assert Matrix.from_columns([]).shape == (0, 0)
    assert Matrix.from_columns([], 3).shape == (3, 0)
    assert Matrix.from_columns([(), ()]).shape == (0, 2)
    M = Matrix.from_columns([[1, Fraction(1, 2)]])
    assert all(type(x) is Fraction for row in M.rows for x in row)


@pytest.mark.parametrize(
    "columns, nrows",
    [
        pytest.param([[1, 2, 3], [4, 5, 6, 7, 8]], None, id="long-column"),
        pytest.param([[1, 2, 3], [4, 5]], None, id="short-column"),
        pytest.param([[1, 2], [3, 4]], 5, id="conflicting-nrows"),
        pytest.param([(), ()], 1, id="conflicting-nrows-empty-columns"),
    ],
)
def test_from_columns_rejects_ragged_columns_and_conflicting_nrows(columns, nrows):
    with pytest.raises(ValueError):
        Matrix.from_columns(columns, nrows)


ROW = Matrix([[1, 2]])

REFUSED = {
    "rat-of-a-float": (lambda: rat(1.5), TypeError, "cannot interpret 1.5 as a rational number"),
    "add_vec": (lambda: add_vec((1,), (1, 2)), ValueError, "vector length mismatch"),
    "sub_vec": (lambda: sub_vec((1, 2), (1,)), ValueError, "vector length mismatch"),
    "dot": (lambda: dot((1,), (1, 2)), ValueError, "vector length mismatch"),
    "ragged-rows": (lambda: Matrix([[1, 2], [3]]), ValueError, "ragged rows"),
    "ncols": (lambda: Matrix([[1, 2]], 3), ValueError, "ncols does not match row width"),
    "add": (lambda: ROW + ROW.transpose(), ValueError, "shape mismatch"),
    "matmul": (lambda: ROW @ ROW, ValueError, "inner dimension mismatch"),
    "apply": (lambda: ROW.apply((1,)), ValueError, "vector length mismatch"),
    "det": (lambda: ROW.det(), ValueError, "determinant of a non-square matrix"),
    "inverse": (lambda: ROW.inverse(), ValueError, "inverse of a non-square matrix"),
    "trace": (lambda: ROW.trace(), ValueError, "trace of a non-square matrix"),
    "solve": (lambda: solve(ROW, (1, 2)), ValueError, "right-hand side length mismatch"),
    "subspace-width": (
        lambda: Subspace(3, ROW), ValueError, "basis width does not match ambient dimension"
    ),
    "from_vectors": (
        lambda: Subspace.from_vectors(3, [(1, 2)]),
        ValueError,
        "vector length does not match ambient dimension",
    ),
    "gram-size": (
        lambda: form_orthogonal(Matrix.identity(2), Subspace.full(3)),
        ValueError,
        "gram matrix size does not match ambient dimension",
    ),
    "gram-symmetry": (
        lambda: restricted_gram(Matrix([[0, 1], [0, 0]]), Subspace.full(2)),
        ValueError,
        "gram matrix is not symmetric",
    ),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_inputs_of_the_wrong_kind_or_size_are_refused(case):
    """Each refusal raises its exception type with its message."""
    call, error, message = REFUSED[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
