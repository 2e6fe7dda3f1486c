"""Shared algebra fixtures for the test suite."""

from fractions import Fraction

from quadlie.exactla import Matrix
from quadlie.heisenberg import (
    SymplecticSpace,
    build_with_heisenberg_ideal,
    double_extension,
    extend_heisenberg,
    heisenberg,
)
from quadlie.liealg import LieAlgebra, direct_sum
from quadlie.quadform import BilinearForm, QuadraticLieAlgebra

DIAG_1_M1 = Matrix([[1, 0], [0, -1]], 2)
ROTATION = Matrix([[0, 1], [-1, 0]], 2)

# Coordinate Heisenberg ideals of the corpus documents that the benchmark
# round-trips; the labels and digests come from bench/reference.json.
ROUNDTRIP_IDEALS = {
    "h1_phi": "1,2,3",
    "h2_phi": "1,2,3,4,5",
    "build_abelian_line": "2,3,4",
    "build_rotation_core": "3,4,5",
    "build_sl2": "4,5,6",
    "oscillator": "1,2,3",
}


def sl2():
    """sl2 with basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra(
        3,
        {(0, 1): [(1, 2)], (0, 2): [(2, -2)], (1, 2): [(0, 1)]},
        ["h", "e", "f"],
    )


def sl2_killing_gram():
    return Matrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]], 3)


def sl2_quadratic():
    return QuadraticLieAlgebra(sl2(), BilinearForm(sl2_killing_gram()))


def h1_phi(phi=DIAG_1_M1):
    return extend_heisenberg(1, None, phi)


def oscillator():
    """Double extension of abelian QQ^2 (identity gram) by a rotation."""
    core = QuadraticLieAlgebra(
        LieAlgebra.abelian(2, ["a1", "a2"]), BilinearForm(Matrix.identity(2))
    )
    return double_extension(core, ROTATION)


def two_dim_nonabelian():
    """[d, x] = x."""
    return LieAlgebra(2, {(0, 1): [(1, 1)]}, ["d", "x"])


def five_dim_trace_zero():
    """d acting on QQ^4 by rotation ⊕ diag(1, -1); Killing form vanishes.

    Not nilpotent (the diag block), but trace(ad_d^2) = 0, so naive
    Killing-kernel nilradical shortcuts return the whole algebra.
    """
    return LieAlgebra(
        5,
        {
            (0, 1): [(2, 1)],
            (0, 2): [(1, -1)],
            (0, 3): [(3, 1)],
            (0, 4): [(4, -1)],
        },
        ["d", "x1", "x2", "x3", "x4"],
    )


def two_cyclic_shifts():
    """x and y acting on QQ^3 and QQ^4 by cyclic shifts P_3 and P_4.

    Not nilpotent, but trace(P_n^j) = 0 for 0 < j < n: the nilradical
    QQ^7 needs the words ad_x^2 and ad_y^3 of the closure, which join it
    in different rounds.
    """
    x_shift = {(0, 2 + i): [(2 + (i + 1) % 3, 1)] for i in range(3)}
    y_shift = {(1, 5 + i): [(5 + (i + 1) % 4, 1)] for i in range(4)}
    return LieAlgebra(
        9,
        {**x_shift, **y_shift},
        ["x", "y", "u1", "u2", "u3", "w1", "w2", "w3", "w4"],
    )


def sl2_plus_h1():
    return direct_sum(sl2(), heisenberg(1))


def abelian_line_quadratic(value=1):
    return QuadraticLieAlgebra(
        LieAlgebra.abelian(1, ["s"]), BilinearForm(Matrix([[value]], 1))
    )


def abelian_plane_quadratic(gram=None):
    if gram is None:
        gram = Matrix.identity(2)
    return QuadraticLieAlgebra(
        LieAlgebra.abelian(2, ["s1", "s2"]), BilinearForm(gram)
    )


def zero_quadratic():
    return QuadraticLieAlgebra(LieAlgebra.abelian(0), BilinearForm(Matrix([], 0)))


def build_sl2_fixture():
    """S = sl2 (Killing), D = 0, V = QQ^2, sigma = diag(1, -1); dim 8."""
    return build_with_heisenberg_ideal(
        sl2_quadratic(), Matrix.zeros(3, 3), SymplecticSpace.standard(1), DIAG_1_M1
    )


def build_abelian_line_fixture():
    """S = abelian QQ (gram [1]), D = 0, sigma = diag(1, -1); dim 5."""
    return build_with_heisenberg_ideal(
        abelian_line_quadratic(),
        Matrix.zeros(1, 1),
        SymplecticSpace.standard(1),
        DIAG_1_M1,
    )


def build_rotation_core_fixture():
    """S = abelian QQ^2, D = rotation (invertible skew); quotient has no metric."""
    return build_with_heisenberg_ideal(
        abelian_plane_quadratic(),
        ROTATION,
        SymplecticSpace.standard(1),
        DIAG_1_M1,
    )


def assert_center_derived_identities(q, S, D, m):
    """center(g) = (Ker D ∩ Z(S)) ⊕ F hbar and
    derived(g) = (Im D + [S, S]) ⊕ h_m, as exact subspace equalities,
    for a build_with_heisenberg_ideal output in its native coordinates."""
    from quadlie.exactla import Subspace, kernel, sum_intersect, unit_vector
    from oracles import heisenberg_ideal_span
    from quadlie.liealg import center, derived_subalgebra

    g = q.algebra
    n = g.dim
    k = S.dim

    def embed(vec):
        return tuple(vec) + (Fraction(0),) * (n - k)

    ker_d = Subspace.from_vectors(n, [embed(v) for v in kernel(D).vectors()])
    z_s = Subspace.from_vectors(n, [embed(v) for v in center(S.algebra).vectors()])
    meet = sum_intersect(ker_d, z_s)[1]
    hbar_line = Subspace.from_vectors(n, [unit_vector(n, n - 1)])
    assert center(g) == sum_intersect(meet, hbar_line)[0]

    im_d = Subspace.from_vectors(n, [embed(D.column(j)) for j in range(k)])
    der_s = Subspace.from_vectors(
        n, [embed(v) for v in derived_subalgebra(S.algebra).vectors()]
    )
    heis = heisenberg_ideal_span(q, m)
    expected = sum_intersect(sum_intersect(im_d, der_s)[0], heis)[0]
    assert derived_subalgebra(g) == expected
