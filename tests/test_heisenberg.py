"""Constructors: h_m, h_m(phi), S(D), the main builder, coadjoint doubles."""

import random

import pytest

from fixtures import (
    DIAG_1_M1,
    ROTATION,
    abelian_line_quadratic,
    abelian_plane_quadratic,
    h1_phi,
    oscillator,
    sl2_quadratic,
    two_dim_nonabelian,
    zero_quadratic,
)

from oracles import heisenberg_ideal_span

from quadlie.exactla import Matrix, Subspace, unit_vector, vector
from quadlie.heisenberg import (
    SymplecticMap,
    SymplecticSpace,
    build_with_heisenberg_ideal,
    coadjoint_double,
    double_extension,
    extend_heisenberg,
    heisenberg,
    in_omega_algebra,
)
from quadlie.liealg import (
    LieAlgebra,
    center,
    check_jacobi,
    derived_subalgebra,
    is_ideal,
    subalgebra_on,
)
from quadlie.quadform import check_invariant_metric
from quadlie.randomized import random_omega_skew


def test_heisenberg_default():
    g = heisenberg(1)
    assert g.dim == 3
    assert g.bracket_basis(0, 1) == unit_vector(3, 2)
    assert g.basis_labels == ("u1", "u2", "hbar")


def test_heisenberg_center():
    for m in (1, 2, 3):
        g = heisenberg(m)
        n = 2 * m + 1
        assert center(g) == Subspace.from_vectors(n, [unit_vector(n, n - 1)])


def test_heisenberg_scaled_omega():
    g = heisenberg(1, Matrix([[0, 2], [-2, 0]], 2))
    assert g.bracket_basis(0, 1) == vector([0, 0, 2])


def test_heisenberg_rejects_bad_omega():
    with pytest.raises(ValueError):
        heisenberg(1, Matrix([[0, 1], [1, 0]], 2))
    with pytest.raises(ValueError):
        heisenberg(1, Matrix.zeros(2, 2))
    with pytest.raises(ValueError):
        heisenberg(2, Matrix([[0, 1], [-1, 0]], 2))


def test_extend_heisenberg_fixture():
    q = h1_phi()
    g = q.algebra
    assert g.dim == 4
    assert g.bracket_basis(0, 1) == unit_vector(4, 1)
    assert g.bracket_basis(0, 2) == vector([0, 0, -1, 0])
    assert g.bracket_basis(1, 2) == unit_vector(4, 3)
    gram = q.metric.gram
    assert gram.entry(1, 2) == 1 and gram.entry(0, 3) == 1
    assert gram.entry(1, 1) == 0 and gram.entry(2, 2) == 0
    assert gram.entry(0, 0) == 0 and gram.entry(3, 3) == 0


def test_extend_heisenberg_derived_is_h1():
    q = h1_phi()
    expected = Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)])
    assert derived_subalgebra(q.algebra) == expected


def test_extend_heisenberg_rejects_singular_phi():
    with pytest.raises(ValueError, match="invertible"):
        extend_heisenberg(1, None, Matrix.zeros(2, 2))
    with pytest.raises(ValueError, match="o\\(omega\\)"):
        extend_heisenberg(1, None, Matrix.identity(2))


def test_double_extension_empty_core():
    q = double_extension(zero_quadratic(), Matrix.zeros(0, 0))
    assert q.dim == 2
    assert q.algebra.structure == {}
    assert q.metric.gram == Matrix([[0, 1], [1, 0]], 2)


def test_double_extension_oscillator():
    q = oscillator()
    g = q.algebra
    # [D, a1] = -a2, [D, a2] = a1, [a1, a2] = -hbar
    assert g.bracket_basis(0, 1) == vector([0, 0, -1, 0])
    assert g.bracket_basis(0, 2) == vector([0, 1, 0, 0])
    assert g.bracket_basis(1, 2) == vector([0, 0, 0, -1])
    assert check_jacobi(g) == []
    assert check_invariant_metric(g, q.metric) == []


def test_double_extension_rejects_nonskew():
    with pytest.raises(ValueError, match="skew"):
        double_extension(abelian_plane_quadratic(), Matrix.identity(2))


def test_double_extension_rejects_nonderivation():
    q = sl2_quadratic()
    bad = Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 3)
    with pytest.raises(ValueError):
        double_extension(q, bad)


def test_build_matches_extend_for_zero_core():
    sigma = DIAG_1_M1
    V = SymplecticSpace.standard(1)
    built = build_with_heisenberg_ideal(zero_quadratic(), Matrix.zeros(0, 0), V, sigma)
    extended = extend_heisenberg(1, None, sigma)
    assert built.algebra == extended.algebra
    assert built.metric == extended.metric


def test_build_abelian_line_splits():
    from quadlie.quadform import split_by_nondegenerate_ideal

    q = build_with_heisenberg_ideal(
        abelian_line_quadratic(), Matrix.zeros(1, 1), SymplecticSpace.standard(1), DIAG_1_M1
    )
    assert q.dim == 5
    s_line = Subspace.from_vectors(5, [unit_vector(5, 0)])
    result = split_by_nondegenerate_ideal(q, s_line)
    assert result is not None
    assert result[0].dim == 1 and result[1].dim == 4
    assert result[1].algebra == h1_phi().algebra


def test_build_sl2_core():
    # dim S + 1 + dim V + 1 = 3 + 1 + 2 + 1
    q = build_with_heisenberg_ideal(
        sl2_quadratic(), Matrix.zeros(3, 3), SymplecticSpace.standard(1), DIAG_1_M1
    )
    assert q.dim == 7
    assert check_jacobi(q.algebra) == []
    assert check_invariant_metric(q.algebra, q.metric) == []


def test_build_heisenberg_part_is_ideal():
    V = SymplecticSpace.standard(2)
    sigma = V.omega.inverse()  # omega^{-1} * identity lies in o(omega)
    q = build_with_heisenberg_ideal(
        abelian_plane_quadratic(), ROTATION, V, sigma
    )
    ideal = heisenberg_ideal_span(q, 2)
    assert is_ideal(q.algebra, ideal)
    inner = subalgebra_on(q.algebra, ideal)
    assert center(inner).dim == 1
    assert derived_subalgebra(inner).dim == 1


def test_build_rejects_bad_sigma():
    with pytest.raises(ValueError, match="invertible"):
        build_with_heisenberg_ideal(
            zero_quadratic(),
            Matrix.zeros(0, 0),
            SymplecticSpace.standard(1),
            Matrix.zeros(2, 2),
        )
    with pytest.raises(ValueError, match="o\\(omega\\)"):
        build_with_heisenberg_ideal(
            zero_quadratic(),
            Matrix.zeros(0, 0),
            SymplecticSpace.standard(1),
            Matrix.identity(2),
        )


def test_symplectic_map_validation():
    V = SymplecticSpace.standard(1)
    f = SymplecticMap(V, DIAG_1_M1)
    assert f.is_invertible()
    with pytest.raises(ValueError):
        SymplecticMap(V, Matrix.identity(2))


def test_b_v_symmetry_for_random_omega_skew():
    rng = random.Random(17)
    for m in (1, 2):
        V = SymplecticSpace.standard(m)
        done = 0
        while done < 20:
            f = random_omega_skew(rng, V)
            if not f.is_invertible():
                continue
            gram_v = f.matrix.inverse().transpose() @ V.omega
            assert gram_v.is_symmetric()
            done += 1


def test_center_derived_identities_on_builds():
    """center(g) = (Ker D ∩ Z(S)) ⊕ F hbar and
    derived(g) = (Im D + [S, S]) ⊕ h_m on builder outputs."""
    from fixtures import assert_center_derived_identities

    cases = [
        (sl2_quadratic(), Matrix.zeros(3, 3), 1, DIAG_1_M1),
        (abelian_plane_quadratic(), ROTATION, 1, DIAG_1_M1),
        (abelian_line_quadratic(), Matrix.zeros(1, 1), 1, DIAG_1_M1),
    ]
    for S, D, m, sigma in cases:
        V = SymplecticSpace.standard(m)
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        assert_center_derived_identities(q, S, D, m)


def test_coadjoint_double_abelian():
    q = coadjoint_double(LieAlgebra.abelian(2))
    assert q.dim == 4
    assert q.algebra.structure == {}
    assert q.metric.gram == Matrix(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], 4
    )


def test_coadjoint_double_nonabelian():
    q = coadjoint_double(two_dim_nonabelian())
    assert q.dim == 4
    assert check_jacobi(q.algebra) == []
    assert check_invariant_metric(q.algebra, q.metric) == []


def test_coadjoint_double_h1():
    q = coadjoint_double(heisenberg(1))
    assert q.dim == 6
    dual = Subspace.from_vectors(6, [unit_vector(6, i) for i in (3, 4, 5)])
    assert is_ideal(q.algebra, dual)
    assert derived_subalgebra(subalgebra_on(q.algebra, dual)).is_zero()


def test_coadjoint_double_rejects_non_jacobi():
    bad = LieAlgebra(3, {(0, 1): [(2, 1)], (0, 2): [(0, 1)]})
    with pytest.raises(ValueError):
        coadjoint_double(bad)


def test_omega_membership_parameterization():
    rng = random.Random(31)
    for m in (1, 2):
        V = SymplecticSpace.standard(m)
        for _ in range(10):
            f = random_omega_skew(rng, V)
            assert in_omega_algebra(f.matrix, V.omega)


V1 = SymplecticSpace.standard(1)

REFUSED = {
    "omega-not-square": (lambda: SymplecticSpace(Matrix([[0, 1]])), "omega must be square"),
    "omega-odd": (
        lambda: SymplecticSpace(Matrix.zeros(1, 1)), "symplectic dimension must be even"
    ),
    "map-size": (
        lambda: SymplecticMap(V1, Matrix.identity(4)),
        "matrix size does not match symplectic space",
    ),
    "sigmaD-of-another-space": (
        lambda: extend_heisenberg(2, None, SymplecticMap(V1, DIAG_1_M1)),
        "sigmaD is attached to a different symplectic space",
    ),
    "sigmaD-size": (
        lambda: extend_heisenberg(1, None, Matrix.identity(4)),
        "sigmaD has the wrong size for the symplectic space",
    ),
    "m-below-1": (lambda: heisenberg(0), "m must be at least 1"),
    "D-size": (
        lambda: double_extension(abelian_line_quadratic(), Matrix.zeros(2, 2)),
        "D has the wrong size for the core algebra",
    ),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_inputs_of_the_wrong_size_are_refused(case):
    """Each refusal raises ``ValueError`` with its message."""
    call, message = REFUSED[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
