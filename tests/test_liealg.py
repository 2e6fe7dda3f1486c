"""Structure-constant Lie algebra operations."""

import random
from fractions import Fraction

import pytest

from fixtures import (
    build_rotation_core_fixture,
    build_sl2_fixture,
    five_dim_trace_zero,
    h1_phi,
    oscillator,
    sl2,
    sl2_killing_gram,
    sl2_plus_h1,
    two_dim_nonabelian,
)

from oracles import ideal_generated_by

from quadlie.exactla import Matrix, Subspace, unit_vector, vector
from quadlie.heisenberg import heisenberg
from quadlie.liealg import (
    LieAlgebra,
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


def test_bracket_antisymmetry_and_h1():
    g = heisenberg(1)
    u1, u2, hb = (unit_vector(3, i) for i in range(3))
    x = vector([1, 2, 3])
    assert bracket(g, x, x) == vector([0, 0, 0])
    assert bracket(g, u1, u2) == hb
    assert bracket(g, vector([1, 1, 0]), u2) == hb
    assert bracket(g, u2, u1) == vector([0, 0, -1])


def test_constructor_puts_structure_in_canonical_form():
    """The constructor alone orders pairs, negates, drops zeros and merges
    repeated targets; the builders hand it their brackets as stated."""
    g = LieAlgebra(
        4,
        {
            (2, 0): [(3, 2), (1, 0)],  # [e3, e1] = 2 e4: stored as (0, 2), negated
            (0, 1): [(3, 1), (2, Fraction(1, 2)), (3, 2)],  # e4 summed, targets sorted
            (1, 2): [(3, 1), (0, 0)],
            (2, 1): [(3, 1)],  # cancels (1, 2) entirely
            (1, 3): [(0, 0)],  # only zero terms
            (3, 3): [(0, 0)],  # a zero diagonal term is accepted
        },
    )
    assert g.structure == {
        (0, 1): ((2, Fraction(1, 2)), (3, Fraction(3))),
        (0, 2): ((3, Fraction(-2)),),
    }
    assert list(g.structure) == sorted(g.structure)
    assert all(type(c) is Fraction for terms in g.structure.values() for _, c in terms)
    assert bracket(g, unit_vector(4, 2), unit_vector(4, 0)) == vector([0, 0, 0, 2])
    assert g == LieAlgebra(4, {(0, 2): {3: -2}, (0, 1): {2: Fraction(1, 2), 3: 3}})
    with pytest.raises(ValueError, match="nonzero diagonal bracket"):
        LieAlgebra(2, {(1, 1): [(0, 1)]})


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(heisenberg(1), (1, 0), (0, 1, 0))


def test_jacobi_abelian_and_heisenberg():
    assert check_jacobi(LieAlgebra.abelian(4)) == []
    for m in (1, 2, 3):
        assert check_jacobi(heisenberg(m)) == []


def test_jacobi_violation_reported():
    bad = LieAlgebra(3, {(0, 1): [(2, 1)], (0, 2): [(0, 1)]})
    violations = check_jacobi(bad)
    assert violations and violations[0][:3] == (0, 1, 2)


def test_ad_maps():
    assert ad(LieAlgebra.abelian(3), unit_vector(3, 0)).is_zero()
    g = heisenberg(1)
    m = ad(g, unit_vector(3, 0))
    assert m.column(1) == unit_vector(3, 2)  # u2 -> hbar
    assert m.column(0) == vector([0, 0, 0])
    assert m.column(2) == vector([0, 0, 0])
    s = sl2()
    adh = ad(s, unit_vector(3, 0))
    assert adh == Matrix.diagonal([0, 2, -2])


def test_derived_and_series():
    g = heisenberg(1)
    assert derived_subalgebra(g) == Subspace.from_vectors(3, [unit_vector(3, 2)])
    lcs = lower_central_series(g)
    assert [s.dim for s in lcs] == [3, 1, 0]
    assert is_nilpotent(g) and is_solvable(g)

    q = h1_phi()
    der = derived_subalgebra(q.algebra)
    assert der.dim == 3
    assert der == Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)])
    assert is_solvable(q.algebra)
    assert not is_nilpotent(q.algebra)

    abelian = LieAlgebra.abelian(2)
    assert derived_subalgebra(abelian).is_zero()
    assert is_solvable(abelian) and is_nilpotent(abelian)

    assert not is_solvable(sl2())
    assert derived_series(sl2())[-1] == Subspace.full(3)


def _full_product_span(g, U, W):
    return Subspace.from_vectors(
        g.dim, [bracket(g, u, w) for u in U.vectors() for w in W.vectors()]
    )


def test_bracket_subspaces_matches_full_product_span():
    """[U, U] from the pairs i < j, and [U, W] for W != U, equal the span of
    all ordered products on every subspace of the derived and lower central
    series and on two seeded subspaces that need not be subalgebras; a
    subspace of another ambient dimension is refused on either side."""
    rng = random.Random(31)
    for g in (
        sl2(),
        two_dim_nonabelian(),
        heisenberg(2),
        five_dim_trace_zero(),
        sl2_plus_h1(),
        h1_phi().algebra,
        oscillator().algebra,
        build_sl2_fixture().algebra,
        build_rotation_core_fixture().algebra,
    ):
        full = Subspace.full(g.dim)
        seeded = [
            Subspace.from_vectors(
                g.dim, [[rng.randint(-2, 2) for _ in range(g.dim)] for _ in range(2)]
            )
            for _ in range(2)
        ]
        for U in derived_series(g) + lower_central_series(g) + seeded:
            assert bracket_subspaces(g, U, U) == _full_product_span(g, U, U)
            assert bracket_subspaces(g, full, U) == _full_product_span(g, full, U)
        assert bracket_subspaces(g, *seeded) == _full_product_span(g, *seeded)
        for U in (Subspace.zero(g.dim + 1), Subspace.full(g.dim + 1)):
            for pair in ((U, full), (full, U)):
                with pytest.raises(ValueError, match="ambient dimension mismatch"):
                    bracket_subspaces(g, *pair)


def test_center():
    assert center(LieAlgebra.abelian(3)) == Subspace.full(3)
    assert center(LieAlgebra.abelian(0)) == Subspace.zero(0)
    for m in (1, 2, 3):
        g = heisenberg(m)
        assert center(g) == Subspace.from_vectors(2 * m + 1, [unit_vector(2 * m + 1, 2 * m)])
    q = h1_phi()
    assert center(q.algebra) == Subspace.from_vectors(4, [unit_vector(4, 3)])


def test_center_agrees_with_ad_kernel_intersection():
    from quadlie.exactla import kernel, sum_intersect

    for g in (heisenberg(2), sl2(), h1_phi().algebra, two_dim_nonabelian()):
        expected = Subspace.full(g.dim)
        for i in range(g.dim):
            ker = kernel(ad(g, unit_vector(g.dim, i)))
            expected = sum_intersect(expected, ker)[1]
        assert center(g) == expected


def test_centralizer():
    g = heisenberg(1)
    assert centralizer(g, Subspace.zero(3)) == Subspace.full(3)
    V = Subspace.from_vectors(3, [unit_vector(3, 0), unit_vector(3, 1)])
    assert centralizer(g, V) == Subspace.from_vectors(3, [unit_vector(3, 2)])

    big = direct_sum(h1_phi().algebra, LieAlgebra.abelian(1))
    h1_inside = Subspace.from_vectors(5, [unit_vector(5, i) for i in (1, 2, 3)])
    expected = Subspace.from_vectors(5, [unit_vector(5, 3), unit_vector(5, 4)])
    assert centralizer(big, h1_inside) == expected


def test_ideals_and_subalgebras():
    q = h1_phi()
    g = q.algebra
    assert is_ideal(g, Subspace.zero(4)) and is_ideal(g, Subspace.full(4))
    assert is_subalgebra(g, Subspace.zero(4)) and is_subalgebra(g, Subspace.full(4))
    h1_inside = Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)])
    assert is_ideal(g, h1_inside)
    d_line = Subspace.from_vectors(4, [unit_vector(4, 0)])
    assert is_subalgebra(g, d_line)
    assert not is_ideal(g, d_line)
    for U in (Subspace.zero(3), Subspace.full(5)):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            is_ideal(g, U)


def test_ideal_generated_by():
    g = heisenberg(1)
    got = ideal_generated_by(g, [unit_vector(3, 0)])
    assert got == Subspace.from_vectors(3, [unit_vector(3, 0), unit_vector(3, 2)])


def test_quotient():
    g = heisenberg(1)
    q0, proj0 = quotient(g, Subspace.zero(3))
    assert q0 == g
    assert proj0 == Matrix.identity(3)

    qh, _ = quotient(g, Subspace.from_vectors(3, [unit_vector(3, 2)]))
    assert qh == LieAlgebra.abelian(2)

    ext = h1_phi().algebra
    qe, _ = quotient(ext, Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)]))
    assert qe == LieAlgebra.abelian(1)

    with pytest.raises(ValueError):
        quotient(ext, Subspace.from_vectors(4, [unit_vector(4, 0)]))


def test_quotient_projection_is_homomorphism():
    for g, ideal in [
        (h1_phi().algebra, Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)])),
        (heisenberg(2), Subspace.from_vectors(5, [unit_vector(5, 4)])),
    ]:
        q, proj = quotient(g, ideal)
        for i in range(g.dim):
            for j in range(g.dim):
                lhs = proj.apply(g.bracket_basis(i, j))
                rhs = bracket(q, proj.apply(unit_vector(g.dim, i)), proj.apply(unit_vector(g.dim, j)))
                assert lhs == rhs


def test_direct_sum():
    g = heisenberg(1)
    assert direct_sum(g, LieAlgebra.abelian(0)) == g
    assert direct_sum(LieAlgebra.abelian(1), LieAlgebra.abelian(2)) == LieAlgebra.abelian(3)
    s = direct_sum(g, g)
    assert center(s).dim == 2


def test_killing_form():
    assert killing_form(LieAlgebra.abelian(3)).is_zero()
    for m in (1, 2):
        assert killing_form(heisenberg(m)).is_zero()
    assert killing_form(sl2()) == sl2_killing_gram()
    assert killing_form(LieAlgebra.abelian(0)).shape == (0, 0)
    for g in (LieAlgebra.abelian(3), heisenberg(1), sl2(), two_dim_nonabelian()):
        K = killing_form(g)
        assert all(type(x) is Fraction for row in K.rows for x in row)


def test_killing_form_associativity():
    for g in (sl2(), h1_phi().algebra, two_dim_nonabelian()):
        K = killing_form(g)
        for i in range(g.dim):
            for j in range(g.dim):
                bij = g.bracket_basis(i, j)
                for k in range(g.dim):
                    lhs = sum(
                        (c * K.entry(p, k) for p, c in enumerate(bij)), Fraction(0)
                    )
                    rhs = sum(
                        (c * K.entry(i, p) for p, c in enumerate(g.bracket_basis(j, k))),
                        Fraction(0),
                    )
                    assert lhs == rhs


def test_ad_is_homomorphism_on_random_vectors():
    rng = random.Random(3)
    for g in (sl2(), h1_phi().algebra, heisenberg(2)):
        for _ in range(50):
            x = vector([rng.randint(-3, 3) for _ in range(g.dim)])
            y = vector([rng.randint(-3, 3) for _ in range(g.dim)])
            lhs = ad(g, bracket(g, x, y))
            mx, my = ad(g, x), ad(g, y)
            assert lhs == mx @ my - my @ mx


def test_subalgebra_on():
    q = h1_phi()
    h1_inside = Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)])
    restricted = subalgebra_on(q.algebra, h1_inside)
    assert restricted == heisenberg(1)
    with pytest.raises(ValueError):
        subalgebra_on(
            sl2(), Subspace.from_vectors(3, [unit_vector(3, 1), unit_vector(3, 2)])
        )


def test_transport_roundtrip():
    rng = random.Random(9)
    from quadlie.randomized import random_unimodular

    g = h1_phi().algebra
    for _ in range(10):
        P = random_unimodular(rng, g.dim)
        moved = transport(g, P)
        assert check_jacobi(moved) == []
        back = transport(moved, P.inverse())
        assert back == g


H1 = heisenberg(1)

REFUSED = {
    "negative-dim": (lambda: LieAlgebra(-1, {}), "dimension must be nonnegative"),
    "label-count": (lambda: LieAlgebra(2, {}, ["x"]), "label count does not match dimension"),
    "bracket-index": (
        lambda: LieAlgebra(2, {(0, 2): [(0, 1)]}), "bracket index out of range: (0, 2)"
    ),
    "target-index": (lambda: LieAlgebra(2, {(0, 1): [(2, 1)]}), "target index out of range: 2"),
    "bracket_basis": (lambda: H1.bracket_basis(0, 3), "basis index out of range"),
    "ad": (lambda: ad(H1, (1, 0)), "vector dimension mismatch"),
    "centralizer": (lambda: centralizer(H1, Subspace.full(2)), "ambient dimension mismatch"),
    "is_derivation": (
        lambda: is_derivation(H1, Matrix.identity(2)),
        "matrix shape does not match algebra dimension",
    ),
    "transport-shape": (
        lambda: transport(H1, Matrix.identity(2)),
        "base change must be square of the algebra dimension",
    ),
    "transport-singular": (
        lambda: transport(H1, Matrix.zeros(3, 3)), "base change matrix is singular"
    ),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_inputs_out_of_range_or_of_the_wrong_size_are_refused(case):
    """Each refusal raises ``ValueError`` with its message."""
    call, message = REFUSED[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
