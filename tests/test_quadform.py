"""Invariant metrics: checker, musical maps, form solver, splitting."""

import random
from fractions import Fraction

import pytest

from fixtures import (
    abelian_line_quadratic,
    h1_phi,
    sl2,
    sl2_killing_gram,
    sl2_quadratic,
    two_dim_nonabelian,
    zero_quadratic,
)
from oracles import evaluate_form

from quadlie.exactla import Matrix, Subspace, unit_vector, vector
from quadlie.heisenberg import heisenberg
from quadlie.liealg import LieAlgebra, direct_sum, is_ideal
from quadlie.quadform import (
    BilinearForm,
    QuadraticLieAlgebra,
    check_invariant_metric,
    flat,
    invariant_symmetric_forms,
    orthogonal_in,
    restrict_quadratic,
    sharp,
    skew_derivation_space,
    split_by_nondegenerate_ideal,
    transport_quadratic,
)


def test_bilinear_form_requires_symmetry():
    with pytest.raises(ValueError):
        BilinearForm(Matrix([[0, 1], [2, 0]], 2))


def test_check_invariant_metric_abelian_identity():
    assert check_invariant_metric(LieAlgebra.abelian(3), Matrix.identity(3)) == []


def test_check_invariant_metric_h1_always_fails():
    g = heisenberg(1)
    rng = random.Random(4)
    for _ in range(10):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                rows[j][i] = rows[i][j]
        gram = Matrix(rows, 3)
        if gram.det() == 0:
            continue
        violations = check_invariant_metric(g, gram)
        assert any(v.kind == "invariance" for v in violations)


def test_check_invariant_metric_extended_clean():
    q = h1_phi()
    assert check_invariant_metric(q.algebra, q.metric) == []


def test_check_reports_degenerate():
    violations = check_invariant_metric(LieAlgebra.abelian(2), Matrix.zeros(2, 2))
    assert any(v.kind == "nondegenerate" for v in violations)


def test_quadratic_constructor_rejects_h1():
    with pytest.raises(ValueError):
        QuadraticLieAlgebra(heisenberg(1), BilinearForm(Matrix.identity(3)))


def test_flat_sharp():
    B = BilinearForm(Matrix.identity(3))
    x = vector([1, 2, 3])
    assert flat(B, x) == x
    rng = random.Random(12)
    q = h1_phi()
    for _ in range(20):
        x = vector([rng.randint(-4, 4) for _ in range(4)])
        assert sharp(q.metric, flat(q.metric, x)) == x
    # flat(d) is the dual covector of hbar
    assert flat(q.metric, unit_vector(4, 0)) == unit_vector(4, 3)


def test_sharp_degenerate_errors():
    B = BilinearForm(Matrix.zeros(2, 2))
    with pytest.raises(ValueError):
        sharp(B, vector([1, 0]))


def test_orthogonal_in():
    q = h1_phi()
    assert orthogonal_in(q, Subspace.zero(4)) == Subspace.full(4)
    hbar_line = Subspace.from_vectors(4, [unit_vector(4, 3)])
    h1_inside = Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)])
    assert orthogonal_in(q, hbar_line) == h1_inside
    V = Subspace.from_vectors(4, [unit_vector(4, 1), unit_vector(4, 2)])
    assert orthogonal_in(q, V) == Subspace.from_vectors(
        4, [unit_vector(4, 0), unit_vector(4, 3)]
    )


def test_orthogonal_involution_and_ideal_property():
    from fixtures import build_sl2_fixture, oscillator

    rng = random.Random(8)
    for q in (h1_phi(), oscillator(), build_sl2_fixture()):
        for _ in range(10):
            U = Subspace.from_vectors(
                q.dim,
                [[rng.randint(-2, 2) for _ in range(q.dim)] for _ in range(rng.randint(0, q.dim))],
            )
            assert orthogonal_in(q, orthogonal_in(q, U)) == U
        # orthogonal complements of ideals are ideals
        from quadlie.liealg import derived_subalgebra

        der = derived_subalgebra(q.algebra)
        assert is_ideal(q.algebra, der)
        assert is_ideal(q.algebra, orthogonal_in(q, der))


def test_invariant_forms_abelian_dimension():
    for n in (1, 2, 3):
        forms = invariant_symmetric_forms(LieAlgebra.abelian(n))
        assert len(forms) == n * (n + 1) // 2


def test_invariant_forms_h1_degenerate_on_hbar():
    for m in (1, 2):
        g = heisenberg(m)
        forms = invariant_symmetric_forms(g)
        if m == 1:
            assert len(forms) == 3
        hb = 2 * m
        for form in forms:
            for x in range(g.dim):
                assert evaluate_form(form, unit_vector(g.dim, hb), unit_vector(g.dim, x)) == 0


def test_invariant_forms_sl2_killing_line():
    forms = invariant_symmetric_forms(sl2())
    assert len(forms) == 1
    gram = forms[0].gram
    killing = sl2_killing_gram()
    pivot = next(
        (i, j)
        for i in range(3)
        for j in range(3)
        if gram.entry(i, j) != 0
    )
    ratio = killing.entry(*pivot) / gram.entry(*pivot)
    assert gram.scale(ratio) == killing


def test_invariant_forms_two_dim_nonabelian_all_degenerate():
    forms = invariant_symmetric_forms(two_dim_nonabelian())
    assert forms
    for form in forms:
        assert not form.is_nondegenerate()
        # the derived line x is in every form's radical
        assert all(
            evaluate_form(form, unit_vector(2, 1), unit_vector(2, t)) == 0 for t in range(2)
        )


def test_split_trivial_and_degenerate():
    q = h1_phi()
    full = Subspace.full(4)
    result = split_by_nondegenerate_ideal(q, full)
    assert result is not None
    first, second = result
    assert first.dim == 4 and second.dim == 0
    h1_inside = Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)])
    assert split_by_nondegenerate_ideal(q, h1_inside) is None
    # the d line is not an ideal: [d, u_1] leaves it
    d_line = Subspace.from_vectors(4, [unit_vector(4, 0)])
    assert split_by_nondegenerate_ideal(q, d_line) is None


def test_split_composite_fixture():
    line = abelian_line_quadratic()
    ext = h1_phi()
    algebra = direct_sum(line.algebra, ext.algebra)
    gram_rows = [[Fraction(0)] * 5 for _ in range(5)]
    gram_rows[0][0] = Fraction(1)
    for i in range(4):
        for j in range(4):
            gram_rows[1 + i][1 + j] = ext.metric.gram.entry(i, j)
    q = QuadraticLieAlgebra(algebra, BilinearForm(Matrix(gram_rows, 5)))
    I = Subspace.from_vectors(5, [unit_vector(5, 0)])
    result = split_by_nondegenerate_ideal(q, I)
    assert result is not None
    first, second = result
    assert first.dim == 1
    assert second.algebra == ext.algebra
    assert second.metric == ext.metric

    # round trip: direct sum of the factors is the original up to the
    # permutation-to-rref base change
    P = Matrix(
        list(I.vectors()) + list(orthogonal_in(q, I).vectors()), 5
    )
    moved = transport_quadratic(q, P)
    assert moved.algebra == direct_sum(first.algebra, second.algebra)
    expected_gram_rows = [[Fraction(0)] * 5 for _ in range(5)]
    expected_gram_rows[0][0] = first.metric.gram.entry(0, 0)
    for i in range(4):
        for j in range(4):
            expected_gram_rows[1 + i][1 + j] = second.metric.gram.entry(i, j)
    assert moved.metric.gram == Matrix(expected_gram_rows, 5)


def test_one_dimensional_ideals_are_central():
    from fixtures import build_abelian_line_fixture, build_sl2_fixture, oscillator
    from quadlie.liealg import center

    for q in (h1_phi(), oscillator(), build_abelian_line_fixture(), build_sl2_fixture()):
        g = q.algebra
        z = center(g)
        for i in range(g.dim):
            line = Subspace.from_vectors(g.dim, [unit_vector(g.dim, i)])
            if is_ideal(g, line):
                assert z.contains_subspace(line)


def test_zero_dimensional_quadratic():
    q = zero_quadratic()
    assert q.dim == 0
    assert check_invariant_metric(q.algebra, q.metric) == []


def test_skew_derivation_space_basics():
    # abelian with identity gram: skew derivations = antisymmetric matrices
    q = QuadraticLieAlgebra(
        LieAlgebra.abelian(3), BilinearForm(Matrix.identity(3))
    )
    basis = skew_derivation_space(q)
    assert len(basis) == 3
    for M in basis:
        assert (M.transpose() + M).is_zero()
    # sl2: skew derivations = inner derivations, a 3-dimensional space
    assert len(skew_derivation_space(sl2_quadratic())) == 3


def test_restrict_quadratic_rejects_non_subalgebra():
    # [e, f] = h leaves span(e, f)
    U = Subspace.from_vectors(3, [unit_vector(3, 1), unit_vector(3, 2)])
    with pytest.raises(ValueError, match="not a subalgebra"):
        restrict_quadratic(sl2_quadratic(), U)


def test_restrict_quadratic_rejects_degenerate_subalgebra():
    # the hbar line of h1_phi is an abelian subalgebra with B(hbar, hbar) = 0
    U = Subspace.from_vectors(4, [unit_vector(4, 3)])
    with pytest.raises(ValueError, match="degenerates"):
        restrict_quadratic(h1_phi(), U)



REFUSED = {
    "gram-not-square": (lambda: BilinearForm(Matrix([[0, 1]])), "gram matrix must be square"),
    "check-size": (
        lambda: check_invariant_metric(sl2(), Matrix.identity(2)),
        "gram matrix size does not match algebra dimension",
    ),
    "metric-dim": (
        lambda: QuadraticLieAlgebra(sl2(), BilinearForm(Matrix.identity(2))),
        "metric dimension does not match algebra",
    ),
    "split-ambient": (
        lambda: split_by_nondegenerate_ideal(h1_phi(), Subspace.full(3)),
        "ambient dimension mismatch",
    ),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_inputs_of_the_wrong_size_are_refused(case):
    """Each refusal raises ``ValueError`` with its message."""
    call, message = REFUSED[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
