"""Radical/nilradical, Heisenberg-ideal recovery, recognizer, complements."""

import pathlib
import random
from fractions import Fraction

import pytest

from fixtures import (
    DIAG_1_M1,
    abelian_line_quadratic,
    abelian_plane_quadratic,
    build_abelian_line_fixture,
    build_rotation_core_fixture,
    build_sl2_fixture,
    five_dim_trace_zero,
    h1_phi,
    oscillator,
    sl2,
    sl2_plus_h1,
    sl2_quadratic,
    zero_quadratic,
)
from oracles import (
    complement_from_metric_by_evaluation,
    heisenberg_ideal_span,
    metric_on_complement_by_evaluation,
    obstruction_holds,
    quotient_metric_probe,
    recover_structure_by_fractions,
    transport_subspace,
)

from quadlie import structure
from quadlie.documents import loads_document
from quadlie.errors import InternalVerificationError
from quadlie.exactla import Matrix, Subspace, add_vec, scale_vec, solve, unit_vector, vector
from quadlie.heisenberg import (
    SymplecticSpace,
    build_with_heisenberg_ideal,
    coadjoint_double,
    extend_heisenberg,
    heisenberg,
    standard_symplectic_matrix,
)
from quadlie.liealg import (
    LieAlgebra,
    ad,
    bracket,
    check_jacobi,
    derived_subalgebra,
    direct_sum,
    is_ideal,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    quotient,
    subalgebra_on,
)
from quadlie.quadform import (
    BilinearForm,
    QuadraticLieAlgebra,
    check_invariant_metric,
    invariant_symmetric_forms,
    transport_quadratic,
)
from quadlie.randomized import (
    random_build_input,
    random_core_algebra,
    random_invertible_omega_skew,
    random_skew_derivation,
    random_unimodular,
)
from quadlie.structure import (
    ComplementWitness,
    DecomposableVerdict,
    ExtendedHeisenbergVerdict,
    HeisenbergIdealData,
    NotApplicableVerdict,
    QuotientMetricObstruction,
    RecoveredStructure,
    _complement_brackets,
    _normalized_complement,
    complement_from_quotient_metric,
    find_heisenberg_ideal,
    has_invariant_quotient_metric,
    nilradical,
    quotient_metric_from_complement,
    radical,
    recognize_extended_heisenberg,
    recover_structure,
    verify_nilradical_theorem,
)

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "src" / "quadlie" / "corpus"

# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------

def test_radical_solvable_is_full():
    for g in (LieAlgebra.abelian(3), heisenberg(1), h1_phi().algebra, five_dim_trace_zero()):
        assert radical(g) == Subspace.full(g.dim)


def test_radical_sl2_is_zero():
    assert radical(sl2()).is_zero()


def test_radical_sl2_plus_line():
    g = direct_sum(sl2(), LieAlgebra.abelian(1))
    assert radical(g) == Subspace.from_vectors(4, [unit_vector(4, 3)])


def test_radical_contains_nilradical_and_semisimple_quotient():
    for g in (
        sl2_plus_h1(),
        oscillator().algebra,
        build_sl2_fixture().algebra,
        five_dim_trace_zero(),
    ):
        rad = radical(g)
        nil = nilradical(g)
        assert rad.contains_subspace(nil)
        assert is_solvable(subalgebra_on(g, rad)) if rad.dim else True
        q, _ = quotient(g, rad)
        assert radical(q).is_zero()


def test_radical_oracle_maximal_solvable_ideal():
    """Independent oracle: the radical is a solvable ideal and no single
    basis-vector extension of it is again a solvable ideal."""
    for g in (sl2_plus_h1(), build_sl2_fixture().algebra, direct_sum(sl2(), sl2())):
        rad = radical(g)
        assert is_ideal(g, rad)
        if rad.dim:
            assert is_solvable(subalgebra_on(g, rad))
        for i in range(g.dim):
            v = unit_vector(g.dim, i)
            if rad.contains(v):
                continue
            bigger = Subspace.from_vectors(g.dim, list(rad.vectors()) + [v])
            grew_to_solvable_ideal = (
                is_ideal(g, bigger)
                and is_subalgebra(g, bigger)
                and is_solvable(subalgebra_on(g, bigger))
            )
            assert not grew_to_solvable_ideal


# ---------------------------------------------------------------------------
# nilradical (with the independent oracle)
# ---------------------------------------------------------------------------

def _assert_nilradical_oracle(g, nil):
    """Ideal-ness, nilpotency, per-element ad-nilpotency, local maximality."""
    assert is_ideal(g, nil)
    if nil.dim:
        assert is_nilpotent(subalgebra_on(g, nil))
    for v in nil.vectors():
        M = ad(g, v)
        power = Matrix.identity(g.dim)
        for _ in range(g.dim + 1):
            power = power @ M
        assert power.is_zero()
    rad = radical(g)
    for v in rad.vectors():
        if nil.contains(v):
            continue
        bigger = Subspace.from_vectors(g.dim, list(nil.vectors()) + [v])
        still_ideal = is_ideal(g, bigger)
        still_nilpotent = still_ideal and is_nilpotent(subalgebra_on(g, bigger))
        assert not (still_ideal and still_nilpotent)


NILRADICAL_SUITE = [
    ("abelian3", LieAlgebra.abelian(3), Subspace.full(3)),
    ("h1", heisenberg(1), Subspace.full(3)),
    (
        "oscillator",
        oscillator().algebra,
        Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)]),
    ),
    (
        "h1_phi",
        h1_phi().algebra,
        Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)]),
    ),
    (
        "five_dim_trace_zero",
        five_dim_trace_zero(),
        Subspace.from_vectors(5, [unit_vector(5, i) for i in (1, 2, 3, 4)]),
    ),
    (
        "sl2_plus_h1",
        sl2_plus_h1(),
        Subspace.from_vectors(6, [unit_vector(6, i) for i in (3, 4, 5)]),
    ),
]


@pytest.mark.parametrize("name,g,expected", NILRADICAL_SUITE, ids=[c[0] for c in NILRADICAL_SUITE])
def test_nilradical_suite(name, g, expected):
    nil = nilradical(g)
    assert nil == expected
    _assert_nilradical_oracle(g, nil)


def test_nilradical_defeats_killing_kernel_shortcut():
    """The 5-dim fixture has identically zero Killing form, yet d is not
    ad-nilpotent; the nilradical must exclude it."""
    g = five_dim_trace_zero()
    from quadlie.liealg import killing_form

    assert killing_form(g).is_zero()
    nil = nilradical(g)
    assert nil.dim == 4
    assert not nil.contains(unit_vector(5, 0))


# ---------------------------------------------------------------------------
# find_heisenberg_ideal
# ---------------------------------------------------------------------------

def test_find_heisenberg_ideal_h1_phi():
    q = h1_phi()
    candidate = Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)])
    h = find_heisenberg_ideal(q.algebra, candidate)
    assert h is not None
    assert h.m == 1
    assert h.hbar == unit_vector(4, 3)
    assert h.omega == standard_symplectic_matrix(1)


def test_find_heisenberg_ideal_rejects_abelian():
    q = coadjoint_double(heisenberg(1))
    dual = Subspace.from_vectors(6, [unit_vector(6, i) for i in (3, 4, 5)])
    assert find_heisenberg_ideal(q.algebra, dual) is None


def test_find_heisenberg_ideal_rejects_even_or_small():
    g = h1_phi().algebra
    assert find_heisenberg_ideal(g, Subspace.from_vectors(4, [unit_vector(4, 3)])) is None
    assert (
        find_heisenberg_ideal(
            g, Subspace.from_vectors(4, [unit_vector(4, 1), unit_vector(4, 3)])
        )
        is None
    )


def test_find_heisenberg_ideal_build_fixture():
    q = build_sl2_fixture()
    candidate = heisenberg_ideal_span(q, 1)
    h = find_heisenberg_ideal(q.algebra, candidate)
    assert h is not None and h.m == 1


def test_find_heisenberg_ideal_scaled_center():
    # omega is scaled rather than hbar: a 2hbar bracket gives omega = 2*std
    g = heisenberg(1, Matrix([[0, 2], [-2, 0]], 2))
    q = None
    h = find_heisenberg_ideal(g, Subspace.full(3))
    assert h is not None
    assert h.omega == Matrix([[0, 2], [-2, 0]], 2)


# ---------------------------------------------------------------------------
# recover_structure
# ---------------------------------------------------------------------------

def test_recover_h1_phi():
    q = h1_phi()
    h = find_heisenberg_ideal(q.algebra, derived_subalgebra(q.algebra))
    rec = recover_structure(q, h)
    assert rec.s_basis.dim == 0
    assert rec.d == unit_vector(4, 0)
    assert rec.sigmaD.matrix == DIAG_1_M1
    assert rec.base_change == Matrix.identity(4)
    assert rec.rebuilt.algebra == q.algebra


def test_recover_rotation_core():
    q = build_rotation_core_fixture()
    h = find_heisenberg_ideal(q.algebra, heisenberg_ideal_span(q, 1))
    rec = recover_structure(q, h)
    assert rec.s_basis.dim == 2
    D = rec.D
    assert D.trace() == 0 and D.det() == 1  # conjugate to the input rotation


def test_recover_validates_input_data():
    q = h1_phi()
    h = find_heisenberg_ideal(q.algebra, derived_subalgebra(q.algebra))
    with pytest.raises(ValueError, match="do not span the ideal"):
        HeisenbergIdealData(
            algebra=q.algebra,
            ideal=h.ideal,
            hbar=unit_vector(4, 1),  # not the derived generator
            v_basis=h.v_basis,
            omega=h.omega,
        )


def test_consumers_reject_data_of_another_algebra():
    """Data found in q, passed with a base-changed copy of q, is refused by
    each of its four consumers, and accepted with q itself."""
    q = h1_phi()
    h = find_heisenberg_ideal(q.algebra, derived_subalgebra(q.algebra))
    moved = transport_quadratic(q, random_unimodular(random.Random(7), q.dim))
    assert moved.algebra != q.algebra
    comp = Subspace.from_vectors(4, [unit_vector(4, 0)])
    Ba = BilinearForm(Matrix([[1]], 1))
    consumers = [
        lambda target: recover_structure(target, h),
        lambda target: quotient_metric_from_complement(target, h, comp),
        lambda target: complement_from_quotient_metric(target, h, Ba),
        lambda target: has_invariant_quotient_metric(target, h),
    ]
    for consume in consumers:
        assert consume(q) is not None
        with pytest.raises(ValueError, match="another algebra"):
            consume(moved)


def test_inputs_of_another_size_are_refused():
    """An ideal or complement of another ambient dimension, a v_basis of
    the wrong length and a quotient form of the wrong size each raise
    ``ValueError`` before any computation."""
    q = h1_phi()
    h = _heis_of(q)
    wide = Subspace.from_vectors(5, [unit_vector(5, i) for i in (1, 2, 3)])
    with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
        find_heisenberg_ideal(q.algebra, wide)
    with pytest.raises(ValueError, match="^ideal ambient dimension mismatch$"):
        HeisenbergIdealData(q.algebra, wide, h.hbar, h.v_basis, h.omega)
    with pytest.raises(ValueError, match="^v_basis size does not match the ideal dimension$"):
        HeisenbergIdealData(q.algebra, h.ideal, h.hbar, h.v_basis[:1], h.omega)
    with pytest.raises(ValueError, match="^complement has wrong ambient dimension$"):
        quotient_metric_from_complement(q, h, Subspace.from_vectors(5, [unit_vector(5, 0)]))
    with pytest.raises(ValueError, match="^quotient form has the wrong dimension$"):
        complement_from_quotient_metric(q, h, BilinearForm(Matrix.identity(2)))


def test_recover_randomized_roundtrip_30():
    """Recovery round-trips exactly after random base changes (30 trials)."""
    rng = random.Random(123)
    for trial in range(30):
        S, D, V, sigma = random_build_input(rng)
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        ideal = heisenberg_ideal_span(q, V.dim // 2)
        P = random_unimodular(rng, q.dim)
        moved = transport_quadratic(q, P)
        candidate = transport_subspace(ideal, P)
        h = find_heisenberg_ideal(moved.algebra, candidate)
        assert h is not None, f"trial {trial}"
        rec = recover_structure(moved, h)  # verifies the round trip internally
        assert transport_quadratic(moved, rec.base_change) == rec.rebuilt


def _core_of_dim_4(rng):
    while True:
        S = random_core_algebra(rng, 4)
        if S.dim == 4:
            return S


def _dims_12_to_18_case(seed):
    """(moved, h): a build with core dim 4 and m = 3 + seed % 4 after a
    random base change, with the data of its moved coordinate ideal."""
    m = 3 + seed % 4
    rng = random.Random(500 + seed)
    S = _core_of_dim_4(rng)
    V = SymplecticSpace.standard(m)
    q = build_with_heisenberg_ideal(
        S, random_skew_derivation(rng, S), V, random_invertible_omega_skew(rng, V)
    )
    assert q.dim == 6 + 2 * m
    P = random_unimodular(rng, q.dim)
    moved = transport_quadratic(q, P)
    candidate = transport_subspace(heisenberg_ideal_span(q, m), P)
    return moved, find_heisenberg_ideal(moved.algebra, candidate)


@pytest.mark.parametrize("seed", range(8))
def test_recover_roundtrip_at_dims_12_to_18(seed):
    """Builds with core dim 4 and m = 3..6 (dim 12-18) round-trip after a
    random base change, and the unvalidated core and rebuild pass the full
    constructor."""
    moved, h = _dims_12_to_18_case(seed)
    assert h is not None
    rec = recover_structure(moved, h)
    assert transport_quadratic(moved, rec.base_change) == rec.rebuilt
    for built in (rec.rebuilt, rec.core):
        assert QuadraticLieAlgebra(built.algebra, built.metric) == built


def _corpus_quadratics():
    """(name, algebra) of every corpus document that carries a metric."""
    found = []
    for path in sorted(CORPUS.glob("*.algebra.json")):
        doc = loads_document(path.read_text(encoding="utf-8"))
        if doc.metric is not None:
            found.append((path.name, doc.quadratic()))
    return found


QUADRATIC_CASES = [
    (f.__name__, f())
    for f in (
        sl2_quadratic,
        h1_phi,
        oscillator,
        abelian_line_quadratic,
        abelian_plane_quadratic,
        zero_quadratic,
        build_sl2_fixture,
        build_abelian_line_fixture,
        build_rotation_core_fixture,
    )
] + _corpus_quadratics()


def _heisenberg_ideals(g):
    """The distinct Heisenberg ideals among the nilradical, the derived
    subalgebra and the spans of the last 2m + 1 basis vectors."""
    n = g.dim
    candidates = [nilradical(g), derived_subalgebra(g)] + [
        Subspace.from_vectors(n, [unit_vector(n, i) for i in range(n - 2 * m - 1, n)])
        for m in range(1, (n - 1) // 2 + 1)
    ]
    found = []
    for candidate in candidates:
        h = find_heisenberg_ideal(g, candidate)
        if h is not None and all(h.ideal != other.ideal for other in found):
            found.append(h)
    return found


def _assert_complement_brackets_stay_in_v(q, h):
    """[a, v] has no hbar-coefficient for every returned a and every v."""
    V = Subspace.from_vectors(q.dim, h.v_basis)
    a_vecs = _normalized_complement(q, h).rows
    assert len(a_vecs) == q.dim - h.ideal.dim
    for a in a_vecs:
        for v in h.v_basis:
            assert V.contains(bracket(q.algebra, a, v))


def test_normalized_complement_needs_no_correction_on_fixtures_and_corpus():
    """Fixture and corpus algebras: the uncorrected complement inside V^perp
    already brackets V into V, as B([a, v], z) = B(a, [v, z]) = 0."""
    cases = 0
    for _, q in QUADRATIC_CASES:
        for h in _heisenberg_ideals(q.algebra):
            _assert_complement_brackets_stay_in_v(q, h)
            cases += 1
    # 9 of the 16 algebras have one Heisenberg ideal here; the two
    # rotation-core builds have two (dimensions 3 and 5)
    assert cases == 13


def test_normalized_complement_needs_no_correction_on_random_builds():
    """30 seeded builds after a random base change, where no vector of the
    complement is a coordinate vector."""
    rng = random.Random(808)
    for trial in range(30):
        S, D, V, sigma = random_build_input(rng)
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        P = random_unimodular(rng, q.dim)
        moved = transport_quadratic(q, P)
        candidate = transport_subspace(heisenberg_ideal_span(q, V.dim // 2), P)
        h = find_heisenberg_ideal(moved.algebra, candidate)
        assert h is not None, f"trial {trial}"
        _assert_complement_brackets_stay_in_v(moved, h)


def _assert_recovery_matches_fractions(q, h):
    """``recover_structure`` on integer rows gives the record, field by
    field, that the recovery on Fraction vectors gives."""
    rec, expected = recover_structure(q, h), recover_structure_by_fractions(q, h)
    for field in RecoveredStructure._fields:
        assert getattr(rec, field) == getattr(expected, field), field
    assert all(type(x) is Fraction for x in rec.d + sum(rec.complement, ()))


def test_recovery_matches_the_fraction_recovery_on_fixtures_and_corpus():
    """Every Heisenberg ideal of every fixture and corpus quadratic algebra."""
    cases = 0
    for _, q in QUADRATIC_CASES:
        for h in _heisenberg_ideals(q.algebra):
            _assert_recovery_matches_fractions(q, h)
            cases += 1
    assert cases == 13


def test_recovery_matches_the_fraction_recovery_on_random_builds():
    """The 30 seeded builds of ``test_recover_randomized_roundtrip_30``."""
    rng = random.Random(123)
    for _ in range(30):
        S, D, V, sigma = random_build_input(rng)
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        ideal = heisenberg_ideal_span(q, V.dim // 2)
        P = random_unimodular(rng, q.dim)
        moved = transport_quadratic(q, P)
        h = find_heisenberg_ideal(moved.algebra, transport_subspace(ideal, P))
        _assert_recovery_matches_fractions(moved, h)


@pytest.mark.parametrize("seed", range(8))
def test_recovery_matches_the_fraction_recovery_at_dims_12_to_18(seed):
    _assert_recovery_matches_fractions(*_dims_12_to_18_case(seed))


def test_recover_reports_a_singular_basis_as_internal(monkeypatch):
    """A transport that rejects the recovered basis is a library fault, so
    recovery raises InternalVerificationError, not ValueError."""
    q = h1_phi()
    h = find_heisenberg_ideal(q.algebra, derived_subalgebra(q.algebra))

    def singular(*args, **kwargs):
        raise ValueError("base change matrix is singular")

    monkeypatch.setattr(structure, "transport_quadratic", singular)
    with pytest.raises(InternalVerificationError, match="recovered basis is not a basis"):
        recover_structure(q, h)


def test_recovery_evaluates_no_form_entry():
    """Recovery reads every B(., hbar), B(d, d) and B(a, d) off G hbar and
    G d: ``BilinearForm`` has no per-entry evaluation to call (the oracles
    keep it as ``evaluate_form``), and on the sl2 build and on h2_phi the
    recovered base change still transports q onto the rebuild."""
    assert not hasattr(BilinearForm, "evaluate")
    h2_phi = loads_document(
        (CORPUS / "h2_phi.algebra.json").read_text(encoding="utf-8")
    ).quadratic()
    cases = [(q, _heis_of(q)) for q in (build_sl2_fixture(), h2_phi)]
    for q, h in cases:
        rec = recover_structure(q, h)
        assert transport_quadratic(q, rec.base_change) == rec.rebuilt


# ---------------------------------------------------------------------------
# recognizer
# ---------------------------------------------------------------------------

PHI_CHOICES_M1 = [
    DIAG_1_M1,
    Matrix([[0, 1], [1, 0]], 2),
    Matrix([[1, 2], [3, -1]], 2),
]


def _phi_choices_m2():
    omega = standard_symplectic_matrix(2)
    symmetric = [
        Matrix.identity(4),
        Matrix.diagonal([1, 2, 3, 4]),
        Matrix([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], 4),
    ]
    out = []
    for A in symmetric:
        phi = omega.inverse() @ A
        assert phi.det() != 0
        out.append(phi)
    return out


def test_recognizer_extended_heisenberg_m1_m2():
    for phi in PHI_CHOICES_M1:
        verdict = recognize_extended_heisenberg(extend_heisenberg(1, None, phi))
        assert isinstance(verdict, ExtendedHeisenbergVerdict)
    for phi in _phi_choices_m2():
        verdict = recognize_extended_heisenberg(extend_heisenberg(2, None, phi))
        assert isinstance(verdict, ExtendedHeisenbergVerdict)


def test_recognizer_oscillator_is_extended_heisenberg():
    verdict = recognize_extended_heisenberg(oscillator())
    assert isinstance(verdict, ExtendedHeisenbergVerdict)


def test_recognizer_decomposable():
    q = build_abelian_line_fixture()
    verdict = recognize_extended_heisenberg(q)
    assert isinstance(verdict, DecomposableVerdict)
    assert verdict.ideal.dim == 1
    first, second = verdict.factors
    assert first.dim + second.dim == q.dim
    # the complementary factor is again quadratic with the h_m inside
    assert check_jacobi(second.algebra) == []


def test_recognizer_not_applicable():
    v1 = recognize_extended_heisenberg(coadjoint_double(LieAlgebra.abelian(1)))
    assert isinstance(v1, NotApplicableVerdict)
    assert v1.reason == "derived subalgebra is zero"
    v2 = recognize_extended_heisenberg(sl2_quadratic())
    assert isinstance(v2, NotApplicableVerdict)
    assert v2.reason == "derived subalgebra of the candidate has dimension 3, expected 1"
    v3 = recognize_extended_heisenberg(coadjoint_double(heisenberg(1)))
    assert isinstance(v3, NotApplicableVerdict)
    assert v3.reason == "derived subalgebra of the candidate has dimension 0, expected 1"


def test_recognizer_agrees_with_derived_condition():
    """ExtendedHeisenberg iff derived(q) is the validated Heisenberg ideal
    and no splitting witness exists."""
    cases = [
        extend_heisenberg(1, None, DIAG_1_M1),
        oscillator(),
        build_abelian_line_fixture(),
        build_sl2_fixture(),
        coadjoint_double(LieAlgebra.abelian(1)),
        sl2_quadratic(),
    ]
    for q in cases:
        verdict = recognize_extended_heisenberg(q)
        der = derived_subalgebra(q.algebra)
        h = find_heisenberg_ideal(q.algebra, der)
        if isinstance(verdict, ExtendedHeisenbergVerdict):
            assert h is not None
            rec = recover_structure(q, h)
            assert rec.s_basis.dim == 0
        elif isinstance(verdict, DecomposableVerdict):
            assert h is not None
            rec = recover_structure(q, h)
            assert rec.s_basis.dim > 0
        else:
            assert h is None


# ---------------------------------------------------------------------------
# quotient metrics and complements
# ---------------------------------------------------------------------------

def _heis_of(q):
    nil = nilradical(q.algebra)
    h = find_heisenberg_ideal(q.algebra, nil)
    if h is None:
        h = find_heisenberg_ideal(q.algebra, derived_subalgebra(q.algebra))
    assert h is not None
    return h


def test_quotient_metric_from_complement_h1_phi():
    q = h1_phi()
    h = _heis_of(q)
    comp = Subspace.from_vectors(4, [unit_vector(4, 0)])
    form = quotient_metric_from_complement(q, h, comp)
    assert form.gram == Matrix([[1]], 1)


def test_quotient_metric_from_complement_sl2_build():
    q = build_sl2_fixture()
    h = _heis_of(q)
    comp = Subspace.from_vectors(7, [unit_vector(7, i) for i in range(4)])
    form = quotient_metric_from_complement(q, h, comp)
    q_alg, _ = quotient(q.algebra, h.ideal)
    assert check_invariant_metric(q_alg, form) == []


def test_quotient_metric_rejects_non_subalgebra():
    q = build_rotation_core_fixture()
    h = find_heisenberg_ideal(q.algebra, heisenberg_ideal_span(q, 1))
    assert h is not None
    comp = Subspace.from_vectors(6, [unit_vector(6, i) for i in range(3)])
    assert not is_subalgebra(q.algebra, comp)
    with pytest.raises(ValueError, match="subalgebra"):
        quotient_metric_from_complement(q, h, comp)


def test_quotient_metric_rejects_non_complement():
    q = h1_phi()
    h = _heis_of(q)
    with pytest.raises(ValueError, match="complement"):
        quotient_metric_from_complement(
            q, h, Subspace.from_vectors(4, [unit_vector(4, 1)])
        )


def test_complement_from_quotient_metric_h1_phi():
    q = h1_phi()
    h = _heis_of(q)
    Ba = BilinearForm(Matrix([[1]], 1))
    witness = complement_from_quotient_metric(q, h, Ba)
    assert witness.complement == Subspace.from_vectors(4, [unit_vector(4, 0)])
    assert witness.c == vector([0, 0, 0, 0])


def test_complement_from_quotient_metric_oscillator():
    q = oscillator()
    h = _heis_of(q)
    Ba = BilinearForm(Matrix([[1]], 1))
    witness = complement_from_quotient_metric(q, h, Ba)
    assert witness.complement == Subspace.from_vectors(4, [unit_vector(4, 0)])


def test_complement_from_quotient_metric_abelian_build():
    q = build_abelian_line_fixture()
    h = _heis_of(q)
    Ba = BilinearForm(Matrix.identity(2))
    witness = complement_from_quotient_metric(q, h, Ba)
    expected = Subspace.from_vectors(5, [unit_vector(5, 0), unit_vector(5, 1)])
    assert witness.complement == expected


def test_complement_rejects_invalid_quotient_form():
    q = h1_phi()
    h = _heis_of(q)
    with pytest.raises(ValueError):
        complement_from_quotient_metric(q, h, BilinearForm(Matrix([[0]], 1)))


def test_complement_roundtrip_on_fixtures():
    """metric -> complement -> metric stays checker-clean, both ways."""
    fixtures = [
        h1_phi(),
        oscillator(),
        build_abelian_line_fixture(),
        build_sl2_fixture(),
    ]
    for q in fixtures:
        h = _heis_of(q)
        q_alg, _ = quotient(q.algebra, h.ideal)
        witness = has_invariant_quotient_metric(q, h)
        assert isinstance(witness, ComplementWitness)
        assert check_invariant_metric(q_alg, witness.quotient_metric) == []
        assert witness == complement_from_quotient_metric(q, h, witness.quotient_metric)
        assert is_subalgebra(q.algebra, witness.complement)
        again = quotient_metric_from_complement(q, h, witness.complement)
        assert check_invariant_metric(q_alg, again) == []


def test_complement_inner_witness_identity():
    """F = ad(c) exactly: the hbar part of complement brackets matches."""
    q = build_sl2_fixture()
    h = _heis_of(q)
    found = has_invariant_quotient_metric(q, h)
    witness = complement_from_quotient_metric(q, h, found.quotient_metric)
    assert witness == found
    g = q.algebra
    rows = witness.complement.vectors()
    for x in rows:
        for y in rows:
            w = bracket(g, x, y)
            assert witness.complement.contains(w)


def test_has_invariant_quotient_metric_cases():
    q = h1_phi()
    h = _heis_of(q)
    assert isinstance(has_invariant_quotient_metric(q, h), ComplementWitness)

    q2 = build_sl2_fixture()
    h2 = _heis_of(q2)
    witness = has_invariant_quotient_metric(q2, h2)
    assert isinstance(witness, ComplementWitness)
    q_alg, _ = quotient(q2.algebra, h2.ideal)
    assert check_invariant_metric(q_alg, witness.quotient_metric) == []
    assert is_subalgebra(q2.algebra, witness.complement)

    # invertible D on an abelian core: over the V ⊕ hbar ideal the quotient
    # is d acting invertibly on QQ^2, which admits no invariant metric
    q3 = build_rotation_core_fixture()
    h3 = find_heisenberg_ideal(q3.algebra, heisenberg_ideal_span(q3, 1))
    assert h3 is not None
    found = has_invariant_quotient_metric(q3, h3)
    assert isinstance(found, QuotientMetricObstruction)
    assert obstruction_holds(q3.algebra, found.complement, h3.v_basis, h3.hbar, found.y)


def test_quotient_metric_decision_agrees_with_probe_on_random_builds():
    """60 seeded builds (core dim <= 4, m <= 3) moved by a unimodular base
    change, over the builder's ideal: the decision agrees with the seeded
    probe on existence, each obstruction re-checks against brackets solved
    anew, and each metric is invariant, comes with the complement that
    ``complement_from_quotient_metric`` builds from it, and round-trips
    through that complement subalgebra.  Each witness, and the metric
    built back from its complement, equal the per-entry oracles, and each
    of the three witness-metric rules is taken at least once."""
    seen = {ComplementWitness: 0, QuotientMetricObstruction: 0}
    rules = {"solver form": 0, "-2 sum": 0, "complement": 0}
    for seed in range(60):
        rng = random.Random(seed)
        S, D, V, sigma = random_build_input(rng, max_core_dim=4, max_m=3)
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        P = random_unimodular(rng, q.dim)
        moved = transport_quadratic(q, P)
        ideal = heisenberg_ideal_span(q, V.omega.nrows // 2)
        h = find_heisenberg_ideal(moved.algebra, transport_subspace(ideal, P))
        found = has_invariant_quotient_metric(moved, h)
        seen[type(found)] += 1
        probe = quotient_metric_probe(moved, h)
        assert isinstance(found, ComplementWitness) == (probe is not None), seed
        if isinstance(found, QuotientMetricObstruction):
            assert obstruction_holds(
                moved.algebra, found.complement, h.v_basis, h.hbar, found.y
            ), seed
            continue
        q_alg, _ = quotient(moved.algebra, h.ideal)
        assert check_invariant_metric(q_alg, found.quotient_metric) == [], seed
        assert found == complement_from_quotient_metric(moved, h, found.quotient_metric), seed
        assert found == complement_from_metric_by_evaluation(moved, h, found.quotient_metric), seed
        again = quotient_metric_from_complement(moved, h, found.complement)
        assert check_invariant_metric(q_alg, again) == [], seed
        assert again == metric_on_complement_by_evaluation(moved, h, found.complement), seed
        rules[_witness_metric_rule(moved, h, q_alg, found.quotient_metric)] += 1
    assert seen[ComplementWitness] > 0 and seen[QuotientMetricObstruction] > 0
    assert all(rules.values()), rules


def _witness_metric_rule(q, h, q_alg, metric):
    """Which of the three rules of ``has_invariant_quotient_metric`` gave
    ``metric``; the third one is checked against the per-entry oracle on
    the complement {a_i + lambda_i hbar}."""
    forms = invariant_symmetric_forms(q_alg)
    first = next((form for form in forms if form.is_nondegenerate()), None)
    if first is not None:
        assert metric == first
        return "solver form"
    if forms:
        gram = sum((form.gram for form in forms[1:]), forms[0].gram).scale(-2)
        if gram.det() != 0:
            assert metric.gram == gram
            return "-2 sum"
    A, _, beta, mu = _complement_brackets(q, h)
    lambdas = solve(beta, mu)
    comp = Subspace.from_vectors(
        q.dim, [add_vec(a, scale_vec(lam, h.hbar)) for a, lam in zip(A.rows, lambdas)]
    )
    assert metric == metric_on_complement_by_evaluation(q, h, comp)
    return "complement"


def test_quotient_metric_routines_match_per_entry_oracles_on_fixtures_and_corpus():
    """On every Heisenberg ideal of every fixture and corpus algebra with an
    invariant quotient metric, the complement built from the witness metric,
    and from the metric built back from that complement, and that metric
    itself equal the per-entry oracles exactly."""
    cases = 0
    for name, q in QUADRATIC_CASES:
        for h in _heisenberg_ideals(q.algebra):
            found = has_invariant_quotient_metric(q, h)
            if not isinstance(found, ComplementWitness):
                continue
            again = quotient_metric_from_complement(q, h, found.complement)
            assert again == metric_on_complement_by_evaluation(q, h, found.complement), name
            for Ba in (found.quotient_metric, again):
                expected = complement_from_metric_by_evaluation(q, h, Ba)
                assert complement_from_quotient_metric(q, h, Ba) == expected, name
            cases += 1
    # the rotation-core builds admit no metric over their dimension-3 ideal
    assert cases == 11


def test_quotient_metric_decision_evaluates_no_form_entry():
    """The decision computes with whole matrix products: ``BilinearForm``
    has no per-entry evaluation to call, and on the sl2 build the decision
    still finds its witness."""
    assert not hasattr(BilinearForm, "evaluate")
    q = build_sl2_fixture()
    h = _heis_of(q)
    assert isinstance(has_invariant_quotient_metric(q, h), ComplementWitness)


def test_complement_from_a_singular_metric_is_an_internal_failure():
    """The musical maps invert the Gram matrix of B; a singular one there is
    a library fault, so the construction raises InternalVerificationError,
    not the ValueError of ``Matrix.inverse``."""
    q = build_sl2_fixture()
    h = _heis_of(q)
    witness = has_invariant_quotient_metric(q, h)
    _, proj = quotient(q.algebra, h.ideal)
    singular = QuadraticLieAlgebra._unchecked(
        q.algebra, BilinearForm(Matrix.zeros(q.dim, q.dim))
    )
    with pytest.raises(InternalVerificationError, match="metric failed to invert"):
        structure._complement_from_metric(
            singular, h, witness.quotient_metric, proj, _complement_brackets(q, h)
        )


# ---------------------------------------------------------------------------
# nilradical theorem
# ---------------------------------------------------------------------------

def test_nilradical_theorem_sl2_build():
    report = verify_nilradical_theorem(build_sl2_fixture())
    assert report.applicable
    assert report.passed
    assert report.nilradical.dim == 3
    assert report.radical.dim == 4
    assert not report.whole_algebra
    assert isinstance(report.radical_verdict, ExtendedHeisenbergVerdict)
    assert report.radical_verdict.recovered.s_basis.dim == 0


def test_nilradical_theorem_solvable_corollary():
    report = verify_nilradical_theorem(h1_phi())
    assert report.applicable and report.passed
    assert report.whole_algebra  # Rad(g) = g: the corollary case

    report2 = verify_nilradical_theorem(oscillator())
    assert report2.applicable and report2.passed
    assert report2.whole_algebra


def test_nilradical_theorem_abelian_build():
    report = verify_nilradical_theorem(build_abelian_line_fixture())
    # Nil = S ⊕ h_1 here (S central and abelian), so the theorem does not apply
    assert report.nilradical.dim == 4
    assert not report.applicable


def test_nilradical_theorem_not_applicable():
    report = verify_nilradical_theorem(coadjoint_double(LieAlgebra.abelian(2)))
    assert not report.applicable
    assert report.clauses == ()


def test_full_pipeline_at_max_dimensions():
    """Oscillator core, m = 2, random base change: the whole analysis stack
    stays exact at the largest fixture sizes (dim 10)."""
    import fixtures

    rng = random.Random(4242)
    S = fixtures.oscillator()
    V = SymplecticSpace.standard(2)
    sigma = V.omega.inverse() @ Matrix.diagonal([1, 2, 3, 4])
    # an inner derivation of the oscillator is metric-skew
    x = vector_with(4, {0: 1, 1: 2})
    D = ad(S.algebra, x)
    q = build_with_heisenberg_ideal(S, D, V, sigma)
    assert q.dim == 10
    ideal = heisenberg_ideal_span(q, 2)
    P = random_unimodular(rng, 10)
    moved = transport_quadratic(q, P)
    h = find_heisenberg_ideal(moved.algebra, transport_subspace(ideal, P))
    rec = recover_structure(moved, h)
    assert rec.s_basis.dim == 4
    found = has_invariant_quotient_metric(moved, h)
    if isinstance(found, ComplementWitness):
        assert found == complement_from_quotient_metric(moved, h, found.quotient_metric)
        again = quotient_metric_from_complement(moved, h, found.complement)
        q_alg, _ = quotient(moved.algebra, h.ideal)
        assert check_invariant_metric(q_alg, again) == []
    verify_nilradical_theorem(moved)


def vector_with(n, entries):
    from quadlie.exactla import zero_vector

    out = list(zero_vector(n))
    for i, c in entries.items():
        out[i] = c
    return tuple(out)


def test_pipeline_with_fractional_data():
    """Nothing assumes integral structure constants: run the recognizer and
    recovery on data built from proper fractions."""
    from fractions import Fraction

    from quadlie.heisenberg import extend_heisenberg
    from quadlie.quadform import BilinearForm, QuadraticLieAlgebra

    omega = Matrix([[0, Fraction(2, 3)], [Fraction(-2, 3), 0]], 2)
    phi = Matrix([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]], 2)
    q = extend_heisenberg(1, omega, phi)
    verdict = recognize_extended_heisenberg(q)
    assert isinstance(verdict, ExtendedHeisenbergVerdict)

    gram = Matrix(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 2]], 2
    )
    S = QuadraticLieAlgebra(LieAlgebra.abelian(2, ["s1", "s2"]), BilinearForm(gram))
    # a gram-skew endomorphism of the abelian plane
    K = Matrix([[0, Fraction(1, 5)], [Fraction(-1, 5), 0]], 2)
    D = gram.inverse() @ K
    assert (D.transpose() @ gram + gram @ D).is_zero()
    V = SymplecticSpace(omega)
    sigma = omega.inverse() @ Matrix([[1, Fraction(1, 7)], [Fraction(1, 7), -1]], 2)
    assert sigma.det() != 0
    q2 = build_with_heisenberg_ideal(S, D, V, sigma)
    h = find_heisenberg_ideal(q2.algebra, heisenberg_ideal_span(q2, 1))
    rec = recover_structure(q2, h)
    assert rec.s_basis.dim == 2
    report = verify_nilradical_theorem(q2)
    assert report.applicable and report.passed
