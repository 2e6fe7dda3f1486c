"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Every tolerance is zero: comparisons are exact equalities of
rationals, structure-constant tables, and rref subspace bases.
"""

import pathlib
import random
import time

from fixtures import (
    DIAG_1_M1,
    abelian_line_quadratic,
    abelian_plane_quadratic,
    assert_center_derived_identities,
    build_rotation_core_fixture,
    build_sl2_fixture,
    five_dim_trace_zero,
    h1_phi,
    oscillator,
    sl2_plus_h1,
    sl2_quadratic,
)

from oracles import evaluate_form, heisenberg_ideal_span, transport_subspace

from quadlie.cli import main as cli_main
from quadlie.exactla import Matrix, Subspace, unit_vector
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
    check_jacobi,
    derived_subalgebra,
    is_ideal,
    is_nilpotent,
    is_subalgebra,
    quotient,
    subalgebra_on,
)
from quadlie.quadform import (
    check_invariant_metric,
    invariant_symmetric_forms,
    split_by_nondegenerate_ideal,
    transport_quadratic,
)
from quadlie.randomized import random_build_input, random_unimodular
from quadlie.structure import (
    DecomposableVerdict,
    ExtendedHeisenbergVerdict,
    ComplementWitness,
    NotApplicableVerdict,
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
SEED = 20240

_instances_cache = None


def seeded_instances():
    """The fixed 50 random builder instances shared by criteria 1-3."""
    global _instances_cache
    if _instances_cache is None:
        rng = random.Random(SEED)
        out = []
        for _ in range(50):
            S, D, V, sigma = random_build_input(rng, max_core_dim=4, max_m=2)
            out.append((S, D, V, sigma))
        _instances_cache = out
    return _instances_cache


def test_criterion_1_constructor_soundness():
    """50 seeded builds pass both checkers with zero violations, < 10 s."""
    start = time.time()
    for S, D, V, sigma in seeded_instances():
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        assert check_jacobi(q.algebra) == []
        assert check_invariant_metric(q.algebra, q.metric) == []
    elapsed = time.time() - start
    assert elapsed < 10.0, f"constructor soundness took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 constructor soundness (50 instances, {elapsed:.1f}s): PASS")


def test_criterion_2_roundtrip_after_base_change():
    """Recovery certificates rebuild the transported algebras exactly."""
    rng = random.Random(SEED + 1)
    for trial, (S, D, V, sigma) in enumerate(seeded_instances()):
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        ideal = heisenberg_ideal_span(q, V.dim // 2)
        P = random_unimodular(rng, q.dim)
        moved = transport_quadratic(q, P)
        candidate = transport_subspace(ideal, P)
        h = find_heisenberg_ideal(moved.algebra, candidate)
        assert h is not None, f"instance {trial}"
        rec = recover_structure(moved, h)
        assert transport_quadratic(moved, rec.base_change) == rec.rebuilt, (
            f"instance {trial}"
        )
    print("\nACCEPTANCE 2 converse round-trip (50 instances, exact): PASS")


def test_criterion_3_center_derived_identities():
    """center = (Ker D ∩ Z(S)) ⊕ F hbar, derived = (Im D + [S,S]) ⊕ h_m."""
    for S, D, V, sigma in seeded_instances():
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        assert_center_derived_identities(q, S, D, V.dim // 2)
    print("\nACCEPTANCE 3 center/derived identities (50 instances, exact): PASS")


def test_criterion_4_recognizer_agreement():
    """Recognizer verdicts match construction-time ground truth, 100%."""
    omega2 = standard_symplectic_matrix(2)
    phis_m1 = [
        DIAG_1_M1,
        Matrix([[0, 1], [1, 0]], 2),
        Matrix([[1, 2], [3, -1]], 2),
    ]
    phis_m2 = [
        omega2.inverse() @ Matrix.identity(4),
        omega2.inverse() @ Matrix.diagonal([1, 2, 3, 4]),
        omega2.inverse()
        @ Matrix([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], 4),
    ]
    cases = []
    for phi in phis_m1:
        cases.append((extend_heisenberg(1, None, phi), "extended"))
    for phi in phis_m2:
        assert phi.det() != 0
        cases.append((extend_heisenberg(2, None, phi), "extended"))
    # S != 0, D = 0, [S, S] = 0: decomposable with a verified split
    cases.append(
        (
            build_with_heisenberg_ideal(
                abelian_line_quadratic(),
                Matrix.zeros(1, 1),
                SymplecticSpace.standard(1),
                DIAG_1_M1,
            ),
            "decomposable",
        )
    )
    cases.append(
        (
            build_with_heisenberg_ideal(
                abelian_plane_quadratic(),
                Matrix.zeros(2, 2),
                SymplecticSpace.standard(1),
                DIAG_1_M1,
            ),
            "decomposable",
        )
    )
    # derived subalgebra not Heisenberg
    cases.append((coadjoint_double(LieAlgebra.abelian(1)), "not_applicable"))
    cases.append((sl2_quadratic(), "not_applicable"))
    cases.append((coadjoint_double(heisenberg(1)), "not_applicable"))

    for q, expected in cases:
        verdict = recognize_extended_heisenberg(q)
        if expected == "extended":
            assert isinstance(verdict, ExtendedHeisenbergVerdict)
            rec = verdict.recovered
            assert transport_quadratic(q, rec.base_change) == rec.rebuilt
        elif expected == "decomposable":
            assert isinstance(verdict, DecomposableVerdict)
            first, second = verdict.factors
            assert first.dim + second.dim == q.dim
            assert split_by_nondegenerate_ideal(q, verdict.ideal) is not None
        else:
            assert isinstance(verdict, NotApplicableVerdict)
    print(f"\nACCEPTANCE 4 recognizer agreement ({len(cases)} fixtures): PASS")


def test_criterion_5_degeneracy_on_hbar():
    """Every invariant symmetric form on h_m kills hbar, exactly."""
    for m in (1, 2):
        g = heisenberg(m)
        n = g.dim
        forms = invariant_symmetric_forms(g)
        assert forms
        for form in forms:
            for x in range(n):
                assert evaluate_form(form, unit_vector(n, n - 1), unit_vector(n, x)) == 0
    print("\nACCEPTANCE 5 invariant forms degenerate on hbar (m=1,2): PASS")


def _nilradical_oracle(g, nil):
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
        assert not (
            is_ideal(g, bigger) and is_nilpotent(subalgebra_on(g, bigger))
        )


def test_criterion_6_nilradical_suite():
    """Fixed 6-algebra suite matches the independent oracle exactly."""
    suite = [
        (LieAlgebra.abelian(3), Subspace.full(3)),
        (heisenberg(1), Subspace.full(3)),
        (
            oscillator().algebra,
            Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)]),
        ),
        (
            h1_phi().algebra,
            Subspace.from_vectors(4, [unit_vector(4, i) for i in (1, 2, 3)]),
        ),
        (
            five_dim_trace_zero(),
            Subspace.from_vectors(5, [unit_vector(5, i) for i in (1, 2, 3, 4)]),
        ),
        (
            sl2_plus_h1(),
            Subspace.from_vectors(6, [unit_vector(6, i) for i in (3, 4, 5)]),
        ),
    ]
    for g, expected in suite:
        nil = nilradical(g)
        assert nil == expected
        _nilradical_oracle(g, nil)
    print("\nACCEPTANCE 6 nilradical on the 6-algebra suite (exact): PASS")


def test_criterion_7_quotient_metric_both_directions():
    """Complement -> metric and metric -> complement, checker-clean."""
    fixtures_with_complements = [
        (h1_phi(), Subspace.from_vectors(4, [unit_vector(4, 0)])),
        (oscillator(), Subspace.from_vectors(4, [unit_vector(4, 0)])),
        (
            build_sl2_fixture(),
            Subspace.from_vectors(7, [unit_vector(7, i) for i in range(4)]),
        ),
        (
            build_with_heisenberg_ideal(
                abelian_line_quadratic(),
                Matrix.zeros(1, 1),
                SymplecticSpace.standard(1),
                DIAG_1_M1,
            ),
            Subspace.from_vectors(5, [unit_vector(5, 0), unit_vector(5, 1)]),
        ),
    ]
    for q, comp in fixtures_with_complements:
        g = q.algebra
        nil = nilradical(g)
        h = find_heisenberg_ideal(g, nil)
        if h is None:
            h = find_heisenberg_ideal(g, derived_subalgebra(g))
        assert h is not None
        q_alg, _ = quotient(g, h.ideal)

        # forward: subalgebra complement -> invariant quotient metric
        assert is_subalgebra(g, comp)
        form = quotient_metric_from_complement(q, h, comp)
        assert check_invariant_metric(q_alg, form) == []

        # reverse: validated quotient metric -> subalgebra complement;
        # the T-symmetry and T∘F = F∘T = ad(e) identities are asserted
        # inside the call and abort loudly if violated
        witness = complement_from_quotient_metric(q, h, form)
        assert is_subalgebra(g, witness.complement)
        assert witness.complement.dim + h.ideal.dim == g.dim

        # the decision's metric and complement also round-trip
        found = has_invariant_quotient_metric(q, h)
        assert isinstance(found, ComplementWitness)
        assert check_invariant_metric(q_alg, found.quotient_metric) == []
        assert found == complement_from_quotient_metric(q, h, found.quotient_metric)
        assert is_subalgebra(g, found.complement)
        again = quotient_metric_from_complement(q, h, found.complement)
        assert check_invariant_metric(q_alg, again) == []
    print("\nACCEPTANCE 7 quotient-metric theorem both directions: PASS")


def test_criterion_8_nilradical_theorem_reports():
    """Radical clauses pass on the Nil(g) = h_m fixtures; the solvable
    fixtures certify the whole algebra (corollary case)."""
    report = verify_nilradical_theorem(build_sl2_fixture())
    assert report.applicable and report.passed
    assert report.radical.dim == report.nilradical.dim + 1
    assert not report.whole_algebra

    report = verify_nilradical_theorem(h1_phi())
    assert report.applicable and report.passed
    assert report.whole_algebra

    report = verify_nilradical_theorem(build_rotation_core_fixture())
    assert report.applicable and report.passed
    assert report.whole_algebra
    assert report.heisenberg.m == 2  # the nilradical absorbs the abelian core

    report = verify_nilradical_theorem(coadjoint_double(LieAlgebra.abelian(2)))
    assert not report.applicable
    print("\nACCEPTANCE 8 nilradical-theorem clauses on fixtures: PASS")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """construct/analyze are byte-identical across runs; parse/print is
    byte-exact on the whole corpus."""
    from quadlie.documents import dumps_document, loads_document

    for path in sorted(CORPUS.glob("*.construction.json")):
        outputs = []
        for _ in range(2):
            code = cli_main(["construct", str(path)])
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        expected = CORPUS / path.name.replace(".construction.", ".algebra.")
        assert outputs[0] == expected.read_text(encoding="utf-8")

    analyzable = [
        "h1_phi.algebra.json",
        "h2_phi.algebra.json",
        "oscillator.algebra.json",
        "build_sl2.algebra.json",
        "build_abelian_line.algebra.json",
        "build_rotation_core.algebra.json",
        "coadjoint_h1.algebra.json",
    ]
    for name in analyzable:
        outputs = []
        for _ in range(2):
            code = cli_main(["analyze", str(CORPUS / name)])
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out)
        assert outputs[0] == outputs[1], name

    for path in sorted(CORPUS.glob("*.algebra.json")):
        text = path.read_text(encoding="utf-8")
        doc = loads_document(text)
        assert dumps_document(doc) == text, path.name
    print("\nACCEPTANCE 9 CLI determinism and byte-exact round-trip: PASS")
