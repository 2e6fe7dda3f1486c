"""The direct Killing form, nilradical and constructors against the earlier
algorithms.

The oracles in ``oracles.py`` compute the same values the slow way.  Subspaces
are compared by literal rref equality, so any difference in the result fails;
constructor outputs are compared as values, by labels and by document bytes.
"""

import inspect
import pathlib
import random

import pytest

import fixtures
from oracles import (
    double_extension_direct,
    extend_heisenberg_direct,
    killing_form_by_products,
    nilradical_four_step,
)

from quadlie.documents import AlgebraDocument, dumps_document, loads_document
from quadlie.heisenberg import (
    SymplecticSpace,
    build_with_heisenberg_ideal,
    double_extension,
    extend_heisenberg,
    standard_symplectic_matrix,
)
from quadlie.liealg import LieAlgebra, LinearMap, killing_form
from quadlie.quadform import QuadraticLieAlgebra, transport_quadratic
from quadlie.randomized import (
    random_build_input,
    random_core_algebra,
    random_invertible_omega_skew,
    random_skew_derivation,
    random_unimodular,
)
from quadlie.structure import nilradical

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "src" / "quadlie" / "corpus"
RANDOM_SEEDS = range(30)


def _fixture_algebras():
    """Every algebra that a no-argument constructor in fixtures.py returns."""
    found = []
    for name, function in inspect.getmembers(fixtures, inspect.isfunction):
        if function.__module__ != fixtures.__name__:
            continue
        params = inspect.signature(function).parameters.values()
        if any(p.default is inspect.Parameter.empty for p in params):
            continue
        value = function()
        if isinstance(value, QuadraticLieAlgebra):
            value = value.algebra
        if isinstance(value, LieAlgebra):
            found.append(pytest.param(value, id=name))
    return found


def _corpus_algebras():
    return [
        pytest.param(loads_document(path.read_text(encoding="utf-8")).algebra, id=path.name)
        for path in sorted(CORPUS.glob("*.algebra.json"))
    ]


def _random_build(seed):
    """A random builder output (dim 4 to 10) moved by a random unimodular base change."""
    rng = random.Random(seed)
    q = build_with_heisenberg_ideal(*random_build_input(rng))
    return transport_quadratic(q, random_unimodular(rng, q.dim)).algebra


def _assert_matches_oracles(g):
    assert killing_form(g) == killing_form_by_products(g)
    assert nilradical(g) == nilradical_four_step(g)


def test_fixture_and_corpus_lists_are_found():
    assert len(_fixture_algebras()) >= 13
    assert len(_corpus_algebras()) >= 10


@pytest.mark.parametrize("g", _fixture_algebras() + _corpus_algebras())
def test_fixture_and_corpus_algebras_match_oracles(g):
    _assert_matches_oracles(g)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_builds_match_oracles(seed):
    g = _random_build(seed)
    assert 4 <= g.dim <= 10
    _assert_matches_oracles(g)


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
    with a random metric-skew derivation given as a matrix or a linear map."""
    rng = random.Random(seed)
    S = random_core_algebra(rng)
    if S.dim > 0 and rng.random() < 0.5:
        S = transport_quadratic(S, random_unimodular(rng, S.dim))
    D = random_skew_derivation(rng, S)
    if rng.random() < 0.5:
        D = LinearMap(S.dim, S.dim, D)
    _assert_same_construction(double_extension(S, D), double_extension_direct(S, D))
