"""The direct Killing form and nilradical against the earlier algorithms.

The oracles in ``oracles.py`` compute the same values the slow way.  Subspaces
are compared by literal rref equality, so any difference in the result fails.
"""

import inspect
import pathlib
import random

import pytest

import fixtures
from oracles import killing_form_by_products, nilradical_four_step

from quadlie.documents import loads_document
from quadlie.heisenberg import build_with_heisenberg_ideal
from quadlie.liealg import LieAlgebra, killing_form
from quadlie.quadform import QuadraticLieAlgebra, transport_quadratic
from quadlie.randomized import random_build_input, random_unimodular
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
