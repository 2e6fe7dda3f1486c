"""Seeded random generators for fixtures and fuzz checks.

All generators take an explicit ``random.Random`` instance so that callers
control determinism.  Elements of o(omega) are produced as
omega^{-1} (symmetric matrix), which parameterizes o(omega) exactly.
"""

from __future__ import annotations

import random
from typing import Tuple

from .exactla import Matrix
from .heisenberg import SymplecticMap, SymplecticSpace, double_extension
from .liealg import LieAlgebra, direct_sum
from .quadform import BilinearForm, QuadraticLieAlgebra, skew_derivation_space

# the random matrices draw their entries from -3..3
_BOUND = 3


def random_symmetric_matrix(rng: random.Random, n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-_BOUND, _BOUND)
    return Matrix._from_ints(tuple([tuple(row) for row in rows]), n)


def random_nondegenerate_symmetric(rng: random.Random, n: int) -> Matrix:
    while True:
        M = random_symmetric_matrix(rng, n)
        if M.det() != 0:
            return M


def random_omega_skew(rng: random.Random, V: SymplecticSpace) -> SymplecticMap:
    """A random element of o(omega): omega^{-1} times a symmetric matrix."""
    A = random_symmetric_matrix(rng, V.dim)
    return SymplecticMap(V, V.omega.inverse() @ A)


def random_invertible_omega_skew(rng: random.Random, V: SymplecticSpace) -> SymplecticMap:
    while True:
        f = random_omega_skew(rng, V)
        if f.is_invertible():
            return f


def random_unimodular(rng: random.Random, n: int) -> Matrix:
    """Product of 3n elementary operations: invertible with determinant ±1."""
    rows = list(Matrix.identity(n)._ints)
    for _ in range(3 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.randint(-2, 2)
            rows[i] = tuple([a + c * b for a, b in zip(rows[i], rows[j])])
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 2:
            rows[i] = tuple([-a for a in rows[i]])
    return Matrix._from_ints(tuple(rows), n)


def _sl2() -> QuadraticLieAlgebra:
    algebra = LieAlgebra(
        3,
        {(0, 1): [(1, 2)], (0, 2): [(2, -2)], (1, 2): [(0, 1)]},
        ["h", "e", "f"],
    )
    gram = Matrix(
        [[8, 0, 0], [0, 0, 4], [0, 4, 0]],
        3,
    )
    return QuadraticLieAlgebra(algebra, BilinearForm(gram))


def _oscillator() -> QuadraticLieAlgebra:
    core = QuadraticLieAlgebra(
        LieAlgebra.abelian(2, ["a1", "a2"]), BilinearForm(Matrix.identity(2))
    )
    rotation = Matrix([[0, 1], [-1, 0]], 2)
    return double_extension(core, rotation)


def random_core_algebra(rng: random.Random, max_dim: int = 4) -> QuadraticLieAlgebra:
    """A random small quadratic Lie algebra to serve as the core S.

    Draws from: the zero algebra, abelian with a random nondegenerate
    symmetric gram, sl2 with its Killing form, the oscillator algebra, or
    abelian(1) ⊕ sl2.
    """
    choices = ["zero", "abelian", "abelian", "sl2", "oscillator", "sl2_plus_line"]
    choices = [c for c in choices if _core_dim_bound(c) <= max_dim]
    kind = rng.choice(choices)
    if kind == "zero":
        return QuadraticLieAlgebra(LieAlgebra.abelian(0), BilinearForm(Matrix([], 0)))
    if kind == "abelian":
        k = rng.randint(1, max_dim)
        gram = random_nondegenerate_symmetric(rng, k)
        return QuadraticLieAlgebra(LieAlgebra.abelian(k), BilinearForm(gram))
    if kind == "sl2":
        return _sl2()
    if kind == "oscillator":
        return _oscillator()
    sl2 = _sl2()
    algebra = direct_sum(LieAlgebra.abelian(1), sl2.algebra)
    # the line's metric is 1; sl2's Gram matrix is integral
    gram = ((1, 0, 0, 0), *[(0, *row) for row in sl2.metric.gram._ints])
    return QuadraticLieAlgebra(algebra, BilinearForm(Matrix._from_ints(gram, 4)))


def _core_dim_bound(kind: str) -> int:
    return {
        "zero": 0,
        "abelian": 1,
        "sl2": 3,
        "oscillator": 4,
        "sl2_plus_line": 4,
    }[kind]


def random_skew_derivation(rng: random.Random, S: QuadraticLieAlgebra) -> Matrix:
    """A random metric-skew derivation of S (zero when none exist)."""
    basis = skew_derivation_space(S)
    if not basis:
        return Matrix.zeros(S.dim, S.dim)
    result = Matrix.zeros(S.dim, S.dim)
    for M in basis:
        c = rng.randint(-2, 2)
        if c != 0:
            result = result + M.scale(c)
    return result


def random_build_input(
    rng: random.Random, max_core_dim: int = 4, max_m: int = 2
) -> Tuple[QuadraticLieAlgebra, Matrix, SymplecticSpace, SymplecticMap]:
    """Random (S, D, V, sigmaD) satisfying the builder preconditions."""
    S = random_core_algebra(rng, max_core_dim)
    D = random_skew_derivation(rng, S)
    m = rng.randint(1, max_m)
    V = SymplecticSpace.standard(m)
    sigma = random_invertible_omega_skew(rng, V)
    return S, D, V, sigma
