"""Invariant metrics on Lie algebras.

A quadratic Lie algebra couples a Lie algebra with a nondegenerate,
symmetric, ad-invariant bilinear form.  This module provides the checker,
the musical isomorphisms, orthogonal complements, the solver for the space
of invariant symmetric forms, and orthogonal splitting along nondegenerate
ideals.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations
from operator import attrgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .exactla import (
    Matrix,
    SparseSystem,
    Subspace,
    Vector,
    _Value,
    _reduced_matrix,
    form_orthogonal,
    form_restrict_nondegenerate,
    kernel,
    restricted_gram,
    solve,
    vector,
)
from .liealg import (
    LieAlgebra,
    _integer_table,
    check_jacobi,
    is_ideal,
    subalgebra_on,
    transport,
)


class BilinearForm(_Value):
    """A symmetric bilinear form given by its Gram matrix."""

    __slots__ = ("gram",)
    _key = attrgetter("gram")

    def __init__(self, gram: Matrix):
        if gram.nrows != gram.ncols:
            raise ValueError("gram matrix must be square")
        if not gram.is_symmetric():
            raise ValueError("gram matrix must be symmetric")
        self._fill(gram)

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def is_nondegenerate(self) -> bool:
        return self.gram.det() != 0

    def __repr__(self) -> str:
        return f"BilinearForm(dim={self.dim})"


class MetricViolation(NamedTuple):
    kind: str          # "symmetric" | "nondegenerate" | "invariance"
    indices: tuple
    detail: str


def check_invariant_metric(
    g: LieAlgebra, B: Union[BilinearForm, Matrix]
) -> List[MetricViolation]:
    """Violations of symmetry, nondegeneracy, or invariance of B on g.

    Invariance means B([x,y],z) = B(x,[y,z]) on all basis triples.  The
    returned list is empty iff B is an invariant metric for g.  For each
    pair (i, j) the difference B([e_i,e_j], e_k) - B(e_i, [e_j,e_k]) is
    accumulated over all k at once from the signed integer bracket table
    d c (``_integer_table``) and the nonzero entries of the integer rows e G
    of the Gram matrix, e its denominator, B(x, y) = x^T G y.  The integer
    sums are d e
    times the differences, so they vanish exactly where the differences
    do; the triples where they are nonzero are reported in lexicographic
    order.  All n^3 triples are checked: the equations of
    ``_invariance_system`` read B(x, [y, z]) as B([y, z], x), which holds
    only for a symmetric Gram matrix.
    """
    gram = B.gram if isinstance(B, BilinearForm) else B
    n = g.dim
    if gram.nrows != gram.ncols or gram.nrows != n:
        raise ValueError("gram matrix size does not match algebra dimension")
    violations = []
    ints = gram._ints
    for i in range(n):
        for j in range(i + 1, n):
            if ints[i][j] != ints[j][i]:
                violations.append(
                    MetricViolation("symmetric", (i, j), "gram[i][j] != gram[j][i]")
                )
    if gram.det() == 0:
        violations.append(MetricViolation("nondegenerate", (), "det(gram) = 0"))
    _, table = _integer_table(g)
    rows = [{k: x for k, x in enumerate(row) if x} for row in ints]
    # into[j]: the (k, p, c) with c the e_p-coefficient of [e_j, e_k]
    into = [[(k, p, c) for k in range(n) for p, c in table[j][k]] for j in range(n)]
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            diff: dict = {}
            for p, c in table[i][j]:
                for k, x in rows[p].items():
                    diff[k] = diff.get(k, 0) + c * x
            for k, p, c in into[j]:
                x = row_i.get(p)
                if x:
                    diff[k] = diff.get(k, 0) - x * c
            for k in sorted(k for k, d in diff.items() if d):
                violations.append(
                    MetricViolation(
                        "invariance",
                        (i, j, k),
                        "B([e_i,e_j],e_k) != B(e_i,[e_j,e_k])",
                    )
                )
    return violations


class QuadraticLieAlgebra(_Value):
    """A Lie algebra together with an invariant metric.

    Construction validates the Jacobi identity, nondegeneracy and invariance
    exactly and raises ``ValueError`` on the first batch of violations, so
    every instance is a Lie algebra with an invariant metric and functions
    that take one need not check either again.
    """

    __slots__ = ("algebra", "metric")
    _key = attrgetter("algebra", "metric")

    def __init__(self, algebra: LieAlgebra, metric: BilinearForm):
        if metric.dim != algebra.dim:
            raise ValueError("metric dimension does not match algebra")
        if check_jacobi(algebra):
            raise ValueError("algebra fails the Jacobi identity")
        violations = check_invariant_metric(algebra, metric)
        if violations:
            head = ", ".join(f"{v.kind}{v.indices}" for v in violations[:5])
            raise ValueError(f"not an invariant metric: {head}")
        self._fill(algebra, metric)

    @classmethod
    def _unchecked(cls, algebra: LieAlgebra, metric: BilinearForm) -> "QuadraticLieAlgebra":
        """An instance whose validity follows from that of another one."""
        return object.__new__(cls)._fill(algebra, metric)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def __repr__(self) -> str:
        return f"QuadraticLieAlgebra(dim={self.dim})"


def flat(B: BilinearForm, x: Sequence) -> Vector:
    """The covector B(x, ·) in dual coordinates."""
    return B.gram.apply(vector(x))


def sharp(B: BilinearForm, alpha: Sequence) -> Vector:
    """Inverse of flat; requires B nondegenerate."""
    result = solve(B.gram, vector(alpha))
    if result is None or not B.is_nondegenerate():
        raise ValueError("form is degenerate; sharp is undefined")
    return result


def orthogonal_in(q: QuadraticLieAlgebra, U: Subspace) -> Subspace:
    """Orthogonal complement of U inside q with respect to its metric."""
    return form_orthogonal(q.metric.gram, U)


def _symmetric_index(n: int) -> list:
    """index[p][q] = index[q][p]: the place of B_pq, p <= q, in the row-major
    upper triangle, the unknowns of ``_invariance_system``."""
    index = [[0] * n for _ in range(n)]
    for t, (p, q) in enumerate(combinations_with_replacement(range(n), 2)):
        index[p][q] = index[q][p] = t
    return index


def _invariance_system(g: LieAlgebra) -> SparseSystem:
    """"T(x, y, z) = B([x, y], z) is alternating" in the Gram entries of B.

    The unknowns are the upper triangle of the Gram matrix of B, B_pq with
    p <= q at index t in row-major order.  For a symmetric B, invariance
    B([x,y],z) = B(x,[y,z]) = B([y,z],x) says T(x,y,z) = T(y,z,x): T is
    invariant under the cycle (x y z).  T is antisymmetric in x, y, and
    the transposition (x y) and the cycle generate S_3, the cycle being
    even; so the two together say exactly that T is alternating, and the
    kernel is the space of invariant symmetric forms.  On the basis,
    given the antisymmetry in the first two places, T is alternating iff

      T(i, k, i) = 0 for i != k, and
      T(i, j, k) = T(j, k, i) = T(k, i, j) for i < j < k,

    because T(i, i, k) = 0 and T(k, i, i) = -T(i, k, i), and each odd order
    of i, j, k is minus an even one.  These are n(n-1) + 2 C(n,3)
    equations: the first kind in lexicographic (i, k) order, then
    T(i,j,k) - T(j,k,i) and T(i,j,k) - T(k,i,j) for each triple in
    lexicographic order, all-zero ones dropped.  (The k >= i half
    of the full n^3 system says the same with up to n^2 (n+1)/2 equations:
    it states each one with a repeated index twice, and all three cyclic
    differences of each triple i < j < k, of which two are independent.)
    The coefficients are the integers d c of ``_integer_table``: the system
    is homogeneous, so the factor d leaves its kernel unchanged.
    """
    n = g.dim
    index = _symmetric_index(n)
    _, table = _integer_table(g)
    system = SparseSystem(n * (n + 1) // 2)

    def T(i: int, j: int, k: int, sign: int = 1) -> list:
        # T(e_i, e_j, e_k) = sum_p c_ij^p B_pk
        return [(index[p][k], sign * c) for p, c in table[i][j]]

    for i, k in permutations(range(n), 2):
        system.add(T(i, k, i))
    for i, j, k in combinations(range(n), 3):
        system.add(T(i, j, k) + T(j, k, i, -1))
        system.add(T(i, j, k) + T(k, i, j, -1))
    return system


def invariant_symmetric_forms(g: LieAlgebra) -> List[BilinearForm]:
    """Basis of the space of invariant symmetric bilinear forms on g.

    The Gram matrix is parameterized by its upper triangle (n(n+1)/2
    unknowns); invariance is the sparse linear system "B([x, y], z) is
    alternating" (``_invariance_system``), solved by one kernel
    computation.  The basis is the rref kernel basis, so the output is
    deterministic.
    """
    n = g.dim
    index = _symmetric_index(n)
    basis = kernel(_invariance_system(g)).basis
    return [
        BilinearForm(
            Matrix._from_ints(tuple(tuple(coords[t] for t in row) for row in index), n, basis._den)
        )
        for coords in basis._ints
    ]


def restrict_quadratic(q: QuadraticLieAlgebra, U: Subspace) -> QuadraticLieAlgebra:
    """Quadratic algebra on a subalgebra U with the restricted metric.

    Raises ``ValueError`` when U is not a subalgebra or the restricted
    metric is degenerate.  These are the only conditions restriction can
    break: the Jacobi identity, symmetry and invariance hold on U because
    they hold on q, so the result is not re-checked.
    """
    algebra = subalgebra_on(q.algebra, U)
    gram = restricted_gram(q.metric.gram, U)
    if gram.det() == 0:
        raise ValueError("the metric degenerates on the subalgebra")
    return QuadraticLieAlgebra._unchecked(algebra, BilinearForm(gram))


def split_by_nondegenerate_ideal(
    q: QuadraticLieAlgebra, I: Subspace
) -> Optional[Tuple[QuadraticLieAlgebra, QuadraticLieAlgebra]]:
    """Orthogonal splitting q = I ⊥ I^perp along a nondegenerate ideal.

    Returns None when I is not an ideal or the metric degenerates on it;
    callers probe candidates, so this is not an error.
    """
    if I.ambient_dim != q.dim:
        raise ValueError("ambient dimension mismatch")
    if not is_ideal(q.algebra, I):
        return None
    if not form_restrict_nondegenerate(q.metric.gram, I):
        return None
    perp = orthogonal_in(q, I)
    return restrict_quadratic(q, I), restrict_quadratic(q, perp)


def transport_quadratic(
    q: QuadraticLieAlgebra, P: Matrix, basis_labels: Optional[Sequence[str]] = None
) -> QuadraticLieAlgebra:
    """Express q in the new basis given by the rows of P (metric included).

    The image of a valid algebra under an invertible base change is valid
    (``transport`` rejects a singular P), so the result is not re-checked.
    """
    algebra = transport(q.algebra, P, basis_labels)
    gram = P @ q.metric.gram @ P.transpose()
    return QuadraticLieAlgebra._unchecked(algebra, BilinearForm(gram))


def _cocycle_system(g: LieAlgebra) -> SparseSystem:
    """"A is a skew 2-cocycle" in the n(n-1)/2 entries a_pq (p < q) of A.

    A is the skew matrix with A_pq = a_pq = -A_qp, a_pq at index t in
    row-major order.  One equation per triple i < j < k in lexicographic
    order, all-zero ones dropped:
    A([e_i,e_j],e_k) + A([e_j,e_k],e_i) + A([e_k,e_i],e_j) = 0.  The cyclic
    sum is alternating in (i, j, k), so the other triples add nothing.
    The coefficients are the integers d c of ``_integer_table``, which
    leave the kernel of the homogeneous system unchanged.
    """
    n = g.dim
    index = [[0] * n for _ in range(n)]
    for t, (p, q) in enumerate(combinations(range(n), 2)):
        index[p][q] = t
    _, table = _integer_table(g)
    system = SparseSystem(n * (n - 1) // 2)

    def terms(a: int, b: int, k: int) -> list:
        # A([e_a, e_b], e_k) = sum_p c_ab^p A_pk
        return [
            (index[p][k], c) if p < k else (index[k][p], -c)
            for p, c in table[a][b]
            if p != k
        ]

    for i, j, k in combinations(range(n), 3):
        system.add(terms(i, j, k) + terms(j, k, i) + terms(k, i, j))
    return system


def skew_derivation_space(q: QuadraticLieAlgebra) -> List[Matrix]:
    """Basis of derivations of q that are skew with respect to its metric.

    D is metric-skew exactly when A = G D, A(x, y) = B(x, D y), is a skew
    matrix, and then D is a derivation exactly when A is a 2-cocycle,
    A([x,y],z) + A([y,z],x) + A([z,x],y) = 0 (Medina-Revoy, Ann. Sci. ENS
    18, 1985: skew derivations of a quadratic algebra are its invariant
    2-cocycles).  So the solve runs on the n(n-1)/2 entries of A with one
    equation per triple i < j < k, n(n-1)(n-2)/6 in all
    (``_cocycle_system``), instead of on the n^2 entries of D with about
    n^3/2 derivation and n(n+1)/2 skewness equations.  D = G^{-1} A is
    formed only for the kernel basis, on integers: s G^{-1}, s the lcm of
    its denominators, times each integer cocycle row.  A -> G^{-1} A
    is injective, so these D span the space, and they are reduced once:
    the result is the rref basis of that space in the row-major entries
    of D, so the output is deterministic.
    """
    n = q.dim
    cocycles = kernel(_cocycle_system(q.algebra))
    # s G^{-1} as integer rows; it is symmetric, so row p is column p
    ginv = [[(r, x) for r, x in enumerate(row) if x] for row in q.metric.gram.inverse()._ints]
    pairs = list(combinations(range(n), 2))
    flats = []
    for coords in cocycles.basis._ints:
        # a multiple of D = G^{-1} A in row-major order, A_pt = a = -A_tp
        D = [0] * (n * n)
        for (p, t), a in zip(pairs, coords):
            if a:
                for r, x in ginv[p]:
                    D[r * n + t] += x * a
                for r, x in ginv[t]:
                    D[r * n + p] -= x * a
        flats.append({j: x for j, x in enumerate(D) if x})
    basis, _ = _reduced_matrix(flats, len(flats), n * n)
    return [
        Matrix._from_ints(tuple(coords[r * n : (r + 1) * n] for r in range(n)), n, basis._den)
        for coords in basis._ints
    ]
