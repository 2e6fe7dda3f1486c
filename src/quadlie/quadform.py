"""Invariant metrics on Lie algebras.

A quadratic Lie algebra couples a Lie algebra with a nondegenerate,
symmetric, ad-invariant bilinear form.  This module provides the checker,
the musical isomorphisms, orthogonal complements, the solver for the space
of invariant symmetric forms, and orthogonal splitting along nondegenerate
ideals.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .exactla import (
    Matrix,
    SparseSystem,
    Subspace,
    Vector,
    dot,
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


class BilinearForm:
    """A symmetric bilinear form given by its Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: Matrix):
        if gram.nrows != gram.ncols:
            raise ValueError("gram matrix must be square")
        if not gram.is_symmetric():
            raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("BilinearForm is immutable")

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def evaluate(self, x: Sequence, y: Sequence) -> Fraction:
        """B(x, y) = sum of x_i (G_i . y) over the nonzero x_i."""
        x, y = vector(x), vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length mismatch")
        return sum((a * dot(self.gram.rows[i], y) for i, a in enumerate(x) if a), Fraction(0))

    def is_nondegenerate(self) -> bool:
        return self.gram.det() != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, BilinearForm) and self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

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
    d c (``_integer_table``) and the nonzero Gram entries times the lcm e
    of their denominators, B(x, y) = x^T G y.  The integer sums are d e
    times the differences, so they vanish exactly where the differences
    do; the triples where they are nonzero are reported in lexicographic
    order.  All n^3 triples are checked, since a Gram matrix that fails
    symmetry breaks the (i, j, k) / (k, j, i) pairing that
    ``_invariance_system`` relies on.
    """
    gram = B.gram if isinstance(B, BilinearForm) else B
    n = g.dim
    if gram.nrows != gram.ncols or gram.nrows != n:
        raise ValueError("gram matrix size does not match algebra dimension")
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            if gram.entry(i, j) != gram.entry(j, i):
                violations.append(
                    MetricViolation("symmetric", (i, j), "gram[i][j] != gram[j][i]")
                )
    if gram.det() == 0:
        violations.append(MetricViolation("nondegenerate", (), "det(gram) = 0"))
    _, table = _integer_table(g)
    e = lcm(*(x.denominator for row in gram.rows for x in row))
    rows = [
        {k: x.numerator * (e // x.denominator) for k, x in enumerate(row) if x}
        for row in gram.rows
    ]
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


class QuadraticLieAlgebra:
    """A Lie algebra together with an invariant metric.

    Construction validates the Jacobi identity, nondegeneracy and invariance
    exactly and raises ``ValueError`` on the first batch of violations, so
    every instance is a Lie algebra with an invariant metric and functions
    that take one need not check either again.
    """

    __slots__ = ("algebra", "metric")

    def __init__(self, algebra: LieAlgebra, metric: BilinearForm):
        if metric.dim != algebra.dim:
            raise ValueError("metric dimension does not match algebra")
        if check_jacobi(algebra):
            raise ValueError("algebra fails the Jacobi identity")
        violations = check_invariant_metric(algebra, metric)
        if violations:
            head = ", ".join(f"{v.kind}{v.indices}" for v in violations[:5])
            raise ValueError(f"not an invariant metric: {head}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "metric", metric)

    @classmethod
    def _unchecked(cls, algebra: LieAlgebra, metric: BilinearForm) -> "QuadraticLieAlgebra":
        """An instance whose validity follows from that of another one."""
        q = object.__new__(cls)
        object.__setattr__(q, "algebra", algebra)
        object.__setattr__(q, "metric", metric)
        return q

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticLieAlgebra is immutable")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadraticLieAlgebra)
            and self.algebra == other.algebra
            and self.metric == other.metric
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.metric))

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


def _invariance_system(g: LieAlgebra) -> SparseSystem:
    """B([e_i, e_j], e_k) = B(e_i, [e_j, e_k]) for the basis triples with k >= i.

    The unknowns are the upper triangle of the Gram matrix of B, B_pq with
    p <= q at index t in row-major order.  For a symmetric B the equation of
    (i, j, k) is the equation of (k, j, i) term for term (both say that
    ad e_j is B-skew on e_i, e_k), so only k >= i is kept: n^2 (n+1)/2
    equations instead of n^3, in lexicographic order, all-zero ones dropped,
    with the same row space as the full set.  The coefficients are the
    integers d c of ``_integer_table``: the system is homogeneous, so the
    factor d leaves its kernel unchanged.
    """
    n = g.dim
    index = [[0] * n for _ in range(n)]
    t = 0
    for p in range(n):
        for q in range(p, n):
            index[p][q] = index[q][p] = t
            t += 1
    _, table = _integer_table(g)
    system = SparseSystem(t)
    for i in range(n):
        for j in range(n):
            cij = table[i][j]
            for k in range(i, n):
                system.add(
                    [(index[p][k], c) for p, c in cij]
                    + [(index[i][p], -c) for p, c in table[j][k]]
                )
    return system


def invariant_symmetric_forms(g: LieAlgebra) -> List[BilinearForm]:
    """Basis of the space of invariant symmetric bilinear forms on g.

    The Gram matrix is parameterized by its upper triangle (n(n+1)/2
    unknowns); invariance on all basis triples gives a sparse linear
    system, solved by one kernel computation.  The basis is the rref kernel
    basis, so the output is deterministic.
    """
    n = g.dim
    solution = kernel(_invariance_system(g))
    forms = []
    for coords in solution.vectors():
        gram_rows = [[Fraction(0)] * n for _ in range(n)]
        t = 0
        for p in range(n):
            for q in range(p, n):
                gram_rows[p][q] = gram_rows[q][p] = coords[t]
                t += 1
        forms.append(BilinearForm(Matrix(gram_rows, n)))
    return forms


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
    t = 0
    for p in range(n):
        for q in range(p + 1, n):
            index[p][q] = t
            t += 1
    _, table = _integer_table(g)
    system = SparseSystem(t)

    def terms(a: int, b: int, k: int) -> list:
        # A([e_a, e_b], e_k) = sum_p c_ab^p A_pk
        return [
            (index[p][k], c) if p < k else (index[k][p], -c)
            for p, c in table[a][b]
            if p != k
        ]

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
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
    n^3/2 derivation and n(n+1)/2 skewness equations, and D = G^{-1} A is
    formed only for the kernel basis.
    The result is the rref basis of that space in the row-major entries
    of D, so the output is deterministic.
    """
    n = q.dim
    cocycles = kernel(_cocycle_system(q.algebra))
    ginv = q.metric.gram.inverse().sparse_rows()  # symmetric: row p is column p
    pairs = [(p, s) for p in range(n) for s in range(p + 1, n)]
    flats = []
    for coords in cocycles.vectors():
        # D = G^{-1} A in row-major order, where A_ps = a and A_sp = -a
        D = [Fraction(0)] * (n * n)
        for (p, s), a in zip(pairs, coords):
            if a:
                for r, x in ginv[p].items():
                    D[r * n + s] += x * a
                for r, x in ginv[s].items():
                    D[r * n + p] -= x * a
        flats.append(D)
    solution = Subspace.from_vectors(n * n, flats)
    return [
        Matrix([coords[r * n : (r + 1) * n] for r in range(n)], n)
        for coords in solution.vectors()
    ]
