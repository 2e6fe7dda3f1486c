"""Invariant metrics on Lie algebras.

A quadratic Lie algebra couples a Lie algebra with a nondegenerate,
symmetric, ad-invariant bilinear form.  This module provides the checker,
the musical isomorphisms, orthogonal complements, the solver for the space
of invariant symmetric forms, and orthogonal splitting along nondegenerate
ideals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .exactla import (
    Matrix,
    SparseSystem,
    Subspace,
    Vector,
    add_vec,
    dot,
    form_orthogonal,
    form_restrict_nondegenerate,
    kernel,
    restricted_gram,
    solve,
    vector,
    zero_vector,
)
from .liealg import LieAlgebra, check_jacobi, is_ideal, subalgebra_on, transport


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
        return dot(self.gram.apply(vector(x)), vector(y))

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
    returned list is empty iff B is an invariant metric for g.
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
    brk = [[g.bracket_basis(i, j) for j in range(n)] for i in range(n)]
    zero = zero_vector(n)
    for i in range(n):
        row_i = gram.row(i)
        for j in range(n):
            # w[k] = B([e_i, e_j], e_k), accumulated over the sparse bracket
            w = None
            for p, c in enumerate(brk[i][j]):
                if c != 0:
                    contrib = tuple(c * x for x in gram.row(p))
                    w = contrib if w is None else add_vec(w, contrib)
            if w is None:
                w = zero
            for k in range(n):
                rhs = Fraction(0)
                for p, c in enumerate(brk[j][k]):
                    if c != 0:
                        rhs += row_i[p] * c
                if w[k] != rhs:
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


def _bracket_table(g: LieAlgebra) -> list:
    """table[i][j] holds the nonzero (k, c) with [e_i, e_j] = sum c e_k."""
    n = g.dim
    table = [[()] * n for _ in range(n)]
    for (i, j), terms in g.structure.items():
        table[i][j] = terms
        table[j][i] = tuple((k, -c) for k, c in terms)
    return table


def _invariance_system(g: LieAlgebra) -> SparseSystem:
    """B([e_i, e_j], e_k) = B(e_i, [e_j, e_k]) for all basis triples.

    The unknowns are the upper triangle of the Gram matrix of B, B_pq with
    p <= q at index t in row-major order; one equation per triple (i, j, k)
    in lexicographic order, all-zero ones dropped.
    """
    n = g.dim
    index = [[0] * n for _ in range(n)]
    t = 0
    for p in range(n):
        for q in range(p, n):
            index[p][q] = index[q][p] = t
            t += 1
    table = _bracket_table(g)
    system = SparseSystem(t)
    for i in range(n):
        for j in range(n):
            cij = table[i][j]
            for k in range(n):
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
    metric is degenerate.
    """
    algebra = subalgebra_on(q.algebra, U)
    gram = restricted_gram(q.metric.gram, U)
    return QuadraticLieAlgebra(algebra, BilinearForm(gram))


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


def _skew_derivation_system(q: QuadraticLieAlgebra) -> SparseSystem:
    """"D is a derivation and D^T G + G D = 0" in the n^2 entries of D.

    D[r][c] is unknown r*n + c.  The derivation equations come first, one
    per (i < j, t) in lexicographic order, then the skewness equations, one
    per (i <= j); all-zero ones are dropped.
    """
    n = q.dim
    table = _bracket_table(q.algebra)
    # into[j][t]: the (r, c) with c the e_t-coefficient of [e_r, e_j]
    into = [[[] for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for j in range(n):
            for t, c in table[r][j]:
                into[j][t].append((r, c))
    system = SparseSystem(n * n)
    # derivation: D([e_i,e_j]) - [D e_i, e_j] - [e_i, D e_j] = 0, component t
    for i in range(n):
        for j in range(i + 1, n):
            cij = table[i][j]
            for t in range(n):
                # [e_r, e_j] contributes -D[r][i] c^t_rj, and [e_i, e_r]
                # contributes -D[r][j] c^t_ir = +D[r][j] c^t_ri
                system.add(
                    [(t * n + p, c) for p, c in cij]
                    + [(r * n + i, -c) for r, c in into[j][t]]
                    + [(r * n + j, c) for r, c in into[i][t]]
                )
    # skewness: (D^T G + G D)[i][j] = sum_r D[r][i] G_rj + G_ir D[r][j] = 0
    gram = q.metric.gram.sparse_rows()  # G is symmetric: row j is column j
    for i in range(n):
        for j in range(i, n):
            system.add(
                [(r * n + i, x) for r, x in gram[j].items()]
                + [(r * n + j, x) for r, x in gram[i].items()]
            )
    return system


def skew_derivation_space(q: QuadraticLieAlgebra) -> List[Matrix]:
    """Basis of derivations of q that are skew with respect to its metric.

    Solves the sparse linear system "D is a derivation and D^T G + G D = 0"
    in the n^2 matrix unknowns; deterministic rref kernel basis.
    """
    n = q.dim
    solution = kernel(_skew_derivation_system(q))
    return [
        Matrix([coords[r * n : (r + 1) * n] for r in range(n)], n)
        for coords in solution.vectors()
    ]
