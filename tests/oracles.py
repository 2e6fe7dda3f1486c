"""Reference implementations kept only as test oracles.

These are the earlier, slower algorithms for the Killing form, the
nilradical (by the four-step closure, and by the word-at-a-time closure
that the round-wise one on rref subspaces replaced), row reduction
(dense, and the sparse elimination on Fraction rows that the integer
core replaced), the matrix product and determinant in Fraction
arithmetic, the bracket, the Jacobi and invariant-metric checks and the
linear systems of the form and skew-derivation solvers (the full n^3
invariance system, the alternating-form system built entry by entry, and
the system in the n^2 entries of D), the kernel by free columns (the
rref of the system, one Fraction basis vector per free column, reduced
again as a subspace) that the integer kernel replaced, the Fraction
skew-derivation solver (D = G^{-1} A in Fractions for each cocycle, then
a second reduction) that the integer one replaced, the earlier
stand-alone constructors of h_m(phi) and S(D) and an entry-by-entry
version of the general builder, an entry-by-entry builder of the skew
2-cocycle system, and the per-function bracket loops of
``liealg`` (adjoint maps, ideal, subalgebra and derivation tests,
subalgebra, quotient and transported structures, centralizers, generated
ideals, [g, W]) and of the coadjoint double.  The library replaced them
with sparse, direct versions and with special cases of the one builder;
the tests compare the two on many inputs and require identical
values.  The seeded probe for an invariant metric on g/h_m, which the
exact decision replaced, stays too; the tests require the two to agree
on existence, and re-check each obstruction from brackets solved anew.
So do the per-entry quotient-metric routines, which fill each Gram matrix
one ``BilinearForm.evaluate`` at a time and sum linear combinations vector
by vector, where the library now multiplies whole matrices; the tests
require the same complements, c and metrics.  So does the earlier radical
path of the nilradical theorem, which maps the nilradical into radical
coordinates and searches its Heisenberg data there a second time, where
the library now runs the recognizer on the radical; the tests require the
same recovery.  So do the ``liealg`` kernels in Fraction arithmetic over
the signed table of Fraction structure constants (the bracket by formula,
the columns of ad x, the Killing form off the table, and the structure
constants on a span through a bracket and a coordinate callable per pair),
which the library replaced with integer sums over the table stored on each
algebra; the tests require the same Fractions.  So does the coordinate
map of ``Subspace`` by a Fraction residual loop, which subtracts each rref
basis row times v's entry at its pivot, where ``Subspace`` now tests
membership on integers; the tests require the same coordinates, the same
membership answers and the same errors.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from quadlie.errors import ensure
from quadlie.exactla import (
    Matrix,
    Subspace,
    add_vec,
    dot,
    form_restrict_nondegenerate,
    kernel,
    scale_vec,
    solve,
    sub_vec,
    sum_intersect,
    unit_vector,
    vector,
    zero_vector,
)
from quadlie.heisenberg import (
    SymplecticMap,
    SymplecticSpace,
    _as_omega_matrix,
    _require_skew_derivation,
    standard_symplectic_matrix,
)
from quadlie.liealg import (
    JacobiViolation,
    LieAlgebra,
    ad,
    bracket,
    check_jacobi,
    derived_subalgebra,
    is_ideal,
    quotient,
    subalgebra_on,
)
from quadlie.quadform import (
    BilinearForm,
    MetricViolation,
    QuadraticLieAlgebra,
    _cocycle_system,
    invariant_symmetric_forms,
    restrict_quadratic,
)
from quadlie.structure import (
    ComplementWitness,
    RecoveredStructure,
    _normalized_complement,
    find_heisenberg_ideal,
    nilradical,
    radical,
    recover_structure,
)


def rref_dense(A: Matrix) -> tuple:
    """Dense Gauss-Jordan: ``a - f*b`` on every column, zeros included."""
    rows = [list(r) for r in A.rows]
    nr, nc = A.nrows, A.ncols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pivot_row = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(rows, nc), tuple(pivots)


def rref_rows_fraction(rows: list, ncols: int) -> tuple:
    """Sparse Gauss-Jordan on dicts {column: nonzero Fraction}, in Fractions.

    The rows are consumed.  The pivot of column c is the shortest pending
    row holding c; it is normalised, and c is eliminated from every other
    row holding it, pending and earlier pivot rows alike, over the pivot
    row's support.  Returns the nonzero reduced rows as dicts, in pivot
    order, and the pivot columns.
    """
    pending = [row for row in rows if row]
    done: list = []
    pivots = []
    for c in range(ncols):
        if not pending:
            break
        holders = [row for row in pending if c in row]
        if not holders:
            continue
        pivot_row = min(holders, key=len)
        pv = pivot_row.pop(c)
        if pv != 1:
            inv = 1 / pv
            for j in pivot_row:
                pivot_row[j] *= inv
        support = list(pivot_row.items())
        for row in chain(holders, done):
            f = row.pop(c, None)
            if f is None:
                continue
            for j, b in support:
                x = row.get(j)
                if x is None:
                    row[j] = -f * b
                else:
                    x -= f * b
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        pivot_row[c] = Fraction(1)
        pending = [row for row in pending if row and row is not pivot_row]
        done.append(pivot_row)
        pivots.append(c)
    return done, tuple(pivots)


def kernel_by_free_columns(A) -> Subspace:
    """Null space of a Matrix or SparseSystem: its rref, one Fraction basis
    vector per free column (1 there, minus the rref entries of that column
    at the pivot columns), reduced again by ``Subspace.from_vectors``."""
    reduced, pivots = A.rref()
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(A.ncols) if c not in pivot_set):
        v = [Fraction(0)] * A.ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced.rows[r][f]
        basis.append(tuple(v))
    return Subspace.from_vectors(A.ncols, basis)


def matmul_fraction(A: Matrix, B: Matrix) -> Matrix:
    """A @ B as one Fraction ``dot`` per entry, over the columns of B."""
    if A.ncols != B.nrows:
        raise ValueError("inner dimension mismatch")
    cols = [B.column(j) for j in range(B.ncols)]
    return Matrix([[dot(row, col) for col in cols] for row in A.rows], B.ncols)


def det_fraction(A: Matrix) -> Fraction:
    """Gaussian elimination in Fractions: the product of the pivots, signed
    by the row swaps."""
    if A.nrows != A.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = A.nrows
    rows = [list(r) for r in A.rows]
    result = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        pv = rows[c][c]
        result *= pv
        inv = 1 / pv
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result


def bracket_by_formula(g: LieAlgebra, x, y) -> tuple:
    """[x, y] with x_i y_j - x_j y_i formed on every table entry."""
    x = vector(x)
    y = vector(y)
    out = [Fraction(0)] * g.dim
    for (i, j), terms in g.structure.items():
        coeff = x[i] * y[j] - x[j] * y[i]
        if coeff == 0:
            continue
        for k, c in terms:
            out[k] += coeff * c
    return tuple(out)


def invariance_rows_dense(g: LieAlgebra) -> List[tuple]:
    """The invariant-forms system over all n^3 triples, built entry by entry.

    Returns ((i, j, k), row) for every triple whose row is not all zero, in
    lexicographic order.
    """
    n = g.dim
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    index = {pq: t for t, pq in enumerate(pairs)}

    def entry_index(p: int, q: int) -> int:
        return index[(p, q) if p <= q else (q, p)]

    rows = []
    for i in range(n):
        for j in range(n):
            cij = g.bracket_basis(i, j)
            for k in range(n):
                cjk = g.bracket_basis(j, k)
                coeffs = [Fraction(0)] * len(pairs)
                for p, c in enumerate(cij):
                    if c != 0:
                        coeffs[entry_index(p, k)] += c
                for p, c in enumerate(cjk):
                    if c != 0:
                        coeffs[entry_index(i, p)] -= c
                if any(c != 0 for c in coeffs):
                    rows.append(((i, j, k), coeffs))
    return rows


def alternating_rows_dense(g: LieAlgebra) -> List[list]:
    """"T(x, y, z) = B([x, y], z) is alternating" as dense rows, entry by entry.

    Unknowns B_pq (p <= q) in row-major order.  The rows are T(i, k, i)
    for i != k in lexicographic order, then T(i,j,k) - T(j,k,i) and
    T(i,j,k) - T(k,i,j) for each triple i < j < k in lexicographic order,
    where T(i, j, k) = sum_p c_ij^p B_pk; all-zero rows are dropped.
    """
    n = g.dim
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    index = {pq: t for t, pq in enumerate(pairs)}

    def T(i: int, j: int, k: int) -> list:
        coeffs = [Fraction(0)] * len(pairs)
        for p, c in enumerate(g.bracket_basis(i, j)):
            if c != 0:
                coeffs[index[(min(p, k), max(p, k))]] += c
        return coeffs

    rows = [T(i, k, i) for i in range(n) for k in range(n) if k != i]
    for i, j, k in combinations(range(n), 3):
        first = T(i, j, k)
        for other in (T(j, k, i), T(k, i, j)):
            rows.append([a - b for a, b in zip(first, other)])
    return [row for row in rows if any(c != 0 for c in row)]


def cocycle_rows_dense(g: LieAlgebra) -> List[list]:
    """The skew 2-cocycle system as dense rows, built entry by entry.

    Unknowns a_pq (p < q) of the skew matrix A in row-major order; one row
    per triple i < j < k with a nonzero row, in lexicographic order, for
    A([e_i,e_j],e_k) + A([e_j,e_k],e_i) + A([e_k,e_i],e_j) = 0.
    """
    n = g.dim
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    index = {pq: t for t, pq in enumerate(pairs)}
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                coeffs = [Fraction(0)] * len(pairs)
                for a, b, t in ((i, j, k), (j, k, i), (k, i, j)):
                    for p, c in enumerate(g.bracket_basis(a, b)):
                        # c * A(e_p, e_t), with A(e_p, e_t) = -A(e_t, e_p)
                        if c != 0 and p < t:
                            coeffs[index[(p, t)]] += c
                        elif c != 0 and p > t:
                            coeffs[index[(t, p)]] -= c
                if any(c != 0 for c in coeffs):
                    rows.append(coeffs)
    return rows


def skew_derivation_rows_dense(q: QuadraticLieAlgebra) -> List[list]:
    """The metric-skew derivation system as dense rows, built entry by entry."""
    n = q.dim
    g = q.algebra
    gram = q.metric.gram
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = g.bracket_basis(i, j)
            for t in range(n):
                coeffs = [Fraction(0)] * (n * n)
                for p, c in enumerate(cij):
                    if c != 0:
                        coeffs[t * n + p] += c
                for r in range(n):
                    coeffs[r * n + i] -= g.bracket_basis(r, j)[t]
                    coeffs[r * n + j] -= g.bracket_basis(i, r)[t]
                if any(c != 0 for c in coeffs):
                    rows.append(coeffs)
    for i in range(n):
        for j in range(i, n):
            coeffs = [Fraction(0)] * (n * n)
            for r in range(n):
                coeffs[r * n + i] += gram.entry(r, j)
                coeffs[r * n + j] += gram.entry(i, r)
            if any(c != 0 for c in coeffs):
                rows.append(coeffs)
    return rows


def skew_derivation_space_fraction(q: QuadraticLieAlgebra) -> List[Matrix]:
    """The metric-skew derivations in Fraction arithmetic: the skew
    2-cocycle kernel by free columns, D = G^{-1} A in Fractions for each of
    its basis vectors, and ``Subspace.from_vectors`` on the flattened D."""
    n = q.dim
    cocycles = kernel_by_free_columns(_cocycle_system(q.algebra))
    ginv = q.metric.gram.inverse().sparse_rows()  # symmetric: row p is column p
    pairs = [(p, s) for p in range(n) for s in range(p + 1, n)]
    flats = []
    for coords in cocycles.vectors():
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


def check_jacobi_dense(g: LieAlgebra) -> List[JacobiViolation]:
    """Jacobi violations through dense ``bracket_basis`` vectors."""
    n = g.dim
    violations = []
    brk = [[g.bracket_basis(i, j) for j in range(n)] for i in range(n)]

    def double_bracket(first, t: int) -> List[Fraction]:
        out = [Fraction(0)] * n
        for p, c in enumerate(first):
            if c != 0:
                for s, x in enumerate(brk[p][t]):
                    if x != 0:
                        out[s] += c * x
        return out

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                residual = double_bracket(brk[i][j], k)
                for s, x in enumerate(double_bracket(brk[j][k], i)):
                    residual[s] += x
                for s, x in enumerate(double_bracket(brk[k][i], j)):
                    residual[s] += x
                if any(x != 0 for x in residual):
                    violations.append(JacobiViolation(i, j, k, tuple(residual)))
    return violations


def check_invariant_metric_dense(g: LieAlgebra, B) -> List[MetricViolation]:
    """Metric violations through dense bracket vectors and Gram rows."""
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
    if det_fraction(gram) == 0:
        violations.append(MetricViolation("nondegenerate", (), "det(gram) = 0"))
    brk = [[g.bracket_basis(i, j) for j in range(n)] for i in range(n)]
    zero = zero_vector(n)
    for i in range(n):
        row_i = gram.row(i)
        for j in range(n):
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


def killing_form_by_products(g: LieAlgebra) -> Matrix:
    """K(x, y) = trace(ad x · ad y) through n^2 dense matrix products."""
    ads = [ad(g, unit_vector(g.dim, i)) for i in range(g.dim)]
    return Matrix(
        [[(ads[i] @ ads[j]).trace() for j in range(g.dim)] for i in range(g.dim)],
        g.dim,
    )


def radical_by_products(g: LieAlgebra) -> Subspace:
    return kernel(derived_subalgebra(g).basis @ killing_form_by_products(g))


class _SpanBuilder:
    """Incrementally maintained row span with pivot-reduced rows."""

    def __init__(self):
        self.rows: List[list] = []
        self.pivots: List[int] = []

    def add(self, vec) -> bool:
        v = list(vec)
        for pivot, row in zip(self.pivots, self.rows):
            if v[pivot] != 0:
                f = v[pivot]
                v = [a - f * b for a, b in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        inv = 1 / v[pivot]
        self.rows.append([x * inv for x in v])
        self.pivots.append(pivot)
        return True


def _associative_closure(generators: List[Matrix]) -> List[Matrix]:
    span = _SpanBuilder()
    basis: List[Matrix] = []
    for M in generators:
        if span.add(M.flatten()):
            basis.append(M)
    frontier = list(basis)
    while frontier:
        fresh = []
        for A in list(basis):
            for B in frontier:
                for prod in (A @ B, B @ A):
                    if span.add(prod.flatten()):
                        basis.append(prod)
                        fresh.append(prod)
        frontier = fresh
    return basis


def nilradical_four_step(g: LieAlgebra) -> Subspace:
    """Nilradical in four steps: closure of ad(R), trace Gram, annihilator, preimage.

    No certificates are checked here: the oracle only supplies the value
    the library result must equal.
    """
    R = radical_by_products(g)
    k = R.dim
    if k == 0:
        return R
    gR = subalgebra_on(g, R)
    ads = [
        Matrix.from_columns([gR.bracket_basis(i, j) for j in range(k)], k)
        for i in range(k)
    ]
    algebra_basis = _associative_closure(ads)
    if algebra_basis:
        trace_gram = Matrix(
            [[(A @ B).trace() for B in algebra_basis] for A in algebra_basis],
            len(algebra_basis),
        )
        rad_flats = []
        for coords in kernel(trace_gram).vectors():
            flat = [Fraction(0)] * (k * k)
            for t, c in enumerate(coords):
                if c != 0:
                    flat = [a + c * b for a, b in zip(flat, algebra_basis[t].flatten())]
            rad_flats.append(tuple(flat))
        rad_span = Subspace.from_vectors(k * k, rad_flats)
    else:
        rad_span = Subspace.zero(k * k)
    annihilator = kernel(rad_span.basis)
    ad_flats = [M.flatten() for M in ads]
    constraint_rows = [
        [sum((a * b for a, b in zip(alpha, flat)), Fraction(0)) for flat in ad_flats]
        for alpha in annihilator.vectors()
    ]
    ambient_vecs = []
    for coords in kernel(Matrix(constraint_rows, k)).vectors():
        v = zero_vector(g.dim)
        for t, c in enumerate(coords):
            if c != 0:
                v = add_vec(v, scale_vec(c, R.vectors()[t]))
        ambient_vecs.append(v)
    return Subspace.from_vectors(g.dim, ambient_vecs)


def nilradical_incremental(g: LieAlgebra) -> Subspace:
    """Nilradical by growing the word span of ad_R(e_t) one word at a time.

    Each word that enlarges the span is reduced against the earlier words
    and adds one trace row trace(ad_t M); its left products with the
    generators are queued.  The closure stops when the queue is empty or
    the trace rows leave a kernel of dimension dim [g, R].  No certificates
    are checked here.
    """
    R = radical_by_products(g)
    k = R.dim
    if k == 0:
        return R
    gR = subalgebra_on(g, R)
    ads = [ad(gR, unit_vector(k, i)) for i in range(k)]
    ads_transposed = [M.transpose().flatten() for M in ads]
    floor = bracket_subspaces_by_pairs(g, Subspace.full(g.dim), R).dim
    words = _SpanBuilder()
    constraints = _SpanBuilder()
    unexpanded: deque = deque()

    def add_word(M: Matrix) -> None:
        flat = M.flatten()
        if words.add(flat):
            constraints.add([dot(a, flat) for a in ads_transposed])
            unexpanded.append(M)

    for M in ads:
        add_word(M)
    while unexpanded and k - len(constraints.rows) > floor:
        M = unexpanded.popleft()
        for G in ads:
            add_word(G @ M)
    coords = kernel(Matrix(constraints.rows, k))
    return Subspace(g.dim, coords.basis @ R.basis)


def extend_heisenberg_direct(
    m: int,
    omega: Optional[Matrix],
    phi: Union[SymplecticMap, Matrix],
) -> QuadraticLieAlgebra:
    """h_m(phi) with its own bracket table and Gram matrix."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if omega is None:
        omega = standard_symplectic_matrix(m)
    space = SymplecticSpace(omega)
    if space.dim != 2 * m:
        raise ValueError("omega size does not match m")
    phi_mat = _as_omega_matrix(phi, space, "phi")
    if phi_mat.det() == 0:
        raise ValueError("phi must be invertible on V")

    dim = 2 * m + 2
    hb = dim - 1
    structure = {}
    for j in range(2 * m):
        col = phi_mat.column(j)
        terms = [(1 + i, c) for i, c in enumerate(col) if c != 0]
        if terms:
            structure[(0, 1 + j)] = terms
    for i in range(2 * m):
        for j in range(i + 1, 2 * m):
            c = omega.entry(i, j)
            if c != 0:
                structure[(1 + i, 1 + j)] = [(hb, c)]
    labels = ["d"] + [f"u{i + 1}" for i in range(2 * m)] + ["hbar"]
    algebra = LieAlgebra(dim, structure, labels)
    ensure(not check_jacobi(algebra), "extended Heisenberg bracket failed Jacobi")

    gram_v = phi_mat.inverse().transpose() @ omega
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(2 * m):
        for j in range(2 * m):
            rows[1 + i][1 + j] = gram_v.entry(i, j)
    rows[0][hb] = Fraction(1)
    rows[hb][0] = Fraction(1)
    return QuadraticLieAlgebra(algebra, BilinearForm(Matrix(rows, dim)))


def double_extension_direct(S: QuadraticLieAlgebra, D: Matrix) -> QuadraticLieAlgebra:
    """S(D) on the basis (D, s_1..s_n, hbar) with its own bracket table and Gram matrix."""
    _require_skew_derivation(S, D)
    n = S.dim
    dim = n + 2
    hb = dim - 1
    structure = {}
    for j in range(n):
        col = D.column(j)
        terms = [(1 + i, c) for i, c in enumerate(col) if c != 0]
        if terms:
            structure[(0, 1 + j)] = terms
    gram_s = S.metric.gram
    mu = D.transpose() @ gram_s  # mu[i][j] = B_S(D s_i, s_j)
    for i in range(n):
        for j in range(i + 1, n):
            terms = [
                (1 + k, c) for k, c in enumerate(S.algebra.bracket_basis(i, j)) if c != 0
            ]
            if mu.entry(i, j) != 0:
                terms = terms + [(hb, mu.entry(i, j))]
            if terms:
                structure[(1 + i, 1 + j)] = terms
    labels = ["D"] + list(S.algebra.basis_labels) + ["hbar"]
    algebra = LieAlgebra(dim, structure, labels)
    ensure(not check_jacobi(algebra), "double extension bracket failed Jacobi")

    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            rows[1 + i][1 + j] = gram_s.entry(i, j)
    rows[0][hb] = Fraction(1)
    rows[hb][0] = Fraction(1)
    return QuadraticLieAlgebra(algebra, BilinearForm(Matrix(rows, dim)))


def build_with_heisenberg_ideal_direct(
    S: QuadraticLieAlgebra,
    D: Matrix,
    V: SymplecticSpace,
    sigmaD: Union[SymplecticMap, Matrix],
) -> QuadraticLieAlgebra:
    """S ⊕ QQ d ⊕ V ⊕ QQ hbar on the basis (s_1..s_k, d, u_1..u_2m, hbar),
    its bracket table written entry by entry from [x, y] = [x, y]_S +
    B_S(D x, y) hbar, [s_j, d] = -D s_j, [d, u] = sigmaD u and [u, v] =
    omega(u, v) hbar, and its Gram matrix from B_S, B(d, hbar) = 1 and
    B(u, v) = omega(sigmaD^{-1} u, v)."""
    _require_skew_derivation(S, D)
    sigma = _as_omega_matrix(sigmaD, V, "sigmaD")
    if sigma.det() == 0:
        raise ValueError("sigmaD must be invertible")
    k, two_m = S.dim, V.dim
    dim = k + two_m + 2
    d, hb = k, dim - 1
    structure = {}
    for i in range(k):
        for j in range(i + 1, k):
            terms = [(t, c) for t, c in enumerate(S.algebra.bracket_basis(i, j)) if c != 0]
            mu = S.metric.evaluate(D.column(i), unit_vector(k, j))
            if mu != 0:
                terms = terms + [(hb, mu)]
            if terms:
                structure[(i, j)] = terms
    for j in range(k):
        terms = [(t, -c) for t, c in enumerate(D.column(j)) if c != 0]
        if terms:
            structure[(j, d)] = terms
    for j in range(two_m):
        terms = [(d + 1 + i, c) for i, c in enumerate(sigma.column(j)) if c != 0]
        if terms:
            structure[(d, d + 1 + j)] = terms
    for i in range(two_m):
        for j in range(i + 1, two_m):
            if V.omega.entry(i, j) != 0:
                structure[(d + 1 + i, d + 1 + j)] = [(hb, V.omega.entry(i, j))]
    labels = list(S.algebra.basis_labels) + ["d"] + [f"u{i + 1}" for i in range(two_m)] + ["hbar"]
    algebra = LieAlgebra(dim, structure, labels)
    ensure(not check_jacobi(algebra), "heisenberg-ideal bracket failed Jacobi")

    sigma_inv = sigma.inverse()
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(k):
        for j in range(k):
            rows[i][j] = S.metric.gram.entry(i, j)
    for i in range(two_m):
        for j in range(two_m):
            rows[d + 1 + i][d + 1 + j] = dot(sigma_inv.column(i), V.omega.column(j))
    rows[d][hb] = Fraction(1)
    rows[hb][d] = Fraction(1)
    return QuadraticLieAlgebra(algebra, BilinearForm(Matrix(rows, dim)))


# -- the liealg kernels in Fraction arithmetic ---------------------------------

def bracket_table_fraction(g: LieAlgebra) -> list:
    """table[i][j] holds the nonzero (k, c) with [e_i, e_j] = sum c e_k, as Fractions."""
    n = g.dim
    table = [[()] * n for _ in range(n)]
    for (i, j), terms in g.structure.items():
        table[i][j] = terms
        table[j][i] = tuple((k, -c) for k, c in terms)
    return table


def ad_columns_fraction(g: LieAlgebra, x) -> List[tuple]:
    """[x, e_j] for every j, summed in Fractions over the support of x."""
    x = vector(x)
    table = bracket_table_fraction(g)
    n = g.dim
    columns = [[Fraction(0)] * n for _ in range(n)]
    for i, xi in enumerate(x):
        if xi:
            for column, terms in zip(columns, table[i]):
                for k, c in terms:
                    column[k] += xi * c
    return [tuple(column) for column in columns]


def ad_fraction(g: LieAlgebra, x) -> Matrix:
    return Matrix.from_columns(ad_columns_fraction(g, x), g.dim)


def killing_form_fraction(g: LieAlgebra) -> Matrix:
    """K_ij = sum_{k,l} c_il^k c_jk^l in Fractions, off the Fraction table."""
    n = g.dim
    ads = [
        {(k, l): c for l, terms in enumerate(row) for k, c in terms}
        for row in bracket_table_fraction(g)
    ]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            adj = ads[j]
            rows[i][j] = rows[j][i] = sum(
                (c * adj[(l, k)] for (k, l), c in ads[i].items() if (l, k) in adj),
                Fraction(0),
            )
    return Matrix(rows, n)


def coordinates_fraction(U: Subspace, v) -> Optional[tuple]:
    """Coordinates of ``v`` in the rref basis of U, or None if outside.

    Because the basis is in rref, the candidate coordinates are the
    entries of v at the pivot columns; membership is the check that
    they reconstruct v.  They do so at the pivot columns by
    construction, so only the entries right of each row's pivot are
    subtracted, nonzero ones only, and the pivot columns are not
    compared.
    """
    v = vector(v)
    if len(v) != U.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    coords = tuple(v[c] for c in U.pivots)
    residual = list(v)
    for c, p, row in zip(coords, U.pivots, U.basis.rows):
        residual[p] = 0  # no other basis row is nonzero at column p
        if c:
            for j in range(p + 1, len(row)):
                if row[j]:
                    residual[j] -= c * row[j]
    if any(residual):
        return None
    return coords


def structure_in_fraction(
    g: LieAlgebra, vectors, coordinates: Callable
) -> Optional[Dict[Tuple[int, int], list]]:
    """Each pair i < j bracketed by formula and mapped through ``coordinates``;
    None as soon as a bracket has no coordinates."""
    structure = {}
    for (i, u), (j, w) in combinations(enumerate(vectors), 2):
        coords = coordinates(bracket_by_formula(g, u, w))
        if coords is None:
            return None
        terms = [(k, c) for k, c in enumerate(coords) if c != 0]
        if terms:
            structure[(i, j)] = terms
    return structure


def subalgebra_on_fraction(g: LieAlgebra, U: Subspace) -> LieAlgebra:
    structure = structure_in_fraction(g, U.vectors(), lambda w: coordinates_fraction(U, w))
    if structure is None:
        raise ValueError("subspace is not a subalgebra")
    return LieAlgebra(U.dim, structure, [f"r{t + 1}" for t in range(U.dim)])


def quotient_fraction(g: LieAlgebra, I: Subspace) -> Tuple[LieAlgebra, Matrix]:
    """g/I on the non-pivot coordinates, the projection read off I's rref rows."""
    if not all(
        coordinates_fraction(I, c) is not None
        for u in I.vectors()
        for c in ad_columns_fraction(g, u)
    ):
        raise ValueError("subspace is not an ideal")
    row_at = dict(zip(I.pivots, I.basis.rows))
    complement_cols = [c for c in range(g.dim) if c not in row_at]
    proj_rows = [
        [-row_at[j][c] if j in row_at else int(j == c) for j in range(g.dim)]
        for c in complement_cols
    ]
    qdim = len(complement_cols)
    proj = Matrix(proj_rows, g.dim)
    units = [unit_vector(g.dim, c) for c in complement_cols]
    labels = [g.basis_labels[c] + "~" for c in complement_cols]
    return LieAlgebra(qdim, structure_in_fraction(g, units, proj.apply), labels), proj


def transport_fraction(
    g: LieAlgebra, P: Matrix, basis_labels: Optional[Sequence[str]] = None
) -> LieAlgebra:
    """Brackets of the rows of P mapped through (P^T)^-1 one at a time."""
    Pt_inv = P.transpose().inverse()
    if basis_labels is None:
        basis_labels = [f"b{t + 1}" for t in range(g.dim)]
    return LieAlgebra(g.dim, structure_in_fraction(g, P.rows, Pt_inv.apply), basis_labels)


# -- bracket loops, one per function -----------------------------------------

def ad_by_brackets(g: LieAlgebra, x) -> Matrix:
    """ad x with column j formed as the full bracket [x, e_j]."""
    x = vector(x)
    columns = [bracket(g, x, unit_vector(g.dim, j)) for j in range(g.dim)]
    return Matrix.from_columns(columns, g.dim)


def is_subalgebra_by_brackets(g: LieAlgebra, U: Subspace) -> bool:
    vecs = U.vectors()
    return all(
        U.contains(bracket(g, vecs[i], vecs[j]))
        for i in range(len(vecs))
        for j in range(i + 1, len(vecs))
    )


def is_ideal_by_brackets(g: LieAlgebra, U: Subspace) -> bool:
    """[e_i, u] for every basis vector e_i and every u in U's basis."""
    return all(
        U.contains(bracket(g, unit_vector(g.dim, i), u))
        for i in range(g.dim)
        for u in U.vectors()
    )


def centralizer_by_brackets(g: LieAlgebra, U: Subspace) -> Subspace:
    """The kernel of the stacked -ad(u) rows."""
    if U.is_zero():
        return Subspace.full(g.dim)
    rows = []
    for u in U.vectors():
        adj = ad_by_brackets(g, u)
        rows.extend((-adj).rows)
    return kernel(Matrix(rows, g.dim))


def ideal_generated_by_brackets(g: LieAlgebra, vectors_in) -> Subspace:
    current = Subspace.from_vectors(g.dim, [vector(v) for v in vectors_in])
    for _ in range(g.dim + 1):
        new_vecs = list(current.vectors())
        for i in range(g.dim):
            ei = unit_vector(g.dim, i)
            for u in current.vectors():
                new_vecs.append(bracket(g, ei, u))
        nxt = Subspace.from_vectors(g.dim, new_vecs)
        if nxt == current:
            return current
        current = nxt
    return current


def bracket_subspaces_by_pairs(g: LieAlgebra, U: Subspace, W: Subspace) -> Subspace:
    """[U, W] from one full bracket per basis pair (u, w), pairs i < j when W is U."""
    if W == U:
        pairs = combinations(U.vectors(), 2)
    else:
        pairs = ((u, w) for u in U.vectors() for w in W.vectors())
    return Subspace.from_vectors(g.dim, [bracket(g, u, w) for u, w in pairs])


def quotient_by_reduction(g: LieAlgebra, I: Subspace) -> Tuple[LieAlgebra, Matrix]:
    """g/I with the projection found by reducing each e_j modulo I's rref rows."""
    if not is_ideal_by_brackets(g, I):
        raise ValueError("subspace is not an ideal")
    _, pivots = I.basis.rref()
    pivot_set = set(pivots)
    complement_cols = [c for c in range(g.dim) if c not in pivot_set]
    qdim = len(complement_cols)
    proj_columns = []
    for j in range(g.dim):
        v = list(unit_vector(g.dim, j))
        for r, c in enumerate(pivots):
            if v[c] != 0:
                f = v[c]
                v = [a - f * b for a, b in zip(v, I.basis.rows[r])]
        proj_columns.append(tuple(v[c] for c in complement_cols))
    proj = Matrix.from_columns(proj_columns, qdim)
    structure = {}
    for s in range(qdim):
        for t in range(s + 1, qdim):
            w = g.bracket_basis(complement_cols[s], complement_cols[t])
            coords = proj.apply(w)
            terms = [(k, c) for k, c in enumerate(coords) if c != 0]
            if terms:
                structure[(s, t)] = terms
    labels = [g.basis_labels[c] + "~" for c in complement_cols]
    return LieAlgebra(qdim, structure, labels), proj


def subalgebra_on_by_brackets(g: LieAlgebra, U: Subspace) -> LieAlgebra:
    """A subalgebra test first, then a second bracket of every pair."""
    if not is_subalgebra_by_brackets(g, U):
        raise ValueError("subspace is not a subalgebra")
    vecs = U.vectors()
    structure = {}
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            w = bracket(g, vecs[i], vecs[j])
            coords = U.coordinates_of(w)
            if coords is None:
                raise ValueError("bracket left the subalgebra")
            terms = [(k, c) for k, c in enumerate(coords) if c != 0]
            if terms:
                structure[(i, j)] = terms
    labels = [f"r{t + 1}" for t in range(len(vecs))]
    return LieAlgebra(len(vecs), structure, labels)


def is_derivation_by_brackets(g: LieAlgebra, M: Matrix) -> bool:
    """M[e_i, e_j] against [M e_i, e_j] + [e_i, M e_j], two full brackets per pair."""
    for i in range(g.dim):
        ei = unit_vector(g.dim, i)
        for j in range(i + 1, g.dim):
            ej = unit_vector(g.dim, j)
            lhs = M.apply(g.bracket_basis(i, j))
            rhs = add_vec(bracket(g, M.apply(ei), ej), bracket(g, ei, M.apply(ej)))
            if lhs != rhs:
                return False
    return True


def transport_by_brackets(
    g: LieAlgebra, P: Matrix, basis_labels: Optional[Sequence[str]] = None
) -> LieAlgebra:
    Pt_inv = P.transpose().inverse()
    structure = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            w = bracket(g, P.rows[i], P.rows[j])
            coords = Pt_inv.apply(w)
            terms = [(k, c) for k, c in enumerate(coords) if c != 0]
            if terms:
                structure[(i, j)] = terms
    if basis_labels is None:
        basis_labels = [f"b{t + 1}" for t in range(g.dim)]
    return LieAlgebra(g.dim, structure, basis_labels)


def coadjoint_double_by_bracket_basis(g: LieAlgebra) -> QuadraticLieAlgebra:
    """g ⊕ g* with [x_i, xi_j] = -sum_l c^j_{il} xi_l from n^3 basis brackets."""
    n = g.dim
    dim = 2 * n
    structure = {}
    for (i, j), terms in g.structure.items():
        structure[(i, j)] = list(terms)
    for i in range(n):
        for j in range(n):
            terms = []
            for l in range(n):
                c = g.bracket_basis(i, l)[j]
                if c != 0:
                    terms.append((n + l, -c))
            if terms:
                key = (i, n + j)
                existing = list(structure.get(key, []))
                structure[key] = existing + terms
    labels = list(g.basis_labels) + [s + "*" for s in g.basis_labels]
    algebra = LieAlgebra(dim, structure, labels)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][n + i] = Fraction(1)
        rows[n + i][i] = Fraction(1)
    return QuadraticLieAlgebra(algebra, BilinearForm(Matrix(rows, dim)))


def quotient_metric_probe(q: QuadraticLieAlgebra, h, seed: int = 0) -> Optional[BilinearForm]:
    """Search the invariant-form space of g/h_m for a nondegenerate element.

    Probes, in order: each solver-basis form, every integer combination
    with coefficients in {-2..2} (when 5^r <= 20000), then 100 seeded
    pseudorandom combinations with coefficients in {-9..9}.  Returns None
    when a vector lies in every form's radical or no probe is
    nondegenerate; the second case is no proof that no metric exists.
    """
    q_alg, _ = quotient(q.algebra, h.ideal)
    if q_alg.dim == 0:
        return BilinearForm(Matrix([], 0))
    forms = invariant_symmetric_forms(q_alg)
    if not forms:
        return None
    common = Subspace.full(q_alg.dim)
    for form in forms:
        common = sum_intersect(common, kernel(form.gram))[1]
    if not common.is_zero():
        return None
    for form in forms:
        if form.is_nondegenerate():
            return form
    r = len(forms)
    sweep = product(range(-2, 3), repeat=r) if 5 ** r <= 20000 else ()
    rng = random.Random(seed)
    draws = ([rng.randint(-9, 9) for _ in range(r)] for _ in range(100))
    for coeffs in chain(sweep, draws):
        if all(c == 0 for c in coeffs):
            continue
        gram = Matrix.zeros(q_alg.dim, q_alg.dim)
        for c, form in zip(coeffs, forms):
            if c != 0:
                gram = gram + form.gram.scale(c)
        if gram.det() != 0:
            return BilinearForm(gram)
    return None


def obstruction_holds(g: LieAlgebra, complement, v_basis, hbar, y) -> bool:
    """Whether y certifies that no complement {a_i + lambda_i hbar} is a subalgebra.

    Each [a_i, a_j], i < j in lexicographic order, is solved for in the
    basis (a..., v..., hbar) of g as sum_l beta_ij^l a_l + mu_ij hbar with
    no V-part; y must satisfy y^T beta = 0 and y^T mu != 0.
    """
    k, n = len(complement), g.dim
    E = Matrix.from_columns(list(complement) + list(v_basis) + [hbar], n)
    if not E.is_invertible():
        return False
    beta, mu = [], []
    for i, j in combinations(range(k), 2):
        coords = solve(E, bracket(g, complement[i], complement[j]))
        if any(coords[k : n - 1]):
            return False
        beta.append(coords[:k])
        mu.append(coords[n - 1])
    if len(y) != len(beta):
        return False
    kills_beta = all(sum(c * row[l] for c, row in zip(y, beta)) == 0 for l in range(k))
    return kills_beta and sum(c * m for c, m in zip(y, mu)) != 0


def _brackets_by_pairs(q: QuadraticLieAlgebra, h) -> tuple:
    """The normalized complement, the inverse of E = (a..., v..., hbar) and
    {(i, j): (beta_ij, mu_ij)} with [a_i, a_j] = sum_l beta_ij^l a_l +
    mu_ij hbar, for i < j."""
    n = q.dim
    a_vecs = _normalized_complement(q, h)
    k = len(a_vecs)
    E_inv = Matrix.from_columns(a_vecs + list(h.v_basis) + [h.hbar], n).inverse()
    brackets = {}
    for i, j in combinations(range(k), 2):
        coords = E_inv.apply(bracket(q.algebra, a_vecs[i], a_vecs[j]))
        ensure(not any(coords[k:n - 1]), "[a, b] has a V-component")
        brackets[(i, j)] = (coords[:k], coords[n - 1])
    return a_vecs, E_inv, brackets


def _split_off_d_by_evaluation(B: BilinearForm, hbar, rows) -> tuple:
    eta = [B.evaluate(a, hbar) for a in rows]
    jd = next((i for i, x in enumerate(eta) if x != 0), None)
    ensure(jd is not None, "B(., hbar) vanishes on the complement")
    d = scale_vec(1 / eta[jd], rows[jd])
    rest = [sub_vec(a, scale_vec(eta[i], d)) for i, a in enumerate(rows) if i != jd]
    return d, rest


def metric_on_complement_by_evaluation(
    q: QuadraticLieAlgebra, h, comp: Subspace
) -> BilinearForm:
    """The quotient metric of a subalgebra complement, one
    ``BilinearForm.evaluate`` per Gram entry and the quotient
    representatives summed row by row."""
    B = q.metric
    n = q.dim
    q_alg, proj = quotient(q.algebra, h.ideal)
    comp_rows = comp.vectors()
    d, s_rows = _split_off_d_by_evaluation(B, h.hbar, comp_rows)
    if s_rows:
        G_S0 = Matrix(
            [[B.evaluate(a, b) for b in s_rows] for a in s_rows], len(s_rows)
        )
        rhs = tuple(B.evaluate(d, s) for s in s_rows)
        correction = solve(G_S0, rhs)
        ensure(correction is not None, "cannot orthogonalize d against S")
        for i, c in enumerate(correction):
            if c != 0:
                d = sub_vec(d, scale_vec(c, s_rows[i]))
        for s in s_rows:
            ensure(B.evaluate(d, s) == 0, "d orthogonalization failed")

    pi_cols = Matrix.from_columns([proj.apply(r) for r in comp_rows], q_alg.dim)
    ensure(pi_cols.is_invertible(), "complement does not project onto the quotient")
    pi_inv = pi_cols.inverse()
    reps = []
    for t in range(q_alg.dim):
        coeffs = pi_inv.apply(unit_vector(q_alg.dim, t))
        rep = zero_vector(n)
        for s, c in enumerate(coeffs):
            if c != 0:
                rep = add_vec(rep, scale_vec(c, comp_rows[s]))
        reps.append(rep)
    lambdas = [B.evaluate(rep, h.hbar) for rep in reps]
    s_parts = [sub_vec(rep, scale_vec(lam, d)) for rep, lam in zip(reps, lambdas)]
    gram_rows = [
        [
            B.evaluate(s_parts[t], s_parts[u]) + lambdas[t] * lambdas[u]
            for u in range(q_alg.dim)
        ]
        for t in range(q_alg.dim)
    ]
    return BilinearForm(Matrix(gram_rows, q_alg.dim))


def complement_from_metric_by_evaluation(
    q: QuadraticLieAlgebra, h, Ba: BilinearForm
) -> ComplementWitness:
    """The complement witness built from an invariant quotient metric by the
    musical maps, one ``BilinearForm.evaluate`` per Gram entry, ad(a_s) one
    matrix per complement vector, and c and the complement rows summed
    vector by vector."""
    g, B = q.algebra, q.metric
    n = g.dim
    _, proj = quotient(g, h.ideal)
    qd = proj.nrows
    a_vecs, E_inv, brackets = _brackets_by_pairs(q, h)
    ensure(len(a_vecs) == qd, "complement dimension mismatch")

    pi_a = [proj.apply(a) for a in a_vecs]
    G_a = Matrix(
        [[Ba.evaluate(pi_a[i], pi_a[j]) for j in range(qd)] for i in range(qd)],
        qd,
    )
    G_a_inv = G_a.inverse()
    mu_rows = [[Fraction(0)] * qd for _ in range(qd)]
    for (i, j), (_, mu_ij) in brackets.items():
        mu_rows[i][j] = mu_ij
        mu_rows[j][i] = -mu_ij
    mu = Matrix(mu_rows, qd)

    def bracket_a(i: int, j: int):
        if i == j:
            return zero_vector(qd)
        if i < j:
            return brackets[(i, j)][0]
        return scale_vec(-1, brackets[(j, i)][0])

    alpha = G_a @ Matrix(E_inv.rows[:qd], n)
    T_cols = []
    beta = []
    for i in range(qd):
        coords = E_inv.apply(solve(B.gram, alpha.row(i)))
        ensure(not any(coords[qd:n - 1]), "varphi has a V-component")
        T_cols.append(coords[:qd])
        beta.append(coords[n - 1])
    T = Matrix.from_columns(T_cols, qd)
    e_coords = solve(G_a, tuple(beta))
    ensure(T.transpose() @ G_a == G_a @ T, "T is not Ba-symmetric")
    F = G_a_inv @ mu.transpose()

    G_res = Matrix(
        [[B.evaluate(a_vecs[i], a_vecs[j]) for j in range(qd)] for i in range(qd)],
        qd,
    )
    phi_on_a = G_a_inv @ G_res
    eta = [B.evaluate(a, h.hbar) for a in a_vecs]
    for i in range(qd):
        rhs = add_vec(T.apply(phi_on_a.column(i)), scale_vec(eta[i], e_coords))
        ensure(unit_vector(qd, i) == rhs, "decomposition failed")
    ensure(sum((c * eta[s] for s, c in enumerate(e_coords)), Fraction(0)) == 1, "B(e, hbar) != 1")

    ad_mats = [
        Matrix.from_columns([bracket_a(s, j) for j in range(qd)], qd)
        for s in range(qd)
    ]
    ad_e = Matrix.zeros(qd, qd)
    for s, c in enumerate(e_coords):
        if c != 0:
            ad_e = ad_e + ad_mats[s].scale(c)
    ensure(T @ F == ad_e and F @ T == ad_e, "T∘F = F∘T = ad(e) fails")
    K = Matrix.from_columns([M.flatten() for M in ad_mats], qd * qd)
    c_coords = solve(K, F.flatten())
    ensure(c_coords is not None, "F is not an inner derivation")

    weights = G_a.apply(c_coords)
    comp_rows = [
        add_vec(a, scale_vec(weights[i], h.hbar)) for i, a in enumerate(a_vecs)
    ]
    c_ambient = zero_vector(n)
    for s, c in enumerate(c_coords):
        if c != 0:
            c_ambient = add_vec(c_ambient, scale_vec(c, a_vecs[s]))
    return ComplementWitness(Subspace.from_vectors(n, comp_rows), Ba, c_ambient)


def radical_recovery_by_refind(q: QuadraticLieAlgebra) -> Optional[RecoveredStructure]:
    """Recovery on Rad(g) over the nilradical, found again in radical
    coordinates: None unless Nil(g) is a Heisenberg ideal and Rad(g) is a
    nondegenerate ideal that extends it by one line."""
    g = q.algebra
    rad = radical(g)
    nil = nilradical(g, rad)
    if find_heisenberg_ideal(g, nil) is None:
        return None
    if not (
        is_ideal(g, rad)
        and form_restrict_nondegenerate(q.metric.gram, rad)
        and rad.dim == nil.dim + 1
        and rad.contains_subspace(nil)
    ):
        return None
    q_rad = restrict_quadratic(q, rad)
    nil_in_rad = Subspace.from_vectors(rad.dim, [rad.coordinates_of(v) for v in nil.vectors()])
    h_rad = find_heisenberg_ideal(q_rad.algebra, nil_in_rad)
    ensure(h_rad is not None, "the nilradical is not a Heisenberg ideal of the radical")
    return recover_structure(q_rad, h_rad)
