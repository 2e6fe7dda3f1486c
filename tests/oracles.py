"""Reference implementations kept only as test oracles.

These are the earlier, slower algorithms for the Killing form, the
nilradical (by the four-step closure, and by the word-at-a-time closure
that the round-wise one on rref subspaces replaced), row reduction
(dense, the sparse elimination on Fraction rows that the integer core
replaced, and the integer column sweep that insertion into a reduced
basis replaced), the matrix product and determinant in Fraction
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
one ``evaluate_form`` at a time and sum linear combinations vector
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
membership answers and the same errors.  So do the ``liealg`` spans and
coordinates as they were before they ran on the integer table: [g, g] from
dense Fraction brackets, [U, W] and the centralizer from the Fraction
columns of ad, and the structure constants in matrix coordinates as the
product of the Fraction brackets with the coordinate matrix; the tests
require the same subspaces and algebras.  Last come the test-only helpers
that used to be public names of the library: the coordinate Heisenberg
ideal of a builder output, the ideal generated by vectors, a subspace in
new coordinates, a random integer matrix and B(x, y) for a bilinear form.
So do the ``Matrix`` operations as they ran on rows of Fractions (sum,
difference, scaling, matrix-vector product, transpose, the inverse by a
Fraction rref of [A | I], and the product and determinant on rows
rescaled to integers one at a time), where ``Matrix`` now keeps integer
rows over one denominator; the tests require the same values.  Last, the
interchange boundary as it ran on Fractions: the literal parse by a
``match`` of the pattern, a Fraction and a check that the Fraction
formats back to the text, and the canonical dump by ``json.dumps``, where
``documents`` now parses each literal straight to its integer pair and
writes the text with its own small writer; the tests require the same
values, the same errors and the same bytes.  So do the Heisenberg-ideal
checks as they ran one condition at a time (sizes, omega, hbar, the span,
the ideal condition, then the brackets of the pairs of v_1, ..., v_2m,
hbar) and the search that read hbar and omega off the ambient pair
brackets, where the constructor now compares the transported ideal with
``heisenberg(m, omega)`` and the search reads the algebra on the
candidate; the tests require the same data, the same reasons and the
same answers.  So does that constructor's check as it ran by transport:
the ideal, moved to the basis (v_1, ..., v_2m, hbar) through an inverse,
compared with ``heisenberg(m, omega)``, where the constructor now maps
the basis forward; the tests require it to accept the same data with the
same errors.  So does recovery as it built its basis from Fraction
vectors (the normalized complement, d and its normalization, S and the
base change by ``dot``, ``scale_vec`` and ``sub_vec``), where the library
now builds them on integer rows; the tests require equal records.  The columns of ad x and the pair brackets that the oracles
use are built from the public ``bracket``.
"""

import json
import random
import re
from collections import deque
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from quadlie.errors import ensure
from quadlie.exactla import (
    _ZERO,
    Matrix,
    Subspace,
    _echelon,
    add_vec,
    dot,
    form_restrict_nondegenerate,
    format_rational,
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
    _assemble,
    _require_skew_derivation,
    heisenberg,
    in_omega_algebra,
    standard_symplectic_matrix,
)
from quadlie.liealg import (
    JacobiViolation,
    LieAlgebra,
    _series,
    ad,
    bracket,
    check_jacobi,
    derived_subalgebra,
    is_derivation,
    is_ideal,
    quotient,
    subalgebra_on,
    transport,
)
from quadlie.quadform import (
    BilinearForm,
    MetricViolation,
    QuadraticLieAlgebra,
    _cocycle_system,
    invariant_symmetric_forms,
    restrict_quadratic,
    transport_quadratic,
)
from quadlie.randomized import _BOUND
from quadlie.structure import (
    ComplementWitness,
    RecoveredStructure,
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


def _primitive(row: dict) -> dict:
    """``row`` times the lcm of its denominators, divided by the gcd of the
    resulting numerators: the primitive integer row on the same line."""
    scale = lcm(*(x.denominator for x in row.values()))
    ints = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
    content = gcd(*ints.values())
    if content > 1:
        for j in ints:
            ints[j] //= content
    return ints


def echelon_by_column_sweep(rows: list, ncols: int) -> tuple:
    """Fraction-free Gauss-Jordan on sparse rows by a sweep over the columns.

    ``rows`` are dicts {column: nonzero rational or int}; each is replaced
    by its primitive integer multiple (``_primitive``).  The columns are
    walked left to right.  The pivot of column c is the shortest pending
    row holding c; with pivot entry pv, c is eliminated from every other
    row holding it, pending rows and earlier pivot rows alike, as row <-
    (pv/g) row - (f/g) pivot_row with f the row's entry at c and g =
    gcd(pv, f), over the pivot row's support only; entries that cancel are
    deleted, and the row is divided by its content.  Returns ``_echelon``'s
    ``(rows, pivots)``: each row a primitive integer multiple of its row of
    the reduced row echelon form, in pivot order.
    """
    pending = [_primitive(row) for row in rows if row]
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
        support = list(pivot_row.items())
        for row in chain(holders, done):
            f = row.pop(c, None)
            if f is None:
                continue
            g = gcd(pv, f)
            a, f = pv // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
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
            content = gcd(*row.values())
            if content > 1:
                for j in row:
                    row[j] //= content
        pivot_row[c] = pv
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


def rref_rows_by_echelon(rows: list, ncols: int, core: Callable = _echelon) -> tuple:
    """``_echelon`` (or another ``core`` with its contract) as Fractions:
    the nonzero rows of the reduced row echelon form as dicts {column:
    Fraction}, in pivot order, each divided by its pivot entry once, and
    the pivot columns."""
    done, pivots = core(rows, ncols)
    return [
        {j: Fraction(x, row[c]) for j, x in row.items()} for c, row in zip(pivots, done)
    ], pivots


def _scaled_row(row) -> tuple:
    """(s, ints): s the lcm of the denominators of ``row``, ints its entries times s."""
    s = lcm(*(x.denominator for x in row))
    return s, [x.numerator * (s // x.denominator) for x in row]


def matmul_by_scaled_rows(A: Matrix, B: Matrix) -> Matrix:
    """A @ B with each left row and right column scaled by the lcm of its
    denominators, integer dot products over the nonzero entries of the
    left row, and one Fraction per entry."""
    if A.ncols != B.nrows:
        raise ValueError("inner dimension mismatch")
    columns = zip(*B.rows) if B.rows else [()] * B.ncols
    cols = [_scaled_row(column) for column in columns]
    rows = []
    for row in A.rows:
        da, ints = _scaled_row(row)
        terms = [(j, a) for j, a in enumerate(ints) if a]
        rows.append([Fraction(sum(a * col[j] for j, a in terms), da * db) for db, col in cols])
    return Matrix(rows, B.ncols)


def det_by_scaled_rows(A: Matrix) -> Fraction:
    """Bareiss on the matrix whose row i is scaled by the lcm s_i of its
    denominators: +-(last pivot) / prod(s_i)."""
    if A.nrows != A.ncols:
        raise ValueError("determinant of a non-square matrix")
    scale, rows = 1, []
    for row in A.rows:
        s, ints = _scaled_row(row)
        scale *= s
        rows.append(ints)
    sign, previous = 1, 1
    while rows:
        p = next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            return Fraction(0)
        if p:
            rows[0], rows[p] = rows[p], rows[0]
            sign = -sign
        pv, *top = rows[0]
        rows = [
            [(a * pv - row[0] * b) // previous for a, b in zip(row[1:], top)]
            for row in rows[1:]
        ]
        previous = pv
    return Fraction(sign * previous, scale)


def inverse_fraction(A: Matrix) -> Matrix:
    """The right half of the dense Fraction rref of [A | I]."""
    if A.nrows != A.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = A.nrows
    augmented = Matrix([row + unit_vector(n, i) for i, row in enumerate(A.rows)], 2 * n)
    reduced, pivots = rref_dense(augmented)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([row[n:] for row in reduced.rows], n)


def add_fraction(A: Matrix, B: Matrix) -> Matrix:
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    return Matrix([add_vec(r, s) for r, s in zip(A.rows, B.rows)], A.ncols)


def sub_fraction(A: Matrix, B: Matrix) -> Matrix:
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    return Matrix([sub_vec(r, s) for r, s in zip(A.rows, B.rows)], A.ncols)


def scale_fraction(A: Matrix, c) -> Matrix:
    return Matrix([scale_vec(c, row) for row in A.rows], A.ncols)


def apply_fraction(A: Matrix, v) -> tuple:
    v = vector(v)
    if len(v) != A.ncols:
        raise ValueError("vector length mismatch")
    return tuple(dot(row, v) for row in A.rows)


def transpose_fraction(A: Matrix) -> Matrix:
    return Matrix.from_columns(A.rows, A.ncols)


def evaluate_form(B: BilinearForm, x, y) -> Fraction:
    """B(x, y) = sum of x_i (G_i . y) over the nonzero x_i."""
    x, y = vector(x), vector(y)
    if len(x) != B.dim or len(y) != B.dim:
        raise ValueError("vector length mismatch")
    return sum((a * dot(B.gram.rows[i], y) for i, a in enumerate(x) if a), Fraction(0))


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
    # symmetric: row p is column p
    ginv = [{j: x for j, x in enumerate(row) if x} for row in q.metric.gram.inverse().rows]
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
            mu = evaluate_form(S.metric, D.column(i), unit_vector(k, j))
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
    a_vecs = normalized_complement_by_fractions(q, h)
    k = len(a_vecs)
    E_inv = Matrix.from_columns(a_vecs + list(h.v_basis) + [h.hbar], n).inverse()
    brackets = {}
    for i, j in combinations(range(k), 2):
        coords = E_inv.apply(bracket(q.algebra, a_vecs[i], a_vecs[j]))
        ensure(not any(coords[k:n - 1]), "[a, b] has a V-component")
        brackets[(i, j)] = (coords[:k], coords[n - 1])
    return a_vecs, E_inv, brackets


def _split_off_d_by_evaluation(B: BilinearForm, hbar, rows) -> tuple:
    eta = [evaluate_form(B, a, hbar) for a in rows]
    jd = next((i for i, x in enumerate(eta) if x != 0), None)
    ensure(jd is not None, "B(., hbar) vanishes on the complement")
    d = scale_vec(1 / eta[jd], rows[jd])
    rest = [sub_vec(a, scale_vec(eta[i], d)) for i, a in enumerate(rows) if i != jd]
    return d, rest


def metric_on_complement_by_evaluation(
    q: QuadraticLieAlgebra, h, comp: Subspace
) -> BilinearForm:
    """The quotient metric of a subalgebra complement, one
    ``evaluate_form`` per Gram entry and the quotient
    representatives summed row by row."""
    B = q.metric
    n = q.dim
    q_alg, proj = quotient(q.algebra, h.ideal)
    comp_rows = comp.vectors()
    d, s_rows = _split_off_d_by_evaluation(B, h.hbar, comp_rows)
    if s_rows:
        G_S0 = Matrix(
            [[evaluate_form(B, a, b) for b in s_rows] for a in s_rows], len(s_rows)
        )
        rhs = tuple(evaluate_form(B, d, s) for s in s_rows)
        correction = solve(G_S0, rhs)
        ensure(correction is not None, "cannot orthogonalize d against S")
        for i, c in enumerate(correction):
            if c != 0:
                d = sub_vec(d, scale_vec(c, s_rows[i]))
        for s in s_rows:
            ensure(evaluate_form(B, d, s) == 0, "d orthogonalization failed")

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
    lambdas = [evaluate_form(B, rep, h.hbar) for rep in reps]
    s_parts = [sub_vec(rep, scale_vec(lam, d)) for rep, lam in zip(reps, lambdas)]
    gram_rows = [
        [
            evaluate_form(B, s_parts[t], s_parts[u]) + lambdas[t] * lambdas[u]
            for u in range(q_alg.dim)
        ]
        for t in range(q_alg.dim)
    ]
    return BilinearForm(Matrix(gram_rows, q_alg.dim))


def complement_from_metric_by_evaluation(
    q: QuadraticLieAlgebra, h, Ba: BilinearForm
) -> ComplementWitness:
    """The complement witness built from an invariant quotient metric by the
    musical maps, one ``evaluate_form`` per Gram entry, ad(a_s) one
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
        [[evaluate_form(Ba, pi_a[i], pi_a[j]) for j in range(qd)] for i in range(qd)],
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
        [[evaluate_form(B, a_vecs[i], a_vecs[j]) for j in range(qd)] for i in range(qd)],
        qd,
    )
    phi_on_a = G_a_inv @ G_res
    eta = [evaluate_form(B, a, h.hbar) for a in a_vecs]
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


# -- liealg spans and coordinates before the integer core ----------------------

def _ad_columns(g: LieAlgebra, x) -> List[tuple]:
    """[x, e_j] for every j: the columns of ad x, by the public ``bracket``."""
    return [bracket(g, x, e) for e in Matrix.identity(g.dim).rows]


def _pair_brackets(g: LieAlgebra, vectors) -> List[tuple]:
    """[u_i, u_j] for the pairs i < j in lexicographic order, by ``bracket``."""
    return [bracket(g, u, w) for u, w in combinations(vectors, 2)]


def derived_subalgebra_fraction(g: LieAlgebra) -> Subspace:
    """[g, g] = span of all basis brackets."""
    vecs = []
    for terms in g.structure.values():
        out = [_ZERO] * g.dim
        for k, c in terms:
            out[k] = c
        vecs.append(tuple(out))
    return Subspace.from_vectors(g.dim, vecs)


def bracket_subspaces_fraction(g: LieAlgebra, U: Subspace, W: Subspace) -> Subspace:
    """[U, W] from the Fraction columns of ad w when U = g, else from the
    Fraction pair brackets when W = U, else from every basis pair."""
    if U.ambient_dim != g.dim or W.ambient_dim != g.dim:
        raise ValueError("ambient dimension mismatch")
    if U.is_full():
        vectors = [column for w in W.vectors() for column in _ad_columns(g, w)]
    elif W == U:
        vectors = _pair_brackets(g, U.vectors())
    else:
        vectors = [bracket(g, u, w) for u in U.vectors() for w in W.vectors()]
    return Subspace.from_vectors(g.dim, vectors)


def lower_central_series_fraction(g: LieAlgebra) -> List[Subspace]:
    full = Subspace.full(g.dim)
    return _series(g, lambda U: bracket_subspaces_fraction(g, full, U))


def centralizer_fraction(g: LieAlgebra, U: Subspace) -> Subspace:
    """{x : [x, u] = 0 for all u in U}.

    [u, x] = ad(u) x, so x lies in the kernel of the stacked ad(u) rows;
    the kernel of -ad(u) that [x, u] suggests is the same subspace.
    """
    if U.ambient_dim != g.dim:
        raise ValueError("ambient dimension mismatch")
    if U.is_zero():
        return Subspace.full(g.dim)
    rows = []
    for u in U.vectors():
        rows.extend(zip(*_ad_columns(g, u)))
    return kernel(Matrix(rows, g.dim))


def structure_in_matrix_fraction(g: LieAlgebra, vectors, coordinates: Matrix) -> dict:
    """The coordinates of the pair brackets as the rows of brackets @ M."""
    brackets = tuple(_pair_brackets(g, vectors))
    rows = (Matrix._unchecked(brackets, g.dim) @ coordinates).rows
    structure = {}
    for pair, row in zip(combinations(range(len(vectors)), 2), rows):
        terms = [(k, c) for k, c in enumerate(row) if c != 0]
        if terms:
            structure[pair] = terms
    return structure


def transport_matrix_fraction(
    g: LieAlgebra, P: Matrix, basis_labels: Optional[Sequence[str]] = None
) -> LieAlgebra:
    if basis_labels is None:
        basis_labels = [f"b{t + 1}" for t in range(g.dim)]
    return LieAlgebra(g.dim, structure_in_matrix_fraction(g, P.rows, P.inverse()), basis_labels)


# -- the Heisenberg-ideal checks one condition at a time -------------------------

def heisenberg_data_checks_by_pairs(g: LieAlgebra, ideal: Subspace, hbar, v_basis, omega) -> None:
    """The ``HeisenbergIdealData`` checks as separate conditions: sizes,
    omega skew and nondegenerate, hbar a nonzero element of the ideal,
    v_basis and hbar spanning it, the ideal condition, and then, from the
    brackets of the pairs of v_1, ..., v_2m, hbar, hbar central in the
    ideal and [v_i, v_j] = omega_ij hbar.  Raises ``ValueError`` at the
    first that fails."""
    if ideal.ambient_dim != g.dim:
        raise ValueError("ideal ambient dimension mismatch")
    dim = ideal.dim
    if dim < 3 or dim % 2 == 0:
        raise ValueError("Heisenberg ideal must have odd dimension >= 3")
    if len(v_basis) != dim - 1:
        raise ValueError("v_basis size does not match the ideal dimension")
    if omega.shape != (dim - 1, dim - 1):
        raise ValueError("omega size does not match v_basis")
    if not omega.is_skew_symmetric() or omega.det() == 0:
        raise ValueError("omega must be skew-symmetric and nondegenerate")
    if all(x == 0 for x in hbar) or not ideal.contains(hbar):
        raise ValueError("hbar must be a nonzero element of the ideal")
    if Subspace.from_vectors(g.dim, list(v_basis) + [hbar]) != ideal:
        raise ValueError("v_basis and hbar do not span the ideal")
    if not is_ideal_by_brackets(g, ideal):
        raise ValueError("the subspace is not an ideal")
    brackets = dict(zip(combinations(range(dim), 2), _pair_brackets(g, tuple(v_basis) + (hbar,))))
    if any(any(brackets[(i, dim - 1)]) for i in range(dim - 1)):
        raise ValueError("hbar is not central in the ideal")
    for i, j in combinations(range(dim - 1), 2):
        if brackets[(i, j)] != scale_vec(omega.entry(i, j), hbar):
            raise ValueError("brackets do not match omega")


def heisenberg_data_by_pairs(g: LieAlgebra, candidate: Subspace) -> Union[tuple, str]:
    """(hbar, v_basis, omega) on ``candidate``, or why there is none, read
    off the ambient brackets of the pairs of candidate rows: hbar is the
    rref generator of their span, v_basis the candidate rows but the one
    at the first nonzero coordinate of hbar, and omega the entries of the
    brackets at hbar's pivot; ``heisenberg_data_checks_by_pairs`` checks
    the rest."""
    dim = candidate.dim
    if dim == 0:
        return "derived subalgebra is zero"
    if dim % 2 == 0 or dim < 3:
        return f"derived subalgebra has dimension {dim}, not 2m+1 with m >= 1"
    rows = candidate.vectors()
    brackets = dict(zip(combinations(range(dim), 2), _pair_brackets(g, rows)))
    derived = Subspace.from_vectors(g.dim, brackets.values())
    if derived.dim != 1:
        return f"derived subalgebra of the candidate has dimension {derived.dim}, expected 1"
    failed = "candidate fails the Heisenberg bracket relations"
    hbar = derived.vectors()[0]
    coords = candidate.coordinates_of(hbar)
    if coords is None:
        return failed
    skip = next(i for i, c in enumerate(coords) if c != 0)
    kept = [i for i in range(dim) if i != skip]
    pivot = next(i for i, x in enumerate(hbar) if x != 0)
    omega = Matrix(
        [[brackets[(a, b)][pivot] if a < b else -brackets[(b, a)][pivot] if a > b else 0
          for b in kept] for a in kept],
        dim - 1,
    )
    v_basis = tuple(rows[i] for i in kept)
    try:
        heisenberg_data_checks_by_pairs(g, candidate, hbar, v_basis, omega)
    except ValueError:
        return failed
    return hbar, v_basis, omega


# -- test-only helpers ---------------------------------------------------------

def heisenberg_ideal_span(q: QuadraticLieAlgebra, m: int) -> Subspace:
    """The canonical ideal V ⊕ QQ hbar of a build_with_heisenberg_ideal output."""
    n = q.dim
    vecs = [unit_vector(n, i) for i in range(n - 1 - 2 * m, n)]
    return Subspace.from_vectors(n, vecs)


def ideal_generated_by(g: LieAlgebra, vectors_in) -> Subspace:
    """Smallest ideal containing the given vectors (closure under ad).

    Each round adds the columns of ad(u) for every basis vector u of the
    current span, until the span stops growing.
    """
    current = Subspace.from_vectors(g.dim, [vector(v) for v in vectors_in])
    for _ in range(g.dim + 1):
        new_vecs = list(current.vectors())
        for u in current.vectors():
            new_vecs.extend(_ad_columns(g, u))
        nxt = Subspace.from_vectors(g.dim, new_vecs)
        if nxt == current:
            return current
        current = nxt
    return current


def transport_subspace(U: Subspace, P: Matrix) -> Subspace:
    """Coordinates of U in the new basis given by the rows of P."""
    try:
        Pt_inv = P.transpose().inverse()
    except ValueError as exc:
        raise ValueError("base change matrix is singular") from exc
    vecs = [Pt_inv.apply(v) for v in U.vectors()]
    return Subspace.from_vectors(U.ambient_dim, vecs)


def random_integer_matrix(rng: random.Random, nrows: int, ncols: int) -> Matrix:
    return Matrix(
        [[Fraction(rng.randint(-_BOUND, _BOUND)) for _ in range(ncols)] for _ in range(nrows)],
        ncols,
    )


# -- the interchange boundary on Fractions and the json encoder -----------------

def parse_rational_fraction(text) -> Fraction:
    """The literal ``p`` or ``p/q`` read by a ``match`` of the pattern and a
    Fraction, canonical when the Fraction formats back to ``text``."""
    if not isinstance(text, str) or not re.match(r"^-?[0-9]+(/[1-9][0-9]*)?$", text):
        raise ValueError(f"not a rational literal: {text!r}")
    p, _, q = text.partition("/")
    value = Fraction(int(p), int(q)) if q else Fraction(int(p))
    if format_rational(value) != text:
        raise ValueError(f"rational literal not in canonical form: {text!r}")
    return value


def dumps_by_encoder(data) -> str:
    """Canonical JSON text by the standard library's encoder."""
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# -- the Heisenberg certificate by transport and recovery on Fractions ----------

def heisenberg_certificate_by_transport(
    algebra: LieAlgebra, ideal: Subspace, hbar, v_basis, omega
) -> None:
    """The ``HeisenbergIdealData`` checks with the transport equality: the
    ideal, transported to the basis (v_1, ..., v_2m, hbar) through the
    inverse of C, equals ``heisenberg(m, omega)``; raises the constructor's
    ``ValueError``s."""
    if ideal.ambient_dim != algebra.dim:
        raise ValueError("ideal ambient dimension mismatch")
    dim = ideal.dim
    if dim < 3 or dim % 2 == 0:
        raise ValueError("Heisenberg ideal must have odd dimension >= 3")
    if len(v_basis) != dim - 1:
        raise ValueError("v_basis size does not match the ideal dimension")
    if not is_ideal(algebra, ideal):
        raise ValueError("the subspace is not an ideal")
    C = ideal.coordinate_rows((*v_basis, hbar))
    if C is None or C.det() == 0:
        raise ValueError("v_basis and hbar do not span the ideal")
    if transport(subalgebra_on(algebra, ideal), C) != heisenberg((dim - 1) // 2, omega):
        raise ValueError("the ideal is not h_m(omega) in the basis v_basis, hbar")


def normalized_complement_by_fractions(q: QuadraticLieAlgebra, h) -> List[tuple]:
    """The normalized complement of ``recover_structure`` with Fraction
    vectors: the rref basis of V^perp without the row at the first nonzero
    coordinate of hbar."""
    g, B = q.algebra, q.metric
    n = g.dim
    two_m = 2 * h.m
    V_sub = Subspace.from_vectors(n, h.v_basis)
    ensure(V_sub.dim == two_m, "v_basis is not linearly independent")
    ensure(
        form_restrict_nondegenerate(B.gram, V_sub),
        "metric degenerates on the symplectic part of the ideal",
    )
    VG = V_sub.basis @ B.gram
    Vperp = kernel(VG)
    ensure(Vperp.dim == n - two_m, "wrong orthogonal dimension")
    gamma = Vperp.coordinates_of(h.hbar)
    ensure(gamma is not None, "hbar does not lie in V^perp")
    pivot = next((i for i, c in enumerate(gamma) if c != 0), None)
    ensure(pivot is not None, "hbar vanished in V^perp coordinates")
    a_vecs = [row for i, row in enumerate(Vperp.vectors()) if i != pivot]
    for a in a_vecs:
        ensure(all(x == 0 for x in VG.apply(a)), "complement does not lie in V^perp")
    return a_vecs


def _split_off_d_by_fractions(G_hbar, rows) -> tuple:
    """d = a / B(a, hbar) for the first row a with B(a, hbar) != 0, and the
    other rows minus their B(., hbar) multiple of d."""
    eta = [dot(a, G_hbar) for a in rows]
    jd = next((i for i, x in enumerate(eta) if x != 0), None)
    ensure(jd is not None, "B(., hbar) vanishes on the complement")
    d = scale_vec(1 / eta[jd], rows[jd])
    rest = [sub_vec(a, scale_vec(eta[i], d)) for i, a in enumerate(rows) if i != jd]
    return d, rest


def recover_structure_by_fractions(q: QuadraticLieAlgebra, h) -> RecoveredStructure:
    """``recover_structure`` with its basis built from Fraction vectors: d,
    its normalization, S and the base change by ``dot``, ``scale_vec`` and
    ``sub_vec``; the transport and the blocks read off it as in the
    library."""
    g, B = q.algebra, q.metric
    n = g.dim
    two_m = 2 * h.m
    ensure(ad(g, h.hbar).is_zero(), "hbar is not central in the ambient algebra")
    G_hbar = B.gram.apply(h.hbar)
    ensure(all(x == 0 for x in h.ideal.basis.apply(G_hbar)), "hbar is not orthogonal to the ideal")
    a_vecs = normalized_complement_by_fractions(q, h)
    d, ker_eta = _split_off_d_by_fractions(G_hbar, a_vecs)
    G_d = B.gram.apply(d)
    t = dot(d, G_d) / 2
    d, G_d = sub_vec(d, scale_vec(t, h.hbar)), sub_vec(G_d, scale_vec(t, G_hbar))
    ensure(dot(d, G_d) == 0, "d normalization failed")
    ensure(dot(d, G_hbar) == 1, "B(d, hbar) != 1")
    s_raw = [sub_vec(a, scale_vec(dot(a, G_d), h.hbar)) for a in ker_eta]
    S_sub = Subspace.from_vectors(n, s_raw)
    k = len(ker_eta)
    ensure(S_sub.dim == k, "S lost dimension")
    P = Matrix(list(S_sub.vectors()) + [d] + list(h.v_basis) + [h.hbar], n)
    transported = transport_quadratic(q, P)
    dT, table = transported.algebra._integers
    G = transported.metric.gram._ints
    d_slot, v_slots, h_slot = k, range(k + 1, k + 1 + two_m), n - 1

    def coords(i: int, j: int) -> List[int]:
        out = [0] * n
        for t, v in table[i][j]:
            out[t] = v
        return out

    for i in range(k):
        ensure(G[i][d_slot] == 0 and G[i][h_slot] == 0, "B(S, d) or B(S, hbar) != 0")
        ensure(all(G[i][t] == 0 for t in v_slots), "B(S, V) != 0")
    s_structure = {}
    for i, j in combinations(range(k), 2):
        c = coords(i, j)
        ensure(c[d_slot] == 0 and not any(c[k + 1:h_slot]), "[S, S] left S + hbar")
        s_structure[(i, j)] = list(enumerate(c[:k]))
    D_cols = []
    for j in range(k):
        c = coords(d_slot, j)
        ensure(not any(c[k:]), "[d, S] left S")
        D_cols.append(c[:k])
    D_mat = Matrix._from_ints(tuple(zip(*D_cols)), k, dT)
    sigma_cols = []
    for j in v_slots:
        c = coords(d_slot, j)
        ensure(not any(c[:k + 1]) and c[h_slot] == 0, "[d, V] left V")
        sigma_cols.append(c[k + 1:h_slot])
    sigma_mat = Matrix._from_ints(tuple(zip(*sigma_cols)), two_m, dT)
    ensure(sigma_mat.det() != 0 and in_omega_algebra(sigma_mat, h.omega), "bad sigma(D)")
    ensure(all(not table[i][j] for i in range(k) for j in v_slots), "[S, V] != 0")
    e = transported.metric.gram._den
    B_S = Matrix._from_ints(tuple([row[:k] for row in G[:k]]), k, e)
    gram_V = Matrix._from_ints(tuple([G[t][k + 1:h_slot] for t in v_slots]), two_m, e)
    ensure(k == 0 or B_S.det() != 0, "metric degenerates on S")
    ensure(sigma_mat.transpose() @ gram_V == h.omega, "metric on V does not match omega")
    s_algebra = LieAlgebra._from_ints(k, dT, s_structure, [f"s{t + 1}" for t in range(k)])
    core = QuadraticLieAlgebra._unchecked(s_algebra, BilinearForm(B_S))
    ensure(is_derivation(s_algebra, D_mat), "recovered D is not a derivation")
    ensure((D_mat.transpose() @ B_S + B_S @ D_mat).is_zero(), "recovered D is not skew")
    sigma_map = SymplecticMap._unchecked(h.omega, sigma_mat)
    algebra, gram = _assemble(core, D_mat, sigma_map.space, sigma_mat)
    rebuilt = QuadraticLieAlgebra._unchecked(algebra, BilinearForm(gram))
    ensure(transported == rebuilt, "round trip failed")
    return RecoveredStructure(S_sub, D_mat, d, sigma_map, h, P, core, rebuilt, tuple(a_vecs))
