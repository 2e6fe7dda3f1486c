"""Lie algebras presented by structure constants over QQ.

An algebra's value is the signed table of its structure constants as
integers over one common denominator, normalized so that the form is
unique; the bracket kernels sum integers over that table and build
Fractions only for their results, and the Fraction structure constants
are a view built when they are read.  Two kernels carry every bracket of
vectors: ``_integer_ad`` sums the columns of ad x and ``_pair_sums`` the
brackets of all pairs of rows; ``bracket``, ``ad``, the spans,
``is_derivation`` and ``_structure_in`` (with it ``transport``,
``quotient`` and ``subalgebra_on``) read them.  Antisymmetry is
structural.  All operations are pure and return new values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import attrgetter, mul
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .exactla import (
    _ZERO,
    Matrix,
    SparseSystem,
    Subspace,
    Vector,
    _Value,
    _fractions,
    _integer_row,
    kernel,
    rat,
    vector,
)

StructureInput = Mapping


class JacobiViolation(NamedTuple):
    i: int
    j: int
    k: int
    residual: Vector


def _checked_labels(dim: int, basis_labels: Sequence) -> List[str]:
    """The labels as strings; ``ValueError`` unless there are ``dim``."""
    labels = [str(s) for s in basis_labels]
    if len(labels) != dim:
        raise ValueError("label count does not match dimension")
    return labels


class LieAlgebra(_Value):
    """A Lie algebra of dimension ``dim`` by its structure constants.

    The value is (d, table), read by ``_integer_table``: table[i][j], for
    both orders of i != j, holds the (k, v), v a nonzero int, sorted by k,
    with [e_i, e_j] = sum v / d e_k, and gcd(d, all v) = 1, so the form is
    unique and equality and hash compare it.  The constructor, the
    boundary for outside input, coerces each coefficient with ``rat``,
    accepts a zero diagonal term, raises ``ValueError`` on a nonzero one or
    an index out of range, and hands the terms to ``_from_ints``.  A copy
    is rebuilt by ``_from_ints`` from the table.  ``structure``, the
    read-only view {(i, j): ((k, c), ...)}, i < j, c a nonzero Fraction,
    is built on first read.  Basis labels are cosmetic.
    """

    __slots__ = ("dim", "basis_labels", "_integers", "_structure")
    _key = attrgetter("dim", "_integers")

    def __init__(
        self,
        dim: int,
        structure: StructureInput,
        basis_labels: Optional[Sequence[str]] = None,
    ):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if basis_labels is None:
            basis_labels = [f"e{i + 1}" for i in range(dim)]
        else:
            basis_labels = _checked_labels(dim, basis_labels)
        terms = []
        for (i, j), entries in structure.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index out of range: ({i}, {j})")
            for k, c in entries.items() if isinstance(entries, Mapping) else entries:
                if not 0 <= k < dim:
                    raise ValueError(f"target index out of range: {k}")
                c = rat(c)
                if c:
                    if i == j:
                        raise ValueError("nonzero diagonal bracket")
                    terms.append((i, j, k, c))
        d = lcm(*[c.denominator for *_, c in terms])
        brackets: Dict[Tuple[int, int], list] = {}
        for i, j, k, c in terms:
            brackets.setdefault((i, j), []).append((k, c.numerator * (d // c.denominator)))
        self._set(dim, d, brackets, basis_labels)

    @classmethod
    def _from_ints(
        cls, dim: int, d: int, brackets: Mapping, basis_labels: Sequence[str]
    ) -> "LieAlgebra":
        """The algebra with [e_i, e_j] = sum v / d e_k over the integer
        (k, v) of brackets[(i, j)], i != j, d > 0: a key (j, i), j > i, is
        negated into (i, j), repeated targets are summed, zeros dropped."""
        return object.__new__(cls)._set(dim, d, brackets, basis_labels)

    def _set(
        self, dim: int, den: int, brackets: Mapping, basis_labels: Sequence[str]
    ) -> "LieAlgebra":
        slots: Dict[Tuple[int, int], Dict[int, int]] = {}
        for (i, j), terms in brackets.items():
            sign = 1 if i < j else -1
            slot = slots.setdefault((i, j) if i < j else (j, i), {})
            for k, v in terms:
                slot[k] = slot.get(k, 0) + sign * v
        upper, g = [], den
        for key, slot in slots.items():
            entries = [(k, v) for k, v in sorted(slot.items()) if v]
            if entries:
                upper.append((key, entries))
                g = gcd(g, *[v for _, v in entries])
        rows = [[()] * dim for _ in range(dim)]
        for (i, j), entries in upper:
            if g != 1:
                entries = [(k, v // g) for k, v in entries]
            rows[i][j] = tuple(entries)
            rows[j][i] = tuple([(k, -v) for k, v in entries])
        table = tuple([tuple(row) for row in rows])
        return self._fill(dim, tuple(basis_labels), (den // g, table), None)

    @property
    def structure(self) -> Mapping:
        """The Fraction structure constants {(i, j): ((k, c), ...)}, i < j,
        built on first read."""
        structure = self._structure
        if structure is None:
            d, table = self._integers
            structure = MappingProxyType({
                pair: tuple([(k, Fraction(v, d)) for k, v in terms])
                for pair, terms in _upper(table).items()
            })
            object.__setattr__(self, "_structure", structure)
        return structure

    @classmethod
    def abelian(cls, dim: int, basis_labels: Optional[Sequence[str]] = None) -> "LieAlgebra":
        return cls(dim, {}, basis_labels)

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a coordinate vector, read off the integer table."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError("basis index out of range")
        d, table = self._integers
        out = [_ZERO] * self.dim
        for k, v in table[i][j]:
            out[k] = Fraction(v, d)
        return tuple(out)

    def __reduce__(self):
        d, table = self._integers
        return LieAlgebra._from_ints, (self.dim, d, _upper(table), self.basis_labels)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, brackets={len(_upper(self._integers[1]))})"


def _upper(table: tuple) -> Dict[Tuple[int, int], tuple]:
    """{(i, j): table[i][j]} over the pairs i < j whose bracket is nonzero,
    in lexicographic order: the one walk over the pairs of a table."""
    return {
        (i, j): row[j] for i, row in enumerate(table) for j in range(i + 1, len(row)) if row[j]
    }


def _integer_table(g: LieAlgebra) -> tuple:
    """(d, table): the value of g (see ``LieAlgebra``), d the lcm of the
    structure-constant denominators and table[i][j] the nonzero (k, d c)
    with [e_i, e_j] = sum c e_k, as ints."""
    return g._integers


def _integer_ad(table: tuple, ints: Sequence[int]) -> List[List[int]]:
    """columns[j] = sum_i ints_i table[i][j]: the columns of ad x times
    s d, for ints = s x, read off the table over the support of x."""
    n = len(table)
    columns = [[0] * n for _ in range(n)]
    for xi, row in zip(ints, table):
        if xi:
            for column, terms in zip(columns, row):
                for k, c in terms:
                    column[k] += xi * c
    return columns


def _pair_sums(table: tuple, rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """sum_ab x_a y_b table[a][b] for the pairs x, y = rows[i], rows[j],
    i < j, in lexicographic order: d [x, y] for integer rows, in one pass.

    The nonzero entries of the columns of the integer ad of each row
    (``_integer_ad``) are summed against every later row.
    """
    n = len(table)
    out = []
    for i, xs in enumerate(rows):
        later = rows[i + 1:]
        if not later:
            break
        columns = [
            [(k, v) for k, v in enumerate(column) if v] for column in _integer_ad(table, xs)
        ]
        for ys in later:
            acc = [0] * n
            for yb, column in zip(ys, columns):
                if yb:
                    for k, v in column:
                        acc[k] += yb * v
            out.append(acc)
    return out


def bracket(g: LieAlgebra, x: Sequence, y: Sequence) -> Vector:
    """Bilinear extension of the structure constants to arbitrary vectors:
    x and y are each scaled once to integers s x and t y, summed over the
    table in one pass (``_pair_sums``), and each nonzero entry is divided
    once by s t d."""
    x, y = vector(x), vector(y)
    if len(x) != g.dim or len(y) != g.dim:
        raise ValueError("vector dimension mismatch")
    d, table = _integer_table(g)
    (s, xs), (t, ys) = _integer_row(x), _integer_row(y)
    return _fractions(_pair_sums(table, (xs, ys))[0], s * t * d)


def _structure_in(
    g: LieAlgebra, vectors: Matrix, coordinates: Union[Matrix, Subspace]
) -> Optional[Tuple[int, Dict[Tuple[int, int], list]]]:
    """Structure constants of g on the span of the rows u_i of ``vectors``,
    as (den, brackets): [u_i, u_j] = sum v / den u_k over the nonzero int
    (k, v) of brackets[(i, j)], i < j.

    One pass over the pairs of the integer rows (``_pair_sums``) gives
    s^2 d [u_i, u_j], s the denominator of ``vectors``.  With a matrix M
    the coordinates are [u_i, u_j] @ M on M's integer rows, so den = s^2 d
    e, e M's denominator.  With a subspace U whose rref basis is
    ``vectors`` they are the entries at U's pivot columns, and den = s^2 d,
    once ``Subspace._all_in`` has checked that every bracket lies in U;
    otherwise None is returned.
    """
    d, table = _integer_table(g)
    s = vectors._den
    sums = _pair_sums(table, vectors._ints)
    if isinstance(coordinates, Subspace):
        if not coordinates._all_in(sums):
            return None
        pivots = coordinates.pivots
        rows = [[ints[p] for p in pivots] for ints in sums]
        den = s * s * d
    else:
        columns = list(zip(*coordinates._ints))
        rows = [[sum(map(mul, ints, c)) for c in columns] for ints in sums]
        den = s * s * d * coordinates._den
    brackets = {}
    for pair, ints in zip(combinations(range(vectors.nrows), 2), rows):
        terms = [(k, v) for k, v in enumerate(ints) if v]
        if terms:
            brackets[pair] = terms
    return den, brackets


def check_jacobi(g: LieAlgebra) -> List[JacobiViolation]:
    """All triples i < j < k where the Jacobi identity fails.

    The residual [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is
    expanded through the signed integer table d c (``_integer_table``):
    each nonzero d c_ab^p meets only the nonzero entries of [e_p, e_t], so
    a triple whose three brackets vanish costs no arithmetic.  The sums are
    d^2 times the residual; it is reported as a dense tuple of Fractions
    r / d^2.
    """
    n = g.dim
    d, table = _integer_table(g)
    dd = d * d
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                residual: Dict[int, int] = {}
                for a, b, t in ((i, j, k), (j, k, i), (k, i, j)):
                    for p, c in table[a][b]:
                        for s, x in table[p][t]:
                            residual[s] = residual.get(s, 0) + c * x
                if any(residual.values()):
                    violations.append(JacobiViolation(
                        i, j, k, tuple(Fraction(residual.get(s, 0), dd) for s in range(n))
                    ))
    return violations


def ad(g: LieAlgebra, x: Sequence) -> Matrix:
    """The matrix of y -> [x, y]: the ``_integer_ad`` columns of s x over
    the denominator s d."""
    x = vector(x)
    if len(x) != g.dim:
        raise ValueError("vector dimension mismatch")
    d, table = _integer_table(g)
    s, ints = _integer_row(x)
    return Matrix._from_ints(tuple(zip(*_integer_ad(table, ints))), g.dim, s * d)


def bracket_subspaces(g: LieAlgebra, U: Subspace, W: Subspace) -> Subspace:
    """span{[u, w] : u in U, w in W}.

    The columns of ad w, w in W's basis (``_integer_ad``), span [g, w];
    when U is the whole algebra they are the rows as they are, otherwise
    the rows of U's basis times ad(w)^T are the [w, u].  Both hand integer
    rows to the elimination core.
    """
    if U.ambient_dim != g.dim or W.ambient_dim != g.dim:
        raise ValueError("ambient dimension mismatch")
    _, table = _integer_table(g)
    rows = []
    for w in W.basis._ints:
        columns = _integer_ad(table, w)
        if not U.is_full():
            columns = (U.basis @ Matrix._from_ints(columns, g.dim))._ints
        rows.extend(columns)
    return Subspace._spanned_by(g.dim, [{k: v for k, v in enumerate(row) if v} for row in rows])


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    """[g, g] = span of all basis brackets, the ``_integer_table`` rows."""
    _, table = _integer_table(g)
    return Subspace._spanned_by(g.dim, [dict(terms) for terms in _upper(table).values()])


def _series(g: LieAlgebra, step: Callable[[Subspace], Subspace]) -> List[Subspace]:
    """g, step(g), step(step(g)), ... until a term is zero or repeats."""
    series = [Subspace.full(g.dim)]
    while not series[-1].is_zero():
        nxt = step(series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def derived_series(g: LieAlgebra) -> List[Subspace]:
    """g ⊇ [g,g] ⊇ [[g,g],[g,g]] ⊇ ... until stabilization."""
    return _series(g, lambda U: bracket_subspaces(g, U, U))


def lower_central_series(g: LieAlgebra) -> List[Subspace]:
    """g ⊇ [g,g] ⊇ [g,[g,g]] ⊇ ... until stabilization."""
    full = Subspace.full(g.dim)
    return _series(g, lambda U: bracket_subspaces(g, full, U))


def is_solvable(g: LieAlgebra) -> bool:
    """Cartan's criterion K(g, [g, g]) = 0; needs the Jacobi identity."""
    return (derived_subalgebra(g).basis @ killing_form(g)).is_zero()


def is_nilpotent(g: LieAlgebra) -> bool:
    return lower_central_series(g)[-1].is_zero()


def center(g: LieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}, the centralizer of the whole algebra."""
    return centralizer(g, Subspace.full(g.dim))


def centralizer(g: LieAlgebra, U: Subspace) -> Subspace:
    """{x : [x, u] = 0 for all u in U}.

    [u, x] = ad(u) x, so x lies in the kernel of the stacked ad(u) rows;
    the kernel of -ad(u) that [x, u] suggests is the same subspace.  Its
    rows are those of ``_integer_ad`` on U's integer basis rows.
    """
    if U.ambient_dim != g.dim:
        raise ValueError("ambient dimension mismatch")
    if U.is_zero():
        return Subspace.full(g.dim)
    _, table = _integer_table(g)
    system = SparseSystem(g.dim)
    for u in U.basis._ints:
        for row in zip(*_integer_ad(table, u)):
            system.add(enumerate(row))
    return kernel(system)


def is_subalgebra(g: LieAlgebra, U: Subspace) -> bool:
    """[U, U] ⊆ U: every pair of basis vectors brackets into U."""
    return _structure_in(g, U.basis, U) is not None


def is_ideal(g: LieAlgebra, U: Subspace) -> bool:
    """[g, U] ⊆ U: every column [u, e_j] of ad(u), u in U's basis, lies in U.

    The columns stay integers, t d [u, e_j] (``_integer_ad`` on U's
    integer basis rows t u), since the scale does not change whether they
    lie in U (``Subspace._all_in``).
    """
    if U.ambient_dim != g.dim:
        raise ValueError("ambient dimension mismatch")
    _, table = _integer_table(g)
    return U._all_in(column for u in U.basis._ints for column in _integer_ad(table, u))


def quotient(g: LieAlgebra, I: Subspace) -> Tuple[LieAlgebra, Matrix]:
    """Quotient algebra g/I with the matrix of its projection.

    The quotient coordinates are the non-pivot coordinates of the ideal's
    rref basis, making the construction deterministic.  The projection is
    read off that basis: e_c maps to the unit vector of c for a non-pivot
    column c, and e_p, which reduces to e_p minus the row of pivot p, maps
    to minus that row read at the non-pivot columns.
    """
    if not is_ideal(g, I):
        raise ValueError("subspace is not an ideal")
    # on the integer rows t b_p of the basis, the projection times t
    t = I.basis._den
    row_at = dict(zip(I.pivots, I.basis._ints))
    complement_cols = [c for c in range(g.dim) if c not in row_at]
    proj_rows = tuple(
        tuple(-row_at[j][c] if j in row_at else t * (j == c) for j in range(g.dim))
        for c in complement_cols
    )
    proj = Matrix._from_ints(proj_rows, g.dim, t)
    units = tuple([tuple([int(j == c) for j in range(g.dim)]) for c in complement_cols])
    labels = [g.basis_labels[c] + "~" for c in complement_cols]
    den, brackets = _structure_in(g, Matrix._from_ints(units, g.dim), proj.transpose())
    return LieAlgebra._from_ints(len(complement_cols), den, brackets, labels), proj


def subalgebra_on(g: LieAlgebra, U: Subspace) -> LieAlgebra:
    """The algebra structure on a subalgebra U, in its rref basis.

    One pass brackets each basis pair once; a bracket outside U raises
    ``ValueError``.
    """
    structure = _structure_in(g, U.basis, U)
    if structure is None:
        raise ValueError("subspace is not a subalgebra")
    return LieAlgebra._from_ints(U.dim, *structure, [f"r{t + 1}" for t in range(U.dim)])


def direct_sum(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """Block-wise direct sum; the two summands commute.  The two integer
    tables are put over the product of their denominators, and
    ``LieAlgebra._from_ints`` divides out the common factor."""
    n1 = g1.dim
    (d1, table1), (d2, table2) = _integer_table(g1), _integer_table(g2)
    brackets = {pair: [(k, v * d2) for k, v in terms] for pair, terms in _upper(table1).items()}
    for (i, j), terms in _upper(table2).items():
        brackets[(i + n1, j + n1)] = [(k + n1, v * d1) for k, v in terms]
    return LieAlgebra._from_ints(n1 + g2.dim, d1 * d2, brackets, g1.basis_labels + g2.basis_labels)


def killing_form(g: LieAlgebra) -> Matrix:
    """K(x, y) = trace(ad x · ad y) on basis pairs, read off the sparse table.

    With [e_i, e_l] = sum_k c_il^k e_k, entry (k, l) of ad e_i is c_il^k, so
    K_ij = sum_{k,l} c_il^k c_jk^l: one pass over the nonzero entries of
    ad e_i per pair, and no matrix product.  The sum runs on the integers
    d c of ``_integer_table``, so it is d^2 K_ij: the integer rows of K over
    the denominator d^2.
    """
    n = g.dim
    d, table = _integer_table(g)
    dd = d * d
    # ads[i][(k, l)] = d c_il^k, nonzero entries only
    ads = [{(k, l): c for l, terms in enumerate(row) for k, c in terms} for row in table]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            adj = ads[j]
            rows[i][j] = rows[j][i] = sum(
                c * adj[(l, k)] for (k, l), c in ads[i].items() if (l, k) in adj
            )
    return Matrix._from_ints(tuple(map(tuple, rows)), n, dd)


def is_derivation(g: LieAlgebra, M: Matrix) -> bool:
    """Whether M([x,y]) = [Mx, y] + [x, My] holds on all basis pairs.

    On x = e_i this is M ad(e_i) - ad(e_i) M = ad(M e_i), whose column j
    is M [e_i, e_j] = [M e_i, e_j] - [M e_j, e_i]; antisymmetry leaves the
    pairs i < j.  It is checked on integers times e d, e the denominator
    of M: the integer columns of M, and the ``_integer_ad`` columns of
    ad(M e_i) on them.
    """
    if M.shape != (g.dim, g.dim):
        raise ValueError("matrix shape does not match algebra dimension")
    _, table = _integer_table(g)
    columns = list(zip(*M._ints))
    images = [_integer_ad(table, column) for column in columns]
    for i, j in combinations(range(g.dim), 2):
        residual = [a - b for a, b in zip(images[i][j], images[j][i])]
        for k, v in table[i][j]:
            for r, x in enumerate(columns[k]):
                residual[r] -= v * x
        if any(residual):
            return False
    return True


def transport(g: LieAlgebra, P: Matrix, basis_labels: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Express g in the new basis given by the rows of P.

    Row i of P is the i-th new basis vector in the old coordinates; P must
    be invertible.  Structure constants of the result satisfy
    [f_i, f_j] = sum_k c'_{ij}^k f_k with f_i = P[i].
    """
    if P.shape != (g.dim, g.dim):
        raise ValueError("base change must be square of the algebra dimension")
    try:
        P_inv = P.inverse()
    except ValueError as exc:
        raise ValueError("base change matrix is singular") from exc
    if basis_labels is None:
        basis_labels = [f"b{t + 1}" for t in range(g.dim)]
    else:
        basis_labels = _checked_labels(g.dim, basis_labels)
    # the coordinates of w in the rows of P are (P^T)^-1 w, the row w P^-1
    return LieAlgebra._from_ints(g.dim, *_structure_in(g, P, P_inv), basis_labels)
