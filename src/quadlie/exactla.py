"""Exact linear algebra over the rational numbers.

Vectors are tuples of ``fractions.Fraction``.  A matrix is an immutable
value kept as integer rows over one positive common denominator, with
gcd(den, all entries) = 1, so the form is unique; its rows of Fractions
are a view built only when they are read.  The products, determinants,
inverses and eliminations read and write that integer form, and build
Fractions only for what a caller reads.  One fraction-free Gauss-Jordan
core (``_echelon``) serves ``rref``, ``kernel``, ``solve``, ``inverse``
and the subspace operations.  It inserts the rows, dicts {column:
nonzero int or rational}, shortest first into a reduced basis of
primitive integer rows, by integer cross-multiplication: a redundant row
cancels in one pass, and each updated row is divided by its content (the
gcd of its entries), so no Fraction arithmetic runs inside the loop
(Bareiss, Math. Comp. 22, 1968; Cohen, A Course in Computational
Algebraic Number Theory, 2.2).  ``rref`` scales the finished rows to the
lcm of their pivots, which is the denominator of the reduced form;
``kernel`` reads integer spanning vectors off them.  ``@`` is the
integer product over the product of the denominators, and ``det`` is
Bareiss's elimination on the integer rows, divided by den^n.
``SparseSystem`` lets a solver hand a large sparse system of integer or
rational equations to ``kernel`` without writing out its zeros.  Subspaces
are kept in reduced row-echelon form so that set equality is literal
equality of basis matrices.  Everything is exact: no tolerances, no
floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction
Scalar = Union[int, Fraction, str]
Vector = tuple

# sign, numerator digits, denominator digits; a trailing newline is read
# so that it is reported as a literal out of canonical form
_RATIONAL_RE = re.compile(r"(-?)([0-9]+)(?:/([1-9][0-9]*))?(\n?)")


def rat(x: Scalar) -> Fraction:
    """Coerce an int, Fraction, or canonical string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def parse_rational(text: str) -> Fraction:
    """Parse the interchange form ``p`` or ``p/q`` (q > 0, gcd(|p|, q) = 1)."""
    return Fraction(*_parse_literal(text))


def _parse_literal(text: str) -> tuple:
    """(p, q) of the interchange form ``p`` (q = 1) or ``p/q``; raises
    ``ValueError`` on no literal, a part past the int-string limit, or a
    literal out of canonical form (a leading zero, ``-0``, q = 1, a common
    factor or a trailing newline)."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    sign, digits, den, newline = match.groups()
    p = -int(digits) if sign else int(digits)
    q = int(den) if den else 1
    if newline or (digits[0] == "0" and (sign or len(digits) > 1)) or (
        den and (q == 1 or gcd(p, q) != 1)
    ):
        raise ValueError(f"rational literal not in canonical form: {text!r}")
    return p, q


def format_rational(value: Fraction) -> str:
    """Format as ``p`` or ``p/q`` with q > 0 and gcd(|p|, q) = 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

_ZERO, _ONE = Fraction(0), Fraction(1)


def vector(entries: Iterable[Scalar]) -> Vector:
    """``entries`` as a tuple of Fractions; a tuple of Fractions is returned as is."""
    if type(entries) is tuple and all(type(x) is Fraction for x in entries):
        return entries
    return tuple(rat(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    # the shared 0 and 1: no Fraction is built per entry
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def add_vec(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise ValueError("vector length mismatch")
    return tuple(a + b for a, b in zip(x, y))


def sub_vec(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise ValueError("vector length mismatch")
    return tuple(a - b for a, b in zip(x, y))


def scale_vec(c: Scalar, x: Vector) -> Vector:
    c = rat(c)
    return tuple(c * a for a in x)


def dot(x: Vector, y: Vector) -> Fraction:
    """Exact inner product; zero factors are skipped, the result is a Fraction."""
    if len(x) != len(y):
        raise ValueError("vector length mismatch")
    return sum((a * b for a, b in zip(x, y) if a and b), Fraction(0))


def is_zero_vec(x: Vector) -> bool:
    return all(a == 0 for a in x)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _fractions(ints: Sequence[int], den: int) -> Vector:
    """The tuple of Fractions v / den, sharing one zero.

    Here and in the other kernels a tuple or a star-argument is built from
    a list, not from a generator: CPython allocates it at its final
    length, where from a generator it grows and shrinks a tuple of
    another length, and every such tuple, once freed, stays in the
    interpreter's free list of its final length (up to 2,000 per length),
    which raises the process's peak memory for good.
    """
    if den == 1:  # Fraction(v) skips the gcd
        return tuple([Fraction(v) if v else _ZERO for v in ints])
    return tuple([Fraction(v, den) if v else _ZERO for v in ints])


class _Value:
    """The base of the immutable value types.

    A subclass names its fields in ``__slots__`` and its value in ``_key``,
    an ``attrgetter`` of the fields that are not views built on first read
    or cosmetic.  Two instances are equal when they are of the same class
    with equal keys, and an instance hashes its key.  Assignment and
    deletion raise ``AttributeError``; ``_fill`` sets the slots.  A copy or
    an unpickled value is rebuilt by the class's constructor from the
    slots, so it passes the same checks; a class whose constructor takes
    other arguments rebuilds from its value instead.
    """

    __slots__ = ()

    def _fill(self, *values):
        """Set the slots, in their order, to ``values``; return the instance."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        key = self._key
        return other.__class__ is self.__class__ and key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


class Matrix(_Value):
    """Immutable dense matrix of rationals.

    The value is a tuple of integer rows over one positive common
    denominator, normalized so that gcd(den, all entries) = 1: that form is
    unique, so equality and hashing compare it.  ``rows``, the tuple of row
    tuples of Fractions, is a read-only view of it, built the first time
    it is read.  The row and column counts are stored explicitly so that
    0-row and 0-column matrices keep their shape.  The constructor is the
    boundary for outside input and coerces every entry with ``rat``; the
    operations below read and write the integer form (``_from_ints``), and
    build no Fraction unless a Fraction is asked for.
    """

    __slots__ = ("nrows", "ncols", "_den", "_ints", "_rows")
    _key = attrgetter("nrows", "ncols", "_den", "_ints")

    def __init__(self, rows: Iterable[Iterable[Scalar]], ncols: Optional[int] = None):
        normalized = tuple(tuple(rat(x) for x in row) for row in rows)
        if normalized:
            widths = {len(row) for row in normalized}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        self._set_fractions(normalized, ncols)

    def _set_fractions(self, rows: tuple, ncols: int) -> "Matrix":
        """Take Fraction ``rows`` as the value: integers over the lcm of
        their denominators, which is the normalized form, with ``rows`` kept
        as the view."""
        den, flat = _integer_row([x for row in rows for x in row])
        ints = tuple(tuple(flat[i * ncols:(i + 1) * ncols]) for i in range(len(rows)))
        return self._fill(len(ints), ncols, den, ints, rows)

    @classmethod
    def _unchecked(cls, rows: tuple, ncols: int) -> "Matrix":
        """A Matrix on ``rows`` that are already tuples of ``ncols`` Fractions."""
        return object.__new__(cls)._set_fractions(rows, ncols)

    @classmethod
    def _from_ints(cls, ints: tuple, ncols: int, den: int = 1) -> "Matrix":
        """The Matrix ints / den for a tuple of integer row tuples of length
        ``ncols`` and den > 0, divided by gcd(den, all entries)."""
        if den != 1:
            g = gcd(den, *[x for row in ints for x in row])
            if g != 1:
                den //= g
                ints = tuple(tuple(x // g for x in row) for row in ints)
        return object.__new__(cls)._fill(len(ints), ncols, den, ints, None)

    def __reduce__(self):
        return Matrix._from_ints, (self._ints, self.ncols, self._den)

    @property
    def rows(self) -> tuple:
        """The rows as tuples of Fractions, built on first read."""
        rows = self._rows
        if rows is None:
            den = self._den
            rows = tuple(_fractions(row, den) for row in self._ints)
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_ints(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._from_ints(((0,) * ncols,) * nrows, ncols)

    @classmethod
    def diagonal(cls, entries: Iterable[Scalar]) -> "Matrix":
        diag = [rat(x) for x in entries]
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]], nrows: Optional[int] = None) -> "Matrix":
        """The matrix whose columns are ``columns``; ``nrows`` sizes a 0-column one.

        Raises ``ValueError`` when the columns differ in length or ``nrows``
        differs from their length.
        """
        cols = [vector(c) for c in columns]
        heights = {len(c) for c in cols}
        if len(heights) > 1:
            raise ValueError("ragged columns")
        if cols:
            height = heights.pop()
            if nrows is not None and nrows != height:
                raise ValueError("nrows does not match column length")
            nrows = height
        elif nrows is None:
            nrows = 0
        rows = tuple(zip(*cols)) if cols else ((),) * nrows
        return cls._unchecked(rows, len(cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(x) for x in row) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other over the lcm of the two denominators."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        den = lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        return Matrix._from_ints(
            tuple(
                tuple(a * x + b * y for x, y in zip(r, s))
                for r, s in zip(self._ints, other._ints)
            ),
            self.ncols,
            den,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "Matrix":
        c = rat(c)
        p = c.numerator
        return Matrix._from_ints(
            tuple(tuple(p * x for x in row) for row in self._ints),
            self.ncols,
            self._den * c.denominator,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Exact product of the integer forms: entry (i, j) is the integer
        dot product of row i and column j, over the product of the two
        denominators."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        cols = tuple(zip(*other._ints)) if other._ints else ((),) * other.ncols
        return Matrix._from_ints(
            tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self._ints]),
            other.ncols,
            self._den * other._den,
        )

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix-vector product with ``v`` as a column vector: v is scaled
        to integers once, and each entry is divided once."""
        v = vector(v)
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        s, ints = _integer_row(v)
        return _fractions([sum(map(mul, row, ints)) for row in self._ints], self._den * s)

    def transpose(self) -> "Matrix":
        ints = tuple(zip(*self._ints)) if self._ints else ((),) * self.ncols
        return Matrix._from_ints(ints, self.nrows, self._den)

    def sparse_rows(self) -> list:
        """The integer rows (den times the rows) as fresh dicts {column:
        nonzero int}: scaling leaves the row space, the rref and the kernel
        that an elimination reads off them unchanged."""
        return [{j: x for j, x in enumerate(row) if x} for row in self._ints]

    def rref(self) -> tuple:
        """Reduced row echelon form.

        Returns ``(R, pivots)`` where ``pivots`` is the tuple of pivot
        column indices.  Zero rows are kept at the bottom (callers drop them
        as needed).  The elimination runs on the sparse integer rows
        (``_echelon``), dividing each updated row by its content; the
        reduced row-echelon form is unique, so R does not depend on how it
        was reached.
        """
        return _reduced_matrix(self.sparse_rows(), self.nrows, self.ncols)

    def det(self) -> Fraction:
        """Fraction-free Bareiss elimination on the integer rows.

        Each step swaps the first row with a nonzero leading entry a_00 to
        the top and replaces the rows below by a_ij <- (a_ij a_00 - a_i0
        a_0j) / p over j >= 1, p the previous pivot: an exact integer
        division (Bareiss, Math. Comp. 22, 1968).  The last pivot is the
        determinant of the integer matrix, so det = +-(last pivot) / den^n.
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        rows = list(self._ints)
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
                if row[0] else [a * pv // previous for a in row[1:]]
                for row in rows[1:]
            ]
            previous = pv
        return Fraction(sign * previous, self._den ** self.nrows)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.det() != 0

    def inverse(self) -> "Matrix":
        """One elimination of [M | den I], M the integer rows: where it
        reduces to [I | X], X is the inverse."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n, den = self.nrows, self._den
        augmented = [
            {**{j: x for j, x in enumerate(row) if x}, n + i: den}
            for i, row in enumerate(self._ints)
        ]
        reduced, pivots = _reduced_matrix(augmented, n, 2 * n)
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._from_ints(tuple(row[n:] for row in reduced._ints), n, reduced._den)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and self == self.transpose()

    def is_skew_symmetric(self) -> bool:
        return self.nrows == self.ncols and self == -self.transpose()

    def is_zero(self) -> bool:
        return not any(map(any, self._ints))

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self._ints)), self._den)

    def flatten(self) -> Vector:
        return tuple(chain.from_iterable(self.rows))


def solve(A: Matrix, b: Sequence[Scalar]) -> Optional[Vector]:
    """Solve ``A x = b`` exactly; returns None when inconsistent.

    With free variables present, the particular solution with all free
    coordinates zero is returned (deterministic).
    """
    b = vector(b)
    if len(b) != A.nrows:
        raise ValueError("right-hand side length mismatch")
    if A.nrows == 0:
        return zero_vector(A.ncols)
    # row i of [A | b] times den s, on integers: [s A_i | den (s b)_i]
    s, ints = _integer_row(b)
    augmented = []
    for row, bi in zip(A._ints, ints):
        equation = {j: s * x for j, x in enumerate(row) if x}
        if bi:
            equation[A.ncols] = A._den * bi
        augmented.append(equation)
    reduced, pivots = _reduced_matrix(augmented, A.nrows, A.ncols + 1)
    if pivots and pivots[-1] == A.ncols:
        return None
    x = list(zero_vector(A.ncols))
    for c, row in zip(pivots, reduced._ints):
        x[c] = Fraction(row[A.ncols], reduced._den)
    return tuple(x)


def kernel(A: Union[Matrix, "SparseSystem"]) -> "Subspace":
    """Null space {x : A x = 0} as a Subspace of the column space.

    Runs on integers up to the final rref.  After ``_echelon`` each pivot
    row r holds its pivot entry p_r at column c_r and its other entries at
    free columns, so a solution has x_{c_r} = -sum_f (row_r[f] / p_r) x_f.
    For each free column f, the integer vector with x_f = L and x_{c_r} =
    -row_r[f] (L / p_r) on the rows holding f, L the lcm of their p_r, is
    L times the free-column basis vector of f.  These vectors span the
    kernel, and one ``rref`` of them gives its canonical basis.
    """
    done, pivots = _echelon(A.sparse_rows(), A.ncols)
    spans = []
    for f in sorted(set(range(A.ncols)).difference(pivots)):
        terms = [(c, row[c], row[f]) for c, row in zip(pivots, done) if f in row]
        L = lcm(*(pv for _, pv, _ in terms))
        span = [0] * A.ncols
        span[f] = L
        for c, pv, x in terms:
            span[c] = -x * (L // pv)
        spans.append(tuple(span))
    return Subspace._reduced(*Matrix._from_ints(tuple(spans), A.ncols).rref())


# ---------------------------------------------------------------------------
# sparse elimination
# ---------------------------------------------------------------------------

def _integer_row(row: Sequence[Fraction]) -> tuple:
    """(s, ints): s the lcm of the denominators of ``row``, ints the list of
    its entries times s."""
    s = lcm(*[x.denominator for x in row])
    if s == 1:
        return 1, [x.numerator for x in row]
    return s, [x.numerator * (s // x.denominator) for x in row]


def _eliminate(row: dict, c: int, pivot_row: dict) -> None:
    """row <- (pv/g) row - (f/g) pivot_row in place, pv and f the entries
    of ``pivot_row`` and ``row`` at c and g = gcd(pv, f): c and every other
    entry that cancels leave ``row``."""
    pv, f = pivot_row[c], row[c]
    g = gcd(pv, f)
    a, f = pv // g, f // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, b in pivot_row.items():
        x = row.get(j, 0) - f * b
        if x:
            row[j] = x
        else:
            del row[j]


def _divide_content(row: dict) -> None:
    """Divide ``row`` in place by the gcd of its entries, its content."""
    content = gcd(*row.values())
    if content > 1:
        for j in row:
            row[j] //= content


def _echelon(rows: list, ncols: int) -> tuple:
    """Exact fraction-free Gauss-Jordan elimination by row insertion.

    ``rows`` are dicts {column: nonzero int or rational}, left untouched:
    an int row is copied, one holding a Fraction is scaled to integers
    (``_integer_row``).  The basis is {pivot column: primitive integer
    row, zero at every other pivot column}.  An incoming row is reduced by
    the basis rows at the pivot columns it holds (``_eliminate``), which
    adds entries at free columns only; a row that cancels is dropped, so a
    redundant equation costs one pass.  A surviving row is divided by its
    content, and its smallest column becomes a pivot, eliminated from the
    basis rows that hold it, each then divided by its content again.

    The rows go in shortest first: a short row brings little fill-in, so
    the basis stays sparse while the long rows, in the solvers' tall
    systems mostly redundant, are reduced against it.  The reduced form is
    unique, so the order changes only the cost.

    Returns ``(rows, pivots)``: the nonzero rows as dicts {column: int},
    in pivot order, and the pivot columns.  Each row is primitive, holds
    its pivot entry and is zero at every other pivot column: a nonzero
    integer multiple of its row of the reduced row echelon form.
    """
    basis: dict = {}
    for row in sorted(filter(None, rows), key=len):
        # a sum of ints is an int, and any Fraction makes it a Fraction
        if type(sum(row.values())) is int:
            row = dict(row)
        else:
            row = dict(zip(row, _integer_row(list(row.values()))[1]))
        for c in [c for c in row if c in basis]:
            _eliminate(row, c, basis[c])
        if not row:
            continue
        _divide_content(row)
        c = min(row)
        for other in basis.values():
            if c in other:
                _eliminate(other, c, row)
                _divide_content(other)
        basis[c] = row
    pivots = sorted(basis)
    return [basis[c] for c in pivots], tuple(pivots)


def _reduced_matrix(rows: list, nrows: int, ncols: int) -> tuple:
    """``rref`` of ``nrows`` sparse rows: (R, pivots), zero rows at the bottom.

    Each row ``_echelon`` returns is primitive and holds its pivot entry
    p_r, so p_r is the lcm of the denominators of its reduced row, and the
    rows times L / p_r, L the lcm of the p_r, are R over the denominator L
    in normalized form; no Fraction is built.
    """
    done, pivots = _echelon(rows, ncols)
    L = lcm(*(row[c] for c, row in zip(pivots, done)))
    dense = []
    for c, row in zip(pivots, done):
        f = L // row[c]
        out = [0] * ncols
        for j, x in row.items():
            out[j] = x * f
        dense.append(tuple(out))
    dense += [(0,) * ncols] * (nrows - len(dense))
    return Matrix._from_ints(tuple(dense), ncols, L), pivots


class SparseSystem:
    """A homogeneous linear system collected equation by equation.

    Each equation is kept as a dict {column: nonzero coefficient}, the
    coefficients ints or Fractions as the caller gives them; all-zero
    equations are dropped.  The library's solvers give ints, which the
    elimination takes as they are; only an equation holding a Fraction is
    first scaled to integers.  It has the
    ``nrows``, ``ncols`` and ``rref`` of a Matrix, so ``kernel`` takes it in
    place of one, and a large sparse system is never written out with its
    zeros.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list = []

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def add(self, terms: Iterable[tuple]) -> None:
        """Append the equation sum a x_col = 0 over the (col, a) terms.

        Terms on the same column add up; zero coefficients are dropped.
        The coefficients are kept as given: ints or Fractions.
        """
        row: dict = {}
        for col, a in terms:
            row[col] = row.get(col, 0) + a
        row = {col: a for col, a in row.items() if a}
        if row:
            self.rows.append(row)

    def sparse_rows(self) -> list:
        """The equations as fresh dicts {column: nonzero coefficient}."""
        return [dict(row) for row in self.rows]

    def rref(self) -> tuple:
        """As ``Matrix.rref`` of the system's coefficient matrix."""
        return _reduced_matrix(self.sparse_rows(), self.nrows, self.ncols)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace(_Value):
    """A linear subspace of QQ^n, canonically represented by an rref basis.

    Two subspaces are equal iff their ambient dimensions agree and their
    row-reduced basis matrices are identical.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")
    _key = attrgetter("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.ncols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        reduced, pivots = basis.rref()
        rows = reduced._ints[: len(pivots)]
        self._fill(ambient_dim, Matrix._from_ints(rows, ambient_dim, reduced._den), pivots)

    def __reduce__(self):
        return Subspace, (self.ambient_dim, self.basis)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        rows = tuple(vector(v) for v in vectors)
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return cls(ambient_dim, Matrix._unchecked(rows, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix([], ambient_dim))

    @classmethod
    def _reduced(cls, basis: Matrix, pivots: tuple) -> "Subspace":
        """The Subspace whose rref basis, without zero rows, is ``basis``."""
        return object.__new__(cls)._fill(basis.ncols, basis, pivots)

    @classmethod
    def _spanned_by(cls, ambient_dim: int, rows: list) -> "Subspace":
        """The span of sparse rows {column: nonzero int or Fraction}."""
        return cls._reduced(*_reduced_matrix(rows, 0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        # the identity is already reduced, with pivots 0..n-1
        return cls._reduced(Matrix.identity(ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def vectors(self) -> tuple:
        return self.basis.rows

    def contains(self, v: Sequence[Scalar]) -> bool:
        return self.coordinates_of(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return self._all_in(other.basis._ints)

    def coordinates_of(self, v: Sequence[Scalar]) -> Optional[Vector]:
        """Coordinates of ``v`` in the rref basis, or None if outside."""
        C = self.coordinate_rows((v,))
        return None if C is None else C.rows[0]

    def coordinate_rows(self, vectors: Iterable[Sequence[Scalar]]) -> Optional[Matrix]:
        """The coordinates of each of ``vectors`` in the rref basis, as the
        rows of a Matrix, or None if one lies outside: their entries at the
        pivot columns, once one ``_all_in`` has checked on the integers
        that all of them lie in the subspace."""
        rows = tuple([vector(v) for v in vectors])
        if any(len(v) != self.ambient_dim for v in rows):
            raise ValueError("vector length does not match ambient dimension")
        M = Matrix._unchecked(rows, self.ambient_dim)
        if not self._all_in(M._ints):
            return None
        return Matrix._from_ints(
            tuple([tuple([row[p] for p in self.pivots]) for row in M._ints]), self.dim, M._den
        )

    def _all_in(self, rows: Iterable[Sequence[int]]) -> bool:
        """Whether every integer row w lies in the subspace, read in its rref
        basis b_p.

        w lies in it exactly when w = sum_p w_p b_p, w_p its entries at the
        pivot columns p.  With t the denominator of the basis, whose integer
        rows are the t b_p, the check runs on integers: t w - sum_p w_p t b_p
        must vanish, and it does at the pivot columns, where b_p is 1 and the
        other basis rows are 0.
        """
        t = self.basis._den
        basis = [
            (p, [(j, x) for j, x in enumerate(row) if x])
            for p, row in zip(self.pivots, self.basis._ints)
        ]
        for ints in rows:
            residual = [t * v for v in ints]
            for p, terms in basis:
                c = ints[p]
                if c:
                    for j, b in terms:
                        residual[j] -= c * b
            if any(residual):
                return False
        return True

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"


def sum_intersect(U: Subspace, W: Subspace) -> tuple:
    """(U + W, U ∩ W) from one Zassenhaus rref of the rows (u, u), (w, 0):
    rows with pivot c < n give U + W on the first n columns, the rest U ∩ W."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = U.ambient_dim
    # the integer basis rows, each a multiple of a rational one
    block_rows = [row + row for row in U.basis._ints]
    block_rows += [row + (0,) * n for row in W.basis._ints]
    reduced, pivots = Matrix._from_ints(tuple(block_rows), 2 * n).rref()
    s = sum(c < n for c in pivots)
    rows, den = reduced._ints, reduced._den
    return (
        Subspace._reduced(Matrix._from_ints(tuple(r[:n] for r in rows[:s]), n, den), pivots[:s]),
        Subspace._reduced(
            Matrix._from_ints(tuple(r[n:] for r in rows[s:len(pivots)]), n, den),
            tuple(c - n for c in pivots[s:]),
        ),
    )


def _require_gram(G: Matrix, ambient_dim: int) -> None:
    if G.nrows != G.ncols or G.nrows != ambient_dim:
        raise ValueError("gram matrix size does not match ambient dimension")
    if not G.is_symmetric():
        raise ValueError("gram matrix is not symmetric")


def form_orthogonal(G: Matrix, U: Subspace) -> Subspace:
    """U^perp = {x : x^T G u = 0 for all u in U} for a symmetric G."""
    _require_gram(G, U.ambient_dim)
    return kernel(U.basis @ G)


def restricted_gram(G: Matrix, U: Subspace) -> Matrix:
    """Gram matrix of the form restricted to the rref basis of U."""
    _require_gram(G, U.ambient_dim)
    return U.basis @ G @ U.basis.transpose()


def form_restrict_nondegenerate(G: Matrix, U: Subspace) -> bool:
    """True iff the form restricted to U has invertible Gram matrix."""
    return restricted_gram(G, U).det() != 0
