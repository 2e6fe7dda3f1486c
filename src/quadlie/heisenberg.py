"""Constructors for Heisenberg-type quadratic Lie algebras.

Provides the Heisenberg algebra h_m and the quadratic algebras of one
construction, the double extension h ⊕ S ⊕ h* of a quadratic algebra S by
a Lie algebra h acting on it by skew derivations, written by one private
body, ``_extension``.  Its callers pass their data:
- the main builder: h = QQ d acting on S ⊥ V by D ⊕ sigmaD, with d placed
  behind S; its output contains h_m;
- the builder's two special cases: the extension h_m(phi) by an invertible
  derivation (S = 0) and the double extension S(D) of a quadratic algebra
  by a skew derivation (V = 0), the latter in the construction's own order;
- the coadjoint double g ⊕ g*: h = g and S = 0.
"""

from __future__ import annotations

from math import lcm
from operator import attrgetter, mul
from typing import Optional, Sequence, Tuple, Union

from .errors import InternalVerificationError
from .exactla import Matrix, _Value
from .liealg import LieAlgebra, _integer_table, _upper, check_jacobi, is_derivation
from .quadform import BilinearForm, QuadraticLieAlgebra

# the Lie algebras QQ and 0, as h or as the brackets of S in ``_extension``
_LINE, _ZERO = LieAlgebra.abelian(1), LieAlgebra.abelian(0)


def standard_symplectic_matrix(m: int) -> Matrix:
    """The block form [[0, I_m], [-I_m, 0]] on QQ^{2m}."""
    n = 2 * m
    rows = tuple([tuple([(j - i == m) - (i - j == m) for j in range(n)]) for i in range(n)])
    return Matrix._from_ints(rows, n)


class SymplecticSpace(_Value):
    """An even-dimensional space with an invertible skew-symmetric form."""

    __slots__ = ("omega",)
    _key = attrgetter("omega")

    def __init__(self, omega: Matrix):
        if omega.nrows != omega.ncols:
            raise ValueError("omega must be square")
        if omega.nrows % 2 != 0:
            raise ValueError("symplectic dimension must be even")
        if not omega.is_skew_symmetric():
            raise ValueError("omega must be skew-symmetric")
        if omega.det() == 0:
            raise ValueError("omega must be nondegenerate")
        self._fill(omega)

    @classmethod
    def standard(cls, m: int) -> "SymplecticSpace":
        return cls(standard_symplectic_matrix(m))

    @property
    def dim(self) -> int:
        return self.omega.nrows

    def __repr__(self) -> str:
        return f"SymplecticSpace(dim={self.dim})"


class SymplecticMap(_Value):
    """An element of o(omega): omega(f u, v) = -omega(u, f v)."""

    __slots__ = ("space", "matrix")
    _key = attrgetter("space", "matrix")

    def __init__(self, space: SymplecticSpace, matrix: Matrix):
        if matrix.shape != (space.dim, space.dim):
            raise ValueError("matrix size does not match symplectic space")
        if not in_omega_algebra(matrix, space.omega):
            raise ValueError("matrix does not lie in o(omega)")
        self._fill(space, matrix)

    @classmethod
    def _unchecked(cls, omega: Matrix, matrix: Matrix) -> "SymplecticMap":
        """``matrix`` on the space of ``omega``, checked elsewhere."""
        V = object.__new__(SymplecticSpace)._fill(omega)
        return object.__new__(cls)._fill(V, matrix)

    def is_invertible(self) -> bool:
        return self.matrix.det() != 0

    def __repr__(self) -> str:
        return f"SymplecticMap(dim={self.space.dim})"


def in_omega_algebra(f: Matrix, omega: Matrix) -> bool:
    """Membership test f^T omega + omega f = 0."""
    return (f.transpose() @ omega + omega @ f).is_zero()


def _as_omega_matrix(
    value: Union[SymplecticMap, Matrix], space: SymplecticSpace, name: str
) -> Matrix:
    if isinstance(value, SymplecticMap):
        if value.space != space:
            raise ValueError(f"{name} is attached to a different symplectic space")
        return value.matrix
    if value.shape != (space.dim, space.dim):
        raise ValueError(f"{name} has the wrong size for the symplectic space")
    if not in_omega_algebra(value, space.omega):
        raise ValueError(f"{name} must lie in o(omega)")
    return value


def _symplectic_space(m: int, omega: Optional[Matrix]) -> SymplecticSpace:
    """The space QQ^{2m} with omega, the standard block form by default."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if omega is None:
        omega = standard_symplectic_matrix(m)
    space = SymplecticSpace(omega)  # validates skew + nondegenerate
    if space.dim != 2 * m:
        raise ValueError("omega size does not match m")
    return space


def _certified(algebra: LieAlgebra, gram: Matrix, what: str) -> QuadraticLieAlgebra:
    """The quadratic algebra of a construction whose inputs were validated."""
    try:
        return QuadraticLieAlgebra(algebra, BilinearForm(gram))
    except ValueError as exc:
        raise InternalVerificationError(f"{what} failed validation: {exc}") from exc


def heisenberg(m: int, omega: Optional[Matrix] = None) -> LieAlgebra:
    """The Heisenberg algebra h_m on u_1..u_{2m}, hbar.

    [u_i, u_j] = omega_{ij} hbar with hbar central; omega defaults to the
    standard block form.  The brackets are omega's integer rows over its
    denominator.
    """
    omega = _symplectic_space(m, omega).omega
    two_m = 2 * m
    structure = {
        (i, j): [(two_m, omega._ints[i][j])]
        for i in range(two_m)
        for j in range(i + 1, two_m)
    }
    labels = [f"u{i + 1}" for i in range(two_m)] + ["hbar"]
    return LieAlgebra._from_ints(two_m + 1, omega._den, structure, labels)


def extend_heisenberg(
    m: int,
    omega: Optional[Matrix],
    phi: Union[SymplecticMap, Matrix],
) -> QuadraticLieAlgebra:
    """The Heisenberg algebra extended by an invertible phi in o(omega).

    Basis (d, u_1..u_{2m}, hbar) with [d, u] = phi(u), [u, v] = omega(u, v)
    hbar, hbar central; the metric is B(u, v) = omega(phi^{-1} u, v) on V,
    B(d, hbar) = 1, and zero elsewhere.  This is the builder with the zero
    core S = 0, so phi is validated (and reported) as its sigmaD.
    """
    space = _symplectic_space(m, omega)
    zero_core = QuadraticLieAlgebra(LieAlgebra.abelian(0), BilinearForm(Matrix([], 0)))
    return build_with_heisenberg_ideal(zero_core, Matrix.zeros(0, 0), space, phi)


def _require_skew_derivation(S: QuadraticLieAlgebra, D: Matrix) -> None:
    if D.shape != (S.dim, S.dim):
        raise ValueError("D has the wrong size for the core algebra")
    if not is_derivation(S.algebra, D):
        raise ValueError("D is not a derivation of the core algebra")
    skew = D.transpose() @ S.metric.gram + S.metric.gram @ D
    if not skew.is_zero():
        raise ValueError("D is not skew-symmetric with respect to the metric")


def double_extension(S: QuadraticLieAlgebra, D: Matrix) -> QuadraticLieAlgebra:
    """Double extension S(D) of a quadratic algebra by a skew derivation.

    Basis (D, s_1..s_n, hbar) with [D, x] = D(x), [x, y] = [x, y]_S +
    B_S(D x, y) hbar, hbar central; the metric extends B_S hyperbolically
    on the (D, hbar) pair.  This is ``_extension`` with h = QQ D acting on
    S by D, in the construction's own order h ⊕ S ⊕ h*.
    """
    _require_skew_derivation(S, D)
    labels = ["D", *S.algebra.basis_labels, "hbar"]
    built = _extension(_LINE, S.algebra, S.metric.gram, [D], labels)
    return _certified(*built, "heisenberg-ideal build")


def build_with_heisenberg_ideal(
    S: QuadraticLieAlgebra,
    D: Matrix,
    V: SymplecticSpace,
    sigmaD: Union[SymplecticMap, Matrix],
) -> QuadraticLieAlgebra:
    """Quadratic Lie algebra on S ⊕ QQ d ⊕ V ⊕ QQ hbar containing h_m.

    The (S, d, hbar) part carries the double extension S(D); d acts on V by
    the invertible sigmaD in o(omega); [u, v] = omega(u, v) hbar on V; S and
    V commute.  The metric is B_{S(D)} ⊥ B_V with B_V(u, v) =
    omega(sigmaD^{-1} u, v).  The subspace V ⊕ QQ hbar is a Heisenberg
    ideal of the result.  This is ``_extension`` with h = QQ d acting on
    S ⊥ (V, B_V) by D ⊕ sigmaD (see ``_assemble``).  ``extend_heisenberg``
    is the case S = 0; ``double_extension`` writes the case V = 0 with d
    in front.
    """
    _require_skew_derivation(S, D)
    sigma = _as_omega_matrix(sigmaD, V, "sigmaD")
    if sigma.det() == 0:
        raise ValueError("sigmaD must be invertible")
    return _certified(*_assemble(S, D, V, sigma), "heisenberg-ideal build")


def _assemble(
    S: QuadraticLieAlgebra, D_mat: Matrix, V: SymplecticSpace, sigma: Matrix
) -> Tuple[LieAlgebra, Matrix]:
    """The structure constants and Gram matrix of the build, unchecked.

    Valid whenever D_mat is a skew derivation of S and sigma an invertible
    element of o(omega); ``build_with_heisenberg_ideal`` checks both and
    certifies the result, while structure recovery certifies its rebuild by
    the round trip instead.  The build is ``_extension`` with h = QQ d
    acting by D_mat ⊕ sigma on S ⊥ (V, B_V), B_V(u, v) = omega(sigma^{-1}
    u, v): on V its [s, s'] term B_V(sigma u, v) hbar is the Heisenberg
    bracket omega(u, v) hbar.  An index map puts d behind S.
    """
    gram = _diagonal(S.metric.gram, sigma.inverse().transpose() @ V.omega)
    labels = [*S.algebra.basis_labels, "d", *[f"u{i + 1}" for i in range(V.dim)], "hbar"]
    order = [S.dim, *range(S.dim), *range(S.dim + 1, S.dim + V.dim + 2)]
    return _extension(_LINE, S.algebra, gram, [_diagonal(D_mat, sigma)], labels, order)


def _diagonal(A: Matrix, B: Matrix) -> Matrix:
    """The block-diagonal A ⊕ B, on integer rows over one denominator."""
    den = lcm(A._den, B._den)
    a, b = den // A._den, den // B._den
    right, left = (0,) * B.ncols, (0,) * A.ncols
    rows = [(*[a * x for x in row], *right) for row in A._ints]
    rows += [(*left, *[b * x for x in row]) for row in B._ints]
    return Matrix._from_ints(tuple(rows), A.ncols + B.ncols, den)


def _extension(
    h: LieAlgebra,
    core: LieAlgebra,
    gram: Matrix,
    rho: Sequence[Matrix],
    labels: Sequence[str],
    order: Optional[Sequence[int]] = None,
) -> Tuple[LieAlgebra, Matrix]:
    """The structure constants and Gram matrix of h ⊕ S ⊕ h*, unchecked.

    h is a Lie algebra on x_1..x_r, (S, B_S) a quadratic algebra on
    s_1..s_k, and h acts on S by the skew derivations rho(x_a); h* has the
    dual basis xi_a.  The brackets are [x, y] = [x, y]_h, [x, s] =
    rho(x) s, [x, xi] = -xi∘ad_x and [s, s'] = [s, s']_S + sum_a
    B_S(rho(x_a) s, s') xi_a, and h* is central in S ⊕ h*.  B is B_S on S,
    pairs each x_a with xi_a and is zero elsewhere.  This is the double
    extension of Medina–Revoy (h a line) and Figueroa-O'Farrill–Stanciu
    (any h): B is invariant, and the Jacobi identity holds when rho is a
    Lie homomorphism into the skew derivations of S.

    ``gram`` is B_S and ``rho`` the matrices rho(x_a).  The brackets of S
    are those of ``core`` on s_1..s_c, c = core.dim, and zero on the rest
    (which is how the builder passes S ⊥ V).  Basis vector t of (x, s, xi)
    takes the place order[t], in order by default.  Every term is read off
    the integer tables and rows and put over one denominator, and
    ``LieAlgebra._from_ints`` sums repeated terms into canonical form.
    """
    (dh, h_table), (ds, s_table) = _integer_table(h), _integer_table(core)
    e, G, k, r = gram._den, gram._ints, gram.nrows, len(rho)
    dim = 2 * r + k
    at = range(dim) if order is None else order
    X, Y, Xi = at[:r], at[r:r + k], at[r + k:]
    den = lcm(dh, ds, e * lcm(*[M._den for M in rho]))
    fh, fs = den // dh, den // ds
    out: dict = {}
    for (a, b), terms in _upper(h_table).items():
        out[(X[a], X[b])] = [(X[c], fh * v) for c, v in terms]
        # the entry v of [x_a, x_b] on x_c adds -v xi_b to [x_a, xi_c] and,
        # as [x_b, x_a] has -v there, v xi_a to [x_b, xi_c]
        for c, v in terms:
            out.setdefault((X[a], Xi[c]), []).append((Xi[b], -fh * v))
            out.setdefault((X[b], Xi[c]), []).append((Xi[a], fh * v))
    for (i, j), terms in _upper(s_table).items():
        out[(Y[i], Y[j])] = [(Y[t], fs * v) for t, v in terms]
    for x, xi, M in zip(X, Xi, rho):
        fr, fm = den // M._den, den // (M._den * e)
        for j, column in enumerate(zip(*M._ints)):
            # rho(x) s_j = sum_p column[p] s_p, and B_S(rho(x) s_j, s_q) =
            # sum_p column[p] G[q][p] since G is symmetric (over M's den e)
            out[(x, Y[j])] = [(Y[p], fr * v) for p, v in enumerate(column) if v]
            for q in range(j + 1, k):
                c = sum(map(mul, column, G[q]))
                if c:
                    out.setdefault((Y[j], Y[q]), []).append((xi, fm * c))
    B = [[0] * dim for _ in range(dim)]
    for i, row in zip(Y, G):
        for q, w in zip(Y, row):
            B[i][q] = w
    for x, xi in zip(X, Xi):
        B[x][xi] = B[xi][x] = e
    algebra = LieAlgebra._from_ints(dim, den, out, labels)
    return algebra, Matrix._from_ints(tuple([tuple(row) for row in B]), dim, e)


def coadjoint_double(g: LieAlgebra) -> QuadraticLieAlgebra:
    """The quadratic algebra on g ⊕ g* with the hyperbolic metric.

    The bracket extends that of g by the coadjoint action; g* is an abelian
    ideal and B(x + zeta, y + nu) = zeta(y) + nu(x).  This is
    ``_extension`` with h = g and S = 0.
    """
    if check_jacobi(g):
        raise ValueError("input algebra fails the Jacobi identity")
    labels = [*g.basis_labels, *[s + "*" for s in g.basis_labels]]
    empty = Matrix([], 0)
    built = _extension(g, _ZERO, empty, [empty] * g.dim, labels)
    return _certified(*built, "coadjoint double")
