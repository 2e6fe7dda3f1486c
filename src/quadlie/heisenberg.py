"""Constructors for Heisenberg-type quadratic Lie algebras.

Provides the Heisenberg algebra h_m, the main builder that couples the
double extension S(D) with a symplectic block, its two special cases (the
extension h_m(phi) by an invertible derivation, S = 0, and the double
extension S(D) of a quadratic algebra by a skew derivation, V = 0), and the
coadjoint-double example generator.
"""

from __future__ import annotations

from math import lcm
from operator import attrgetter
from typing import Optional, Tuple, Union

from .errors import InternalVerificationError
from .exactla import Matrix, _Value, unit_vector
from .liealg import LieAlgebra, _integer_table, _upper, check_jacobi, is_derivation
from .quadform import BilinearForm, QuadraticLieAlgebra, transport_quadratic


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
    on the (D, hbar) pair.  This is the builder with V = 0, its d moved to
    the front.
    """
    built = build_with_heisenberg_ideal(
        S, D, SymplecticSpace(Matrix([], 0)), Matrix([], 0)
    )
    n = S.dim
    order = [n] + list(range(n)) + [n + 1]
    P = Matrix([unit_vector(n + 2, t) for t in order], n + 2)
    labels = ["D"] + list(S.algebra.basis_labels) + ["hbar"]
    return transport_quadratic(built, P, labels)


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
    ideal of the result.  ``extend_heisenberg`` is the case S = 0 and
    ``double_extension`` the case V = 0.
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
    the round trip instead.  The brackets are stated as the construction
    gives them, [x, y] = [x, y]_S + B_S(D x, y) hbar, [d, x] = D x,
    [d, u] = sigma u and [u, v] = omega(u, v) hbar, as integers over one
    denominator, and ``LieAlgebra._from_ints`` puts them in canonical form.
    """
    k = S.dim
    two_m = V.dim
    dim = k + 1 + two_m + 1
    d_idx = k
    hb = dim - 1
    v0 = k + 1  # the index of u_1

    ds, table = _integer_table(S.algebra)
    mu = D_mat.transpose() @ S.metric.gram  # mu[i][j] = B_S(D s_i, s_j)
    den = lcm(ds, mu._den, D_mat._den, sigma._den, V.omega._den)
    mu, D, sg, om = (_ints_over(M, den) for M in (mu, D_mat, sigma, V.omega))
    f = den // ds
    brackets = {pair: [(t, f * v) for t, v in terms] for pair, terms in _upper(table).items()}
    for i in range(k):
        for j in range(i + 1, k):
            brackets.setdefault((i, j), []).append((hb, mu[i][j]))
    for j in range(k):
        brackets[(d_idx, j)] = [(i, D[i][j]) for i in range(k)]
    for j in range(two_m):
        brackets[(d_idx, v0 + j)] = [(v0 + i, sg[i][j]) for i in range(two_m)]
    for i in range(two_m):
        for j in range(i + 1, two_m):
            brackets[(v0 + i, v0 + j)] = [(hb, om[i][j])]
    labels = (
        list(S.algebra.basis_labels)
        + ["d"]
        + [f"u{i + 1}" for i in range(two_m)]
        + ["hbar"]
    )
    algebra = LieAlgebra._from_ints(dim, den, brackets, labels)

    gram_s = S.metric.gram
    gram_v = sigma.inverse().transpose() @ V.omega
    e = lcm(gram_s._den, gram_v._den)
    rows = [[0] * dim for _ in range(dim)]
    for i, row in enumerate(_ints_over(gram_s, e)):
        rows[i][:k] = row
    for i, row in enumerate(_ints_over(gram_v, e)):
        rows[v0 + i][v0:hb] = row
    rows[d_idx][hb] = rows[hb][d_idx] = e
    return algebra, Matrix._from_ints(tuple([tuple(row) for row in rows]), dim, e)


def _ints_over(M: Matrix, den: int) -> list:
    """The integer rows of M over ``den``, a multiple of its denominator."""
    f = den // M._den
    return [[f * x for x in row] for row in M._ints]


def coadjoint_double(g: LieAlgebra) -> QuadraticLieAlgebra:
    """The quadratic algebra on g ⊕ g* with the hyperbolic metric.

    The bracket extends that of g by the coadjoint action; g* is an abelian
    ideal and B(x + zeta, y + nu) = zeta(y) + nu(x).  Each structure
    constant of g gives its two coadjoint terms in one pass over the
    integer table.
    """
    if check_jacobi(g):
        raise ValueError("input algebra fails the Jacobi identity")
    n = g.dim
    dim = 2 * n
    d, table = _integer_table(g)
    upper = _upper(table)
    brackets = dict(upper)
    # [x_i, xi_k] = -sum_l c^k_{il} xi_l: the entry c = c^k_{ab} adds
    # -c xi_b to [x_a, xi_k] and, as c^k_{ba} = -c, c xi_a to [x_b, xi_k]
    for (a, b), terms in upper.items():
        for k, c in terms:
            brackets.setdefault((a, n + k), []).append((n + b, -c))
            brackets.setdefault((b, n + k), []).append((n + a, c))
    labels = list(g.basis_labels) + [s + "*" for s in g.basis_labels]
    algebra = LieAlgebra._from_ints(dim, d, brackets, labels)
    hyperbolic = tuple([tuple([int(abs(i - j) == n) for j in range(dim)]) for i in range(dim)])
    return _certified(algebra, Matrix._from_ints(hyperbolic, dim), "coadjoint double")
