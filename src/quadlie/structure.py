"""Structure analysis of quadratic Lie algebras with Heisenberg ideals.

Contains the solvable radical and nilradical, validation of Heisenberg
ideals (one equality with the builder's h_m(omega) after transport, every
bracket from the integer kernels of ``liealg``), the inverse
structure-recovery algorithm (with a base-change certificate and an exact
rebuild check), the extended-Heisenberg recognizer, the
complement-subalgebra machinery for quotient metrics with the exact
decision whether one exists, the nilradical-theorem verifier, and
``analyze``, which joins them into one analysis.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from typing import List, NamedTuple, Optional, Tuple, Union

from .errors import InternalVerificationError, ensure
from .exactla import (
    Matrix,
    Subspace,
    Vector,
    _fractions,
    dot,
    form_restrict_nondegenerate,
    is_zero_vec,
    kernel,
    restricted_gram,
    scale_vec,
    solve,
    sub_vec,
    sum_intersect,
    unit_vector,
)
from .heisenberg import SymplecticMap, _assemble, heisenberg, in_omega_algebra
from .liealg import (
    LieAlgebra,
    _integer_table,
    _structure_in,
    ad,
    bracket_subspaces,
    center,
    derived_subalgebra,
    is_derivation,
    is_ideal,
    is_nilpotent,
    is_subalgebra,
    killing_form,
    quotient,
    subalgebra_on,
    transport,
)
from .quadform import (
    BilinearForm,
    QuadraticLieAlgebra,
    check_invariant_metric,
    invariant_symmetric_forms,
    restrict_quadratic,
    split_by_nondegenerate_ideal,
    transport_quadratic,
)


# ---------------------------------------------------------------------------
# radical and nilradical
# ---------------------------------------------------------------------------

def radical(g: LieAlgebra) -> Subspace:
    """Solvable radical via the characteristic-zero Killing criterion.

    Rad(g) = {x : K(x, [g, g]) = 0} for the Killing form K.
    """
    return _radical(killing_form(g), derived_subalgebra(g))


def _radical(K: Matrix, derived: Subspace) -> Subspace:
    """``radical`` on the Killing form K of g and on [g, g]."""
    return kernel(derived.basis @ K)


def nilradical(g: LieAlgebra, R: Optional[Subspace] = None) -> Subspace:
    """Maximal nilpotent ideal, as one linear system over the radical.

    With R = Rad(g) of dimension k and A the associative algebra generated
    by the ad_R(x), x in R, Nil(g) = {x in R : trace(ad_R(x) b) = 0 for b
    in a spanning set of A} in characteristic zero (de Graaf, Lie Algebras:
    Theory and Algorithms, 2000).  Any such kernel contains Nil(g), which
    contains the floor [g, R] + Z(g), a sum of nilpotent ideals; a kernel
    no larger than the floor is Nil(g).  In round one b runs over the
    generators ad_R(e_s), whose trace rows are the Killing form K_R of R;
    Z(g) joins the floor only if ker K_R exceeds [g, R].  K_R = R K(g) R^T:
    for x, y in the ideal R, ad x ad y maps g into R.

    Otherwise A grows on rref subspaces of the flattened k x k matrices:
    A_r is A_(r-1) plus the generators times the f rows with a new pivot
    in A_(r-1), formed in one product (the generators stacked, k^2 x k,
    times those rows side by side, k x k f), and as the pivots are nested
    only those rows add trace rows.  Once no pivot is new, A_r = A.
    Pass R = Rad(g) if it is known.
    """
    return _nilradical(g, radical(g) if R is None else R, killing_form(g))


def _nilradical(g: LieAlgebra, R: Subspace, K_g: Matrix) -> Subspace:
    """``nilradical`` on R = Rad(g) and the Killing form K_g of g."""
    k = R.dim
    if k == 0:
        return R
    K = restricted_gram(K_g, R)
    coords = kernel(K)
    floor = bracket_subspaces(g, Subspace.full(g.dim), R)
    if coords.dim > floor.dim:
        floor = sum_intersect(floor, center(g))[0]
    if coords.dim > floor.dim:
        gR = subalgebra_on(g, R)
        ads = [ad(gR, unit_vector(k, i)) for i in range(k)]
        # trace(ad_t B) = sum_ij (ad_t)_ji B_ij: B flattened times column t
        traces = Matrix.from_columns([M.transpose().flatten() for M in ads], k * k)
        stacked = Matrix._unchecked(tuple(chain.from_iterable(M.rows for M in ads)), k)
        A = Subspace.from_vectors(k * k, [M.flatten() for M in ads])
        fresh, trace_rows = A.vectors(), K.rows
    while coords.dim > floor.dim:
        # row i of W_f, for every fresh row W_f, side by side
        side = tuple(
            tuple(chain.from_iterable(row[i * k:(i + 1) * k] for row in fresh)) for i in range(k)
        )
        # block (t, f) of the product is ad_t W_f
        blocks = (stacked @ Matrix._unchecked(side, k * len(fresh))).rows
        words = [
            tuple(chain.from_iterable(row[f * k:(f + 1) * k] for row in blocks[t * k:(t + 1) * k]))
            for f in range(len(fresh))
            for t in range(k)
        ]
        grown = Subspace.from_vectors(k * k, A.vectors() + tuple(words))
        old = set(A.pivots)
        fresh = tuple(row for row, p in zip(grown.vectors(), grown.pivots) if p not in old)
        if not fresh:
            break
        A = grown
        trace_rows += (Matrix._unchecked(fresh, k * k) @ traces).rows
        coords = kernel(Matrix._unchecked(trace_rows, k))
    nil = floor if coords.dim <= floor.dim else Subspace(g.dim, coords.basis @ R.basis)
    ensure(is_ideal(g, nil), "nilradical candidate is not an ideal")
    ensure(
        nil.is_zero() or is_nilpotent(subalgebra_on(g, nil)),
        "nilradical candidate is not nilpotent",
    )
    return nil


# ---------------------------------------------------------------------------
# Heisenberg ideal detection
# ---------------------------------------------------------------------------

class HeisenbergIdealData:
    """An embedded ideal isomorphic to h_m, with the algebra it lies in.

    ``hbar`` spans the (1-dimensional) derived space of the ideal and is
    central in it; ``v_basis`` completes it to the ideal, and ``omega`` is
    the induced symplectic form: [v_i, v_j] = omega[i][j] hbar.
    Construction checks all of this on ``algebra`` and raises
    ``ValueError`` otherwise, so the functions that take an instance only
    check that it belongs to their algebra; the instance is immutable, and
    copies are built through the same checks.  Past the sizes and
    ``is_ideal`` the check is one equality: the ideal, transported to the
    basis (v_1, ..., v_2m, hbar), is ``heisenberg(m, omega)``, which
    validates omega.  The base change C holds the coordinates of v_1, ...,
    v_2m, hbar in the ideal's rref basis, read in one pass, so it is
    invertible exactly when they are a basis of the ideal, and equality of
    the integer tables says [v_i, v_j] = omega_ij hbar for i < j and
    [v_i, hbar] = 0.
    """

    __slots__ = ("algebra", "ideal", "hbar", "v_basis", "omega")

    def __init__(
        self, algebra: LieAlgebra, ideal: Subspace, hbar: Vector, v_basis: tuple, omega: Matrix
    ):
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
        for name, value in zip(self.__slots__, (algebra, ideal, hbar, v_basis, omega)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("HeisenbergIdealData is immutable")

    def __reduce__(self):
        return HeisenbergIdealData, self._values()

    def _values(self) -> tuple:
        return (self.algebra, self.ideal, self.hbar, self.v_basis, self.omega)

    @property
    def m(self) -> int:
        return (self.ideal.dim - 1) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, HeisenbergIdealData) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"HeisenbergIdealData(m={self.m} in dim {self.algebra.dim})"


def _heisenberg_data(
    g: LieAlgebra, candidate: Subspace
) -> Union[HeisenbergIdealData, str]:
    """The Heisenberg-ideal data on ``candidate``, or why there is none.

    Reads everything off the algebra on the candidate, in its rref basis
    b_1, ..., b_n: the rref generator c of its derived line is 1 at its
    first pivot p, hbar = sum_i c_i b_i, ``v_basis`` is the b_i, i != p,
    and omega_ij is the p-coefficient of [v_i, v_j].  As the b_i with
    i > p are 0 at the pivot column of b_p, hbar is 1 there and 0 before,
    so it is the rref generator of the derived line in g's coordinates.
    Every other condition is left to the ``HeisenbergIdealData``
    constructor.  The reasons name the derived subalgebra, the only
    candidate whose reason is ever reported; as [g, g] is an ideal, none
    of them is about ideal-ness.
    """
    dim = candidate.dim
    if dim == 0:
        return "derived subalgebra is zero"
    if dim % 2 == 0 or dim < 3:
        return f"derived subalgebra has dimension {dim}, not 2m+1 with m >= 1"
    failed = "candidate fails the Heisenberg bracket relations"
    try:
        inside = subalgebra_on(g, candidate)
    except ValueError:
        return failed
    derived = derived_subalgebra(inside)
    if derived.dim != 1:
        return (
            "derived subalgebra of the candidate has dimension "
            f"{derived.dim}, expected 1"
        )
    p = derived.pivots[0]
    hbar = (derived.basis @ candidate.basis).rows[0]
    kept = [i for i in range(dim) if i != p]
    v_basis = tuple(candidate.vectors()[i] for i in kept)
    d, table = _integer_table(inside)
    rows = tuple([tuple([dict(table[i][j]).get(p, 0) for j in kept]) for i in kept])
    omega = Matrix._from_ints(rows, dim - 1, d)
    try:
        return HeisenbergIdealData(g, candidate, hbar, v_basis, omega)
    except ValueError:
        return failed


def find_heisenberg_ideal(
    g: LieAlgebra, candidate: Subspace
) -> Optional[HeisenbergIdealData]:
    """Validate a subspace as a Heisenberg ideal and extract its data.

    Requires: an ideal of odd dimension 2m + 1 whose derived space is one
    dimensional and central in the candidate, with the induced form on a
    complement of the center nondegenerate.  ``hbar`` is normalized to the
    first rref generator of the derived line (omega is scaled instead).
    Returns None when any condition fails.
    """
    if candidate.ambient_dim != g.dim:
        raise ValueError("ambient dimension mismatch")
    h = _heisenberg_data(g, candidate)
    return h if isinstance(h, HeisenbergIdealData) else None


def _require_own_data(q: QuadraticLieAlgebra, h: HeisenbergIdealData) -> None:
    if h.algebra != q.algebra:
        raise ValueError("the Heisenberg-ideal data belongs to another algebra")


# ---------------------------------------------------------------------------
# structure recovery
# ---------------------------------------------------------------------------

class RecoveredStructure(NamedTuple):
    """Output of structure recovery: the data that rebuilds the algebra.

    ``base_change`` has rows (s-basis..., d, v-basis..., hbar) in the
    original coordinates; transporting the input through it reproduces
    ``rebuilt`` exactly, entry for entry.  ``complement`` is the normalized
    complement it started from.
    """

    s_basis: Subspace
    D: Matrix
    d: Vector
    sigmaD: SymplecticMap
    heis: HeisenbergIdealData
    base_change: Matrix
    core: QuadraticLieAlgebra
    rebuilt: QuadraticLieAlgebra
    complement: Tuple[Vector, ...]


def _normalized_complement(q: QuadraticLieAlgebra, h: HeisenbergIdealData) -> List[Vector]:
    """A complement of h in g inside V^perp whose brackets with V lie in V.

    Takes a complement of the hbar line in V^perp (non-pivot choice).  Its
    brackets [a, v] have no hbar-component, so no correction a -> a - L(a)
    is needed.  Proof: take z in V^perp with B(z, hbar) = 1.  For w in h
    the hbar-coefficient of w is B(w, z), as B(V, z) = 0.  For a in V^perp
    and v in V, [a, v] lies in the ideal h and its hbar-coefficient is
    B([a, v], z) = B(a, [v, z]) = c B(a, hbar), where c, the
    hbar-coefficient of [v, z], is B([v, z], z) = B(v, [z, z]) = 0.
    """
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
    a_vecs = [
        row for i, row in enumerate(Vperp.vectors()) if i != pivot
    ]
    # the proof above rests on every a lying in V^perp
    for a in a_vecs:
        ensure(is_zero_vec(VG.apply(a)), "complement does not lie in V^perp")
    return a_vecs


def _split_off_d(G_hbar: Vector, rows: List[Vector]) -> Tuple[Vector, List[Vector]]:
    """d = a / B(a, hbar) for the first row a with B(a, hbar) != 0, and the
    other rows minus their B(., hbar) multiple of d (so B(., hbar) = 0);
    ``G_hbar`` is G hbar, G the Gram matrix of B."""
    eta = [dot(a, G_hbar) for a in rows]
    jd = next((i for i, x in enumerate(eta) if x != 0), None)
    ensure(jd is not None, "B(., hbar) vanishes on the complement")
    d = scale_vec(1 / eta[jd], rows[jd])
    rest = [sub_vec(a, scale_vec(eta[i], d)) for i, a in enumerate(rows) if i != jd]
    return d, rest


def recover_structure(
    q: QuadraticLieAlgebra, h: HeisenbergIdealData
) -> RecoveredStructure:
    """Recover (S, B_S, D, d, sigma(D)) from a quadratic algebra with a
    Heisenberg ideal, with a base-change certificate.

    Follows the constructive normalization: choose a complement of h inside
    V^perp, pick d with B(d, hbar) = 1 normalized to B(d, d) = 0, slide the
    rest to S = {a - B(a, d) hbar}, and read off D and sigma(D) from the
    action of d.  The complement needs no correction to have V-free
    brackets (see ``_normalized_complement``).

    Everything is read in one coordinate system, the transport of q to the
    basis (S..., d, V..., hbar): the core structure, D, sigma(D), B_S, the
    metric on V and the zero blocks behind the ensures are its structure
    constants and Gram entries, the same numbers a bracket of the basis
    vectors followed by the inverse base change gives.  The result is
    verified by rebuilding: that transport must equal the rebuilt algebra
    exactly, else an internal error is raised.  That equality certifies
    the rebuild and, with the ensures on B_S and D, the core, so neither
    goes through the validating constructor.
    Raises ``ValueError`` when ``h`` was found in another algebra.
    """
    g, B = q.algebra, q.metric
    n = g.dim
    _require_own_data(q, h)
    two_m = 2 * h.m

    # hbar is central in g and B-orthogonal to the ideal; both are forced
    # by invariance for a valid Heisenberg ideal, so failures are internal
    ensure(ad(g, h.hbar).is_zero(), "hbar is not central in the ambient algebra")
    G_hbar = B.gram.apply(h.hbar)
    ensure(is_zero_vec(h.ideal.basis.apply(G_hbar)), "hbar is not orthogonal to the ideal")

    a_vecs = _normalized_complement(q, h)

    # d with B(d, hbar) = 1, then normalize B(d, d) = 0; G d follows d
    # through the normalization, so B(., d) needs no second product
    d, ker_eta = _split_off_d(G_hbar, a_vecs)
    G_d = B.gram.apply(d)
    t = dot(d, G_d) / 2
    d, G_d = sub_vec(d, scale_vec(t, h.hbar)), sub_vec(G_d, scale_vec(t, G_hbar))
    ensure(dot(d, G_d) == 0, "d normalization failed")
    ensure(dot(d, G_hbar) == 1, "B(d, hbar) != 1")

    # S = {a - B(a, d) hbar : a in Ker(eta)}
    s_raw = [sub_vec(a, scale_vec(dot(a, G_d), h.hbar)) for a in ker_eta]
    S_sub = Subspace.from_vectors(n, s_raw)
    k = len(ker_eta)
    ensure(S_sub.dim == k, "S lost dimension")

    # final basis (s..., d, v..., hbar); every block below is read off q
    # transported to it, the algebra the round trip at the end certifies
    P = Matrix(list(S_sub.vectors()) + [d] + list(h.v_basis) + [h.hbar], n)
    try:
        transported = transport_quadratic(q, P)
    except ValueError as exc:
        raise InternalVerificationError("recovered basis is not a basis") from exc
    dT, table = _integer_table(transported.algebra)
    G = transported.metric.gram._ints

    d_slot = k
    v_slots = range(k + 1, k + 1 + two_m)
    h_slot = n - 1

    def coords(i: int, j: int) -> List[int]:
        """dT [f_i, f_j], f the new basis, as a dense integer row."""
        out = [0] * n
        for t, v in table[i][j]:
            out[t] = v
        return out

    for i in range(k):
        ensure(G[i][d_slot] == 0, "B(S, d) != 0")
        ensure(G[i][h_slot] == 0, "B(S, hbar) != 0")
        ensure(all(G[i][t] == 0 for t in v_slots), "B(S, V) != 0")

    s_structure = {}
    for i in range(k):
        for j in range(i + 1, k):
            c = coords(i, j)
            ensure(c[d_slot] == 0, "[S, S] has a d-component")
            ensure(
                all(c[t] == 0 for t in v_slots),
                "[S, S] has a V-component",
            )
            s_structure[(i, j)] = list(enumerate(c[:k]))

    D_cols = []
    for j in range(k):
        c = coords(d_slot, j)
        ensure(c[d_slot] == 0, "[d, S] has a d-component")
        ensure(all(c[t] == 0 for t in v_slots), "[d, S] has a V-component")
        ensure(c[h_slot] == 0, "[d, S] has an hbar-component")
        D_cols.append(c[:k])
    D_mat = Matrix._from_ints(tuple(zip(*D_cols)), k, dT)

    sigma_cols = []
    for j in v_slots:
        c = coords(d_slot, j)
        ensure(
            all(c[t] == 0 for t in range(k)) and c[d_slot] == 0,
            "[d, V] left V",
        )
        ensure(c[h_slot] == 0, "[d, V] has an hbar-component")
        sigma_cols.append(c[k + 1:h_slot])
    sigma_mat = Matrix._from_ints(tuple(zip(*sigma_cols)), two_m, dT)
    ensure(sigma_mat.det() != 0, "sigma(D) is singular")
    ensure(in_omega_algebra(sigma_mat, h.omega), "sigma(D) is not in o(omega)")

    for i in range(k):
        for j in v_slots:
            ensure(not table[i][j], "[S, V] != 0")

    e = transported.metric.gram._den
    B_S = Matrix._from_ints(tuple([row[:k] for row in G[:k]]), k, e)
    ensure(k == 0 or B_S.det() != 0, "metric degenerates on S")
    gram_V = Matrix._from_ints(tuple([G[t][k + 1:h_slot] for t in v_slots]), two_m, e)
    ensure(
        sigma_mat.transpose() @ gram_V == h.omega,
        "metric on V does not match omega(sigma^{-1} u, v)",
    )

    # Neither the core nor the rebuild is validated on its own.  The rebuild
    # equals the transport above, a valid algebra, once the round trip
    # below holds.  hbar is central and B(hbar, S) = 0, so the S-components
    # of the rebuild's Jacobi identity and invariance on S are the core's,
    # and the core's nondegeneracy is the B_S ensure above.
    s_algebra = LieAlgebra._from_ints(k, dT, s_structure, [f"s{t + 1}" for t in range(k)])
    core = QuadraticLieAlgebra._unchecked(s_algebra, BilinearForm(B_S))
    ensure(is_derivation(s_algebra, D_mat), "recovered D is not a derivation")
    ensure(
        (D_mat.transpose() @ B_S + B_S @ D_mat).is_zero(),
        "recovered D is not skew-symmetric",
    )

    # h checked omega, the ensures above sigma(D)
    sigma_map = SymplecticMap._unchecked(h.omega, sigma_mat)
    algebra, gram = _assemble(core, D_mat, sigma_map.space, sigma_mat)
    rebuilt = QuadraticLieAlgebra._unchecked(algebra, BilinearForm(gram))
    ensure(
        transported == rebuilt,
        "round trip failed: transported algebra differs from the rebuilt one",
    )
    return RecoveredStructure(
        s_basis=S_sub,
        D=D_mat,
        d=d,
        sigmaD=sigma_map,
        heis=h,
        base_change=P,
        core=core,
        rebuilt=rebuilt,
        complement=tuple(a_vecs),
    )


# ---------------------------------------------------------------------------
# extended-Heisenberg recognizer
# ---------------------------------------------------------------------------

class ExtendedHeisenbergVerdict(NamedTuple):
    """The algebra is h_m(phi); transporting by the certificate equals it.

    The certificate is ``recovered.base_change``, and the extend_heisenberg
    output it maps onto is ``recovered.rebuilt``.
    """

    recovered: RecoveredStructure


class DecomposableVerdict(NamedTuple):
    """A nondegenerate ideal splits the algebra orthogonally."""

    ideal: Subspace
    factors: Tuple[QuadraticLieAlgebra, QuadraticLieAlgebra]
    recovered: RecoveredStructure


class NotApplicableVerdict(NamedTuple):
    """The derived subalgebra is not a Heisenberg ideal."""

    reason: str


Verdict = Union[ExtendedHeisenbergVerdict, DecomposableVerdict, NotApplicableVerdict]


def recognize_extended_heisenberg(q: QuadraticLieAlgebra) -> Verdict:
    """Decide whether q is an extended Heisenberg algebra.

    Outcomes: the derived subalgebra is not a Heisenberg ideal
    (NotApplicable); recovery has trivial core S = 0 (ExtendedHeisenberg,
    with a base-change certificate onto an extend_heisenberg output); or
    S != 0, in which case [g, g] = h_m forces D = 0 and S abelian, so S is
    a nondegenerate ideal and the algebra splits (Decomposable).
    """
    return _recognize(q, derived_subalgebra(q.algebra))


def _recognize(
    q: QuadraticLieAlgebra, derived: Subspace, h: Optional[HeisenbergIdealData] = None
) -> Verdict:
    """``recognize_extended_heisenberg`` on the derived subalgebra of q;
    ``h``, when given, is the Heisenberg data already found on it."""
    if h is None:
        h = _heisenberg_data(q.algebra, derived)
    if isinstance(h, str):
        return NotApplicableVerdict(h)
    rec = recover_structure(q, h)
    if rec.s_basis.dim == 0:
        # with S = 0 the rebuild is extend_heisenberg(m, omega, sigmaD), and
        # recovery has certified that the base change maps q onto it
        return ExtendedHeisenbergVerdict(rec)
    ensure(rec.D.is_zero(), "derived = h_m but D != 0")
    ensure(not rec.core.algebra.structure, "derived = h_m but S is nonabelian")
    split = split_by_nondegenerate_ideal(q, rec.s_basis)
    ensure(split is not None, "nondegenerate core failed to split the algebra")
    return DecomposableVerdict(rec.s_basis, split, rec)


# ---------------------------------------------------------------------------
# quotient metrics and complement subalgebras
# ---------------------------------------------------------------------------

class ComplementWitness(NamedTuple):
    """A subalgebra complement to the Heisenberg ideal, with the invariant
    quotient metric it was built from and the c with F = ad(c)."""

    complement: Subspace
    quotient_metric: BilinearForm
    c: Vector


class QuotientMetricObstruction(NamedTuple):
    """Proof that g/h_m admits no invariant metric.

    On the normalized complement a_1, ..., a_k write [a_i, a_j] =
    sum_l beta_ij^l a_l + mu_ij hbar for the pairs i < j in lexicographic
    order.  A complement {a_i + lambda_i hbar} is a subalgebra exactly when
    beta lambda = mu, and ``y``, indexed by the pairs, has y^T beta = 0 and
    y^T mu != 0, so that system has no solution (Fredholm alternative).
    """

    complement: Tuple[Vector, ...]
    y: Vector


def quotient_metric_from_complement(
    q: QuadraticLieAlgebra, h: HeisenbergIdealData, comp: Subspace
) -> BilinearForm:
    """Invariant metric on g/h_m built from a subalgebra complement.

    Normalizes the complement to S ⊕ QQ d coordinates (d with B(d, hbar) =
    1 and B(d, S) = 0) and evaluates B_a(a + λd, b + μd) = B(a, b) + λμ on
    quotient representatives: with C the rref basis of the complement and
    pi the matrix whose columns are the projections of its rows, the
    representatives of the quotient basis are the rows of pi^-T C; with
    lambda their B(., hbar) and S = reps - lambda d^T, the Gram matrix is
    S G S^T + lambda lambda^T, G the Gram matrix of B.  The output is
    verified to be an invariant metric on the quotient.  Raises
    ``ValueError`` when ``h`` was found in another algebra or ``comp`` is
    not a subalgebra complement.
    """
    g = q.algebra
    n = g.dim
    _require_own_data(q, h)
    if comp.ambient_dim != n:
        raise ValueError("complement has wrong ambient dimension")
    total, meet = sum_intersect(comp, h.ideal)
    if not total.is_full() or not meet.is_zero():
        raise ValueError("subspace is not a complement to the ideal")
    if not is_subalgebra(g, comp):
        raise ValueError("complement is not a subalgebra")
    q_alg, proj = quotient(g, h.ideal)
    C = comp.basis
    G = q.metric.gram
    G_hbar = G.apply(h.hbar)
    d, s_rows = _split_off_d(G_hbar, C.rows)
    if s_rows:
        S0 = Matrix(s_rows, n)
        S0G = S0 @ G
        correction = solve(S0G @ S0.transpose(), S0G.apply(d))
        ensure(correction is not None, "cannot orthogonalize d against S")
        d = sub_vec(d, S0.transpose().apply(correction))
        ensure(is_zero_vec(S0G.apply(d)), "d orthogonalization failed")

    pi_inv = _inverse_or_none(proj @ C.transpose())
    ensure(pi_inv is not None, "complement does not project onto the quotient")
    reps = pi_inv.transpose() @ C
    lambdas = reps.apply(G_hbar)
    S = reps - _outer(lambdas, d)
    form = BilinearForm(S @ G @ S.transpose() + _outer(lambdas, lambdas))
    ensure(
        not check_invariant_metric(q_alg, form),
        "constructed quotient form is not an invariant metric",
    )
    return form


def _inverse_or_none(M: Matrix) -> Optional[Matrix]:
    """M^-1, or None when M is singular: one elimination decides both."""
    try:
        return M.inverse()
    except ValueError:
        return None


def _outer(x: Vector, y: Vector) -> Matrix:
    """The matrix x y^T, with entries x_i y_j."""
    return Matrix([[a * b for b in y] for a in x], len(y))


def _complement_brackets(
    q: QuadraticLieAlgebra, h: HeisenbergIdealData, a_vecs: Optional[tuple] = None
) -> Tuple[Matrix, Matrix, Matrix, Vector]:
    """(A, E^-1, beta, mu): A the matrix whose rows are the normalized
    complement a_1, ..., a_k (``a_vecs``, else ``_normalized_complement``),
    E^-1 the inverse of the basis E = (a..., v..., hbar), and [a_i, a_j] =
    sum_l beta_ij^l a_l + mu_ij hbar for the pairs i < j in lexicographic
    order, beta the matrix with rows beta_ij and mu the vector of the
    mu_ij.  The brackets are ensured to have no V-component."""
    n = q.dim
    a_vecs = list(a_vecs or _normalized_complement(q, h))
    k = len(a_vecs)
    E_inv = _inverse_or_none(Matrix.from_columns(a_vecs + list(h.v_basis) + [h.hbar], n))
    ensure(E_inv is not None, "complement plus ideal is not a basis")
    A = Matrix(a_vecs, n)
    # [a_i, a_j] = sum v / den (a..., v..., hbar)_t over the (t, v) of
    # brackets[(i, j)]: the coordinates E^-1 [a_i, a_j] of ``transport``
    den, brackets = _structure_in(q.algebra, A, E_inv.transpose())
    beta, mu = [], []
    for pair in combinations(range(k), 2):
        coords = [0] * n
        for t, v in brackets.get(pair, ()):
            coords[t] = v
        ensure(not any(coords[k:n - 1]), "[a, b] has a V-component on the normalized complement")
        beta.append(tuple(coords[:k]))
        mu.append(coords[n - 1])
    return A, E_inv, Matrix._from_ints(tuple(beta), k, den), _fractions(mu, den)


def complement_from_quotient_metric(
    q: QuadraticLieAlgebra, h: HeisenbergIdealData, Ba: BilinearForm
) -> ComplementWitness:
    """Subalgebra complement to h_m built from an invariant quotient metric.

    Implements the musical-map machinery: varphi = B# ∘ p* ∘ Ba_flat splits
    as T + Ba(e, ·) hbar, the hbar part of the bracket on the complement is
    Ba(F(a), b), T is Ba-symmetric and T∘F = F∘T = ad(e); F is an inner
    derivation ad(c), and {a + Ba(c, a) hbar} is the subalgebra complement.
    The symmetry and commutation identities are asserted on every run.
    Raises ``ValueError`` when ``h`` was found in another algebra or ``Ba``
    is not an invariant metric on the quotient; these checks are on the
    caller's ``Ba``, and ``has_invariant_quotient_metric`` runs the same
    construction on its own metric without them.
    """
    _require_own_data(q, h)
    q_alg, proj = quotient(q.algebra, h.ideal)
    if Ba.dim != q_alg.dim:
        raise ValueError("quotient form has the wrong dimension")
    if check_invariant_metric(q_alg, Ba):
        raise ValueError("form is not an invariant metric on the quotient")
    return _complement_from_metric(q, h, Ba, proj, _complement_brackets(q, h))


def _complement_from_metric(
    q: QuadraticLieAlgebra,
    h: HeisenbergIdealData,
    Ba: BilinearForm,
    proj: Matrix,
    complement: Tuple[Matrix, Matrix, Matrix, Vector],
) -> ComplementWitness:
    """The body of ``complement_from_quotient_metric`` on an invariant
    metric ``Ba`` of the quotient, with the projection onto it and the
    ``_complement_brackets`` output.

    Works in complement coordinates, with products of whole matrices: A
    has the rows a_i and G is the Gram matrix of B.  The pulled-back metric
    is G_a = pi^T Ba pi with pi = p A^T; B on the complement is A G A^T, and
    eta = A G hbar.  One pass over the brackets fills the skew matrix of
    the mu_ij and the matrix K with K c = ad(c), flattened row by row.  The
    complement rows are A + (G_a c) hbar^T, and c is A^T c in g.
    """
    g, G = q.algebra, q.metric.gram
    n = g.dim
    qd = proj.nrows
    A, E_inv, beta, mu = complement
    ensure(A.nrows == qd, "complement dimension mismatch")

    # pull the quotient metric back to the complement
    pi = proj @ A.transpose()  # column i = p(a_i)
    ensure(pi.is_invertible(), "complement does not project onto the quotient")
    G_a = pi.transpose() @ Ba.gram @ pi
    G_a_inv = _inverse_or_none(G_a)
    ensure(G_a_inv is not None, "pulled-back quotient metric is degenerate")

    # the hbar-part of the brackets as a skew matrix, and ad as K
    mu_rows = [[Fraction(0)] * qd for _ in range(qd)]
    K_rows = [[Fraction(0)] * qd for _ in range(qd * qd)]
    for (i, j), beta_ij, mu_ij in zip(combinations(range(qd), 2), beta.rows, mu):
        mu_rows[i][j], mu_rows[j][i] = mu_ij, -mu_ij
        for r, x in enumerate(beta_ij):
            K_rows[r * qd + j][i], K_rows[r * qd + i][j] = x, -x
    K = Matrix(K_rows, qd)

    # varphi(a_i) = B#(Ba(a_i, p(.))), in E-coordinates column by column
    alpha = G_a @ Matrix(E_inv.rows[:qd], n)  # row i = the covector Ba(a_i, p(.))
    try:
        G_inv = G.inverse()
    except ValueError as exc:
        raise InternalVerificationError("metric failed to invert") from exc
    varphi = E_inv @ (G_inv @ alpha.transpose())
    ensure(Matrix(varphi.rows[qd:n - 1], qd).is_zero(), "varphi has a V-component")
    T = Matrix(varphi.rows[:qd], qd)
    e = solve(G_a, varphi.rows[n - 1])
    ensure(e is not None, "no element e with Ba(e, .) matching varphi")

    # Ba-symmetry of T (asserted on every run)
    ensure(T.transpose() @ G_a == G_a @ T, "T is not Ba-symmetric")

    # F from mu(a, b) = Ba(F(a), b)
    F = G_a_inv @ Matrix(mu_rows, qd).transpose()

    # e: a = T(phi(a)) + B(a, hbar) e on the complement, and B(e, hbar) = 1
    AG = A @ G
    phi = G_a_inv @ AG @ A.transpose()  # column i = phi(a_i)
    eta = AG.apply(h.hbar)
    ensure(
        T @ phi + _outer(e, eta) == Matrix.identity(qd),
        "decomposition a = T(phi(a)) + B(a, hbar) e failed",
    )
    ensure(dot(e, eta) == 1, "B(e, hbar) != 1")

    # T∘F = F∘T = ad(e) (asserted on every run)
    ad_e_flat = K.apply(e)
    ad_e = Matrix([ad_e_flat[r * qd:(r + 1) * qd] for r in range(qd)], qd)
    ensure(T @ F == ad_e, "T∘F != ad(e)")
    ensure(F @ T == ad_e, "F∘T != ad(e)")

    # F is inner: solve F = ad(c)
    c = solve(K, F.flatten())
    ensure(c is not None, "F is not an inner derivation")

    comp = Subspace(n, A + _outer(G_a.apply(c), h.hbar))  # rows a_i + Ba(c, a_i) hbar
    ensure(comp.dim == qd, "complement rows are dependent")
    ensure(is_subalgebra(g, comp), "constructed complement is not a subalgebra")
    total, meet = sum_intersect(comp, h.ideal)
    ensure(
        total.is_full() and meet.is_zero(),
        "constructed subspace is not a complement",
    )
    return ComplementWitness(comp, Ba, A.transpose().apply(c))


def has_invariant_quotient_metric(
    q: QuadraticLieAlgebra, h: HeisenbergIdealData
) -> Union[ComplementWitness, QuotientMetricObstruction]:
    """Decide whether g/h_m admits an invariant metric, with a certificate.

    A metric exists exactly when a subalgebra complement to h_m does, and
    from any metric ``complement_from_quotient_metric`` builds one of the
    form {a_i + lambda_i hbar} on the normalized complement.  So a metric
    exists exactly when beta lambda = mu is solvable (see
    ``QuotientMetricObstruction``), k(k - 1)/2 equations in the k =
    dim g/h_m unknowns.  When it is, the witness metric is the first
    nondegenerate solver-basis form of the quotient, else -2 times their
    sum when that is nondegenerate, else the metric that
    ``quotient_metric_from_complement`` builds on {a_i + lambda_i hbar},
    and the result is the ``ComplementWitness`` that
    ``complement_from_quotient_metric`` builds from it.  The normalized
    complement and its brackets are computed once for both steps, and so
    is the quotient for the first two witness metrics; the third comes
    from ``quotient_metric_from_complement``, whose input checks pass, as
    beta lambda = mu makes {a_i + lambda_i hbar} a subalgebra complement.
    The witness metric, invariant by construction, is not checked again.
    Otherwise the obstruction is returned.  Raises ``ValueError`` when
    ``h`` was found in another algebra.
    """
    _require_own_data(q, h)
    return _quotient_metric_decision(q, h, _complement_brackets(q, h))


def _quotient_metric_decision(q: QuadraticLieAlgebra, h: HeisenbergIdealData, complement: tuple):
    """``has_invariant_quotient_metric`` on a ``_complement_brackets`` output."""
    A, _, beta, mu = complement
    lambdas = solve(beta, mu)
    if lambdas is None:
        beta_t = beta.transpose()
        y = next((y for y in kernel(beta_t).vectors() if dot(y, mu) != 0), None)
        ensure(
            y is not None and is_zero_vec(beta_t.apply(y)) and dot(y, mu) != 0,
            "unsolvable complement system has no Fredholm certificate",
        )
        return QuotientMetricObstruction(A.rows, y)
    q_alg, proj = quotient(q.algebra, h.ideal)
    forms = invariant_symmetric_forms(q_alg)
    Ba = next((form for form in forms if form.is_nondegenerate()), None)
    if Ba is None and forms:
        gram = sum((form.gram for form in forms[1:]), forms[0].gram).scale(-2)
        if gram.det() != 0:
            Ba = BilinearForm(gram)
    if Ba is None:
        Ba = quotient_metric_from_complement(q, h, Subspace(q.dim, A + _outer(lambdas, h.hbar)))
    return _complement_from_metric(q, h, Ba, proj, complement)


# ---------------------------------------------------------------------------
# nilradical theorem verifier
# ---------------------------------------------------------------------------

class NilradicalTheoremReport(NamedTuple):
    """Clause-by-clause verification that Rad(g) is a nondegenerate ideal
    isomorphic to an extended Heisenberg algebra when Nil(g) = h_m.

    ``radical_verdict`` is the recognizer's verdict on Rad(g) with the
    restricted metric, in the rref coordinates of the radical; it is set
    exactly when every clause holds.  When Rad(g) = g those coordinates
    are g's own, so it is the recognizer's verdict on g.  The report is
    ``applicable`` when Nil(g) validated as a Heisenberg ideal, and
    ``whole_algebra`` when, besides, Rad(g) = g."""

    nilradical: Subspace
    radical: Subspace
    heisenberg: Optional[HeisenbergIdealData]
    clauses: tuple  # of (name, bool) pairs
    radical_verdict: Optional[ExtendedHeisenbergVerdict]

    @property
    def applicable(self) -> bool:
        return self.heisenberg is not None

    @property
    def whole_algebra(self) -> bool:
        return self.applicable and self.radical.is_full()

    @property
    def passed(self) -> bool:
        return self.applicable and all(ok for _, ok in self.clauses)


def verify_nilradical_theorem(q: QuadraticLieAlgebra) -> NilradicalTheoremReport:
    """Check the radical clauses on an algebra whose nilradical is h_m.

    When the nilradical does not validate as a Heisenberg ideal the report
    is marked not applicable.  Otherwise the clauses verify: the radical is
    an ideal, the metric restricted to it is nondegenerate, it extends the
    nilradical by one line, and the recognizer on the radical returns an
    extended Heisenberg verdict.  The last clause follows from the first
    three: with Rad(g) = h_m + QQ d, invariance gives omega(u, v) =
    -B(u, [d, v]) / B(d, hbar) on V, so sigma(D), the V-part of ad(d), is
    invertible and [Rad(g), Rad(g)] = sigma(D)(V) + QQ hbar = Nil(g).  That
    is a Heisenberg ideal with a one-line complement in the radical, so
    the recovered core is trivial.  Any other verdict is an internal
    failure.
    """
    g = q.algebra
    return _nilradical_theorem(q, killing_form(g), derived_subalgebra(g))


def _nilradical_theorem(
    q: QuadraticLieAlgebra, K: Matrix, derived: Subspace
) -> NilradicalTheoremReport:
    """``verify_nilradical_theorem`` on the Killing form K of g and on
    [g, g], which serve the radical, the nilradical and, when Rad(g) = g,
    the recognizer; that one also reuses the Heisenberg data of Nil(g) when
    [g, g] = Nil(g)."""
    g = q.algebra
    rad = _radical(K, derived)
    nil = _nilradical(g, rad, K)
    h = find_heisenberg_ideal(g, nil)
    clauses, verdict = (), None
    if h is not None:
        clause_ideal = is_ideal(g, rad)
        clause_nondeg = form_restrict_nondegenerate(q.metric.gram, rad)
        clause_line = rad.dim == nil.dim + 1 and rad.contains_subspace(nil)
        if clause_ideal and clause_nondeg and clause_line:
            if rad.is_full():
                # the data of Nil(g) is that of [g, g] when the two are equal
                verdict = _recognize(q, derived, h if derived == nil else None)
            else:
                verdict = recognize_extended_heisenberg(restrict_quadratic(q, rad))
            ensure(
                isinstance(verdict, ExtendedHeisenbergVerdict),
                "the radical is not an extended Heisenberg algebra",
            )
        clauses = (
            ("radical_is_ideal", clause_ideal),
            ("radical_nondegenerate", clause_nondeg),
            ("radical_extends_nilradical_by_line", clause_line),
            ("radical_is_extended_heisenberg", verdict is not None),
        )
    return NilradicalTheoremReport(nil, rad, h, clauses, verdict)


# ---------------------------------------------------------------------------
# the analysis
# ---------------------------------------------------------------------------

class Analysis(NamedTuple):
    """Everything ``analyze`` finds about one quadratic algebra.

    ``source`` says where the Heisenberg ideal was looked for: "given",
    "nilradical" or "derived" ([g, g]).  ``heisenberg``, ``recovery`` and
    ``quotient_metric`` are set exactly when an ideal was found."""

    theorem: NilradicalTheoremReport
    verdict: Verdict
    source: str
    heisenberg: Optional[HeisenbergIdealData]
    recovery: Optional[RecoveredStructure]
    quotient_metric: Union[ComplementWitness, QuotientMetricObstruction, None]


def analyze(q: QuadraticLieAlgebra, ideal: Optional[Subspace] = None) -> Analysis:
    """The nilradical theorem check, the recognizer verdict and, over a
    Heisenberg ideal, the recovery and the quotient-metric decision.

    The ideal is ``ideal`` when given, else Nil(g), else [g, g].  Each
    algebra is recognized and recovered once: when Rad(g) = g the theorem
    check has run the recognizer on the radical in g's own coordinates,
    and its verdict is g's; otherwise the recognizer runs on g.  The
    recovery is the recognizer's when that is over the same ideal, and its
    complement is the decision's.  K(g) and [g, g] are computed once, for
    the theorem check and the recognizer alike.
    """
    derived = derived_subalgebra(q.algebra)
    theorem = _nilradical_theorem(q, killing_form(q.algebra), derived)
    verdict = theorem.radical_verdict if theorem.whole_algebra else None
    if verdict is None:
        verdict = _recognize(q, derived)
    recovered = getattr(verdict, "recovered", None)
    if ideal is not None:
        source, h = "given", find_heisenberg_ideal(q.algebra, ideal)
    elif theorem.heisenberg is not None:
        source, h = "nilradical", theorem.heisenberg
    else:
        # the recognizer recovers from the Heisenberg data of [g, g]
        # exactly when [g, g] is a Heisenberg ideal
        source, h = "derived", None if recovered is None else recovered.heis
    if h is None:
        return Analysis(theorem, verdict, source, None, None, None)
    if recovered is None or recovered.heis != h:
        recovered = recover_structure(q, h)
    decision = _quotient_metric_decision(q, h, _complement_brackets(q, h, recovered.complement))
    return Analysis(theorem, verdict, source, h, recovered, decision)
