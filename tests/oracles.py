"""Reference implementations kept only as test oracles.

These are the earlier, slower algorithms for the Killing form and the
nilradical.  The library replaced them with sparse, direct versions; the
tests compare the two on many algebras and require identical values.
"""

from fractions import Fraction
from typing import List

from quadlie.exactla import Matrix, Subspace, add_vec, kernel, scale_vec, unit_vector, zero_vector
from quadlie.liealg import LieAlgebra, ad, derived_subalgebra, subalgebra_on


def killing_form_by_products(g: LieAlgebra) -> Matrix:
    """K(x, y) = trace(ad x · ad y) through n^2 dense matrix products."""
    ads = [ad(g, unit_vector(g.dim, i)).matrix for i in range(g.dim)]
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
