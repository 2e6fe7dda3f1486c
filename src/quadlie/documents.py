"""JSON interchange documents for algebras and constructions.

Rationals travel as canonical strings ("p" or "p/q" with q > 1 and
gcd(|p|, q) = 1) so that no float contamination is possible.  Each literal
is parsed straight to its integer pair, and the pairs become the integer
table of the ``LieAlgebra`` and the integer rows of each ``Matrix``;
matrices and bracket tables print from those integers.  Serialization is
byte-deterministic: sorted keys, two-space indent and a trailing newline.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from math import gcd, lcm
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from .exactla import Matrix, _parse_literal, format_rational
from .heisenberg import (
    SymplecticSpace,
    build_with_heisenberg_ideal,
    coadjoint_double,
    double_extension,
    extend_heisenberg,
    heisenberg,
)
from .liealg import LieAlgebra, _integer_table, _upper
from .quadform import BilinearForm, QuadraticLieAlgebra


class DocumentError(ValueError):
    """Malformed interchange document; ``where`` locates the offence."""

    def __init__(self, message: str, where: str = ""):
        self.message, self.where = message, where
        super().__init__(f"{where}: {message}" if where else message)


class AlgebraDocument(NamedTuple):
    """An algebra (and optional metric) in interchange form."""

    name: str
    algebra: LieAlgebra
    metric: Optional[BilinearForm] = None

    def quadratic(self) -> QuadraticLieAlgebra:
        if self.metric is None:
            raise DocumentError("document carries no metric", "metric")
        return QuadraticLieAlgebra(self.algebra, self.metric)


def _expect(condition: bool, message: str, where: str, *args: int) -> None:
    """Raise at the location ``where.format(*args)``, built only then."""
    if not condition:
        raise DocumentError(message, where.format(*args))


def _is_int(value: Any) -> bool:
    """A JSON integer; ``true`` and ``false`` decode to bools, which are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_rational_at(value: Any, where: str, *args: int) -> Tuple[int, int]:
    """(p, q) of the literal ``value``, else an error at ``where.format(*args)``."""
    try:
        if isinstance(value, str):
            return _parse_literal(value)
        message = f"expected a rational string, got {value!r}"
    except ValueError as exc:
        message = str(exc)
    raise DocumentError(message, where.format(*args))


def _parse_matrix(value: Any, where: str, nrows: Optional[int] = None,
                  ncols: Optional[int] = None) -> Matrix:
    _expect(isinstance(value, list), "expected a matrix (list of rows)", where)
    entry = where + "[{}][{}]"
    rows = []
    for r, row in enumerate(value):
        _expect(isinstance(row, list), "expected a row (list)", where + "[{}]", r)
        rows.append([_parse_rational_at(x, entry, r, c) for c, x in enumerate(row)])
    widths = {len(row) for row in rows}
    _expect(len(widths) <= 1, "ragged matrix rows", where)
    den = lcm(*[q for row in rows for _, q in row])
    ints = tuple([tuple([p * (den // q) for p, q in row]) for row in rows])
    matrix = Matrix._from_ints(ints, widths.pop() if widths else (ncols or 0), den)
    if nrows is not None:
        _expect(matrix.nrows == nrows, f"expected {nrows} rows", where)
    if ncols is not None:
        _expect(matrix.ncols == ncols, f"expected {ncols} columns", where)
    return matrix


def _format_ints(ints: Sequence[int], den: int) -> List[str]:
    """The canonical literals of v / den, den > 0."""
    if den == 1:
        return [str(v) for v in ints]
    out = []
    for v in ints:
        g = gcd(v, den)
        out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    return out


def matrix_to_json(M: Matrix) -> List[List[str]]:
    return [_format_ints(row, M._den) for row in M._ints]


def vector_to_json(v: Sequence[Fraction]) -> List[str]:
    return [format_rational(x) for x in v]


def algebra_document_from_json(data: Any) -> AlgebraDocument:
    """Parse and validate an AlgebraDocument from decoded JSON."""
    _expect(isinstance(data, dict), "expected an object", "$")
    for field in ("name", "dim", "basis", "brackets"):
        if field not in data:
            raise DocumentError(f"missing field {field!r}", "$")
    name = data["name"]
    _expect(isinstance(name, str), "name must be a string", "name")
    dim = data["dim"]
    _expect(_is_int(dim) and dim >= 0, "dim must be a nonnegative integer", "dim")
    basis = data["basis"]
    _expect(
        isinstance(basis, list) and all(isinstance(s, str) for s in basis),
        "basis must be a list of labels",
        "basis",
    )
    _expect(len(basis) == dim, "basis length must equal dim", "basis")
    brackets = data["brackets"]
    _expect(isinstance(brackets, list), "brackets must be a list", "brackets")
    structure = {}
    at, term_at, c_at = "brackets[{}]", "brackets[{}].terms[{}]", "brackets[{}].terms[{}].c"
    for t, entry in enumerate(brackets):
        _expect(isinstance(entry, dict), "expected an object", at, t)
        for field in ("i", "j", "terms"):
            if field not in entry:
                raise DocumentError(f"missing field {field!r}", at.format(t))
        i, j, terms = entry["i"], entry["j"], entry["terms"]
        _expect(_is_int(i) and _is_int(j), "indices must be integers", at, t)
        _expect(0 <= i < dim and 0 <= j < dim, "index out of range", at, t)
        _expect(i < j, "brackets require i < j", at, t)
        _expect((i, j) not in structure, "duplicate bracket pair", at, t)
        _expect(isinstance(terms, list), "terms must be a list", at, t)
        pairs = []
        for u, term in enumerate(terms):
            _expect(isinstance(term, dict), "expected an object", term_at, t, u)
            _expect("k" in term and "c" in term, "term needs fields k and c", term_at, t, u)
            k = term["k"]
            _expect(_is_int(k) and 0 <= k < dim, "k out of range", term_at, t, u)
            pairs.append((k, *_parse_rational_at(term["c"], c_at, t, u)))
        structure[(i, j)] = pairs
    den = lcm(*[q for pairs in structure.values() for _, _, q in pairs])
    ints = {key: [(k, p * (den // q)) for k, p, q in pairs] for key, pairs in structure.items()}
    algebra = LieAlgebra._from_ints(dim, den, ints, basis)
    metric = None
    if data.get("metric") is not None:
        gram = _parse_matrix(data["metric"], "metric", nrows=dim, ncols=dim)
        try:
            metric = BilinearForm(gram)
        except ValueError:  # gram is dim x dim: it failed the symmetry check
            raise DocumentError("metric must be symmetric", "metric") from None
    return AlgebraDocument(name, algebra, metric)


def algebra_document_to_json(doc: AlgebraDocument) -> dict:
    """The document of an algebra, its brackets printed from the integer table."""
    d, table = _integer_table(doc.algebra)
    brackets = []
    for (i, j), entries in _upper(table).items():
        targets, ints = zip(*entries)
        terms = [{"k": k, "c": c} for k, c in zip(targets, _format_ints(ints, d))]
        brackets.append({"i": i, "j": j, "terms": terms})
    data = {
        "name": doc.name,
        "dim": doc.algebra.dim,
        "basis": list(doc.algebra.basis_labels),
        "brackets": brackets,
    }
    if doc.metric is not None:
        data["metric"] = matrix_to_json(doc.metric.gram)
    return data


CONSTRUCTION_KINDS = (
    "heisenberg",
    "extend_heisenberg",
    "double_extension",
    "build_with_heisenberg_ideal",
    "coadjoint_double",
)


def _parse_m_omega(params: dict) -> Tuple[int, Optional[Matrix]]:
    """The parameter m and the optional 2m x 2m parameter omega."""
    m = params.get("m")
    _expect(_is_int(m) and m >= 1, "parameter m must be a positive integer",
            "parameters.m")
    omega = None
    if params.get("omega") is not None:
        omega = _parse_matrix(params["omega"], "parameters.omega", 2 * m, 2 * m)
    return m, omega


def _nested_document(params: dict, key: str) -> AlgebraDocument:
    """The algebra document in parameter ``key``, its errors located under
    ``parameters.<key>`` (the document's root ``$`` becomes that prefix)."""
    _expect(key in params, f"missing parameter {key!r}", "parameters")
    where = f"parameters.{key}"
    try:
        return algebra_document_from_json(params[key])
    except DocumentError as exc:
        inner = where if exc.where == "$" else f"{where}.{exc.where}"
        raise DocumentError(exc.message, inner) from exc


def _parse_core(params: dict) -> Tuple[QuadraticLieAlgebra, Matrix]:
    """The quadratic core S and its derivation D."""
    inner = _nested_document(params, "S")
    _expect(inner.metric is not None, "core document needs a metric", "parameters.S")
    _expect("D" in params, "missing parameter 'D'", "parameters")
    D = _parse_matrix(params["D"], "parameters.D", inner.algebra.dim, inner.algebra.dim)
    try:
        return inner.quadratic(), D
    except ValueError as exc:
        raise DocumentError(str(exc), "parameters.S") from exc


def construct_from_json(data: Any) -> AlgebraDocument:
    """Run the constructor described by a ConstructionDocument."""
    _expect(isinstance(data, dict), "expected an object", "$")
    _expect("kind" in data, "missing field 'kind'", "$")
    kind = data["kind"]
    _expect(kind in CONSTRUCTION_KINDS, f"unknown kind {kind!r}", "kind")
    params = data.get("parameters", {})
    _expect(isinstance(params, dict), "parameters must be an object", "parameters")
    name = data.get("name", kind)
    _expect(isinstance(name, str), "name must be a string", "name")

    if kind == "heisenberg":
        m, omega = _parse_m_omega(params)
        algebra = heisenberg(m, omega)
        return AlgebraDocument(name, algebra, None)

    if kind == "extend_heisenberg":
        m, omega = _parse_m_omega(params)
        _expect("phi" in params, "missing parameter 'phi'", "parameters")
        phi = _parse_matrix(params["phi"], "parameters.phi", 2 * m, 2 * m)
        q = extend_heisenberg(m, omega, phi)
        return AlgebraDocument(name, q.algebra, q.metric)

    if kind == "double_extension":
        S, D = _parse_core(params)
        q = double_extension(S, D)
        return AlgebraDocument(name, q.algebra, q.metric)

    if kind == "build_with_heisenberg_ideal":
        S, D = _parse_core(params)
        m, omega = _parse_m_omega(params)
        V = SymplecticSpace.standard(m) if omega is None else SymplecticSpace(omega)
        _expect("sigmaD" in params, "missing parameter 'sigmaD'", "parameters")
        sigma = _parse_matrix(params["sigmaD"], "parameters.sigmaD", 2 * m, 2 * m)
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        return AlgebraDocument(name, q.algebra, q.metric)

    q = coadjoint_double(_nested_document(params, "g").algebra)
    return AlgebraDocument(name, q.algebra, q.metric)


def dumps_canonical(data: Any) -> str:
    """Canonical JSON text: the bytes of ``json.dumps(data, indent=2,
    sort_keys=True, ensure_ascii=False)`` and a newline, for dicts with
    string keys, lists, tuples, strings, ints, bools and None; any other
    type raises ``TypeError``.  Unlike the encoder, it leaves no reference
    cycle behind."""
    chunks: List[str] = []
    _write(data, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write(value: Any, newline: str, out: Callable[[str], None]) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a line
    break followed by the indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out(encode_basestring(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        if isinstance(value[0], str):
            # a row of literals or a list of labels, in one join
            try:
                out("[" + inner + ("," + inner).join(map(encode_basestring, value)) + newline + "]")
                return
            except TypeError:  # a later item is no string
                pass
        separator = "[" + inner
        for item in value:
            out(separator)
            _write(item, inner, out)
            separator = "," + inner
        out(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(separator + encode_basestring(key) + ": ")
            _write(value[key], inner, out)
            separator = "," + inner
        out(newline + "}")
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def loads_document(text: str) -> AlgebraDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past the int-string limit, or nesting too deep
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return algebra_document_from_json(data)


def dumps_document(doc: AlgebraDocument) -> str:
    return dumps_canonical(algebra_document_to_json(doc))
