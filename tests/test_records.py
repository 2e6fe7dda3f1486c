"""The result records and the modules that importing the CLI loads."""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import quadlie
from fixtures import (
    DIAG_1_M1,
    build_abelian_line_fixture,
    build_rotation_core_fixture,
    h1_phi,
    sl2_quadratic,
)
from oracles import heisenberg_ideal_span
from quadlie import structure
from quadlie.documents import AlgebraDocument, loads_document
from quadlie.exactla import Matrix, Subspace, _Value, unit_vector
from quadlie.heisenberg import SymplecticMap, SymplecticSpace, heisenberg
from quadlie.liealg import LieAlgebra, derived_subalgebra
from quadlie.quadform import BilinearForm, QuadraticLieAlgebra
from quadlie.structure import (
    Analysis,
    ComplementWitness,
    DecomposableVerdict,
    ExtendedHeisenbergVerdict,
    HeisenbergIdealData,
    NilradicalTheoremReport,
    NotApplicableVerdict,
    QuotientMetricObstruction,
    RecoveredStructure,
    analyze,
    find_heisenberg_ideal,
    has_invariant_quotient_metric,
    recognize_extended_heisenberg,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RECORDS = {
    RecoveredStructure: (
        "s_basis", "D", "d", "sigmaD", "heis", "base_change", "core", "rebuilt", "complement",
    ),
    ExtendedHeisenbergVerdict: ("recovered",),
    DecomposableVerdict: ("ideal", "factors", "recovered"),
    NotApplicableVerdict: ("reason",),
    ComplementWitness: ("complement", "quotient_metric", "c"),
    QuotientMetricObstruction: ("complement", "y"),
    NilradicalTheoremReport: ("nilradical", "radical", "heisenberg", "clauses", "radical_verdict"),
    Analysis: ("theorem", "verdict", "source", "heisenberg", "recovery", "quotient_metric"),
    AlgebraDocument: ("name", "algebra", "metric"),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_fields_construction_equality_and_immutability(cls):
    """Field names and order, positional and keyword construction, no
    default but ``AlgebraDocument``'s metric, equality and hash by value,
    no assignment, and a repr that starts with the class name."""
    fields = RECORDS[cls]
    values = [f"value {i}" for i in range(len(fields))]
    record = cls(*values)
    assert cls(**dict(zip(fields, values))) == record
    assert [getattr(record, name) for name in fields] == values
    assert hash(cls(*values)) == hash(record)
    assert cls(*values[:-1], "other") != record
    if cls is AlgebraDocument:
        assert cls("name", "algebra").metric is None
    else:
        with pytest.raises(TypeError):
            cls(*values[:-1])
    with pytest.raises(AttributeError):
        setattr(record, fields[0], "changed")
    with pytest.raises(AttributeError):
        record.extra = "changed"
    assert getattr(record, fields[0]) == "value 0"
    assert repr(record).startswith(cls.__name__ + "(")


def test_records_from_the_analysis_compare_by_value():
    """Two analyses of the same algebra give equal records of every kind,
    and the properties read the fields."""
    q = h1_phi()
    first, second = analyze(q), analyze(q)
    assert first == second
    assert first.source == "nilradical"
    assert isinstance(first.verdict, ExtendedHeisenbergVerdict)
    assert isinstance(first.quotient_metric, ComplementWitness)
    assert first.heisenberg == second.heisenberg and first.heisenberg.m == 1
    theorem = first.theorem
    assert theorem.applicable and theorem.whole_algebra and theorem.passed
    assert theorem.radical_verdict == first.verdict
    assert first.recovery == second.recovery
    assert isinstance(recognize_extended_heisenberg(build_abelian_line_fixture()),
                      DecomposableVerdict)
    not_applicable = analyze(sl2_quadratic())
    assert not_applicable.verdict == NotApplicableVerdict(
        "derived subalgebra of the candidate has dimension 3, expected 1"
    )
    assert not not_applicable.theorem.applicable and not not_applicable.theorem.passed
    assert not not_applicable.theorem.whole_algebra
    q3 = build_rotation_core_fixture()
    h3 = find_heisenberg_ideal(q3.algebra, heisenberg_ideal_span(q3, 1))
    found = has_invariant_quotient_metric(q3, h3)
    assert found == QuotientMetricObstruction(*found) != ComplementWitness(None, None, None)


def _values(value):
    """``value`` and everything inside it: the fields of each record and
    the entries of each tuple, depth first."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _values(item)


def _rotation_core_over_its_ideal():
    """The rotation core analyzed over the builder's h_1, whose quotient
    has no invariant metric."""
    q = build_rotation_core_fixture()
    return analyze(q, heisenberg_ideal_span(q, 1))


HASHED = [
    (lambda: analyze(h1_phi()), ExtendedHeisenbergVerdict),
    (lambda: analyze(build_abelian_line_fixture()), DecomposableVerdict),
    (_rotation_core_over_its_ideal, QuotientMetricObstruction),
]


@pytest.mark.parametrize("run,kind", HASHED, ids=["h1_phi", "abelian_line", "rotation_core"])
def test_records_of_real_analyses_hash_by_value(run, kind):
    """Every record of a real analysis hashes, the symplectic map of its
    recovery included, and two analyses of the same algebra are equal
    with equal hashes, record for record."""
    first, second = run(), run()
    records = [value for value in _values(first) if type(value) in RECORDS]
    assert Analysis in {type(r) for r in records} and kind in {type(r) for r in records}
    assert any(isinstance(value, SymplecticMap) for value in _values(first))
    pairs = list(zip(_values(first), _values(second)))
    assert len(pairs) == len(list(_values(first)))
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


def test_document_records_from_the_corpus():
    """Documents parsed twice are equal with equal hashes; the metric is
    the one optional field."""
    for name in ("h1", "h1_phi"):
        with open(os.path.join(ROOT, "src", "quadlie", "corpus", f"{name}.algebra.json")) as handle:
            text = handle.read()
        doc = loads_document(text)
        assert doc == AlgebraDocument(doc.name, doc.algebra, doc.metric) == loads_document(text)
        assert hash(doc) == hash(loads_document(text))
        if doc.metric is None:
            assert doc == AlgebraDocument(doc.name, doc.algebra)
        else:
            assert doc.quadratic().algebra == doc.algebra


def _heisenberg_data():
    g = h1_phi().algebra
    return find_heisenberg_ideal(g, derived_subalgebra(g))


def test_heisenberg_data_construction_equality_and_immutability():
    h = _heisenberg_data()
    values = (h.algebra, h.ideal, h.hbar, h.v_basis, h.omega)
    by_keyword = HeisenbergIdealData(
        algebra=h.algebra, ideal=h.ideal, hbar=h.hbar, v_basis=h.v_basis, omega=h.omega
    )
    assert HeisenbergIdealData(*values) == by_keyword == h
    assert hash(by_keyword) == hash(h)
    assert h.m == 1
    scaled = HeisenbergIdealData(
        h.algebra, h.ideal, tuple(2 * x for x in h.hbar), h.v_basis, h.omega.scale(Fraction(1, 2))
    )
    assert scaled != h and h != values
    for name in ("algebra", "ideal", "hbar", "v_basis", "omega", "extra"):
        with pytest.raises(AttributeError):
            setattr(h, name, None)
    assert not hasattr(h, "__dict__")
    assert repr(h).startswith("HeisenbergIdealData(")


def test_heisenberg_data_has_no_path_around_its_checks(monkeypatch):
    """No ``_replace`` or ``_make``, and a copy is built by the checking
    constructor, which still refuses invalid data."""
    h = _heisenberg_data()
    assert not hasattr(h, "_replace") and not hasattr(h, "_make")
    checked = []
    is_ideal = structure.is_ideal
    monkeypatch.setattr(structure, "is_ideal", lambda g, U: checked.append(U) or is_ideal(g, U))
    assert copy.copy(h) == h and checked == [h.ideal]
    with pytest.raises(ValueError, match="do not span the ideal"):
        HeisenbergIdealData(h.algebra, h.ideal, unit_vector(4, 1), h.v_basis, h.omega)
    with pytest.raises(ValueError, match="not h_m"):
        HeisenbergIdealData(h.algebra, h.ideal, h.hbar, h.v_basis, h.omega.scale(2))
    with pytest.raises(ValueError, match="vector length"):
        HeisenbergIdealData(h.algebra, h.ideal, h.hbar + (0,), h.v_basis, h.omega)
    with pytest.raises(ValueError, match="not an ideal"):
        first_three = Subspace.from_vectors(4, [unit_vector(4, i) for i in range(3)])
        HeisenbergIdealData(h.algebra, first_three, h.hbar, h.v_basis, h.omega)


VALUES = {
    Matrix: lambda: Matrix([[1, Fraction(1, 2)], [0, 3]]),
    Subspace: lambda: Subspace.from_vectors(3, [(1, 2, 0), (0, 1, Fraction(1, 3))]),
    LieAlgebra: lambda: heisenberg(1),
    BilinearForm: lambda: BilinearForm(Matrix([[0, 1], [1, 0]])),
    QuadraticLieAlgebra: h1_phi,
    SymplecticSpace: lambda: SymplecticSpace.standard(1),
    SymplecticMap: lambda: SymplecticMap(SymplecticSpace.standard(1), DIAG_1_M1),
    HeisenbergIdealData: _heisenberg_data,
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_types_are_immutable_and_compare_by_value(cls):
    """No slot and no new name can be assigned or deleted; a value built
    separately is equal with the same hash; a value of another type, or
    the tuple of the fields, is not equal."""
    build = VALUES[cls]
    value = build()
    assert type(value) is cls and not hasattr(value, "__dict__")
    fields = tuple(getattr(value, name) for name in cls.__slots__)
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError) as info:
            setattr(value, name, None)
        assert str(info.value) == f"{cls.__name__} is immutable"
        with pytest.raises(AttributeError) as info:
            delattr(value, name)
        assert str(info.value) == f"{cls.__name__} is immutable"
    assert tuple(getattr(value, name) for name in cls.__slots__) == fields
    other = build()
    assert other is not value and other == value and hash(other) == hash(value)
    kinds = list(VALUES)
    assert value != VALUES[kinds[(kinds.index(cls) + 1) % len(kinds)]]()
    assert value != fields


REPRS = {
    Matrix: "Matrix(2x2: 1 1/2; 0 3)",
    Subspace: "Subspace(dim 2 of QQ^3)",
    LieAlgebra: "LieAlgebra(dim=3, brackets=1)",
    BilinearForm: "BilinearForm(dim=2)",
    QuadraticLieAlgebra: "QuadraticLieAlgebra(dim=4)",
    SymplecticSpace: "SymplecticSpace(dim=2)",
    SymplecticMap: "SymplecticMap(dim=2)",
    HeisenbergIdealData: "HeisenbergIdealData(m=1 in dim 4)",
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_reprs(cls):
    assert repr(VALUES[cls]()) == REPRS[cls]


def _labels(value):
    """The basis labels of every algebra in ``value``, depth first."""
    algebras = [getattr(item, "algebra", item) for item in _values(value)]
    return [g.basis_labels for g in algebras if isinstance(g, LieAlgebra)]


COPIED = {cls.__name__: build for cls, build in VALUES.items()}
for (run, _), name in zip(HASHED, ("h1_phi", "abelian_line", "rotation_core")):
    COPIED[f"analyze_{name}"] = run
DUPLICATES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", list(DUPLICATES))
@pytest.mark.parametrize("name", list(COPIED))
def test_copies_and_pickles_are_equal_values(name, how):
    """A copy, a deep copy and a pickle round trip of one value of each
    value class, and of three analyses, are equal values with the same
    hash and the same basis labels throughout."""
    value = COPIED[name]()
    duplicate = DUPLICATES[how](value)
    assert type(duplicate) is type(value)
    assert duplicate == value and hash(duplicate) == hash(value)
    assert _labels(duplicate) == _labels(value)


def _quadlie_classes():
    """The classes defined in the modules of the package."""
    for info in pkgutil.iter_modules(quadlie.__path__):
        module = importlib.import_module(f"quadlie.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def test_classes_that_compare_by_value_derive_from_the_value_base():
    """Each class of the package whose equality is its own is a ``_Value``
    or a NamedTuple, and none is unhashable; the eight value types are
    found.  Two value types with equal keys are still unequal."""
    classes = set(_quadlie_classes())
    assert set(VALUES) <= classes
    for cls in classes:
        named_tuple = issubclass(cls, tuple) and hasattr(cls, "_fields")
        if cls.__eq__ is not object.__eq__:
            assert issubclass(cls, _Value) or named_tuple, cls
        assert cls.__hash__ is not None, cls
    empty = Matrix.zeros(0, 0)
    assert BilinearForm(empty) != SymplecticSpace(empty)


def test_importing_the_cli_loads_every_traced_layer_and_no_dataclasses():
    """A fresh interpreter without ``site``: the CLI and the randomized
    builders import neither ``dataclasses`` nor ``inspect``, and every
    layer the benchmark's tracer wraps is loaded by ``import quadlie.cli``."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import quadlie.cli, quadlie.randomized; "
            "print(' '.join(sorted(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code, os.path.join(ROOT, "src")],
                            capture_output=True, text=True, check=True)
    loaded = set(result.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    layers = ("exactla", "liealg", "quadform", "heisenberg", "structure", "documents", "cli")
    assert {f"quadlie.{layer}" for layer in layers} <= loaded
