"""Inputs, operations and the output gate of the quadlie benchmark.

Three closed-loop workloads, one client each, run in process through
``quadlie.cli.main`` (and one library call, ``skew``):

* ``corpus_cli``: every applicable subcommand on every shipped corpus
  document.  Small algebras, so per-call overhead is a visible share.  The
  seed only shuffles the order of the operations.
* ``grid_analyze``: ``check`` then ``analyze`` on builder outputs of
  dimension 6 to 9.  The large-input analysis path; ``nilradical`` does most
  of the work.
* ``grid_forms``: ``forms`` and ``skew_derivation_space`` on builder outputs
  of dimension 9 and 10.  One large sparse exact kernel per call; the
  nilradical and the Killing form are never computed.

The grid algebras are fixed up front: each comes from ``quadlie.randomized``
draws under its own constant seed (core, metric-skew D, sigma) and is moved
by a ``random_unimodular`` base change drawn the same way, which makes its
structure constants dense.  The run seed then flips the sign of each basis
vector.  Every seed so gives distinct documents, while the elimination order
and the size of every rational stay those of the fixed algebra.  A seeded
base change would measure the seed rather than the code: a seeded
permutation alone moves one dim-11 ``forms`` call between 3.1 and 6.9 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from quadlie import cli, documents, quadform, randomized
from quadlie.documents import AlgebraDocument, dumps_canonical, dumps_document, matrix_to_json
from quadlie.exactla import Matrix
from quadlie.heisenberg import SymplecticSpace, build_with_heisenberg_ideal
from quadlie.quadform import QuadraticLieAlgebra, transport_quadratic

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "quadlie" / "corpus"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("corpus_cli", "grid_analyze", "grid_forms")

# Reference digests of the grid outputs are recorded for this seed only;
# corpus outputs do not depend on the seed and are checked on every seed.
DEFAULT_SEED = 0

# Coordinate Heisenberg ideals of the corpus documents that have one.
ROUNDTRIP_IDEALS = {
    "h1_phi": "1,2,3",
    "h2_phi": "1,2,3,4,5",
    "build_abelian_line": "2,3,4",
    "build_rotation_core": "3,4,5",
    "build_sl2": "4,5,6",
    "oscillator": "1,2,3",
}

# Grid entries: (core dimension, core is abelian, m).  The dimension of the
# builder output is core + 2m + 2.  Fixed up front; never chosen to flatter
# a result.  Larger dimensions wait for a faster nilradical and a sparse
# elimination (ROADMAP items 2 and 3): one dim-11 skew_derivation_space
# takes about 15 s here and one dim-14 nilradical about 45 s, too slow to
# repeat in every run.
GRID_ANALYZE = (
    (0, True, 2),                 # dim 6
    (1, True, 2), (3, False, 1),  # dim 7
    (3, False, 2),                # dim 9
)
GRID_FORMS = (
    (4, False, 2),                # dim 10
    (1, True, 3), (1, True, 3),   # dim 9
)
GRID_SEED = 20251230


@dataclass(frozen=True)
class Op:
    """One operation of a workload: a CLI call or the ``skew`` library call."""

    kind: str
    label: str
    argv: Tuple[str, ...] = ()
    stdin: Optional[str] = None
    expected: Optional[str] = None


# -- inputs --------------------------------------------------------------------

def _core(rng: random.Random, dim: int, abelian: bool) -> QuadraticLieAlgebra:
    while True:
        S = randomized.random_core_algebra(rng, max_dim=4)
        if S.dim == dim and (not S.algebra.structure) == abelian:
            return S


def grid_algebras(entries: Sequence[Tuple[int, bool, int]]) -> List[QuadraticLieAlgebra]:
    """The fixed grid: builder outputs moved by a fixed dense base change."""
    algebras = []
    for index, (core_dim, abelian, m) in enumerate(entries):
        rng = random.Random(GRID_SEED + index)
        S = _core(rng, core_dim, abelian)
        D = randomized.random_skew_derivation(rng, S)
        V = SymplecticSpace.standard(m)
        sigma = randomized.random_invertible_omega_skew(rng, V)
        q = build_with_heisenberg_ideal(S, D, V, sigma)
        algebras.append(transport_quadratic(q, randomized.random_unimodular(rng, q.dim)))
    return algebras


def grid_documents(entries: Sequence[Tuple[int, bool, int]], seed: int) -> List[Tuple[str, str]]:
    """(name, document text) of each grid algebra after seeded sign flips."""
    rng = random.Random(seed)
    docs = []
    for index, q in enumerate(grid_algebras(entries)):
        signs = Matrix.diagonal([rng.choice((1, -1)) for _ in range(q.dim)])
        moved = transport_quadratic(q, signs)
        name = f"grid{index}_dim{q.dim}"
        docs.append((name, dumps_document(AlgebraDocument(name, moved.algebra, moved.metric))))
    return docs


def _corpus_ops() -> List[Op]:
    ops = []
    for path in sorted(CORPUS.glob("*.algebra.json")):
        stem = path.name[: -len(".algebra.json")]
        ops.append(Op("check", f"check:{stem}", ("check", str(path))))
        ops.append(Op("forms", f"forms:{stem}", ("forms", str(path))))
        if json.loads(path.read_text(encoding="utf-8")).get("metric") is not None:
            ops.append(Op("analyze", f"analyze:{stem}", ("analyze", str(path))))
        if stem in ROUNDTRIP_IDEALS:
            ops.append(Op("roundtrip", f"roundtrip:{stem}",
                          ("roundtrip", str(path), "--ideal", ROUNDTRIP_IDEALS[stem])))
    for path in sorted(CORPUS.glob("*.construction.json")):
        stem = path.name[: -len(".construction.json")]
        expected = (CORPUS / f"{stem}.algebra.json").read_text(encoding="utf-8")
        ops.append(Op("construct", f"construct:{stem}", ("construct", str(path)), expected=expected))
    return ops


def prepare(name: str, seed: int) -> Tuple[Op, ...]:
    """Build the fixed operation list of one workload from the seed."""
    if name == "corpus_cli":
        ops = _corpus_ops()
        random.Random(seed).shuffle(ops)
    elif name == "grid_analyze":
        ops = []
        for doc_name, text in grid_documents(GRID_ANALYZE, seed):
            ops.append(Op("check", f"check:{doc_name}", ("check", "-"), stdin=text))
            ops.append(Op("analyze", f"analyze:{doc_name}", ("analyze", "-"), stdin=text))
    elif name == "grid_forms":
        ops = []
        for doc_name, text in grid_documents(GRID_FORMS, seed):
            ops.append(Op("forms", f"forms:{doc_name}", ("forms", "-"), stdin=text))
            ops.append(Op("skew", f"skew:{doc_name}", stdin=text))
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    return tuple(ops)


# -- running -------------------------------------------------------------------

def run_op(op: Op) -> Tuple[float, Optional[int], str]:
    """Run one operation; returns (seconds, exit code or None if it raised, output)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    start = time.perf_counter()
    try:
        if op.kind == "skew":
            # looked up on the module at call time, so that the tracer sees it
            doc = documents.loads_document(op.stdin)
            result = quadform.skew_derivation_space(doc.quadratic())
            elapsed = time.perf_counter() - start
            return elapsed, 0, dumps_canonical([matrix_to_json(M) for M in result])
        if op.stdin is not None:
            sys.stdin = io.StringIO(op.stdin)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        elapsed = time.perf_counter() - start
    except (Exception, SystemExit) as exc:  # an op that raises counts as failed
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved_stdin
    return elapsed, code, out.getvalue()


# -- output gate -------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(name: str, seed: int) -> Dict[str, str]:
    """Reference digests that apply to this workload and seed."""
    if not REFERENCE.is_file():
        return {}
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {**table.get(name, {}), **table.get(f"{name}@{seed}", {})}


def _fractions(matrix) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def _rank(rows: List[List[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _bracket_table(doc: dict) -> Dict[Tuple[int, int], List[Fraction]]:
    n = doc["dim"]
    table = {}
    for entry in doc["brackets"]:
        v = [Fraction(0)] * n
        for term in entry["terms"]:
            v[term["k"]] += Fraction(term["c"])
        table[(entry["i"], entry["j"])] = v
        table[(entry["j"], entry["i"])] = [-x for x in v]
    return table


def is_metric_skew_derivation(doc: dict, D: List[List[Fraction]]) -> bool:
    """D[[x,y]] = [Dx,y] + [x,Dy] on basis pairs and D^T G + G D = 0."""
    n = doc["dim"]
    zero = [Fraction(0)] * n
    table = _bracket_table(doc)
    G = _fractions(doc["metric"])
    for i in range(n):
        for j in range(n):
            if sum(D[r][i] * G[r][j] + G[i][r] * D[r][j] for r in range(n)) != 0:
                return False
    for i in range(n):
        for j in range(i + 1, n):
            cij = table.get((i, j), zero)
            lhs = [sum(D[t][p] * cij[p] for p in range(n)) for t in range(n)]
            rhs = [Fraction(0)] * n
            for a in range(n):
                for w, pair in ((D[a][i], (a, j)), (D[a][j], (i, a))):
                    if w != 0 and pair in table:
                        rhs = [x + w * y for x, y in zip(rhs, table[pair])]
            if lhs != rhs:
                return False
    return True


def structural_failure(op: Op, text: str) -> Optional[str]:
    """Seed-independent checks of one output; None when they hold."""
    if op.kind == "construct":
        return None if text == op.expected else "construct output differs from the corpus bytes"
    report = json.loads(text)
    if op.kind == "check":
        if report["jacobi_violations"] or report.get("metric_violations"):
            return "check reported violations"
    elif op.kind == "analyze":
        if "recovery" in report and report["recovery"]["round_trip_exact"] is not True:
            return "analyze recovery did not round-trip exactly"
    elif op.kind == "roundtrip":
        if report["equal"] is not True:
            return "roundtrip rebuild is not equal"
    elif op.kind in ("forms", "skew"):
        doc = json.loads(op.stdin if op.stdin is not None else Path(op.argv[1]).read_text(encoding="utf-8"))
        if op.kind == "skew":
            for matrix in report:
                if not is_metric_skew_derivation(doc, _fractions(matrix)):
                    return "skew output is not a metric-skew derivation"
        elif doc.get("metric") is not None:
            forms = [[x for row in _fractions(f) for x in row] for f in report["forms"]]
            metric = [x for row in _fractions(doc["metric"]) for x in row]
            if _rank(forms + [metric]) != _rank(forms):
                return "the document's metric is not in the span of its forms"
    return None


def failure(op: Op, code: Optional[int], text: str, reference: Dict[str, str]) -> Optional[str]:
    """Why an operation's result is wrong, or None when it passes the gate."""
    if code is None:
        return f"raised {text}"
    if code != 0:
        return f"exit code {code}"
    expected = reference.get(op.label)
    if expected is not None and digest(text) != expected:
        return "output digest differs from the reference"
    try:
        return structural_failure(op, text)
    except (ValueError, LookupError, TypeError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
