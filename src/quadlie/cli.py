"""Command-line interface: check, construct, analyze, roundtrip, forms.

All reports are canonical JSON (sorted keys, fixed indentation), so two
runs on the same input produce identical bytes.  Exit codes: 0 = clean,
1 = mathematical violation found, 2 = input error, 3 = internal
verification failed (a certificate the theory guarantees did not hold).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from .documents import (
    AlgebraDocument,
    DocumentError,
    algebra_document_to_json,
    construct_from_json,
    dumps_canonical,
    loads_document,
    matrix_to_json,
    vector_to_json,
)
from .errors import InternalVerificationError
from .exactla import Subspace, unit_vector
from .liealg import (
    center,
    check_jacobi,
    derived_series,
    derived_subalgebra,
    is_nilpotent,
    killing_form,
)
from .quadform import check_invariant_metric, invariant_symmetric_forms
from .structure import (
    DecomposableVerdict,
    ExtendedHeisenbergVerdict,
    HeisenbergIdealData,
    QuotientMetricObstruction,
    analyze,
    find_heisenberg_ideal,
    recover_structure,
)

EXIT_CLEAN = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _subspace_to_json(S: Subspace) -> dict:
    return {"dim": S.dim, "basis": matrix_to_json(S.basis)}


def _heisenberg_to_json(h: HeisenbergIdealData) -> dict:
    return {
        "m": h.m,
        "hbar": vector_to_json(h.hbar),
        "v_basis": [vector_to_json(v) for v in h.v_basis],
        "omega": matrix_to_json(h.omega),
    }


def _metric_violations(doc: AlgebraDocument) -> List[dict]:
    return [
        {"kind": v.kind, "indices": list(v.indices)}
        for v in check_invariant_metric(doc.algebra, doc.metric)
    ]


def cmd_check(doc: AlgebraDocument) -> Tuple[dict, int]:
    """Jacobi and metric checks plus basic structure flags."""
    g = doc.algebra
    jacobi = check_jacobi(g)
    derived, K = derived_subalgebra(g), killing_form(g)
    report = {
        "name": doc.name,
        "dim": g.dim,
        "jacobi_violations": [
            {"i": v.i, "j": v.j, "k": v.k, "residual": vector_to_json(v.residual)}
            for v in jacobi
        ],
        "center_dim": center(g).dim,
        "derived_dim": derived.dim,
        # Cartan's criterion needs Jacobi
        "solvable": derived_series(g)[-1].is_zero() if jacobi else (derived.basis @ K).is_zero(),
        # nilpotent => K = 0: ad x maps each term of the lower central series
        # into the next, so ad x ad y is nilpotent; no Jacobi identity needed
        "nilpotent": K.is_zero() and is_nilpotent(g),
    }
    clean = not jacobi
    if doc.metric is not None:
        report["metric_violations"] = _metric_violations(doc)
        clean = clean and not report["metric_violations"]
    return report, EXIT_CLEAN if clean else EXIT_VIOLATION


def cmd_construct(data) -> Tuple[AlgebraDocument, int]:
    """Run a construction document; precondition failures become input errors."""
    doc = construct_from_json(data)
    return doc, EXIT_CLEAN


def _violation_report(doc: AlgebraDocument) -> dict:
    """Why the document's algebra and metric do not form a quadratic algebra."""
    return {
        "name": doc.name,
        "jacobi_violations": len(check_jacobi(doc.algebra)),
        "metric_violations": _metric_violations(doc),
    }


def _candidate_from_indices(doc: AlgebraDocument, indices: List[int]) -> Subspace:
    g = doc.algebra
    seen = set()
    for i in indices:
        if not 0 <= i < g.dim:
            raise DocumentError(f"ideal index {i} out of range", "ideal")
        if i in seen:
            raise DocumentError(f"ideal index {i} given twice", "ideal")
        seen.add(i)
    return Subspace.from_vectors(g.dim, [unit_vector(g.dim, i) for i in indices])


def cmd_analyze(
    doc: AlgebraDocument, ideal: Optional[List[int]] = None
) -> Tuple[dict, int]:
    """Full structure report on a quadratic algebra document: the
    serialized ``structure.analyze`` result."""
    g = doc.algebra
    if doc.metric is None:
        raise DocumentError("analyze requires a metric", "metric")
    try:
        q = doc.quadratic()
    except ValueError:
        report = _violation_report(doc)
        report["dim"] = g.dim
        return report, EXIT_VIOLATION
    result = analyze(q, None if ideal is None else _candidate_from_indices(doc, ideal))
    theorem, verdict, h = result.theorem, result.verdict, result.heisenberg
    report = {
        "name": doc.name,
        "dim": g.dim,
        "radical": _subspace_to_json(theorem.radical),
        "nilradical": _subspace_to_json(theorem.nilradical),
        "heisenberg_ideal": {"found": h is not None, "source": result.source},
    }
    if h is not None:
        report["heisenberg_ideal"].update(_heisenberg_to_json(h))

    if isinstance(verdict, ExtendedHeisenbergVerdict):
        report["recognizer"] = {
            "verdict": "extended_heisenberg",
            "m": verdict.recovered.heis.m,
            "base_change": matrix_to_json(verdict.recovered.base_change),
            "phi": matrix_to_json(verdict.recovered.sigmaD.matrix),
        }
    elif isinstance(verdict, DecomposableVerdict):
        report["recognizer"] = {
            "verdict": "decomposable",
            "ideal": _subspace_to_json(verdict.ideal),
            "factor_dims": [f.dim for f in verdict.factors],
        }
    else:
        report["recognizer"] = {"verdict": "not_applicable", "reason": verdict.reason}

    if h is not None:
        rec = result.recovery
        report["recovery"] = {
            "s_dim": rec.s_basis.dim,
            "d": vector_to_json(rec.d),
            "sigmaD": matrix_to_json(rec.sigmaD.matrix),
            "D": matrix_to_json(rec.D),
            "base_change": matrix_to_json(rec.base_change),
            "round_trip_exact": True,
        }
        witness = result.quotient_metric
        if isinstance(witness, QuotientMetricObstruction):
            obstruction = {
                "complement": [vector_to_json(a) for a in witness.complement],
                "y": vector_to_json(witness.y),
            }
            report["quotient_metric"] = {"exists": False, "obstruction": obstruction}
            report["complement"] = {"exists": False}
        else:
            report["quotient_metric"] = {
                "exists": True,
                "gram": matrix_to_json(witness.quotient_metric.gram),
            }
            report["complement"] = {
                "exists": True,
                "basis": matrix_to_json(witness.complement.basis),
                "c": vector_to_json(witness.c),
            }

    report["nilradical_theorem"] = {
        "applicable": theorem.applicable,
        "clauses": {name: ok for name, ok in theorem.clauses},
        "whole_algebra": theorem.whole_algebra,
        "passed": theorem.passed,
    }
    return report, EXIT_CLEAN


def cmd_roundtrip(doc: AlgebraDocument, ideal: List[int]) -> Tuple[dict, int]:
    """Recover the structure over the given ideal and rebuild exactly."""
    if doc.metric is None:
        raise DocumentError("roundtrip requires a metric", "metric")
    try:
        q = doc.quadratic()
    except ValueError:
        return _violation_report(doc), EXIT_VIOLATION
    candidate = _candidate_from_indices(doc, ideal)
    h = find_heisenberg_ideal(doc.algebra, candidate)
    if h is None:
        raise DocumentError(
            "the given indices do not span a Heisenberg ideal", "ideal"
        )
    rec = recover_structure(q, h)
    core_doc = AlgebraDocument(
        f"{doc.name}.core", rec.core.algebra, rec.core.metric
    )
    report = {
        "name": doc.name,
        "equal": True,  # recover_structure verifies the rebuild exactly
        "m": h.m,
        "s_dim": rec.s_basis.dim,
        "base_change": matrix_to_json(rec.base_change),
        "core": algebra_document_to_json(core_doc),
        "D": matrix_to_json(rec.D),
        "sigmaD": matrix_to_json(rec.sigmaD.matrix),
        "omega": matrix_to_json(rec.heis.omega),
    }
    return report, EXIT_CLEAN


def cmd_forms(doc: AlgebraDocument) -> Tuple[dict, int]:
    """Basis of the invariant symmetric bilinear forms of the algebra."""
    forms = invariant_symmetric_forms(doc.algebra)
    report = {
        "name": doc.name,
        "dim": doc.algebra.dim,
        "count": len(forms),
        "forms": [matrix_to_json(f.gram) for f in forms],
    }
    return report, EXIT_CLEAN


def _read_input(path: str) -> str:
    try:
        if path == "-":
            text = sys.stdin.read()
            # surrogateescape turns an undecodable byte into a lone surrogate
            text.encode("utf-8")
            return text
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeError) as exc:
        raise DocumentError(f"cannot read {'stdin' if path == '-' else path}: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    try:
        # a string with a lone surrogate fails here, before --out is truncated
        data = text.encode("utf-8")
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "wb") as handle:
                handle.write(data)
    except (OSError, UnicodeEncodeError) as exc:
        raise DocumentError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _parse_ideal(arg: Optional[str]) -> Optional[List[int]]:
    if arg is None:
        return None
    try:
        return [int(part) for part in arg.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DocumentError(f"bad ideal index list: {arg!r}", "ideal") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadlie",
        description="Exact computations with quadratic Lie algebras "
        "containing a Heisenberg ideal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify Jacobi and metric axioms")
    p_check.add_argument("input", help="algebra document (JSON), or - for stdin")
    p_check.add_argument("--out", help="write the report to a file")

    p_construct = sub.add_parser("construct", help="run a construction document")
    p_construct.add_argument("input", help="construction document (JSON)")
    p_construct.add_argument("--out", help="write the algebra document to a file")

    p_analyze = sub.add_parser("analyze", help="full structure analysis")
    p_analyze.add_argument("input", help="algebra document with metric (JSON)")
    p_analyze.add_argument("--ideal", help="comma-separated basis indices")
    p_analyze.add_argument("--out", help="write the report to a file")

    p_round = sub.add_parser("roundtrip", help="recover and rebuild exactly")
    p_round.add_argument("input", help="algebra document with metric (JSON)")
    p_round.add_argument("--ideal", required=True,
                         help="comma-separated basis indices of the ideal")
    p_round.add_argument("--out", help="write the report to a file")

    p_forms = sub.add_parser("forms", help="invariant symmetric form space")
    p_forms.add_argument("input", help="algebra document (JSON)")
    p_forms.add_argument("--out", help="write the report to a file")
    return parser


# Built by the first main() call and reused by every later one; parsing
# leaves an ArgumentParser unchanged.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.command == "construct":
            try:
                data = json.loads(_read_input(args.input))
            except (ValueError, RecursionError) as exc:
                raise DocumentError(f"invalid JSON: {exc}") from exc
            try:
                doc, code = cmd_construct(data)
            except ValueError as exc:
                raise DocumentError(str(exc)) from exc
            _emit(dumps_canonical(algebra_document_to_json(doc)), args.out)
            return code

        doc = loads_document(_read_input(args.input))
        if args.command == "check":
            report, code = cmd_check(doc)
        elif args.command == "analyze":
            report, code = cmd_analyze(doc, _parse_ideal(args.ideal))
        elif args.command == "roundtrip":
            ideal = _parse_ideal(args.ideal)
            report, code = cmd_roundtrip(doc, ideal)
        else:
            report, code = cmd_forms(doc)
        _emit(dumps_canonical(report), args.out)
        return code
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalVerificationError as exc:
        print(f"error: internal verification failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
