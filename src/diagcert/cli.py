"""Command line front end.

Exit codes: 0 = decided (yes or no, or a verification that ran to
completion), 4 = unknown / none-within-bounds, 1 = usage or parse error,
2 = internal invariant violation (always a bug, never a verdict).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .bounds import Bounds
from .diagonalizer import analyze, diagonalize
from .errors import (DiagcertError, InternalInvariantError,
                     StepBudgetExceeded, UsageError)
from .filtration import search_minimal_cyclic_filtration
from .homalg import FPModule, is_quasi_gorenstein
from .jsonio import (certificate_from_json, dumps, load_document,
                     matrix_from_json, module_from_json)
from .linalg import smith_normal_form, verify_certificate

EXIT_DECIDED = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_UNKNOWN = 4


@dataclass(frozen=True)
class CommandRequest:
    subcommand: str
    input_path: str
    bounds: Bounds
    as_json: bool


def _bounds_from_args(args) -> Bounds:
    return Bounds(degree=args.degree, height=args.height, steps=args.steps)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagcert",
        description="Certified diagonal-equivalence analysis for matrices "
                    "over exact rings")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
            ("snf", "Smith normal form over Z, Q[x] or F_p[x]"),
            ("analyze", "full report: determinant, transpose test, "
                        "filtration, diagonalizability"),
            ("qg", "is the matrix equivalent to its transpose "
                   "(quasi-Gorenstein cokernel)?"),
            ("diagonalize", "decide equivalence to a diagonal matrix"),
            ("filtration", "search a minimal cyclic filtration "
                           "(matrix or module input)"),
            ("verify", "independently verify an equivalence certificate")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="path to the JSON input")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the JSON report instead of text")
        p.add_argument("--degree", type=int, default=Bounds.degree,
                       help="degree bound for coefficient pools "
                            "(default %(default)s)")
        p.add_argument("--height", type=int, default=Bounds.height,
                       help="height bound for coefficient pools "
                            "(default %(default)s)")
        p.add_argument("--steps", type=int, default=Bounds.steps,
                       help="reduction steps allowed to each Groebner "
                            "computation (default %(default)s)")
    return parser


def request_from_argv(argv) -> CommandRequest:
    args = build_parser().parse_args(argv)
    return CommandRequest(subcommand=args.subcommand, input_path=args.input,
                          bounds=_bounds_from_args(args),
                          as_json=args.as_json)


# ---------------------------------------------------------------------------
# renderers


def _render_lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _render_snf(form) -> str:
    factors = ", ".join(str(d) for d in form.invariant_factors)
    return _render_lines([
        "smith normal form",
        f"  invariant factors: {factors}",
        f"  certificate verified: {bool(form.certificate.verify())}",
    ])


def _render_diagonalize(result) -> str:
    lines = [f"diagonalizable: {result.verdict} ({result.method})"]
    if result.verdict == "yes":
        diag = ", ".join(str(d) for d in result.diagonal_entries())
        lines.append(f"  diagonal: {diag}")
        lines.append(f"  certificate verified: {bool(result.certificate.verify())}")
        if result.unit_diagonal_entries:
            lines.append("  note: unit entries on the diagonal: "
                         + ", ".join(str(u) for u in result.unit_diagonal_entries))
    elif result.verdict == "no":
        lines.append(f"  candidates refuted: {len(result.obstruction.refutations)}")
        for r in result.obstruction.refutations:
            diag = ", ".join(str(d) for d in r.diagonal)
            lines.append(f"    diag({diag}): fitting ideal mismatch at "
                         f"size {r.fitting_index}")
    else:
        lines.append("  bounds exhausted; no conclusion")
    return _render_lines(lines)


def _render_qg(result) -> str:
    lines = [f"equivalent to transpose (quasi-Gorenstein): {result.verdict}"]
    if result.matrix_certificate is not None:
        lines.append(f"  matrix certificate verified: "
                     f"{bool(result.matrix_certificate.verify())}")
    elif result.iso is not None:
        lines.append("  witnessed by a certified module isomorphism")
    if result.grade_value is not None:
        lines.append(f"  grade = projective dimension = {result.grade_value}")
    return _render_lines(lines)


def _render_filtration(result) -> str:
    lines = [f"minimal cyclic filtration: {result.verdict}"]
    if result.found is not None:
        for k, stage in enumerate(result.found.stages, start=1):
            lines.append(f"  stage {k}: quotient annihilator "
                         f"{stage.quotient_ideal!r}")
    else:
        lines.append(f"  rejected candidates recorded: {len(result.rejected)}")
    return _render_lines(lines)


def _render_analyze(report) -> str:
    lines = ["analysis report"]
    if report.degenerate:
        lines.append(f"  degenerate: {report.degenerate}")
    if report.det is not None:
        lines.append(f"  determinant: {report.det}")
    if report.det_factorization is not None:
        parts = " * ".join(f"({p})^{m}" if m > 1 else f"({p})"
                           for p, m in report.det_factorization.factors)
        note = "" if report.det_factorization.complete else "  [incomplete]"
        lines.append(f"  factorization: {parts}{note}")
    if report.qg is not None:
        lines.append(f"  equivalent to transpose: {report.qg.verdict}")
    if report.filtration is not None:
        lines.append(f"  minimal cyclic filtration: {report.filtration.verdict}")
    if report.diagonalizable is not None:
        lines.append(f"  diagonalizable: {report.diagonalizable.verdict}")
        if report.diagonalizable.verdict == "yes":
            diag = ", ".join(str(d) for d in
                             report.diagonalizable.diagonal_entries())
            lines.append(f"    diagonal: {diag}")
    for finding in report.consistency:
        lines.append(f"  consistency[{finding['check']}]: {finding['status']}")
    for note in report.discrepancies:
        lines.append(f"  DISCREPANCY: {note}")
    return _render_lines(lines)


# ---------------------------------------------------------------------------
# dispatch


def run(request: CommandRequest) -> "tuple[int, str]":
    data = load_document(request.input_path)
    bounds = request.bounds
    sub = request.subcommand

    if sub == "snf":
        matrix, _ = matrix_from_json(data)
        form = smith_normal_form(matrix)
        payload = {"schema": "diagcert/1", "smith_form": form.to_json()}
        return EXIT_DECIDED, dumps(payload) if request.as_json else _render_snf(form)

    if sub == "diagonalize":
        matrix, _ = matrix_from_json(data)
        result = diagonalize(matrix, bounds)
        code = EXIT_UNKNOWN if result.verdict == "unknown" else EXIT_DECIDED
        payload = {"schema": "diagcert/1", "diagonalize": result.to_json()}
        return code, dumps(payload) if request.as_json else _render_diagonalize(result)

    if sub == "qg":
        matrix, _ = matrix_from_json(data)
        result = is_quasi_gorenstein(matrix, bounds)
        code = EXIT_UNKNOWN if result.verdict == "unknown" else EXIT_DECIDED
        payload = {"schema": "diagcert/1", "quasi_gorenstein": result.to_json()}
        return code, dumps(payload) if request.as_json else _render_qg(result)

    if sub == "filtration":
        if "matrix" in data:
            matrix, _ = matrix_from_json(data)
            module = FPModule.from_matrix(matrix)
        else:
            module = module_from_json(data)
        result = search_minimal_cyclic_filtration(module, bounds)
        code = EXIT_DECIDED if result.found is not None else EXIT_UNKNOWN
        payload = {"schema": "diagcert/1", "filtration": result.to_json()}
        return code, dumps(payload) if request.as_json else _render_filtration(result)

    if sub == "analyze":
        matrix, claims = matrix_from_json(data)
        report = analyze(matrix, bounds, claims=claims)
        verdict = report.diagonalizable.verdict if report.diagonalizable else "degenerate"
        code = EXIT_UNKNOWN if verdict == "unknown" else EXIT_DECIDED
        return code, dumps(report.to_json()) if request.as_json \
            else _render_analyze(report)

    if sub == "verify":
        cert = certificate_from_json(data)
        check = verify_certificate(cert)
        payload = {"schema": "diagcert/1",
                   "verify": {"valid": check.valid, "reason": check.reason}}
        text = _render_lines([
            f"certificate valid: {check.valid}"
            + (f" ({check.reason})" if check.reason else "")])
        return EXIT_DECIDED, dumps(payload) if request.as_json else text

    raise UsageError(f"unknown subcommand {sub!r}")


def main(argv=None) -> int:
    try:
        request = request_from_argv(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, text = run(request)
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except StepBudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except DiagcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
