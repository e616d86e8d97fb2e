"""Versioned JSON schemas for matrices, modules, and certificates.

All documents carry "schema": "diagcert/1" and reject unknown fields.  All
writers emit canonically ordered JSON (sorted keys, no timestamps), so equal
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json

from .errors import ParseError, UsageError
from .groebner import FreeVector
from .homalg import FPModule
from .linalg import EquivalenceCertificate, RingMatrix, op_from_json
from .rings import RingDescriptor

SCHEMA = "diagcert/1"


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require_schema(data, where):
    if not isinstance(data, dict):
        raise UsageError(f"{where}: expected a JSON object")
    if data.get("schema") != SCHEMA:
        raise UsageError(f"{where}: missing or unsupported schema "
                         f"(expected {SCHEMA!r})")


def _reject_unknown(data, allowed, where):
    extra = set(data) - set(allowed)
    if extra:
        raise UsageError(f"{where}: unknown fields {sorted(extra)}")


def _parse_grid(ring, grid, where):
    if not isinstance(grid, list) or not grid or \
            any(not isinstance(row, list) for row in grid):
        raise UsageError(f"{where}: expected a list of rows")
    out = []
    for i, row in enumerate(grid):
        parsed = []
        for j, s in enumerate(row):
            try:
                parsed.append(ring.parse(s))
            except ParseError as exc:
                raise ParseError(f"{where}[{i}][{j}]: {exc}") from None
        out.append(parsed)
    return RingMatrix(ring, out)


def matrix_from_json(data) -> "tuple[RingMatrix, dict]":
    """(matrix, claims) from a matrix document."""
    _require_schema(data, "matrix document")
    _reject_unknown(data, {"schema", "ring", "matrix", "claims"},
                    "matrix document")
    if "ring" not in data or "matrix" not in data:
        raise UsageError("matrix document needs 'ring' and 'matrix'")
    ring = RingDescriptor.from_json(data["ring"])
    matrix = _parse_grid(ring, data["matrix"], "$.matrix")
    claims = data.get("claims", {})
    if not isinstance(claims, dict):
        raise UsageError("$.claims: expected an object")
    if claims:
        allowed = {"diagonalizable", "transpose_equivalent"}
        _reject_unknown(claims, allowed, "$.claims")
        for key, value in claims.items():
            if not isinstance(value, bool):
                raise UsageError(f"$.claims.{key}: expected a boolean")
    return matrix, claims


def matrix_to_json(matrix: RingMatrix) -> dict:
    return {"schema": SCHEMA, **matrix.to_json()}


def module_from_json(data) -> FPModule:
    _require_schema(data, "module document")
    _reject_unknown(data, {"schema", "ring", "generators", "relations"},
                    "module document")
    if "ring" not in data or "generators" not in data:
        raise UsageError("module document needs 'ring' and 'generators'")
    ring = RingDescriptor.from_json(data["ring"])
    gens = data["generators"]
    if isinstance(gens, bool) or not isinstance(gens, int) or gens < 0:
        raise UsageError("$.generators: expected a nonnegative integer")
    columns = data.get("relations", [])
    if not isinstance(columns, list):
        raise UsageError("$.relations: expected a list of columns")
    relations = []
    for k, col in enumerate(columns):
        if not isinstance(col, list) or len(col) != gens:
            raise UsageError(f"$.relations[{k}]: expected {gens} components")
        comps = []
        for i, s in enumerate(col):
            try:
                comps.append(ring.parse(s))
            except ParseError as exc:
                raise ParseError(f"$.relations[{k}][{i}]: {exc}") from None
        relations.append(FreeVector(ring, comps))
    return FPModule(ring, gens, relations)


def certificate_from_json(data) -> EquivalenceCertificate:
    _require_schema(data, "certificate document")
    _reject_unknown(data, {"schema", "ring", "source", "left", "right",
                           "target", "transcript"}, "certificate document")
    for key in ("ring", "source", "left", "right", "target"):
        if key not in data:
            raise UsageError(f"certificate document needs {key!r}")
    ring = RingDescriptor.from_json(data["ring"])
    source = _parse_grid(ring, data["source"], "$.source")
    left = _parse_grid(ring, data["left"], "$.left")
    right = _parse_grid(ring, data["right"], "$.right")
    target = _parse_grid(ring, data["target"], "$.target")
    ops = data.get("transcript", [])
    if not isinstance(ops, list):
        raise UsageError("$.transcript: expected a list of operations")
    transcript = []
    for k, op_data in enumerate(ops):
        if not isinstance(op_data, dict):
            raise UsageError(f"$.transcript[{k}]: malformed operation")
        try:
            transcript.append(op_from_json(ring, op_data))
        except (KeyError, TypeError):
            raise UsageError(f"$.transcript[{k}]: malformed operation") from None
    return EquivalenceCertificate(source=source, left=left, right=right,
                                  target=target, transcript=tuple(transcript))


def certificate_to_json(cert: EquivalenceCertificate) -> dict:
    out = {"schema": SCHEMA}
    out.update(cert.to_json())
    return out


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}") from None
