"""Exact dense matrices over a ring, equivalence certificates, Smith form.

Construction has one determinant, fraction-free (Bareiss) elimination; the
inverse of a unimodular matrix is built from its Bareiss minors.  For n <= 3
the determinant is cross-checked against the verifier's own cofactor
expansion.

Certificates are never trusted: every constructor that emits one re-checks it
through the independent verifier (see verifier.py), which shares nothing with
this module beyond ring arithmetic and imports none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import mul

from . import verifier
from .errors import (InternalInvariantError, NotEuclideanError, UsageError)
from .rings import IdealHandle, RingDescriptor, RingElement, exact_divide


def is_diagonal_grid(rows) -> bool:
    """Every entry off the main diagonal of a grid of ring elements is zero."""
    return all(e.is_zero() for i, row in enumerate(rows)
               for j, e in enumerate(row) if i != j)


class RingMatrix:
    """Immutable dense matrix with entries in one ring."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: RingDescriptor, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise UsageError("matrix must have at least one row and column")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise UsageError("ragged matrix")
            for e in r:
                if not isinstance(e, RingElement) or e.ring != ring:
                    raise UsageError("entry from the wrong ring")
        self.ring = ring
        self.rows = rows

    # constructors -----------------------------------------------------------
    @staticmethod
    def parse(ring: RingDescriptor, grid) -> "RingMatrix":
        return RingMatrix(ring, [[ring.parse(s) for s in row] for row in grid])

    @staticmethod
    def identity(ring: RingDescriptor, n: int) -> "RingMatrix":
        one, zero = ring.one(), ring.zero()
        return RingMatrix(ring, [[one if i == j else zero for j in range(n)]
                                 for i in range(n)])

    @staticmethod
    def diagonal(ring: RingDescriptor, entries) -> "RingMatrix":
        entries = list(entries)
        zero = ring.zero()
        return RingMatrix(ring, [[entries[i] if i == j else zero
                                  for j in range(len(entries))]
                                 for i in range(len(entries))])

    # shape ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_diagonal(self) -> bool:
        return is_diagonal_grid(self.rows)

    def diagonal_entries(self):
        return [self.rows[i][i] for i in range(min(self.nrows, self.ncols))]

    # arithmetic -------------------------------------------------------------
    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.ring != other.ring:
            raise UsageError("matrix ring mismatch")
        if self.ncols != other.nrows:
            raise UsageError("matrix dimension mismatch")
        zero = self.ring.zero()
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return RingMatrix(self.ring, out)

    def __neg__(self):
        return RingMatrix(self.ring, [[-e for e in r] for r in self.rows])

    def transpose(self) -> "RingMatrix":
        return RingMatrix(self.ring, list(zip(*self.rows)))

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in r) for r in self.rows)
        return f"[{body}]"

    def submatrix(self, row_idx, col_idx) -> "RingMatrix":
        return RingMatrix(self.ring, [[self.rows[i][j] for j in col_idx]
                                      for i in row_idx])

    def columns(self):
        """Columns as FreeVectors in R^nrows."""
        from .groebner import FreeVector
        return [FreeVector(self.ring, tuple(self.rows[i][j]
                                            for i in range(self.nrows)))
                for j in range(self.ncols)]

    def to_json(self) -> dict:
        return {"ring": self.ring.to_json(),
                "matrix": [[str(e) for e in r] for r in self.rows]}


# ---------------------------------------------------------------------------
# determinants


def determinant(m: RingMatrix) -> RingElement:
    """Exact determinant by fraction-free elimination.

    Cross-checked against the verifier's cofactor expansion for n <= 3; a
    failed exact division inside the elimination is an arithmetic bug and
    raises.
    """
    if not m.is_square():
        raise UsageError("determinant of a non-square matrix")
    ring = m.ring
    n = m.nrows
    a = [list(r) for r in m.rows]
    sign = 1
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot_row = None
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                return ring.zero()
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                if k:  # the first step divides by 1
                    num = exact_divide(num, prev)
                    if num is None:
                        raise InternalInvariantError("Bareiss division failed")
                a[i][j] = num
            a[i][k] = ring.zero()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    if sign < 0:
        det = -det
    if n <= 3:
        if verifier._det(ring, m.rows) != det:
            raise InternalInvariantError("determinant cross-check failed")
    return det


def inverse_unimodular(m: RingMatrix) -> RingMatrix:
    """Exact inverse of a matrix whose determinant is a unit.

    Entry (i, j) is det^-1 * (-1)^(i+j) times the Bareiss determinant of m
    without row j and column i: O(n^5) ring operations.
    """
    det = determinant(m)
    if not det.is_unit():
        raise UsageError("matrix is not unimodular")
    inv_det = det.invert_unit()
    n = m.nrows
    if n == 1:
        return RingMatrix(m.ring, [[inv_det]])
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = determinant(m.submatrix(
                [r for r in range(n) if r != j],
                [c for c in range(n) if c != i]))
            row.append(inv_det * (minor if (i + j) % 2 == 0 else -minor))
        out.append(row)
    return RingMatrix(m.ring, out)


def fitting_ideal(m: RingMatrix, k: int) -> IdealHandle:
    """Ideal of all k x k minors; k = 0 gives the unit ideal.

    The only nonzero k-minors of a square diagonal matrix are the products
    of k of its diagonal entries, so those are taken directly.
    """
    if k < 0 or k > min(m.nrows, m.ncols):
        raise UsageError(f"minor size {k} out of range")
    ring = m.ring
    if k == 0:
        return IdealHandle(ring, [ring.one()])
    if m.is_square() and m.is_diagonal():
        minors = (reduce(mul, entries)
                  for entries in combinations(m.diagonal_entries(), k))
    else:
        minors = (determinant(m.submatrix(rows_idx, cols_idx))
                  for rows_idx in combinations(range(m.nrows), k)
                  for cols_idx in combinations(range(m.ncols), k))
    gens = {d.canonical_associate()[1] for d in minors if not d.is_zero()}
    return IdealHandle(ring, sorted(gens, key=lambda e: e.sort_key()))


# ---------------------------------------------------------------------------
# elementary operations


@dataclass(frozen=True)
class RowSwap:
    i: int
    j: int
    side = "left"

    def to_json(self):
        return {"op": "row_swap", "i": self.i, "j": self.j}


@dataclass(frozen=True)
class ColSwap:
    i: int
    j: int
    side = "right"

    def to_json(self):
        return {"op": "col_swap", "i": self.i, "j": self.j}


@dataclass(frozen=True)
class RowAdd:
    """row[dst] += mult * row[src]"""
    dst: int
    src: int
    mult: RingElement
    side = "left"

    def to_json(self):
        return {"op": "row_add", "dst": self.dst, "src": self.src,
                "mult": str(self.mult)}


@dataclass(frozen=True)
class ColAdd:
    """col[dst] += mult * col[src]"""
    dst: int
    src: int
    mult: RingElement
    side = "right"

    def to_json(self):
        return {"op": "col_add", "dst": self.dst, "src": self.src,
                "mult": str(self.mult)}


@dataclass(frozen=True)
class RowScale:
    i: int
    unit: RingElement
    side = "left"

    def to_json(self):
        return {"op": "row_scale", "i": self.i, "unit": str(self.unit)}


@dataclass(frozen=True)
class ColScale:
    i: int
    unit: RingElement
    side = "right"

    def to_json(self):
        return {"op": "col_scale", "i": self.i, "unit": str(self.unit)}


def _validate_op(m: RingMatrix, op):
    n, c = m.nrows, m.ncols
    if isinstance(op, (RowSwap, RowAdd, RowScale)):
        limit = n
    else:
        limit = c
    idxs = []
    if isinstance(op, (RowSwap, ColSwap)):
        idxs = [op.i, op.j]
        if op.i == op.j:
            raise UsageError("swap needs two distinct indices")
    elif isinstance(op, (RowAdd, ColAdd)):
        idxs = [op.dst, op.src]
        if op.dst == op.src:
            raise UsageError("add needs two distinct indices")
        if op.mult.ring != m.ring:
            raise UsageError("multiplier from the wrong ring")
    else:
        idxs = [op.i]
        if op.unit.ring != m.ring:
            raise UsageError("unit from the wrong ring")
        if not op.unit.is_unit():
            raise UsageError(f"cannot scale by the non-unit {op.unit}")
    for i in idxs:
        if not 0 <= i < limit:
            raise UsageError("elementary operation index out of range")


def apply_in_place(rows, op):
    """Apply one elementary operation to a grid (a list of row lists)."""
    if isinstance(op, RowSwap):
        rows[op.i], rows[op.j] = rows[op.j], rows[op.i]
    elif isinstance(op, ColSwap):
        for r in rows:
            r[op.i], r[op.j] = r[op.j], r[op.i]
    elif isinstance(op, RowAdd):
        rows[op.dst] = [a + op.mult * b
                        for a, b in zip(rows[op.dst], rows[op.src])]
    elif isinstance(op, ColAdd):
        for r in rows:
            r[op.dst] = r[op.dst] + op.mult * r[op.src]
    elif isinstance(op, RowScale):
        rows[op.i] = [op.unit * a for a in rows[op.i]]
    elif isinstance(op, ColScale):
        for r in rows:
            r[op.i] = op.unit * r[op.i]
    else:
        raise UsageError(f"unknown elementary operation {op!r}")


def apply_elementary(m: RingMatrix, op) -> RingMatrix:
    """Apply one invertible elementary row or column operation."""
    _validate_op(m, op)
    rows = [list(r) for r in m.rows]
    apply_in_place(rows, op)
    return RingMatrix(m.ring, rows)


def op_from_json(ring: RingDescriptor, data) -> object:
    """The operation a JSON object describes; KeyError for a missing field,
    TypeError for an index that is not an integer."""
    def index(key):
        value = data[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{key!r} is not an integer")
        return value

    kind = data.get("op")
    if kind == "row_swap":
        return RowSwap(index("i"), index("j"))
    if kind == "col_swap":
        return ColSwap(index("i"), index("j"))
    if kind == "row_add":
        return RowAdd(index("dst"), index("src"), ring.parse(data["mult"]))
    if kind == "col_add":
        return ColAdd(index("dst"), index("src"), ring.parse(data["mult"]))
    if kind == "row_scale":
        return RowScale(index("i"), ring.parse(data["unit"]))
    if kind == "col_scale":
        return ColScale(index("i"), ring.parse(data["unit"]))
    raise UsageError(f"unknown elementary operation {kind!r}")


class Workbench:
    """Mutable (A, P, Q) state: P * source * Q = A at every moment."""

    def __init__(self, m: RingMatrix):
        self.source = m
        self.a = [list(r) for r in m.rows]
        self.p = [list(r) for r in RingMatrix.identity(m.ring, m.nrows).rows]
        self.q = [list(r) for r in RingMatrix.identity(m.ring, m.ncols).rows]
        self.transcript = []
        self.ring = m.ring

    def matrix(self) -> RingMatrix:
        return RingMatrix(self.ring, self.a)

    def apply(self, op):
        _validate_op(self.source, op)
        self.transcript.append(op)
        apply_in_place(self.a, op)
        apply_in_place(self.p if op.side == "left" else self.q, op)

    def canonicalize_diagonal(self):
        """Scale rows by units so every nonzero diagonal entry is its
        canonical associate."""
        for i in range(min(self.source.nrows, self.source.ncols)):
            e = self.a[i][i]
            if e.is_zero():
                continue
            unit, _ = e.canonical_associate()
            if not unit.is_unit():
                raise InternalInvariantError("non-unit canonical factor")
            if unit != self.ring.one():
                self.apply(RowScale(i, unit.invert_unit()))

    def certificate(self) -> "EquivalenceCertificate":
        return EquivalenceCertificate(
            source=self.source,
            left=RingMatrix(self.ring, self.p),
            right=RingMatrix(self.ring, self.q),
            target=self.matrix(),
            transcript=tuple(self.transcript))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Witness that left * source * right = target with unimodular transforms."""

    source: RingMatrix
    left: RingMatrix
    right: RingMatrix
    target: RingMatrix
    transcript: tuple = ()

    def verify(self):
        """Checked once and kept on the instance: the fields are immutable.
        A transcript must also replay from source to left, right and target."""
        if "_check" not in self.__dict__:
            check = verifier.check_equivalence(
                self.left, self.source, self.right, self.target)
            if check and self.transcript:
                check = self._replay()
            object.__setattr__(self, "_check", check)
        return self._check

    def _replay(self):
        bench = Workbench(self.source)
        for k, op in enumerate(self.transcript):
            try:
                bench.apply(op)
            except UsageError as exc:
                return verifier.CheckResult(False, f"transcript step {k}: {exc}")
        replay = bench.certificate()
        for name in ("left", "right", "target"):
            if getattr(replay, name) != getattr(self, name):
                return verifier.CheckResult(
                    False, f"transcript does not reproduce {name}")
        return verifier.CheckResult(True)

    def to_json(self) -> dict:
        out = {"ring": self.source.ring.to_json(),
               "source": [[str(e) for e in r] for r in self.source.rows],
               "left": [[str(e) for e in r] for r in self.left.rows],
               "right": [[str(e) for e in r] for r in self.right.rows],
               "target": [[str(e) for e in r] for r in self.target.rows]}
        if self.transcript:
            out["transcript"] = [op.to_json() for op in self.transcript]
        return out


def verify_certificate(cert: EquivalenceCertificate):
    """Re-check a certificate with independent arithmetic; never trusts it."""
    return cert.verify()


# ---------------------------------------------------------------------------
# Smith normal form


def _euclid_size(e: RingElement):
    """Size for pivot selection: |n| over Z, degree over univariate fields."""
    if e.ring.kind == "integers" or e.ring.nvars == 0:
        return abs(e.constant_coeff())
    return e.total_degree()


def _euclid_quot(a: RingElement, b: RingElement) -> RingElement:
    """Quotient with remainder strictly smaller than b (Euclidean division)."""
    ring = a.ring
    if ring.nvars == 0:
        q = a.constant_coeff() // b.constant_coeff()
        return ring.from_coeff(q)
    # univariate over a field
    dom = ring.coeffs
    q = ring.zero()
    r = a
    db = b.total_degree()
    lb = b.leading_coeff()
    while not r.is_zero() and r.total_degree() >= db:
        shift = r.total_degree() - db
        coeff = dom.exact_div(r.leading_coeff(), lb)
        term = ring.monomial((shift,), coeff)
        q = q + term
        r = r - term * b
    return q


@dataclass(frozen=True)
class SmithForm:
    """Diagonal certificate with the divisibility chain d1 | d2 | ..."""

    certificate: EquivalenceCertificate
    invariant_factors: tuple

    def to_json(self) -> dict:
        out = self.certificate.to_json()
        out["invariant_factors"] = [str(d) for d in self.invariant_factors]
        return out


def smith_normal_form(m: RingMatrix) -> SmithForm:
    """Smith normal form over Z, Q[x] or F_p[x], with a verified certificate."""
    ring = m.ring
    if not ring.is_euclidean():
        raise NotEuclideanError(
            f"{ring!r} has no division algorithm here; use the diagonalizer")
    bench = Workbench(m)
    a = bench.a             # apply changes it in place
    n, c = m.nrows, m.ncols
    for t in range(min(n, c)):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, c):
                    if a[i][j].is_zero():
                        continue
                    size = _euclid_size(a[i][j])
                    if best is None or size < best[0]:
                        best = (size, i, j)
            if best is None:
                break  # remaining block is zero
            _, pi, pj = best
            if pi != t:
                bench.apply(RowSwap(t, pi))
            if pj != t:
                bench.apply(ColSwap(t, pj))
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t].is_zero():
                    continue
                q = _euclid_quot(a[i][t], pivot)
                bench.apply(RowAdd(i, t, -q))
                dirty = True
            for j in range(t + 1, c):
                if a[t][j].is_zero():
                    continue
                q = _euclid_quot(a[t][j], pivot)
                bench.apply(ColAdd(j, t, -q))
                dirty = True
            if dirty:
                continue
            # row and column are clear; enforce divisibility into the block
            merge = next((i for i in range(t + 1, n) for j in range(t + 1, c)
                          if not a[i][j].is_zero()
                          and exact_divide(a[i][j], pivot) is None), None)
            if merge is None:
                break
            bench.apply(RowAdd(t, merge, m.ring.one()))
    bench.canonicalize_diagonal()
    cert = bench.certificate()
    check = cert.verify()
    if not check.valid:
        raise InternalInvariantError(f"SNF certificate invalid: {check.reason}")
    diag = cert.target.diagonal_entries()
    factors = [d for d in diag if not d.is_zero()]
    for i in range(len(factors) - 1):
        if exact_divide(factors[i + 1], factors[i]) is None:
            raise InternalInvariantError("SNF divisibility chain broken")
    for k, d in enumerate(diag):
        if d.is_zero() and any(not e.is_zero() for e in diag[k:]):
            raise InternalInvariantError("zero before nonzero on SNF diagonal")
    return SmithForm(certificate=cert, invariant_factors=tuple(factors))
