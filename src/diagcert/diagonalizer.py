"""Deciding equivalence to a diagonal matrix, with certificates both ways.

Yes path: Euclidean rings delegate to the Smith normal form.  Elsewhere a
search over elementary operations runs in phases: forced simplifications
(clear around unit entries, split off isolated pivots), greedy division-guided
reduction steps, and a bounded best-first escape from plateaus using a small
multiplier pool.  Any sequence that reaches a diagonal matrix is replayed
through one Workbench, its diagonal canonicalized there, and the resulting
certificate independently verified.

No path: factor the determinant (complete factorizations only), enumerate
every diagonal candidate up to associates and order, and refute each by a
Fitting-ideal mismatch: between the images of the ideals at an integer
point where one separates them, else between the ideals over the ring.
Exhaustiveness rests on the factorization being complete; an incomplete one
forces Unknown.

Order: the search runs until it first stalls (no improving greedy move), then
the No path runs once; if it refutes every candidate the verdict is No at
once, otherwise the plateau escape and the rest of the search go on unchanged.
A search that runs out of budget before it ever stalls refutes afterwards.
The refutation never starts before the search, because enumerating the
candidates is costly where the search succeeds at once.

Neither path is complete, so Unknown is a legitimate outcome.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from operator import itemgetter

from .bounds import Bounds, applies_bounds
from .errors import (FullRankRequiredError, InternalInvariantError,
                     StepBudgetExceeded)
from .factorize import FactorResult, factor
from .filtration import (FiltrationSearchResult, filtration_from_decomposition,
                         search_minimal_cyclic_filtration)
from .homalg import (FPModule, QGResult, element_pool, is_quasi_gorenstein,
                     transpose_equivalence_from_diagonal)
from .linalg import (ColAdd, ColScale, ColSwap, EquivalenceCertificate,
                     RingMatrix, RowAdd, RowSwap, Workbench, apply_in_place,
                     determinant, fitting_ideal, inverse_unimodular,
                     is_diagonal_grid, smith_normal_form)
from .rings import IdealHandle, RingElement


# ---------------------------------------------------------------------------
# potential function and elementary moves on plain grids


def _coeff_size(c) -> int:
    return max(abs(c.numerator).bit_length() + c.denominator.bit_length() - 1, 1)


def _entry_weight(e: RingElement) -> int:
    if e.is_zero():
        return 0
    w = 0
    for exp, c in e._terms.items():
        w += 1 + sum(exp) + _coeff_size(c)
    return w


def _potential(rows) -> int:
    total = 0
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            w = _entry_weight(e)
            total += w
            if i != j and w:
                total += 3
    return total


def _apply(rows, op):
    rows = [list(r) for r in rows]
    apply_in_place(rows, op)
    return rows


def _term_quotients(ring, num: RingElement, den: RingElement):
    """Single-term quotients t/LT(den) for terms t of num, when exact."""
    if num.is_zero() or den.is_zero():
        return []
    dom = ring.coeffs
    de, dc = den.leading_term()
    out = []
    for exp, c in num.terms():
        diff = tuple(a - b for a, b in zip(exp, de))
        if any(d < 0 for d in diff):
            continue
        q = dom.exact_div(c, dc)
        if q is None or q == 0:
            continue
        out.append(ring.monomial(diff, q))
    return out


def _division_moves(ring, rows, active):
    """Moves row_dst -= q*row_src (and column versions) that can cancel a
    leading term of some entry against another entry in the same line."""
    moves = []
    seen = set()
    for src in active:
        for dst in active:
            if src == dst:
                continue
            for c in active:
                for q in _term_quotients(ring, rows[dst][c], rows[src][c]):
                    key = ("r", dst, src, q)
                    if key not in seen:
                        seen.add(key)
                        moves.append(RowAdd(dst, src, -q))
            for r in active:
                for q in _term_quotients(ring, rows[r][dst], rows[r][src]):
                    key = ("c", dst, src, q)
                    if key not in seen:
                        seen.add(key)
                        moves.append(ColAdd(dst, src, -q))
    return moves


def _pool_moves(ring, active, pool):
    moves = []
    for src in active:
        for dst in active:
            if src == dst:
                continue
            for mult in pool:
                moves.append(RowAdd(dst, src, mult))
                moves.append(ColAdd(dst, src, mult))
    return moves


def _state_key(rows):
    return tuple(tuple(r) for r in rows)


class _Search:
    """Bounded elementary-operation search on one matrix."""

    def __init__(self, m: RingMatrix, bounds: Bounds, on_stall=None):
        self.ring = m.ring
        self.n = m.nrows
        self.budget = bounds.search_nodes
        # over F_p with p <= 2 * height the pool repeats residues and holds 0
        self.pool = [e for e in dict.fromkeys(element_pool(m.ring, bounds))
                     if not e.is_zero()]
        self.ops = []
        self.rows = [list(r) for r in m.rows]
        self.frozen = 0      # rows/cols below this index are finished
        self.on_stall = on_stall  # called once at the first plateau; True stops

    def _spend(self) -> bool:
        self.budget -= 1
        return self.budget >= 0

    def _do(self, op):
        self.rows = _apply(self.rows, op)
        self.ops.append(op)

    @property
    def active(self):
        return list(range(self.frozen, self.n))

    # forced simplifications -------------------------------------------------
    def _find_unit(self):
        for i in self.active:
            for j in self.active:
                if self.rows[i][j].is_unit():
                    return i, j
        return None

    def _find_isolated(self):
        for i in self.active:
            row_nz = [j for j in self.active if not self.rows[i][j].is_zero()]
            if len(row_nz) != 1:
                continue
            j = row_nz[0]
            col_nz = [r for r in self.active if not self.rows[r][j].is_zero()]
            if col_nz == [i]:
                return i, j
        return None

    def _freeze_pivot(self, i, j):
        t = self.frozen
        if i != t:
            self._do(RowSwap(t, i))
        if j != t:
            self._do(ColSwap(t, j))
        self.frozen += 1

    def _clear_unit(self, i, j):
        t = self.frozen
        if i != t:
            self._do(RowSwap(t, i))
        if j != t:
            self._do(ColSwap(t, j))
        unit = self.rows[t][t]
        if unit != self.ring.one():
            self._do(ColScale(t, unit.invert_unit()))
        for r in range(t + 1, self.n):
            e = self.rows[r][t]
            if not e.is_zero():
                self._do(RowAdd(r, t, -e))
        for c in range(t + 1, self.n):
            e = self.rows[t][c]
            if not e.is_zero():
                self._do(ColAdd(c, t, -e))
        self.frozen += 1

    def _forced(self):
        while True:
            if not self._spend():
                return
            hit = self._find_unit()
            if hit is not None:
                self._clear_unit(*hit)
                continue
            hit = self._find_isolated()
            if hit is not None:
                self._freeze_pivot(*hit)
                continue
            return

    # main loop ---------------------------------------------------------------
    def run(self):
        while True:
            self._forced()
            if self.budget < 0:
                return None
            sub = [r[self.frozen:] for r in self.rows[self.frozen:]]
            if not sub or is_diagonal_grid(sub):
                return list(self.ops)
            if self._greedy_step():
                continue
            if self.budget < 0:
                return None
            hook, self.on_stall = self.on_stall, None
            if hook is not None and hook():
                return None
            if not self._plateau_escape():
                return None

    def _greedy_step(self) -> bool:
        current = _potential(self.rows)
        best = None
        for op in _division_moves(self.ring, self.rows, self.active):
            if not self._spend():
                return False
            cand = _apply(self.rows, op)
            value = _potential(cand)
            if value < current and (best is None or value < best[0]):
                best = (value, op, cand)
        if best is None:
            return False
        _, op, cand = best
        self.rows = cand
        self.ops.append(op)
        return True

    def _plateau_escape(self) -> bool:
        """Best-first over division and pool moves, accepting a short climb;
        succeeds when some reachable state beats the plateau potential or
        becomes diagonal in the active block."""
        start_rows = [list(r) for r in self.rows]
        start_potential = _potential(start_rows)
        counter = 0
        heap = [(start_potential, 0, counter, start_rows, [])]
        visited = {_state_key(start_rows)}
        depth_cap = 4
        while heap:
            if not self._spend():
                return False
            value, depth, _, rows, path = heapq.heappop(heap)
            if path:
                sub = [r[self.frozen:] for r in rows[self.frozen:]]
                has_unit = any(e.is_unit() for r in sub for e in r)
                if value < start_potential or is_diagonal_grid(sub) or has_unit:
                    self.rows = rows
                    self.ops.extend(path)
                    return True
            if depth >= depth_cap:
                continue
            moves = _division_moves(self.ring, rows, self.active) + \
                _pool_moves(self.ring, self.active, self.pool)
            for op in moves:
                if not self._spend():
                    return False
                cand = _apply(rows, op)
                key = _state_key(cand)
                if key in visited:
                    continue
                visited.add(key)
                counter += 1
                heapq.heappush(heap, (_potential(cand), depth + 1, counter,
                                      cand, path + [op]))
        return False


# ---------------------------------------------------------------------------
# the No path: exhaustive diagonal-candidate refutation


@dataclass(frozen=True)
class CandidateRefutation:
    """A Fitting-ideal mismatch: of the images at point ("evaluation"
    evidence) or of the ideals over the ring ("groebner" evidence)."""

    diagonal: tuple                # canonical entries
    fitting_index: int
    evidence: str
    point: dict = None             # variable name -> integer
    matrix_image: int = None
    candidate_image: int = None
    matrix_ideal: IdealHandle = None
    candidate_ideal: IdealHandle = None

    def to_json(self):
        out = {"diagonal": [str(d) for d in self.diagonal],
               "evidence": self.evidence,
               "fitting_index": self.fitting_index}
        if self.evidence == "evaluation":
            out.update(point=dict(self.point), matrix_image=self.matrix_image,
                       candidate_image=self.candidate_image)
        else:
            out.update(matrix_ideal=self.matrix_ideal.to_json(),
                       candidate_ideal=self.candidate_ideal.to_json())
        return out


@dataclass(frozen=True)
class ObstructionRecord:
    """No-verdict evidence: the complete determinant factorization plus one
    Fitting-ideal mismatch per candidate diagonal."""

    det_factorization: FactorResult
    refutations: tuple

    def verify(self, m: RingMatrix) -> bool:
        from . import verifier
        if not self.det_factorization.complete:
            return False
        if self.det_factorization.expand() != determinant(m):
            return False
        expected = {tuple(str(d) for d in cand)
                    for cand in _diagonal_candidates(m.ring,
                                                     self.det_factorization,
                                                     m.nrows)}
        recorded = {tuple(str(d) for d in r.diagonal) for r in self.refutations}
        if expected != recorded:
            return False
        matrix_fitting = {}
        matrix_images = {}
        for r in self.refutations:
            k = r.fitting_index
            if k not in range(1, m.nrows + 1):
                return False
            cand_matrix = RingMatrix.diagonal(m.ring, list(r.diagonal))
            if r.evidence == "evaluation":
                key = (str(r.point), k)
                if key not in matrix_images:
                    matrix_images[key] = verifier.fitting_image(m, r.point, k)
                images = (matrix_images[key],
                          verifier.fitting_image(cand_matrix, r.point, k))
                if None in images or images[0] == images[1] or \
                        images != (r.matrix_image, r.candidate_image):
                    return False
                continue
            if r.evidence != "groebner":
                return False
            if k not in matrix_fitting:
                matrix_fitting[k] = fitting_ideal(m, k)
            if matrix_fitting[k] != r.matrix_ideal:
                return False
            if fitting_ideal(cand_matrix, k) != r.candidate_ideal:
                return False
            if not verifier.check_ideal_mismatch(r.matrix_ideal,
                                                 r.candidate_ideal).valid:
                return False
        return True

    def to_json(self):
        return {"determinant_factorization": self.det_factorization.to_json(),
                "candidates_refuted": [r.to_json() for r in self.refutations]}


def _diagonal_candidates(ring, factorization: FactorResult, n: int):
    """All diagonals with the given determinant, up to associates and order.

    A candidate is a multiset of n slot exponent vectors, one exponent per
    prime, summing to the multiplicities.  The multisets grow one prime at a
    time: splitting the next prime over two equal multisets gives the same
    multisets again, so each is kept once.  The primes are pairwise
    non-associate, so distinct multisets give distinct diagonals.  Each
    slot's product and its sort key are computed once per exponent vector.
    """
    primes = [p for p, _ in factorization.factors]
    shapes = {((),) * n}
    for _, mult in factorization.factors:
        splits = []
        for bars in combinations_with_replacement(range(n), mult):
            counts = [0] * n
            for b in bars:
                counts[b] += 1
            splits.append(counts)
        shapes = {tuple(sorted(slot + (c,) for slot, c in zip(shape, counts)))
                  for shape in shapes for counts in splits}
    products = {}     # exponent vector -> (sort key, entry)

    def entry(vector):
        if vector not in products:
            e = ring.one()
            for p, k in zip(primes, vector):
                if k:
                    e = e * p ** k
            e = e.canonical_associate()[1]
            products[vector] = (e.sort_key(), e)
        return products[vector]

    out = []
    for shape in shapes:
        slots = sorted(map(entry, shape), key=itemgetter(0))
        out.append((tuple(k for k, _ in slots), tuple(e for _, e in slots)))
    out.sort(key=itemgetter(0))
    return [cand for _, cand in out]


def _try_obstruction(m: RingMatrix, det: RingElement):
    """An ObstructionRecord refuting every candidate diagonal, or None.

    Fitting ideals commute with base change, so a candidate whose images at
    a point of {0, 1, -1}^n differ from the input's is refuted; only one
    that no point separates is compared over the ring.
    """
    from .specialization import fitting_images, points
    factorization = factor(det)
    if not factorization.complete:
        return None
    n = m.nrows
    matrix_images = {}    # filled when a candidate first reaches a point
    matrix_fitting = {}   # filled when a candidate first reaches index k
    refutations = []
    for cand in _diagonal_candidates(m.ring, factorization, n):
        cand_matrix = RingMatrix.diagonal(m.ring, list(cand))
        hit = None
        for i, point in enumerate(points(m.ring)):
            if hit is not None:
                break
            if i not in matrix_images:
                matrix_images[i] = fitting_images(m.rows, point)
            lhs = matrix_images[i]
            rhs = fitting_images(cand_matrix.rows, point)
            for k in range(1, n):
                if lhs[k - 1] != rhs[k - 1]:
                    hit = CandidateRefutation(cand, k, "evaluation", point,
                                              lhs[k - 1], rhs[k - 1])
                    break
        if hit is None:
            for k in range(1, n):
                if k not in matrix_fitting:
                    matrix_fitting[k] = fitting_ideal(m, k)
                lhs = matrix_fitting[k]
                rhs = fitting_ideal(cand_matrix, k)
                if lhs != rhs:
                    hit = CandidateRefutation(cand, k, "groebner",
                                              matrix_ideal=lhs,
                                              candidate_ideal=rhs)
                    break
        if hit is None:
            return None  # a candidate survives; cannot refute
        refutations.append(hit)
    record = ObstructionRecord(factorization, tuple(refutations))
    if not record.verify(m):
        raise InternalInvariantError("obstruction record failed re-verification")
    return record


# ---------------------------------------------------------------------------
# public results


@dataclass
class DiagonalizeResult:
    verdict: str                   # "yes" | "no" | "unknown"
    certificate: EquivalenceCertificate = None
    obstruction: ObstructionRecord = None
    bounds: Bounds = None
    unit_diagonal_entries: tuple = ()
    method: str = ""

    def diagonal_entries(self):
        if self.certificate is None:
            return None
        return self.certificate.target.diagonal_entries()

    def to_json(self):
        out = {"verdict": self.verdict, "method": self.method}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
            out["verified"] = bool(self.certificate.verify())
            out["diagonal"] = [str(d) for d in self.diagonal_entries()]
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction.to_json()
        if self.unit_diagonal_entries:
            out["unit_diagonal_entries"] = [str(u) for u in
                                            self.unit_diagonal_entries]
        if self.verdict == "unknown" and self.bounds is not None:
            out["bounds"] = self.bounds.to_json()
        return out


@applies_bounds
def diagonalize(m: RingMatrix, bounds: Bounds = None) -> DiagonalizeResult:
    """Decide equivalence of a full-rank square matrix to a diagonal matrix."""
    if not m.is_square():
        raise FullRankRequiredError("square matrix required")
    det = determinant(m)
    if det.is_zero():
        raise FullRankRequiredError("determinant is zero")
    ring = m.ring

    def _finish(cert, method):
        check = cert.verify()
        if not check.valid:
            raise InternalInvariantError(f"certificate invalid: {check.reason}")
        units = tuple(d for d in cert.target.diagonal_entries() if d.is_unit())
        return DiagonalizeResult("yes", certificate=cert, bounds=bounds,
                                 unit_diagonal_entries=units, method=method)

    if det.is_unit():
        # the module is zero; m is equivalent to the identity
        ident = RingMatrix.identity(ring, m.nrows)
        return _finish(EquivalenceCertificate(m, inverse_unimodular(m),
                                              ident, ident),
                       "unit-determinant")

    if m.is_diagonal():
        bench = Workbench(m)
        bench.canonicalize_diagonal()
        return _finish(bench.certificate(), "already-diagonal")

    if ring.is_euclidean():
        return _finish(smith_normal_form(m).certificate, "smith-normal-form")

    # refute the candidates once, when the search first stalls; a search
    # that runs out of budget before stalling refutes afterwards.  A step
    # budget error is held until the search fails, where it would have
    # surfaced had the refutation run last.
    refuted = []

    def refute():
        try:
            refuted.append(_try_obstruction(m, det))
        except StepBudgetExceeded as exc:
            refuted.append(exc)
        return isinstance(refuted[0], ObstructionRecord)

    search = _Search(m, bounds, on_stall=refute)
    ops = search.run()
    if ops is not None:
        bench = Workbench(m)
        for op in ops:
            bench.apply(op)
        if not is_diagonal_grid(bench.a):
            raise InternalInvariantError("search returned a non-diagonal target")
        bench.canonicalize_diagonal()
        return _finish(bench.certificate(), "elementary-search")

    if not refuted:
        refute()
    record = refuted[0]
    if isinstance(record, StepBudgetExceeded):
        raise record
    if record is not None:
        return DiagonalizeResult("no", obstruction=record, bounds=bounds,
                                 method="fitting-obstruction")
    return DiagonalizeResult("unknown", bounds=bounds, method="exhausted")


# ---------------------------------------------------------------------------
# the full report


@dataclass
class DiagnosisReport:
    matrix: RingMatrix
    bounds: Bounds
    degenerate: str = ""
    det: RingElement = None
    det_factorization: FactorResult = None
    full_rank: bool = False
    pd_one: bool = False
    qg: QGResult = None
    filtration: FiltrationSearchResult = None
    diagonalizable: DiagonalizeResult = None
    consistency: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)
    claims: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"schema": "diagcert/1",
               "input": self.matrix.to_json(),
               "bounds": self.bounds.to_json()}
        if self.degenerate:
            out["degenerate"] = self.degenerate
        if self.det is not None:
            out["determinant"] = str(self.det)
        if self.det_factorization is not None:
            out["determinant_factorization"] = self.det_factorization.to_json()
        out["full_rank"] = self.full_rank
        out["pd_one"] = self.pd_one
        if self.qg is not None:
            out["quasi_gorenstein"] = self.qg.to_json()
        if self.filtration is not None:
            out["minimal_cyclic_filtration"] = self.filtration.to_json()
        if self.diagonalizable is not None:
            out["diagonalizable"] = self.diagonalizable.to_json()
        out["consistency"] = self.consistency
        out["discrepancies"] = self.discrepancies
        if self.claims:
            out["claims"] = self.claims
        return out


@applies_bounds
def analyze(m: RingMatrix, bounds: Bounds = None, claims: dict = None) -> DiagnosisReport:
    """Run the full pipeline and cross-check the implications between the
    verdicts.  Violated implications become discrepancies, never silenced."""
    claims = dict(claims or {})
    report = DiagnosisReport(matrix=m, bounds=bounds, claims=claims)
    if not m.is_square():
        report.degenerate = "matrix is not square; nothing to decide"
        return report
    det = determinant(m)
    report.det = det
    if det.is_zero():
        report.degenerate = ("determinant is zero: outside the full-rank "
                             "hypothesis, analysis refused")
        return report
    report.full_rank = True
    report.pd_one = not det.is_unit()
    diag = report.diagonalizable = diagonalize(m, bounds)
    if diag.verdict == "no":
        # the refutation has factored this determinant already
        report.det_factorization = diag.obstruction.det_factorization
    elif not det.is_unit():
        report.det_factorization = factor(det)

    if det.is_unit():
        report.degenerate = "unit determinant presents the zero module"
        report.consistency.append(
            {"check": "unit_determinant_trivial", "status": "ok",
             "detail": "equivalent to the identity; the module is zero"})
        return report

    report.qg = is_quasi_gorenstein(m, bounds)
    report.filtration = search_minimal_cyclic_filtration(FPModule.from_matrix(m),
                                                         bounds)

    if diag.verdict == "yes":
        cert_t = transpose_equivalence_from_diagonal(diag.certificate)
        report.consistency.append(
            {"check": "diagonal_implies_transpose_equivalence",
             "status": "ok",
             "detail": {"verified": bool(cert_t.verify()),
                        "certificate": cert_t.to_json()}})
        entries = diag.diagonal_entries()
        report.consistency.append(
            {"check": "diagonal_gives_cyclic_decomposition", "status": "ok",
             "detail": {"summands": [str(e) for e in entries],
                        "unit_entries": [str(e) for e in entries if e.is_unit()]}})
        decomp = filtration_from_decomposition(entries)
        report.consistency.append(
            {"check": "decomposition_gives_filtration", "status": "ok",
             "detail": decomp.to_json()})
        if report.filtration.found is None:
            # the two minimality readings genuinely differ here: the peel
            # construction compares only the decomposition ideals, while the
            # search insists no sampled element offers a strictly smaller
            # annihilator at any stage
            report.consistency.append(
                {"check": "filtration_search_vs_decomposition",
                 "status": "divergent",
                 "detail": "diagonalizable with a verified peel filtration, "
                           "but the strict-minimality lattice search found "
                           "no chain within bounds"})
    if diag.verdict == "no" and report.qg.verdict == "yes" \
            and report.filtration.found is not None:
        report.discrepancies.append(
            "not diagonalizable, yet quasi-Gorenstein with a minimal cyclic "
            "filtration found; note the filtration stages' submodules were "
            "not certified quasi-Gorenstein")

    _check_claims(report)
    return report


def _check_claims(report: DiagnosisReport):
    claims = report.claims
    if not claims:
        return
    diag = report.diagonalizable
    if "diagonalizable" in claims and diag is not None \
            and diag.verdict in ("yes", "no"):
        actual = diag.verdict == "yes"
        if bool(claims["diagonalizable"]) != actual:
            report.discrepancies.append(
                f"supplied claim diagonalizable={claims['diagonalizable']} "
                f"contradicts the verified verdict {diag.verdict}; "
                "certificates outrank claims")
    if "transpose_equivalent" in claims and report.qg is not None \
            and report.qg.verdict == "yes" \
            and not claims["transpose_equivalent"]:
        report.discrepancies.append(
            f"supplied claim transpose_equivalent="
            f"{claims['transpose_equivalent']} contradicts the verified "
            "verdict yes; certificates outrank claims")
