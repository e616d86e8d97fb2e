"""Specialization probes: invariants of a module or a matrix after
substituting integers for the variables.  They commute with base change, so
a difference after substitution proves a difference over the ring itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from operator import mul
from typing import TYPE_CHECKING

from .errors import UsageError
from .linalg import RingMatrix
from .rings import IntegerCoeffs, RingDescriptor

if TYPE_CHECKING:
    from .homalg import FPModule


def default_probes(ring: RingDescriptor):
    """Finite-quotient probes: every point of {0, 1, -1}^n, then, over field
    coefficients with two or more variables, each substitution of all but one
    variable, compared by elementary divisors over the univariate PID.  None
    reduces modulo a prime power: that signature is a function of the one at
    the same point, which comes first."""
    values = (0, 1, -1)
    probes = [{"substitute": dict(zip(ring.variables, combo))}
              for combo in product(values, repeat=ring.nvars)]
    if ring.coeffs.is_field and ring.nvars >= 2:
        for keep in ring.variables:
            rest = [v for v in ring.variables if v != keep]
            probes.extend({"substitute": dict(zip(rest, combo)), "keep": keep}
                          for combo in product(values, repeat=len(rest)))
    return probes


def _substitute_full(element, mapping):
    """Evaluate at integer points; returns a coefficient-domain scalar."""
    ring = element.ring
    dom = ring.coeffs
    total = dom.zero()
    for exp, coeff in element._terms.items():
        term = coeff
        for idx, k in enumerate(exp):
            if k:
                term = dom.mul(term, dom.from_int(mapping[idx] ** k))
        total = dom.add(total, term)
    return total


def _substitute_keep(element, mapping, keep_idx, target):
    """Substitute all variables except one; lands in a univariate ring."""
    dom = element.ring.coeffs
    acc = {}
    for exp, coeff in element._terms.items():
        term = coeff
        for idx, k in enumerate(exp):
            if idx == keep_idx or k == 0:
                continue
            term = dom.mul(term, dom.from_int(mapping[idx] ** k))
        key = (exp[keep_idx],)
        acc[key] = dom.add(acc.get(key, dom.zero()), term)
    from .rings import RingElement
    return RingElement(target, acc)


def _rank(grid, dom):
    """Rank of a grid over a field of coefficients, by elimination."""
    rows = [list(r) for r in grid]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][j] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = dom.invert_unit(rows[rank][j])
        for i in range(len(rows)):
            if i != rank and rows[i][j] != 0:
                factor = dom.neg(dom.mul(rows[i][j], inv))
                rows[i] = [dom.add(a, dom.mul(factor, b))
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _int_invariant_factors(grid):
    """Elementary divisors of an integer matrix by direct elimination."""
    a = [list(r) for r in grid]
    n, c = len(a), len(a[0])
    factors = []
    t = 0
    while t < min(n, c):
        best = None
        for i in range(t, n):
            for j in range(t, c):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        pivot = a[t][t]
        dirty = False
        for i in range(t + 1, n):
            if a[i][t]:
                dirty |= a[i][t] % pivot != 0
                q = a[i][t] // pivot
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, c):
            if a[t][j]:
                dirty |= a[t][j] % pivot != 0
                q = a[t][j] // pivot
                for row in a:
                    row[j] -= q * row[t]
        if dirty:
            continue
        merge = None
        for i in range(t + 1, n):
            for j in range(t + 1, c):
                if a[i][j] % pivot:
                    merge = i
                    break
            if merge is not None:
                break
        if merge is not None:
            a[t] = [x + y for x, y in zip(a[t], a[merge])]
            continue
        factors.append(abs(pivot))
        t += 1
    return factors


def probe_signature(M: FPModule, probe) -> dict:
    """Canonical invariant of the finite quotient a probe produces."""
    ring = M.ring
    g = M.gens
    sub_names = probe.get("substitute", {})
    mapping = {}
    for name, value in sub_names.items():
        mapping[ring.var_index(name)] = value
    keep = probe.get("keep")

    if keep is not None:
        keep_idx = ring.var_index(keep)
        target = RingDescriptor.polynomial(ring.coeffs, [keep], "lex")
        cols = [[_substitute_keep(v.comps[i], mapping, keep_idx, target)
                 for v in M.relations] for i in range(g)]
        if not M.relations:
            return {"factors": [], "free_rank": g}
        from .linalg import smith_normal_form as snf
        mat = RingMatrix(target, cols)
        form = snf(mat)
        nontrivial = [str(d) for d in form.invariant_factors if not d.is_unit()]
        return {"factors": nontrivial,
                "free_rank": g - len(form.invariant_factors)}

    if ring.coeffs.is_field:
        if not M.relations:
            return {"dim": g}
        grid = [[_substitute_full(v.comps[i], mapping) for v in M.relations]
                for i in range(g)]
        rank = _rank(grid, ring.coeffs)
        return {"dim": g - rank}

    # integer coefficients: compare finitely generated abelian groups
    if not M.relations:
        factors, free_rank = [], g
    else:
        grid = [[int(_substitute_full(v.comps[i], mapping))
                 for v in M.relations] for i in range(g)]
        factors = _int_invariant_factors(grid)
        free_rank = g - len(factors)
    parts = sorted(d for d in factors if d > 1)
    return {"parts": parts, "free_rank": free_rank}


@dataclass(frozen=True)
class SpecializationOutcome:
    distinguished: bool
    probe: dict = None
    lhs_signature: dict = None
    rhs_signature: dict = None


def specialization_oracle(M: FPModule, N: FPModule) -> SpecializationOutcome:
    """Sound negative witness: a probe under which the finite quotients of
    M and N differ refutes any isomorphism.  Indistinguishable means no
    conclusion."""
    if M.ring != N.ring:
        raise UsageError("modules over different rings")
    for probe in default_probes(M.ring):
        lhs = probe_signature(M, probe)
        rhs = probe_signature(N, probe)
        if lhs != rhs:
            return SpecializationOutcome(True, probe, lhs, rhs)
    return SpecializationOutcome(False)


# ---------------------------------------------------------------------------
# Fitting ideals under evaluation


def fitting_images(rows, point) -> list:
    """Images of F_1, ..., F_n of an n x n matrix (rows of ring elements)
    under the evaluation at point (variable name -> integer): over Z
    coefficients the gcd of the k-minors, the product of the first k
    elementary divisors; over a field 1 while k is at most the rank, else 0.
    """
    ring = rows[0][0].ring
    mapping = dict(zip(map(ring.var_index, point), point.values()))
    grid = [[_substitute_full(e, mapping) for e in row] for row in rows]
    n, dom = len(grid), ring.coeffs
    if isinstance(dom, IntegerCoeffs):
        images = list(accumulate(_int_invariant_factors(grid), mul))
        return images + [0] * (n - len(images))
    rank = _rank(grid, dom)
    return [1] * rank + [0] * (n - rank)
