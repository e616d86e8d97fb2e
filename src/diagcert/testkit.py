"""Independent oracles and seeded generators for property-based acceptance.

Nothing here shares algorithms with the code it checks: the invariant-factor
oracle enumerates minors over plain Python integers, and the specialization
oracle compares finite quotients through direct rank / elementary-divisor
computations on substituted matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd as int_gcd

from .bounds import Bounds
from .errors import UsageError
from .homalg import FPModule, element_pool
from .linalg import (ColAdd, ColSwap, RingMatrix, RowAdd, RowSwap,
                     Workbench, op_from_json)
from .rings import (IntegerCoeffs, PrimeFieldCoeffs, RationalCoeffs,
                    RingDescriptor)


# ---------------------------------------------------------------------------
# minors-gcd invariant factor oracle (integers only, no shared code)


def _int_det(grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    acc = 0
    for j in range(n):
        if grid[0][j] == 0:
            continue
        minor = [[grid[i][k] for k in range(n) if k != j]
                 for i in range(1, n)]
        term = grid[0][j] * _int_det(minor)
        acc += term if j % 2 == 0 else -term
    return acc


def minors_gcd_snf_oracle(m: RingMatrix):
    """Invariant factors d_k = gcd(k-minors) / gcd((k-1)-minors), brute force."""
    if m.ring.kind != "integers":
        raise UsageError("oracle works on integer matrices")
    grid = [[int(e.constant_coeff()) for e in row] for row in m.rows]
    n, c = len(grid), len(grid[0])
    factors = []
    prev = 1
    for k in range(1, min(n, c) + 1):
        g = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(c), k):
                g = int_gcd(g, _int_det([[grid[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


# ---------------------------------------------------------------------------
# seeded scrambles with ground truth


@dataclass(frozen=True)
class ScrambleRecipe:
    """Replayable description of the elementary operations applied."""

    seed: int
    size: int
    ops: tuple   # op JSON dicts, in application order

    def to_json(self):
        return {"seed": self.seed, "size": self.size, "ops": list(self.ops)}


def scramble(D: RingMatrix, recipe: ScrambleRecipe):
    """Replay a recipe against a diagonal seed matrix.

    Returns (matrix, ground-truth certificate); replaying is exact, so the
    same recipe always reproduces the same matrix.
    """
    bench = Workbench(D)
    for op_data in recipe.ops:
        bench.apply(op_from_json(D.ring, op_data))
    cert = bench.certificate()
    return bench.matrix(), cert


def random_recipe(ring: RingDescriptor, size: int, op_count: int, seed: int,
                  bounds: Bounds = None) -> ScrambleRecipe:
    """Draw elementary operations with multipliers from the bounded pool."""
    bounds = bounds or Bounds()
    rng = random.Random(seed)
    pool = element_pool(ring, bounds)
    ops = []
    for _ in range(op_count):
        kind = rng.choice(["row_add", "col_add", "row_add", "col_add",
                           "row_swap", "col_swap"])
        if size < 2:
            break
        i = rng.randrange(size)
        j = rng.randrange(size - 1)
        if j >= i:
            j += 1
        if kind == "row_swap":
            ops.append(RowSwap(i, j).to_json())
        elif kind == "col_swap":
            ops.append(ColSwap(i, j).to_json())
        elif kind == "row_add":
            mult = pool[rng.randrange(len(pool))]
            ops.append(RowAdd(i, j, mult).to_json())
        else:
            mult = pool[rng.randrange(len(pool))]
            ops.append(ColAdd(i, j, mult).to_json())
    return ScrambleRecipe(seed=seed, size=size, ops=tuple(ops))


# ---------------------------------------------------------------------------
# specialization probes


def default_probes(ring: RingDescriptor):
    """Finite-quotient probes: substitute variables from {0, 1, -1}; for
    integer coefficients also reduce modulo small prime powers; for two or
    more variables also keep one variable and compare elementary divisors."""
    probes = []
    values = (0, 1, -1)
    nvars = ring.nvars
    if nvars == 0:
        probes.append({"substitute": {}, "mod": None})
        for p in (2, 3, 5):
            for e in (1, 2):
                probes.append({"substitute": {}, "mod": [p, e]})
        return probes
    for combo in product(values, repeat=nvars):
        sub = {name: v for name, v in zip(ring.variables, combo)}
        probes.append({"substitute": sub, "mod": None})
        if isinstance(ring.coeffs, IntegerCoeffs):
            for p in (2, 3, 5):
                probes.append({"substitute": sub, "mod": [p, 1]})
    if nvars >= 2:
        for keep in ring.variables:
            rest = [v for v in ring.variables if v != keep]
            for combo in product(values, repeat=len(rest)):
                sub = {name: v for name, v in zip(rest, combo)}
                probes.append({"substitute": sub, "keep": keep, "mod": None})
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


def _rational_rank(grid):
    rows = [[Fraction(x) for x in r] for r in grid]
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
        pv = rows[rank][j]
        for i in range(len(rows)):
            if i != rank and rows[i][j] != 0:
                factor = rows[i][j] / pv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _fp_rank(grid, p):
    rows = [[x % p for x in r] for r in grid]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][j] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                factor = rows[i][j] * inv % p
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[rank])]
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
    mod = probe.get("mod")

    if keep is not None:
        keep_idx = ring.var_index(keep)
        if isinstance(ring.coeffs, IntegerCoeffs):
            # no division algorithm over Z[t]; skip this probe shape
            return {"skipped": True}
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

    if isinstance(ring.coeffs, (RationalCoeffs, PrimeFieldCoeffs)):
        if not M.relations:
            return {"dim": g}
        grid = [[_substitute_full(v.comps[i], mapping) for v in M.relations]
                for i in range(g)]
        if isinstance(ring.coeffs, PrimeFieldCoeffs):
            rank = _fp_rank([[int(x) for x in r] for r in grid], ring.coeffs.p)
        else:
            rank = _rational_rank(grid)
        return {"dim": g - rank}

    # integer coefficients: compare finitely generated abelian groups
    if not M.relations:
        factors, free_rank = [], g
    else:
        grid = [[int(_substitute_full(v.comps[i], mapping))
                 for v in M.relations] for i in range(g)]
        factors = _int_invariant_factors(grid)
        free_rank = g - len(factors)
    if mod is not None:
        p, e = mod
        q = p ** e
        parts = [int_gcd(d, q) for d in factors] + [q] * free_rank
        parts = sorted(x for x in parts if x > 1)
        return {"group_mod": [p, e], "parts": parts}
    parts = sorted(d for d in factors if d > 1)
    return {"parts": parts, "free_rank": free_rank}


@dataclass(frozen=True)
class SpecializationOutcome:
    distinguished: bool
    probe: dict = None
    lhs_signature: dict = None
    rhs_signature: dict = None

    def to_json(self):
        if not self.distinguished:
            return {"distinguished": False}
        return {"distinguished": True, "probe": self.probe,
                "lhs": self.lhs_signature, "rhs": self.rhs_signature}


def specialization_oracle(M: FPModule, N: FPModule,
                          probes=None) -> SpecializationOutcome:
    """Sound negative witness: a probe under which the finite quotients of
    M and N differ refutes any isomorphism.  Indistinguishable means no
    conclusion."""
    if M.ring != N.ring:
        raise UsageError("modules over different rings")
    if probes is None:
        probes = default_probes(M.ring)
    for probe in probes:
        lhs = probe_signature(M, probe)
        rhs = probe_signature(N, probe)
        if lhs.get("skipped") or rhs.get("skipped"):
            continue
        if lhs != rhs:
            return SpecializationOutcome(True, probe, lhs, rhs)
    return SpecializationOutcome(False)
