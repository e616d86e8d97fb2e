"""Fitting ideals of a matrix after substituting integers for the
variables.  Fitting ideals commute with base change, so a difference after
substitution proves a difference over the ring itself.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import mul

from .rings import IntegerCoeffs, RingDescriptor


def points(ring: RingDescriptor):
    """Every point of {0, 1, -1}^n as a map from variable name to integer,
    in the order of product((0, 1, -1)); over Z the one empty point."""
    for combo in product((0, 1, -1), repeat=ring.nvars):
        yield dict(zip(ring.variables, combo))


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
