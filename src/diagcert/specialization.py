"""Fitting ideals of a matrix after substituting integers for the
variables.  Fitting ideals commute with base change, so a difference after
substitution proves a difference over the ring itself.

The evaluated matrix has its entries in the coefficient domain, and one
Smith form over that domain gives all its Fitting images: over Z the
elementary divisors, over a field the rank.  The verifier recomputes each
image independently, by cofactor expansion of the evaluated minors.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import mul

from .rings import RingDescriptor


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


def _smith_diagonal(grid, dom):
    """The nonzero diagonal entries of a Smith form of a square grid of
    scalars over its coefficient domain dom, by elimination with pivots of
    least abs: over Z the elementary divisors up to sign, over a field
    units."""
    a = [list(r) for r in grid]
    n = len(a)
    diagonal = []
    t = 0
    while t < n:
        entries = [(abs(a[i][j]), i, j)
                   for i in range(t, n) for j in range(t, n) if a[i][j]]
        if not entries:
            break
        _, bi, bj = min(entries)
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        pivot = a[t][t]
        dirty = False
        for i in range(t + 1, n):
            if a[i][t]:
                q, r = dom.divmod_canonical(a[i][t], pivot)
                dirty |= r != 0
                a[i] = [dom.from_int(x - q * y) for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            if a[t][j]:
                q, r = dom.divmod_canonical(a[t][j], pivot)
                dirty |= r != 0
                for row in a:
                    row[j] = dom.from_int(row[j] - q * row[t])
        if dirty:
            continue
        merge = None if dom.is_unit(pivot) else next(
            (i for i in range(t + 1, n)
             if any(dom.divmod_canonical(x, pivot)[1] for x in a[i][t + 1:])),
            None)
        if merge is not None:
            a[t] = [dom.from_int(x + y) for x, y in zip(a[t], a[merge])]
            continue
        diagonal.append(pivot)
        t += 1
    return diagonal


def fitting_images(rows, point) -> list:
    """Images of F_1, ..., F_n of an n x n matrix (rows of ring elements)
    under the evaluation at point (variable name -> integer): the running
    products of the Smith form's diagonal entries, each read as its abs
    over Z and as 1 over a field, then 0 past the rank.  Over Z that is the
    gcd of the k-minors; over a field 1 while k is at most the rank.
    """
    ring = rows[0][0].ring
    mapping = dict(zip(map(ring.var_index, point), point.values()))
    grid = [[_substitute_full(e, mapping) for e in row] for row in rows]
    dom = ring.coeffs
    images = list(accumulate((1 if dom.is_field else abs(d)
                              for d in _smith_diagonal(grid, dom)), mul))
    return images + [0] * (len(grid) - len(images))
