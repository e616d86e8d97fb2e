"""Independent certificate verification.

This module is the trust anchor for every Yes verdict and for the evaluated
Fitting ideals behind a No.  Evaluation, matrix products and determinants
are reimplemented here from scratch (cofactor expansion, no Bareiss, no
Workbench), so equivalence certificates and evaluation refutations rest on
ring arithmetic alone.  One cofactor expansion, _det, serves both: it
expands a certificate's determinants over ring elements, and the minors of
an evaluated matrix over its coefficient domain, whose entries are ints,
rationals or residues mod p.
check_ideal_mismatch is the exception: it compares ideals through the
Groebner engine (groebner.ideal_contains over IdealHandle.groebner()), so
Groebner refutations and isomorphism obstructions rest on that engine too
(ROADMAP.md, item 3, "No records that stand alone").  It imports nothing
from the package at import time.  The dependency runs the other way only:
linalg's n <= 3 self-check of its Bareiss determinant calls _det here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    reason: str = ""

    def __bool__(self):
        return self.valid


def _grid(matrix):
    return [list(r) for r in matrix.rows]


def _mul(ring, a, b):
    if len(a[0]) != len(b):
        return None
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = ring.zero()
            for k in range(len(b)):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _det(ring, a):
    """Cofactor expansion of a square grid: of ring elements when ring is a
    RingDescriptor, of coefficient scalars when it is their coefficient
    domain.  Over Z or Q a scalar grid gives its determinant; a residue grid
    gives an integer to reduce mod p."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    zero = acc = ring.zero()
    for j, x in enumerate(a[0]):
        if x != zero:
            term = x * _det(ring, [row[:j] + row[j + 1:] for row in a[1:]])
            acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _evaluate(element, values, dom):
    """The value of element in its coefficient domain dom at the point
    given by values, one integer per variable in the ring's order."""
    total = 0
    for exp, coeff in element.terms():
        for v, j in zip(values, exp):
            coeff *= v ** j
        total += coeff
    return dom.from_int(total)


def check_equivalence(left, source, right, target) -> CheckResult:
    """Valid iff det(left), det(right) are units and left*source*right == target."""
    ring = source.ring
    for mat, name in ((left, "left"), (right, "right"), (target, "target")):
        if mat.ring != ring:
            return CheckResult(False, f"{name} matrix is over a different ring")
    p, m, q, d = _grid(left), _grid(source), _grid(right), _grid(target)
    if len(p) != len(p[0]) or len(p[0]) != len(m):
        return CheckResult(False, "left transform has wrong shape")
    if len(q) != len(q[0]) or len(m[0]) != len(q):
        return CheckResult(False, "right transform has wrong shape")
    if len(d) != len(m) or len(d[0]) != len(q[0]):
        return CheckResult(False, "target has wrong shape")
    det_p = _det(ring, p)
    if not det_p.is_unit():
        return CheckResult(False, f"det(left) = {det_p} is not a unit")
    det_q = _det(ring, q)
    if not det_q.is_unit():
        return CheckResult(False, f"det(right) = {det_q} is not a unit")
    prod = _mul(ring, _mul(ring, p, m), q)
    for i in range(len(d)):
        for j in range(len(d[0])):
            if prod[i][j] != d[i][j]:
                return CheckResult(
                    False,
                    f"product entry ({i},{j}) is {prod[i][j]}, target has {d[i][j]}")
    return CheckResult(True)


def fitting_image(matrix, point, k):
    """The image of the k-th Fitting ideal of a square matrix under the
    evaluation at point (variable name -> integer): over Z coefficients the
    nonnegative gcd of the evaluated k-minors, over a field 1 if one of them
    is nonzero, else 0.  None if point misses a variable, gives one a value
    that is not an int, or k is no size.  When the evaluated matrix is
    diagonal only its principal minors are expanded: any other k x k
    submatrix of it has a zero row.
    """
    ring = matrix.ring
    n = len(matrix.rows)
    if sorted(point or ()) != sorted(ring.variables) or not 0 < k <= n:
        return None
    values = [point[name] for name in ring.variables]
    if not all(isinstance(v, int) for v in values):
        return None
    dom = ring.coeffs
    a = [[_evaluate(e, values, dom) for e in row] for row in matrix.rows]
    diagonal = all(x == 0 for i, row in enumerate(a)
                   for j, x in enumerate(row) if i != j)
    image = 0
    for rows in combinations(range(n), k):
        for cols in (rows,) if diagonal else combinations(range(n), k):
            minor = dom.from_int(_det(dom, [[a[i][j] for j in cols]
                                            for i in rows]))
            image = gcd(image, int(minor != 0) if dom.is_field else minor)
            if image == 1:
                return 1
    return image


def check_ideal_mismatch(lhs, rhs) -> CheckResult:
    """Valid iff the two ideals really differ: some generator of one has a
    nonzero normal form against the other."""
    from .groebner import ideal_contains
    ring = lhs.ring
    for g in lhs.groebner():
        if not ideal_contains(ring, rhs.groebner(), g):
            return CheckResult(True, f"{g} lies in the first ideal only")
    for g in rhs.groebner():
        if not ideal_contains(ring, lhs.groebner(), g):
            return CheckResult(True, f"{g} lies in the second ideal only")
    return CheckResult(False, "ideals are equal")
