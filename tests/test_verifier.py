"""verifier.fitting_image over coefficient scalars against the version that
evaluated into ring elements and expanded the minors over those."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from diagcert.linalg import RingMatrix
from diagcert.rings import RingDescriptor
from diagcert.verifier import fitting_image

RINGS = {"Z[x]": ("integers", ["x"], "lex"),
         "Z[x,y]": ("integers", ["x", "y"], "grevlex"),
         "Q[x,y]": ("rationals", ["x", "y"], "grevlex"),
         "F5[x,y]": (5, ["x", "y"], "grevlex")}


def _reference_det(ring, a):
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = ring.zero()
    for j in range(n):
        if a[0][j].is_zero():
            continue
        minor = [[a[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = a[0][j] * _reference_det(ring, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _reference_fitting_image(matrix, point, k):
    ring = matrix.ring
    n = len(matrix.rows)
    if sorted(point or ()) != sorted(ring.variables) or not 0 < k <= n:
        return None
    a = []
    for row in matrix.rows:
        a.append([])
        for e in row:
            value = ring.zero()
            for exp, coeff in e.terms():
                for name, j in zip(ring.variables, exp):
                    coeff *= point[name] ** j
                value = value + ring.from_int(coeff)
            a[-1].append(value)
    image = 0
    for rows in combinations(range(n), k):
        for cols in combinations(range(n), k):
            minor = _reference_det(ring, [[a[i][j] for j in cols] for i in rows])
            image = gcd(image, int(not minor.is_zero()) if ring.coeffs.is_field
                        else minor.constant_coeff())
            if image == 1:
                return 1
    return image


def _entry(rng, ring):
    """Zero about a third of the time, else up to three terms of degree at
    most 2 with coefficients in [-4, 4] (halves too over Q)."""
    e = ring.zero()
    if rng.random() < 0.3:
        return e
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        c = rng.randint(-4, 4)
        if ring.coeffs.name == "rationals" and rng.random() < 0.5:
            c = Fraction(c, 2)
        e = e + ring.monomial(exp, ring.coeffs.from_fraction(
            Fraction(c).numerator, Fraction(c).denominator))
    return e


def _points(ring):
    """{0, 1, -1}^n and points with values of 5 and more, where F_5 wraps."""
    for combo in product((0, 1, -1), repeat=ring.nvars):
        yield dict(zip(ring.variables, combo))
    for combo in ((5, 7), (6, -10), (-5, 12)):
        yield dict(zip(ring.variables, combo))


@pytest.mark.parametrize("key", sorted(RINGS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fitting_image_matches_the_ring_element_version(key, n):
    ring = RingDescriptor.polynomial(*RINGS[key])
    rng = random.Random(f"fitting-image/{key}/{n}")
    for _ in range(2):
        m = RingMatrix(ring, [[_entry(rng, ring) for _ in range(n)]
                              for _ in range(n)])
        for point in _points(ring):
            for k in range(1, n + 1):
                want = _reference_fitting_image(m, point, k)
                assert want is not None
                assert fitting_image(m, point, k) == want, (m, point, k)


def test_fitting_image_is_none_off_its_domain():
    ring = RingDescriptor.polynomial(*RINGS["Z[x,y]"])
    m = RingMatrix.parse(ring, [["x", "y"], ["0", "x + 1"]])
    for point, k in (({"x": 1}, 1), ({}, 1), (None, 1),
                     ({"x": 1, "y": 0, "z": 2}, 1),
                     ({"x": 1, "y": 0}, 0), ({"x": 1, "y": 0}, 3)):
        assert _reference_fitting_image(m, point, k) is None
        assert fitting_image(m, point, k) is None
    assert fitting_image(m, {"x": 0, "y": 0}, 1) == 1
    assert fitting_image(m, {"x": 0, "y": 0}, 2) == 0


def test_fitting_image_reduces_each_minor_mod_p():
    # det [[1, 2], [3, 1]] is -5: nonzero over Z, zero over F_5
    ring = RingDescriptor.polynomial(*RINGS["F5[x,y]"])
    m = RingMatrix.parse(ring, [["x + 1", "2"], ["3", "y + 1"]])
    for point in ({"x": 0, "y": 0}, {"x": 5, "y": 10}):
        assert fitting_image(m, point, 2) == 0
        assert _reference_fitting_image(m, point, 2) == 0
    assert fitting_image(m, {"x": 1, "y": 0}, 2) == 1
