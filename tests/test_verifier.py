"""verifier.fitting_image over coefficient scalars against the version that
evaluated into ring elements and expanded the minors over those; the
verifier's one cofactor expansion, over ring elements and over each
coefficient domain, against that version's; and specialization's Smith
form of an evaluated matrix against the verifier's Fitting images."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest

from diagcert import verifier
from diagcert.linalg import RingMatrix
from diagcert.rings import (IntegerCoeffs, PrimeFieldCoeffs, RationalCoeffs,
                            RingDescriptor)
from diagcert.specialization import fitting_images, points
from diagcert.verifier import _det, fitting_image

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


def test_fitting_image_expands_every_minor_unless_the_grid_is_diagonal(
        monkeypatch):
    # at x = 1 the diagonal grid has entries 2, 4, 6; one off-diagonal 4
    # leaves each gcd unchanged, and one off-diagonal 3 brings the first to 1
    ring = RingDescriptor.polynomial(*RINGS["Z[x]"])
    diagonal = [["2*x", "0", "0"], ["0", "4", "0"], ["0", "0", "6*x"]]
    expanded = []

    def counting_det(dom, a):
        expanded.append(len(a))
        return _det(dom, a)

    monkeypatch.setattr(verifier, "_det", counting_det)
    for entry, images in (("0", [2, 4, 48]), ("4", [2, 4, 48]),
                          ("3", [1, 2, 48])):
        m = RingMatrix.parse(ring, [diagonal[0][:1] + [entry, "0"]]
                             + diagonal[1:])
        for k, image in enumerate(images, start=1):
            expanded.clear()
            assert fitting_image(m, {"x": 1}, k) == image
            assert _reference_fitting_image(m, {"x": 1}, k) == image
            if entry == "0":
                assert expanded.count(k) == comb(3, k)
            elif image != 1:
                assert expanded.count(k) == comb(3, k) ** 2


def _with_zero_lines(rng, grid, zero):
    """The grid, and copies with a zero row, a zero column, and both."""
    n = len(grid)
    i, j = rng.randrange(n), rng.randrange(n)
    zero_row = [[zero if r == i else e for e in row]
                for r, row in enumerate(grid)]
    zero_col = [[zero if c == j else e for c, e in enumerate(row)]
                for row in grid]
    both = [[zero if c == j else e for c, e in enumerate(row)]
            for row in zero_row]
    return [grid, zero_row, zero_col, both]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_matches_the_reference_over_rings_and_scalars(n):
    rng = random.Random(f"det/{n}")
    for key in sorted(RINGS):
        ring = RingDescriptor.polynomial(*RINGS[key])
        grid = [[_entry(rng, ring) for _ in range(n)] for _ in range(n)]
        for g in _with_zero_lines(rng, grid, ring.zero()):
            assert _det(ring, g) == _reference_det(ring, g), (key, g)
    # each scalar grid against the reference over the constant polynomials
    domains = ((IntegerCoeffs(), lambda dom: rng.randint(-9, 9)),
               (RationalCoeffs(), lambda dom: dom.from_fraction(
                   rng.randint(-9, 9), rng.randint(1, 4))),
               (PrimeFieldCoeffs(5), lambda dom: dom.from_int(
                   rng.randint(-9, 9))))
    for dom, draw in domains:
        ring = RingDescriptor.polynomial(dom, ["x"])
        for _ in range(3):
            grid = [[draw(dom) for _ in range(n)] for _ in range(n)]
            for g in _with_zero_lines(rng, grid, dom.zero()):
                want = _reference_det(ring, [[ring.from_coeff(x) for x in row]
                                             for row in g])
                assert ring.from_coeff(dom.from_int(_det(dom, g))) == want, g


ELIMINATION_RINGS = {"Z": RingDescriptor.integers(),
                     "Z[x]": RingDescriptor.polynomial(*RINGS["Z[x]"]),
                     "Q[x,y]": RingDescriptor.polynomial(*RINGS["Q[x,y]"]),
                     "F5[x,y]": RingDescriptor.polynomial(*RINGS["F5[x,y]"]),
                     "F2[x]": RingDescriptor.polynomial(2, ["x"], "lex")}


@pytest.mark.parametrize("key", sorted(ELIMINATION_RINGS))
def test_fitting_images_match_the_verifier(key):
    # each seeded matrix also comes with its last row replaced by a
    # combination of the others (singular at every point), and with its
    # rows scaled by 2, 4, 4, ... (over Z, elementary divisors 2 and 4)
    ring = ELIMINATION_RINGS[key]
    rng = random.Random(f"fitting-images/{key}")
    two, four = ring.from_int(2), ring.from_int(4)
    images_seen = set()
    for n in (2, 3, 4):
        for _ in range(3):
            rows = [[_entry(rng, ring) for _ in range(n)] for _ in range(n)]
            singular = rows[:-1] + [[two * a - b
                                     for a, b in zip(rows[0], rows[-2])]]
            scaled = [[(two if i == 0 else four) * e for e in row]
                      for i, row in enumerate(rows)]
            for grid in (rows, singular, scaled):
                m = RingMatrix(ring, grid)
                for point in points(ring):
                    images = fitting_images(m.rows, point)
                    assert images == [fitting_image(m, point, k)
                                      for k in range(1, n + 1)], (m, point)
                    images_seen.update(images)
    assert 0 in images_seen
    if not ring.coeffs.is_field:
        assert {2, 4} <= images_seen
