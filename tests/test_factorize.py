import random

import pytest

from diagcert.errors import UsageError
from diagcert.factorize import factor


def as_strs(result):
    return sorted((str(p), m) for p, m in result.factors)


def test_integer_fixtures(zz):
    r = factor(zz.from_int(6))
    assert as_strs(r) == [("2", 1), ("3", 1)] and r.complete
    r = factor(zz.from_int(-12))
    assert as_strs(r) == [("2", 2), ("3", 1)] and str(r.unit) == "-1"


def test_prime_power_fixture(qxy):
    r = factor(qxy.parse("x^2"))
    assert as_strs(r) == [("x", 2)] and r.complete


def test_univariate_rational_fixture(qx):
    r = factor(qx.parse("x^2 - 1"))
    assert as_strs(r) == sorted([("x - 1", 1), ("x + 1", 1)]) and r.complete


def test_irreducible_certified(qx):
    r = factor(qx.parse("x^2 + 1"))
    assert as_strs(r) == [("x^2 + 1", 1)] and r.complete


def test_integer_poly_content_and_primitive(zx):
    r = factor(zx.parse("6*x^2 + 13*x + 6"))
    assert as_strs(r) == [("2*x + 3", 1), ("3*x + 2", 1)] and r.complete
    r = factor(zx.parse("-4*x + 4"))
    assert as_strs(r) == [("2", 2), ("x - 1", 1)] and str(r.unit) == "-1"


def test_multivariate_lift(qxy):
    r = factor(qxy.parse("(x + y) * (x - 1) * (x - 1)"))
    assert as_strs(r) == sorted([("x + y", 1), ("x - 1", 2)]) and r.complete


def test_zero_and_unit_rejected(zz, qx, f5x):
    with pytest.raises(UsageError):
        factor(zz.zero())
    with pytest.raises(UsageError):
        factor(zz.from_int(1))
    # over a field every nonzero constant is a unit
    for unit in (qx.parse("3"), f5x.parse("3")):
        with pytest.raises(UsageError, match="cannot factor a unit"):
            factor(unit)


def test_remultiplication_random(qxy, zx):
    rng = random.Random(11)
    pool = ["x", "y", "x+1", "y-1", "x+y"]
    for _ in range(40):
        e = qxy.one()
        for _ in range(rng.randint(1, 4)):
            e = e * qxy.parse(rng.choice(pool))
        r = factor(e)
        assert r.expand() == e
        assert r.complete
    for _ in range(20):
        e = zx.parse(str(rng.randint(2, 40)))
        for _ in range(rng.randint(0, 2)):
            e = e * zx.parse(f"{rng.randint(1, 3)}*x + {rng.randint(-3, 3)}")
        if e.is_unit():
            continue
        r = factor(e)
        assert r.expand() == e


def test_primes_are_stable(qxy, zx):
    # a reported prime does not split when factored again by the same method
    for ring, text in ((qxy, "(x + y) * (x - 1)"), (zx, "6*x^2 + 13*x + 6")):
        r = factor(ring.parse(text))
        assert r.complete
        for p, _ in r.factors:
            if p.is_constant() and ring.nvars:
                continue
            sub = factor(p)
            assert sub.complete
            assert len(sub.factors) == 1 and sub.factors[0][1] == 1


def test_incomplete_flag_on_hard_integers(zz):
    # a semiprime beyond the trial division budget is returned unfactored,
    # honestly flagged incomplete, and still re-multiplies
    p, q = 1000003, 1000033
    r = factor(zz.from_int(p * q))
    assert not r.complete
    assert r.expand() == zz.from_int(p * q)


def test_prime_field_factor(f5x):
    r = factor(f5x.parse("x^2 - 1"))
    assert as_strs(r) == [("x + 1", 1), ("x + 4", 1)] and r.complete
    r = factor(f5x.parse("x^2 + 2"))
    assert as_strs(r) == [("x^2 + 2", 1)] and r.complete


def test_factor_against_sympy(qx):
    import sympy
    x = sympy.symbols("x")
    rng = random.Random(12)
    for _ in range(25):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(2, 5))]
        if all(c == 0 for c in coeffs[1:]):
            continue
        e = qx.zero()
        se = 0
        for k, c in enumerate(coeffs):
            e = e + qx.monomial((k,), qx.coeffs.from_int(c))
            se += c * x ** k
        if e.is_zero() or e.is_unit():
            continue
        r = factor(e)
        if not r.complete:
            continue
        mine = sum(m for p, m in r.factors if not p.is_constant())
        theirs = sum(m for f, m in sympy.factor_list(se)[1] if not f.is_number)
        assert mine == theirs, (str(e), as_strs(r))


BIVARIATE = {
    # coefficients -> the irreducibles that the benchmark's seed diagonals use
    "rationals": ("x", "y", "x + 1", "y - 1", "x + y"),
    "integers": ("2", "x", "y", "x + 1", "y - 1", "x + y"),
    5: ("x", "y", "x + 1", "y + 2", "x + y"),
}


def bivariate(coeffs):
    from diagcert.rings import RingDescriptor
    return RingDescriptor.polynomial(coeffs, ["x", "y"], "grevlex")


@pytest.mark.parametrize("coeffs", list(BIVARIATE))
def test_factor_without_the_first_variable(coeffs):
    # the Kronecker lift must decode exponents into y, not into x
    ring = bivariate(coeffs)
    r = factor(ring.parse("y^2 - 2*y + 1"))
    assert r.factors == [(ring.parse("y - 1"), 2)] and r.complete
    r = factor(ring.parse("y^2 - 1"))
    assert as_strs(r) == sorted([(str(ring.parse("y - 1")), 1),
                                 (str(ring.parse("y + 1")), 1)])
    assert r.complete


def test_factor_mixed_product_complete(qxy):
    r = factor(qxy.parse("x*y*(y - 1)^2*(x + 1)"))
    assert as_strs(r) == sorted([("x", 1), ("y", 1), ("y - 1", 2),
                                 ("x + 1", 1)])
    assert r.complete


@pytest.mark.parametrize("coeffs", ["rationals", "integers"])
def test_bivariate_products_against_sympy(coeffs):
    import sympy
    from itertools import combinations_with_replacement
    ring = bivariate(coeffs)
    x, y = sympy.symbols("x y")
    names = BIVARIATE[coeffs]
    for size in (1, 2, 3):
        for combo in combinations_with_replacement(names, size):
            text = "*".join(f"({s})" for s in combo)
            e = ring.parse(text)
            if e.is_unit():
                continue
            r = factor(e)
            assert r.complete, text
            mine = {(str(p), m) for p, m in r.factors if not p.is_constant()}
            _, theirs = sympy.factor_list(sympy.sympify(text, {"x": x, "y": y}))
            theirs = {(str(ring.parse(str(f).replace("**", "^"))
                           .canonical_associate()[1]), m)
                      for f, m in theirs if not f.is_number}
            assert mine == theirs, text


def test_trial_42_scramble_keeps_a_candidate():
    # criterion 4, trial 42: a scrambled diagonal whose determinant has the
    # factor (y - 1)^2; a missed repeated factor refuted its true diagonal
    from diagcert.diagonalizer import _try_obstruction
    from diagcert.linalg import RingMatrix, determinant
    from diagcert.testkit import random_recipe, scramble
    ring = bivariate("rationals")
    irreducibles = [ring.parse(s) for s in ["x", "y", "x+1", "y-1", "x+y"]]
    trial = 42
    rng = random.Random(48607 + trial)
    n = rng.choice([2, 2, 3])
    entries = []
    for _ in range(n):
        e = rng.choice(irreducibles)
        if rng.random() < 0.5:
            e = e * rng.choice(irreducibles)
        entries.append(e)
    recipe = random_recipe(ring, n, rng.randint(1, 6), seed=90000 + trial)
    scrambled, _ = scramble(RingMatrix.diagonal(ring, entries), recipe)
    det = determinant(scrambled)
    assert (ring.parse("y - 1"), 2) in factor(det).factors
    assert _try_obstruction(scrambled, det) is None


def test_prime_field_cofactor_keeps_the_first_weights():
    # over F_p every cofactor is factored through the substitution chosen
    # for the whole polynomial; with each cofactor's own weights, as over Z
    # and Q, this input comes back incomplete
    ring = bivariate(101)
    r = factor(ring.parse("41*x^4*y^4 + 17*x^3*y^5 + 36*x^2*y^2 + 10*x*y^3"))
    assert r.complete
    assert as_strs(r) == sorted([("y", 2), ("x", 1), ("x + 62*y", 1),
                                 ("x^2*y^2 + 60", 1)])


# (coefficients, monomial order, top exponent per variable, sha256 of the
# joined factor(e).to_json() lines), the digests taken when F_p and Z/Q had
# separate Kronecker lifts
PINNED_FACTORIZATIONS = {
    "F2[x,y]": (2, "grevlex", 3,
                "35f9fca71bbbcbc27eb66b2b06e1f05e59d4baa456bed0bca1e7c8ea0588eec2"),
    "F5[x,y]": (5, "grevlex", 2,
                "96399bb300c0b2d94f4896372711e24504337fd1251afe3c5a0407bee25a996f"),
    "F7[x,y] lex": (7, "lex", 2,
                    "5c8bdc7dffd9d959a06fb520efb78aa2a567aa0a7a6b89a19befcf57854ab85f"),
    "Z[x,y]": ("integers", "grevlex", 1,
               "f20a71c7ef7f7b229c7fe020cbd02fc8a7861db7523802c2f2a1daafc81e2dfc"),
    "Q[x,y]": ("rationals", "grevlex", 2,
               "b756b215e286068b11987605bed4eef63663b7d653aadab968b5dc529a32d756"),
}


def _seeded_products(key, count=14):
    """`count` seeded products of one to three random polynomials with one
    to three terms, neither zero nor a unit."""
    from diagcert.rings import RingDescriptor
    coeffs, order, top, _ = PINNED_FACTORIZATIONS[key]
    ring = RingDescriptor.polynomial(coeffs, ["x", "y"], order)
    rng = random.Random(f"factor digest {key}")
    out = []
    while len(out) < count:
        prod = ring.one()
        for _ in range(rng.randint(1, 3)):
            f = ring.zero()
            for _ in range(rng.randint(1, 3)):
                exp = (rng.randint(0, top), rng.randint(0, top))
                den = rng.randint(1, 2) if coeffs == "rationals" else 1
                f = f + ring.monomial(
                    exp, ring.coeffs.from_fraction(rng.randint(-3, 3), den))
            prod = prod * f
        if not prod.is_zero() and not prod.is_unit():
            out.append(prod)
    return out


def test_pinned_factorization_bytes():
    import hashlib
    import json
    incomplete = 0
    for key, (_, _, _, digest) in PINNED_FACTORIZATIONS.items():
        results = [factor(e) for e in _seeded_products(key)]
        incomplete += sum(not r.complete for r in results)
        text = "\n".join(json.dumps(r.to_json(), sort_keys=True)
                         for r in results)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, key
    assert incomplete >= 1
