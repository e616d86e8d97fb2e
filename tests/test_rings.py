import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diagcert.errors import ParseError, UsageError
from diagcert.rings import (RationalCoeffs, RingDescriptor, RingElement, ZZ,
                            exact_divide, gcd, lcm)


def rand_element(rng, ring, terms=3, degree=3, height=6):
    e = ring.zero()
    for _ in range(rng.randint(1, terms)):
        exp = tuple(rng.randint(0, degree) for _ in range(ring.nvars))
        e = e + ring.monomial(exp, ring.coeffs.from_int(rng.randint(-height, height)))
    return e


def test_product_fixture(zx):
    a = zx.parse("2*x + 3")
    b = zx.parse("3*x + 2")
    assert str(a * b) == "6*x^2 + 13*x + 6"


def test_difference_of_squares(qx):
    assert qx.parse("(x + 1) * (x - 1)") == qx.parse("x^2 - 1")


def test_additive_identity_random(qxy):
    rng = random.Random(1)
    for _ in range(50):
        a = rand_element(rng, qxy)
        assert a + qxy.zero() == a


def test_ring_laws_random():
    rng = random.Random(2)
    rings = [ZZ,
             RingDescriptor.polynomial("integers", ["x"], "lex"),
             RingDescriptor.polynomial("rationals", ["x", "y"], "grevlex"),
             RingDescriptor.polynomial(7, ["x", "y"], "lex")]
    for ring in rings:
        for _ in range(40):
            a = rand_element(rng, ring)
            b = rand_element(rng, ring)
            c = rand_element(rng, ring)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if not b.is_zero():
                assert exact_divide(a * b, b) == a


def test_descriptor_mismatch(zx, qx):
    with pytest.raises(UsageError):
        zx.parse("x") + qx.parse("x")


def test_exact_divide_fixture(zx):
    q = exact_divide(zx.parse("6*x^2 + 13*x + 6"), zx.parse("2*x + 3"))
    assert q == zx.parse("3*x + 2")


def test_exact_divide_unit_divisor(qxy):
    rng = random.Random(3)
    for _ in range(20):
        a = rand_element(rng, qxy)
        assert exact_divide(a, qxy.one()) == a


def test_exact_divide_not_divisible(qx):
    assert exact_divide(qx.parse("x^2 + 1"), qx.parse("x + 1")) is None


def test_exact_divide_by_zero(qx):
    with pytest.raises(ZeroDivisionError):
        exact_divide(qx.parse("x"), qx.zero())


def test_gcd_fixtures(zz, zx, qxy):
    assert gcd(zz.from_int(4), zz.from_int(6)) == zz.from_int(2)
    assert gcd(zx.parse("2*x + 2"), zx.parse("4*x + 4")) == zx.parse("2*x + 2")
    assert gcd(qxy.parse("x^2*y"), qxy.parse("x*y^2")) == qxy.parse("x*y")


def test_gcd_divides_and_unit_invariance(qxy, zx):
    rng = random.Random(4)
    for ring in (qxy, zx):
        for _ in range(25):
            a = rand_element(rng, ring, terms=2, degree=2, height=4)
            b = rand_element(rng, ring, terms=2, degree=2, height=4)
            if a.is_zero() and b.is_zero():
                continue
            g = gcd(a, b)
            assert exact_divide(a, g) is not None
            assert exact_divide(b, g) is not None
            unit = ring.from_int(-1)
            if not a.is_zero():
                g2 = gcd(a.scale(unit.leading_coeff()), b)
                assert g2 == g


def test_gcd_both_zero(qx):
    with pytest.raises(UsageError):
        gcd(qx.zero(), qx.zero())


def test_gcd_common_divisor_divides_gcd(qxy):
    # any common divisor divides the gcd of multiples
    rng = random.Random(5)
    for _ in range(15):
        d = rand_element(rng, qxy, terms=2, degree=2, height=3)
        if d.is_zero():
            continue
        a = d * rand_element(rng, qxy, terms=2, degree=1, height=3)
        b = d * rand_element(rng, qxy, terms=2, degree=1, height=3)
        if a.is_zero() and b.is_zero():
            continue
        assert exact_divide(gcd(a, b), gcd(d, d)) is not None


def test_gcd_against_sympy(qxy):
    import sympy
    from fractions import Fraction
    x, y = sympy.symbols("x y")
    rng = random.Random(6)
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for _ in range(40):
        def draw():
            e, se = qxy.zero(), 0
            for _ in range(rng.randint(1, 3)):
                c = rng.randint(-3, 3)
                i, j = rng.choice(monos)
                e = e + qxy.monomial((i, j), qxy.coeffs.from_int(c))
                se += c * x ** i * y ** j
            return e, se
        a, sa = draw()
        b, sb = draw()
        if a.is_zero() or b.is_zero():
            continue
        mine = gcd(a, b)
        theirs = sympy.gcd(sa, sb)
        poly = sympy.Poly(theirs, x, y, domain="QQ")
        terms = {tuple(exp): Fraction(c.p, c.q) for exp, c in poly.terms()}
        from diagcert.rings import RingElement
        expect = RingElement(qxy, terms).canonical_associate()[1]
        assert mine == expect, (str(a), str(b), str(mine), str(expect))


GCD_RINGS = (
    RingDescriptor.polynomial("integers", ["x"], "lex"),
    RingDescriptor.polynomial("integers", ["x", "y"], "grevlex"),
    RingDescriptor.polynomial("rationals", ["x", "y"], "grevlex"),
)


def _polynomial(rng, ring, degree, terms):
    """At most `terms` terms of degree at most `degree` in each variable,
    with nonzero coefficients in [-4, 4]; never zero."""
    return RingElement(ring, {
        tuple(rng.randint(0, degree) for _ in range(ring.nvars)):
            ring.coeffs.from_int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        for _ in range(terms)})


@st.composite
def gcd_problems(draw):
    """(c*a, c*b) of degree at most 5 in each variable: c of degree at most
    2, a and b of degree at most 3.  The terms come from a drawn Random,
    because hypothesis' own integer draws favour small repeated values,
    which give remainder sequences too short to go wrong."""
    ring = draw(st.sampled_from(GCD_RINGS))
    rng = draw(st.randoms(use_true_random=True))
    c = _polynomial(rng, ring, 2, 3)
    a, b = (_polynomial(rng, ring, 3, 4) for _ in "ab")
    return c * a, c * b


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gcd_problems())
def test_gcd_with_a_common_factor_against_sympy(problem):
    # long remainder sequences: the subresultant PRS must divide exactly
    import sympy
    a, b = problem
    ring = a.ring
    symbols = sympy.symbols(ring.variables)
    domain = "ZZ" if ring.coeffs.name == "integers" else "QQ"

    def to_sympy(e):
        return sympy.Poly(str(e).replace("^", "**"), *symbols, domain=domain)

    theirs = sympy.gcd(to_sympy(a), to_sympy(b))
    expect = RingElement(ring, {tuple(exp): ring.coeffs.from_fraction(c.p, c.q)
                                for exp, c in theirs.terms()})
    assert gcd(a, b) == expect.canonical_associate()[1]


PRINCIPAL_RINGS = GCD_RINGS + (
    RingDescriptor.polynomial(5, ["x", "y"], "grevlex"),)


def _principal_by_gcd(ideal):
    """Reference: in a UFD an ideal is principal iff the gcd of its reduced
    basis lies in it, checked by Groebner membership."""
    gb = ideal.groebner()
    if not gb:
        return ideal.ring.zero()
    if len(gb) == 1:
        return gb[0]
    g = gb[0]
    for h in gb[1:]:
        g = gcd(g, h)
    g = g.canonical_associate()[1]
    return g if ideal.contains(g) else None


@st.composite
def ideals(draw):
    """(c*a_1, ..., c*a_k), k <= 3, each a_i an integer, a variable or a
    small polynomial, so that both principal ideals with several
    generators, such as (2x, 3x) = (x) over Z[x], and non-principal ones,
    such as (x, y), occur."""
    from diagcert.rings import IdealHandle
    ring = draw(st.sampled_from(PRINCIPAL_RINGS))
    rng = draw(st.randoms(use_true_random=True))
    c = _polynomial(rng, ring, 1, 2)
    pool = [ring.from_int(k) for k in (1, 2, 3, -2)] + \
        [ring.parse(v) for v in ring.variables] + \
        [ring.parse(f"{v} + 1") for v in ring.variables]
    cofactors = [rng.choice(pool) if rng.random() < 0.6
                 else _polynomial(rng, ring, 1, 2)
                 for _ in range(rng.randint(1, 3))]
    return IdealHandle(ring, [c * a for a in cofactors])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(ideals())
def test_principal_generator_agrees_with_the_gcd_test(ideal):
    assert ideal.principal_generator() == _principal_by_gcd(ideal)


@pytest.mark.parametrize("ring_key, gens, expect", [
    ("Z[x]", ["2*x", "3*x"], "x"),
    ("Z[x]", ["x", "x + 1"], "1"),
    ("Z[x]", ["2", "x"], None),
    ("Q[x,y]", ["x*y", "x^2"], None),
    ("gf(5)[x,y]", ["x*y + y", "2*x + 2"], "x + 1"),
])
def test_principal_generator_of_several_generators(ring_key, gens, expect):
    from diagcert.rings import IdealHandle
    ring = {repr(r): r for r in PRINCIPAL_RINGS}[ring_key]
    ideal = IdealHandle(ring, [ring.parse(g) for g in gens])
    got = ideal.principal_generator()
    assert (None if got is None else str(got)) == expect
    assert got == _principal_by_gcd(ideal)


def test_lcm_fixture(zz):
    assert lcm(zz.from_int(4), zz.from_int(6)) == zz.from_int(12)


def test_units(zx, qx, qxy):
    assert zx.parse("-1").is_unit()
    assert not qx.parse("x").is_unit()
    assert qxy.parse("2").is_unit()
    assert not zx.parse("2").is_unit()


def test_canonical_associate(qx, zx):
    unit, monic = qx.parse("-3*x").canonical_associate()
    assert str(unit) == "-3" and str(monic) == "x"
    unit, canon = zx.parse("-2*x - 2").canonical_associate()
    assert str(unit) == "-1" and str(canon) == "2*x + 2"
    unit, z = qx.zero().canonical_associate()
    assert z.is_zero() and unit == qx.one()


def test_parse_print_roundtrip(qxy, zx, f5x, zz):
    rng = random.Random(7)
    for ring in (qxy, zx, f5x, zz):
        for _ in range(60):
            a = rand_element(rng, ring)
            assert ring.parse(str(a)) == a


def test_parse_rationals_and_errors(qx, zx):
    assert qx.parse("1/2*x + 3/4") == qx.parse("2/4*x + 6/8")
    assert zx.parse("4/2*x") == zx.parse("2*x")
    with pytest.raises(ParseError):
        zx.parse("1/2*x")
    with pytest.raises(ParseError):
        qx.parse("x +")
    with pytest.raises(ParseError):
        qx.parse("y")          # unknown variable
    with pytest.raises(ParseError):
        qx.parse("x ^ -2")
    with pytest.raises(ParseError):
        qx.parse("")


def test_parse_error_position(qx):
    try:
        qx.parse("x + z*2")
    except ParseError as exc:
        assert exc.position == 4
    else:
        raise AssertionError("expected a parse error")


def test_prime_field_arithmetic(f5x):
    assert f5x.parse("7*x + 3/2") == f5x.parse("2*x + 4")
    assert f5x.parse("x").scale(f5x.coeffs.from_int(5)).is_zero()


def test_prime_field_modulus_checked():
    with pytest.raises(UsageError):
        RingDescriptor.polynomial(6, ["x"], "lex")


def test_descriptor_validation():
    with pytest.raises(UsageError):
        RingDescriptor.polynomial("rationals", ["x", "x"], "lex")
    with pytest.raises(UsageError):
        RingDescriptor.polynomial("rationals", ["X"], "lex")
    with pytest.raises(UsageError):
        RingDescriptor.polynomial("rationals", ["x"], "weird")


def test_monomial_order_grevlex(qxy):
    x2y = qxy.parse("x^2*y")
    xy2 = qxy.parse("x*y^2")
    assert (x2y + xy2).leading_term() == x2y.leading_term()


def test_ideal_equality_and_membership(zx, qxy):
    from diagcert.rings import IdealHandle
    a = IdealHandle(zx, [zx.parse("2"), zx.parse("x")])
    b = IdealHandle(zx, [zx.parse("x"), zx.parse("2"), zx.parse("x + 2")])
    assert a == b
    assert not a.contains(zx.one())
    assert a.contains(zx.parse("2*x + 4"))
    xy = IdealHandle(qxy, [qxy.parse("x"), qxy.parse("y")])
    assert xy.principal_generator() is None
    x2 = IdealHandle(qxy, [qxy.parse("x^2"), qxy.parse("x^3")])
    assert str(x2.principal_generator()) == "x^2"


# -- rational coefficients: an integral value is an int ----------------------

RATIONAL_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)


def _assert_rational(value):
    """No float; an int when integral, else a Fraction with denominator > 1."""
    assert type(value) in (int, Fraction), type(value)
    if value.denominator == 1:
        assert type(value) is int
    else:
        assert value.denominator > 1


@st.composite
def rationals(draw):
    num = draw(st.integers(-30, 30))
    den = draw(st.sampled_from([1, 1, 2, 3, 4, 6, 9]))
    return RationalCoeffs().from_fraction(num, den)


@RATIONAL_SETTINGS
@given(rationals(), rationals(), st.integers(-50, 50))
def test_rational_coefficients_keep_one_representation(a, b, n):
    dom = RationalCoeffs()
    results = [dom.zero(), dom.one(), dom.from_int(n), dom.add(a, b),
               dom.neg(a), dom.mul(a, b), *dom.gcd_ext(a, b),
               *dom.gcd_ext(dom.zero(), b)]
    for x in (a, b):
        if x != 0:
            results += [dom.invert_unit(x), dom.exact_div(a, x),
                        *dom.divmod_canonical(a, x), dom.canonical_unit(x)]
    if n:
        results.append(dom.from_fraction(n, 6))
    for value in results:
        _assert_rational(value)
    assert dom.add(a, dom.neg(a)) == 0
    if a != 0:
        assert dom.mul(a, dom.invert_unit(a)) == 1


@RATIONAL_SETTINGS
@given(rationals(), rationals(), st.integers(-5, 5))
def test_rational_add_mul_and_inverse_are_fraction_arithmetic(a, b, n):
    # the verifier's ring arithmetic over Q rests on these three methods;
    # c = n - a makes a + c integral whatever the denominators
    dom = RationalCoeffs()
    rest = Fraction(n) - Fraction(a)
    c = dom.from_fraction(rest.numerator, rest.denominator)
    cases = [(dom.add(a, b), Fraction(a) + Fraction(b)),
             (dom.add(a, c), Fraction(n)),
             (dom.mul(a, b), Fraction(a) * Fraction(b)),
             (dom.mul(a, c), Fraction(a) * rest)]
    for x in (a, b, c):
        if x != 0:
            cases.append((dom.invert_unit(x), 1 / Fraction(x)))
    for got, want in cases:
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)


@RATIONAL_SETTINGS
@given(rationals(), rationals(), rationals())
def test_rational_polynomials_keep_one_representation(a, b, c):
    ring = RingDescriptor.polynomial("rationals", ["x", "y"], "grevlex")
    p = ring.monomial((1, 0), a) + ring.monomial((0, 1), b) + ring.from_coeff(c)
    q = ring.monomial((1, 1), b) + ring.from_coeff(a)
    values = [p + q, p - q, p * q, -p, p.scale(c)]
    values += list(p.canonical_associate()) + list(q.canonical_associate())
    if not q.is_zero():
        values.append(exact_divide(p * q, q))
    for value in values:
        for _, coeff in value.terms():
            _assert_rational(coeff)
        assert ring.parse(str(value)) == value


@pytest.mark.parametrize("text, shown", [("1/2*x + 3", "1/2*x + 3"),
                                         ("-x + 4/2", "-x + 2")])
def test_rational_parse_and_print_round_trip(qxy, text, shown):
    element = qxy.parse(text)
    assert str(element) == shown
    assert qxy.parse(shown) == element
    for _, coeff in element.terms():
        _assert_rational(coeff)


# ---------------------------------------------------------------------------
# the arithmetic kernel against the plain algorithms it replaces

KERNEL_RINGS = (ZZ,
                RingDescriptor.polynomial("integers", ["x"], "lex"),
                RingDescriptor.polynomial("integers", ["x", "y"], "grevlex"),
                RingDescriptor.polynomial("rationals", ["x", "y"], "grevlex"),
                RingDescriptor.polynomial(5, ["x", "y"], "lex"),
                RingDescriptor.polynomial(2, ["x"], "lex"))


def _ref_add(a, b):
    dom = a.ring.coeffs
    out = dict(a._terms)
    for e, c in b._terms.items():
        s = dom.add(out.get(e, dom.zero()), c)
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return RingElement(a.ring, out)


def _ref_neg(a):
    dom = a.ring.coeffs
    return RingElement(a.ring, {e: dom.neg(c) for e, c in a._terms.items()})


def _ref_mul(a, b):
    """The double loop with a zero filter."""
    dom = a.ring.coeffs
    out = {}
    for e1, c1 in a._terms.items():
        for e2, c2 in b._terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = dom.add(out.get(e, dom.zero()), dom.mul(c1, c2))
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return RingElement(a.ring, out)


def _ref_pow(a, k):
    result, base = a.ring.one(), a
    while k:
        if k & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base)
        k >>= 1
    return result


def _ref_exact_divide(a, b):
    """The division that builds a new remainder element at every step."""
    if a.is_zero():
        return a.ring.zero()
    dom = a.ring.coeffs
    eb, cb = b.leading_term()
    rest, quo = a, {}
    while not rest.is_zero():
        er, cr = rest.leading_term()
        diff = tuple(x - y for x, y in zip(er, eb))
        if any(d < 0 for d in diff):
            return None
        q = dom.exact_div(cr, cb)
        if q is None:
            return None
        quo[diff] = q
        shifted = RingElement(a.ring, {tuple(x + y for x, y in zip(e, diff)):
                                       dom.mul(c, q)
                                       for e, c in b._terms.items()})
        rest = _ref_add(rest, _ref_neg(shifted))
    return RingElement(a.ring, quo)


def _fresh_sort_key(a):
    key = a.ring.monomial_key
    terms = sorted(a._terms.items(), key=lambda t: key(t[0]), reverse=True)
    return (max((sum(e) for e in a._terms), default=-1), len(terms),
            tuple((key(e), a.ring.coeffs.sort_key(c)) for e, c in terms))


def _same(got, want):
    """Equal, with the same term map in the same insertion order."""
    assert got == want
    assert list(got._terms.items()) == list(want._terms.items())
    assert got.sort_key() == _fresh_sort_key(got)


@st.composite
def kernel_elements(draw, ring):
    """Zero, a constant, a single term or a sum of up to four terms."""
    coeff = st.integers(-6, 6)
    if ring.coeffs.name == "rationals":
        coeff = st.one_of(coeff, st.builds(lambda n, d: Fraction(n, d),
                                           st.integers(-6, 6),
                                           st.integers(1, 4)))
    exp = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    shape = draw(st.sampled_from(("constant", "term", "sum")))
    if shape == "constant":
        terms = [((0,) * ring.nvars, draw(coeff))]
    elif shape == "term":
        terms = [(draw(exp), draw(coeff))]
    else:
        terms = draw(st.lists(st.tuples(exp, coeff), max_size=4))
    out = ring.zero()
    for e, c in terms:
        c = c if type(c) is int else ring.coeffs.from_fraction(c.numerator,
                                                               c.denominator)
        out = _ref_add(out, ring.monomial(e, c))
    return out


@st.composite
def kernel_operands(draw):
    ring = draw(st.sampled_from(KERNEL_RINGS))
    return tuple(draw(kernel_elements(ring)) for _ in "abc")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kernel_operands(), st.integers(0, 3))
def test_arithmetic_matches_the_plain_algorithms(operands, k):
    a, b, c = operands
    _same(a + b, _ref_add(a, b))
    _same(a - b, _ref_add(a, _ref_neg(b)))
    _same(-a, _ref_neg(a))
    _same(a * b, _ref_mul(a, b))
    _same(b * a, _ref_mul(b, a))
    _same(a ** k, _ref_pow(a, k))
    if not b.is_zero():
        _same(exact_divide(a * b, b), _ref_exact_divide(_ref_mul(a, b), b))
        # a remainder that may leave the division inexact
        got = exact_divide(a * b + c, b)
        want = _ref_exact_divide(_ref_add(_ref_mul(a, b), c), b)
        assert (got is None) == (want is None)
        if got is not None:
            _same(got, want)


def test_cached_sort_key_is_the_fresh_one(qxy):
    a = qxy.parse("x*y - 1/2*x + 3")
    before = a.sort_key()
    product = a * a
    assert a.sort_key() is before == _fresh_sort_key(a)
    assert product.sort_key() == _fresh_sort_key(product)


def test_mixed_rings_and_types_still_raise(zx, qx):
    a, b = zx.parse("x + 1"), qx.parse("x + 1")
    for op in (lambda: a + b, lambda: a - b, lambda: a * b,
               lambda: exact_divide(a, b), lambda: a + 1, lambda: a - 1,
               lambda: a * 2):
        with pytest.raises(UsageError):
            op()


def test_equal_descriptors_that_are_different_objects_combine():
    r1 = RingDescriptor.polynomial("integers", ["x", "y"], "grevlex")
    r2 = RingDescriptor.polynomial("integers", ["x", "y"], "grevlex")
    assert r1 is not r2 and r1 == r2
    a, b = r1.parse("x + y"), r2.parse("x - y")
    assert a * b == r1.parse("x^2 - y^2") == r2.parse("x^2 - y^2")
    assert a + b == r2.parse("2*x")
    assert a - b == r1.parse("2*y")
    assert exact_divide(a * b, b) == a
