"""Exact arithmetic over the supported factorial domains.

Supported rings: the integers, and sparse multivariate polynomial rings with
integer, rational, or prime-field coefficients.  Every one of these is a
Noetherian UFD, which the rest of the package relies on.

Conventions:
  * elements are immutable, stored as sparse {exponent tuple: coefficient}
    maps with no zero coefficients; the zero element is the empty sum;
  * the canonical associate of a nonzero element has positive leading
    coefficient when the coefficient domain is Z, and leading coefficient 1
    when it is a field;
  * all coefficient arithmetic is arbitrary precision: an integer or a
    residue mod p is an int, and a rational is an int when it is integral
    and a Fraction (denominator > 1) otherwise, so equal values print and
    hash alike; there is no floating point anywhere in this package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, neg, sub

from .errors import InternalInvariantError, ParseError, UsageError

_NAME_RE = re.compile(r"[a-z][a-z0-9]*")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid far beyond any modulus we expect
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# coefficient domains


class _CoeffDomain:
    """Arithmetic for the coefficient domain of a polynomial ring.

    Each domain implements add(a, b), neg(a), mul(a, b), is_unit(a),
    invert_unit(a), exact_div(a, b) (a / b when b exactly divides a, else
    None), divmod_canonical(a, b) ((q, r) with a = q*b + r and r the
    canonical remainder), gcd_ext(a, b) ((g, s, t) with g = s*a + t*b, g the
    canonical gcd), canonical_unit(a) (the unit u with a = u * canonical(a),
    for a != 0), from_int(n) and from_fraction(num, den).
    """

    is_field = False
    name = "?"

    def zero(self):
        return 0

    def one(self):
        return 1

    def sort_key(self, a):
        return a


class IntegerCoeffs(_CoeffDomain):
    name = "integers"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a in (1, -1)

    def invert_unit(self, a):
        if a not in (1, -1):
            raise UsageError(f"{a} is not a unit in Z")
        return a

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        return q if r == 0 else None

    def divmod_canonical(self, a, b):
        # remainder in [0, |b|)
        q, r = divmod(a, abs(b))
        if b < 0:
            q = -q
        return q, r

    def gcd_ext(self, a, b):
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r != 0:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            old_r, old_s, old_t = -old_r, -old_s, -old_t
        return old_r, old_s, old_t

    def canonical_unit(self, a):
        return -1 if a < 0 else 1

    def from_int(self, n):
        return n

    def from_fraction(self, num, den):
        q, r = divmod(num, den)
        if r != 0:
            raise ParseError(f"{num}/{den} is not an integer coefficient")
        return q


def _rational(x):
    """A rational as an int when it is integral, else as a Fraction."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class _FieldCoeffs(_CoeffDomain):
    """A field of coefficients: every nonzero element is a unit."""

    is_field = True

    def divmod_canonical(self, a, b):
        return self.exact_div(a, b), 0

    def gcd_ext(self, a, b):
        if self.is_unit(a):
            return 1, self.invert_unit(a), 0
        if self.is_unit(b):
            return 1, 0, self.invert_unit(b)
        return 0, 0, 0


class RationalCoeffs(_FieldCoeffs):
    """Q: an integral value is an int, any other a Fraction.

    Every division goes through Fraction, so int / int never gives a float.
    """

    name = "rationals"

    def add(self, a, b):
        return _rational(a + b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return _rational(a * b)

    def is_unit(self, a):
        return a != 0

    def invert_unit(self, a):
        if a == 0:
            raise UsageError("0 is not a unit")
        return _rational(Fraction(1) / a)

    def exact_div(self, a, b):
        return _rational(Fraction(a, b))

    def canonical_unit(self, a):
        return a

    def from_int(self, n):
        return _rational(n)

    def from_fraction(self, num, den):
        return _rational(Fraction(num, den))


class PrimeFieldCoeffs(_FieldCoeffs):
    def __init__(self, p: int):
        if not is_prime(p):
            raise UsageError(f"prime field modulus {p} is not prime")
        self.p = p
        self.name = f"gf({p})"

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def invert_unit(self, a):
        if a % self.p == 0:
            raise UsageError("0 is not a unit")
        return pow(a, -1, self.p)

    def exact_div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def canonical_unit(self, a):
        return a % self.p

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, num, den):
        if den % self.p == 0:
            raise ParseError(f"denominator {den} is 0 mod {self.p}")
        return num * pow(den, -1, self.p) % self.p


# ---------------------------------------------------------------------------
# ring descriptors


class RingDescriptor:
    """Which ring we are working in: Z, or D[x1..xn] with a monomial order."""

    __slots__ = ("kind", "coeffs", "variables", "order", "_key")

    def __init__(self, kind, coeffs, variables, order):
        if kind not in ("integers", "polynomial"):
            raise UsageError(f"unknown ring kind {kind!r}")
        if order not in ("lex", "grevlex"):
            raise UsageError(f"unknown monomial order {order!r}")
        seen = set()
        for name in variables:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise UsageError(f"bad variable name {name!r}")
            if name in seen:
                raise UsageError(f"duplicate variable name {name!r}")
            seen.add(name)
        if kind == "integers" and variables:
            raise UsageError("the integer ring has no variables")
        self.kind = kind
        self.coeffs = coeffs
        self.variables = tuple(variables)
        self.order = order
        self._key = (kind, coeffs.name, self.variables, order)

    # constructors ---------------------------------------------------------
    @staticmethod
    def integers() -> "RingDescriptor":
        return RingDescriptor("integers", IntegerCoeffs(), (), "lex")

    @staticmethod
    def polynomial(coeffs, variables, order="grevlex") -> "RingDescriptor":
        if isinstance(coeffs, str):
            if coeffs == "integers":
                coeffs = IntegerCoeffs()
            elif coeffs == "rationals":
                coeffs = RationalCoeffs()
            else:
                raise UsageError(f"unknown coefficient domain {coeffs!r}")
        elif isinstance(coeffs, int):
            coeffs = PrimeFieldCoeffs(coeffs)
        elif not isinstance(coeffs, _CoeffDomain):
            raise UsageError(f"unknown coefficient domain {coeffs!r}")
        return RingDescriptor("polynomial", coeffs, tuple(variables), order)

    # identity -------------------------------------------------------------
    def __eq__(self, other):
        return self is other or (isinstance(other, RingDescriptor)
                                 and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.kind == "integers":
            return "Z"
        base = {"integers": "Z", "rationals": "Q"}.get(
            self.coeffs.name, self.coeffs.name)
        return f"{base}[{','.join(self.variables)}]"

    # structure ------------------------------------------------------------
    @property
    def nvars(self) -> int:
        return len(self.variables)

    def is_euclidean(self) -> bool:
        """Z, Q[x] and F_p[x]: the rings with a working division algorithm."""
        if self.kind == "integers":
            return True
        return self.coeffs.is_field and self.nvars == 1

    def monomial_key(self, exp):
        """Sort key: larger key = larger monomial in this ring's order."""
        if self.order == "lex":
            return exp
        return (sum(exp),) + tuple(map(neg, reversed(exp)))

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UsageError(f"{name!r} is not a variable of {self!r}") from None

    # element constructors --------------------------------------------------
    def zero(self) -> "RingElement":
        return _element(self, {})

    def one(self) -> "RingElement":
        return _element(self, {(0,) * self.nvars: self.coeffs.one()})

    def from_int(self, n: int) -> "RingElement":
        c = self.coeffs.from_int(n)
        return RingElement(self, {(0,) * self.nvars: c})

    def from_coeff(self, c) -> "RingElement":
        return RingElement(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "RingElement":
        i = self.var_index(name)
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return RingElement(self, {exp: self.coeffs.one()})

    def monomial(self, exp, coeff=1) -> "RingElement":
        if len(exp) != self.nvars:
            raise UsageError("exponent vector has wrong length")
        c = coeff if not isinstance(coeff, int) else self.coeffs.from_int(coeff)
        return RingElement(self, {tuple(exp): c})

    def parse(self, text: str) -> "RingElement":
        return _parse_element(self, text)

    def to_json(self) -> dict:
        if self.kind == "integers":
            return {"kind": "integers"}
        if isinstance(self.coeffs, PrimeFieldCoeffs):
            coeffs = {"prime_field": self.coeffs.p}
        else:
            coeffs = self.coeffs.name
        return {"kind": "polynomial", "coefficients": coeffs,
                "variables": list(self.variables), "order": self.order}

    @staticmethod
    def from_json(data) -> "RingDescriptor":
        if not isinstance(data, dict):
            raise UsageError("ring descriptor must be an object")
        kind = data.get("kind")
        if kind == "integers":
            extra = set(data) - {"kind"}
            if extra:
                raise UsageError(f"unknown ring fields {sorted(extra)}")
            return RingDescriptor.integers()
        if kind != "polynomial":
            raise UsageError(f"unknown ring kind {kind!r}")
        extra = set(data) - {"kind", "coefficients", "variables", "order"}
        if extra:
            raise UsageError(f"unknown ring fields {sorted(extra)}")
        coeffs = data.get("coefficients")
        if isinstance(coeffs, dict):
            extra = set(coeffs) - {"prime_field"}
            if extra or "prime_field" not in coeffs:
                raise UsageError("bad coefficient domain object")
            coeffs = coeffs["prime_field"]
            if not isinstance(coeffs, int):
                raise UsageError("prime_field modulus must be an integer")
        variables = data.get("variables")
        if not isinstance(variables, list) or not variables:
            raise UsageError("polynomial ring needs a nonempty variable list")
        order = data.get("order", "grevlex")
        return RingDescriptor.polynomial(coeffs, variables, order)


ZZ = RingDescriptor.integers()


# ---------------------------------------------------------------------------
# elements


class RingElement:
    """A sparse, canonically normalized element of a RingDescriptor.

    Elements are immutable: the term map is written only by the constructors,
    so the sorted terms, the hash and the sort key are cached on first use.
    `RingElement(ring, terms)` copies `terms` without its zero coefficients;
    the arithmetic below, which never produces a zero coefficient, hands its
    freshly built map to `_element`, which keeps it as it is.
    """

    __slots__ = ("ring", "_terms", "_sorted", "_hash", "_sort_key")

    def __init__(self, ring: RingDescriptor, terms: dict):
        self.ring = ring
        self._terms = {e: c for e, c in terms.items() if c != 0}
        self._sorted = None
        self._hash = None
        self._sort_key = None

    # basic views -----------------------------------------------------------
    def terms(self):
        """Terms as (exponent, coefficient), descending in the ring order."""
        if self._sorted is None:
            key = self.ring.monomial_key
            self._sorted = sorted(self._terms.items(),
                                  key=lambda t: key(t[0]), reverse=True)
        return self._sorted

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {(0,) * self.ring.nvars}

    def constant_coeff(self):
        return self._terms.get((0,) * self.ring.nvars, self.ring.coeffs.zero())

    def leading_term(self):
        """(exponent, coefficient) of the largest monomial; element nonzero."""
        if not self._terms:
            raise UsageError("zero element has no leading term")
        return self.terms()[0]

    def leading_coeff(self):
        return self.leading_term()[1]

    def total_degree(self) -> int:
        """Total degree; -1 for the zero element."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def degree_in(self, var_index: int) -> int:
        if not self._terms:
            return -1
        return max(e[var_index] for e in self._terms)

    def variables_used(self):
        used = set()
        for e in self._terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    # arithmetic ------------------------------------------------------------
    def _check(self, other):
        if not isinstance(other, RingElement):
            raise UsageError(f"cannot combine RingElement with {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise UsageError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._check(other)
        dom = self.ring.coeffs
        out = dict(self._terms)
        for e, c in other._terms.items():
            if e in out:
                s = dom.add(out[e], c)
                if s == 0:
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return _element(self.ring, out)

    def __neg__(self):
        dom = self.ring.coeffs
        return _element(self.ring, {e: dom.neg(c) for e, c in self._terms.items()})

    def __sub__(self, other):
        self._check(other)
        dom = self.ring.coeffs
        out = dict(self._terms)
        for e, c in other._terms.items():
            c = dom.neg(c)
            if e in out:
                s = dom.add(out[e], c)
                if s == 0:
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return _element(self.ring, out)

    def __mul__(self, other):
        self._check(other)
        mul = self.ring.coeffs.mul
        a, b = self._terms, other._terms
        # Every coefficient domain is an integral domain, so a product of
        # nonzero terms never vanishes: a single-term operand only scales the
        # other's coefficients and shifts its exponents.
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            ((e2, c2),) = b.items()
            if any(e2):
                return _element(self.ring, {tuple(map(add, e1, e2)): mul(c1, c2)
                                            for e1, c1 in a.items()})
            return _element(self.ring, {e1: mul(c1, c2) for e1, c1 in a.items()})
        dom_add = self.ring.coeffs.add
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                prod = mul(c1, c2)
                if e in out:
                    s = dom_add(out[e], prod)
                    if s == 0:
                        del out[e]
                    else:
                        out[e] = s
                else:
                    out[e] = prod
        return _element(self.ring, out)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise UsageError("exponent must be a nonnegative integer")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one() if result is None else result

    def scale(self, coeff) -> "RingElement":
        dom = self.ring.coeffs
        return RingElement(self.ring,
                           {e: dom.mul(c, coeff) for e, c in self._terms.items()})

    # identity --------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return ((self.ring is other.ring or self.ring == other.ring)
                and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def sort_key(self):
        """Canonical total order on elements of one ring (for deterministic output)."""
        if self._sort_key is None:
            key = self.ring.monomial_key
            coeff_key = self.ring.coeffs.sort_key
            self._sort_key = (self.total_degree(), len(self._terms),
                              tuple((key(e), coeff_key(c)) for e, c in self.terms()))
        return self._sort_key

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"

    def __str__(self):
        return format_element(self)

    # units and associates ----------------------------------------------------
    def is_unit(self) -> bool:
        if len(self._terms) != 1:
            return False
        ((e, c),) = self._terms.items()
        return not any(e) and self.ring.coeffs.is_unit(c)

    def canonical_associate(self):
        """(unit, abar) with self = unit * abar and abar canonical.

        Canonical means positive leading coefficient over Z coefficients and
        leading coefficient 1 over field coefficients.  Zero maps to (1, 0).
        """
        if self.is_zero():
            return self.ring.one(), self
        dom = self.ring.coeffs
        u = dom.canonical_unit(self.leading_coeff())
        if u == 1:
            return self.ring.one(), self
        return self.ring.from_coeff(u), self.scale(dom.invert_unit(u))

    def invert_unit(self) -> "RingElement":
        if not self.is_unit():
            raise UsageError(f"{self} is not a unit")
        ((_, c),) = self._terms.items()
        return self.ring.from_coeff(self.ring.coeffs.invert_unit(c))


def _element(ring: RingDescriptor, terms: dict) -> RingElement:
    """The element with term map `terms`, which the caller has just built,
    holds no zero coefficient, and hands over: it is kept, not copied."""
    out = RingElement.__new__(RingElement)
    out.ring = ring
    out._terms = terms
    out._sorted = None
    out._hash = None
    out._sort_key = None
    return out


# ---------------------------------------------------------------------------
# ring-level operations


def _require_same_ring(a: RingElement, b: RingElement):
    if a.ring is not b.ring and a.ring != b.ring:
        raise UsageError(f"ring mismatch: {a.ring!r} vs {b.ring!r}")


def exact_divide(a: RingElement, b: RingElement):
    """Return q with a = b*q, or None when b does not divide a exactly.

    Division by zero raises.  The result is re-verified by multiplication.
    """
    _require_same_ring(a, b)
    if b.is_zero():
        raise ZeroDivisionError("exact_divide by zero")
    if a.is_zero():
        return a.ring.zero()
    dom = a.ring.coeffs
    key = a.ring.monomial_key
    eb, cb = b.leading_term()
    divisor = b._terms.items()
    rest = dict(a._terms)    # the remainder, updated in place
    quo = {}
    while rest:
        er = max(rest, key=key)
        diff = tuple(map(sub, er, eb))
        if min(diff, default=0) < 0:
            return None
        q = dom.exact_div(rest[er], cb)
        if q is None:
            return None
        quo[diff] = q
        for e, c in divisor:
            e = tuple(map(add, e, diff))
            s = dom.neg(dom.mul(c, q))
            if e in rest:
                s = dom.add(rest[e], s)
                if s == 0:
                    del rest[e]
                    continue
            rest[e] = s
    result = _element(a.ring, quo)
    if b * result != a:
        raise InternalInvariantError("exact_divide verification failed")
    return result


def divides(b: RingElement, a: RingElement) -> bool:
    return exact_divide(a, b) is not None


def _content_and_primitive(a: RingElement, v: int):
    """Content (gcd of v-coefficients) and primitive part of a w.r.t. variable v."""
    content = a.ring.zero()
    for _, cp in reversed(_univariate_parts(a, v)):
        content = gcd(content, cp) if not content.is_zero() else cp
        if content.is_unit():
            break
    _, content = content.canonical_associate()
    pp = exact_divide(a, content)
    if pp is None:
        raise InternalInvariantError("content does not divide its polynomial")
    return content, pp


def _univariate_parts(a: RingElement, v: int):
    """Coefficient list [(deg, coeff element)], descending, of a as poly in v."""
    by_deg = {}
    dom = a.ring.coeffs
    for e, c in a._terms.items():
        k = e[v]
        stripped = tuple(0 if i == v else x for i, x in enumerate(e))
        d = by_deg.setdefault(k, {})
        d[stripped] = dom.add(d.get(stripped, dom.zero()), c)
    out = [(k, RingElement(a.ring, t)) for k, t in by_deg.items()]
    out = [(k, p) for k, p in out if not p.is_zero()]
    out.sort(key=lambda t: -t[0])
    return out


def _lc_in(a: RingElement, v: int):
    parts = _univariate_parts(a, v)
    return parts[0][1]


def _var_power(ring: RingDescriptor, v: int, k: int) -> RingElement:
    exp = tuple(k if i == v else 0 for i in range(ring.nvars))
    return ring.monomial(exp, ring.coeffs.one())


def _pseudo_rem(a: RingElement, b: RingElement, v: int) -> RingElement:
    """prem(a, b) in v: lc(b)^(da-db+1) * a reduced modulo b."""
    db = b.degree_in(v)
    lb = _lc_in(b, v)
    r = a
    e = a.degree_in(v) - db + 1
    while not r.is_zero() and r.degree_in(v) >= db:
        lr = _lc_in(r, v)
        shift = _var_power(a.ring, v, r.degree_in(v) - db)
        r = lb * r - lr * shift * b
        e -= 1
    if e > 0:
        for _ in range(e):
            r = lb * r
    return r


def _exact_or_bug(a: RingElement, b: RingElement) -> RingElement:
    q = exact_divide(a, b)
    if q is None:
        raise InternalInvariantError("expected exact division in subresultant PRS")
    return q


def _subresultant_gcd(f: RingElement, g: RingElement, v: int) -> RingElement:
    """Gcd of v-primitive f, g via the subresultant PRS; result not yet primitive."""
    ring = f.ring
    if f.degree_in(v) < g.degree_in(v):
        f, g = g, f
    if g.is_zero():
        return f
    minus_one = ring.from_int(-1)
    delta = f.degree_in(v) - g.degree_in(v)
    beta = minus_one ** (delta + 1)
    psi = minus_one
    r_prev, r_cur = f, g
    while True:
        rem = _pseudo_rem(r_prev, r_cur, v)
        if rem.is_zero():
            return r_cur
        r_next = _exact_or_bug(rem, beta)
        # psi_{i+1} = (-lc(R_i))^delta_i / psi_i^(delta_i - 1), with
        # delta_i = deg R_{i-1} - deg R_i (Brown-Traub, J. ACM 18, 1971)
        neg_lc = -_lc_in(r_cur, v)
        if delta == 0:
            psi_next = psi
        elif delta == 1:
            psi_next = neg_lc
        else:
            psi_next = _exact_or_bug(neg_lc ** delta, psi ** (delta - 1))
        delta = r_cur.degree_in(v) - r_next.degree_in(v)
        beta = neg_lc * psi_next ** delta
        psi = psi_next
        r_prev, r_cur = r_cur, r_next


def gcd(a: RingElement, b: RingElement) -> RingElement:
    """Canonical greatest common divisor in a UFD.

    Multivariate inputs recurse on the smallest-index variable present, using
    content/primitive-part splitting and the subresultant PRS on that variable.
    """
    _require_same_ring(a, b)
    if a.is_zero() and b.is_zero():
        raise UsageError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b.canonical_associate()[1]
    if b.is_zero():
        return a.canonical_associate()[1]
    ring = a.ring
    dom = ring.coeffs
    used = a.variables_used() | b.variables_used()
    if not used:
        ca, cb = a.constant_coeff(), b.constant_coeff()
        if dom.is_field:
            return ring.one()
        g, _, _ = dom.gcd_ext(ca, cb)
        return ring.from_coeff(g)
    v = min(used)
    if a.degree_in(v) == 0:
        cb, _ = _content_and_primitive(b, v)
        return gcd(a, cb)
    if b.degree_in(v) == 0:
        ca, _ = _content_and_primitive(a, v)
        return gcd(ca, b)
    ca, pa = _content_and_primitive(a, v)
    cb, pb = _content_and_primitive(b, v)
    c = gcd(ca, cb)
    raw = _subresultant_gcd(pa, pb, v)
    _, praw = _content_and_primitive(raw, v)
    _, result = (c * praw).canonical_associate()
    if exact_divide(a, result) is None or exact_divide(b, result) is None:
        raise InternalInvariantError("gcd does not divide its inputs")
    return result


def lcm(a: RingElement, b: RingElement) -> RingElement:
    g = gcd(a, b)
    q = exact_divide(a, g)
    _, out = (q * b).canonical_associate()
    return out


# ---------------------------------------------------------------------------
# parsing and printing


_TOKEN_RE = re.compile(r"\s*(\d+|[a-z][a-z0-9]*|[-+*^()/])")


def _tokenize(text: str):
    text = text.replace("−", "-").replace("∗", "*")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ring: RingDescriptor, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0
        self.text = text

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok[0]

    def parse(self) -> RingElement:
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r}", self.pos())
        return value

    def expr(self) -> RingElement:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        value = self.term()
        if sign < 0:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RingElement:
        value = self.factor()
        while self.peek() == "*":
            self.next()
            value = value * self.factor()
        return value

    def factor(self) -> RingElement:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.peek()
            if tok is None or not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer", self.pos())
            self.next()
            base = base ** int(tok)
        return base

    def atom(self) -> RingElement:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        if tok == "(":
            self.next()
            value = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos())
            self.next()
            return value
        if tok == "-":
            self.next()
            return -self.atom()
        if tok.isdigit():
            self.next()
            num = int(tok)
            if self.peek() == "/":
                self.next()
                den_tok = self.peek()
                if den_tok is None or not den_tok.isdigit():
                    raise ParseError("expected integer denominator", self.pos())
                self.next()
                den = int(den_tok)
                if den == 0:
                    raise ParseError("zero denominator", self.pos())
                return self.ring.from_coeff(self.ring.coeffs.from_fraction(num, den))
            return self.ring.from_int(num)
        if _NAME_RE.fullmatch(tok):
            pos = self.pos()
            self.next()
            if tok not in self.ring.variables:
                raise ParseError(f"unknown variable {tok!r}", pos)
            return self.ring.var(tok)
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def _parse_element(ring: RingDescriptor, text: str) -> RingElement:
    if not isinstance(text, str):
        raise ParseError(f"polynomial must be a string, got {type(text).__name__}")
    if not text.strip():
        raise ParseError("empty polynomial string")
    return _Parser(ring, text).parse()


def _coeff_is_negative(dom, c):
    if isinstance(dom, PrimeFieldCoeffs):
        return False
    return c < 0


def format_element(a: RingElement) -> str:
    """Render an element in the grammar the parser accepts (round-trips)."""
    if a.is_zero():
        return "0"
    ring = a.ring
    dom = ring.coeffs
    pieces = []
    for idx, (exp, coeff) in enumerate(a.terms()):
        neg = _coeff_is_negative(dom, coeff)
        mag = dom.neg(coeff) if neg else coeff
        vars_part = "*".join(
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(ring.variables, exp) if k)
        if vars_part:
            body = vars_part if mag == dom.one() else f"{mag!s}*{vars_part}"
        else:
            body = str(mag)
        if idx == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f" - {body}" if neg else f" + {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# ideals


class IdealHandle:
    """A finitely generated ideal, compared via its reduced Groebner basis.

    The zero ideal is represented by the generator list [0].
    """

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring: RingDescriptor, generators):
        gens = [g for g in generators if not g.is_zero()]
        for g in gens:
            if g.ring != ring:
                raise UsageError("ideal generator from the wrong ring")
        if not gens:
            gens = [ring.zero()]
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = None

    @classmethod
    def from_reduced_basis(cls, ring: RingDescriptor, basis) -> "IdealHandle":
        """The ideal generated by `basis`, which must already be its reduced
        Groebner basis in canonical order; the basis is kept as computed."""
        ideal = cls(ring, basis)
        ideal._gb = () if ideal.is_zero_ideal() else ideal.generators
        return ideal

    def is_zero_ideal(self) -> bool:
        return all(g.is_zero() for g in self.generators)

    def groebner(self):
        """Reduced Groebner basis generators, cached; [] for the zero ideal."""
        if self._gb is None:
            if self.is_zero_ideal():
                self._gb = ()
            else:
                from . import groebner
                self._gb = tuple(groebner.ideal_groebner(self.ring, self.generators))
        return self._gb

    def contains(self, element: RingElement) -> bool:
        if element.ring != self.ring:
            raise UsageError("element from the wrong ring")
        if element.is_zero():
            return True
        if self.is_zero_ideal():
            return False
        from . import groebner
        return groebner.ideal_contains(self.ring, self.groebner(), element)

    def is_subset_of(self, other: "IdealHandle") -> bool:
        return all(other.contains(g) for g in self.groebner())

    def __eq__(self, other):
        if not isinstance(other, IdealHandle):
            return NotImplemented
        return self.ring == other.ring and self.groebner() == other.groebner()

    def __hash__(self):
        return hash((self.ring, self.groebner()))

    def is_unit_ideal(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_unit()

    def is_proper(self) -> bool:
        return not self.is_unit_ideal()

    def principal_generator(self):
        """Generator when the ideal is principal, else None.

        A nonzero ideal (g) has the reduced strong Groebner basis {g}: a
        basis element whose lead divides lt(g) is a unit multiple of g, and
        lt(g) divides every other lead.  So the ideal is principal iff its
        reduced basis has one element.
        """
        gb = self.groebner()
        if not gb:
            return self.ring.zero()
        return gb[0] if len(gb) == 1 else None

    def sort_key(self):
        return tuple(g.sort_key() for g in self.groebner())

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"({gens})"

    def to_json(self) -> dict:
        return {"generators": [str(g) for g in self.generators],
                "groebner": [str(g) for g in self.groebner()]}
