"""Best-effort factorization into primes, with an explicit completeness flag.

Methods, all exact and desk-scale:
  * integers: trial division, Miller-Rabin certifies the final cofactor;
  * univariate over Z or Q: rational-root pass, then Kronecker's
    interpolation method (complete whenever the budgets hold out);
  * univariate over F_p: exhaustive search over low-degree monic divisors;
  * multivariate: Kronecker substitution x_i -> t^(D^i) to the univariate
    case, then subset lifting of the univariate factors.  One lift serves
    Z, Q and F_p; the domain picks the univariate factorer, whether lifted
    images are reduced mod p and whether a cofactor gets its own weights.

A result with complete=False means some returned factor is not certified
prime; downstream refutation logic must then refuse to conclude anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm as int_lcm

from .errors import InternalInvariantError, UsageError
from .rings import (IntegerCoeffs, PrimeFieldCoeffs, RationalCoeffs,
                    RingElement, exact_divide, is_prime)

# enumeration budgets; exceeding one flips complete to False, never hangs
TRIAL_DIVISION_LIMIT = 1_000_000
DIVISOR_COMBO_LIMIT = 400_000
SUBSET_LIMIT = 4096
FP_CANDIDATE_LIMIT = 200_000
DEGREE_LIMIT = 64


@dataclass
class FactorResult:
    unit: RingElement
    factors: list          # [(RingElement, multiplicity)], canonical order
    complete: bool

    def expand(self) -> RingElement:
        out = self.unit
        for p, m in self.factors:
            out = out * p ** m
        return out

    def to_json(self) -> dict:
        return {"unit": str(self.unit),
                "factors": [[str(p), m] for p, m in self.factors],
                "complete": self.complete}


class _Budget:
    def __init__(self):
        self.ok = True

    def spend(self, flag: bool):
        if not flag:
            self.ok = False
        return flag


# ---------------------------------------------------------------------------
# integers


def factor_int(n: int):
    """(sign, [(prime, mult)], complete) for a nonzero integer."""
    if n == 0:
        raise UsageError("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = []
    d = 2
    while d * d <= n and d <= TRIAL_DIVISION_LIMIT:
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            out.append((d, m))
        d += 1 if d == 2 else 2
    complete = True
    if n > 1:
        out.append((n, 1))
        complete = is_prime(n)
    return sign, out, complete


def _divisors(n: int):
    """All positive divisors of |n|, ascending; None if n too hard to factor."""
    _, fs, complete = factor_int(n)
    if not complete:
        return None
    divs = [1]
    for p, m in fs:
        divs = [d * p ** k for d in divs for k in range(m + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# dense univariate integer polynomials (coefficient lists, low degree first)


def _z_deg(c):
    return len(c) - 1


def _z_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _z_eval(c, a):
    acc = 0
    for coeff in reversed(c):
        acc = acc * a + coeff
    return acc


def _z_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _z_trim(out)


def _z_content(c):
    return gcd(*c) or 1


def _z_exact_div(a, b):
    """a / b for integer coefficient lists, or None when not exact over Z."""
    if not b:
        raise ZeroDivisionError
    a = list(a)
    q = [0] * (len(a) - len(b) + 1) if len(a) >= len(b) else []
    for i in range(len(a) - len(b), -1, -1):
        num = a[i + len(b) - 1]
        if num % b[-1] != 0:
            return None
        coef = num // b[-1]
        q[i] = coef
        if coef:
            for j, y in enumerate(b):
                a[i + j] -= coef * y
    return q if not any(a) else None


def _kronecker_univariate(c, budget: _Budget):
    """Factor a primitive integer polynomial (no rational roots removed yet).

    Returns a list of primitive factors with positive leading coefficient,
    irreducible unless the budget tripped (then budget.ok is False).
    """
    c = list(c)
    if c[-1] < 0:
        c = [-x for x in c]
    shift = 0
    while c and c[0] == 0:
        c = c[1:]
        shift += 1
    if shift:
        return [[0, 1]] * shift + _kronecker_univariate(c, budget)
    if _z_deg(c) <= 0:
        return []
    if _z_deg(c) == 1:
        return [c]
    if _z_deg(c) > DEGREE_LIMIT:
        budget.spend(False)
        return [c]

    # rational roots: (q*t - p) with p | c[0], q | c[-1]
    p_divs = _divisors(c[0]) if c[0] != 0 else None
    q_divs = _divisors(c[-1])
    if p_divs is None or q_divs is None:
        budget.spend(False)
        return [c]
    for q in q_divs:
        for p in p_divs:
            if gcd(p, q) != 1:
                continue
            for sp in (p, -p):
                if _z_eval(c, Fraction(sp, q)) == 0:
                    lin = [-sp, q]
                    rest = _z_exact_div(c, lin)
                    if rest is None:
                        raise InternalInvariantError("root does not divide")
                    return [lin] + _kronecker_univariate(rest, budget)

    deg = _z_deg(c)
    half = deg // 2

    # candidate evaluation points, cheapest divisor lists first
    scored = []
    for a in range(-(half + 6), half + 7):
        v = _z_eval(c, a)
        if v == 0:
            continue
        divs = _divisors(v)
        if divs is None:
            continue
        signed = sorted([d for d in divs] + [-d for d in divs], key=abs)
        scored.append((len(signed), abs(a), a, v, signed))
    scored.sort()

    for target in range(2, half + 1):
        if len(scored) < target + 1:
            budget.spend(False)
            continue
        chosen = scored[:target + 1]
        total = 1
        for entry in chosen:
            total *= entry[0]
        if total > DIVISOR_COMBO_LIMIT:
            budget.spend(False)
            continue
        xs = [entry[2] for entry in chosen]
        div_lists = [entry[4] for entry in chosen]
        found = _combo_search(c, xs, div_lists, target)
        if found is not None:
            g, rest = found
            return (_kronecker_univariate(g, budget)
                    + _kronecker_univariate(rest, budget))
    # every candidate degree was exhausted (or budget-flagged); if the budget
    # held, c is certified irreducible
    return [c]


def _lagrange_basis(xs):
    """Coefficient lists (ascending, Fractions) of the Lagrange basis on xs."""
    basis = []
    for i, xi in enumerate(xs):
        li = [Fraction(1)]
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            li = [Fraction(0)] + li
            for k in range(len(li) - 1):
                li[k] -= xj * li[k + 1]
            denom *= xi - xj
        basis.append([coef / denom for coef in li])
    return basis


def _combo_search(c, xs, div_lists, target):
    from itertools import product as iproduct
    basis = _lagrange_basis(xs)
    # the lead of a combination is sum(d * l) over the Lagrange leads l;
    # scaled by the lcm of their denominators, it is tested in integers
    scale = int_lcm(*(b[-1].denominator for b in basis))
    leads = [int(b[-1] * scale) for b in basis]
    lc = c[-1]
    for combo in iproduct(*div_lists):
        num = sum(d * l for d, l in zip(combo, leads))
        if num == 0 or num % scale:
            continue
        if lc % (num // scale) != 0:
            continue
        g = [Fraction(0)] * (target + 1)
        for d, b in zip(combo, basis):
            for k, coef in enumerate(b):
                g[k] += d * coef
        if any(coef.denominator != 1 for coef in g):
            continue
        g = [int(coef) for coef in g]
        if g[-1] < 0:
            g = [-x for x in g]
        cont = _z_content(g)
        if cont != 1:
            g = [x // cont for x in g]
        if _z_deg(g) < 1:
            continue
        rest = _z_exact_div(c, g)
        if rest is not None:
            return g, rest
    return None


# ---------------------------------------------------------------------------
# F_p univariate (dense lists over GF(p))


def _fp_exact_div(a, b, p):
    a = list(a)
    if len(a) < len(b):
        return None
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] * inv % p
        q[i] = coef
        if coef:
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - coef * y) % p
    return q if not any(x % p for x in a) else None


def _fp_factor(c, p, budget: _Budget):
    """Monic factors of a monic list over F_p by exhaustive divisor search."""
    c = [x % p for x in c]
    deg = _z_deg(c)
    if deg <= 1:
        return [c] if deg == 1 else []
    for d in range(1, deg // 2 + 1):
        if p ** d > FP_CANDIDATE_LIMIT:
            budget.spend(False)
            return [c]
        for idx in range(p ** d):
            cand = []
            k = idx
            for _ in range(d):
                cand.append(k % p)
                k //= p
            cand.append(1)
            rest = _fp_exact_div(c, cand, p)
            if rest is not None:
                return _fp_factor(cand, p, budget) + _fp_factor(rest, p, budget)
    return [c]


# ---------------------------------------------------------------------------
# the ring-element front end


def _monomial_part(a: RingElement):
    ring = a.ring
    n = ring.nvars
    mins = [min(e[i] for e in a._terms) for i in range(n)] if n else []
    if not any(mins):
        return [], a
    shift = tuple(-m for m in mins)
    stripped = RingElement(ring, {tuple(e[i] + shift[i] for i in range(n)): c
                                  for e, c in a._terms.items()})
    monos = [(ring.var(ring.variables[i]), m) for i, m in enumerate(mins) if m]
    return monos, stripped


def _kronecker_image(a: RingElement, weights):
    deg = 0
    out = {}
    for e, coeff in a._terms.items():
        t = sum(w * k for w, k in zip(weights, e))
        out[t] = int(coeff)
        deg = max(deg, t)
    c = [0] * (deg + 1)
    for t, x in out.items():
        c[t] = x
    return c


def _kronecker_preimage(ring, c, weights, base):
    """Undo _kronecker_image: base-`base` digits of each exponent, lowest
    first, go to the variables of nonzero weight in increasing weight."""
    order = [i for w, i in sorted((w, i) for i, w in enumerate(weights) if w)]
    terms = {}
    for t, coeff in enumerate(c):
        if coeff == 0:
            continue
        exp = [0] * ring.nvars
        rem = t
        for i in order:
            exp[i] = rem % base
            rem //= base
        if rem:
            return None
        terms[tuple(exp)] = ring.coeffs.from_int(coeff)
    return RingElement(ring, terms)


def _kronecker_weights(a: RingElement):
    """(weights, base) of the substitution x_i -> t^weights[i]: base exceeds
    every degree of a, and the variables a uses get base^0, base^1, ..."""
    used = sorted(a.variables_used())
    base = max(a.degree_in(v) for v in used) + 1
    weights = [0] * a.ring.nvars
    w = 1
    for v in used:
        weights[v] = w
        w *= base
    return weights, base


def _kronecker_factor(a: RingElement, weights, base, budget: _Budget):
    """Factor a non-constant a with no monomial part and unit content, over
    Z, Q or F_p, through the substitution given by weights and base.

    The image is factored by _fp_factor over F_p and by
    _kronecker_univariate otherwise.  Each cofactor found is factored again,
    over F_p with the same weights and over Z and Q with its own.
    """
    ring = a.ring
    dom = ring.coeffs
    fp = isinstance(dom, PrimeFieldCoeffs)
    work = a
    if isinstance(dom, RationalCoeffs):
        denom = int_lcm(*(coeff.denominator for coeff in a._terms.values()))
        ints = a.scale(dom.from_int(denom))._terms
        cont = _z_content(list(ints.values()))
        work = RingElement(ring, {e: dom.from_int(c // cont) for e, c in ints.items()})

    image = _kronecker_image(work, weights)
    univ = (_fp_factor(image, dom.p, budget) if fp
            else _kronecker_univariate(image, budget))
    if len(univ) == 1:
        # irreducible image => irreducible polynomial (when budget held)
        return [a.canonical_associate()[1]]

    # subset lifting: an irreducible factor of `work` maps to a product of a
    # sub-multiset of the image factors
    for g_img in _submultiset_products(univ, budget):
        if fp:
            # an unreduced coefficient can overflow the preimage's digits
            g_img = [c % dom.p for c in g_img]
        cand = _kronecker_preimage(ring, g_img, weights, base)
        if cand is None or cand.is_constant():
            continue
        cand = cand.canonical_associate()[1]
        rest = exact_divide(work, cand)
        if rest is not None and not rest.is_unit():
            rest = rest.canonical_associate()[1]
            if not fp:
                weights, base = _kronecker_weights(rest)
            return [cand] + _kronecker_factor(rest, weights, base, budget)
    return [a.canonical_associate()[1]]


def _submultiset_products(univ, budget: _Budget):
    """Products of proper nonempty sub-multisets of factors, small degree first."""
    groups = {}
    for f in univ:
        groups[tuple(f)] = groups.get(tuple(f), 0) + 1
    items = sorted(groups.items())
    combos = 1
    for _, m in items:
        combos *= m + 1
    if combos > SUBSET_LIMIT:
        budget.spend(False)
        return
    from itertools import product as iproduct
    vectors = [vec for vec in iproduct(*(range(m + 1) for _, m in items))
               if any(vec) and vec != tuple(m for _, m in items)]
    vectors.sort(key=lambda vec: (
        sum(k * (len(items[i][0]) - 1) for i, k in enumerate(vec)), vec))
    for vec in vectors:
        g = [1]
        for (fc, _), k in zip(items, vec):
            for _ in range(k):
                g = _z_mul(g, list(fc))
        yield g


def factor(a: RingElement) -> FactorResult:
    """Factor a nonzero non-unit into canonical primes, times a unit.

    The output always re-multiplies to the input; complete=False marks a
    result whose factors are not all certified prime.
    """
    if a.is_zero():
        raise UsageError("cannot factor 0")
    if a.is_unit():
        raise UsageError("cannot factor a unit")
    ring = a.ring
    dom = ring.coeffs
    budget = _Budget()
    factors = []

    if ring.nvars == 0 or a.is_constant():
        sign, fs, complete = factor_int(int(a.constant_coeff()))
        budget.spend(complete)
        factors = [(ring.from_int(p), m) for p, m in fs]
        unit = ring.from_int(sign)
        result = FactorResult(unit, _sort_factors(factors), budget.ok)
        _verify(result, a)
        return result

    monos, rest = _monomial_part(a)
    factors.extend(monos)
    unit = ring.one()

    if isinstance(dom, IntegerCoeffs):
        cont = gcd(*rest._terms.values())
        if rest.leading_coeff() < 0:
            unit = ring.from_int(-1)
            rest = -rest
        if cont > 1:
            sign, fs, complete = factor_int(cont)
            budget.spend(complete)
            factors.extend((ring.from_int(p), m) for p, m in fs)
            rest = RingElement(ring, {e: c // cont for e, c in rest._terms.items()})
    else:
        u, rest = rest.canonical_associate()
        unit = u

    if not rest.is_unit():
        weights, base = _kronecker_weights(rest)
        factors.extend((p, 1) for p in _kronecker_factor(rest, weights, base,
                                                         budget))

    merged = {}
    for p, m in factors:
        merged[p] = merged.get(p, 0) + m
    result = FactorResult(unit, _sort_factors(merged.items()), budget.ok)
    _verify(result, a)
    return result


def _sort_factors(items):
    return sorted(items, key=lambda t: t[0].sort_key())


def _verify(result: FactorResult, original: RingElement):
    prod = result.expand()
    if prod != original:
        q = exact_divide(original, prod)
        if q is None or not q.is_unit():
            raise InternalInvariantError("factorization does not re-multiply")
        # fold the residual unit in
        result.unit = result.unit * q
        if result.expand() != original:
            raise InternalInvariantError("factorization does not re-multiply")
