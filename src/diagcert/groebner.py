"""Groebner bases for submodules of free modules, with witnesses and syzygies.

Field coefficients (Q, F_p) use Buchberger's algorithm; integer coefficients
use strong Groebner bases: besides S-vectors the engine forms gcd-vectors
(Bezout combinations of two leading terms at the same monomial), and term
reduction divides coefficients with canonical remainders.  The ring Z itself
is the zero-variable case of the same machinery.

The module order is position-over-term: component 0 dominates, ties are
broken by the descriptor's monomial order.  Reduced bases are canonical, so
submodule and ideal equality are decided by comparing them.

Inside the engine a vector of R^rank is one sparse term map {key:
coefficient} over the raw coefficient domain (an int over Z, a residue mod
p, or a rational stored as an int when integral and as a Fraction
otherwise), with no zero coefficients.  Each term key is one int, packed
per ring (`_Layout`, after Monagan-Pearce's packed exponent vectors and
Singular's short exponent vectors): POS_LIMIT - position sits above the
monomial fields, so a larger key is a larger term under position-over-term.
The fields add under multiplication and compare in the monomial order:
grevlex packs the total degree, then the prefix sums x_1+...+x_k for
k = n-1 down to 1, then the plain exponents x_1..x_n; lex packs the plain
exponents.  Each field has a guard bit above its value bits.  So the lead
of a map is max(map), multiplying by x^d adds the packed d, and divisibility
is one masked subtraction on the plain fields.  A product whose field
overflows sets a guard bit and raises InternalInvariantError; it never
wraps.  Exponent tuples appear where term maps meet FreeVector and
RingElement, and inside only where a pair's lcm and the finite-length test
read a lead's plain fields back.

A reduction step updates its work map in place and touches only the terms
of the reducer, as in sparse polynomial division (Monagan-Pearce, CASC
2007), though the lead is found by one pass over the work map's keys
rather than kept in a heap.  One sequential reduction routine serves the
Buchberger loop, the tail reduction, and normal forms and membership over
Z; it builds the combination of basis elements only for the callers that
read it (the Buchberger loop, the tail reduction and membership).
FreeVector is the boundary type: SubmoduleHandle converts generators to
term maps on the way in, caches its reduced basis once as term maps, and
converts basis vectors back on the way out.

This module alone decides a vector up to a unit: `_canonicalize` scales a
term map by the inverse of the canonical unit of its position-over-term
lead coefficient, for basis vectors, Buchberger-Moller rows and the classes
`SubmoduleHandle.classes` yields to the filtration class tables, the
filtration pool and the isomorphism sweep.

Over a field, a normal form modulo a fixed basis is a linear map (the fact
FGLM rests on: Faugere-Gianni-Lazard-Mora, J. Symb. Comp. 16, 1993), so a
SubmoduleHandle also caches the reduction of each term it meets, and
normal forms, membership and finite-length colons add up the cached
reductions of a vector's terms instead of reducing it from scratch.  A
reduction that runs ticks the budget of the computation that asked for it;
a term served from the cache ticks nothing.

Every basis element carries its expression in terms of the input generators,
which is how membership witnesses are produced; each witness is recombined
from the input generators and compared before it is returned.  Membership,
and the re-checks of `preimage` and `colon`, run on term maps through that
one routine, `SubmoduleHandle._witness`.

Syzygies, subquotient presentations and colon ideals come from one
elimination basis (`preimage`): tracked vectors t_i get a unit coordinate
e_i placed after the module's own positions, so under position-over-term the
basis elements whose lead lies in those last positions have a zero module
part, and their tracking parts generate {c : sum c_i t_i in S}.  Every
returned c is re-checked by membership in S.

The exception is a colon (S : v) over a field where R^rank/S has finite
length: `colon` then finds the kernel of r -> r*v on that space by linear
algebra on normal forms (Buchberger-Moller), more cheaply.  A reduced basis
over a field is unique, so the generators are the same either way, and each
is re-checked by membership in S alike.
"""

from __future__ import annotations

import bisect
import heapq
from operator import mul

from .bounds import current_steps
from .errors import InternalInvariantError, StepBudgetExceeded, UsageError
from .rings import IdealHandle, RingDescriptor, RingElement


class FreeVector:
    """An element of R^rank, stored densely (ranks here are small).

    This is the boundary type of the module: callers pass and receive
    FreeVectors, while the Groebner engine works on term maps.
    """

    __slots__ = ("ring", "comps")

    def __init__(self, ring: RingDescriptor, comps):
        comps = tuple(comps)
        for c in comps:
            if not isinstance(c, RingElement) or c.ring != ring:
                raise UsageError("component from the wrong ring")
        self.ring = ring
        self.comps = comps

    @staticmethod
    def zero(ring, rank: int) -> "FreeVector":
        z = ring.zero()
        return FreeVector(ring, (z,) * rank)

    @staticmethod
    def basis(ring, rank: int, i: int) -> "FreeVector":
        comps = [ring.zero()] * rank
        comps[i] = ring.one()
        return FreeVector(ring, comps)

    @property
    def rank(self) -> int:
        return len(self.comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __add__(self, other):
        return FreeVector(self.ring, (a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return FreeVector(self.ring, (a - b for a, b in zip(self.comps, other.comps)))

    def scale(self, element: RingElement) -> "FreeVector":
        return FreeVector(self.ring, (element * c for c in self.comps))

    def __eq__(self, other):
        if not isinstance(other, FreeVector):
            return NotImplemented
        return self.ring == other.ring and self.comps == other.comps

    def __hash__(self):
        return hash((self.ring, self.comps))

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"


# ---------------------------------------------------------------------------
# term maps

_FIELD_BITS = 32            # per key field: 31 value bits, then a guard bit
_GUARD = 1 << (_FIELD_BITS - 1)
_POS_LIMIT = 1 << 31        # far above any rank built here
_OVERFLOW = "exponent overflows a packed term key"


class _Layout:
    """How the engine packs the (position, exponent) terms of one ring into
    ints, and the ring's coefficient domain; see the module docstring."""

    __slots__ = ("ring", "dom", "graded", "units", "shifts", "mono_bits",
                 "mono", "guards", "plain", "plain_guards")

    def __init__(self, ring):
        n = ring.nvars
        self.ring, self.dom = ring, ring.coeffs
        self.graded = ring.order == "grevlex"
        fields = 2 * n if self.graded else n

        def field(f):
            return 1 << (_FIELD_BITS * f)

        # units[j], the key of variable j (from 0): its plain exponent in
        # field n-1-j and, if graded, the total degree in field 2n-1 and
        # each prefix sum x_1+...+x_k with k > j in field n+k-1
        units = []
        for j in range(n):
            u = field(n - 1 - j)
            if self.graded:
                u += field(2 * n - 1) + sum(field(n + k - 1)
                                            for k in range(j + 1, n))
            units.append(u)
        self.units = tuple(units)
        self.shifts = tuple(_FIELD_BITS * (n - 1 - j) for j in range(n))
        self.mono_bits = _FIELD_BITS * fields
        self.mono = (1 << self.mono_bits) - 1
        self.guards = _GUARD * sum(map(field, range(fields)))
        self.plain_guards = _GUARD * sum(map(field, range(n)))
        self.plain = (_GUARD - 1) * sum(map(field, range(n)))

    def at(self, pos):
        """The key of the monomial 1 at position pos."""
        return (_POS_LIMIT - pos) << self.mono_bits

    def pack(self, pos, exp):
        top = sum(exp) if self.graded else max(exp, default=0)
        if top >= _GUARD:
            raise InternalInvariantError(_OVERFLOW)
        return self.at(pos) + sum(map(mul, exp, self.units))

    def position(self, key):
        return _POS_LIMIT - (key >> self.mono_bits)

    def exponent(self, key):
        return tuple((key >> s) & (_GUARD - 1) for s in self.shifts)

    def divides(self, a, b):
        """Whether the monomial of key a divides that of key b."""
        g = self.plain_guards
        return ((b | g) - (a & self.plain)) & g == g

    def shift(self, key, delta):
        """key times the monomial delta; a field that overflows raises."""
        key += delta
        if key & self.guards:
            raise InternalInvariantError(_OVERFLOW)
        return key


def _terms_of(layout, comps):
    """The term map {key: coeff} of a vector given by its components."""
    out = {}
    for i, comp in enumerate(comps):
        for e, c in comp._terms.items():
            out[layout.pack(i, e)] = c
    return out


def _vector_of(layout, rank, terms) -> FreeVector:
    comps = [{} for _ in range(rank)]
    for key, c in terms.items():
        comps[layout.position(key)][layout.exponent(key)] = c
    ring = layout.ring
    return FreeVector(ring, [RingElement(ring, d) for d in comps])


def _add_term(dom, target, key, coeff):
    """target[key] += coeff, in place, dropping a zero sum."""
    old = target.get(key)
    s = coeff if old is None else dom.add(old, coeff)
    if s == 0:
        target.pop(key, None)
    else:
        target[key] = s


def _add_scaled(layout, target, terms, delta, coeff):
    """target += coeff * x^delta * terms, in place, dropping zero sums;
    delta is a packed monomial, 0 for none."""
    if coeff == 0:
        return
    dom = layout.dom
    plus, guards = dom.add, layout.guards
    times = None if coeff == 1 else dom.mul
    for key, c in terms.items():
        if delta:
            key += delta
            if key & guards:
                raise InternalInvariantError(_OVERFLOW)
        if times:
            c = times(c, coeff)
        old = target.get(key)
        if old is None:
            target[key] = c
        else:
            c = plus(old, c)
            if c == 0:
                del target[key]
            else:
                target[key] = c


def _combine(layout, coeffs, gens, out=None):
    """sum(coeffs[a] * gens[a]) for a coefficient term map over R^len(gens),
    added to the map out in place when one is given."""
    out = {} if out is None else out
    bits, mono = layout.mono_bits, layout.mono
    for key, c in coeffs.items():
        _add_scaled(layout, out, gens[_POS_LIMIT - (key >> bits)], key & mono, c)
    return out


def _canonicalize(dom, terms, *others):
    """Scale the nonzero map terms, and the maps others with it, in place by
    the inverse of the canonical unit of its lead coefficient.  The lead is
    the position-over-term one, so every unit multiple of terms comes out
    the same: this is the one rule for a vector up to a unit."""
    u = dom.canonical_unit(terms[max(terms)])
    if u == dom.one():
        return
    inv = dom.invert_unit(u)
    for m in (terms, *others):
        for k, c in m.items():
            m[k] = dom.mul(inv, c)


class _BasisElem:
    """A basis vector as a term map, its expression in the input generators
    (a term map over R^len(gens)), its lead key and coefficient, the lead's
    position field and plain exponent fields, and its reducer sort key."""

    __slots__ = ("terms", "expr", "lead", "coeff", "top", "plain", "key",
                 "index")

    def __init__(self, layout, terms, expr, index: int):
        self.terms = terms
        self.expr = expr
        self.lead = lead = max(terms)
        self.coeff = terms[lead]
        self.top = lead >> layout.mono_bits
        self.plain = lead & layout.plain
        self.key = (lead, layout.dom.sort_key(self.coeff), index)
        self.index = index


class _Engine:
    """One Groebner computation with witness tracking, on term maps.

    Pairs wait in a heap of (key, i, j, kind) tuples, which are unique, so the
    smallest module term is always treated first and the run is deterministic.
    """

    def __init__(self, layout, rank, gens):
        self.layout = layout
        self.rank = rank
        self.dom = layout.dom
        self.steps_limit = self.steps_left = current_steps()
        self.basis: list[_BasisElem] = []
        self.pairs = []
        self.treated = set()
        one = self.dom.one()
        for i, g in enumerate(gens):
            if g:
                self._add_basis(dict(g), {layout.at(i): one})
        self._run()

    # bookkeeping -----------------------------------------------------------
    def _tick(self):
        self.steps_left -= 1
        if self.steps_left < 0:
            raise StepBudgetExceeded(
                f"groebner step budget exhausted: steps={self.steps_limit}")

    def _add_basis(self, terms, expr):
        _canonicalize(self.dom, terms, expr)
        elem = _BasisElem(self.layout, terms, expr, len(self.basis))
        t = elem.index
        self.basis.append(elem)
        for other in self.basis[:-1]:
            if other.top != elem.top:
                continue
            self._enqueue_pairs(other.index, t)
        return elem

    def _enqueue_pairs(self, i, j):
        layout = self.layout
        bi, bj = self.basis[i], self.basis[j]
        ci, cj = bi.coeff, bj.coeff
        ei, ej = layout.exponent(bi.lead), layout.exponent(bj.lead)
        key = layout.pack(layout.position(bi.lead), tuple(map(max, ei, ej)))
        if self.dom.is_field:
            # product criterion: valid over fields, and only for ideals
            # (rank one) -- module S-vectors can survive in other positions
            if self.rank == 1 and not any(map(min, ei, ej)):
                return
            heapq.heappush(self.pairs, (key, i, j, "s"))
        else:
            qi = self.dom.exact_div(cj, ci)
            qj = self.dom.exact_div(ci, cj)
            heapq.heappush(self.pairs, (key, i, j, "s"))
            if qi is None and qj is None:
                heapq.heappush(self.pairs, (key, i, j, "g"))

    # reduction -------------------------------------------------------------
    def _find_reducer(self, basis, key, coeff):
        top = key >> self.layout.mono_bits
        g = self.layout.plain_guards
        key |= g
        divmod_canonical = self.dom.divmod_canonical
        best = None
        for elem in basis:
            if elem.top != top or (key - elem.plain) & g != g:
                continue
            if best is not None and elem.key >= best[0]:
                continue
            q, _ = divmod_canonical(coeff, elem.coeff)
            if q != 0:
                best = (elem.key, elem, q)
        if best is None:
            return None
        return best[1], best[2]

    def _normal_form(self, basis, terms, combo=None):
        """The remainder nf of terms against the _BasisElem of `basis`, with
        terms = nf + sum(c * x^e * b.terms) over the terms c * x^e at
        position b.index of the map combo, which is filled in place unless
        it is None.  Every step ticks this engine."""
        layout, dom = self.layout, self.dom
        remainder = {}
        work = dict(terms)
        while work:
            self._tick()
            key = max(work)
            red = self._find_reducer(basis, key, work[key])
            if red is None:
                remainder[key] = work.pop(key)
            else:
                elem, q = red
                delta = key - elem.lead
                _add_scaled(layout, work, elem.terms, delta, dom.neg(q))
                if combo is not None:
                    _add_term(dom, combo, layout.at(elem.index) + delta, q)
        return remainder

    def _subtract_combo(self, expr, combo):
        """expr -= sum(c * x^e * basis[a].expr) over combo's terms, in place."""
        neg = self.dom.neg
        _combine(self.layout, {k: neg(c) for k, c in combo.items()},
                 [b.expr for b in self.basis], expr)

    # main loop -------------------------------------------------------------
    def _pair_vector(self, key, i, j, kind):
        """The S- or gcd-vector of basis i and j, whose leads have the lcm
        key, and its parts: the (basis element, monomial, coefficient)
        terms it is made of."""
        bi, bj = self.basis[i], self.basis[j]
        ci, cj = bi.coeff, bj.coeff
        if kind == "s":
            if self.dom.is_field:
                mi = self.dom.invert_unit(ci)
                mj = self.dom.invert_unit(cj)
            else:
                g, _, _ = self.dom.gcd_ext(ci, cj)
                mi = self.dom.exact_div(cj, g)
                mj = self.dom.exact_div(ci, g)
            mj = self.dom.neg(mj)
        else:
            _, mi, mj = self.dom.gcd_ext(ci, cj)
        parts = ((bi, key - bi.lead, mi), (bj, key - bj.lead, mj))
        vec = {}
        for b, t, m in parts:
            _add_scaled(self.layout, vec, b.terms, t, m)
        return vec, parts

    def _chain_criterion(self, key, i, j):
        if not self.dom.is_field:
            return False
        top = self.basis[i].top
        divides = self.layout.divides
        for elem in self.basis:
            k = elem.index
            if k in (i, j) or elem.top != top or not divides(elem.lead, key):
                continue
            if (min(i, k), max(i, k)) in self.treated and \
               (min(j, k), max(j, k)) in self.treated:
                return True
        return False

    def _run(self):
        while self.pairs:
            key, i, j, kind = heapq.heappop(self.pairs)
            if kind == "s":
                self.treated.add((min(i, j), max(i, j)))
            if self._chain_criterion(key, i, j):
                continue
            vec, parts = self._pair_vector(key, i, j, kind)
            combo = {}
            nf = self._normal_form(self.basis, vec, combo)
            if nf:
                expr = {}
                for b, t, m in parts:
                    _add_scaled(self.layout, expr, b.expr, t, m)
                self._subtract_combo(expr, combo)
                self._add_basis(nf, expr)

    # outputs ---------------------------------------------------------------
    def reduced_basis(self):
        """Canonical reduced (strong) basis as (terms, expr) term maps."""
        divides = self.layout.divides
        kept = []
        for elem in sorted(self.basis, key=lambda e: e.key):
            if not any(other.top == elem.top and divides(other.lead, elem.lead)
                       and self.dom.exact_div(elem.coeff, other.coeff)
                       is not None for other in kept):
                kept.append(elem)
        # tail reduction against the rest of the kept set
        results = []
        for elem in kept:
            tail = dict(elem.terms)
            del tail[elem.lead]
            combo = {}
            vec = self._normal_form([k for k in kept if k is not elem], tail,
                                    combo)
            vec[elem.lead] = elem.coeff     # every tail term is smaller
            expr = dict(elem.expr)
            self._subtract_combo(expr, combo)
            results.append((vec, expr))
        results.sort(key=lambda r: max(r[0]))
        return results


def _normal_form_vs(layout, rank, basis, terms, combo=None):
    """Normal form of a term map against a fixed list of _BasisElem."""
    return _Engine(layout, rank, ())._normal_form(basis, terms, combo)


def _reduced_terms(layout, rank, gens):
    """The engine's reduced basis of term maps `gens`, as _BasisElem; every
    expression is recombined from the generators and compared."""
    out = []
    for terms, expr in _Engine(layout, rank, gens).reduced_basis():
        if _combine(layout, expr, gens) != terms:
            raise InternalInvariantError("groebner witness does not recombine")
        out.append(_BasisElem(layout, terms, expr, len(out)))
    return out


# ---------------------------------------------------------------------------
# public handles and operations


class SubmoduleHandle:
    """A finitely generated submodule of R^rank given by generators.

    Zero generators are kept, so membership witnesses have one coordinate
    per generator.  The reduced basis is computed once and kept as term maps
    with their expressions; callers receive it as FreeVectors.

    Over field coefficients the handle also keeps, for each term met so far,
    the reduction of that term against the reduced basis.  There the reducer
    of a term depends on the term alone (the least key among the divisors,
    with a quotient that is never 0) and the terms are visited in
    descending order, so reduction is linear: a vector's remainder and
    combination are the sums of its terms' cached ones, scaled by its
    coefficients, and equal the sequential result.  Over Z canonical
    remainders are not linear (NF(-v) may differ from -NF(v)), so every
    vector is reduced from scratch.
    """

    __slots__ = ("ring", "rank", "generators", "_layout", "_gen_terms",
                 "_basis", "_term_forms")

    def __init__(self, ring: RingDescriptor, rank: int, generators):
        gens = []
        for g in generators:
            if not isinstance(g, FreeVector):
                raise UsageError("generators must be FreeVectors")
            if g.ring != ring or g.rank != rank:
                raise UsageError("generator rank or ring mismatch")
            gens.append(g)
        self.ring = ring
        self.rank = rank
        self.generators = tuple(gens)
        self._layout = layout = _Layout(ring)
        self._gen_terms = tuple(_terms_of(layout, g.comps) for g in gens)
        self._basis = None
        self._term_forms = {} if ring.coeffs.is_field else None

    def _check_vector(self, v):
        if not isinstance(v, FreeVector) or v.ring != self.ring \
                or v.rank != self.rank:
            raise UsageError("vector rank or ring mismatch")

    def _engine_basis(self):
        """The reduced basis as _BasisElem term maps, cached."""
        if self._basis is None:
            self._basis = _reduced_terms(self._layout, self.rank,
                                         self._gen_terms)
        return self._basis

    def _reduce(self, terms, combo=None, engine=None):
        """The remainder nf of a term map, with terms = nf + sum(c * x^e *
        basis[a].terms) over the items of the term map combo, which is
        filled in place unless it is None; each reduction step that runs
        ticks `engine`, a new one by default."""
        layout = self._layout
        if self._term_forms is None:
            engine = engine or _Engine(layout, self.rank, ())
            return engine._normal_form(self._engine_basis(), terms, combo)
        forms = self._term_forms
        nf = {}
        for t, c in terms.items():
            if t not in forms:
                engine = engine or _Engine(layout, self.rank, ())
                self._add_term_forms(t, engine)
            t_nf, t_combo = forms[t]
            _add_scaled(layout, nf, t_nf, 0, c)
            if combo is not None:
                _add_scaled(layout, combo, t_combo, 0, c)
        return nf

    def _add_term_forms(self, term, engine):
        """Cache the reduction of the term with coefficient 1, and of each
        term it leads to, ticking `engine` once per term.

        A reducible term t with reducer b, quotient q and shift x^d reduces
        to the smaller terms of r = t - q*x^d*b, so its remainder is that of
        r and its combination that of r plus q*x^d at b."""
        forms, basis, layout = self._term_forms, self._engine_basis(), self._layout
        dom = layout.dom
        one = dom.one()
        pending = {}
        stack = [term]
        while stack:
            t = stack[-1]
            if t in forms:
                stack.pop()
                continue
            if t not in pending:
                engine._tick()
                red = engine._find_reducer(basis, t, one)
                if red is None:
                    forms[t] = ({t: one}, {})
                    stack.pop()
                    continue
                elem, q = red
                delta = t - elem.lead
                rest = {}
                _add_scaled(layout, rest, elem.terms, delta, dom.neg(q))
                del rest[t]
                pending[t] = (layout.at(elem.index) + delta, q, rest)
                missing = [s for s in rest if s not in forms]
                if missing:
                    stack.extend(missing)
                    continue
            at, q, rest = pending.pop(t)
            nf, combo = {}, {at: q}
            for s, c in rest.items():
                s_nf, s_combo = forms[s]
                _add_scaled(layout, nf, s_nf, 0, c)
                _add_scaled(layout, combo, s_combo, 0, c)
            forms[t] = (nf, combo)
            stack.pop()

    def _witness(self, terms):
        """The witness term map w over R^len(generators) with terms =
        sum(w[i] * generators[i]), recombined and compared, or None when
        terms is not in the submodule."""
        if not terms:
            return {}
        if not self.generators:
            return None
        combo = {}
        if self._reduce(terms, combo):
            return None
        layout = self._layout
        witness = _combine(layout, combo, [b.expr for b in self._engine_basis()])
        if _combine(layout, witness, self._gen_terms) != terms:
            raise InternalInvariantError("membership witness does not recombine")
        return witness

    # queries ---------------------------------------------------------------
    def reduced_groebner(self):
        """The reduced basis as FreeVectors."""
        return tuple(_vector_of(self._layout, self.rank, b.terms)
                     for b in self._engine_basis())

    def contains(self, v: FreeVector):
        """(True, witness) with v = sum(witness[i] * generators[i]), or (False, None)."""
        self._check_vector(v)
        witness = self._witness(_terms_of(self._layout, v.comps))
        if witness is None:
            return False, None
        return True, _vector_of(self._layout, len(self.generators), witness).comps

    def normal_form(self, v: FreeVector) -> FreeVector:
        self._check_vector(v)
        if not self.generators:
            return v
        layout = self._layout
        return _vector_of(layout, self.rank,
                          self._reduce(_terms_of(layout, v.comps)))

    def classes(self, vectors):
        """Yield (v, cls) for each v of vectors whose class modulo the
        submodule is nonzero and not met before up to a unit; cls is v's
        normal form scaled by `_canonicalize`.

        Lazy: the next vector is read only when the next pair is asked for.
        With no generators nothing is reduced and no step ticks."""
        layout = self._layout
        seen = set()
        for v in vectors:
            self._check_vector(v)
            terms = _terms_of(layout, v.comps)
            if self.generators and terms:
                terms = self._reduce(terms)
            if not terms:
                continue
            _canonicalize(layout.dom, terms)
            key = frozenset(terms.items())
            if key not in seen:
                seen.add(key)
                yield v, _vector_of(layout, self.rank, terms)

    def equals(self, other: "SubmoduleHandle") -> bool:
        if self.ring != other.ring or self.rank != other.rank:
            return False
        return self.reduced_groebner() == other.reduced_groebner()


def groebner_basis(S: SubmoduleHandle) -> SubmoduleHandle:
    """Handle whose generators are the reduced Groebner basis of S."""
    return SubmoduleHandle(S.ring, S.rank, S.reduced_groebner())


def membership(v: FreeVector, S: SubmoduleHandle):
    """Decide v in S; on success the witness recombines to v exactly."""
    return S.contains(v)


def preimage(tracked, S: SubmoduleHandle) -> SubmoduleHandle:
    """{c in R^k : sum(c[i] * tracked[i]) in S}, generated by its reduced basis.

    One Groebner basis of <(t_i, e_i), (s_j, 0)> in R^(rank + k).  The
    tracking coordinates come last, the lowest positions under
    position-over-term, so the reduced basis elements with lead there have a
    zero first part and their tracking parts are the reduced basis of the
    preimage (Greuel-Pfister, A Singular Introduction to Commutative
    Algebra, 2.8).  Every returned c is re-checked by membership in S.
    """
    ring, rank, layout = S.ring, S.rank, S._layout
    tracked = tuple(tracked)
    for t in tracked:
        S._check_vector(t)
    k = len(tracked)
    tracked_terms = [_terms_of(layout, t.comps) for t in tracked]
    one = layout.dom.one()
    augmented = [{**t, layout.at(rank + i): one}
                 for i, t in enumerate(tracked_terms)]
    augmented += S._gen_terms
    down = rank << layout.mono_bits       # from position rank + i to i
    vectors = []
    for b in _reduced_terms(layout, rank + k, augmented):
        if layout.position(b.lead) >= rank:
            c = {key + down: coeff for key, coeff in b.terms.items()}
            if S._witness(_combine(layout, c, tracked_terms)) is None:
                raise InternalInvariantError("preimage element maps outside S")
            vectors.append(_vector_of(layout, k, c))
    return SubmoduleHandle(ring, k, vectors)


def syzygies(S: SubmoduleHandle) -> SubmoduleHandle:
    """Relations among the generators of S, as a submodule of R^len(gens)."""
    return preimage(S.generators, SubmoduleHandle(S.ring, S.rank, ()))


def _has_finite_length(S: SubmoduleHandle) -> bool:
    """Whether the coefficients form a field and R^rank/S has finite length:
    at every position the leads of S's reduced basis include a pure power
    of each variable, where x^0 counts as a power of every variable."""
    ring, layout = S.ring, S._layout
    if not ring.coeffs.is_field:
        return False
    pure = set()
    for b in S._engine_basis():
        exp = layout.exponent(b.lead)
        pure.update((b.top, j) for j in range(ring.nvars)
                    if not any(a for k, a in enumerate(exp) if k != j))
    return len(pure) == S.rank * ring.nvars


def _colon_finite_length(S: SubmoduleHandle, v: FreeVector):
    """The reduced basis of {r : r*v in S}, ascending by lead, when R^rank/S
    has finite length (Buchberger-Moller).

    Monomials x^t are visited in increasing order, skipping multiples of the
    leads found so far.  The normal form of x^t*v is x_j times the stored
    normal form of x^(t - e_j)*v, reduced against S on one engine, and then
    against echelon rows keyed by their largest term, whose coefficient is
    1.  A zero result gives the basis element x^t - sum(c_s x^s) over
    earlier monomials; a nonzero one becomes a row, and each x_j*x^t is
    queued.  Monomials are packed keys at position 0.
    """
    ring, layout = S.ring, S._layout
    dom = layout.dom
    engine = _Engine(layout, S.rank, ())
    one, start = dom.one(), layout.at(0)
    todo = [(start, None)]
    forms = {}          # visited monomial t -> normal form of x^t*v
    rows = {}           # pivot key -> (row, its combination of monomials)
    pivots = []         # pivot keys, ascending
    leads, found = [], []
    while todo:
        t, prev = heapq.heappop(todo)
        if t in forms or any(layout.divides(lead, t) for lead in leads):
            continue
        if prev is None:
            terms = _terms_of(layout, v.comps)
        else:
            terms = {}
            _add_scaled(layout, terms, forms[prev], t - prev, one)
        nf = S._reduce(terms, engine=engine)
        work, combination = dict(nf), {t: one}
        for pivot in reversed(pivots):
            if pivot in work:
                q = dom.neg(work[pivot])
                row, row_combination = rows[pivot]
                _add_scaled(layout, work, row, 0, q)
                _add_scaled(layout, combination, row_combination, 0, q)
        if not work:
            leads.append(t)
            found.append(RingElement(ring, {layout.exponent(s): c for s, c
                                            in combination.items()}))
            continue
        _canonicalize(dom, work, combination)
        pivot = max(work)
        rows[pivot] = (work, combination)
        bisect.insort(pivots, pivot)
        forms[t] = nf
        for unit in layout.units:
            heapq.heappush(todo, (layout.shift(t, unit), t))
    return found


def colon(S: SubmoduleHandle, v: FreeVector) -> IdealHandle:
    """The ideal {r in R : r*v in S}.

    Over a field, when R^rank/S has finite length (at every position the
    leads of S's reduced basis include a pure power of each variable), the
    ideal is the kernel of r -> r*v on that space, found by linear algebra
    on normal forms (Buchberger-Moller; Marinari-Moller-Mora, AAECC 4, 1993),
    and each generator r is re-checked by membership of r*v in S.  Otherwise
    it is the preimage of S under r -> r*v, whose generators are already the
    ideal's reduced basis (tail-reduced, canonical leads, in basis order).
    A reduced basis over a field is unique, so both ways give the same
    generators, and the ideal keeps them instead of computing them again.
    """
    S._check_vector(v)
    if not _has_finite_length(S):
        return IdealHandle.from_reduced_basis(
            S.ring, [c.comps[0] for c in preimage([v], S).generators])
    gens = _colon_finite_length(S, v)
    layout = S._layout
    v_terms = [_terms_of(layout, v.comps)]
    for r in gens:
        if S._witness(_combine(layout, _terms_of(layout, (r,)), v_terms)) \
                is None:
            raise InternalInvariantError("colon element maps outside S")
    return IdealHandle.from_reduced_basis(S.ring, gens)


def ideal_intersection(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I cap J as the colon (I x J : (1, 1)) in R^2."""
    if I.ring != J.ring:
        raise UsageError("ideals over different rings")
    ring = I.ring
    zero, one = ring.zero(), ring.one()
    product = [FreeVector(ring, (a, zero)) for a in I.generators]
    product += [FreeVector(ring, (zero, b)) for b in J.generators]
    return colon(SubmoduleHandle(ring, 2, product), FreeVector(ring, (one, one)))


# ---------------------------------------------------------------------------
# rank-1 helpers used by rings.IdealHandle


def ideal_groebner(ring, generators):
    handle = SubmoduleHandle(ring, 1, [FreeVector(ring, (e,))
                                       for e in generators if not e.is_zero()])
    return [vec.comps[0] for vec in handle.reduced_groebner()]


def ideal_contains(ring, gb_elements, element) -> bool:
    layout = _Layout(ring)
    basis = [_BasisElem(layout, _terms_of(layout, (g,)), {}, i)
             for i, g in enumerate(gb_elements)]
    return not _normal_form_vs(layout, 1, basis, _terms_of(layout, (element,)))
