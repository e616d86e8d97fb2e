"""Groebner bases for submodules of free modules, with witnesses and syzygies.

Field coefficients (Q, F_p) use Buchberger's algorithm; integer coefficients
use strong Groebner bases: besides S-vectors the engine forms gcd-vectors
(Bezout combinations of two leading terms at the same monomial), and term
reduction divides coefficients with canonical remainders.  The ring Z itself
is the zero-variable case of the same machinery.

The module order is position-over-term: component 0 dominates, ties are
broken by the descriptor's monomial order.  Reduced bases are canonical, so
submodule and ideal equality are decided by comparing them.

Inside the engine a vector of R^rank is one sparse term map
{(position, exponent): coefficient} over the raw coefficient domain (an
int over Z, a residue mod p, or a rational stored as an int when integral
and as a Fraction otherwise), with no zero coefficients.  A reduction step
updates its work map in place and touches only the terms of the reducer,
as in sparse polynomial division (Monagan-Pearce, CASC 2007), though the
lead is found by one pass over the work map rather than kept in a heap.
One sequential reduction routine serves the Buchberger loop, the tail
reduction, and normal forms and membership over Z.  FreeVector is the
boundary type: SubmoduleHandle converts generators to term maps on the way
in, caches its reduced basis once as term maps, and converts basis vectors
back on the way out.

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
from the input generators and compared before it is returned.

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
from operator import add, le

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


def _terms_of(vec: FreeVector):
    """The term map {(pos, exp): coeff} of a FreeVector."""
    return {(i, e): c for i, comp in enumerate(vec.comps)
            for e, c in comp._terms.items()}


def _vector_of(ring, rank, terms) -> FreeVector:
    comps = [{} for _ in range(rank)]
    for (i, e), c in terms.items():
        comps[i][e] = c
    return FreeVector(ring, [RingElement(ring, d) for d in comps])


def _add_term(dom, target, key, coeff):
    """target[key] += coeff, in place, dropping a zero sum."""
    old = target.get(key)
    s = coeff if old is None else dom.add(old, coeff)
    if s == 0:
        target.pop(key, None)
    else:
        target[key] = s


def _add_scaled(dom, target, terms, exp, coeff):
    """target += coeff * x^exp * terms, in place, dropping zero sums."""
    if coeff == 0:
        return
    plus, times = dom.add, dom.mul
    shift = any(exp)
    for (i, e), c in terms.items():
        key = (i, tuple(map(add, e, exp))) if shift else (i, e)
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


def _combine(dom, coeffs, gens):
    """sum(coeffs[a] * gens[a]) for a coefficient term map over R^len(gens)."""
    out = {}
    for (a, e), c in coeffs.items():
        _add_scaled(dom, out, gens[a], e, c)
    return out


def _lead(ring, terms):
    """(position, exponent, coefficient) of the largest term of a nonzero map,
    found in one pass: the least position, then the largest monomial."""
    key = ring.monomial_key
    items = iter(terms)
    pos, exp = next(items)
    best = key(exp)
    for i, e in items:
        if i < pos:
            pos, exp, best = i, e, key(e)
        elif i == pos:
            k = key(e)
            if k > best:
                exp, best = e, k
    return pos, exp, terms[pos, exp]


def _canonicalize(ring, terms, *others):
    """Scale the nonzero map terms, and the maps others with it, in place by
    the inverse of the canonical unit of its lead coefficient.  The lead is
    the position-over-term one, so every unit multiple of terms comes out
    the same: this is the one rule for a vector up to a unit."""
    dom = ring.coeffs
    u = dom.canonical_unit(_lead(ring, terms)[2])
    if u == dom.one():
        return
    inv = dom.invert_unit(u)
    for m in (terms, *others):
        for k, c in m.items():
            m[k] = dom.mul(inv, c)


def _module_key(ring, rank, pos, exp):
    """Sort key for module terms; bigger key = bigger term (POT, index 0 top)."""
    return (rank - pos, ring.monomial_key(exp))


def _exp_divides(a, b):
    return all(map(le, a, b))


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _exp_gcd_trivial(a, b):
    return all(min(x, y) == 0 for x, y in zip(a, b))


class _BasisElem:
    """A basis vector as a term map, its expression in the input generators
    (a term map over R^len(gens)), its lead and its reducer sort key."""

    __slots__ = ("terms", "expr", "lead", "key", "index")

    def __init__(self, ring, terms, expr, index: int):
        self.terms = terms
        self.expr = expr
        self.lead = _lead(ring, terms)
        self.key = (ring.monomial_key(self.lead[1]),
                    ring.coeffs.sort_key(self.lead[2]), index)
        self.index = index


class _Engine:
    """One Groebner computation with witness tracking, on term maps.

    Pairs wait in a heap of (key, i, j, kind) tuples, which are unique, so the
    smallest module term is always treated first and the run is deterministic.
    """

    def __init__(self, ring, rank, gens):
        self.ring = ring
        self.rank = rank
        self.dom = ring.coeffs
        self.steps_limit = self.steps_left = current_steps()
        self.basis: list[_BasisElem] = []
        self.pairs = []
        self.treated = set()
        one, zero_exp = self.dom.one(), (0,) * ring.nvars
        for i, g in enumerate(gens):
            if g:
                self._add_basis(dict(g), {(i, zero_exp): one})
        self._run()

    # bookkeeping -----------------------------------------------------------
    def _tick(self):
        self.steps_left -= 1
        if self.steps_left < 0:
            raise StepBudgetExceeded(
                f"groebner step budget exhausted: steps={self.steps_limit}")

    def _add_basis(self, terms, expr):
        _canonicalize(self.ring, terms, expr)
        elem = _BasisElem(self.ring, terms, expr, len(self.basis))
        t = elem.index
        self.basis.append(elem)
        for other in self.basis[:-1]:
            if other.lead[0] != elem.lead[0]:
                continue
            self._enqueue_pairs(other.index, t)
        return elem

    def _enqueue_pairs(self, i, j):
        bi, bj = self.basis[i], self.basis[j]
        pos = bi.lead[0]
        ei, ej = bi.lead[1], bj.lead[1]
        ci, cj = bi.lead[2], bj.lead[2]
        lcm_exp = _exp_lcm(ei, ej)
        key = _module_key(self.ring, self.rank, pos, lcm_exp)
        if self.dom.is_field:
            # product criterion: valid over fields, and only for ideals
            # (rank one) -- module S-vectors can survive in other positions
            if self.rank == 1 and _exp_gcd_trivial(ei, ej):
                return
            heapq.heappush(self.pairs, (key, i, j, "s"))
        else:
            qi = self.dom.exact_div(cj, ci)
            qj = self.dom.exact_div(ci, cj)
            heapq.heappush(self.pairs, (key, i, j, "s"))
            if qi is None and qj is None:
                heapq.heappush(self.pairs, (key, i, j, "g"))

    # reduction -------------------------------------------------------------
    def _find_reducer(self, basis, pos, exp, coeff):
        best = None
        for elem in basis:
            bpos, bexp, bcoeff = elem.lead
            if bpos != pos or not _exp_divides(bexp, exp):
                continue
            if best is not None and elem.key >= best[0]:
                continue
            q, _ = self.dom.divmod_canonical(coeff, bcoeff)
            if q != 0:
                best = (elem.key, elem, q)
        if best is None:
            return None
        return best[1], best[2]

    def _normal_form(self, basis, terms):
        """(nf, combo) with terms = nf + sum(combo[b.index] * b.terms) over
        the _BasisElem b of `basis`; nf is a term map and each combo value a
        polynomial map {exp: coeff}.  Every step ticks this engine."""
        dom = self.dom
        combo = {}
        remainder = {}
        work = dict(terms)
        while work:
            self._tick()
            pos, exp, coeff = _lead(self.ring, work)
            red = self._find_reducer(basis, pos, exp, coeff)
            if red is None:
                remainder[pos, exp] = work.pop((pos, exp))
            else:
                elem, q = red
                delta = _exp_sub(exp, elem.lead[1])
                _add_scaled(dom, work, elem.terms, delta, dom.neg(q))
                _add_term(dom, combo.setdefault(elem.index, {}), delta, q)
        return remainder, combo

    def _subtract_combo(self, expr, combo):
        """expr -= sum(combo[idx] * basis[idx].expr), in place."""
        dom = self.dom
        for idx, mult in combo.items():
            for e, c in mult.items():
                _add_scaled(dom, expr, self.basis[idx].expr, e, dom.neg(c))

    # main loop -------------------------------------------------------------
    def _pair_vector(self, i, j, kind):
        """The S- or gcd-vector of basis i and j, and its parts: the
        (basis element, exponent, coefficient) terms it is made of."""
        bi, bj = self.basis[i], self.basis[j]
        pos, ei, ci = bi.lead
        _, ej, cj = bj.lead
        lcm_exp = _exp_lcm(ei, ej)
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
        parts = ((bi, _exp_sub(lcm_exp, ei), mi), (bj, _exp_sub(lcm_exp, ej), mj))
        vec = {}
        for b, t, m in parts:
            _add_scaled(self.dom, vec, b.terms, t, m)
        return vec, parts

    def _chain_criterion(self, key, i, j):
        if not self.dom.is_field:
            return False
        pos = self.basis[i].lead[0]
        lcm_exp = _exp_lcm(self.basis[i].lead[1], self.basis[j].lead[1])
        for elem in self.basis:
            k = elem.index
            if k in (i, j) or elem.lead[0] != pos:
                continue
            if not _exp_divides(elem.lead[1], lcm_exp):
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
            vec, parts = self._pair_vector(i, j, kind)
            nf, combo = self._normal_form(self.basis, vec)
            if nf:
                expr = {}
                for b, t, m in parts:
                    _add_scaled(self.dom, expr, b.expr, t, m)
                self._subtract_combo(expr, combo)
                self._add_basis(nf, expr)

    # outputs ---------------------------------------------------------------
    def reduced_basis(self):
        """Canonical reduced (strong) basis as (terms, expr) term maps."""
        order = sorted(self.basis,
                       key=lambda e: (_module_key(self.ring, self.rank,
                                                  e.lead[0], e.lead[1]),
                                      self.dom.sort_key(e.lead[2]), e.index))
        kept = []
        for elem in order:
            redundant = False
            for other in kept:
                if other.lead[0] == elem.lead[0] and \
                   _exp_divides(other.lead[1], elem.lead[1]) and \
                   self.dom.exact_div(elem.lead[2], other.lead[2]) is not None:
                    redundant = True
                    break
            if not redundant:
                kept.append(elem)
        # tail reduction against the rest of the kept set
        results = []
        for elem in kept:
            pos, exp, coeff = elem.lead
            tail = dict(elem.terms)
            del tail[pos, exp]
            vec, combo = self._normal_form([k for k in kept if k is not elem],
                                           tail)
            vec[pos, exp] = coeff     # every tail term is smaller
            expr = dict(elem.expr)
            self._subtract_combo(expr, combo)
            results.append((vec, expr))
        results.sort(key=lambda r: _module_key(self.ring, self.rank,
                                               *_lead(self.ring, r[0])[:2]))
        return results


def _normal_form_vs(ring, rank, basis, terms):
    """Normal form of a term map against a fixed list of _BasisElem."""
    return _Engine(ring, rank, ())._normal_form(basis, terms)


def _reduced_terms(ring, rank, gens):
    """The engine's reduced basis of term maps `gens`, as _BasisElem; every
    expression is recombined from the generators and compared."""
    dom = ring.coeffs
    out = []
    for terms, expr in _Engine(ring, rank, gens).reduced_basis():
        if _combine(dom, expr, gens) != terms:
            raise InternalInvariantError("groebner witness does not recombine")
        out.append(_BasisElem(ring, terms, expr, len(out)))
    return out


# ---------------------------------------------------------------------------
# public handles and operations


class SubmoduleHandle:
    """A finitely generated submodule of R^rank given by generators.

    Zero generators are kept, so membership witnesses have one coordinate
    per generator.  The reduced basis is computed once and kept as term maps
    with their expressions; callers receive it as FreeVectors.

    Over field coefficients the handle also keeps, for each term (pos, exp)
    met so far, the reduction of that term against the reduced basis.  There
    the reducer of a term depends on (pos, exp) alone (the least key among
    the divisors, with a quotient that is never 0) and the terms are visited
    in descending order, so reduction is linear: a vector's remainder and
    combination are the sums of its terms' cached ones, scaled by its
    coefficients, and equal the sequential result.  Over Z canonical
    remainders are not linear (NF(-v) may differ from -NF(v)), so every
    vector is reduced from scratch.
    """

    __slots__ = ("ring", "rank", "generators", "_gen_terms", "_basis",
                 "_term_forms")

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
        self._gen_terms = tuple(_terms_of(g) for g in gens)
        self._basis = None
        self._term_forms = {} if ring.coeffs.is_field else None

    def _check_vector(self, v):
        if not isinstance(v, FreeVector) or v.ring != self.ring \
                or v.rank != self.rank:
            raise UsageError("vector rank or ring mismatch")

    def _engine_basis(self):
        """The reduced basis as _BasisElem term maps, cached."""
        if self._basis is None:
            self._basis = _reduced_terms(self.ring, self.rank, self._gen_terms)
        return self._basis

    def _reduce(self, terms, engine=None):
        """(nf, combo) with terms = nf + sum(c * x^e * basis[a].terms) over
        the items ((a, e), c) of the term map combo; each reduction step that
        runs ticks `engine`, a new one by default."""
        if engine is None:
            engine = _Engine(self.ring, self.rank, ())
        if self._term_forms is None:
            nf, combo = engine._normal_form(self._engine_basis(), terms)
            return nf, {(a, e): c for a, mult in combo.items()
                        for e, c in mult.items()}
        forms, dom = self._term_forms, self.ring.coeffs
        zero_exp = (0,) * self.ring.nvars
        nf, combo = {}, {}
        for t, c in terms.items():
            if t not in forms:
                self._add_term_forms(t, engine)
            t_nf, t_combo = forms[t]
            _add_scaled(dom, nf, t_nf, zero_exp, c)
            _add_scaled(dom, combo, t_combo, zero_exp, c)
        return nf, combo

    def _add_term_forms(self, term, engine):
        """Cache the reduction of the term with coefficient 1, and of each
        term it leads to, ticking `engine` once per term.

        A reducible term t with reducer b, quotient q and shift x^d reduces
        to the smaller terms of r = t - q*x^d*b, so its remainder is that of
        r and its combination that of r plus q*x^d at b."""
        forms, basis, dom = self._term_forms, self._engine_basis(), self.ring.coeffs
        one, zero_exp = dom.one(), (0,) * self.ring.nvars
        pending = {}
        stack = [term]
        while stack:
            t = stack[-1]
            if t in forms:
                stack.pop()
                continue
            if t not in pending:
                engine._tick()
                red = engine._find_reducer(basis, *t, one)
                if red is None:
                    forms[t] = ({t: one}, {})
                    stack.pop()
                    continue
                elem, q = red
                delta = _exp_sub(t[1], elem.lead[1])
                rest = {}
                _add_scaled(dom, rest, elem.terms, delta, dom.neg(q))
                del rest[t]
                pending[t] = (elem.index, delta, q, rest)
                missing = [s for s in rest if s not in forms]
                if missing:
                    stack.extend(missing)
                    continue
            index, delta, q, rest = pending.pop(t)
            nf, combo = {}, {(index, delta): q}
            for s, c in rest.items():
                s_nf, s_combo = forms[s]
                _add_scaled(dom, nf, s_nf, zero_exp, c)
                _add_scaled(dom, combo, s_combo, zero_exp, c)
            forms[t] = (nf, combo)
            stack.pop()

    # queries ---------------------------------------------------------------
    def reduced_groebner(self):
        """The reduced basis as FreeVectors."""
        return tuple(_vector_of(self.ring, self.rank, b.terms)
                     for b in self._engine_basis())

    def contains(self, v: FreeVector):
        """(True, witness) with v = sum(witness[i] * generators[i]), or (False, None)."""
        self._check_vector(v)
        n = len(self.generators)
        terms = _terms_of(v)
        if not terms:
            return True, tuple(self.ring.zero() for _ in range(n))
        if not self.generators:
            return False, None
        nf, combo = self._reduce(terms)
        if nf:
            return False, None
        dom = self.ring.coeffs
        witness = _combine(dom, combo, [b.expr for b in self._engine_basis()])
        if _combine(dom, witness, self._gen_terms) != terms:
            raise InternalInvariantError("membership witness does not recombine")
        return True, _vector_of(self.ring, n, witness).comps

    def normal_form(self, v: FreeVector) -> FreeVector:
        self._check_vector(v)
        if not self.generators:
            return v
        return _vector_of(self.ring, self.rank, self._reduce(_terms_of(v))[0])

    def classes(self, vectors):
        """Yield (v, cls) for each v of vectors whose class modulo the
        submodule is nonzero and not met before up to a unit; cls is v's
        normal form scaled by `_canonicalize`.

        Lazy: the next vector is read only when the next pair is asked for.
        With no generators nothing is reduced and no step ticks."""
        seen = set()
        for v in vectors:
            self._check_vector(v)
            terms = _terms_of(v)
            if self.generators and terms:
                terms = self._reduce(terms)[0]
            if not terms:
                continue
            _canonicalize(self.ring, terms)
            key = frozenset(terms.items())
            if key not in seen:
                seen.add(key)
                yield v, _vector_of(self.ring, self.rank, terms)

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
    ring, rank, dom = S.ring, S.rank, S.ring.coeffs
    tracked = tuple(tracked)
    for t in tracked:
        S._check_vector(t)
    k = len(tracked)
    tracked_terms = [_terms_of(t) for t in tracked]
    one, zero_exp = dom.one(), (0,) * ring.nvars
    augmented = [{**t, (rank + i, zero_exp): one}
                 for i, t in enumerate(tracked_terms)]
    augmented += S._gen_terms
    vectors = []
    for b in _reduced_terms(ring, rank + k, augmented):
        if b.lead[0] >= rank:
            c = {(i - rank, e): coeff for (i, e), coeff in b.terms.items()}
            image = _vector_of(ring, rank, _combine(dom, c, tracked_terms))
            if not S.contains(image)[0]:
                raise InternalInvariantError("preimage element maps outside S")
            vectors.append(_vector_of(ring, k, c))
    return SubmoduleHandle(ring, k, vectors)


def syzygies(S: SubmoduleHandle) -> SubmoduleHandle:
    """Relations among the generators of S, as a submodule of R^len(gens)."""
    return preimage(S.generators, SubmoduleHandle(S.ring, S.rank, ()))


def _has_finite_length(S: SubmoduleHandle) -> bool:
    """Whether the coefficients form a field and R^rank/S has finite length:
    at every position the leads of S's reduced basis include a pure power
    of each variable, where x^0 counts as a power of every variable."""
    ring = S.ring
    if not ring.coeffs.is_field:
        return False
    pure = {(b.lead[0], j) for b in S._engine_basis() for j in range(ring.nvars)
            if not any(a for k, a in enumerate(b.lead[1]) if k != j)}
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
    queued.
    """
    ring, rank, dom = S.ring, S.rank, S.ring.coeffs
    engine = _Engine(ring, rank, ())
    one, start = dom.one(), (0,) * ring.nvars
    todo = [(ring.monomial_key(start), start, None)]
    forms = {}          # visited monomial t -> normal form of x^t*v
    rows = {}           # pivot term -> (row, its combination of monomials)
    pivots = []         # (module key, pivot term), ascending
    leads, found = [], []
    while todo:
        _, t, prev = heapq.heappop(todo)
        if t in forms or any(_exp_divides(lead, t) for lead in leads):
            continue
        if prev is None:
            terms = _terms_of(v)
        else:
            step = _exp_sub(t, prev)
            terms = {(i, tuple(a + b for a, b in zip(e, step))): c
                     for (i, e), c in forms[prev].items()}
        nf, _ = S._reduce(terms, engine)
        work, combination = dict(nf), {(0, t): one}
        for _, pivot in reversed(pivots):
            if pivot in work:
                q = dom.neg(work[pivot])
                row, row_combination = rows[pivot]
                _add_scaled(dom, work, row, start, q)
                _add_scaled(dom, combination, row_combination, start, q)
        if not work:
            leads.append(t)
            found.append(RingElement(ring, {e: c for (_, e), c
                                            in combination.items()}))
            continue
        _canonicalize(ring, work, combination)
        pos, exp, _ = _lead(ring, work)
        rows[pos, exp] = (work, combination)
        bisect.insort(pivots, (_module_key(ring, rank, pos, exp), (pos, exp)))
        forms[t] = nf
        for j in range(ring.nvars):
            u = tuple(a + (k == j) for k, a in enumerate(t))
            heapq.heappush(todo, (ring.monomial_key(u), u, t))
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
    for r in gens:
        if not S.contains(v.scale(r))[0]:
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
    basis = [_BasisElem(ring, {(0, e): c for e, c in g._terms.items()}, {}, i)
             for i, g in enumerate(gb_elements)]
    nf, _ = _normal_form_vs(ring, 1, basis,
                            {(0, e): c for e, c in element._terms.items()})
    return not nf
