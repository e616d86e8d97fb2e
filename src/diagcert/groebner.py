"""Groebner bases for submodules of free modules, with witnesses and syzygies.

Field coefficients (Q, F_p) use Buchberger's algorithm; integer coefficients
use strong Groebner bases: besides S-vectors the engine forms gcd-vectors
(Bezout combinations of two leading terms at the same monomial), and term
reduction divides coefficients with canonical remainders.  The ring Z itself
is the zero-variable case of the same machinery.

The module order is position-over-term: component 0 dominates, ties are
broken by the descriptor's monomial order.  Reduced bases are canonical, so
submodule and ideal equality are decided by comparing them.

Every basis element carries its expression in terms of the input generators,
which is how membership witnesses are produced; each witness is recombined
and compared before it is returned.

Syzygies, colon ideals and subquotient presentations all come from one
elimination basis (`preimage`): tracked vectors t_i get a unit coordinate
e_i placed after the module's own positions, so under position-over-term the
basis elements whose lead lies in those last positions have a zero module
part, and their tracking parts generate {c : sum c_i t_i in S}.  Every
returned c is re-checked by membership in S.
"""

from __future__ import annotations

import heapq

from .bounds import current_steps
from .errors import InternalInvariantError, StepBudgetExceeded, UsageError
from .rings import IdealHandle, RingDescriptor, RingElement


class FreeVector:
    """An element of R^rank, stored densely (ranks here are small)."""

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

    def __neg__(self):
        return FreeVector(self.ring, (-a for a in self.comps))

    def scale(self, element: RingElement) -> "FreeVector":
        return FreeVector(self.ring, (element * c for c in self.comps))

    def mul_monomial(self, exp, coeff) -> "FreeVector":
        return FreeVector(self.ring, (c.mul_monomial(exp, coeff) for c in self.comps))

    def lead(self):
        """(position, exponent, coefficient) of the largest module term."""
        for i, c in enumerate(self.comps):
            if not c.is_zero():
                e, co = c.leading_term()
                return i, e, co
        raise UsageError("zero vector has no leading term")

    def __eq__(self, other):
        if not isinstance(other, FreeVector):
            return NotImplemented
        return self.ring == other.ring and self.comps == other.comps

    def __hash__(self):
        return hash((self.ring, self.comps))

    def sort_key(self):
        return tuple(c.sort_key() for c in self.comps)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"


def _module_key(ring, rank, pos, exp):
    """Sort key for module terms; bigger key = bigger term (POT, index 0 top)."""
    return (rank - pos, ring.monomial_key(exp))


def _exp_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _exp_gcd_trivial(a, b):
    return all(min(x, y) == 0 for x, y in zip(a, b))


class _BasisElem:
    __slots__ = ("vec", "expr", "lead", "index")

    def __init__(self, vec: FreeVector, expr, index: int):
        self.vec = vec
        self.expr = tuple(expr)  # combination of the input generators
        self.lead = vec.lead()
        self.index = index


class _Engine:
    """One Groebner computation with witness tracking.

    Pairs wait in a heap of (key, i, j, kind) tuples, which are unique, so the
    smallest module term is always treated first and the run is deterministic.
    """

    def __init__(self, ring, rank, gens):
        self.ring = ring
        self.rank = rank
        self.dom = ring.coeffs
        self.steps_left = current_steps()
        self.gens = list(gens)
        self.basis: list[_BasisElem] = []
        self.pairs = []
        self.treated = set()
        n = len(self.gens)
        zero = ring.zero()
        for i, g in enumerate(self.gens):
            if g.is_zero():
                continue
            expr = [zero] * n
            expr[i] = ring.one()
            self._add_basis(g, expr)
        self._run()

    # bookkeeping -----------------------------------------------------------
    def _tick(self, n=1):
        self.steps_left -= n
        if self.steps_left < 0:
            raise StepBudgetExceeded("groebner step budget exhausted")

    def _canonicalize(self, vec: FreeVector, expr):
        pos, exp, coeff = vec.lead()
        u = self.dom.canonical_unit(coeff)
        if u == self.dom.one():
            return vec, expr
        inv = self.ring.from_coeff(self.dom.invert_unit(u))
        return vec.scale(inv), [inv * e for e in expr]

    def _add_basis(self, vec: FreeVector, expr):
        vec, expr = self._canonicalize(vec, expr)
        elem = _BasisElem(vec, expr, len(self.basis))
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
    def _find_reducer(self, pos, exp, coeff):
        best = None
        for elem in self.basis:
            bpos, bexp, bcoeff = elem.lead
            if bpos != pos or not _exp_divides(bexp, exp):
                continue
            q, _ = self.dom.divmod_canonical(coeff, bcoeff)
            if q == 0:
                continue
            key = (self.ring.monomial_key(bexp), self.dom.sort_key(bcoeff),
                   elem.index)
            if best is None or key < best[0]:
                best = (key, elem, q)
        if best is None:
            return None
        return best[1], best[2]

    def _normal_form(self, vec: FreeVector):
        """(nf, combo) with vec = nf + sum(combo[idx] * basis[idx].vec)."""
        combo = {}
        remainder = FreeVector.zero(self.ring, self.rank)
        work = vec
        while not work.is_zero():
            self._tick()
            pos, exp, coeff = work.lead()
            red = self._find_reducer(pos, exp, coeff)
            if red is None:
                move = [self.ring.zero()] * self.rank
                move[pos] = self.ring.monomial(exp, coeff)
                mv = FreeVector(self.ring, move)
                remainder = remainder + mv
                work = work - mv
            else:
                elem, q = red
                delta = _exp_sub(exp, elem.lead[1])
                work = work - elem.vec.mul_monomial(delta, q)
                mult = self.ring.monomial(delta, q)
                combo[elem.index] = combo.get(elem.index, self.ring.zero()) + mult
        return remainder, combo

    # main loop -------------------------------------------------------------
    def _pair_vector(self, i, j, kind):
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
            ti = (_exp_sub(lcm_exp, ei), mi)
            tj = (_exp_sub(lcm_exp, ej), mj)
            vec = bi.vec.mul_monomial(*ti) - bj.vec.mul_monomial(*tj)
            parts = {i: self.ring.monomial(*ti), j: -self.ring.monomial(*tj)}
        else:
            g, s, t = self.dom.gcd_ext(ci, cj)
            ti = (_exp_sub(lcm_exp, ei), s)
            tj = (_exp_sub(lcm_exp, ej), t)
            vec = bi.vec.mul_monomial(*ti) + bj.vec.mul_monomial(*tj)
            parts = {i: self.ring.monomial(*ti), j: self.ring.monomial(*tj)}
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
            nf, combo = self._normal_form(vec)
            if not nf.is_zero():
                n = len(self.gens)
                expr = [self.ring.zero()] * n
                for idx, mult in parts.items():
                    b = self.basis[idx]
                    for a in range(n):
                        expr[a] = expr[a] + mult * b.expr[a]
                for idx, mult in combo.items():
                    b = self.basis[idx]
                    for a in range(n):
                        expr[a] = expr[a] - mult * b.expr[a]
                self._add_basis(nf, expr)

    # outputs ---------------------------------------------------------------
    def reduced_basis(self):
        """Canonical reduced (strong) basis as (vec, expr) pairs."""
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
        # tail reduction against the kept set
        sub = _Engine.__new__(_Engine)
        sub.ring, sub.rank, sub.dom = self.ring, self.rank, self.dom
        sub.steps_left = self.steps_left
        results = []
        for elem in kept:
            pos, exp, coeff = elem.lead
            lead_comps = [self.ring.zero()] * self.rank
            lead_comps[pos] = self.ring.monomial(exp, coeff)
            lead_vec = FreeVector(self.ring, lead_comps)
            tail = elem.vec - lead_vec
            sub.basis = [k for k in kept if k is not elem]
            nf_tail, combo = sub._normal_form(tail)
            expr = list(elem.expr)
            for idx_pos, other in enumerate(sub.basis):
                mult = combo.get(other.index)
                if mult is None:
                    continue
                for a in range(len(expr)):
                    expr[a] = expr[a] - mult * other.expr[a]
            results.append((lead_vec + nf_tail, tuple(expr)))
        self.steps_left = sub.steps_left
        results.sort(key=lambda r: _module_key(self.ring, self.rank,
                                               *r[0].lead()[:2]))
        return results


def _normal_form_vs(ring, rank, basis_vecs, vec):
    """Normal form of vec against fixed vectors; (nf, combo list by index)."""
    eng = _Engine.__new__(_Engine)
    eng.ring, eng.rank, eng.dom = ring, rank, ring.coeffs
    eng.steps_left = current_steps()
    eng.basis = [_BasisElem(v, (), i) for i, v in enumerate(basis_vecs)]
    return eng._normal_form(vec)


# ---------------------------------------------------------------------------
# public handles and operations


class SubmoduleHandle:
    """A finitely generated submodule of R^rank given by generators.

    Zero generators are kept, so membership witnesses have one coordinate
    per generator.
    """

    __slots__ = ("ring", "rank", "generators", "_reduced")

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
        self._reduced = None

    # queries ---------------------------------------------------------------
    def reduced_groebner(self):
        """[(vector, expression-in-generators)] of the reduced basis, cached."""
        if self._reduced is None:
            if not self.generators:
                self._reduced = ()
            else:
                reduced = _Engine(self.ring, self.rank,
                                  self.generators).reduced_basis()
                for vec, expr in reduced:
                    check = FreeVector.zero(self.ring, self.rank)
                    for coeff, gen in zip(expr, self.generators):
                        check = check + gen.scale(coeff)
                    if check != vec:
                        raise InternalInvariantError(
                            "groebner witness does not recombine")
                self._reduced = tuple(reduced)
        return self._reduced

    def groebner_vectors(self):
        return tuple(vec for vec, _ in self.reduced_groebner())

    def contains(self, v: FreeVector):
        """(True, witness) with v = sum(witness[i] * generators[i]), or (False, None)."""
        if v.ring != self.ring or v.rank != self.rank:
            raise UsageError("vector rank or ring mismatch")
        if v.is_zero():
            return True, tuple(self.ring.zero() for _ in self.generators)
        if not self.generators:
            return False, None
        reduced = self.reduced_groebner()
        nf, combo = _normal_form_vs(self.ring, self.rank,
                                    [vec for vec, _ in reduced], v)
        if not nf.is_zero():
            return False, None
        witness = [self.ring.zero()] * len(self.generators)
        for idx, mult in combo.items():
            expr = reduced[idx][1]
            for a in range(len(witness)):
                witness[a] = witness[a] + mult * expr[a]
        check = FreeVector.zero(self.ring, self.rank)
        for coeff, gen in zip(witness, self.generators):
            check = check + gen.scale(coeff)
        if check != v:
            raise InternalInvariantError("membership witness does not recombine")
        return True, tuple(witness)

    def normal_form(self, v: FreeVector) -> FreeVector:
        if not self.generators:
            return v
        nf, _ = _normal_form_vs(self.ring, self.rank,
                                self.groebner_vectors(), v)
        return nf

    def equals(self, other: "SubmoduleHandle") -> bool:
        if self.ring != other.ring or self.rank != other.rank:
            return False
        return self.groebner_vectors() == other.groebner_vectors()

    def sort_key(self):
        return tuple(v.sort_key() for v in self.groebner_vectors())


def groebner_basis(S: SubmoduleHandle) -> SubmoduleHandle:
    """Handle whose generators are the reduced Groebner basis of S."""
    return SubmoduleHandle(S.ring, S.rank, S.groebner_vectors())


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
    ring, rank = S.ring, S.rank
    tracked = tuple(tracked)
    for t in tracked:
        if t.ring != ring or t.rank != rank:
            raise UsageError("vector rank or ring mismatch")
    k = len(tracked)
    tail = (ring.zero(),) * k
    augmented = [FreeVector(ring, t.comps + FreeVector.basis(ring, k, i).comps)
                 for i, t in enumerate(tracked)]
    augmented += [FreeVector(ring, s.comps + tail) for s in S.generators]
    basis = SubmoduleHandle(ring, rank + k, augmented).groebner_vectors()
    vectors = [FreeVector(ring, w.comps[rank:]) for w in basis
               if w.lead()[0] >= rank]
    for c in vectors:
        image = FreeVector.zero(ring, rank)
        for coeff, t in zip(c.comps, tracked):
            image = image + t.scale(coeff)
        if not S.contains(image)[0]:
            raise InternalInvariantError("preimage element maps outside S")
    return SubmoduleHandle(ring, k, vectors)


def syzygies(S: SubmoduleHandle) -> SubmoduleHandle:
    """Relations among the generators of S, as a submodule of R^len(gens)."""
    return preimage(S.generators, SubmoduleHandle(S.ring, S.rank, ()))


def colon(S: SubmoduleHandle, v: FreeVector) -> IdealHandle:
    """The ideal {r in R : r*v in S}, the preimage of S under r -> r*v."""
    return IdealHandle(S.ring, [c.comps[0] for c in preimage([v], S).generators])


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


def _wrap(ring, elements):
    return SubmoduleHandle(ring, 1, [FreeVector(ring, (e,)) for e in elements
                                     if not e.is_zero()])


def ideal_groebner(ring, generators):
    handle = _wrap(ring, generators)
    return [vec.comps[0] for vec in handle.groebner_vectors()]


def ideal_contains(ring, gb_elements, element) -> bool:
    nf, _ = _normal_form_vs(ring, 1,
                            [FreeVector(ring, (g,)) for g in gb_elements],
                            FreeVector(ring, (element,)))
    return nf.is_zero()
