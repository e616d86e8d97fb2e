"""Finitely presented modules and their homological invariants.

Modules are handled purely through presentations: M = R^g / (column span of
relations).  Submodules are generator lists inside the ambient R^g; quotients
append generators to the relations.

Verdicts are certified:
  * every Yes from is_isomorphic ships homs both ways, re-checked to be
    well defined and mutually inverse modulo relations;
  * every No carries an invariant mismatch (a Fitting ideal or the
    annihilator) that re-verifies independently; the transpose test has no
    No, since neither tells coker(m) from coker(m^T).  Specializing to Z, a
    field or a univariate PID adds no refutation: there a module is fixed
    by its Fitting ideals, which commute with base change, so equal Fitting
    ideals stay equal after any substitution;
  * Unknown is an honest output when the bounded candidate search runs out,
    never silently converted to No.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .bounds import Bounds, applies_bounds
from .errors import (DegenerateInputError, FullRankRequiredError,
                     InternalInvariantError, UsageError)
from .groebner import (FreeVector, SubmoduleHandle, colon, ideal_intersection,
                       preimage, syzygies)
from .linalg import (EquivalenceCertificate, RingMatrix, determinant,
                     fitting_ideal, inverse_unimodular, smith_normal_form)
from .rings import IdealHandle, RingDescriptor, RingElement


class FPModule:
    """Cokernel of the column span of a relations matrix inside R^gens."""

    __slots__ = ("ring", "gens", "relations", "_handle")

    def __init__(self, ring: RingDescriptor, gens: int, relations=()):
        if gens < 0:
            raise UsageError("generator count must be nonnegative")
        rels = []
        for v in relations:
            if not isinstance(v, FreeVector) or v.ring != ring or v.rank != gens:
                raise UsageError("relation does not live in the ambient module")
            if not v.is_zero():
                rels.append(v)
        self.ring = ring
        self.gens = gens
        self.relations = tuple(rels)
        self._handle = None

    # constructors -----------------------------------------------------------
    @staticmethod
    def from_matrix(m: RingMatrix) -> "FPModule":
        return FPModule(m.ring, m.nrows, m.columns())

    @staticmethod
    def cyclic(ring: RingDescriptor, annihilator_gens) -> "FPModule":
        vecs = [FreeVector(ring, (g,)) for g in annihilator_gens]
        return FPModule(ring, 1, vecs)

    @staticmethod
    def zero(ring: RingDescriptor) -> "FPModule":
        return FPModule(ring, 0, ())

    # views -------------------------------------------------------------------
    def handle(self) -> SubmoduleHandle:
        if self._handle is None:
            self._handle = SubmoduleHandle(self.ring, self.gens, self.relations)
        return self._handle

    def presentation_matrix(self):
        """gens x len(relations) matrix, or None when there are no relations."""
        if not self.relations or self.gens == 0:
            return None
        return RingMatrix(self.ring,
                          [[rel.comps[i] for rel in self.relations]
                           for i in range(self.gens)])

    def basis_vector(self, i: int) -> FreeVector:
        return FreeVector.basis(self.ring, self.gens, i)

    def is_zero(self) -> bool:
        if self.gens == 0:
            return True
        handle = self.handle()
        return all(handle.contains(self.basis_vector(i))[0]
                   for i in range(self.gens))

    def direct_sum(self, other: "FPModule") -> "FPModule":
        if other.ring != self.ring:
            raise UsageError("direct sum over different rings")
        g = self.gens + other.gens
        zero = self.ring.zero()
        rels = []
        for v in self.relations:
            rels.append(FreeVector(self.ring,
                                   v.comps + (zero,) * other.gens))
        for v in other.relations:
            rels.append(FreeVector(self.ring,
                                   (zero,) * self.gens + v.comps))
        return FPModule(self.ring, g, rels)

    def same_presentation(self, other: "FPModule") -> bool:
        return (self.ring == other.ring and self.gens == other.gens
                and self.handle().equals(other.handle()))

    def to_json(self) -> dict:
        return {"ring": self.ring.to_json(), "generators": self.gens,
                "relations": [[str(c) for c in v.comps] for v in self.relations]}

    def __repr__(self):
        return f"<FPModule gens={self.gens} relations={len(self.relations)}>"


# ---------------------------------------------------------------------------
# presentations of subquotients


def submodule_presentation(M: FPModule, generators) -> FPModule:
    """Presentation of the submodule of M generated by the given vectors."""
    gens = list(generators)
    for v in gens:
        if v.ring != M.ring or v.rank != M.gens:
            raise UsageError("submodule generator outside the ambient module")
    if not gens:
        return FPModule.zero(M.ring)
    return FPModule(M.ring, len(gens), preimage(gens, M.handle()).generators)


def quotient_presentation(M: FPModule, generators) -> FPModule:
    """Presentation of M / <generators>: append them to the relations."""
    gens = list(generators)
    for v in gens:
        if v.ring != M.ring or v.rank != M.gens:
            raise UsageError("submodule generator outside the ambient module")
    return FPModule(M.ring, M.gens, M.relations + tuple(gens))


# ---------------------------------------------------------------------------
# annihilators


def element_annihilator(M: FPModule, x: FreeVector) -> IdealHandle:
    """Ann(x) = {r : r*x lies in the relations}."""
    if x.ring != M.ring or x.rank != M.gens:
        raise UsageError("element outside the ambient module")
    return colon(M.handle(), x)


def annihilator(M: FPModule) -> IdealHandle:
    """Ann(M), the intersection of the annihilators of the generators.

    Every generator of the result is re-certified to kill each generator
    of M modulo the relations.
    """
    ring = M.ring
    if M.gens == 0:
        return IdealHandle(ring, [ring.one()])
    ann = element_annihilator(M, M.basis_vector(0))
    for i in range(1, M.gens):
        ann = ideal_intersection(ann, element_annihilator(M, M.basis_vector(i)))
    handle = M.handle()
    for r in ann.generators:
        for i in range(M.gens):
            ok, _ = handle.contains(M.basis_vector(i).scale(r))
            if not ok:
                raise InternalInvariantError("annihilator generator fails to kill")
    return ann


# ---------------------------------------------------------------------------
# duals, resolutions, Ext


def hom_dual_sequence(m: RingMatrix):
    """(Hom(M,R), Ext^1(M,R)) for M = coker(m) with m square of full rank.

    Hom(M,R) is the kernel of the transpose acting on R^n; for full rank it
    is zero, certified by an explicit syzygy computation.  Ext^1 is returned
    presented by the transpose itself.
    """
    if not m.is_square():
        raise FullRankRequiredError("square matrix required")
    det = determinant(m)
    if det.is_zero():
        raise FullRankRequiredError("determinant is zero")
    mt = m.transpose()
    syz = syzygies(SubmoduleHandle(m.ring, m.nrows, mt.columns()))
    if syz.generators:
        raise InternalInvariantError(
            "full-rank transpose has nonzero kernel; arithmetic bug")
    return FPModule.zero(m.ring), FPModule.from_matrix(mt)


@dataclass(frozen=True)
class FreeResolution:
    """0 <- M <- R^{r0} <- R^{r1} <- ... with differentials d1, d2, ...

    diffs[k] is d_{k+1}; complete means the last syzygy module was zero, so
    the resolution ends there.
    """

    module: FPModule
    diffs: tuple
    complete: bool

    @property
    def length(self) -> int:
        return len(self.diffs)

    def rank(self, i: int) -> int:
        if i == 0:
            return self.module.gens
        return self.diffs[i - 1].ncols

    def verify(self):
        for a, b in zip(self.diffs, self.diffs[1:]):
            prod = a * b
            if any(not e.is_zero() for row in prod.rows for e in row):
                raise InternalInvariantError("resolution differentials do not compose to zero")
        return True


def free_resolution(M: FPModule, length: int) -> FreeResolution:
    """Iterated syzygies up to the requested length (shorter when complete)."""
    if length < 1:
        raise UsageError("resolution length must be at least 1")
    diffs = []
    complete = False
    if not M.relations or M.gens == 0:
        return FreeResolution(M, (), True)
    current = M.presentation_matrix()
    diffs.append(current)
    while len(diffs) <= length:
        syz = syzygies(SubmoduleHandle(M.ring, current.nrows, current.columns()))
        if not syz.generators:
            complete = True
            break
        current = RingMatrix(M.ring,
                             [[w.comps[i] for w in syz.generators]
                              for i in range(current.ncols)])
        diffs.append(current)
    res = FreeResolution(M, tuple(diffs), complete)
    res.verify()
    return res


def ext(M: FPModule, i: int) -> FPModule:
    """Ext^i(M, R): homology of the dualized free resolution at spot i."""
    if i < 0:
        raise UsageError("ext index must be nonnegative")
    ring = M.ring
    res = free_resolution(M, i + 1)
    L = res.length
    if i > L:
        if not res.complete:
            raise InternalInvariantError("resolution neither long enough nor complete")
        return FPModule.zero(ring)
    rank_i = res.rank(i)
    std = [FreeVector.basis(ring, rank_i, k) for k in range(rank_i)]
    if i < L:
        dual_next = res.diffs[i].transpose()
        syz = syzygies(SubmoduleHandle(ring, dual_next.nrows, dual_next.columns()))
        kernel_gens = list(syz.generators)
    else:
        kernel_gens = std
    if i == 0:
        image_gens = []
    else:
        image_gens = res.diffs[i - 1].transpose().columns()
    if not kernel_gens:
        return FPModule.zero(ring)
    if kernel_gens == std:
        return FPModule(ring, rank_i, image_gens)
    return submodule_presentation(FPModule(ring, rank_i, image_gens),
                                  kernel_gens)


@dataclass(frozen=True)
class Grade:
    """Either an exact value, or AtLeast(bound) when the search ran out."""

    value: int = None
    at_least: int = None
    degenerate: bool = False

    def to_json(self):
        if self.value is not None:
            return {"value": self.value, "degenerate": self.degenerate}
        return {"at_least": self.at_least, "degenerate": self.degenerate}


def grade(M: FPModule, search_limit: int = 3) -> Grade:
    """Smallest i with Ext^i(M,R) nonzero; AtLeast(limit+1) when not found.

    The zero module reports AtLeast with a degenerate flag (its grade is
    conventionally infinite).  Square full-rank presentations with non-unit
    determinant short-circuit to 1 after certifying Hom(M,R) = 0.
    """
    if search_limit < 1:
        raise UsageError("search limit must be at least 1")
    if M.is_zero():
        return Grade(at_least=search_limit + 1, degenerate=True)
    pm = M.presentation_matrix()
    if pm is not None and pm.is_square():
        det = determinant(pm)
        if not det.is_zero() and not det.is_unit():
            hom, ext1 = hom_dual_sequence(pm)
            if ext1.is_zero():
                raise InternalInvariantError(
                    "non-unit determinant but zero cokernel of the transpose")
            return Grade(value=1)
    for i in range(search_limit + 1):
        if not ext(M, i).is_zero():
            return Grade(value=i)
    return Grade(at_least=search_limit + 1)


# ---------------------------------------------------------------------------
# homomorphisms


class ModuleHom:
    """A map of presented modules, given by a target.gens x source.gens matrix."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FPModule, target: FPModule, matrix):
        rows = tuple(tuple(r) for r in matrix)
        if len(rows) != target.gens or any(len(r) != source.gens for r in rows):
            raise UsageError("hom matrix has the wrong shape")
        for r in rows:
            for e in r:
                if not isinstance(e, RingElement) or e.ring != source.ring:
                    raise UsageError("hom entry from the wrong ring")
        self.source = source
        self.target = target
        self.matrix = rows

    def apply(self, v: FreeVector) -> FreeVector:
        ring = self.source.ring
        comps = []
        for p in range(self.target.gens):
            acc = ring.zero()
            for q in range(self.source.gens):
                acc = acc + self.matrix[p][q] * v.comps[q]
            comps.append(acc)
        return FreeVector(ring, comps)

    def column(self, q: int) -> FreeVector:
        return FreeVector(self.source.ring,
                          tuple(self.matrix[p][q] for p in range(self.target.gens)))

    def is_well_defined(self) -> bool:
        """Phi maps every source relation into the target relations."""
        handle = self.target.handle()
        return all(handle.contains(self.apply(rel))[0]
                   for rel in self.source.relations)

    def compose(self, inner: "ModuleHom") -> "ModuleHom":
        """self o inner (inner first)."""
        if inner.target is not self.source and inner.target.gens != self.source.gens:
            raise UsageError("homs do not compose")
        cols = [self.apply(inner.column(q)).comps
                for q in range(inner.source.gens)]
        return ModuleHom(inner.source, self.target,
                         [[col[p] for col in cols]
                          for p in range(self.target.gens)])

    def is_identity_mod_relations(self) -> bool:
        if self.source.gens != self.target.gens:
            return False
        handle = self.target.handle()
        for q in range(self.source.gens):
            diff = self.column(q) - FreeVector.basis(self.source.ring,
                                                     self.target.gens, q)
            if not handle.contains(diff)[0]:
                return False
        return True

    def certified_injective(self) -> bool:
        """True when the kernel provably lands inside the source relations."""
        columns = [self.column(q) for q in range(self.source.gens)]
        src_handle = self.source.handle()
        return all(src_handle.contains(c)[0]
                   for c in preimage(columns, self.target.handle()).generators)

    def image_equals(self, generators) -> bool:
        """Does the image, modulo target relations, equal the span of the
        given ambient vectors?"""
        ring = self.source.ring
        cols = [self.column(q) for q in range(self.source.gens)]
        lhs = SubmoduleHandle(ring, self.target.gens,
                              tuple(cols) + self.target.relations)
        rhs = SubmoduleHandle(ring, self.target.gens,
                              tuple(generators) + self.target.relations)
        return lhs.equals(rhs)

    def to_json(self):
        return {"matrix": [[str(e) for e in r] for r in self.matrix]}

    def sort_key(self):
        return tuple(tuple(e.sort_key() for e in r) for r in self.matrix)

    def __repr__(self):
        return f"<ModuleHom {self.matrix!r}>"


def _flat_index(target_gens, p, q):
    # matrix unknown (row p, column q), column-major in the source index
    return q * target_gens + p


@applies_bounds
def hom_module(M: FPModule, N: FPModule, bounds: Bounds = None) -> list:
    """A finite generating set of Hom(M, N), reduced modulo homotopies.

    Solves Phi . rel_M = rel_N . C columnwise as the preimage of the
    stacked columns of rel_N under Phi -> Phi . rel_M, then reduces the
    solutions modulo maps that factor through the relations of N.
    Every returned hom passes the well-definedness check.
    """
    ring = M.ring
    if N.ring != ring:
        raise UsageError("hom between modules over different rings")
    g, h = M.gens, N.gens
    if g == 0 or h == 0 or N.is_zero():
        return []
    r = len(M.relations)

    if r == 0:
        raw = [FreeVector.basis(ring, h * g, _flat_index(h, p, q))
               for p in range(h) for q in range(g)]
    else:
        stacked_rank = h * r
        unknowns = []
        for q in range(g):
            for p in range(h):
                comps = [ring.zero()] * stacked_rank
                for j, rel in enumerate(M.relations):
                    comps[j * h + p] = rel.comps[q]
                unknowns.append(FreeVector(ring, comps))
        targets = []
        for j in range(r):
            for brel in N.relations:
                comps = [ring.zero()] * stacked_rank
                for p in range(h):
                    comps[j * h + p] = brel.comps[p]
                targets.append(FreeVector(ring, comps))
        raw = preimage(unknowns,
                       SubmoduleHandle(ring, stacked_rank, targets)).generators

    # reduce modulo homotopies: matrices whose columns lie in rel_N
    homotopy = []
    for q in range(g):
        for brel in N.relations:
            comps = [ring.zero()] * (h * g)
            for p in range(h):
                comps[_flat_index(h, p, q)] = brel.comps[p]
            homotopy.append(FreeVector(ring, comps))
    hom_handle = SubmoduleHandle(ring, h * g, homotopy)

    out = []
    seen = set()
    for w in raw:
        nf = hom_handle.normal_form(w) if homotopy else w
        if nf.is_zero() or nf in seen:
            continue
        seen.add(nf)
        rows = [[nf.comps[_flat_index(h, p, q)] for q in range(g)]
                for p in range(h)]
        phi = ModuleHom(M, N, rows)
        if not phi.is_well_defined():
            raise InternalInvariantError("hom generator is not well defined")
        out.append(phi)
    out.sort(key=lambda phi: phi.sort_key())
    return out


# ---------------------------------------------------------------------------
# isomorphism testing


@dataclass(frozen=True)
class Obstruction:
    """A machine-checkable reason two modules cannot be isomorphic: an
    invariant ideal, by kind, that differs between them."""

    kind: str                  # "fitting" | "annihilator"
    detail: dict
    lhs_ideal: IdealHandle
    rhs_ideal: IdealHandle

    def verify(self) -> bool:
        from . import verifier
        return verifier.check_ideal_mismatch(self.lhs_ideal,
                                             self.rhs_ideal).valid

    def to_json(self):
        return {"kind": self.kind, **self.detail,
                "lhs_ideal": self.lhs_ideal.to_json(),
                "rhs_ideal": self.rhs_ideal.to_json()}


@dataclass
class IsoResult:
    verdict: str               # "yes" | "no" | "unknown"
    forward: ModuleHom = None
    inverse: ModuleHom = None
    obstruction: Obstruction = None
    bounds: Bounds = None

    def to_json(self):
        out = {"verdict": self.verdict}
        if self.forward is not None:
            out["forward"] = self.forward.to_json()
        if self.inverse is not None:
            out["inverse"] = self.inverse.to_json()
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction.to_json()
        if self.verdict == "unknown" and self.bounds is not None:
            out["bounds"] = self.bounds.to_json()
        return out


def module_fitting_ideal(M: FPModule, j: int) -> IdealHandle:
    """Fitting invariant: ideal of (gens - j)-minors of any presentation."""
    ring = M.ring
    size = M.gens - j
    if size <= 0:
        return IdealHandle(ring, [ring.one()])
    pm = M.presentation_matrix()
    if pm is None or size > pm.ncols:
        return IdealHandle(ring, [ring.zero()])
    return fitting_ideal(pm, size)


def element_pool(ring: RingDescriptor, bounds: Bounds):
    """Deterministic pool of small ring elements: integers, then monomials.

    The first 2 * bounds.height entries are the integers 1, -1, 2, -2, ...
    """
    out = []
    for c in range(1, bounds.height + 1):
        out.append(ring.from_int(c))
        out.append(ring.from_int(-c))
    if ring.nvars:
        monos = []
        for total in range(1, bounds.degree + 1):
            monos.extend(_monomials_of_degree(ring.nvars, total))
        monos.sort(key=ring.monomial_key)
        for exp in monos:
            for c in range(1, bounds.height + 1):
                out.append(ring.monomial(exp, ring.coeffs.from_int(c)))
                out.append(ring.monomial(exp, ring.coeffs.from_int(-c)))
    return out


def _monomials_of_degree(nvars, total):
    if nvars == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _monomials_of_degree(nvars - 1, total - first):
            out.append((first,) + rest)
    return out


def _certify_surjective(phi: ModuleHom):
    """Every target generator is hit; returns the preimage matrix or None."""
    ring = phi.source.ring
    g, h = phi.source.gens, phi.target.gens
    columns = [phi.column(q) for q in range(g)] + list(phi.target.relations)
    span = SubmoduleHandle(ring, h, columns)
    preimage_cols = []
    for p in range(h):
        ok, witness = span.contains(FreeVector.basis(ring, h, p))
        if not ok:
            return None
        preimage_cols.append(witness[:g])
    rows = [[preimage_cols[p][q] for p in range(h)] for q in range(g)]
    return rows


def _try_iso(phi: ModuleHom) -> "tuple[ModuleHom, ModuleHom] | None":
    """(phi, psi) when the well-defined phi is an isomorphism, else None.

    psi sends each target generator to its surjectivity witness.  It is
    accepted when it is well defined and psi o phi = id: a left inverse
    makes phi injective.  When phi is bijective, psi agrees with phi^-1 on
    the generators, so both checks hold and no kernel is computed.
    """
    pre = _certify_surjective(phi)
    if pre is None:
        return None
    psi = ModuleHom(phi.target, phi.source, pre)
    if not (psi.is_well_defined()
            and psi.compose(phi).is_identity_mod_relations()):
        return None
    if not phi.is_well_defined():
        raise InternalInvariantError("certified iso is ill defined")
    if not phi.compose(psi).is_identity_mod_relations():
        raise InternalInvariantError("inverse fails on the target generators")
    return phi, psi


def _iso_candidates(generators, ring, bounds: Bounds):
    """Deterministic candidate stream: single generators scaled from the
    pool, then two-generator integer combinations."""
    pool = element_pool(ring, bounds)
    k = len(generators)
    for t in range(k):
        yield generators[t].matrix
    for c in pool:
        for t in range(k):
            yield [[c * e for e in row] for row in generators[t].matrix]
    ints = pool[:2 * bounds.height]
    for t1 in range(k):
        for t2 in range(t1 + 1, k):
            for c1 in ints:
                for c2 in ints:
                    yield [[c1 * a + c2 * b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(generators[t1].matrix,
                                             generators[t2].matrix)]


def _unit_normal(entries):
    """entries scaled so that the first nonzero one has a canonical leading
    coefficient, as a key shared by all their unit multiples: entries itself
    when it already has, None when every entry is zero."""
    for e in entries:
        if not e.is_zero():
            dom = e.ring.coeffs
            unit = dom.canonical_unit(e.leading_coeff())
            if unit == dom.one():
                return entries
            inv = dom.invert_unit(unit)
            return tuple(x.scale(inv) for x in entries)
    return None


def _obstructions(M: FPModule, N: FPModule):
    """Each invariant that tells M and N apart: the Fitting ideals by index,
    then the annihilator.  An invariant is computed only when every earlier
    one agreed."""
    # Fitting ideals are isomorphism invariants of the module
    for j in range(max(M.gens, N.gens) + 1):
        lhs = module_fitting_ideal(M, j)
        rhs = module_fitting_ideal(N, j)
        if lhs != rhs:
            yield Obstruction("fitting", {"index": j}, lhs, rhs)

    lhs_ann = annihilator(M)
    rhs_ann = annihilator(N)
    if lhs_ann != rhs_ann:
        yield Obstruction("annihilator", {}, lhs_ann, rhs_ann)


@applies_bounds
def is_isomorphic(M: FPModule, N: FPModule, bounds: Bounds = None) -> IsoResult:
    """Certified isomorphism test; see the module docstring for the contract."""
    if M.ring != N.ring:
        raise UsageError("modules over different rings")
    trivial = _trivial_isomorphism(M, N)
    if trivial is not None:
        return trivial
    for obst in _obstructions(M, N):
        if not obst.verify():
            raise InternalInvariantError(f"{obst.kind} obstruction failed re-check")
        return IsoResult("no", obstruction=obst, bounds=bounds)
    return _search_isomorphism(M, N, bounds)


def _trivial_isomorphism(M: FPModule, N: FPModule) -> "IsoResult | None":
    """Yes by the identity when M and N share a presentation, by the zero
    map when both are zero; None otherwise."""
    ring = M.ring
    if M.gens == N.gens and M.same_presentation(N):
        ident = RingMatrix.identity(ring, M.gens).rows if M.gens else ()
        return IsoResult("yes", ModuleHom(M, N, ident), ModuleHom(N, M, ident))
    if M.is_zero() and N.is_zero():
        phi = ModuleHom(M, N, [[ring.zero()] * M.gens for _ in range(N.gens)])
        psi = ModuleHom(N, M, [[ring.zero()] * N.gens for _ in range(M.gens)])
        return IsoResult("yes", phi, psi)
    return None


def _search_isomorphism(M: FPModule, N: FPModule, bounds: Bounds) -> IsoResult:
    """Yes with the first certified isomorphism among the first
    bounds.iso_candidates candidate maps M -> N, else unknown.  Each
    candidate is an R-combination of well-defined hom_module generators."""
    generators = hom_module(M, N, bounds)
    candidates = _iso_candidates(generators, M.ring, bounds)
    tried = set()
    for matrix in islice(candidates, bounds.iso_candidates):
        # a unit multiple of a rejected map is no isomorphism either
        key = _unit_normal(tuple(e for row in matrix for e in row))
        if key is None or key in tried:
            continue
        tried.add(key)
        result = _try_iso(ModuleHom(M, N, matrix))
        if result is not None:
            return IsoResult("yes", *result)
    return IsoResult("unknown", bounds=bounds)


# ---------------------------------------------------------------------------
# quasi-Gorenstein decision


@dataclass
class QGResult:
    verdict: str                       # "yes" | "unknown"
    matrix_certificate: EquivalenceCertificate = None
    iso: IsoResult = None
    grade_value: int = None
    bounds: Bounds = None

    def to_json(self):
        out = {"verdict": self.verdict}
        if self.matrix_certificate is not None:
            out["transpose_equivalence"] = self.matrix_certificate.to_json()
            out["transpose_equivalence_verified"] = bool(
                self.matrix_certificate.verify())
        if self.iso is not None:
            out["module_isomorphism"] = self.iso.to_json()
        if self.grade_value is not None:
            out["grade"] = self.grade_value
        if self.verdict == "unknown" and self.bounds is not None:
            out["bounds"] = self.bounds.to_json()
        return out


def _signed_permutation_matrix(ring, perm, signs) -> RingMatrix:
    """The matrix whose row i has its one nonzero entry in column perm[i]:
    -1 where signs[i], else 1."""
    one = ring.one()
    rows = [[ring.zero()] * len(perm) for _ in perm]
    for i, (j, negated) in enumerate(zip(perm, signs)):
        rows[i][j] = -one if negated else one
    return RingMatrix(ring, rows)


def _signed_permutation_witness(m: RingMatrix) -> "EquivalenceCertificate | None":
    """The first signed permutation matrices P, Q with P*m*Q = m^T, or None.

    P runs over the permutations in lexicographic order, each with every
    sign pattern when n <= 3, starting at the identity, which witnesses a
    symmetric m.  Row i of P*m is row perm[i] of m, negated where signs[i].
    Column j of m^T is row j of m, so Q must send column i of P*m to the
    row of m that equals it, or its negation where signs are swept.  As m
    is invertible over the fraction field, no two of its rows agree up to
    sign, so that row is unique and Q is determined by P.  Where a row
    equals its own negation (characteristic 2) Q takes the sign +1.
    """
    from itertools import permutations, product
    ring, n = m.ring, m.nrows
    signs_pool = (False, True) if n <= 3 else (False,)
    signed_rows = {False: m.rows, True: (-m).rows}
    match = {}   # a column of P*m -> (j, negated) with column j of m^T
    for negated in reversed(signs_pool):
        for j, row in enumerate(signed_rows[negated]):
            match[tuple(row)] = (j, negated)
    for perm in permutations(range(n)):
        for signs in product(signs_pool, repeat=n):
            pm = [signed_rows[s][r] for r, s in zip(perm, signs)]
            q = [match.get(tuple(row[i] for row in pm)) for i in range(n)]
            if None in q:
                continue
            cert = EquivalenceCertificate(
                source=m, left=_signed_permutation_matrix(ring, perm, signs),
                right=_signed_permutation_matrix(ring, *zip(*q)),
                target=m.transpose())
            if not cert.verify().valid:
                raise InternalInvariantError("permutation certificate invalid")
            return cert
    return None


def transpose_equivalence_from_diagonal(cert: EquivalenceCertificate) -> EquivalenceCertificate:
    """From P*m*Q = D diagonal derive a verified certificate m ~ m^T.

    Transposing gives Q^T*m^T*P^T = D, so m^T = (Q^T)^-1 * P * m * Q * (P^T)^-1.
    """
    if not cert.target.is_diagonal():
        raise UsageError("certificate target is not diagonal")
    check = cert.verify()
    if not check.valid:
        raise UsageError(f"input certificate invalid: {check.reason}")
    qt_inv = inverse_unimodular(cert.right.transpose())
    pt_inv = inverse_unimodular(cert.left.transpose())
    out = EquivalenceCertificate(
        source=cert.source,
        left=qt_inv * cert.left,
        right=cert.right * pt_inv,
        target=cert.source.transpose())
    result = out.verify()
    if not result.valid:
        raise InternalInvariantError(
            f"derived transpose certificate invalid: {result.reason}")
    return out


@applies_bounds
def is_quasi_gorenstein(m: RingMatrix, bounds: Bounds = None) -> QGResult:
    """Decide coker(m) isomorphic to coker(m^T) for square full-rank m.

    A verified matrix equivalence P*m*Q = m^T is the preferred witness; the
    bounded module-isomorphism search is the fallback.  Yes verdicts include
    the grade-one certification.  The answer is yes or unknown, never no:
    no invariant is checked, because the Fitting ideals and the annihilator
    of coker(m) and coker(m^T) agree.
    """
    if not m.is_square():
        raise FullRankRequiredError("square matrix required")
    det = determinant(m)
    if det.is_zero():
        raise FullRankRequiredError("determinant is zero")
    if det.is_unit():
        raise DegenerateInputError("unit determinant presents the zero module")

    # grade = pd = 1: kernel of the transpose vanishes, cokernel does not
    hom_dual_sequence(m)

    def _yes(cert=None, iso=None):
        return QGResult("yes", matrix_certificate=cert, iso=iso,
                        grade_value=1, bounds=bounds)

    cert = _signed_permutation_witness(m)
    if cert is not None:
        return _yes(cert=cert)

    if m.ring.is_euclidean():
        snf = smith_normal_form(m)
        cert = transpose_equivalence_from_diagonal(snf.certificate)
        return _yes(cert=cert)

    M, N = FPModule.from_matrix(m), FPModule.from_matrix(m.transpose())
    iso = _trivial_isomorphism(M, N) or _search_isomorphism(M, N, bounds)
    if iso.verdict == "yes":
        return _yes(iso=iso)
    return QGResult("unknown", bounds=bounds)


# ---------------------------------------------------------------------------
# splitting


@dataclass
class SplitResult:
    verdict: str                       # "split" | "not_split" | "unknown"
    iso: IsoResult = None
    obstruction: Obstruction = None
    bounds: Bounds = None

    def to_json(self):
        out = {"verdict": self.verdict}
        if self.iso is not None:
            out["isomorphism"] = self.iso.to_json()
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction.to_json()
        return out


@applies_bounds
def split_test(M: FPModule, sub_generators, quotient: FPModule = None,
               bounds: Bounds = None) -> SplitResult:
    """Does M split as the given submodule plus its quotient?"""
    sub = submodule_presentation(M, sub_generators)
    quo = quotient if quotient is not None else quotient_presentation(M, sub_generators)
    total = sub.direct_sum(quo)
    iso = is_isomorphic(M, total, bounds)
    if iso.verdict == "yes":
        return SplitResult("split", iso=iso, bounds=bounds)
    if iso.verdict == "no":
        return SplitResult("not_split", iso=iso, obstruction=iso.obstruction,
                           bounds=bounds)
    return SplitResult("unknown", iso=iso, bounds=bounds)
