"""Cyclic filtrations: the sampled annihilator lattice, the greedy minimal
search, and the constructor that peels a diagonal decomposition.

Reading pinned here (and echoed in every report):
  * the lattice is sampled as exactly the element annihilators Ann(x) for x
    over a bounded, canonically ordered coefficient pool;
  * the pool is enumerated only as far as bounds.sample_elements keeps it;
  * each class of a quotient, up to a unit, is annihilated once, into one
    table per quotient keyed by annihilator in order of first appearance;
    the classes are those `SubmoduleHandle.classes` yields for the pool;
    the sample takes one entry per key, a search stage reads its admissible
    and blocked ideals off the keys, and the first stage reuses the table
    its sample was built from;
  * a filtration step is admissible when its cyclic quotient annihilator
    equals a sampled lattice ideal of the ambient module;
  * minimality is stagewise: a step is minimal when no sampled candidate at
    that stage offered a strictly smaller annihilator.  Tie-breaks between
    incomparable ideals follow the canonical generator order.
NoneWithinBounds is always bound-relative; it is never a nonexistence proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .bounds import Bounds, applies_bounds
from .errors import InternalInvariantError, UsageError
from .groebner import FreeVector, SubmoduleHandle
from .homalg import (FPModule, element_annihilator, element_pool,
                     quotient_presentation)
from .linalg import RingMatrix
from .rings import IdealHandle, RingDescriptor, RingElement, divides

SEARCH_DEPTH_LIMIT = 12


# ---------------------------------------------------------------------------
# element enumeration and lattice sampling


def enumerate_elements(ring: RingDescriptor, rank: int, bounds: Bounds):
    """Canonically ordered nonzero vectors: integer coefficient combinations
    first (by height then position), then single monomial multiples.

    A combination is keyed by the positions of its values, and the
    combinations are built one layer of largest key at a time, only until
    the sample is full.  The zero module (rank 0) has no nonzero vector.
    """
    if rank == 0:
        return []
    pool = element_pool(ring, bounds)
    values = [ring.zero()] + pool[:2 * bounds.height]
    order = {v: i for i, v in enumerate(values)}
    out = []
    for top in sorted(set(order.values())):
        if len(out) >= bounds.sample_elements:
            break
        below = [v for v in values if order[v] <= top]
        layer = [c for c in product(below, repeat=rank)
                 if max(order[x] for x in c) == top
                 and any(not x.is_zero() for x in c)]
        layer.sort(key=lambda c: (sum(order[x] for x in c),
                                  tuple(order[x] for x in c)))
        out.extend(FreeVector(ring, c) for c in layer)
    for mono in pool[2 * bounds.height:]:
        for i in range(rank):
            comps = [ring.zero()] * rank
            comps[i] = mono
            out.append(FreeVector(ring, comps))
    return out[:bounds.sample_elements]


@dataclass(frozen=True)
class SampleEntry:
    element: FreeVector
    ideal: IdealHandle
    principal: bool
    principal_generator: RingElement = None

    def to_json(self):
        out = {"element": [str(c) for c in self.element.comps],
               "annihilator": self.ideal.to_json(),
               "principal": self.principal}
        if self.principal_generator is not None:
            out["principal_generator"] = str(self.principal_generator)
        return out


@dataclass(frozen=True)
class AnnihilatorSample:
    module: FPModule
    entries: tuple
    bounds: Bounds

    def ideals(self):
        """Distinct sampled annihilators, canonical order; `_lattice` keeps
        one entry per distinct ideal."""
        return [e.ideal for e in self.entries]

    def contains_ideal(self, ideal: IdealHandle) -> bool:
        return any(ideal == e.ideal for e in self.entries)

    def to_json(self):
        return {"bounds": self.bounds.to_json(),
                "entries": [e.to_json() for e in self.entries]}


def _unit_pool(M: FPModule, bounds: Bounds):
    """The element pool; over field coefficients, without the vectors that
    are unit multiples of an earlier one.

    There the normal form is linear and the reducer choice ignores the
    coefficient, so u*v has the class of v in every quotient and never
    comes first.  Over Z coefficients NF(-v) may differ from -NF(v), so the
    pool is kept whole.
    """
    pool = enumerate_elements(M.ring, M.gens, bounds)
    if not M.ring.coeffs.is_field:
        return pool
    zero = SubmoduleHandle(M.ring, M.gens, ())
    return [v for v, _ in zero.classes(pool)]


def _class_table(Q: FPModule, vectors):
    """{Ann: (v, classes)} over the nonzero classes of Q, keyed in order of
    first appearance: v is the first vector with that annihilator, and
    classes its distinct normal forms up to a unit, each annihilated once."""
    table = {}
    for v, cls in Q.handle().classes(vectors):
        table.setdefault(element_annihilator(Q, cls), (v, []))[1].append(cls)
    return table


def _lattice(M: FPModule, table, bounds: Bounds) -> AnnihilatorSample:
    """The unit entry, then one entry per ideal of the table; a nonzero
    class never has the unit ideal."""
    entries = []
    if M.gens:
        entries.append(SampleEntry(FreeVector.zero(M.ring, M.gens),
                                   IdealHandle(M.ring, [M.ring.one()]),
                                   True, M.ring.one()))
    for ideal, (v, _) in table.items():
        gen = ideal.principal_generator()
        entries.append(SampleEntry(v, ideal, gen is not None, gen))
    return AnnihilatorSample(M, tuple(entries), bounds)


@applies_bounds
def sample_lattice(M: FPModule, bounds: Bounds = None) -> AnnihilatorSample:
    """Annihilators of pooled elements, deduplicated per ideal.

    The enumeration is canonical, so the sample is reproducible.
    """
    return _lattice(M, _class_table(M, _unit_pool(M, bounds)), bounds)


@applies_bounds
def sample_basis_lattice(M: FPModule, bounds: Bounds = None) -> AnnihilatorSample:
    """Cheap sub-sample: annihilators of the ambient basis vectors only.

    Used to verify decomposition-built filtrations, whose quotient ideals are
    basis-vector annihilators by construction.
    """
    basis = [M.basis_vector(i) for i in range(M.gens)]
    return _lattice(M, _class_table(M, basis), bounds)


# ---------------------------------------------------------------------------
# filtrations


@dataclass(frozen=True)
class FiltrationStage:
    new_generator: FreeVector        # in the ambient free module of M
    quotient_ideal: IdealHandle
    minimality: dict = field(default_factory=dict)

    def to_json(self):
        return {"new_generator": [str(c) for c in self.new_generator.comps],
                "quotient_annihilator": self.quotient_ideal.to_json(),
                "minimality": self.minimality}


@dataclass(frozen=True)
class CyclicFiltration:
    """0 = M_0 < M_1 < ... < M_k = M with cyclic quotients M_i/M_{i-1}."""

    module: FPModule
    stages: tuple

    def submodule_generators(self, k: int):
        return [s.new_generator for s in self.stages[:k]]

    def quotient_ideals(self):
        return [s.quotient_ideal for s in self.stages]

    def to_json(self):
        return {"length": len(self.stages),
                "stages": [s.to_json() for s in self.stages]}


def verify_filtration(M: FPModule, filtration: CyclicFiltration,
                      sample: AnnihilatorSample) -> bool:
    """Re-check a filtration from scratch: strict inclusions, cyclic quotient
    annihilators as stated, lattice membership, and termination at M."""
    for k, stage in enumerate(filtration.stages):
        current = quotient_presentation(M, filtration.submodule_generators(k))
        nf = current.handle().normal_form(stage.new_generator)
        if nf.is_zero():
            return False  # inclusion not strict
        ideal = element_annihilator(current, stage.new_generator)
        if ideal != stage.quotient_ideal:
            return False
        if not ideal.is_proper():
            return False
        if not sample.contains_ideal(ideal):
            return False
    final = quotient_presentation(
        M, filtration.submodule_generators(len(filtration.stages)))
    return final.is_zero()


# ---------------------------------------------------------------------------
# construction from a diagonal decomposition


@dataclass
class DecompositionFiltration:
    filtration: CyclicFiltration
    module: FPModule
    dropped_units: tuple        # unit diagonal entries present zero summands
    peel_order: tuple           # indexes into the original entry list

    def to_json(self):
        return {"filtration": self.filtration.to_json(),
                "dropped_unit_entries": [str(u) for u in self.dropped_units],
                "peel_order": list(self.peel_order)}


def filtration_from_decomposition(lambdas) -> DecompositionFiltration:
    """Chain obtained by repeatedly peeling a divisibility-maximal entry.

    Among the remaining principal ideals, the smallest under inclusion (the
    entry every other remaining entry divides, when comparable) is peeled
    first; incomparable ties fall back to the canonical generator order.
    The complementary summands form the chain.
    """
    lambdas = list(lambdas)
    if not lambdas:
        raise UsageError("empty decomposition")
    ring = lambdas[0].ring
    for lam in lambdas:
        if lam.ring != ring:
            raise UsageError("decomposition entries over different rings")
        if lam.is_zero():
            raise UsageError("decomposition entries must be nonzero")
    matrix = RingMatrix.diagonal(ring, lambdas)
    M = FPModule.from_matrix(matrix)
    dropped = tuple(lam for lam in lambdas if lam.is_unit())
    remaining = [i for i, lam in enumerate(lambdas) if not lam.is_unit()]

    peel = []
    pool = list(remaining)
    while pool:
        minimal = []
        for j in pool:
            # (lambda_j) is minimal when no other remaining ideal sits
            # strictly inside it
            strictly_inside = any(
                i != j and divides(lambdas[j], lambdas[i])
                and not divides(lambdas[i], lambdas[j])
                for i in pool)
            if not strictly_inside:
                minimal.append(j)
        minimal.sort(key=lambda j: (lambdas[j].total_degree(),
                                    lambdas[j].sort_key(), j))
        choice = minimal[0]
        peel.append(choice)
        pool.remove(choice)

    stages = []
    for step, idx in enumerate(reversed(peel)):
        lam = lambdas[idx]
        ideal = IdealHandle(ring, [lam.canonical_associate()[1]])
        evidence = {
            "construction": "decomposition_peel",
            "entry_index": idx,
            "entry": str(lam),
            "compared_against": [str(lambdas[j]) for j in peel[:len(peel) - 1 - step]],
        }
        stages.append(FiltrationStage(
            new_generator=FreeVector.basis(ring, len(lambdas), idx),
            quotient_ideal=ideal,
            minimality=evidence))
    filtration = CyclicFiltration(M, tuple(stages))
    sample = sample_basis_lattice(M)
    if not verify_filtration(M, filtration, sample):
        raise InternalInvariantError("decomposition filtration failed verification")
    return DecompositionFiltration(filtration=filtration, module=M,
                                   dropped_units=dropped,
                                   peel_order=tuple(peel))


# ---------------------------------------------------------------------------
# greedy-with-backtracking minimal search


@dataclass(frozen=True)
class RejectedCandidate:
    stage: int
    chain_annihilators: tuple      # annihilators of the chain prefix, as strings
    element: tuple                 # component strings
    annihilator: dict
    reason: str                    # "not_minimal" | "dead_end"
    detail: dict = field(default_factory=dict)

    def to_json(self):
        return {"stage": self.stage,
                "chain_annihilators": list(self.chain_annihilators),
                "element": list(self.element),
                "annihilator": self.annihilator,
                "reason": self.reason,
                "detail": self.detail}


@dataclass
class FiltrationSearchResult:
    found: CyclicFiltration = None
    sample: AnnihilatorSample = None
    rejected: tuple = ()
    bounds: Bounds = None
    depth_limited: bool = False

    @property
    def verdict(self) -> str:
        return "found" if self.found is not None else "none_within_bounds"

    def to_json(self):
        out = {"verdict": self.verdict,
               "bounds": self.bounds.to_json() if self.bounds else None,
               "lattice_reading": "exact element annihilators, bounded sample",
               "minimality_reading":
                   "stagewise: no sampled strictly smaller annihilator",
               "rejected_candidates": [r.to_json() for r in self.rejected]}
        if self.found is not None:
            out["filtration"] = self.found.to_json()
        if self.depth_limited:
            out["depth_limited"] = True
        return out


@applies_bounds
def search_minimal_cyclic_filtration(M: FPModule,
                                     bounds: Bounds = None) -> FiltrationSearchResult:
    """Greedy search preferring inclusion-minimal quotient annihilators, with
    backtracking across candidates in the minimal layer.  Rejections are
    recorded: non-minimal candidates and dead-ended chains both appear in the
    result for inspection."""
    pool = _unit_pool(M, bounds)
    table = _class_table(M, pool)
    sample = _lattice(M, table, bounds)
    rejected = []
    depth_limited = False

    def chain_strings(stages):
        return tuple(str(s.quotient_ideal) for s in stages)

    def recurse(current_gens, stages):
        nonlocal depth_limited
        quotient = quotient_presentation(M, current_gens) if current_gens else M
        if quotient.is_zero():
            return CyclicFiltration(M, tuple(stages))
        if len(stages) >= SEARCH_DEPTH_LIMIT:
            depth_limited = True
            return None
        classes = _class_table(quotient, pool) if current_gens else table
        admissible = [(ideal, elements)
                      for ideal, (_, elements) in classes.items()
                      if sample.contains_ideal(ideal)]
        stage_no = len(stages) + 1
        if not admissible:
            # nothing is admissible, so every ideal of the table is blocked
            rejected.append(RejectedCandidate(
                stage=stage_no,
                chain_annihilators=chain_strings(stages),
                element=(),
                annihilator={},
                reason="dead_end",
                detail={"blocked_annihilators":
                        [ideal.to_json() for ideal in classes]}))
            return None
        minimal_layer = []
        for ideal, elements in admissible:
            smaller = [other for other, _ in admissible
                       if other is not ideal and other.is_subset_of(ideal)]
            if not smaller:
                minimal_layer.append((ideal, elements))
                continue
            rejected.append(RejectedCandidate(
                stage=stage_no,
                chain_annihilators=chain_strings(stages),
                element=tuple(str(c) for c in elements[0].comps),
                annihilator=ideal.to_json(),
                reason="not_minimal",
                detail={"smaller_sampled": [o.to_json() for o in smaller]}))
        minimal_layer.sort(key=lambda g: g[0].sort_key())
        layer_json = [ideal.to_json() for ideal, _ in minimal_layer]
        for ideal, elements in minimal_layer:
            for v in elements:
                stage = FiltrationStage(
                    new_generator=v,
                    quotient_ideal=ideal,
                    minimality={"stage_minimal_layer": layer_json,
                                "no_smaller_sampled": True})
                outcome = recurse(current_gens + [v], stages + [stage])
                if outcome is not None:
                    return outcome
                rejected.append(RejectedCandidate(
                    stage=stage_no,
                    chain_annihilators=chain_strings(stages),
                    element=tuple(str(c) for c in v.comps),
                    annihilator=ideal.to_json(),
                    reason="dead_end",
                    detail={"note": "no admissible continuation"}))
        return None

    found = recurse([], [])
    if found is not None and not verify_filtration(M, found, sample):
        raise InternalInvariantError("search filtration failed verification")
    return FiltrationSearchResult(found=found, sample=sample,
                                  rejected=tuple(rejected), bounds=bounds,
                                  depth_limited=depth_limited)
