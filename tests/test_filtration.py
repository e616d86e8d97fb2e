import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from diagcert import filtration, groebner, homalg
from diagcert.bounds import Bounds
from diagcert.cli import main
from diagcert.errors import UsageError
from diagcert.filtration import (AnnihilatorSample, SampleEntry,
                                 enumerate_elements,
                                 filtration_from_decomposition, sample_lattice,
                                 search_minimal_cyclic_filtration,
                                 verify_filtration)
from diagcert.groebner import FreeVector
from diagcert.homalg import (FPModule, annihilator, element_annihilator,
                             quotient_presentation)
from diagcert.jsonio import dumps, load_document, matrix_from_json, \
    module_from_json
from diagcert.linalg import RingMatrix
from diagcert.rings import ZZ, IdealHandle, RingDescriptor
from test_groebner import PROPERTY_RINGS, PROPERTY_SETTINGS, elements


def vec(ring, *texts):
    return FreeVector(ring, tuple(ring.parse(t) for t in texts))


def ideal_strs(sample):
    return sorted(repr(i) for i in sample.ideals())


def test_sample_z4(zz):
    z4 = FPModule.from_matrix(RingMatrix.parse(zz, [["4"]]))
    sample = sample_lattice(z4)
    assert ideal_strs(sample) == ["(1)", "(2)", "(4)"]


def test_sample_jordan(qxy):
    M = FPModule.from_matrix(RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]]))
    sample = sample_lattice(M)
    assert ideal_strs(sample) == ["(1)", "(x)", "(x^2)"]
    by_ideal = {repr(e.ideal): e for e in sample.entries}
    assert by_ideal["(x)"].principal and str(by_ideal["(x)"].principal_generator) == "x"
    assert by_ideal["(x^2)"].principal


def test_sample_diag23(zz):
    d23 = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "3"]]))
    names = ideal_strs(sample_lattice(d23))
    assert "(2)" in names and "(3)" in names and "(6)" in names


def test_sample_reproducible(qxy):
    M = FPModule.from_matrix(RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]]))
    a = sample_lattice(M).to_json()
    b = sample_lattice(M).to_json()
    assert a == b


def test_quotient_presentation_fixtures(qxy):
    M = FPModule.from_matrix(RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]]))
    assert quotient_presentation(M, []).same_presentation(M)
    killed = quotient_presentation(M, [vec(qxy, "1", "0"), vec(qxy, "0", "1")])
    assert killed.is_zero()


def test_decomposition_coprime_pair(zz):
    out = filtration_from_decomposition([zz.from_int(2), zz.from_int(3)])
    ideals = [repr(i) for i in out.filtration.quotient_ideals()]
    assert ideals == ["(3)", "(2)"]    # 2 peeled first by the tie-break
    assert out.peel_order == (0, 1)
    assert not out.dropped_units


def test_decomposition_single_entry(qxy):
    out = filtration_from_decomposition([qxy.parse("x")])
    assert [repr(i) for i in out.filtration.quotient_ideals()] == ["(x)"]


def test_decomposition_nested_ideals(qxy):
    out = filtration_from_decomposition([qxy.parse("x"), qxy.parse("x^2")])
    # the smaller ideal (x^2) is peeled first, so it is the top quotient
    assert out.peel_order[0] == 1
    assert [repr(i) for i in out.filtration.quotient_ideals()] == ["(x)", "(x^2)"]


def test_decomposition_drops_units(qxy):
    out = filtration_from_decomposition([qxy.parse("1"), qxy.parse("x")])
    assert [str(u) for u in out.dropped_units] == ["1"]
    assert [repr(i) for i in out.filtration.quotient_ideals()] == ["(x)"]


def test_decomposition_rejects_zero(qxy):
    with pytest.raises(UsageError):
        filtration_from_decomposition([qxy.zero()])


def test_decomposition_passes_shared_verifier(zz, qxy):
    from diagcert.filtration import sample_basis_lattice
    for entries in ([zz.from_int(2), zz.from_int(3)],
                    [zz.from_int(2), zz.from_int(4)]):
        out = filtration_from_decomposition(entries)
        sample = sample_basis_lattice(out.module)
        assert verify_filtration(out.module, out.filtration, sample)
    out = filtration_from_decomposition([qxy.parse("x"), qxy.parse("x*y")])
    from diagcert.filtration import sample_basis_lattice as sbl
    assert verify_filtration(out.module, out.filtration, sbl(out.module))


def test_search_z4_minimal_is_length_one(zz):
    z4 = FPModule.from_matrix(RingMatrix.parse(zz, [["4"]]))
    result = search_minimal_cyclic_filtration(z4)
    assert result.verdict == "found"
    assert [repr(i) for i in result.found.quotient_ideals()] == ["(4)"]
    # the two-step chain through (2) was rejected as non-minimal
    assert any(r.reason == "not_minimal" and r.annihilator.get("groebner") == ["2"]
               for r in result.rejected)


def test_search_diag23_finds_cyclic_chain(zz):
    d23 = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "3"]]))
    result = search_minimal_cyclic_filtration(d23)
    assert result.verdict == "found"
    assert [repr(i) for i in result.found.quotient_ideals()] == ["(6)"]
    gen = result.found.stages[0].new_generator
    assert [str(c) for c in gen.comps] == ["1", "1"]


def test_search_jordan_none_within_bounds(qxy):
    M = FPModule.from_matrix(RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]]))
    result = search_minimal_cyclic_filtration(M)
    assert result.verdict == "none_within_bounds"
    # first displayed shape: a submodule with annihilator (x) was available
    # but rejected because the strictly smaller (x^2) was sampled
    assert any(r.reason == "not_minimal"
               and r.annihilator.get("groebner") == ["x"]
               and ["x^2"] in [s.get("groebner") for s in
                               r.detail.get("smaller_sampled", [])]
               for r in result.rejected)
    # second displayed shape: the chain through (x^2) dead-ends at a quotient
    # whose only annihilator (x, y) is outside the sampled lattice
    assert any(r.reason == "dead_end"
               and list(r.chain_annihilators) == ["(x^2)"]
               and any(sorted(b.get("groebner", [])) == ["x", "y"]
                       for b in r.detail.get("blocked_annihilators", []))
               for r in result.rejected)


def test_search_found_chains_reverify(zz):
    d23 = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "3"]]))
    result = search_minimal_cyclic_filtration(d23)
    assert verify_filtration(d23, result.found, result.sample)


def test_search_triangular_int_is_cyclic(zx):
    M = FPModule.from_matrix(RingMatrix.parse(zx, [["2", "x"], ["0", "3"]]))
    result = search_minimal_cyclic_filtration(M)
    assert result.verdict == "found"
    assert [repr(i) for i in result.found.quotient_ideals()] == ["(6)"]


def test_quotient_annihilator_product_kills_module(zz):
    d24 = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "4"]]))
    result = search_minimal_cyclic_filtration(d24)
    assert result.found is not None
    product = zz.one()
    for ideal in result.found.quotient_ideals():
        gen = ideal.principal_generator()
        assert gen is not None
        product = product * gen
    assert annihilator(d24).contains(product)


def test_search_deterministic(qxy):
    M = FPModule.from_matrix(RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]]))
    a = search_minimal_cyclic_filtration(M).to_json()
    b = search_minimal_cyclic_filtration(M).to_json()
    assert a == b


# -- one annihilator per element class ----------------------------------------


# modules given here rather than as files under fixtures/
INLINE_DOCUMENTS = {
    "f5_triangular": {
        "schema": "diagcert/1",
        "ring": {"kind": "polynomial", "coefficients": {"prime_field": 5},
                 "variables": ["x", "y"], "order": "grevlex"},
        "matrix": [["x^2", "2*y"], ["0", "x + y"]]},
    "zx_jordan": {
        "schema": "diagcert/1",
        "ring": {"kind": "polynomial", "coefficients": "integers",
                 "variables": ["x"], "order": "lex"},
        "matrix": [["x", "2"], ["0", "x"]]},
}


def fixture_module(fixtures_dir, name):
    doc = INLINE_DOCUMENTS.get(name) or \
        load_document(str(fixtures_dir / f"{name}.json"))
    if "matrix" in doc:
        return FPModule.from_matrix(matrix_from_json(doc)[0])
    return module_from_json(doc)


# sha256 of the dumps bytes, taken while the sample, the basis sample and each
# search stage still annihilated every pooled vector separately; re-pinned
# without the deleted `seed` key of each echoed `bounds` object
PINNED_DIGESTS = {
    ("jordan_block", "sample_lattice"):
        "ba6a3f939b578d54e499eadd38d9d2b161d4bfe700dc1f3bf7108f1ab6784bf8",
    ("jordan_block", "sample_basis_lattice"):
        "833fa5ac026e682136665299c80503b803b662876e3debc65b5bdc20bffb08e6",
    ("jordan_block", "search_minimal_cyclic_filtration"):
        "8107ea2ffb458079058276bf5682e846829726e3aed85258758df2cfd15c896e",
    ("z4", "sample_lattice"):
        "6d6f1ccec63a81e299d866126b134213be316d331238d4fdc168018bee8b18d5",
    ("z4", "sample_basis_lattice"):
        "52f3f1af48884e4ae88f5de6d18122f7bc2597b5977573598a2628949fc4f35b",
    ("z4", "search_minimal_cyclic_filtration"):
        "aa20efa83de73a51e5c62db53f04310bfe61b888b9c81c7143e8f5c9265e1701",
    # taken before the pool dropped unit multiples over field coefficients
    ("f5_triangular", "sample_lattice"):
        "1a681749e16f277fe05534a10ff46d1018dc62f78fddb9ac45feb8bbc01203d5",
    ("f5_triangular", "sample_basis_lattice"):
        "e0b61bb9cbbbe9c9cc6cd3582b08ad272781f857cbfd3c44df2fb4f9b06c34bc",
    ("f5_triangular", "search_minimal_cyclic_filtration"):
        "6532e8c5390d2f3df6461637e792ef4c10aa0dc523605702cd145fa09ee5b9c7",
}


@pytest.mark.parametrize("name, function", sorted(PINNED_DIGESTS))
def test_filtration_bytes_pinned(fixtures_dir, name, function):
    M = fixture_module(fixtures_dir, name)
    text = dumps(getattr(filtration, function)(M).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PINNED_DIGESTS[name, function]



# scramble 16 of the seed-1 analyze-full benchmark (a Q[x,y] core with one
# add below the diagonal): four finite-length quotients of 17 to 20 classes
# each, whose colons take the linear-algebra path; sha256 of the analyze
# --json bytes, taken while every colon came from an elimination basis, and
# re-pinned without the deleted `seed` key of each echoed `bounds` object
FINITE_LENGTH_ANALYZE = {
    "ring": {"kind": "polynomial", "coefficients": "rationals",
             "variables": ["x", "y"], "order": "grevlex"},
    "matrix": [["x", "y"], ["-2*x", "x - 2*y"]]}
FINITE_LENGTH_ANALYZE_SHA256 = \
    "4a5969deee8fe9f9bc042044f33893b22ea5ba1e6b6e60f15f0a3c3f6d63cbe4"


def test_finite_length_analyze_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "scramble.json"
    path.write_text(dumps(dict(FINITE_LENGTH_ANALYZE, schema="diagcert/1")))
    assert main(["analyze", "--input", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        FINITE_LENGTH_ANALYZE_SHA256

def test_search_annihilates_each_class_once(fixtures_dir, monkeypatch):
    M = fixture_module(fixtures_dir, "jordan_block")
    annihilated, enumerations = [], []
    real_annihilator = filtration.element_annihilator
    real_enumerate = filtration.enumerate_elements

    def counting_annihilator(Q, x):
        cls = filtration._unit_normal(Q.handle().normal_form(x).comps)
        annihilated.append((Q.relations, cls))
        return real_annihilator(Q, x)

    def counting_enumerate(*args):
        enumerations.append(args)
        return real_enumerate(*args)

    monkeypatch.setattr(filtration, "element_annihilator", counting_annihilator)
    monkeypatch.setattr(filtration, "enumerate_elements", counting_enumerate)
    result = search_minimal_cyclic_filtration(M)
    assert result.verdict == "none_within_bounds"
    # verify_filtration re-checks found chains on its own; none is found here
    assert len(annihilated) == len(set(annihilated))
    assert len(enumerations) == 1


def reference_class_table(Q, vectors):
    """The class table built on FreeVectors: each normal form from
    handle.normal_form, made unit-normal by homalg._unit_normal."""
    handle = Q.handle()
    seen, table = set(), {}
    for v in vectors:
        nf = handle.normal_form(v)
        comps = homalg._unit_normal(nf.comps)
        if comps is None:
            continue
        nf = FreeVector(Q.ring, comps)
        if nf not in seen:
            seen.add(nf)
            table.setdefault(element_annihilator(Q, nf), (v, []))[1].append(nf)
    return table


@pytest.mark.parametrize("name", ["jordan_block", "triangular_int",
                                  "zx_jordan"])
def test_class_table_matches_the_vector_reference(fixtures_dir, monkeypatch,
                                                  name):
    # over Z[x] the unit scaling flips signs: zx_jordan's quotients have
    # normal forms with a negative lead, triangular_int's do not
    M = fixture_module(fixtures_dir, name)
    real_class_table = filtration._class_table
    quotients = []

    def checked_class_table(Q, vectors):
        table = real_class_table(Q, vectors)
        reference = reference_class_table(Q, vectors)
        assert list(table) == list(reference)
        assert list(table.values()) == list(reference.values())
        quotients.append(Q.relations)
        return table

    monkeypatch.setattr(filtration, "_class_table", checked_class_table)
    search_minimal_cyclic_filtration(M)
    assert len(quotients) > 1


@pytest.mark.parametrize("ring", [ZZ, RingDescriptor.polynomial(
    "rationals", ["x", "y"], "grevlex")], ids=repr)
def test_zero_module_has_the_empty_filtration(ring):
    M = FPModule(ring, 0, [])
    assert enumerate_elements(ring, 0, Bounds()) == []
    assert sample_lattice(M).entries == ()
    result = search_minimal_cyclic_filtration(M)
    assert result.verdict == "found"
    assert result.found.stages == ()
    assert result.to_json()["filtration"]["length"] == 0


def test_unit_pool_drops_unit_multiples_over_fields_only(fixtures_dir, zx):
    M = fixture_module(fixtures_dir, "f5_triangular")
    bounds = Bounds()
    full = enumerate_elements(M.ring, M.gens, bounds)
    pool = filtration._unit_pool(M, bounds)
    classes = [filtration._unit_normal(v.comps) for v in pool]
    assert len(set(classes)) == len(pool) < len(full)
    rest = iter(full)      # the pool keeps the order of the enumeration
    assert all(any(v == w for w in rest) for v in pool)
    N = FPModule.from_matrix(RingMatrix.parse(zx, [["2", "x"], ["0", "3"]]))
    assert filtration._unit_pool(N, bounds) == \
        enumerate_elements(zx, N.gens, bounds)


ORACLE_BOUNDS = Bounds(degree=1, height=2, sample_elements=40)


def naive_sample_json(M, bounds):
    """The sample by its definition: annihilate every pooled vector with a
    nonzero class and keep the first vector of each new ideal."""
    one = M.ring.one()
    entries = [SampleEntry(FreeVector.zero(M.ring, M.gens),
                           IdealHandle(M.ring, [one]), True, one)]
    for v in enumerate_elements(M.ring, M.gens, bounds):
        if M.handle().contains(v)[0]:
            continue
        ideal = element_annihilator(M, v)
        if all(ideal != e.ideal for e in entries):
            gen = ideal.principal_generator()
            entries.append(SampleEntry(v, ideal, gen is not None, gen))
    return AnnihilatorSample(M, tuple(entries), bounds).to_json()


@st.composite
def presentations(draw):
    """Cokernels of 2x2 matrices with entries of degree at most 1."""
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    entries = draw(st.lists(elements(ring), min_size=4, max_size=4))
    return FPModule.from_matrix(RingMatrix(ring, [entries[:2], entries[2:]]))


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(presentations())
def test_sample_matches_naive_definition(M):
    assert sample_lattice(M, ORACLE_BOUNDS).to_json() == \
        naive_sample_json(M, ORACLE_BOUNDS)


def test_search_computes_no_basis_of_a_colon_ideal(fixtures_dir, monkeypatch):
    # a colon ideal arrives with its reduced basis, so the search never
    # hands one back to ideal_groebner
    built = []
    basis_calls = []

    def spy_colon(S, v, _colon=groebner.colon):
        ideal = _colon(S, v)
        built.append(ideal)
        return ideal

    def spy_ideal_groebner(ring, generators, _gb=groebner.ideal_groebner):
        basis_calls.append(generators)
        return _gb(ring, generators)

    monkeypatch.setattr(groebner, "colon", spy_colon)
    monkeypatch.setattr(homalg, "colon", spy_colon)
    monkeypatch.setattr(groebner, "ideal_groebner", spy_ideal_groebner)
    search_minimal_cyclic_filtration(fixture_module(fixtures_dir, "jordan_block"))
    assert built
    assert not [gens for gens in basis_calls
                if any(gens is ideal.generators for ideal in built)]


def reference_enumerate_elements(ring, rank, bounds):
    """The enumeration as first written: every integer combination is built
    and sorted, then the sample is cut."""
    pool = homalg.element_pool(ring, bounds)
    values = [ring.zero()] + pool[:2 * bounds.height]
    order = {v: i for i, v in enumerate(values)}
    combos = [c for c in itertools.product(values, repeat=rank)
              if any(not x.is_zero() for x in c)]
    combos.sort(key=lambda c: (max(order[x] for x in c),
                               sum(order[x] for x in c),
                               tuple(order[x] for x in c)))
    out = [FreeVector(ring, c) for c in combos]
    for mono in pool[2 * bounds.height:]:
        for i in range(rank):
            comps = [ring.zero()] * rank
            comps[i] = mono
            out.append(FreeVector(ring, comps))
    return out[:bounds.sample_elements]


# over F_2, F_3 and F_5 distinct pool integers coincide, so the enumeration
# repeats vectors; the repeats must survive in place
ENUMERATION_RINGS = [
    ZZ,
    RingDescriptor.polynomial("rationals", ["x", "y"], "grevlex"),
    RingDescriptor.polynomial(2, ["x"], "lex"),
    RingDescriptor.polynomial(3, ["x", "y"], "grevlex"),
    RingDescriptor.polynomial(5, ["x", "y"], "grevlex"),
    RingDescriptor.polynomial("integers", ["x"], "lex"),
]


@pytest.mark.parametrize("ring", ENUMERATION_RINGS, ids=repr)
def test_enumeration_matches_the_full_sort(ring):
    for rank, height, degree in itertools.product(range(1, 6), range(1, 4),
                                                  range(1, 3)):
        full = reference_enumerate_elements(
            ring, rank, Bounds(degree=degree, height=height,
                               sample_elements=10 ** 9))
        for kept in (1, 7, 40, 500):
            bounds = Bounds(degree=degree, height=height, sample_elements=kept)
            assert enumerate_elements(ring, rank, bounds) == full[:kept], \
                (rank, height, degree, kept)


def test_enumeration_builds_only_what_it_keeps(monkeypatch):
    built = []

    def counting_product(*args, **kwargs):
        for combo in itertools.product(*args, **kwargs):
            built.append(combo)
            yield combo

    monkeypatch.setattr(filtration, "product", counting_product)
    out = enumerate_elements(ZZ, 8, Bounds())
    assert len(out) == Bounds().sample_elements
    # the full product would be 7^8 = 5,764,801 tuples
    assert len(built) <= 10_000
