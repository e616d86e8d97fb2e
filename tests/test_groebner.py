import random
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from diagcert import groebner, homalg
from diagcert.bounds import Bounds, applies_bounds
from diagcert.errors import (InternalInvariantError, StepBudgetExceeded,
                             UsageError)
from diagcert.filtration import search_minimal_cyclic_filtration
from diagcert.groebner import (FreeVector, SubmoduleHandle, colon,
                               groebner_basis, ideal_intersection, membership,
                               preimage, syzygies)
from diagcert.jsonio import load_document, matrix_from_json
from diagcert.rings import IdealHandle, RingDescriptor, RingElement, ZZ


def vec(ring, *texts):
    return FreeVector(ring, tuple(ring.parse(t) for t in texts))


def ideal_strs(handle):
    return sorted(str(g) for g in handle.groebner())


def test_reduced_basis_lex_fixture(qxy_lex):
    ideal = IdealHandle(qxy_lex, [qxy_lex.parse("x*y - 1"),
                                  qxy_lex.parse("y^2 - 1")])
    assert ideal_strs(ideal) == ["x - y", "y^2 - 1"]


def test_already_reduced(qxy):
    ideal = IdealHandle(qxy, [qxy.parse("x"), qxy.parse("y")])
    assert ideal_strs(ideal) == ["x", "y"]


def test_strong_basis_collapses_to_unit(zx):
    ideal = IdealHandle(zx, [zx.parse("2"), zx.parse("3"), zx.parse("x")])
    assert ideal_strs(ideal) == ["1"]


def test_strong_basis_over_zx(zx):
    ideal = IdealHandle(zx, [zx.parse("2"), zx.parse("x")])
    assert ideal_strs(ideal) == ["2", "x"]
    assert not ideal.contains(zx.one())


def test_membership_with_witness(qxy):
    S = SubmoduleHandle(qxy, 1, [vec(qxy, "x"), vec(qxy, "y")])
    ok, witness = membership(vec(qxy, "x^2 + y"), S)
    assert ok
    total = qxy.zero()
    for w, g in zip(witness, S.generators):
        total = total + w * g.comps[0]
    assert total == qxy.parse("x^2 + y")


def test_membership_negative_over_zx(zx):
    S = SubmoduleHandle(zx, 1, [vec(zx, "2"), vec(zx, "x")])
    ok, witness = membership(vec(zx, "1"), S)
    assert not ok and witness is None


def test_membership_column_span(qxy):
    cols = [vec(qxy, "x", "0"), vec(qxy, "y", "x")]
    S = SubmoduleHandle(qxy, 2, cols)
    ok, witness = membership(vec(qxy, "0", "x^2"), S)
    assert ok
    recomb = [qxy.zero(), qxy.zero()]
    for w, g in zip(witness, cols):
        recomb[0] = recomb[0] + w * g.comps[0]
        recomb[1] = recomb[1] + w * g.comps[1]
    assert str(recomb[0]) == "0" and str(recomb[1]) == "x^2"


def test_koszul_syzygy(qxy):
    S = SubmoduleHandle(qxy, 1, [vec(qxy, "x"), vec(qxy, "y")])
    syz = syzygies(S)
    gens = [tuple(str(c) for c in w.comps) for w in syz.generators]
    assert gens == [("y", "-x")] or gens == [("-y", "x")]


def test_syzygy_of_single_generator_is_zero(qxy):
    syz = syzygies(SubmoduleHandle(qxy, 1, [vec(qxy, "x^2 + y")]))
    assert not syz.generators


def test_syzygy_of_full_rank_columns_is_zero(zx):
    cols = [vec(zx, "2", "0"), vec(zx, "x", "3")]
    assert not syzygies(SubmoduleHandle(zx, 2, cols)).generators


def test_syzygies_annihilate_generators_random(qxy, zx):
    rng = random.Random(21)
    for ring in (qxy, zx):
        for _ in range(15):
            rank = rng.randint(1, 2)
            gens = []
            for _ in range(rng.randint(2, 3)):
                comps = []
                for _ in range(rank):
                    e = ring.zero()
                    for _ in range(rng.randint(0, 2)):
                        exp = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
                        e = e + ring.monomial(exp, ring.coeffs.from_int(rng.randint(-3, 3)))
                    comps.append(e)
                gens.append(FreeVector(ring, comps))
            syz = syzygies(SubmoduleHandle(ring, rank, gens))
            for w in syz.generators:
                total = FreeVector.zero(ring, rank)
                for coeff, g in zip(w.comps, gens):
                    total = total + g.scale(coeff)
                assert total.is_zero()


def test_zero_generators_keep_positions(qxy):
    gens = [vec(qxy, "x"), vec(qxy, "0"), vec(qxy, "y")]
    syz = syzygies(SubmoduleHandle(qxy, 1, gens))
    # the zero generator contributes the trivial syzygy on its coordinate
    assert any(tuple(str(c) for c in w.comps) == ("0", "1", "0")
               for w in syz.generators)


def test_colon_fixtures(qxy):
    Ix2 = SubmoduleHandle(qxy, 1, [vec(qxy, "x^2")])
    assert ideal_strs(colon(Ix2, vec(qxy, "x"))) == ["x"]
    S = SubmoduleHandle(qxy, 1, [vec(qxy, "x"), vec(qxy, "y")])
    assert ideal_strs(colon(S, vec(qxy, "x"))) == ["1"]
    cols = SubmoduleHandle(qxy, 2, [vec(qxy, "x", "0"), vec(qxy, "y", "x")])
    assert ideal_strs(colon(cols, vec(qxy, "0", "1"))) == ["x^2"]
    assert ideal_strs(colon(cols, vec(qxy, "1", "0"))) == ["x"]


def test_colon_over_zx(zx):
    cols = SubmoduleHandle(zx, 2, [vec(zx, "2", "0"), vec(zx, "x", "3")])
    assert ideal_strs(colon(cols, vec(zx, "1", "0"))) == ["2"]
    assert ideal_strs(colon(cols, vec(zx, "0", "1"))) == ["6"]
    assert ideal_strs(colon(cols, vec(zx, "1", "2"))) == ["6"]


def test_ideal_intersection(qxy, zz):
    a = IdealHandle(qxy, [qxy.parse("x")])
    b = IdealHandle(qxy, [qxy.parse("x^2")])
    assert ideal_strs(ideal_intersection(a, b)) == ["x^2"]
    two = IdealHandle(zz, [zz.from_int(2)])
    three = IdealHandle(zz, [zz.from_int(3)])
    assert ideal_strs(ideal_intersection(two, three)) == ["6"]


def test_reduced_basis_idempotent(qxy, zx):
    rng = random.Random(22)
    for ring in (qxy, zx):
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(1, 3)):
                e = ring.zero()
                for _ in range(rng.randint(1, 3)):
                    exp = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
                    e = e + ring.monomial(exp, ring.coeffs.from_int(rng.randint(-3, 3)))
                if not e.is_zero():
                    gens.append(FreeVector(ring, (e,)))
            if not gens:
                continue
            S = SubmoduleHandle(ring, 1, gens)
            g1 = groebner_basis(S)
            g2 = groebner_basis(g1)
            assert g1.reduced_groebner() == g2.reduced_groebner()


def test_integer_module_machinery(zz):
    # the zero-variable ring exercises the same engine
    S = SubmoduleHandle(zz, 2, [vec(zz, "2", "0"), vec(zz, "0", "3"),
                                vec(zz, "1", "1")])
    ok, _ = membership(vec(zz, "1", "0"), S)
    assert ok  # (1,0) = (1,1) - 3*(0,1)... gcd structure makes it reachable
    syz = syzygies(S)
    for w in syz.generators:
        total = FreeVector.zero(zz, 2)
        for coeff, g in zip(w.comps, S.generators):
            total = total + g.scale(coeff)
        assert total.is_zero()


def test_zx_membership_implies_qx_membership(zx, qx):
    rng = random.Random(23)
    for _ in range(30):
        gens = []
        for _ in range(rng.randint(1, 3)):
            e = zx.zero()
            for _ in range(rng.randint(1, 3)):
                e = e + zx.monomial((rng.randint(0, 3),),
                                    rng.randint(-4, 4))
            if not e.is_zero():
                gens.append(e)
        if not gens:
            continue
        ideal_z = IdealHandle(zx, gens)
        ideal_q = IdealHandle(qx, [qx.parse(str(g)) for g in gens])
        for _ in range(4):
            f = zx.zero()
            for _ in range(rng.randint(1, 3)):
                f = f + zx.monomial((rng.randint(0, 3),), rng.randint(-4, 4))
            if ideal_z.contains(f):
                assert ideal_q.contains(qx.parse(str(f)) if not f.is_zero()
                                        else qx.zero())


# -- preimage: property tests ------------------------------------------------

PROPERTY_RINGS = (
    ZZ,
    RingDescriptor.polynomial("integers", ["x"], "lex"),
    RingDescriptor.polynomial("rationals", ["x", "y"], "grevlex"),
    RingDescriptor.polynomial(5, ["x", "y"], "grevlex"),
)
PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True,
                             database=None)


@st.composite
def elements(draw, ring):
    """c_0 + c_1*x_1 + ... with |c_i| <= 3: entries of degree at most 1."""
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=ring.nvars + 1,
                           max_size=ring.nvars + 1))
    e = ring.from_int(coeffs[0])
    for i, c in enumerate(coeffs[1:]):
        exp = tuple(int(k == i) for k in range(ring.nvars))
        e = e + ring.monomial(exp, ring.coeffs.from_int(c))
    return e


@st.composite
def preimage_problems(draw):
    """(ring, tracked vectors, S) with rank <= 2 and at most 3 of each."""
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    rank = draw(st.integers(1, 2))
    vectors = st.lists(elements(ring), min_size=rank, max_size=rank).map(
        lambda comps: FreeVector(ring, comps))
    tracked = draw(st.lists(vectors, min_size=1, max_size=3))
    gens = draw(st.lists(vectors, min_size=0, max_size=3))
    return ring, tracked, SubmoduleHandle(ring, rank, gens)


def _image(ring, coeffs, tracked):
    total = FreeVector.zero(ring, tracked[0].rank)
    for c, t in zip(coeffs, tracked):
        total = total + t.scale(c)
    return total


@PROPERTY_SETTINGS
@given(preimage_problems())
def test_preimage_is_sound(problem):
    ring, tracked, S = problem
    pre = preimage(tracked, S)
    assert pre.rank == len(tracked)
    for c in pre.generators:
        assert not c.is_zero()
        assert S.contains(_image(ring, c.comps, tracked))[0]


@PROPERTY_SETTINGS
@given(preimage_problems(), st.data())
def test_preimage_is_complete(problem, data):
    ring, tracked, S = problem
    c0 = [data.draw(elements(ring)) for _ in tracked]
    bigger = SubmoduleHandle(ring, S.rank,
                             S.generators + (_image(ring, c0, tracked),))
    assert preimage(tracked, bigger).contains(FreeVector(ring, c0))[0]


@PROPERTY_SETTINGS
@given(preimage_problems())
def test_colon_and_intersection_match_their_definitions(problem):
    ring, tracked, S = problem
    v = tracked[0]
    candidates = [c for w in tracked + list(S.generators) for c in w.comps]
    candidates += [a * b for a in candidates[:3] for b in candidates[:3]]
    ideal = colon(S, v)
    for r in list(ideal.generators) + candidates:
        assert ideal.contains(r) == S.contains(v.scale(r))[0]
    I = IdealHandle(ring, v.comps)
    J = IdealHandle(ring, [c for g in S.generators for c in g.comps])
    both = ideal_intersection(I, J)
    for r in list(both.generators) + candidates:
        assert both.contains(r) == (I.contains(r) and J.contains(r))


# -- the term-map engine against the dense reduction -------------------------


def _dense_lead(vec):
    for i, c in enumerate(vec.comps):
        if not c.is_zero():
            e, co = c.leading_term()
            return i, e, co
    raise AssertionError("zero vector has no lead")


def dense_normal_form(ring, basis, vec):
    """The reduction as it ran on dense FreeVectors before the engine moved
    to term maps, kept as the oracle: (remainder, combo, steps)."""
    dom, rank = ring.coeffs, vec.rank
    leads = [_dense_lead(b) for b in basis]
    combo, steps = {}, 0
    remainder = FreeVector.zero(ring, rank)
    work = vec
    while not work.is_zero():
        steps += 1
        pos, exp, coeff = _dense_lead(work)
        best = None
        for idx, (bpos, bexp, bcoeff) in enumerate(leads):
            if bpos != pos or any(a > b for a, b in zip(bexp, exp)):
                continue
            q, _ = dom.divmod_canonical(coeff, bcoeff)
            if q == 0:
                continue
            key = (ring.monomial_key(bexp), dom.sort_key(bcoeff), idx)
            if best is None or key < best[0]:
                best = (key, idx, q)
        if best is None:
            move = FreeVector(ring, [ring.monomial(exp, coeff) if i == pos
                                     else ring.zero() for i in range(rank)])
            remainder = remainder + move
            work = work - move
        else:
            _, idx, q = best
            delta = tuple(a - b for a, b in zip(exp, leads[idx][1]))
            shift = ring.monomial(delta, q)
            work = work - FreeVector(ring, [c * shift
                                            for c in basis[idx].comps])
            combo[idx] = combo.get(idx, ring.zero()) + ring.monomial(delta, q)
    return remainder, combo, steps


@applies_bounds
def _engine_normal_form(ring, basis, vec, bounds=None):
    elems = [groebner._BasisElem(ring, groebner._terms_of(b), {}, i)
             for i, b in enumerate(basis)]
    return groebner._normal_form_vs(ring, vec.rank, elems,
                                    groebner._terms_of(vec))


@st.composite
def reduction_problems(draw):
    """(ring, basis, vector): rank <= 2, up to three nonzero basis vectors,
    entries of degree at most 2."""
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    rank = draw(st.integers(1, 2))
    entries = st.one_of(elements(ring), st.tuples(
        elements(ring), elements(ring)).map(lambda ab: ab[0] * ab[1]))
    vectors = st.lists(entries, min_size=rank, max_size=rank).map(
        lambda comps: FreeVector(ring, comps))
    basis = draw(st.lists(vectors.filter(lambda v: not v.is_zero()),
                          min_size=1, max_size=3))
    return ring, basis, draw(vectors)


@PROPERTY_SETTINGS
@given(reduction_problems())
def test_term_map_reduction_matches_dense(problem):
    ring, basis, vec = problem
    remainder, combo, steps = dense_normal_form(ring, basis, vec)
    nf, maps = _engine_normal_form(ring, basis, vec, Bounds(steps=steps or 1))
    assert groebner._vector_of(ring, vec.rank, nf) == remainder
    assert {i: RingElement(ring, m) for i, m in maps.items() if m} == \
        {i: c for i, c in combo.items() if not c.is_zero()}
    if steps > 1:
        with pytest.raises(StepBudgetExceeded):
            _engine_normal_form(ring, basis, vec, Bounds(steps=steps - 1))


CACHE_RINGS = tuple(RingDescriptor.polynomial(coeffs, ["x", "y"], order)
                    for coeffs in ("rationals", 5)
                    for order in ("lex", "grevlex"))


@st.composite
def cached_reduction_problems(draw):
    """(handle, v, w) over Q[x,y] or F_5[x,y], lex or grevlex: up to three
    generators of rank <= 2, which need not form a Groebner basis, and a
    vector v with a second vector w on the same terms."""
    ring = draw(st.sampled_from(CACHE_RINGS))
    rank = draw(st.integers(1, 2))
    entries = st.one_of(elements(ring), st.tuples(
        elements(ring), elements(ring)).map(lambda ab: ab[0] * ab[1]))
    vectors = st.lists(entries, min_size=rank, max_size=rank).map(
        lambda comps: FreeVector(ring, comps))
    gens = draw(st.lists(vectors, min_size=1, max_size=3))
    v = draw(vectors)
    w = groebner._vector_of(ring, rank, {
        t: ring.coeffs.from_int(draw(st.integers(1, 4)))
        for t in groebner._terms_of(v)})
    return SubmoduleHandle(ring, rank, gens), v, w


def _handle_reduction(S, v):
    nf, combo = S._reduce(groebner._terms_of(v))
    maps = {}
    for (i, e), c in combo.items():
        maps.setdefault(i, {})[e] = c
    return (groebner._vector_of(S.ring, S.rank, nf),
            {i: RingElement(S.ring, m) for i, m in maps.items() if m})


@PROPERTY_SETTINGS
@given(cached_reduction_problems())
def test_cached_term_reductions_match_dense(problem):
    S, v, w = problem
    basis = S.reduced_groebner()
    for _ in range(2):       # with a cold cache, then with a warm one
        for u in (v, w):
            remainder, combo, _ = dense_normal_form(S.ring, basis, u)
            assert _handle_reduction(S, u) == (
                remainder, {i: c for i, c in combo.items() if not c.is_zero()})
            assert S.normal_form(u) == remainder
    assert set(groebner._terms_of(v)) <= set(S._term_forms)


def test_integer_handles_reduce_every_vector_from_scratch(zx):
    # over Z canonical remainders are not linear: NF(-v) != -NF(v) here
    S = SubmoduleHandle(zx, 2, [vec(zx, "3", "x"), vec(zx, "0", "2")])
    basis = S.reduced_groebner()
    elems = S._engine_basis()
    v = vec(zx, "1", "x + 1")
    minus_v = v.scale(zx.from_int(-1))
    forms = [S.normal_form(u) for u in (v, minus_v, v, minus_v)]
    assert forms[1] != forms[0].scale(zx.from_int(-1))
    for u, form in zip((v, minus_v) * 2, forms):
        nf, _ = groebner._normal_form_vs(zx, 2, elems, groebner._terms_of(u))
        assert form == groebner._vector_of(zx, 2, nf)
        assert form == dense_normal_form(zx, basis, u)[0]
        assert _handle_reduction(S, u)[0] == form


@applies_bounds
def _reduced_basis_under(S, bounds=None):
    return S.reduced_groebner()


@pytest.mark.parametrize("coeffs, rows, steps", [
    # 4 Buchberger steps, then 6 tail-reduction steps
    ("rationals", [["x + y", "y"], ["y", "1"]], 10),
    # 14 Buchberger steps, then 9 tail-reduction steps
    ("integers", [["2*x + y", "x"], ["3*y", "1"]], 23),
])
def test_tail_reduction_ticks_the_engine_counter(coeffs, rows, steps):
    # the last steps of each count are tail-reduction steps, so a limit one
    # short of the total fails only if they tick the Buchberger loop's budget
    ring = RingDescriptor.polynomial(coeffs, ["x", "y"], "grevlex")

    def handle():
        return SubmoduleHandle(ring, 2, [vec(ring, *r) for r in rows])

    expected = handle().reduced_groebner()
    assert _reduced_basis_under(handle(), Bounds(steps=steps)) == expected
    with pytest.raises(StepBudgetExceeded):
        _reduced_basis_under(handle(), Bounds(steps=steps - 1))


# -- entry checks and self-checks --------------------------------------------


def test_normal_form_rejects_wrong_rank_or_ring(qxy):
    S = SubmoduleHandle(qxy, 2, [vec(qxy, "x", "y"), vec(qxy, "0", "x")])
    f5xy = RingDescriptor.polynomial(5, ["x", "y"], "grevlex")
    for bad in (vec(qxy, "x + y"), vec(qxy, "1", "x", "y"),
                vec(f5xy, "x", "y")):
        for handle in (S, SubmoduleHandle(qxy, 2, ())):
            with pytest.raises(UsageError):
                handle.normal_form(bad)
            with pytest.raises(UsageError):
                handle.contains(bad)
    assert S.normal_form(vec(qxy, "x + y", "x")) == vec(qxy, "y", "-y")


def _corrupt(expr, ring):
    """Add x^5 times the first generator to a term map over the generators."""
    expr[0, (5,) + (0,) * (ring.nvars - 1)] = ring.coeffs.one()


def test_reduced_groebner_rejects_a_bad_expression(qxy, monkeypatch):
    real = groebner._Engine.reduced_basis

    def corrupted(self):
        out = real(self)
        _corrupt(out[0][1], self.ring)
        return out

    monkeypatch.setattr(groebner._Engine, "reduced_basis", corrupted)
    S = SubmoduleHandle(qxy, 1, [vec(qxy, "x"), vec(qxy, "y")])
    with pytest.raises(InternalInvariantError, match="does not recombine"):
        S.reduced_groebner()


def test_contains_rejects_a_bad_witness(qxy):
    S = SubmoduleHandle(qxy, 1, [vec(qxy, "x"), vec(qxy, "y")])
    assert S.contains(vec(qxy, "x^2 + y"))[0]
    for b in S._engine_basis():
        _corrupt(b.expr, qxy)
    with pytest.raises(InternalInvariantError, match="witness does not recombine"):
        S.contains(vec(qxy, "x^2 + y"))


def test_preimage_rechecks_each_element(qxy, monkeypatch):
    S = SubmoduleHandle(qxy, 1, [vec(qxy, "x^2")])
    assert ideal_strs(colon(S, vec(qxy, "x"))) == ["x"]
    monkeypatch.setattr(SubmoduleHandle, "contains",
                        lambda self, v: (False, None))
    with pytest.raises(InternalInvariantError,
                       match="preimage element maps outside S"):
        preimage([vec(qxy, "x")], S)


# -- colon ideals come out reduced ------------------------------------------

COLON_RINGS = PROPERTY_RINGS + (
    RingDescriptor.polynomial("integers", ["x", "y"], "grevlex"),)


@st.composite
def colon_problems(draw):
    """(S, v) with entries of degree at most 2 and 3 relations at rank 1, 2
    at rank 2; the "zero" shape has no relations (a zero colon ideal) and
    the "unit" shape puts v in S."""
    ring = draw(st.sampled_from(COLON_RINGS))
    rank = draw(st.integers(1, 2))
    entries = st.lists(elements(ring), min_size=1, max_size=2).map(
        lambda factors: reduce(mul, factors))
    vectors = st.lists(entries, min_size=rank, max_size=rank).map(
        lambda comps: FreeVector(ring, comps))
    shape = draw(st.sampled_from(["zero", "unit", "general", "general"]))
    gens = [] if shape == "zero" else draw(st.lists(vectors, min_size=2,
                                                    max_size=4 - rank))
    v = gens[0] if shape == "unit" else draw(vectors)
    return ring, SubmoduleHandle(ring, rank, gens), v


@PROPERTY_SETTINGS
@given(colon_problems())
def test_colon_basis_is_the_reduced_basis(problem):
    ring, S, v = problem
    ideal = colon(S, v)
    recomputed = tuple(groebner.ideal_groebner(ring, ideal.generators))
    assert ideal.groebner() == recomputed
    if v.is_zero() or S.contains(v)[0]:
        assert ideal.is_unit_ideal()
    if not S.generators and not v.is_zero():
        assert ideal.is_zero_ideal() and ideal.groebner() == ()


# -- colon ideals of finite-length quotients by linear algebra ---------------

FINITE_LENGTH_RINGS = (
    RingDescriptor.polynomial("rationals", ["x", "y"], "grevlex"),
    RingDescriptor.polynomial("rationals", ["x", "y"], "lex"),
    RingDescriptor.polynomial(5, ["x", "y"], "grevlex"),
    RingDescriptor.polynomial(7, ["x", "y", "z"], "grevlex"),
)


def _pure_power(ring, rank, i, j, a):
    """x_j^a * e_i in R^rank."""
    exp = tuple(a if k == j else 0 for k in range(ring.nvars))
    return FreeVector(ring, [ring.monomial(exp) if k == i else ring.zero()
                             for k in range(rank)])


@st.composite
def finite_length_problems(draw):
    """(ring, S, v) with R^rank/S of finite length: x_j^a * e_i is a
    relation for every position i and variable x_j, with a = 2 or 3 in two
    variables and a = 2 in three, shuffled in with up to two relations whose
    entries are a variable times an entry of degree at most 1.  Every
    relation vanishes at the origin, so v, with entries of degree at most 1,
    seldom has the unit ideal as its colon.  (The elimination basis, the
    oracle here, takes minutes on some rank-2 cases with a = 3 in three
    variables.)"""
    ring = draw(st.sampled_from(FINITE_LENGTH_RINGS))
    rank = draw(st.integers(1, 2))
    variables = [ring.var(name) for name in ring.variables]
    entries = st.tuples(st.sampled_from(variables), elements(ring)).map(
        lambda pair: pair[0] * pair[1])
    relations = st.lists(entries, min_size=rank, max_size=rank).map(
        lambda comps: FreeVector(ring, comps))
    top = 3 if ring.nvars == 2 else 2
    gens = [_pure_power(ring, rank, i, j, draw(st.integers(2, top)))
            for i in range(rank) for j in range(ring.nvars)]
    gens += draw(st.lists(relations, max_size=2))
    v = FreeVector(ring, draw(st.lists(elements(ring), min_size=rank,
                                       max_size=rank)))
    return ring, SubmoduleHandle(ring, rank, draw(st.permutations(gens))), v


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(finite_length_problems())
def test_finite_length_colon_is_the_elimination_basis(problem):
    ring, S, v = problem
    assert groebner._has_finite_length(S)
    expected = [c.comps[0] for c in preimage([v], S).generators]
    got = list(colon(S, v).generators)
    assert got == expected
    assert [str(g) for g in got] == [str(g) for g in expected]


def _colon_paths(monkeypatch, call):
    """Run call() and count its colons as (through preimage, through linear
    algebra)."""
    made, linear = [], []
    real_colon = groebner.colon
    real_linear = groebner._colon_finite_length

    def spy_colon(S, v):
        made.append(v)
        return real_colon(S, v)

    def spy_linear(S, v):
        linear.append(v)
        return real_linear(S, v)

    monkeypatch.setattr(groebner, "colon", spy_colon)
    monkeypatch.setattr(homalg, "colon", spy_colon)
    monkeypatch.setattr(groebner, "_colon_finite_length", spy_linear)
    call()
    return len(made) - len(linear), len(linear)


def _fixture_module(fixtures_dir, name):
    m, _ = matrix_from_json(load_document(str(fixtures_dir / f"{name}.json")))
    return homalg.FPModule.from_matrix(m)


def test_colon_paths_of_the_filtration_search(fixtures_dir, monkeypatch):
    # jordan_block over Q[x,y]: coker m has dimension 1, so the 20 stage-0
    # colons take preimage; every later quotient has finite length
    M = _fixture_module(fixtures_dir, "jordan_block")
    assert _colon_paths(monkeypatch, lambda: search_minimal_cyclic_filtration(
        M)) == (20, 51)
    # Z[x] coefficients never take the linear-algebra path
    N = _fixture_module(fixtures_dir, "triangular_int")
    through_preimage, linear = _colon_paths(
        monkeypatch, lambda: search_minimal_cyclic_filtration(N))
    assert through_preimage > 0 and linear == 0
    # nor does coker m itself
    assert not groebner._has_finite_length(M.handle())
    assert _colon_paths(monkeypatch, lambda: groebner.colon(
        M.handle(), M.basis_vector(0))) == (1, 0)


def test_finite_length_colon_rechecks_each_element(qxy, monkeypatch):
    S = SubmoduleHandle(qxy, 1, [vec(qxy, "x^2"), vec(qxy, "y")])
    assert ideal_strs(colon(S, vec(qxy, "1"))) == ["x^2", "y"]
    real = groebner._colon_finite_length

    def corrupted(S, v):
        gens = real(S, v)
        return [gens[0] - qxy.one()] + gens[1:]

    monkeypatch.setattr(groebner, "_colon_finite_length", corrupted)
    with pytest.raises(InternalInvariantError,
                       match="colon element maps outside S"):
        colon(S, vec(qxy, "1"))


@pytest.mark.parametrize("gens, finite", [
    ([["x^2", "0"], ["y", "0"], ["0", "x"], ["0", "y^3"]], True),
    ([["x", "y"], ["0", "x"]], False),
])
def test_colon_edge_cases_on_both_paths(qxy, gens, finite):
    S = SubmoduleHandle(qxy, 2, [vec(qxy, *g) for g in gens])
    assert groebner._has_finite_length(S) == finite
    assert colon(S, vec(qxy, "0", "0")).is_unit_ideal()
    for bad in (vec(qxy, "x"), vec(qxy, "1", "x", "y")):
        with pytest.raises(UsageError):
            colon(S, bad)
