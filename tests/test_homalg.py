import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from diagcert.bounds import Bounds
from diagcert.errors import DegenerateInputError, FullRankRequiredError
from diagcert.groebner import FreeVector
from diagcert.homalg import (FPModule, _obstructions, annihilator,
                             element_annihilator, ext, free_resolution, grade,
                             hom_dual_sequence, hom_module, is_isomorphic,
                             is_quasi_gorenstein, module_fitting_ideal,
                             quotient_presentation, split_test,
                             submodule_presentation,
                             transpose_equivalence_from_diagonal)
from diagcert.linalg import RingMatrix, determinant, smith_normal_form
from diagcert.rings import RingDescriptor


def vec(ring, *texts):
    return FreeVector(ring, tuple(ring.parse(t) for t in texts))


def jordan_module(qxy):
    return FPModule.from_matrix(RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]]))


def ideal_strs(handle):
    return sorted(str(g) for g in handle.groebner())


# -- annihilators -----------------------------------------------------------

def test_annihilator_fixtures(qxy, zz):
    assert ideal_strs(annihilator(jordan_module(qxy))) == ["x^2"]
    d23 = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "3"]]))
    assert ideal_strs(annihilator(d23)) == ["6"]
    z4 = FPModule.from_matrix(RingMatrix.parse(zz, [["4"]]))
    assert ideal_strs(annihilator(z4)) == ["4"]


def test_element_annihilators(qxy, zz):
    M = jordan_module(qxy)
    assert ideal_strs(element_annihilator(M, vec(qxy, "1", "0"))) == ["x"]
    assert ideal_strs(element_annihilator(M, vec(qxy, "0", "1"))) == ["x^2"]
    z4 = FPModule.from_matrix(RingMatrix.parse(zz, [["4"]]))
    assert ideal_strs(element_annihilator(z4, vec(zz, "1"))) == ["4"]


# -- the dualized presentation ------------------------------------------------

def test_hom_dual_sequence_1x1(qx):
    hom, ext1 = hom_dual_sequence(RingMatrix.parse(qx, [["x"]]))
    assert hom.is_zero()
    assert ext1.to_json()["relations"] == [["x"]]


def test_hom_dual_sequence_fixture(zx):
    m = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    hom, ext1 = hom_dual_sequence(m)
    assert hom.is_zero()
    assert ext1.presentation_matrix() == m.transpose()


def test_hom_dual_sequence_diagonal_symmetric(qxy):
    m = RingMatrix.diagonal(qxy, [qxy.parse("x"), qxy.parse("y")])
    _, ext1 = hom_dual_sequence(m)
    assert ext1.presentation_matrix() == m


def test_hom_dual_requires_full_rank(qxy):
    with pytest.raises(FullRankRequiredError):
        hom_dual_sequence(RingMatrix.parse(qxy, [["x", "x"], ["x", "x"]]))


# -- resolutions and Ext -------------------------------------------------------

def test_resolution_full_rank_length_one(qxy):
    res = free_resolution(jordan_module(qxy), 3)
    assert res.length == 1 and res.complete


def test_resolution_koszul(qxy):
    kos = FPModule.cyclic(qxy, [qxy.parse("x"), qxy.parse("y")])
    res = free_resolution(kos, 4)
    assert res.length == 2 and res.complete
    d2 = [[str(e) for e in row] for row in res.diffs[1].rows]
    assert d2 in ([["y"], ["-x"]], [["-y"], ["x"]])


def test_resolution_free_module(qxy):
    res = free_resolution(FPModule(qxy, 2, ()), 3)
    assert res.length == 0 and res.complete


def test_ext_self_transpose(qxy):
    rx = FPModule.cyclic(qxy, [qxy.parse("x")])
    assert ext(rx, 1).to_json()["relations"] == [["x"]]


def test_ext_koszul_self_dual(qxy):
    kos = FPModule.cyclic(qxy, [qxy.parse("x"), qxy.parse("y")])
    e2 = ext(kos, 2)
    iso = is_isomorphic(e2, kos)
    assert iso.verdict == "yes"
    assert ext(kos, 1).is_zero()
    assert ext(kos, 0).is_zero()


def test_ext_zero_for_torsion_to_ring(zz):
    d23 = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "3"]]))
    assert ext(d23, 0).is_zero()


def test_ext_vanishes_beyond_length(qxy, zz):
    assert ext(jordan_module(qxy), 2).is_zero()
    z4 = FPModule.from_matrix(RingMatrix.parse(zz, [["4"]]))
    assert ext(z4, 2).is_zero()


def test_ext_presented_by_transpose_for_full_rank(qxy, zx):
    for ring, grid in ((qxy, [["x", "y"], ["0", "x"]]),
                       (zx, [["2", "x"], ["0", "3"]])):
        m = RingMatrix.parse(ring, grid)
        e1 = ext(FPModule.from_matrix(m), 1)
        assert e1.presentation_matrix() == m.transpose()


# -- grade ---------------------------------------------------------------------

def test_grade_fixtures(qxy):
    assert grade(jordan_module(qxy)).value == 1
    kos = FPModule.cyclic(qxy, [qxy.parse("x"), qxy.parse("y")])
    assert grade(kos).value == 2
    free = FPModule(qxy, 2, ())
    assert grade(free).value == 0
    zero = FPModule.zero(qxy)
    g = grade(zero)
    assert g.at_least == 4 and g.degenerate


def test_grade_monotone_for_submodules(qxy):
    M = jordan_module(qxy)
    sub = submodule_presentation(M, [vec(qxy, "1", "0")])
    assert grade(sub).value >= grade(M).value


def test_grade_monotone_on_random_diagonals(qxy):
    import random
    rng = random.Random(55)
    entries = [qxy.parse(s) for s in ["x", "y", "x + 1", "y - 1"]]
    for _ in range(5):
        n = rng.randint(2, 3)
        diag = RingMatrix.diagonal(qxy, [rng.choice(entries) for _ in range(n)])
        M = FPModule.from_matrix(diag)
        base = grade(M).value
        keep = sorted(rng.sample(range(n), rng.randint(1, n)))
        gens = [FreeVector.basis(qxy, n, i) for i in keep]
        sub = submodule_presentation(M, gens)
        sub_grade = grade(sub)
        assert sub_grade.degenerate or sub_grade.value is None \
            or sub_grade.value >= base


# -- homomorphisms ---------------------------------------------------------------

def test_endomorphisms_of_cyclic(qx):
    rx = FPModule.cyclic(qx, [qx.parse("x")])
    homs = hom_module(rx, rx)
    assert [h.to_json() for h in homs] == [{"matrix": [["1"]]}]


def test_hom_between_different_cyclics_is_zero(qxy):
    rx = FPModule.cyclic(qxy, [qxy.parse("x")])
    ry = FPModule.cyclic(qxy, [qxy.parse("y")])
    assert hom_module(rx, ry) == []
    assert is_isomorphic(rx, ry).verdict == "no"


def test_hom_into_zero_module(qxy):
    rx = FPModule.cyclic(qxy, [qxy.parse("x")])
    assert hom_module(rx, FPModule.zero(qxy)) == []


def test_hom_well_definedness_checked(qxy):
    M = jordan_module(qxy)
    for phi in hom_module(M, M):
        assert phi.is_well_defined()


# -- isomorphism -----------------------------------------------------------------

def test_iso_reflexive(qxy):
    M = jordan_module(qxy)
    iso = is_isomorphic(M, M)
    assert iso.verdict == "yes"
    assert iso.forward.compose(iso.inverse).is_identity_mod_relations()


def test_iso_z4_vs_klein(zz):
    z4 = FPModule.from_matrix(RingMatrix.parse(zz, [["4"]]))
    klein = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "2"]]))
    iso = is_isomorphic(z4, klein)
    assert iso.verdict == "no"
    assert iso.obstruction.kind == "fitting"
    assert iso.obstruction.detail["index"] == 1
    assert ideal_strs(iso.obstruction.lhs_ideal) == ["1"]
    assert ideal_strs(iso.obstruction.rhs_ideal) == ["2"]
    assert iso.obstruction.verify()


def test_iso_annihilator_obstruction_stops_the_sweep(qxy, monkeypatch):
    # R/m^2 + R/m^2 and R/m^2 + R/(x^2, y^2) share every Fitting ideal but
    # not the annihilator
    import diagcert.homalg as homalg
    from diagcert.errors import InternalInvariantError

    def cyclic(*gens):
        return FPModule.cyclic(qxy, [qxy.parse(g) for g in gens])

    square = cyclic("x^2", "x*y", "y^2")
    M = square.direct_sum(square)
    N = square.direct_sum(cyclic("x^2", "y^2"))
    iso = is_isomorphic(M, N)
    assert iso.verdict == "no" and iso.obstruction.kind == "annihilator"
    monkeypatch.setattr(homalg.Obstruction, "verify", lambda self: False)
    with pytest.raises(InternalInvariantError,
                       match="annihilator obstruction failed re-check"):
        is_isomorphic(M, N)


def test_iso_jordan_vs_transpose(qxy):
    m = RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]])
    iso = is_isomorphic(FPModule.from_matrix(m),
                        FPModule.from_matrix(m.transpose()))
    assert iso.verdict == "yes"
    comp = iso.inverse.compose(iso.forward)
    assert comp.is_identity_mod_relations()
    comp2 = iso.forward.compose(iso.inverse)
    assert comp2.is_identity_mod_relations()
    # against diag(x, x), the first Fitting ideal (x, y) differs from (x)
    dxx = RingMatrix.diagonal(qxy, [qxy.parse("x"), qxy.parse("x")])
    iso = is_isomorphic(FPModule.from_matrix(m), FPModule.from_matrix(dxx))
    assert iso.verdict == "no" and iso.obstruction.kind == "fitting"
    assert iso.obstruction.detail["index"] == 1
    assert ideal_strs(iso.obstruction.lhs_ideal) == ["x", "y"]
    assert ideal_strs(iso.obstruction.rhs_ideal) == ["x"]
    assert iso.obstruction.verify()


def test_iso_search_computes_no_kernel(qxy, monkeypatch):
    # the inverse built from the surjectivity witnesses proves injectivity,
    # so no candidate runs a preimage elimination
    from diagcert import homalg
    m = RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]])
    M, N = FPModule.from_matrix(m), FPModule.from_matrix(m.transpose())
    generators = hom_module(M, N)
    surjective = []
    real_surjective = homalg._certify_surjective

    def certify_surjective(phi):
        pre = real_surjective(phi)
        surjective.append(pre is not None)
        return pre

    def no_preimage(*args):
        raise AssertionError("a candidate ran a preimage elimination")

    monkeypatch.setattr(homalg, "hom_module", lambda *args: generators)
    monkeypatch.setattr(homalg, "_certify_surjective", certify_surjective)
    monkeypatch.setattr(homalg, "preimage", no_preimage)
    iso = homalg._search_isomorphism(M, N, Bounds())
    assert iso.verdict == "yes" and surjective[-1]
    assert iso.forward.is_well_defined() and iso.inverse.is_well_defined()
    assert iso.inverse.compose(iso.forward).is_identity_mod_relations()
    assert iso.forward.compose(iso.inverse).is_identity_mod_relations()


def test_iso_yes_implies_fitting_equal(zz):
    z6 = FPModule.from_matrix(RingMatrix.parse(zz, [["6"]]))
    d23 = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "3"]]))
    iso = is_isomorphic(z6, d23)
    assert iso.verdict == "yes"
    for j in range(3):
        assert module_fitting_ideal(z6, j) == module_fitting_ideal(d23, j)


def test_iso_cyclic_crt(zz):
    z6 = FPModule.from_matrix(RingMatrix.parse(zz, [["6"]]))
    d23 = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "3"]]))
    iso = is_isomorphic(d23, z6)
    assert iso.verdict == "yes"


# -- quasi-Gorenstein --------------------------------------------------------------

def test_qg_diagonal(qxy):
    m = RingMatrix.diagonal(qxy, [qxy.parse("x"), qxy.parse("y - 1")])
    result = is_quasi_gorenstein(m)
    assert result.verdict == "yes"
    assert result.matrix_certificate.verify().valid
    assert result.grade_value == 1


def test_qg_jordan_swap_certificate(qxy):
    m = RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]])
    result = is_quasi_gorenstein(m)
    assert result.verdict == "yes"
    cert = result.matrix_certificate
    assert cert is not None and cert.verify().valid
    assert cert.target == m.transpose()
    swap = RingMatrix.parse(qxy, [["0", "1"], ["1", "0"]])
    assert cert.left == swap and cert.right == swap


def test_qg_upper_triangular_family(qxy):
    for a, b in (("x + y", "x^2"), ("y - 1", "x*y"), ("x", "1")):
        m = RingMatrix(qxy, [[qxy.parse(a), qxy.parse(b)],
                             [qxy.zero(), qxy.parse(a)]])
        result = is_quasi_gorenstein(m)
        assert result.verdict == "yes"


def test_qg_euclidean_always_yes(zz, qx):
    for ring, grid in ((zz, [["2", "1"], ["0", "4"]]),
                       (qx, [["x", "1"], ["0", "x^2"]])):
        result = is_quasi_gorenstein(RingMatrix.parse(ring, grid))
        assert result.verdict == "yes"
        assert result.matrix_certificate.verify().valid


def test_qg_direct_sum_of_qg_blocks(qxy):
    # block-diagonal sums of transpose-equivalent blocks stay so
    j = [["x", "y"], ["0", "x"]]
    grid = [[j[0][0], j[0][1], "0", "0"],
            [j[1][0], j[1][1], "0", "0"],
            ["0", "0", j[0][0], j[0][1]],
            ["0", "0", j[1][0], j[1][1]]]
    result = is_quasi_gorenstein(RingMatrix.parse(qxy, grid))
    assert result.verdict == "yes"


def test_qg_degenerate_inputs(qxy):
    with pytest.raises(FullRankRequiredError):
        is_quasi_gorenstein(RingMatrix.parse(qxy, [["x", "x"], ["x", "x"]]))
    with pytest.raises(DegenerateInputError):
        is_quasi_gorenstein(RingMatrix.parse(qxy, [["1", "x"], ["0", "1"]]))


def test_qg_unknown_echoes_its_bounds(zx):
    m = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    bounds = Bounds(degree=1, height=1)
    result = is_quasi_gorenstein(m, bounds)
    assert result.verdict == "unknown"
    assert result.to_json() == {"verdict": "unknown",
                                "bounds": bounds.to_json()}


def _first_pair_by_products(m):
    """Reference: the first (P, Q) with P*m*Q = m^T among signed permutation
    matrices, each run over in lexicographic order with every sign pattern
    when n <= 3, by forming every product."""
    from itertools import permutations, product
    ring, n = m.ring, m.nrows
    signs_pool = (False, True) if n <= 3 else (False,)
    mats = []
    for perm in permutations(range(n)):
        for signs in product(signs_pool, repeat=n):
            rows = [[ring.zero()] * n for _ in range(n)]
            for i, (j, negated) in enumerate(zip(perm, signs)):
                rows[i][j] = -ring.one() if negated else ring.one()
            mats.append(RingMatrix(ring, rows))
    mt = m.transpose()
    for p in mats:
        pm = p * m
        for q in mats:
            if pm * q == mt:
                return p, q
    return None


def test_qg_sweep_takes_the_first_pair_in_product_order():
    import random
    from diagcert.homalg import _signed_permutation_witness
    rings = [RingDescriptor.polynomial(*spec) for spec in (
        ("rationals", ["x", "y"], "grevlex"), ("integers", ["x"], "lex"),
        (5, ["x"], "lex"), (2, ["x"], "lex"))]
    rng = random.Random(23)
    hits = 0
    for t in range(64):
        ring = rings[t % len(rings)]
        n = 2 + t % 4 // 3  # 3 x 3 only where a pair is planted
        pool = ["0", "1", "-1", "2", "x", "x + 1", "x^2"]
        grid = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if t % 2:  # a signed row permutation of a symmetric matrix
            for i in range(n):
                for j in range(i):
                    grid[i][j] = grid[j][i]
            rng.shuffle(grid)
            grid = [[f"-({e})" if rng.random() < 0.3 else e for e in row]
                    for row in grid]
        m = RingMatrix.parse(ring, grid)
        if determinant(m).is_zero():
            continue
        cert = _signed_permutation_witness(m)
        assert _first_pair_by_products(m) == (
            (cert.left, cert.right) if cert else None)
        hits += cert is not None
    assert hits > 20


def test_qg_sweep_is_not_quadratic_in_the_pairs(monkeypatch):
    # a 6 x 6 integer matrix no signed permutation pair takes to its
    # transpose, so the Smith form decides it; a sweep that compares each
    # of the 720^2 pairs (P, Q) makes over half a million comparisons
    from diagcert.homalg import _signed_permutation_witness
    from diagcert.rings import RingElement, ZZ
    grid = [[str((3 * i * i + 5 * j + i * j) % 11 - 5) for j in range(6)]
            for i in range(6)]
    m = RingMatrix.parse(ZZ, grid)
    assert _signed_permutation_witness(m) is None
    calls = []
    real = RingElement.__eq__

    def counting(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(RingElement, "__eq__", counting)
    result = is_quasi_gorenstein(m)
    assert result.verdict == "yes" and result.matrix_certificate.verify().valid
    assert len(calls) < 720 * 6


# (ring, entries) of the matrices whose cokernel meets its transpose's
TRANSPOSE_RINGS = (
    (("integers", ["x"], "lex"), ("0", "1", "2", "x", "x + 1", "2*x", "x^2")),
    (("integers", ["x", "y"], "grevlex"), ("0", "1", "2", "x", "y", "x*y")),
    (("rationals", ["x", "y"], "grevlex"), ("0", "1", "x", "y", "x + y", "y^2")),
    ((5, ["x", "y"], "grevlex"), ("0", "1", "x", "y", "x + 2*y", "x*y")),
)


@st.composite
def full_rank_matrices(draw):
    spec, entries = draw(st.sampled_from(TRANSPOSE_RINGS))
    ring = RingDescriptor.polynomial(*spec)
    n = draw(st.sampled_from([2, 3]))
    grid = [[draw(st.sampled_from(entries)) for _ in range(n)]
            for _ in range(n)]
    m = RingMatrix.parse(ring, grid)
    assume(not determinant(m).is_zero())
    return m


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(full_rank_matrices())
def test_no_invariant_tells_a_cokernel_from_its_transpose(m):
    # the transpose test checks none: they never fire on this pair
    M, N = FPModule.from_matrix(m), FPModule.from_matrix(m.transpose())
    assert list(_obstructions(M, N)) == []


def test_transpose_equivalence_from_diagonal(zz):
    m = RingMatrix.parse(zz, [["2", "1"], ["0", "4"]])
    snf = smith_normal_form(m)
    cert = transpose_equivalence_from_diagonal(snf.certificate)
    assert cert.verify().valid
    assert cert.source == m and cert.target == m.transpose()


# -- splitting ----------------------------------------------------------------------

def test_split_z4_not_split(zz):
    z4 = FPModule.from_matrix(RingMatrix.parse(zz, [["4"]]))
    result = split_test(z4, [vec(zz, "2")])
    assert result.verdict == "not_split"
    assert result.obstruction.kind == "fitting"
    assert result.obstruction.verify()
    obstruction = {"index": 1, "kind": "fitting",
                   "lhs_ideal": {"generators": ["1"], "groebner": ["1"]},
                   "rhs_ideal": {"generators": ["2", "4"], "groebner": ["2"]}}
    assert result.to_json() == {
        "verdict": "not_split", "obstruction": obstruction,
        "isomorphism": {"verdict": "no", "obstruction": obstruction}}


def test_split_coprime_cyclics(zz):
    d23 = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "3"]]))
    result = split_test(d23, [vec(zz, "1", "0")])
    assert result.verdict == "split"
    assert result.to_json() == {
        "verdict": "split",
        "isomorphism": {"verdict": "yes",
                        "forward": {"matrix": [["1", "0"], ["0", "0"],
                                               ["0", "1"]]},
                        "inverse": {"matrix": [["1", "0", "0"],
                                               ["0", "0", "1"]]}}}


def test_split_block_diagonal(qxy):
    dxx = FPModule.from_matrix(RingMatrix.parse(qxy, [["x", "0"], ["0", "x"]]))
    result = split_test(dxx, [vec(qxy, "1", "0")])
    assert result.verdict == "split"


# -- submodule embedding (dual of a quotient embeds back) -----------------------------

def test_ext_of_quotient_embeds_into_module(qxy):
    M = jordan_module(qxy)
    e1 = vec(qxy, "1", "0")
    quo = quotient_presentation(M, [e1])
    ext_quo = ext(quo, 1)
    rx = FPModule.cyclic(qxy, [qxy.parse("x")])
    iso = is_isomorphic(ext_quo, rx)
    assert iso.verdict == "yes"
    embedding = None
    for phi in hom_module(rx, M):
        if phi.certified_injective() and phi.image_equals([e1]):
            embedding = phi
            break
    assert embedding is not None
    composite = embedding.compose(iso.forward)
    assert composite.is_well_defined()
    assert composite.certified_injective()
    assert composite.image_equals([e1])


def test_quotient_of_jordan_by_e1(qxy):
    M = jordan_module(qxy)
    quo = quotient_presentation(M, [vec(qxy, "1", "0")])
    rx = FPModule.cyclic(qxy, [qxy.parse("x")])
    assert is_isomorphic(quo, rx).verdict == "yes"


def test_submodule_presentation_of_e1(qxy):
    M = jordan_module(qxy)
    sub = submodule_presentation(M, [vec(qxy, "1", "0")])
    assert ideal_strs(annihilator(sub)) == ["x"]


def test_submodule_presentation_over_zxy_finishes():
    # The whole syzygy module of generators and relations is expensive here;
    # the presentation needs only its projection onto the generators.
    zxy = RingDescriptor.polynomial("integers", ["x", "y"], "grevlex")
    M = FPModule(zxy, 2, [vec(zxy, "-3*x*y", "0"),
                          vec(zxy, "-x*y - 1", "-2*x*y + 3*x"),
                          vec(zxy, "3*x", "0")])
    gens = [vec(zxy, "-2*x*y^2 - 1", "2*x^2 - 2*x"),
            vec(zxy, "-3*x*y^2", "-2*x^2*y + x*y")]
    sub = submodule_presentation(M, gens)
    for rel in sub.relations:
        image = gens[0].scale(rel.comps[0]) + gens[1].scale(rel.comps[1])
        assert M.handle().contains(image)[0]
    assert json.dumps(sub.to_json()["relations"]) == (
        '[["0", "6*x*y - 9*x"], '
        '["9*x - 3*y", "6*x + 6*y - 15"], '
        '["6*y^2 - 9*y", "-12*y^2 + 48*y - 45"], '
        '["3*x*y + 3*y^2 - 6*y", "-6*y^2 + 3*x + 27*y - 30"], '
        '["x^2*y^2 + 3*y^4 + x*y^2 + 3*y^3 + x*y + 3*y^2 - 23*y", '
        '"2*x*y^3 - 6*y^4 + x^2*y + 9*y^3 + 2*x*y + 9*y^2 - 8*x + 61*y - 115"]]')
