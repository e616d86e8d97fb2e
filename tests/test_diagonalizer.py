import pytest
from hypothesis import given, settings, strategies as st

from diagcert.bounds import Bounds
from diagcert.diagonalizer import analyze, diagonalize
from diagcert.errors import FullRankRequiredError, StepBudgetExceeded
from diagcert.homalg import transpose_equivalence_from_diagonal
from diagcert.jsonio import dumps
from diagcert.linalg import RingMatrix, fitting_ideal, verify_certificate


def test_integer_matrix_via_snf(zz):
    result = diagonalize(RingMatrix.parse(zz, [["2", "4"], ["6", "8"]]))
    assert result.verdict == "yes" and result.method == "smith-normal-form"
    assert [str(d) for d in result.diagonal_entries()] == ["2", "4"]
    assert verify_certificate(result.certificate).valid


def test_jordan_not_diagonalizable(qxy):
    m = RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]])
    result = diagonalize(m)
    assert result.verdict == "no"
    record = result.obstruction
    assert record.det_factorization.complete
    diags = sorted(tuple(str(d) for d in r.diagonal) for r in record.refutations)
    assert diags == [("1", "x^2"), ("x", "x")]
    for r in record.refutations:
        assert r.fitting_index == 1 and r.evidence == "evaluation"
    assert sorted(str(g) for g in fitting_ideal(m, 1).groebner()) == ["x", "y"]
    by_diag = {tuple(str(d) for d in r.diagonal): r for r in record.refutations}
    # (x, y) vanishes at (0, 0) where (1) does not, and not at (0, 1) where
    # (x) does
    for diag, point, images in ((("1", "x^2"), {"x": 0, "y": 0}, (0, 1)),
                                (("x", "x"), {"x": 0, "y": 1}, (1, 0))):
        r = by_diag[diag]
        assert (r.point, r.matrix_image, r.candidate_image) == (point, *images)
    for diag, gb in ((("1", "x^2"), ["1"]), (("x", "x"), ["x"])):
        cand = RingMatrix.diagonal(qxy, [qxy.parse(d) for d in diag])
        assert [str(g) for g in fitting_ideal(cand, 1).groebner()] == gb
    assert record.verify(m)


def test_triangular_int_diagonalizes(zx):
    m = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    result = diagonalize(m)
    assert result.verdict == "yes" and result.method == "elementary-search"
    assert verify_certificate(result.certificate).valid
    diag = sorted(str(d) for d in result.diagonal_entries())
    assert diag in (["2", "3"], ["1", "6"])
    cert_t = transpose_equivalence_from_diagonal(result.certificate)
    assert cert_t.verify().valid
    assert cert_t.target == m.transpose()


def test_unit_determinant_trivial(qxy):
    result = diagonalize(RingMatrix.parse(qxy, [["1", "x"], ["0", "1"]]))
    assert result.verdict == "yes" and result.method == "unit-determinant"
    assert [str(d) for d in result.diagonal_entries()] == ["1", "1"]
    assert result.unit_diagonal_entries


def test_zero_determinant_refused(qxy):
    with pytest.raises(FullRankRequiredError):
        diagonalize(RingMatrix.parse(qxy, [["x", "x"], ["x", "x"]]))


def test_already_diagonal(qxy):
    m = RingMatrix.diagonal(qxy, [qxy.parse("x"), qxy.parse("y")])
    result = diagonalize(m)
    assert result.verdict == "yes"
    assert [str(d) for d in result.diagonal_entries()] == ["x", "y"]


QXY_JSON = {"coefficients": "rationals", "kind": "polynomial",
            "order": "grevlex", "variables": ["x", "y"]}


def test_already_diagonal_bytes(qxy):
    m = RingMatrix.diagonal(qxy, [qxy.parse("-x"), qxy.parse("2*y")])
    assert dumps(diagonalize(m).to_json()) == dumps({
        "certificate": {
            "left": [["-1", "0"], ["0", "1/2"]],
            "right": [["1", "0"], ["0", "1"]],
            "ring": QXY_JSON,
            "source": [["-x", "0"], ["0", "2*y"]],
            "target": [["x", "0"], ["0", "y"]],
            "transcript": [{"i": 0, "op": "row_scale", "unit": "-1"},
                           {"i": 1, "op": "row_scale", "unit": "1/2"}]},
        "diagonal": ["x", "y"],
        "method": "already-diagonal",
        "verdict": "yes",
        "verified": True})


def test_unit_determinant_bytes(qxy):
    # no entry is a unit, so the inverse needs every cofactor
    m = RingMatrix.parse(qxy, [["1 + x*y", "x^2"], ["-y^2", "1 - x*y"]])
    assert dumps(diagonalize(m).to_json()) == dumps({
        "certificate": {
            "left": [["-x*y + 1", "-x^2"], ["y^2", "x*y + 1"]],
            "right": [["1", "0"], ["0", "1"]],
            "ring": QXY_JSON,
            "source": [["x*y + 1", "x^2"], ["-y^2", "-x*y + 1"]],
            "target": [["1", "0"], ["0", "1"]]},
        "diagonal": ["1", "1"],
        "method": "unit-determinant",
        "unit_diagonal_entries": ["1", "1"],
        "verdict": "yes",
        "verified": True})


def test_scramble_roundtrip(qxy):
    from diagcert.testkit import random_recipe, scramble
    D = RingMatrix.diagonal(qxy, [qxy.parse("x*(y - 1)"),
                                  qxy.parse("(x + 1)*(x + y)")])
    recipe = random_recipe(qxy, 2, 6, seed=77)
    scrambled, truth = scramble(D, recipe)
    assert verify_certificate(truth).valid
    result = diagonalize(scrambled)
    assert result.verdict == "yes"
    for k in range(1, 3):
        assert fitting_ideal(result.certificate.target, k) == fitting_ideal(D, k)


def test_fitting_screen_on_produced_certificates(zx):
    m = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    result = diagonalize(m)
    for k in range(0, 3):
        assert fitting_ideal(m, k) == fitting_ideal(result.certificate.target, k)


def test_analyze_diagonal_trivial(qxy):
    m = RingMatrix.diagonal(qxy, [qxy.parse("x"), qxy.parse("y - 1")])
    report = analyze(m)
    assert report.diagonalizable.verdict == "yes"
    assert report.qg.verdict == "yes"
    assert not report.discrepancies
    checks = {c["check"] for c in report.consistency}
    assert "diagonal_implies_transpose_equivalence" in checks
    assert "decomposition_gives_filtration" in checks
    # the peel construction certifies a chain; the strict lattice search
    # rejects the same chain because a pooled element (here e1 + e2, with
    # annihilator (x*(y-1))) is strictly smaller -- the divergence between
    # the two minimality readings is reported, never suppressed
    assert report.filtration.verdict == "none_within_bounds"
    assert "filtration_search_vs_decomposition" in checks


def test_analyze_comaximal_diagonal_agrees(zz):
    m = RingMatrix.diagonal(zz, [zz.from_int(2), zz.from_int(3)])
    report = analyze(m)
    assert report.diagonalizable.verdict == "yes"
    assert report.filtration.verdict == "found"
    checks = {c["check"] for c in report.consistency}
    assert "filtration_search_vs_decomposition" not in checks


def test_analyze_jordan_report(qxy):
    m = RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]])
    report = analyze(m, claims={"diagonalizable": False,
                                "transpose_equivalent": True})
    assert report.qg.verdict == "yes"
    assert report.filtration.verdict == "none_within_bounds"
    assert report.diagonalizable.verdict == "no"
    assert report.discrepancies == []
    assert report.pd_one and report.full_rank
    assert str(report.det) == "x^2"


def test_analyze_triangular_refutes_claims(zx):
    m = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    report = analyze(m, claims={"diagonalizable": False,
                                "transpose_equivalent": False})
    assert report.diagonalizable.verdict == "yes"
    assert report.qg.verdict == "yes"
    assert len(report.discrepancies) == 2
    assert all("certificates outrank claims" in d for d in report.discrepancies)


def test_analyze_zero_det_flagged(qxy):
    report = analyze(RingMatrix.parse(qxy, [["x", "x"], ["x", "x"]]))
    assert report.degenerate
    assert report.diagonalizable is None


def test_analyze_unit_det_flagged(qxy):
    report = analyze(RingMatrix.parse(qxy, [["1", "x"], ["0", "1"]]))
    assert "zero module" in report.degenerate
    assert report.diagonalizable.verdict == "yes"


def test_analyze_deterministic_bytes(qxy):
    m = RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]])
    a = dumps(analyze(m).to_json())
    b = dumps(analyze(m).to_json())
    assert a == b


def test_scrambled_analyze_consistency(qxy):
    from diagcert.testkit import random_recipe, scramble
    D = RingMatrix.diagonal(qxy, [qxy.parse("x"), qxy.parse("y")])
    scrambled, _ = scramble(D, random_recipe(qxy, 2, 4, seed=5))
    report = analyze(scrambled)
    assert report.diagonalizable.verdict == "yes"
    assert report.qg.verdict == "yes"
    assert not report.discrepancies
    for k in range(1, 3):
        assert fitting_ideal(report.diagonalizable.certificate.target, k) == \
            fitting_ideal(D, k)


# ---------------------------------------------------------------------------
# refutation at the first stall of the search


def _fixture_matrix(fixtures_dir, name):
    from diagcert.jsonio import load_document, matrix_from_json
    return matrix_from_json(load_document(str(fixtures_dir / name)))[0]


JORDAN_NO = {
    "method": "fitting-obstruction",
    "obstruction": {
        "candidates_refuted": [
            {"candidate_image": 1, "diagonal": ["1", "x^2"],
             "evidence": "evaluation", "fitting_index": 1, "matrix_image": 0,
             "point": {"x": 0, "y": 0}},
            {"candidate_image": 0, "diagonal": ["x", "x"],
             "evidence": "evaluation", "fitting_index": 1, "matrix_image": 1,
             "point": {"x": 0, "y": 1}}],
        "determinant_factorization": {"complete": True,
                                      "factors": [["x", 2]], "unit": "1"}},
    "verdict": "no"}

TRIANGULAR_YES = {
    "certificate": {
        "left": [["1", "-x"], ["0", "1"]],
        "right": [["1", "x"], ["0", "1"]],
        "ring": {"coefficients": "integers", "kind": "polynomial",
                 "order": "lex", "variables": ["x"]},
        "source": [["2", "x"], ["0", "3"]],
        "target": [["2", "0"], ["0", "3"]],
        "transcript": [
            {"dst": 1, "mult": "x", "op": "col_add", "src": 0},
            {"dst": 0, "mult": "-x", "op": "row_add", "src": 1}]},
    "diagonal": ["2", "3"],
    "method": "elementary-search",
    "verdict": "yes",
    "verified": True}


@pytest.fixture
def obstruction_calls(monkeypatch):
    import diagcert.diagonalizer as dz
    calls = []
    real = dz._try_obstruction

    def spy(m, det):
        calls.append(m)
        return real(m, det)

    monkeypatch.setattr(dz, "_try_obstruction", spy)
    return calls


def test_no_is_decided_before_the_plateau_escape(fixtures_dir, monkeypatch):
    import diagcert.diagonalizer as dz

    def escape(self):
        raise AssertionError("plateau escape ran on a refutable matrix")

    monkeypatch.setattr(dz._Search, "_plateau_escape", escape)
    m = _fixture_matrix(fixtures_dir, "jordan_block.json")
    assert dumps(diagonalize(m).to_json()) == dumps(JORDAN_NO)


@pytest.mark.parametrize("bounds", [Bounds(), Bounds(steps=5)])
def test_stall_then_yes_keeps_its_certificate(fixtures_dir, bounds,
                                              obstruction_calls):
    m = _fixture_matrix(fixtures_dir, "triangular_int.json")
    assert dumps(diagonalize(m, bounds).to_json()) == dumps(TRIANGULAR_YES)
    assert len(obstruction_calls) == 1


def test_budget_spent_before_any_stall_refutes_after(fixtures_dir,
                                                     monkeypatch):
    import diagcert.diagonalizer as dz
    events = []
    real_run, real_refute = dz._Search.run, dz._try_obstruction

    def run(self):
        events.append("search")
        return real_run(self)

    def refute(m, det):
        events.append("refute")
        return real_refute(m, det)

    monkeypatch.setattr(dz._Search, "run", run)
    monkeypatch.setattr(dz, "_try_obstruction", refute)
    m = _fixture_matrix(fixtures_dir, "jordan_block.json")
    result = diagonalize(m, Bounds(search_nodes=1))
    assert dumps(result.to_json()) == dumps(JORDAN_NO)
    assert events == ["search", "refute"]


@pytest.mark.parametrize("name,bounds,verdict", [
    ("jordan_block.json", Bounds(), "no"),
    ("jordan_block.json", Bounds(search_nodes=1), "no"),
    ("triangular_int.json", Bounds(), "yes"),
    ("triangular_int.json", Bounds(search_nodes=1), "unknown"),
    # stalls, a candidate survives, then the plateau escape runs out
    ("triangular_int.json", Bounds(search_nodes=40), "unknown"),
])
def test_refutation_runs_at_most_once(fixtures_dir, obstruction_calls,
                                      name, bounds, verdict):
    m = _fixture_matrix(fixtures_dir, name)
    assert diagonalize(m, bounds).verdict == verdict
    assert len(obstruction_calls) == 1


def test_search_is_granted_the_echoed_node_limit(fixtures_dir, monkeypatch):
    import diagcert.diagonalizer as dz
    granted = []
    real_spend = dz._Search._spend

    def spend(self):
        ok = real_spend(self)
        granted.append(ok)
        return ok

    monkeypatch.setattr(dz._Search, "_spend", spend)
    m = _fixture_matrix(fixtures_dir, "triangular_int.json")
    result = diagonalize(m, Bounds(search_nodes=40))
    assert result.verdict == "unknown"
    assert result.to_json()["bounds"]["search_nodes"] == 40
    assert granted.count(True) == 40


@pytest.mark.parametrize("p, variables, distinct", [
    (2, ("x",), 3), (3, ("x", "y"), 12), (5, ("x", "y"), 24)])
def test_search_pool_holds_each_nonzero_multiplier_once(p, variables,
                                                        distinct):
    # over F_p with p <= 2 * height the element pool maps distinct integers
    # to one residue, and a zero or repeated multiplier only spends nodes
    import diagcert.diagonalizer as dz
    from diagcert.homalg import element_pool
    from diagcert.rings import RingDescriptor
    ring = RingDescriptor.polynomial(p, variables, "grevlex")
    pool = dz._Search(RingMatrix.identity(ring, 2), Bounds()).pool
    assert len(pool) == len(set(pool)) == distinct
    assert not any(e.is_zero() for e in pool)
    assert set(pool) == {e for e in element_pool(ring, Bounds())
                         if not e.is_zero()}


def test_budget_error_in_early_refutation_waits_for_the_search(
        fixtures_dir, monkeypatch):
    # a refutation that runs out of Groebner steps at the stall must not
    # cost a yes the search still finds; if the search fails, the error
    # surfaces as it would have with the refutation last
    import diagcert.diagonalizer as dz

    def exhausted(m, det):
        raise StepBudgetExceeded("groebner step budget exhausted")

    monkeypatch.setattr(dz, "_try_obstruction", exhausted)
    m = _fixture_matrix(fixtures_dir, "triangular_int.json")
    assert dumps(diagonalize(m).to_json()) == dumps(TRIANGULAR_YES)
    with pytest.raises(StepBudgetExceeded):
        diagonalize(m, Bounds(search_nodes=40))


# ---------------------------------------------------------------------------
# the No path: candidates, the record's self-check, one factorization, bytes


def brute_candidates(ring, factorization, n):
    """Every exponent distribution multiplied out, deduplicated by strings:
    the enumeration before equal multisets were merged ahead of the
    products."""
    from itertools import combinations_with_replacement
    primes = list(factorization.factors)
    distributions = [[]]
    for _, mult in primes:
        splits = []
        for bars in combinations_with_replacement(range(n), mult):
            counts = [0] * n
            for b in bars:
                counts[b] += 1
            splits.append(counts)
        distributions = [d + [s] for d in distributions for s in splits]
    seen, out = set(), []
    for dist in distributions:
        entries = []
        for slot in range(n):
            e = ring.one()
            for (p, _), counts in zip(primes, dist):
                e = e * p ** counts[slot]
            entries.append(e.canonical_associate()[1])
        entries.sort(key=lambda e: e.sort_key())
        key = tuple(str(e) for e in entries)
        if key not in seen:
            seen.add(key)
            out.append(tuple(entries))
    out.sort(key=lambda cand: tuple(e.sort_key() for e in cand))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("mults", [(1,), (3,), (1, 1), (2, 1), (3, 3),
                                   (1, 1, 1), (2, 1, 1), (3, 2, 1)])
@pytest.mark.parametrize("primes", [("x", "y", "x + y"), ("2", "3", "5")],
                         ids=["Q[x,y]", "Z"])
def test_diagonal_candidates_match_brute_force(qxy, zz, primes, mults, n):
    from diagcert.diagonalizer import _diagonal_candidates
    from diagcert.factorize import FactorResult
    ring = zz if primes[0] == "2" else qxy
    factorization = FactorResult(
        ring.one(), [(ring.parse(p), k) for p, k in zip(primes, mults)], True)
    got = _diagonal_candidates(ring, factorization, n)
    want = brute_candidates(ring, factorization, n)
    assert got == want
    assert [[str(e) for e in c] for c in got] == \
        [[str(e) for e in c] for c in want]


SCRAMBLE_RINGS = {
    "Q[x,y]": ("rationals", ["x", "y"], "grevlex"),
    "Z[x,y]": ("integers", ["x", "y"], "grevlex"),
    "F5[x,y]": (5, ["x", "y"], "grevlex"),
    "Z[x]": ("integers", ["x"], "lex"),
}
JORDAN_CORE = (("x", "y"), ("0", "x"))
# per ring: the non-diagonalizable 2 x 2 core, and the entry that extends it
# to n = 3
SCRAMBLE_CORES = {
    "Q[x,y]": (JORDAN_CORE, "x"),
    "Z[x,y]": (JORDAN_CORE, "x*y"),
    "F5[x,y]": (JORDAN_CORE, "x + y"),
    "Z[x]": ((("2", "x"), ("0", "2")), "2*x"),
}


def scrambled_core(key, n, seed=7):
    from diagcert.rings import RingDescriptor
    from diagcert.testkit import random_recipe, scramble
    ring = RingDescriptor.polynomial(*SCRAMBLE_RINGS[key])
    core, extra = SCRAMBLE_CORES[key]
    rows = [[ring.zero()] * n for _ in range(n)]
    for i in range(2):
        for j in range(2):
            rows[i][j] = ring.parse(core[i][j])
    if n == 3:
        rows[2][2] = ring.parse(extra)
    m, _ = scramble(RingMatrix(ring, rows),
                    random_recipe(ring, n, n + 1, seed))
    return m


def fallback_matrix(key):
    """[[x, y], [0, y^2]]: F_1 = (x, y) and the candidate diag(x, y^2) has
    F_1 = (x, y^2), with the same zero set and, at every point of
    {0, 1, -1}^2, the same gcd, so no evaluation point separates them."""
    from diagcert.rings import RingDescriptor
    ring = RingDescriptor.polynomial(*SCRAMBLE_RINGS[key])
    return RingMatrix.parse(ring, [["x", "y"], ["0", "y^2"]])


def _swap(record, old, new):
    from dataclasses import replace
    return replace(record, refutations=tuple(new if r is old else r
                                             for r in record.refutations))


def test_obstruction_verify_rejects_tampering():
    from dataclasses import replace
    from fractions import Fraction
    from diagcert.verifier import fitting_image
    m = scrambled_core("Z[x]", 3)
    record = diagonalize(m).obstruction
    assert record.verify(m)
    refs = record.refutations
    assert {r.evidence for r in refs} == {"evaluation"}
    fac = record.det_factorization
    r0 = refs[0]
    cand = RingMatrix.diagonal(m.ring, list(r0.diagonal))
    recorded = (r0.matrix_image, r0.candidate_image)

    def recomputed(point, k):
        return fitting_image(m, point, k), fitting_image(cand, point, k)

    # a point and an index at which the recorded images do not come back
    wrong_point = next(p for p in ({"x": v} for v in (1, -1, 2, 3))
                       if recomputed(p, r0.fitting_index) != recorded)
    wrong_k = next(k for k in range(4) if k != r0.fitting_index
                   and recomputed(r0.point, k) != recorded)
    other_fac = diagonalize(scrambled_core("Z[x]", 2)).obstruction \
        .det_factorization
    assert other_fac.expand() != fac.expand()
    # the Groebner cases run on the refutation of the fallback matrix
    fm = fallback_matrix("Q[x,y]")
    fallback = diagonalize(fm).obstruction
    assert fallback.verify(fm)
    g = next(r for r in fallback.refutations if r.evidence == "groebner")
    # another candidate's ideal at the same index
    other_ideal = next(
        ideal for ideal in (
            fitting_ideal(RingMatrix.diagonal(fm.ring, list(r.diagonal)),
                          g.fitting_index) for r in fallback.refutations)
        if ideal != g.candidate_ideal)
    # an index where the matrix ideal differs from the recorded one
    wrong_gk = next(k for k in range(3) if k != g.fitting_index
                    and fitting_ideal(fm, k) != g.matrix_ideal)
    tampered = {
        "dropped refutation": (replace(record, refutations=refs[1:]), m),
        "wrong point": (_swap(record, r0, replace(r0, point=wrong_point)), m),
        "point missing a variable": (_swap(record, r0, replace(r0, point={})),
                                     m),
        "wrong matrix image": (_swap(record, r0, replace(
            r0, matrix_image=r0.matrix_image + 1)), m),
        "wrong candidate image": (_swap(record, r0, replace(
            r0, candidate_image=r0.candidate_image + 1)), m),
        "wrong evaluation index": (_swap(record, r0, replace(
            r0, fitting_index=wrong_k)), m),
        "Groebner refutation relabelled as evaluation": (_swap(
            fallback, g, replace(g, evidence="evaluation")), fm),
        "swapped candidate ideal": (_swap(fallback, g, replace(
            g, candidate_ideal=other_ideal)), fm),
        "wrong fitting index": (_swap(fallback, g, replace(
            g, fitting_index=wrong_gk)), fm),
        "incomplete factorization": (replace(
            record, det_factorization=replace(fac, complete=False)), m),
        "another matrix's determinant": (replace(
            record, det_factorization=other_fac), m),
        # the same candidates, so only the expansion can tell
        "the negated determinant": (replace(
            record, det_factorization=replace(fac, unit=-fac.unit)), m),
    }
    # indices outside 1..n and point values that are not ints are rejected,
    # not raised on, by either kind of evidence
    for k in (-1, 0, 3, 5):
        tampered[f"Groebner index {k}"] = (_swap(fallback, g, replace(
            g, fitting_index=k)), fm)
    for k in (-1, 0, 4, 6):
        tampered[f"evaluation index {k}"] = (_swap(record, r0, replace(
            r0, fitting_index=k)), m)
    for value in (Fraction(1, 2), 0.5, "1", None):
        tampered[f"point value {value!r}"] = (_swap(record, r0, replace(
            r0, point={"x": value})), m)
    for what, (bad, source) in tampered.items():
        assert not bad.verify(source), what


@pytest.mark.parametrize("key", ["Q[x,y]", "F5[x,y]", "Z[x,y]"])
def test_groebner_fallback_where_no_point_separates(key):
    from itertools import product
    from diagcert.specialization import fitting_images
    m = fallback_matrix(key)
    result = diagonalize(m)
    assert result.verdict == "no" and result.method == "fitting-obstruction"
    record = result.obstruction
    by_diag = {tuple(str(d) for d in r.diagonal): r for r in record.refutations}
    assert {diag: r.evidence for diag, r in by_diag.items()} == {
        ("1", "x*y^2"): "evaluation", ("y", "x*y"): "evaluation",
        ("x", "y^2"): "groebner"}
    g = by_diag[("x", "y^2")]
    assert g.fitting_index == 1
    assert sorted(str(e) for e in g.matrix_ideal.groebner()) == ["x", "y"]
    assert sorted(str(e) for e in g.candidate_ideal.groebner()) == ["x", "y^2"]
    cand = RingMatrix.diagonal(m.ring, list(g.diagonal))
    for x, y in product((0, 1, -1), repeat=2):
        point = {"x": x, "y": y}
        assert fitting_images(m.rows, point) == fitting_images(cand.rows, point)
    assert record.verify(m)
    text = dumps(result.to_json())
    assert '"evidence": "groebner"' in text and '"matrix_ideal"' in text
    assert '"evidence": "evaluation"' in text and '"point"' in text


def test_analyze_factors_the_determinant_once(fixtures_dir, monkeypatch):
    import diagcert.diagonalizer as dz
    calls = []
    real = dz.factor

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(dz, "factor", counting)
    report = analyze(_fixture_matrix(fixtures_dir, "jordan_block.json"))
    assert report.diagonalizable.verdict == "no"
    assert report.det_factorization is \
        report.diagonalizable.obstruction.det_factorization
    assert len(calls) == 1


# sha256 of dumps(diagonalize(m).to_json()), taken when each candidate was
# first evaluated at the points of {0, 1, -1}^n in product order; only
# ("Z[x,y]", 3) has a candidate no point separates, refuted over the ring.
# A key that names a fixture loads its matrix; torsion_int's candidates are
# refuted by integer elementary divisors.
NO_PATH_DIGESTS = {
    ("jordan_block", 2):
        "b94bf3540d3f6a78dceb6d64394e5b4192f59effa95e559a0f89a873c6f22bd7",
    ("torsion_int", 2):
        "60022cc93e57d8cd8d478e298b17c546e14e95e97016b0fd21442a88a7c3a4fa",
    ("Q[x,y]", 2):
        "e17fc9a228a176be263fe443dcc4c92668405858ad520d6d86d9d97ad2f89ed8",
    ("Q[x,y]", 3):
        "3746e9e97bb36b6636eb7d155c934bd21663f84ca8c87ca7714d70e5c1b8077c",
    ("Z[x,y]", 2):
        "e17fc9a228a176be263fe443dcc4c92668405858ad520d6d86d9d97ad2f89ed8",
    ("Z[x,y]", 3):
        "d7e43088fc4224f24c2c840cb5371beb60140d52adbebe83441f28a970b7d10f",
    ("F5[x,y]", 2):
        "57ef013a0a34b81c1b7362663b6b75d62b445db4e9ef03284b1a29a1841fe0c0",
    ("F5[x,y]", 3):
        "81bd19847a698aad6edd5742ee7e77709ad6ad6e4e038e97e9e7df6b905239ff",
    ("Z[x]", 2):
        "feaf1d13e520509770c48e2ae0150679642f82b33b0bc283893d9f8fc3aecf25",
    ("Z[x]", 3):
        "3ca36c1f8bdffc609ed4bb1e42bfed16c250047518c7ef0d4d751f738cfd2620",
}


@pytest.mark.parametrize("key, n", sorted(NO_PATH_DIGESTS))
def test_no_path_bytes_pinned(fixtures_dir, key, n):
    import hashlib
    if (fixtures_dir / f"{key}.json").exists():
        m = _fixture_matrix(fixtures_dir, f"{key}.json")
    else:
        m = scrambled_core(key, n)
    result = diagonalize(m)
    assert result.verdict == "no"
    text = dumps(result.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == NO_PATH_DIGESTS[key, n]


@pytest.mark.parametrize("key, n", sorted(NO_PATH_DIGESTS))
def test_no_path_bytes_when_the_search_runs_out_first(fixtures_dir, key, n,
                                                      obstruction_calls):
    # one node runs out before the first stall, so the refutation runs after
    # the search, and its record is the one the stall would have produced
    import hashlib
    if (fixtures_dir / f"{key}.json").exists():
        m = _fixture_matrix(fixtures_dir, f"{key}.json")
    else:
        m = scrambled_core(key, n)
    text = dumps(diagonalize(m, Bounds(search_nodes=1)).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == NO_PATH_DIGESTS[key, n]
    assert len(obstruction_calls) == 1


@pytest.mark.parametrize("ring_args, grid, unit", [
    (("integers", ["x"], "lex"), [["-1", "x"], ["x", "0"]], "-1"),
    (("rationals", ["x", "y"], "grevlex"), [["2", "x"], ["y", "0"]], "1/2"),
])
def test_search_clears_around_a_unit_entry(ring_args, grid, unit):
    # the forced step scales the unit entry to 1, then clears its row and
    # column; the certificate replays the column scaling
    from diagcert.rings import RingDescriptor
    ring = RingDescriptor.polynomial(*ring_args)
    result = diagonalize(RingMatrix.parse(ring, grid))
    assert result.verdict == "yes" and result.method == "elementary-search"
    assert verify_certificate(result.certificate).valid
    transcript = result.to_json()["certificate"]["transcript"]
    assert transcript[0] == {"i": 0, "op": "col_scale", "unit": unit}
    assert [str(d) for d in result.unit_diagonal_entries] == ["1"]


# ---------------------------------------------------------------------------
# property: scrambles with a known answer, over all four ring kinds

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)

# per ring: the entries a scrambled diagonal is drawn from
DIAGONAL_ENTRIES = {
    "Q[x,y]": ("x", "y", "x + y", "x*y"),
    "Z[x,y]": ("2", "x", "y", "x*y"),
    "F5[x,y]": ("x", "y + 1", "x + y", "x*y"),
    "Z[x]": ("2", "x", "x + 1", "2*x"),
}


def scrambled_diagonal(key, n, seed):
    import random
    from diagcert.rings import RingDescriptor
    from diagcert.testkit import random_recipe, scramble
    ring = RingDescriptor.polynomial(*SCRAMBLE_RINGS[key])
    rng = random.Random(seed)
    entries = [ring.parse(rng.choice(DIAGONAL_ENTRIES[key])) for _ in range(n)]
    m, _ = scramble(RingMatrix.diagonal(ring, entries),
                    random_recipe(ring, n, n + 1, seed))
    return m


def _evaluated_image(ideal, point):
    """The image of an ideal at an integer point, from its generators: the
    gcd of their values over Z coefficients, else whether one is nonzero."""
    from functools import reduce
    from math import gcd
    ring = ideal.ring
    values = [point[v] for v in ring.variables]
    evaluated = []
    for g in ideal.generators:
        total = 0
        for exp, c in g.terms():
            for v, k in zip(values, exp):
                c = c * v ** k
            total += c
        evaluated.append(total % ring.coeffs.p if hasattr(ring.coeffs, "p")
                         else total)
    if ring.coeffs.is_field:
        return int(any(e != 0 for e in evaluated))
    return reduce(gcd, evaluated, 0)


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(SCRAMBLE_RINGS)), st.sampled_from([2, 3]),
       st.integers(0, 10**6))
def test_scrambled_cores_never_get_yes(key, n, seed):
    m = scrambled_core(key, n, seed)
    result = diagonalize(m)
    assert result.verdict != "yes"
    if result.verdict == "no":
        record = result.obstruction
        assert record.verify(m)
        for r in record.refutations:
            if r.evidence != "evaluation":
                continue
            k = r.fitting_index
            cand = RingMatrix.diagonal(m.ring, list(r.diagonal))
            assert _evaluated_image(fitting_ideal(m, k), r.point) == \
                r.matrix_image
            assert _evaluated_image(fitting_ideal(cand, k), r.point) == \
                r.candidate_image


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(SCRAMBLE_RINGS)), st.sampled_from([2, 3]),
       st.integers(0, 10**6))
def test_scrambled_diagonals_never_get_no(key, n, seed):
    assert diagonalize(scrambled_diagonal(key, n, seed)).verdict != "no"
