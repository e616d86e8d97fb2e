import pytest

from diagcert.bounds import Bounds
from diagcert.diagonalizer import (analyze, diagonalize,
                                   transpose_certificate_from_diagonal)
from diagcert.errors import FullRankRequiredError, StepBudgetExceeded
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
        assert r.fitting_index == 1
        assert sorted(str(g) for g in r.matrix_ideal.groebner()) == ["x", "y"]
    by_diag = {tuple(str(d) for d in r.diagonal): r for r in record.refutations}
    assert [str(g) for g in by_diag[("1", "x^2")].candidate_ideal.groebner()] == ["1"]
    assert [str(g) for g in by_diag[("x", "x")].candidate_ideal.groebner()] == ["x"]
    assert record.verify(m)


def test_triangular_int_diagonalizes(zx):
    m = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    result = diagonalize(m)
    assert result.verdict == "yes" and result.method == "elementary-search"
    assert verify_certificate(result.certificate).valid
    diag = sorted(str(d) for d in result.diagonal_entries())
    assert diag in (["2", "3"], ["1", "6"])
    cert_t = transpose_certificate_from_diagonal(result.certificate)
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


def _ideal(gens):
    return {"generators": gens, "groebner": gens}


JORDAN_NO = {
    "method": "fitting-obstruction",
    "obstruction": {
        "candidates_refuted": [
            {"candidate_ideal": {"generators": ["1", "x^2"],
                                 "groebner": ["1"]},
             "diagonal": ["1", "x^2"], "fitting_index": 1,
             "matrix_ideal": _ideal(["y", "x"])},
            {"candidate_ideal": _ideal(["x"]),
             "diagonal": ["x", "x"], "fitting_index": 1,
             "matrix_ideal": _ideal(["y", "x"])}],
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


def scrambled_core(key, n):
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
    m, _ = scramble(RingMatrix(ring, rows), random_recipe(ring, n, n + 1, 7))
    return m


def test_obstruction_verify_rejects_tampering():
    from dataclasses import replace
    m = scrambled_core("Z[x]", 3)
    record = diagonalize(m).obstruction
    assert record.verify(m)
    refs = record.refutations
    fac = record.det_factorization
    # two refutations at one index whose candidate ideals differ
    a, b = next((a, b) for a in refs for b in refs
                if a.fitting_index == b.fitting_index
                and a.candidate_ideal != b.candidate_ideal)
    # an index where the matrix ideal differs from the recorded one
    wrong_k = next(k for k in range(3) if k != refs[0].fitting_index
                   and fitting_ideal(m, k) != refs[0].matrix_ideal)
    other_fac = diagonalize(scrambled_core("Z[x]", 2)).obstruction \
        .det_factorization
    assert other_fac.expand() != fac.expand()
    tampered = {
        "dropped refutation": replace(record, refutations=refs[1:]),
        "swapped candidate ideal": replace(record, refutations=tuple(
            replace(r, candidate_ideal=b.candidate_ideal) if r is a else r
            for r in refs)),
        "wrong fitting index": replace(record, refutations=(
            replace(refs[0], fitting_index=wrong_k),) + refs[1:]),
        "incomplete factorization": replace(
            record, det_factorization=replace(fac, complete=False)),
        "another matrix's determinant": replace(
            record, det_factorization=other_fac),
        # the same candidates, so only the expansion can tell
        "the negated determinant": replace(
            record, det_factorization=replace(fac, unit=-fac.unit)),
    }
    for what, bad in tampered.items():
        assert not bad.verify(m), what


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


# sha256 of dumps(diagonalize(m).to_json()), taken while every candidate was
# multiplied out per exponent distribution and every Fitting ideal came from
# all minors by Bareiss
NO_PATH_DIGESTS = {
    ("jordan_block", 2):
        "b2b906709e8592dfa277602dad07e9a2be9808844f41a7e4dfcb0cbe45b26b8c",
    ("Q[x,y]", 2):
        "4f155166fa393725d29ce0fe1ccf5266eecd0954a5b7487772ae867e78cf0e5d",
    ("Q[x,y]", 3):
        "7c1c04889a7add0301c5912c3827dfd43000f02c9788bbf7305cfab548b877e4",
    ("Z[x,y]", 2):
        "e3c8aef5c21bf97de962ee8d86756eb427e99aaf060e68f5c9fb64b5b36e5c99",
    ("Z[x,y]", 3):
        "9db187b60cc8197fa134b8f6ea3c42bf70c75bd7111516ce418abb83807060d8",
    ("F5[x,y]", 2):
        "e00ddda754809180b9230b25f95ce0755f2bc39aa32b81dc379b8c7867a2d833",
    ("F5[x,y]", 3):
        "ccbd14e649aecd6ace4a62bcf48804fabb3f48e2062d93ca1c43e97a315bca40",
    ("Z[x]", 2):
        "9b2dd0ab91645745ed9a97b4ececc90fd93d35de80c9ddebc77a7ae95c372986",
    ("Z[x]", 3):
        "f99f9ae16f737c2fd3edd636bfeab4438d2802576b2076f3767dc499e97202db",
}


@pytest.mark.parametrize("key, n", sorted(NO_PATH_DIGESTS))
def test_no_path_bytes_pinned(fixtures_dir, key, n):
    import hashlib
    if key == "jordan_block":
        m = _fixture_matrix(fixtures_dir, "jordan_block.json")
    else:
        m = scrambled_core(key, n)
    result = diagonalize(m)
    assert result.verdict == "no"
    text = dumps(result.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == NO_PATH_DIGESTS[key, n]
