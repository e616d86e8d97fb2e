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
