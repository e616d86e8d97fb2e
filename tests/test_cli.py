import hashlib
import json

import pytest

from diagcert import filtration, groebner, verifier
from diagcert.bounds import DEFAULT_STEPS, Bounds, current_steps
from diagcert.cli import main, request_from_argv
from diagcert.diagonalizer import analyze, diagonalize
from diagcert.errors import StepBudgetExceeded
from diagcert.filtration import sample_lattice, search_minimal_cyclic_filtration
from diagcert.homalg import (FPModule, ModuleHom, hom_module, is_isomorphic,
                             is_quasi_gorenstein)
from diagcert.jsonio import dumps, load_document, matrix_from_json


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_snf_on_integer_matrix(tmp_path, capsys, fixtures_dir):
    doc = {"schema": "diagcert/1", "ring": {"kind": "integers"},
           "matrix": [["2", "4"], ["6", "8"]]}
    path = tmp_path / "m.json"
    path.write_text(dumps(doc))
    code, out, _ = invoke(capsys, "snf", "--input", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["smith_form"]["invariant_factors"] == ["2", "4"]


def test_analyze_jordan_json(capsys, fixtures_dir):
    code, out, _ = invoke(capsys, "analyze", "--input",
                          str(fixtures_dir / "jordan_block.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["quasi_gorenstein"]["verdict"] == "yes"
    assert payload["diagonalizable"]["verdict"] == "no"
    assert payload["minimal_cyclic_filtration"]["verdict"] == "none_within_bounds"
    assert payload["discrepancies"] == []


def test_analyze_triangular_discrepancies(capsys, fixtures_dir):
    code, out, _ = invoke(capsys, "analyze", "--input",
                          str(fixtures_dir / "triangular_int.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagonalizable"]["verdict"] == "yes"
    assert payload["diagonalizable"]["verified"] is True
    assert len(payload["discrepancies"]) == 2


def test_byte_identical_reruns(capsys, fixtures_dir):
    args = ("analyze", "--input", str(fixtures_dir / "jordan_block.json"),
            "--json")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


def test_verify_valid_and_tampered(tmp_path, capsys, fixtures_dir):
    code, out, _ = invoke(capsys, "verify", "--input",
                          str(fixtures_dir / "triangular_int_certificate.json"),
                          "--json")
    assert code == 0
    assert json.loads(out)["verify"]["valid"] is True
    doc = json.loads((fixtures_dir / "triangular_int_certificate.json").read_text())
    doc["target"][0][1] = "1"      # perturb one entry
    bad = tmp_path / "tampered.json"
    bad.write_text(dumps(doc))
    code, out, _ = invoke(capsys, "verify", "--input", str(bad), "--json")
    assert code == 0               # verification itself succeeded
    payload = json.loads(out)
    assert payload["verify"]["valid"] is False
    assert payload["verify"]["reason"]


@pytest.mark.parametrize("transcript, reason", [
    # a step the transforms do not contain
    (lambda ops: ops + [{"op": "row_swap", "i": 0, "j": 1}],
     "transcript does not reproduce left"),
    # a step that cannot be applied to the source
    (lambda ops: [{"op": "row_swap", "i": 5, "j": 1}],
     "transcript step 0: elementary operation index out of range"),
], ids=["extra-step", "step-out-of-range"])
def test_verify_replays_the_transcript(tmp_path, capsys, fixtures_dir,
                                       transcript, reason):
    doc = json.loads((fixtures_dir / "triangular_int_certificate.json").read_text())
    doc["transcript"] = transcript(doc["transcript"])
    bad = tmp_path / "contradicting.json"
    bad.write_text(dumps(doc))
    code, out, _ = invoke(capsys, "verify", "--input", str(bad), "--json")
    assert code == 0
    assert json.loads(out)["verify"] == {"valid": False, "reason": reason}


def test_filtration_of_the_zero_module(capsys, fixtures_dir):
    code, out, err = invoke(capsys, "filtration", "--input",
                            str(fixtures_dir / "zero_module.json"), "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)["filtration"]
    assert report["verdict"] == "found"
    assert report["filtration"]["length"] == 0


def test_filtration_exit_codes(capsys, fixtures_dir):
    code, out, _ = invoke(capsys, "filtration", "--input",
                          str(fixtures_dir / "z4.json"), "--json")
    assert code == 0
    assert json.loads(out)["filtration"]["verdict"] == "found"
    code, _, _ = invoke(capsys, "filtration", "--input",
                        str(fixtures_dir / "jordan_block.json"))
    assert code == 4



def test_filtration_where_the_sample_takes_gcds(tmp_path, capsys):
    # principal_generator once took gcds of these annihilators over Z[x,y],
    # and the subresultant remainder sequence raised an internal invariant;
    # it now reads the reduced basis and takes no gcd
    doc = {"schema": "diagcert/1",
           "ring": {"kind": "polynomial", "coefficients": "integers",
                    "variables": ["x", "y"], "order": "grevlex"},
           "generators": 1,
           "relations": [["-3*x^3 + x^2*y + 6*x - 2*y"], ["-9*x^3 + 3*x^2*y"]]}
    path = tmp_path / "module.json"
    path.write_text(dumps(doc))
    code, out, err = invoke(capsys, "filtration", "--input", str(path),
                            "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["filtration"]["verdict"] == "found"

# a symmetric 4 x 4 input goes down the unsigned permutation sweep; sha256
# of its --json bytes, taken while symmetric inputs had their own branch
SYMMETRIC_4X4_QG_SHA256 = \
    "b63fcadff773ca2a67393fadb881c3c095b59246215d875c29a003411f8d32cc"


def test_qg_subcommand(tmp_path, capsys, fixtures_dir):
    code, out, _ = invoke(capsys, "qg", "--input",
                          str(fixtures_dir / "jordan_block.json"), "--json")
    assert code == 0
    assert json.loads(out)["quasi_gorenstein"]["verdict"] == "yes"
    doc = {"schema": "diagcert/1",
           "ring": {"kind": "polynomial", "coefficients": "rationals",
                    "variables": ["x", "y"], "order": "grevlex"},
           "matrix": [["x", "y", "0", "0"], ["y", "x", "0", "0"],
                      ["0", "0", "x", "1"], ["0", "0", "1", "y"]]}
    path = tmp_path / "symmetric.json"
    path.write_text(dumps(doc))
    code, out, _ = invoke(capsys, "qg", "--input", str(path), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SYMMETRIC_4X4_QG_SHA256


def test_qg_unknown_echoes_its_bounds(capsys, fixtures_dir):
    code, out, _ = invoke(capsys, "qg", "--input",
                          str(fixtures_dir / "triangular_int.json"),
                          "--degree", "1", "--height", "1", "--json")
    assert code == 4
    assert json.loads(out)["quasi_gorenstein"] == {
        "verdict": "unknown", "bounds": Bounds(degree=1, height=1).to_json()}


# sha256 of `qg --json` on triangular_int, which the candidate search
# decides, taken while the transpose test still ran the isomorphism
# obstructions first
TRIANGULAR_QG_SHA256 = \
    "6fe885dba8ebc25648a7e9be90695150fe3e04ab07a6703dbd4893cb9b9f1bd1"


def test_qg_fallback_checks_no_invariant(capsys, fixtures_dir, monkeypatch):
    from diagcert import homalg

    def refuse(*args):
        raise AssertionError("the transpose test computed an invariant")

    for name in ("_obstructions", "annihilator", "module_fitting_ideal"):
        monkeypatch.setattr(homalg, name, refuse)
    code, out, _ = invoke(capsys, "qg", "--input",
                          str(fixtures_dir / "triangular_int.json"), "--json")
    assert code == 0
    assert json.loads(out)["quasi_gorenstein"]["module_isomorphism"]
    assert hashlib.sha256(out.encode()).hexdigest() == TRIANGULAR_QG_SHA256



def test_qg_tries_no_unit_multiple_twice(capsys, fixtures_dir, monkeypatch):
    from diagcert import homalg
    tried = []

    def spy_try_iso(phi, _try_iso=homalg._try_iso):
        tried.append(phi.matrix)
        return _try_iso(phi)

    monkeypatch.setattr(homalg, "_try_iso", spy_try_iso)
    code, out, _ = invoke(capsys, "qg", "--input",
                          str(fixtures_dir / "triangular_int.json"), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRIANGULAR_QG_SHA256
    assert tried
    # over Z the units are 1 and -1
    for i, a in enumerate(tried):
        assert any(not e.is_zero() for row in a for e in row)
        negated = tuple(tuple(-e for e in row) for row in a)
        assert all(b not in (a, negated) for b in tried[i + 1:])

# 3 x 3 inputs the signed permutation sweep decides: a symmetric one (hit at
# the identity pair) and one whose transpose needs the reversal with a sign;
# sha256 of the --json bytes, taken while the sweep formed every P*m*Q
SWEEP_QG_INPUTS = {
    "symmetric": ([["x", "y", "1"], ["y", "x^2", "0"], ["1", "0", "y"]],
                  [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                  "24e748df1e367b0202874d839b365f91b644f368fb3cb8a7502a9c037e401ec4"),
    "swapped": ([["x", "y", "1"], ["1", "x", "-y"], ["x^2", "-1", "x"]],
                [["0", "0", "1"], ["0", "-1", "0"], ["1", "0", "0"]],
                "cf7532ab19998cc5ce56af2cbe0d1151f4b8befe5898e9c3467be5197d5b1cf5"),
}


@pytest.mark.parametrize("name", sorted(SWEEP_QG_INPUTS))
def test_qg_sweep_bytes_pinned(tmp_path, capsys, name):
    rows, witness, digest = SWEEP_QG_INPUTS[name]
    doc = {"schema": "diagcert/1",
           "ring": {"kind": "polynomial", "coefficients": "rationals",
                    "variables": ["x", "y"], "order": "grevlex"},
           "matrix": rows}
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(doc))
    code, out, _ = invoke(capsys, "qg", "--input", str(path), "--json")
    assert code == 0
    cert = json.loads(out)["quasi_gorenstein"]["transpose_equivalence"]
    assert cert["left"] == cert["right"] == witness
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_diagonalize_subcommand(capsys, fixtures_dir):
    code, out, _ = invoke(capsys, "diagonalize", "--input",
                          str(fixtures_dir / "triangular_int.json"), "--json")
    assert code == 0
    assert json.loads(out)["diagonalize"]["verdict"] == "yes"


# a 3 x 3 input over Z[x] whose module isomorphism needs its kernel proof
# from the inverse: an injectivity elimination runs out of 20,000 steps
ZX_QG_BY_ISOMORPHISM = {
    "schema": "diagcert/1",
    "ring": {"kind": "polynomial", "coefficients": "integers",
             "variables": ["x"], "order": "lex"},
    "matrix": [["2", "x + 1", "-x"], ["2", "x^2", "1"], ["-x", "2", "1"]]}


def test_qg_isomorphism_under_a_tight_step_limit(tmp_path, capsys):
    path = tmp_path / "zx.json"
    path.write_text(dumps(ZX_QG_BY_ISOMORPHISM))
    code, out, err = invoke(capsys, "qg", "--input", str(path), "--json",
                            "--degree", "1", "--height", "1",
                            "--steps", "20000")
    assert (code, err) == (0, "")
    report = json.loads(out)["quasi_gorenstein"]
    assert report["verdict"] == "yes"
    m = matrix_from_json(load_document(str(path)))[0]
    M, N = FPModule.from_matrix(m), FPModule.from_matrix(m.transpose())
    phi, psi = (ModuleHom(src, dst, [[m.ring.parse(e) for e in row]
                                     for row in report["module_isomorphism"]
                                     [key]["matrix"]])
                for key, src, dst in (("forward", M, N), ("inverse", N, M)))
    assert phi.is_well_defined() and psi.is_well_defined()
    assert psi.compose(phi).is_identity_mod_relations()
    assert phi.compose(psi).is_identity_mod_relations()


MALFORMED_RINGS = [
    {"kind": "polynomial", "coefficients": "integers", "variables": [1]},
    {"kind": "polynomial", "variables": ["x"]},
    {"kind": "polynomial", "coefficients": None, "variables": ["x"]},
    {"kind": "polynomial", "coefficients": 2.5, "variables": ["x"]},
    {"kind": "polynomial", "coefficients": ["integers"], "variables": ["x"]},
]


@pytest.mark.parametrize("subcommand", ["snf", "analyze", "qg", "diagonalize",
                                        "filtration", "verify"])
@pytest.mark.parametrize("ring", MALFORMED_RINGS, ids=[
    "integer-variable", "no-coefficients", "null-coefficients",
    "float-coefficients", "list-coefficients"])
def test_malformed_ring_is_a_usage_error(tmp_path, capsys, fixtures_dir,
                                         subcommand, ring):
    if subcommand == "verify":
        doc = json.loads(
            (fixtures_dir / "triangular_int_certificate.json").read_text())
    else:
        doc = {"schema": "diagcert/1", "matrix": [["x", "1"], ["0", "x"]]}
    doc["ring"] = ring
    path = tmp_path / "bad.json"
    path.write_text(dumps(doc))
    code, out, err = invoke(capsys, subcommand, "--input", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err



def _with(fixture, **fields):
    return lambda fixtures_dir: dict(
        json.loads((fixtures_dir / fixture).read_text()), **fields)


CERTIFICATE = "triangular_int_certificate.json"
MALFORMED_DOCUMENTS = {
    "transcript-int": ("verify", _with(CERTIFICATE, transcript=5)),
    "transcript-of-strings": ("verify",
                              _with(CERTIFICATE, transcript=["row_swap"])),
    "operation-index-not-int": ("verify", _with(CERTIFICATE, transcript=[
        {"op": "row_swap", "i": "a", "j": [1]}])),
    "operation-index-bool": ("verify", _with(CERTIFICATE, transcript=[
        {"op": "col_add", "dst": True, "src": 0, "mult": "x"}])),
    "relations-int": ("filtration", _with("z4.json", relations=5)),
    "generators-bool": ("filtration", _with("z4.json", generators=True)),
    "claims-false": ("analyze", _with("jordan_block.json", claims=False)),
    "claims-list": ("analyze", _with("jordan_block.json", claims=[])),
}
SUBCOMMANDS = ["snf", "analyze", "qg", "diagonalize", "filtration", "verify"]


def _usage_error(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_is_a_usage_error(tmp_path, capsys, fixtures_dir,
                                             name):
    subcommand, build = MALFORMED_DOCUMENTS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(build(fixtures_dir)))
    _usage_error(capsys, subcommand, "--input", str(path))


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, subcommand, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"schema": "diagcert/1\xff"}')
    _usage_error(capsys, subcommand, "--input", str(path))

def test_parse_error_reports_position(tmp_path, capsys):
    doc = {"schema": "diagcert/1", "ring": {"kind": "integers"},
           "matrix": [["2", "4"], ["6", "8 +"]]}
    path = tmp_path / "bad.json"
    path.write_text(dumps(doc))
    code, out, err = invoke(capsys, "snf", "--input", str(path))
    assert code == 1
    assert "$.matrix[1][1]" in err


def test_unknown_fields_rejected(tmp_path, capsys):
    doc = {"schema": "diagcert/1", "ring": {"kind": "integers"},
           "matrix": [["2"]], "comment": "nope"}
    path = tmp_path / "bad.json"
    path.write_text(dumps(doc))
    code, _, err = invoke(capsys, "snf", "--input", str(path))
    assert code == 1 and "comment" in err


def test_missing_schema_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(dumps({"ring": {"kind": "integers"}, "matrix": [["2"]]}))
    code, _, err = invoke(capsys, "snf", "--input", str(path))
    assert code == 1 and "schema" in err


def test_snf_non_euclidean_is_usage_error(capsys, fixtures_dir):
    code, _, err = invoke(capsys, "snf", "--input",
                          str(fixtures_dir / "jordan_block.json"))
    assert code == 1
    assert "diagonalizer" in err


def test_missing_file(capsys):
    code, _, err = invoke(capsys, "snf", "--input", "/nonexistent.json")
    assert code == 1 and "not found" in err


def test_budget_env_is_ignored(capsys, fixtures_dir, monkeypatch):
    # the step limit comes from --steps alone; the environment sets none
    monkeypatch.setenv("DIAGCERT_BUDGET", "5")
    code, _, _ = invoke(capsys, "analyze", "--input",
                        str(fixtures_dir / "jordan_block.json"))
    assert code == 0


def test_certificate_json_roundtrip(fixtures_dir):
    from diagcert.jsonio import certificate_from_json, certificate_to_json, \
        load_document
    doc = load_document(str(fixtures_dir / "triangular_int_certificate.json"))
    cert = certificate_from_json(doc)
    again = certificate_from_json(certificate_to_json(cert))
    assert again.source == cert.source and again.left == cert.left
    assert again.right == cert.right and again.target == cert.target
    assert dumps(certificate_to_json(again)) == dumps(certificate_to_json(cert))


def test_request_parsing(capsys):
    req = request_from_argv(["analyze", "--input", "x.json", "--json",
                             "--degree", "3", "--height", "2"])
    assert req.subcommand == "analyze"
    assert req.bounds == Bounds(degree=3, height=2)
    assert req.as_json
    # the CLI's defaults are the defaults of Bounds
    assert request_from_argv(["snf", "--input", "x.json"]).bounds == Bounds()
    # nothing reads a seed, so there is no flag for one
    assert main(["analyze", "--input", "x.json", "--seed", "7"]) == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [("--degree", "0"), ("--steps", "-3"),
                                  ("--steps", "0")])
def test_bad_bounds_are_usage_errors(capsys, fixtures_dir, flag):
    code, _, err = invoke(capsys, "snf", "--input",
                          str(fixtures_dir / "z4.json"), *flag)
    assert code == 1
    name = flag[0].lstrip("-")
    assert f"error: bound '{name}' must be positive" in err


@pytest.mark.parametrize("subcommand", ["filtration", "analyze"])
def test_steps_flag_caps_groebner(capsys, fixtures_dir, subcommand):
    code, _, err = invoke(capsys, subcommand, "--input",
                          str(fixtures_dir / "jordan_block.json"),
                          "--steps", "5")
    assert code == 4
    assert "budget" in err.lower()


def test_step_budget_message_names_the_bound(capsys, fixtures_dir):
    code, _, err = invoke(capsys, "analyze", "--input",
                          str(fixtures_dir / "jordan_block.json"),
                          "--steps", "5")
    assert code == 4
    assert err == "budget exhausted: groebner step budget exhausted: " \
                  "steps=5\n"


def _jordan_calls(fixtures_dir):
    doc = load_document(str(fixtures_dir / "jordan_block.json"))
    m, _ = matrix_from_json(doc)
    M, Mt = FPModule.from_matrix(m), FPModule.from_matrix(m.transpose())
    return {
        "analyze": (lambda b: analyze(m, b),
                    lambda r: (r.diagonalizable.verdict, r.qg.verdict,
                               r.filtration.verdict)),
        "is_isomorphic": (lambda b: is_isomorphic(M, Mt, b),
                          lambda r: r.verdict),
        "search": (lambda b: search_minimal_cyclic_filtration(M, b),
                   lambda r: r.verdict),
        "sample_lattice": (lambda b: sample_lattice(M, b),
                           lambda r: len(r.entries)),
        "hom_module": (lambda b: hom_module(M, Mt, b), len),
    }


@pytest.mark.parametrize("name, expected", [
    ("analyze", ("no", "yes", "none_within_bounds")),
    ("is_isomorphic", "yes"),
    ("search", "none_within_bounds"),
    ("sample_lattice", 3),
    ("hom_module", 4),
])
def test_library_applies_step_bound(fixtures_dir, name, expected):
    call, verdict = _jordan_calls(fixtures_dir)[name]
    with pytest.raises(StepBudgetExceeded):
        call(Bounds(steps=5))
    # the limit does not outlive the call that set it
    assert verdict(call(Bounds())) == expected


@pytest.mark.parametrize("name", ["sample_lattice", "search"])
def test_one_default_for_steps(fixtures_dir, monkeypatch, name):
    # Bounds() and bounds=None both run on DEFAULT_STEPS, whatever the
    # environment says
    monkeypatch.setenv("DIAGCERT_BUDGET", "5")
    seen = []

    def spy():
        seen.append(current_steps())
        return seen[-1]

    monkeypatch.setattr(groebner, "current_steps", spy)
    call, verdict = _jordan_calls(fixtures_dir)[name]
    assert Bounds().steps == DEFAULT_STEPS
    assert verdict(call(Bounds())) == verdict(call(None))
    assert seen and set(seen) == {DEFAULT_STEPS}


def test_nested_call_without_bounds_runs_under_its_callers(fixtures_dir,
                                                            monkeypatch):
    # analyze reaches sample_basis_lattice(M) through the decomposition of
    # its diagonal, with no bounds of its own
    doc = load_document(str(fixtures_dir / "triangular_int.json"))
    m, _ = matrix_from_json(doc)
    samples = []
    real = filtration.sample_basis_lattice

    def recording(*args, **kwargs):
        samples.append(real(*args, **kwargs))
        return samples[-1]

    monkeypatch.setattr(filtration, "sample_basis_lattice", recording)
    caller = Bounds(degree=1, steps=DEFAULT_STEPS - 1)
    assert analyze(m, caller).diagonalizable.verdict == "yes"
    assert samples and all(s.bounds == caller for s in samples)
    # a top-level call without bounds runs under Bounds()
    assert real(samples[0].module).bounds == Bounds()


def test_step_bound_caps_each_computation(fixtures_dir):
    doc = load_document(str(fixtures_dir / "jordan_block.json"))
    m, _ = matrix_from_json(doc)
    assert diagonalize(m, Bounds(steps=5)).verdict == "no"
    assert is_quasi_gorenstein(m, Bounds(steps=5)).verdict == "yes"


@pytest.mark.parametrize("subcommand", ["analyze", "diagonalize", "qg"])
@pytest.mark.parametrize("name", ["jordan_block", "triangular_int"])
def test_each_certificate_verified_once(capsys, fixtures_dir, monkeypatch,
                                        subcommand, name):
    checked = []
    real_check = verifier.check_equivalence

    def counting_check(left, source, right, target):
        checked.append(tuple(m.rows for m in (left, source, right, target)))
        return real_check(left, source, right, target)

    monkeypatch.setattr(verifier, "check_equivalence", counting_check)
    for flags in ((), ("--json",)):
        checked.clear()
        code, _, _ = invoke(capsys, subcommand, "--input",
                            str(fixtures_dir / f"{name}.json"), *flags)
        assert code == 0
        assert len(checked) == len(set(checked))
