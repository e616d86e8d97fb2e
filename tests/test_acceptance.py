"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen.  Criterion 8 re-verifies every verdict the earlier criteria produced
(the registry below), plus a self-contained sweep, so it must run last in
this module (pytest's definition order guarantees that).
"""

import random
import time
from contextlib import contextmanager

from diagcert.diagonalizer import analyze, diagonalize
from diagcert.filtration import (filtration_from_decomposition,
                                 search_minimal_cyclic_filtration)
from diagcert.groebner import FreeVector
from diagcert.homalg import (FPModule, annihilator, ext, grade,
                             hom_dual_sequence, hom_module, is_isomorphic,
                             is_quasi_gorenstein, module_fitting_ideal,
                             quotient_presentation, split_test,
                             transpose_equivalence_from_diagonal)
from diagcert.jsonio import certificate_from_json, load_document
from diagcert.linalg import RingMatrix, fitting_ideal, smith_normal_form, \
    verify_certificate
from diagcert.rings import IdealHandle, RingDescriptor, ZZ
from diagcert.testkit import minors_gcd_snf_oracle, random_recipe, scramble

QXY = RingDescriptor.polynomial("rationals", ["x", "y"], "grevlex")
ZX = RingDescriptor.polynomial("integers", ["x"], "lex")

JORDAN = RingMatrix.parse(QXY, [["x", "y"], ["0", "x"]])
TRIANGULAR = RingMatrix.parse(ZX, [["2", "x"], ["0", "3"]])

# verdict registry consumed by the soundness sweep (criterion 8)
PRODUCED = []


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def vec(ring, *texts):
    return FreeVector(ring, tuple(ring.parse(t) for t in texts))


def test_criterion_1_snf_oracle_agreement():
    with criterion(1, "SNF oracle agreement, 500 seeded matrices"):
        start = time.time()
        rng = random.Random(20260809)
        for _ in range(500):
            n = rng.randint(2, 4)
            grid = [[str(rng.randint(-20, 20)) for _ in range(n)]
                    for _ in range(n)]
            m = RingMatrix.parse(ZZ, grid)
            form = smith_normal_form(m)
            check = verify_certificate(form.certificate)
            assert check.valid
            PRODUCED.append(("certificate", form.certificate))
            got = [abs(int(d.constant_coeff())) for d in form.invariant_factors]
            assert got == minors_gcd_snf_oracle(m)
            for a, b in zip(got, got[1:]):
                assert b % a == 0
        elapsed = time.time() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_jordan_fixture():
    with criterion(2, "fixture over Q[x,y]: annihilator, transpose, "
                      "obstruction, filtration"):
        start = time.time()
        module = FPModule.from_matrix(JORDAN)

        ann = annihilator(module)
        assert ann == IdealHandle(QXY, [QXY.parse("x^2")])
        assert [str(g) for g in ann.groebner()] == ["x^2"]

        qg = is_quasi_gorenstein(JORDAN)
        assert qg.verdict == "yes"
        cert = qg.matrix_certificate
        assert cert is not None and verify_certificate(cert).valid
        swap = RingMatrix.parse(QXY, [["0", "1"], ["1", "0"]])
        assert cert.left == swap and cert.right == swap
        PRODUCED.append(("certificate", cert))

        diag = diagonalize(JORDAN)
        assert diag.verdict == "no"
        record = diag.obstruction
        assert record.det_factorization.complete
        refuted = {tuple(str(d) for d in r.diagonal): r
                   for r in record.refutations}
        assert set(refuted) == {("1", "x^2"), ("x", "x")}
        assert sorted(str(g) for g in fitting_ideal(JORDAN, 1).groebner()) \
            == ["x", "y"]
        # (x, y) vanishes at (0, 0) where (1) does not, and not at (0, 1)
        # where (x) does
        for key, cand_gb, point, images in (
                (("1", "x^2"), ["1"], {"x": 0, "y": 0}, (0, 1)),
                (("x", "x"), ["x"], {"x": 0, "y": 1}, (1, 0))):
            r = refuted[key]
            assert r.fitting_index == 1 and r.evidence == "evaluation"
            assert (r.point, r.matrix_image, r.candidate_image) == \
                (point, *images)
            cand = RingMatrix.diagonal(QXY, list(r.diagonal))
            assert [str(g) for g in fitting_ideal(cand, 1).groebner()] == \
                cand_gb
        assert record.verify(JORDAN)
        PRODUCED.append(("obstruction", (record, JORDAN)))

        search = search_minimal_cyclic_filtration(module)
        assert search.verdict == "none_within_bounds"
        lattice = sorted(repr(i) for i in search.sample.ideals())
        assert lattice == ["(1)", "(x)", "(x^2)"]
        # the two chains displayed alongside the fixture are reconstructed
        # among the rejected candidates: a submodule with annihilator (x)
        # rejected as non-minimal, and the chain through (x^2) dead-ending
        # at the residue field
        assert any(r.reason == "not_minimal"
                   and r.annihilator.get("groebner") == ["x"]
                   for r in search.rejected)
        assert any(r.reason == "dead_end"
                   and list(r.chain_annihilators) == ["(x^2)"]
                   and any(sorted(b.get("groebner", [])) == ["x", "y"]
                           for b in r.detail.get("blocked_annihilators", []))
                   for r in search.rejected)
        elapsed = time.time() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_3_triangular_fixture_transcript(fixtures_dir):
    with criterion(3, "fixture over Z[x]: shipped transcript and consistency"):
        cert = certificate_from_json(
            load_document(str(fixtures_dir / "triangular_int_certificate.json")))
        assert cert.source == TRIANGULAR
        assert cert.transcript, "fixture must carry the elementary transcript"
        check = verify_certificate(cert)
        assert check.valid, check.reason
        assert cert.target.is_diagonal()
        assert [str(d) for d in cert.target.diagonal_entries()] == ["1", "-6"]
        PRODUCED.append(("certificate", cert))

        doc = load_document(str(fixtures_dir / "triangular_int.json"))
        claims = doc["claims"]
        report = analyze(TRIANGULAR, claims=claims)
        assert report.diagonalizable.verdict == "yes"
        assert verify_certificate(report.diagonalizable.certificate).valid
        assert report.qg.verdict == "yes"
        PRODUCED.append(("certificate", report.diagonalizable.certificate))
        # internally consistent with the four-way equivalence
        checks = {c["check"]: c for c in report.consistency}
        assert "diagonal_implies_transpose_equivalence" in checks
        assert checks["diagonal_implies_transpose_equivalence"]["detail"]["verified"]
        assert "decomposition_gives_filtration" in checks
        # the verified outcome contradicts the claims shipped with the
        # fixture, so the report must say so
        assert any("diagonalizable" in d and "certificates outrank claims" in d
                   for d in report.discrepancies)
        assert any("transpose_equivalent" in d for d in report.discrepancies)


def test_criterion_4_scramble_roundtrip():
    with criterion(4, "100 seeded scrambles of random diagonals"):
        start = time.time()
        irreducibles = [QXY.parse(s) for s in ["x", "y", "x+1", "y-1", "x+y"]]
        for trial in range(100):
            rng = random.Random(48607 + trial)
            n = rng.choice([2, 2, 3])
            entries = []
            for _ in range(n):
                e = rng.choice(irreducibles)
                if rng.random() < 0.5:
                    e = e * rng.choice(irreducibles)
                entries.append(e)
            seed_diag = RingMatrix.diagonal(QXY, entries)
            recipe = random_recipe(QXY, n, rng.randint(1, 6),
                                   seed=90000 + trial)
            scrambled, ground_truth = scramble(seed_diag, recipe)
            assert verify_certificate(ground_truth).valid

            result = diagonalize(scrambled)
            assert result.verdict == "yes", f"trial {trial}"
            assert verify_certificate(result.certificate).valid
            PRODUCED.append(("certificate", result.certificate))
            for k in range(1, n + 1):
                assert fitting_ideal(result.certificate.target, k) == \
                    fitting_ideal(seed_diag, k), f"trial {trial} k={k}"
            cert_t = transpose_equivalence_from_diagonal(result.certificate)
            assert verify_certificate(cert_t).valid
            PRODUCED.append(("certificate", cert_t))
            filtration_from_decomposition(result.diagonal_entries())
        elapsed = time.time() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_homological_fixtures():
    with criterion(5, "dual sequences, grade, Koszul self-duality"):
        full_rank_fixtures = [
            JORDAN,
            TRIANGULAR,
            RingMatrix.diagonal(QXY, [QXY.parse("x"), QXY.parse("y - 1")]),
            RingMatrix.parse(ZZ, [["2", "0"], ["0", "3"]]),
        ]
        for m in full_rank_fixtures:
            hom, ext1 = hom_dual_sequence(m)
            assert hom.is_zero()
            assert ext1.presentation_matrix() == m.transpose()
            assert ext(FPModule.from_matrix(m), 1).presentation_matrix() == \
                m.transpose()
            assert grade(FPModule.from_matrix(m)).value == 1

        kos = FPModule.cyclic(QXY, [QXY.parse("x"), QXY.parse("y")])
        e2 = ext(kos, 2)
        iso = is_isomorphic(e2, kos)
        assert iso.verdict == "yes"
        assert iso.inverse.compose(iso.forward).is_identity_mod_relations()
        PRODUCED.append(("iso", (iso, e2, kos)))


def test_criterion_6_quotient_dual_embeds():
    with criterion(6, "dual of the quotient embeds as the submodule"):
        module = FPModule.from_matrix(JORDAN)
        e1 = vec(QXY, "1", "0")
        quotient = quotient_presentation(module, [e1])
        ext_quotient = ext(quotient, 1)
        rx = FPModule.cyclic(QXY, [QXY.parse("x")])
        iso = is_isomorphic(ext_quotient, rx)
        assert iso.verdict == "yes"
        PRODUCED.append(("iso", (iso, ext_quotient, rx)))
        embedding = None
        for phi in hom_module(rx, module):
            if phi.certified_injective() and phi.image_equals([e1]):
                embedding = phi
                break
        assert embedding is not None
        composite = embedding.compose(iso.forward)
        assert composite.is_well_defined()
        assert composite.certified_injective()
        assert composite.image_equals([e1])


def test_criterion_7_splitting_behavior():
    with criterion(7, "splitting and the length-one minimal filtration"):
        z4 = FPModule.from_matrix(RingMatrix.parse(ZZ, [["4"]]))
        result = split_test(z4, [vec(ZZ, "2")])
        assert result.verdict == "not_split"
        assert result.obstruction.kind == "fitting"
        assert result.obstruction.verify()
        PRODUCED.append(("no_iso", result.iso))

        d23 = FPModule.from_matrix(RingMatrix.parse(ZZ, [["2", "0"], ["0", "3"]]))
        result = split_test(d23, [vec(ZZ, "1", "0")])
        assert result.verdict == "split"
        PRODUCED.append(("iso", (result.iso,
                                 d23,
                                 None)))

        search = search_minimal_cyclic_filtration(z4)
        assert search.verdict == "found"
        assert len(search.found.stages) == 1
        assert repr(search.found.quotient_ideals()[0]) == "(4)"


def test_criterion_8_soundness_sweep():
    with criterion(8, "soundness sweep over every emitted verdict"):
        # everything the earlier criteria produced must re-verify
        assert PRODUCED, "sweep expects the earlier criteria to have run"
        for kind, payload in PRODUCED:
            if kind == "certificate":
                assert verify_certificate(payload).valid
            elif kind == "obstruction":
                record, matrix = payload
                assert record.verify(matrix)
            elif kind == "iso":
                iso, lhs, rhs = payload
                assert iso.verdict == "yes"
                assert iso.forward.is_well_defined()
                assert iso.inverse.is_well_defined()
                assert iso.inverse.compose(iso.forward).is_identity_mod_relations()
                if lhs is not None and rhs is not None:
                    assert same_fitting_ideals(lhs, rhs)
            elif kind == "no_iso":
                assert iso_no_reverifies(payload)

        # self-contained sweep: yes-verdicts never coexist with a differing
        # Fitting ideal, no-verdicts re-verify
        pairs_yes = [
            (FPModule.from_matrix(RingMatrix.parse(ZZ, [["6"]])),
             FPModule.from_matrix(RingMatrix.parse(ZZ, [["2", "0"], ["0", "3"]]))),
            (FPModule.from_matrix(JORDAN),
             FPModule.from_matrix(JORDAN.transpose())),
        ]
        for lhs, rhs in pairs_yes:
            iso = is_isomorphic(lhs, rhs)
            assert iso.verdict == "yes"
            assert same_fitting_ideals(lhs, rhs)
        pairs_no = [
            (FPModule.from_matrix(RingMatrix.parse(ZZ, [["4"]])),
             FPModule.from_matrix(RingMatrix.parse(ZZ, [["2", "0"], ["0", "2"]]))),
            (FPModule.cyclic(QXY, [QXY.parse("x")]),
             FPModule.cyclic(QXY, [QXY.parse("y")])),
        ]
        for lhs, rhs in pairs_no:
            iso = is_isomorphic(lhs, rhs)
            assert iso.verdict == "no"
            assert iso.obstruction.verify()


def same_fitting_ideals(lhs, rhs) -> bool:
    """Every Fitting ideal agrees; by base change then every specialization
    to Z, a field or a univariate PID agrees too."""
    return all(module_fitting_ideal(lhs, j) == module_fitting_ideal(rhs, j)
               for j in range(max(lhs.gens, rhs.gens) + 1))


def iso_no_reverifies(iso) -> bool:
    return iso.verdict == "no" and iso.obstruction is not None \
        and iso.obstruction.verify()
