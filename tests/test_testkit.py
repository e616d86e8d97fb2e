import random

from diagcert.homalg import FPModule
from diagcert.linalg import RingMatrix, smith_normal_form, verify_certificate
from diagcert.specialization import (default_probes, probe_signature,
                                     specialization_oracle)
from diagcert.testkit import minors_gcd_snf_oracle, random_recipe, scramble


def test_oracle_fixtures(zz):
    assert minors_gcd_snf_oracle(RingMatrix.parse(zz, [["2", "4"], ["6", "8"]])) == [2, 4]
    assert minors_gcd_snf_oracle(RingMatrix.parse(zz, [["3", "0"], ["0", "5"]])) == [1, 15]
    assert minors_gcd_snf_oracle(RingMatrix.identity(zz, 2)) == [1, 1]


def test_oracle_agrees_with_snf(zz):
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 4)
        grid = [[str(rng.randint(-20, 20)) for _ in range(n)] for _ in range(n)]
        m = RingMatrix.parse(zz, grid)
        expected = minors_gcd_snf_oracle(m)
        form = smith_normal_form(m)
        got = [abs(int(d.constant_coeff())) for d in form.invariant_factors]
        assert got == expected


def test_scramble_empty_recipe(qxy):
    from diagcert.testkit import ScrambleRecipe
    D = RingMatrix.diagonal(qxy, [qxy.parse("x"), qxy.parse("y")])
    out, cert = scramble(D, ScrambleRecipe(seed=0, size=2, ops=()))
    assert out == D
    assert verify_certificate(cert).valid


def test_scramble_single_column_op(qxy):
    from diagcert.linalg import ColAdd
    from diagcert.testkit import ScrambleRecipe
    D = RingMatrix.diagonal(qxy, [qxy.parse("x"), qxy.parse("y")])
    recipe = ScrambleRecipe(seed=0, size=2,
                            ops=(ColAdd(1, 0, qxy.parse("y")).to_json(),))
    out, _ = scramble(D, recipe)
    assert out == RingMatrix.parse(qxy, [["x", "x*y"], ["0", "y"]])


def test_scramble_replay_deterministic(qxy):
    D = RingMatrix.diagonal(qxy, [qxy.parse("x"), qxy.parse("y - 1")])
    r1 = random_recipe(qxy, 2, 6, seed=9)
    r2 = random_recipe(qxy, 2, 6, seed=9)
    assert r1 == r2
    a, _ = scramble(D, r1)
    b, _ = scramble(D, r2)
    assert a == b
    assert verify_certificate(scramble(D, r1)[1]).valid


def test_specialization_distinguishes_finite_groups(zz):
    z4 = FPModule.from_matrix(RingMatrix.parse(zz, [["4"]]))
    klein = FPModule.from_matrix(RingMatrix.parse(zz, [["2", "0"], ["0", "2"]]))
    outcome = specialization_oracle(z4, klein)
    assert outcome.distinguished
    assert outcome.lhs_signature != outcome.rhs_signature


def test_specialization_same_module(qxy, zz):
    for M in (FPModule.from_matrix(RingMatrix.parse(zz, [["4"]])),
              FPModule.from_matrix(RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]]))):
        assert not specialization_oracle(M, M).distinguished


def test_specialization_jordan_vs_double_point(qxy):
    # frozen regression: substituting y -> 0 makes the two modules agree
    # (both become two copies of the x-axis double point), while y -> 1
    # collapses one of them to a single fat point and tells them apart
    jordan = FPModule.from_matrix(RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]]))
    dxx = FPModule.from_matrix(RingMatrix.parse(qxy, [["x", "0"], ["0", "x"]]))
    keep_probe = {"substitute": {"y": 0}, "keep": "x"}
    assert probe_signature(jordan, keep_probe) == probe_signature(dxx, keep_probe)
    assert probe_signature(jordan, keep_probe) == {"factors": ["x", "x"],
                                                   "free_rank": 0}
    point_probe = {"substitute": {"x": 0, "y": 1}}
    assert probe_signature(jordan, point_probe) == {"dim": 1}
    assert probe_signature(dxx, point_probe) == {"dim": 2}
    outcome = specialization_oracle(jordan, dxx)
    assert outcome.distinguished


def test_default_probes_are_the_points_then_keep_probes(zz, zx, qx, qxy, f5x):
    from itertools import product
    from diagcert.rings import RingDescriptor
    zxy = RingDescriptor.polynomial("integers", ["x", "y"], "grevlex")
    f5xy = RingDescriptor.polynomial(5, ["x", "y"], "grevlex")
    for ring in (zz, zx, qx, f5x, zxy, qxy, f5xy):
        probes = default_probes(ring)
        points = [dict(zip(ring.variables, combo))
                  for combo in product((0, 1, -1), repeat=ring.nvars)]
        assert probes[:len(points)] == [{"substitute": p} for p in points]
        keeps = probes[len(points):]
        if ring.coeffs.is_field and ring.nvars >= 2:
            assert [p["keep"] for p in keeps] == ["x"] * 3 + ["y"] * 3
            assert all(set(p) == {"substitute", "keep"} and
                       p["keep"] not in p["substitute"] for p in keeps)
        else:
            assert keeps == []
