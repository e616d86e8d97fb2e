import random

from diagcert.linalg import RingMatrix, smith_normal_form, verify_certificate
from diagcert.specialization import points
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


def test_points_follow_the_product_order(zz, zx, qx, qxy, f5x):
    from itertools import product
    from diagcert.rings import RingDescriptor
    assert list(points(zz)) == [{}]
    zxy = RingDescriptor.polynomial("integers", ["x", "y"], "grevlex")
    f5xy = RingDescriptor.polynomial(5, ["x", "y"], "grevlex")
    for ring in (zx, qx, f5x, zxy, qxy, f5xy):
        assert list(points(ring)) == [
            dict(zip(ring.variables, combo))
            for combo in product((0, 1, -1), repeat=ring.nvars)]
    assert list(points(qxy))[:4] == [{"x": 0, "y": 0}, {"x": 0, "y": 1},
                                     {"x": 0, "y": -1}, {"x": 1, "y": 0}]
