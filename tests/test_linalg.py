import random
from itertools import combinations, permutations

import pytest

from diagcert.errors import (InternalInvariantError, NotEuclideanError,
                             UsageError)
from diagcert.linalg import (ColAdd, EquivalenceCertificate, RingMatrix,
                             RowAdd, RowScale, RowSwap, Workbench, apply_elementary,
                             determinant, fitting_ideal, inverse_unimodular,
                             smith_normal_form, verify_certificate)
from diagcert.rings import ZZ, IdealHandle, RingDescriptor


def perm_det(m):
    """Independent determinant oracle: permutation expansion."""
    ring = m.ring
    n = m.nrows
    total = ring.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ring.one()
        for i in range(n):
            term = term * m.rows[i][perm[i]]
        total = total + term if sign > 0 else total - term
    return total


def rand_matrix(rng, ring, n, degree=1, height=4):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            e = ring.zero()
            for _ in range(rng.randint(0, 2)):
                exp = tuple(rng.randint(0, degree) for _ in range(ring.nvars))
                e = e + ring.monomial(exp, ring.coeffs.from_int(
                    rng.randint(-height, height)))
            row.append(e)
        rows.append(row)
    return RingMatrix(ring, rows)


def test_determinant_fixtures(zx, qxy):
    assert str(determinant(RingMatrix.parse(zx, [["2", "x"], ["0", "3"]]))) == "6"
    assert str(determinant(RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]]))) == "x^2"
    diag = RingMatrix.diagonal(qxy, [qxy.parse("x"), qxy.parse("y - 1"),
                                     qxy.parse("x + y")])
    assert determinant(diag) == qxy.parse("x * (y - 1) * (x + y)")


def test_determinant_not_square(qxy):
    with pytest.raises(UsageError):
        determinant(RingMatrix.parse(qxy, [["x", "y"]]))


def test_determinant_vs_permutation_oracle(zz, qxy):
    rng = random.Random(31)
    for _ in range(25):
        m = rand_matrix(rng, zz, rng.randint(2, 4))
        assert determinant(m) == perm_det(m)
    for _ in range(15):
        m = rand_matrix(rng, qxy, rng.randint(2, 3))
        assert determinant(m) == perm_det(m)


def test_determinant_multiplicative_on_products(qxy):
    rng = random.Random(32)
    for _ in range(10):
        a = rand_matrix(rng, qxy, 2)
        b = rand_matrix(rng, qxy, 2)
        assert determinant(a * b) == determinant(a) * determinant(b)


def test_fitting_ideal_fixtures(zx, qxy):
    tri = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    assert [str(g) for g in fitting_ideal(tri, 1).groebner()] == ["1"]
    jor = RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]])
    assert sorted(str(g) for g in fitting_ideal(jor, 1).groebner()) == ["x", "y"]
    assert [str(g) for g in fitting_ideal(jor, 2).groebner()] == ["x^2"]
    assert fitting_ideal(jor, 0).is_unit_ideal()
    with pytest.raises(UsageError):
        fitting_ideal(jor, 3)


def test_fitting_invariance_under_equivalence_and_transpose(qxy):
    from diagcert.testkit import random_recipe
    rng = random.Random(33)
    for trial in range(6):
        m = rand_matrix(rng, qxy, 2)
        recipe = random_recipe(qxy, 2, 4, seed=330 + trial)
        bench = Workbench(m)
        from diagcert.linalg import op_from_json
        for op_data in recipe.ops:
            bench.apply(op_from_json(qxy, op_data))
        scrambled = bench.matrix()
        assert verify_certificate(bench.certificate()).valid
        for k in range(0, 3):
            assert fitting_ideal(m, k) == fitting_ideal(scrambled, k)
            assert fitting_ideal(m, k) == fitting_ideal(m.transpose(), k)


def test_apply_elementary_fixtures(zx):
    tri = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    out = apply_elementary(tri, ColAdd(1, 0, zx.parse("x + 2")))
    assert out == RingMatrix.parse(zx, [["2", "3*x + 4"], ["0", "3"]])
    diag = RingMatrix.parse(zx, [["2", "0"], ["0", "3"]])
    swapped = apply_elementary(diag, RowSwap(0, 1))
    assert swapped == RingMatrix.parse(zx, [["0", "3"], ["2", "0"]])
    scaled = apply_elementary(tri, RowScale(0, zx.parse("-1")))
    assert scaled == RingMatrix.parse(zx, [["-2", "-x"], ["0", "3"]])


def test_scale_by_non_unit_rejected(zx):
    tri = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    with pytest.raises(UsageError):
        apply_elementary(tri, RowScale(0, zx.parse("2")))
    with pytest.raises(UsageError):
        apply_elementary(tri, RowScale(0, zx.parse("x")))


def test_workbench_rejects_what_apply_elementary_rejects(zz):
    m = RingMatrix.parse(zz, [["2", "1"], ["0", "3"]])
    bad = RowAdd(0, 0, zz.from_int(-1))   # would zero row 0
    with pytest.raises(UsageError):
        apply_elementary(m, bad)
    bench = Workbench(m)
    with pytest.raises(UsageError):
        bench.apply(bad)
    with pytest.raises(UsageError):
        bench.apply(RowSwap(0, 2))
    assert bench.transcript == [] and bench.certificate().verify().valid


def test_verify_certificate_identity_and_tampered(zx):
    tri = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    ident = RingMatrix.identity(zx, 2)
    cert = EquivalenceCertificate(tri, ident, ident, tri)
    assert verify_certificate(cert).valid
    bad = EquivalenceCertificate(
        tri, ident, ident,
        RingMatrix.parse(zx, [["2", "x + 1"], ["0", "3"]]))
    check = verify_certificate(bad)
    assert not check.valid and "entry" in check.reason


def test_verify_hand_certificate(zx):
    tri = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    p = RingMatrix.parse(zx, [["1", "-x - 1"], ["-3", "3*x + 4"]])
    q = RingMatrix.parse(zx, [["x + 2", "-2*x - 3"], ["1", "-2"]])
    d = RingMatrix.parse(zx, [["1", "0"], ["0", "-6"]])
    assert verify_certificate(EquivalenceCertificate(tri, p, q, d)).valid
    assert str(determinant(p)) == "1"
    assert str(determinant(q)) == "-1"


def test_verify_rejects_non_unit_transform(zx):
    tri = RingMatrix.parse(zx, [["2", "x"], ["0", "3"]])
    p = RingMatrix.parse(zx, [["2", "0"], ["0", "1"]])
    target = p * tri
    check = verify_certificate(
        EquivalenceCertificate(tri, p, RingMatrix.identity(zx, 2), target))
    assert not check.valid and "unit" in check.reason


@pytest.mark.parametrize("lhs, rhs, valid, reason", [
    (["x"], ["x^2"], True, "x lies in the first ideal only"),
    (["x^2"], ["x"], True, "x lies in the second ideal only"),
    (["x", "x + x^2"], ["x"], False, "ideals are equal"),
])
def test_ideal_mismatch_check(zx, lhs, rhs, valid, reason):
    from diagcert.verifier import check_ideal_mismatch
    check = check_ideal_mismatch(IdealHandle(zx, [zx.parse(g) for g in lhs]),
                                 IdealHandle(zx, [zx.parse(g) for g in rhs]))
    assert (check.valid, check.reason) == (valid, reason)


def test_inverse_unimodular(zx, qxy):
    for m in (RingMatrix.parse(zx, [["1", "-x - 1"], ["-3", "3*x + 4"]]),
              # no entry is a unit
              RingMatrix.parse(qxy, [["1 + x*y", "x^2"],
                                     ["-y^2", "1 - x*y"]])):
        inv = inverse_unimodular(m)
        ident = RingMatrix.identity(m.ring, 2)
        assert m * inv == ident and inv * m == ident
    with pytest.raises(UsageError):
        inverse_unimodular(RingMatrix.parse(qxy, [["x", "1"], ["0", "1"]]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ring_name", ["zz", "zx", "qxy", "f5x"])
def test_inverse_unimodular_of_scrambled_identity(request, ring_name, n):
    from diagcert.testkit import random_recipe, scramble
    ring = request.getfixturevalue(ring_name)
    ident = RingMatrix.identity(ring, n)
    m, _ = scramble(ident, random_recipe(ring, n, 2 * n, seed=40 + n))
    # a unit other than 1 on the determinant: -1 over Z, 2 over fields
    unit = ring.from_int(-1 if ring.coeffs.name == "integers" else 2)
    m = apply_elementary(m, RowScale(n - 1, unit))
    inv = inverse_unimodular(m)
    assert m * inv == ident and inv * m == ident
    non_unit = ring.parse("x") if ring.nvars else ring.from_int(2)
    rows = [list(r) for r in m.rows]
    rows[0] = [non_unit * e for e in rows[0]]
    with pytest.raises(UsageError):
        inverse_unimodular(RingMatrix(ring, rows))


def test_determinant_cross_check_uses_the_verifier(zz, monkeypatch):
    from diagcert import verifier
    m = RingMatrix.parse(zz, [["2", "1"], ["0", "3"]])
    assert str(determinant(m)) == "6"
    monkeypatch.setattr(verifier, "_det", lambda ring, a: ring.from_int(7))
    with pytest.raises(InternalInvariantError):
        determinant(m)


def test_snf_fixtures(zz, qx):
    s = smith_normal_form(RingMatrix.parse(zz, [["2", "4"], ["6", "8"]]))
    assert [str(d) for d in s.invariant_factors] == ["2", "4"]
    s = smith_normal_form(RingMatrix.parse(zz, [["6", "0"], ["0", "2"]]))
    assert [str(d) for d in s.invariant_factors] == ["2", "6"]
    s = smith_normal_form(RingMatrix.parse(qx, [["x", "0"], ["0", "x"]]))
    assert [str(d) for d in s.invariant_factors] == ["x", "x"]


def test_snf_rejects_non_euclidean(qxy):
    with pytest.raises(NotEuclideanError):
        smith_normal_form(RingMatrix.parse(qxy, [["x", "y"], ["0", "x"]]))


def test_snf_over_univariate_field_random(qx, f5x):
    rng = random.Random(34)
    for ring in (qx, f5x):
        for _ in range(10):
            m = rand_matrix(rng, ring, rng.randint(2, 3), degree=2, height=3)
            form = smith_normal_form(m)
            assert verify_certificate(form.certificate).valid
            from diagcert.rings import exact_divide
            for a, b in zip(form.invariant_factors, form.invariant_factors[1:]):
                assert exact_divide(b, a) is not None


def test_snf_deterministic(zz):
    m = RingMatrix.parse(zz, [["4", "6", "8"], ["2", "10", "4"], ["6", "0", "2"]])
    a = smith_normal_form(m).certificate.to_json()
    b = smith_normal_form(m).certificate.to_json()
    assert a == b


def test_snf_singular_matrix(zz):
    m = RingMatrix.parse(zz, [["1", "2"], ["2", "4"]])
    form = smith_normal_form(m)
    assert [str(d) for d in form.invariant_factors] == ["1"]
    assert str(form.certificate.target.rows[1][1]) == "0"


# ---------------------------------------------------------------------------
# the diagonal route of fitting_ideal against all minors by Bareiss


def all_minors_ideal(m, k):
    """The Fitting ideal from every k x k minor by Bareiss, as built before
    diagonal matrices took their k-products directly."""
    gens = set()
    for rows_idx in combinations(range(m.nrows), k):
        for cols_idx in combinations(range(m.ncols), k):
            d = determinant(m.submatrix(rows_idx, cols_idx))
            if not d.is_zero():
                gens.add(d.canonical_associate()[1])
    return IdealHandle(m.ring, sorted(gens, key=lambda e: e.sort_key()))


# per ring: units, then non-units; each draw mixes both and repeats entries
DIAGONAL_POOLS = {
    "Z": (["1", "-1"], ["2", "-3", "4", "6", "-9"]),
    "Z[x,y]": (["1", "-1"], ["2", "x", "-x", "x + y", "2*x*y", "x^2 - 1"]),
    "Q[x,y]": (["1", "-1/2", "3"], ["x", "2*y", "x + y", "x*y - 1", "x^2"]),
    "F5[x,y]": (["1", "3"], ["x", "2*y + 1", "x + y", "x*y", "4*x^2"]),
}


def diagonal_ring(key):
    if key == "Z":
        return ZZ
    coeffs = {"Z[x,y]": "integers", "Q[x,y]": "rationals", "F5[x,y]": 5}[key]
    return RingDescriptor.polynomial(coeffs, ["x", "y"], "grevlex")


@pytest.mark.parametrize("key", sorted(DIAGONAL_POOLS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_diagonal_fitting_ideal_matches_all_minors(key, n):
    ring = diagonal_ring(key)
    units, others = DIAGONAL_POOLS[key]
    rng = random.Random(f"{key}/{n}")
    draws = [[rng.choice(others) for _ in range(n)],      # may repeat
             [others[0]] * n,                             # all equal
             [rng.choice(units + others) for _ in range(n)]]
    draws[2][0] = rng.choice(units)                       # a unit entry
    for entries in draws:
        m = RingMatrix.diagonal(ring, [ring.parse(e) for e in entries])
        for k in range(1, n + 1):
            fast, slow = fitting_ideal(m, k), all_minors_ideal(m, k)
            assert fast.generators == slow.generators, (entries, k)
            assert fast.groebner() == slow.groebner(), (entries, k)


def test_bareiss_divides_only_after_the_first_step(qxy, monkeypatch):
    # the first step divides by 1 and is skipped; every later division still
    # goes through exact_divide and its re-multiplication check
    import diagcert.linalg as la
    divisors = []
    real = la.exact_divide

    def spy(a, b):
        divisors.append(b)
        return real(a, b)

    monkeypatch.setattr(la, "exact_divide", spy)
    rng = random.Random(5)
    for n in range(1, 6):
        m = rand_matrix(rng, qxy, n)
        while m.rows[0][0].is_zero():
            m = rand_matrix(rng, qxy, n)
        divisors.clear()
        assert determinant(m) == perm_det(m) != qxy.zero()
        assert len(divisors) == sum((n - 1 - k) ** 2 for k in range(1, n - 1))
