"""Seeded inputs, the timed decision and the correctness gate of each workload.

A workload is a fixed list of cases built from the seed.  Each case has the
call that is timed (one decision through diagcert's public API), a judge that
checks a decision's output the first time it is seen, and a fingerprint that
later repeats of the same case must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

WORKLOADS = ("snf-euclid", "search-yes", "search-no", "analyze-full")

# passes a run makes at least; analyze-full repeats every job so that a
# change in its --json bytes within a run shows
MIN_PASSES = {"analyze-full": 2}

SCHEMA = "diagcert/1"

# irreducible elements that seed diagonals are multiplied from
IRREDUCIBLES = {
    "Z": ("2", "3", "5", "7"),
    "F5[x]": ("x", "x + 1", "x + 2", "x^2 + 2"),
    "Q[x]": ("x", "x + 1", "x - 1", "x^2 + 1"),
    "Q[x,y]": ("x", "y", "x + 1", "y - 1", "x + y"),
    "Z[x]": ("2", "3", "x", "x + 1", "x - 1"),
    "Z[x,y]": ("2", "x", "y", "x + 1", "y - 1", "x + y"),
    "F5[x,y]": ("x", "y", "x + 1", "y + 2", "x + y"),
}

# non-diagonalizable 2 x 2 cores of the search-no and analyze-full inputs
JORDAN_CORE = (("x", "y"), ("0", "x"))
TORSION_CORE = (("2", "x"), ("0", "2"))


@dataclass
class Case:
    label: str
    call: Callable[[], object]           # the timed decision
    judge: Callable[[object], tuple]     # first output -> (decided, failure)
    fingerprint: Callable[[object], str]  # what every repeat must reproduce
    require_yes: bool = False            # anything but a yes is a failure
    group: int = 0                       # cases of one group span all strata


# polynomial rings by name: (coefficients, variables, monomial order)
POLYNOMIAL_RINGS = {
    "F5[x]": (5, ("x",), "lex"),
    "Q[x]": ("rationals", ("x",), "lex"),
    "Q[x,y]": ("rationals", ("x", "y"), "grevlex"),
    "Z[x]": ("integers", ("x",), "lex"),
    "Z[x,y]": ("integers", ("x", "y"), "grevlex"),
    "F5[x,y]": (5, ("x", "y"), "grevlex"),
}


def ring_of(lib, key):
    RD = lib.rings.RingDescriptor
    return RD.integers() if key == "Z" else RD.polynomial(*POLYNOMIAL_RINGS[key])


def _case_rng(workload, seed, *where):
    # str seeds hash with SHA-512, so the stream is the same in every process
    return random.Random("/".join(str(p) for p in (workload, seed) + where))


def _seed_diagonal(rng, ring, key, n, max_factors):
    """n products of up to max_factors irreducibles, not all of them units."""
    irr = [ring.parse(s) for s in IRREDUCIBLES[key]]
    entries = []
    for _ in range(n):
        e = ring.one()
        for _ in range(rng.randint(0, max_factors)):
            e = e * rng.choice(irr)
        entries.append(e)
    if all(e.is_unit() for e in entries):
        entries[rng.randrange(n)] = rng.choice(irr)
    return entries


def _scrambled(lib, rng, ring, start, op_count, bounds):
    recipe = lib.testkit.random_recipe(ring, start.nrows, op_count,
                                       rng.randrange(2 ** 31), bounds)
    matrix, _ = lib.testkit.scramble(start, recipe)
    return matrix


def _with_core(lib, ring, core, tail):
    """Block diagonal matrix: the 2 x 2 core, then the tail entries."""
    n = 2 + len(tail)
    rows = [[ring.zero()] * n for _ in range(n)]
    for i in range(2):
        for j in range(2):
            rows[i][j] = ring.parse(core[i][j])
    for k, e in enumerate(tail):
        rows[2 + k][2 + k] = e
    return lib.linalg.RingMatrix(ring, rows)


# ---------------------------------------------------------------------------
# library decisions: diagonalize(m, Bounds())


def _same_fitting_ideals(lib, ring, got, want):
    """Whether two diagonals have equal Fitting ideals for every size k.

    The k-th Fitting ideal of a diagonal matrix is generated by the products
    of k of its entries.  Over Z, F_p[x] and Q[x] it is principal, generated
    by the product of the first k invariant factors, so comparing the chains
    of invariant factors is enough.  Elsewhere the ideals are compared on
    their minimal generators, and only if those differ through Groebner bases.
    """
    def canonical(e):
        return e.canonical_associate()[1]

    if sorted(map(str, map(canonical, got))) == \
            sorted(map(str, map(canonical, want))):
        return True
    if ring.is_euclidean():
        return _invariant_chain(lib, got) == _invariant_chain(lib, want)
    for k in range(1, len(want) + 1):
        lhs, rhs = (_minimal_products(lib, ring, entries, k)
                    for entries in (got, want))
        if sorted(lhs) != sorted(rhs) and \
                lib.rings.IdealHandle(ring, lhs.values()) != \
                lib.rings.IdealHandle(ring, rhs.values()):
            return False
    return True


def _invariant_chain(lib, entries):
    """Invariant factors of a diagonal matrix over a principal ideal domain:
    diag(a, b) is equivalent to diag(gcd, lcm)."""
    d = list(entries)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = lib.rings.gcd(d[i], d[j]), lib.rings.lcm(d[i], d[j])
    return [str(e.canonical_associate()[1]) for e in d]


def _minimal_products(lib, ring, entries, k):
    """{text: product} for the k-products no other k-product divides."""
    products = {}
    for subset in combinations(entries, k):
        p = ring.one()
        for e in subset:
            p = p * e
        p = p.canonical_associate()[1]
        products[str(p)] = p
    return {key: p for key, p in products.items()
            if not any(other != key and lib.rings.divides(q, p)
                       for other, q in products.items())}


def _decision_fingerprint(result):
    if result.verdict == "yes":
        diag = ",".join(str(d) for d in result.diagonal_entries())
        return f"yes|{result.method}|{diag}"
    if result.verdict == "no":
        cands = ";".join(",".join(str(d) for d in r.diagonal)
                         for r in result.obstruction.refutations)
        return f"no|{result.method}|{cands}"
    return f"{result.verdict}|{result.method}"


def _decision_case(lib, label, m, seed_diagonal, diagonalizable, bounds,
                   group, require_yes=False):
    ring = m.ring

    def call():
        return lib.diagonalizer.diagonalize(m, bounds)

    def judge(result):
        if result.verdict == "yes":
            if not diagonalizable:
                return True, "yes on a non-diagonalizable input"
            cert = result.certificate
            if cert.source != m:
                return True, "certificate source is not the input"
            if not cert.target.is_diagonal():
                return True, "certificate target is not diagonal"
            if not lib.linalg.verify_certificate(cert).valid:
                return True, "certificate rejected by verify_certificate"
            if not _same_fitting_ideals(lib, ring,
                                        cert.target.diagonal_entries(),
                                        seed_diagonal):
                return True, "diagonal differs from the seed diagonal in a " \
                             "Fitting ideal"
            return True, None
        if result.verdict == "no":
            if diagonalizable:
                return True, "no on a diagonalizable input"
            if not result.obstruction.verify(m):
                return True, "obstruction record fails ObstructionRecord.verify"
            return True, None
        if require_yes:
            return False, f"verdict {result.verdict} where yes is required"
        return False, None

    return Case(label, call, judge, _decision_fingerprint, require_yes, group)


def build_snf_euclid(lib, seed, bounds):
    """Scrambled diagonals over Z at n = 4..8 and over F_5[x] and Q[x] at
    n = 4..7: the Smith normal form path, 32 per ring and size."""
    cases = []
    # (ring, largest n, most irreducible factors per seed diagonal entry);
    # see the README for the polynomial scrambles at n = 8
    for key, largest, max_factors in (("Z", 8, 2), ("F5[x]", 7, 1),
                                      ("Q[x]", 7, 1)):
        ring = ring_of(lib, key)
        for n in range(4, largest + 1):
            for i in range(32):
                rng = _case_rng("snf-euclid", seed, key, n, i)
                diag = _seed_diagonal(rng, ring, key, n, max_factors)
                start = lib.linalg.RingMatrix.diagonal(ring, diag)
                m = _scrambled(lib, rng, ring, start, n, bounds)
                cases.append(_decision_case(lib, f"{key} n={n} #{i}", m, diag,
                                            True, bounds, i, require_yes=True))
    return cases


def build_search_yes(lib, seed, bounds):
    """Scrambled products of irreducibles over Q[x,y], Z[x] and Z[x,y] at
    n = 2..8: the elementary-operation search, 28 per ring and size."""
    cases = []
    for key in ("Q[x,y]", "Z[x]", "Z[x,y]"):
        ring = ring_of(lib, key)
        for n in range(2, 9):
            for i in range(28):
                rng = _case_rng("search-yes", seed, key, n, i)
                diag = _seed_diagonal(rng, ring, key, n, 2)
                start = lib.linalg.RingMatrix.diagonal(ring, diag)
                m = _scrambled(lib, rng, ring, start, n, bounds)
                cases.append(_decision_case(lib, f"{key} n={n} #{i}", m, diag,
                                            True, bounds, i))
    return cases


def build_search_no(lib, seed, bounds):
    """A scrambled non-diagonalizable 2 x 2 core plus a diagonal tail at
    n = 2..4, 2 per ring and size: a futile search, then the Fitting-ideal
    refutation."""
    cases = []
    for key, core in (("Q[x,y]", JORDAN_CORE), ("Z[x,y]", JORDAN_CORE),
                      ("F5[x,y]", JORDAN_CORE), ("Z[x]", TORSION_CORE)):
        ring = ring_of(lib, key)
        for n in range(2, 5):
            for i in range(2):
                rng = _case_rng("search-no", seed, key, n, i)
                tail = _seed_diagonal(rng, ring, key, n - 2, 1) if n > 2 else []
                start = _with_core(lib, ring, core, tail)
                m = _scrambled(lib, rng, ring, start, n, bounds)
                cases.append(_decision_case(lib, f"{key} n={n} #{i}", m, None,
                                            False, bounds, i))
    return cases


# ---------------------------------------------------------------------------
# analyze-full: in-process command line jobs with --json

# (subcommand, fixture, diagonalizable or None when the job decides nothing
# about it); every subcommand that applies to every fixture
FIXTURE_JOBS = (
    ("analyze", "jordan_block", False),
    ("analyze", "triangular_int", True),
    ("diagonalize", "jordan_block", False),
    ("diagonalize", "triangular_int", True),
    ("qg", "jordan_block", None),
    ("qg", "triangular_int", None),
    ("filtration", "jordan_block", None),
    ("filtration", "triangular_int", None),
    ("filtration", "z4", None),
    ("filtration", "koszul_point", None),
    ("verify", "triangular_int_certificate", None),
)

# n = 2 scrambles analyzed per run: (ring, core or None for a diagonal).
# Each takes one operation with a multiplier of degree at most 1; see the
# README for the heavier families left out.
SCRAMBLE_KINDS = (("Q[x,y]", None), ("Q[x,y]", JORDAN_CORE), ("Z[x]", None))

# sorts of the one operation of a scramble: a swap, an add that writes above
# the diagonal, or an add that writes below it.  All three start matrices
# are upper triangular, so only a "lower" add fills the zero below the
# diagonal; on the core that is the dearer sort (see the README).
OP_SORTS = ("swap", "upper", "lower")


def _check_certificate_json(lib, cert_json, source_rows):
    doc = dict(cert_json, schema=SCHEMA)
    cert = lib.jsonio.certificate_from_json(doc)
    if cert_json["source"] != source_rows:
        return "certificate source is not the input"
    if not lib.linalg.verify_certificate(cert).valid:
        return "certificate rejected by verify_certificate"
    return None


def _judge_cli(lib, sub, rows, diagonalizable, outcome):
    code, text = outcome
    if code not in (0, 4):
        return False, f"exit code {code}"
    payload = json.loads(text)
    section = {"diagonalize": payload.get("diagonalize"),
               "analyze": payload.get("diagonalizable")}.get(sub)
    if section is not None:
        verdict = section["verdict"]
        if diagonalizable is not None and verdict in ("yes", "no") \
                and (verdict == "yes") != diagonalizable:
            return True, f"verdict {verdict} contradicts the known answer"
        if verdict == "yes":
            if section.get("verified") is not True:
                return True, "certificate reported unverified"
            failure = _check_certificate_json(lib, section["certificate"], rows)
            if failure:
                return True, failure
    if sub == "analyze":
        for finding in payload.get("consistency", []):
            if finding["check"] == "diagonal_implies_transpose_equivalence":
                failure = _check_certificate_json(
                    lib, finding["detail"]["certificate"], rows)
                if failure:
                    return True, "transpose " + failure
    if sub == "qg":
        qg = payload["quasi_gorenstein"]
        if "transpose_equivalence" in qg:
            failure = _check_certificate_json(lib, qg["transpose_equivalence"],
                                              rows)
            if failure:
                return True, "transpose " + failure
    if sub == "verify" and payload["verify"]["valid"] is not True:
        return True, "a valid certificate was rejected"
    return code == 0, None


def _cli_fingerprint(outcome):
    code, text = outcome
    return f"exit {code} sha256 {hashlib.sha256(text.encode()).hexdigest()}"


def _cli_case(lib, label, sub, path, rows, diagonalizable, bounds):
    request = lib.cli.CommandRequest(subcommand=sub, input_path=str(path),
                                     bounds=bounds, as_json=True)

    def call():
        return lib.cli.run(request)

    def judge(outcome):
        return _judge_cli(lib, sub, rows, diagonalizable, outcome)

    return Case(label, call, judge, _cli_fingerprint)


def _op_sort(op):
    """The sort in OP_SORTS of one elementary operation.  A row add writes
    into row dst and a column add into column dst, so the add writes below
    the diagonal when dst > src for rows and when dst < src for columns."""
    if op["op"].endswith("_swap"):
        return "swap"
    dst, src = op["dst"], op["src"]
    below = dst > src if op["op"] == "row_add" else dst < src
    return "lower" if below else "upper"


def _stratified_recipe(lib, rng, ring, size, bounds, sort):
    """A one-operation random_recipe whose operation is of the given sort:
    recipe seeds are drawn from rng until one is."""
    while True:
        recipe = lib.testkit.random_recipe(ring, size, 1,
                                           rng.randrange(2 ** 31), bounds)
        if _op_sort(recipe.ops[0]) == sort:
            return recipe


def build_analyze_full(lib, seed, bounds, fixtures, scratch):
    """Every subcommand that applies to every fixture, plus analyze on n = 2
    scrambles for consecutive seeds, all through cli.run with --json."""
    cases = []
    for sub, name, diagonalizable in FIXTURE_JOBS:
        path = fixtures / f"{name}.json"
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh).get("matrix")
        cases.append(_cli_case(lib, f"{sub} {name}", sub, path, rows,
                               diagonalizable, bounds))
    scramble_bounds = lib.bounds.Bounds(degree=1)
    # each kind takes one operation of each sort, so every run holds the
    # same mix of sorts and the seed picks only the multipliers and entries
    per_run = len(OP_SORTS) * len(SCRAMBLE_KINDS)
    for g, sort in enumerate(OP_SORTS):
        for j, (key, core) in enumerate(SCRAMBLE_KINDS):
            ring = ring_of(lib, key)
            scramble_seed = seed * per_run + g * len(SCRAMBLE_KINDS) + j
            rng = _case_rng("analyze-full", scramble_seed)
            if core is None:
                irr = [ring.parse(s) for s in IRREDUCIBLES[key]]
                start = lib.linalg.RingMatrix.diagonal(
                    ring, [rng.choice(irr) * rng.choice(irr), ring.one()])
            else:
                start = _with_core(lib, ring, core, [])
            recipe = _stratified_recipe(lib, rng, ring, 2, scramble_bounds,
                                        sort)
            m, _ = lib.testkit.scramble(start, recipe)
            doc = lib.jsonio.matrix_to_json(m)
            path = scratch / f"analyze-full-seed{scramble_seed}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            kind = "diagonal" if core is None else "core"
            cases.append(_cli_case(lib, f"analyze scramble {scramble_seed} "
                                   f"({key} {kind}, {sort})", "analyze", path,
                                   doc["matrix"], core is None, bounds))
    return cases
