"""Independent oracles and seeded generators for property-based acceptance.

Nothing here shares algorithms with the code it checks: the invariant-factor
oracle enumerates minors over plain Python integers.  Fitting ideals at
integer points are not here: they live in `specialization`, where the
refutation of diagonal candidates uses them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd as int_gcd

from .bounds import Bounds
from .errors import UsageError
from .homalg import element_pool
from .linalg import (ColAdd, ColSwap, RingMatrix, RowAdd, RowSwap,
                     Workbench, op_from_json)
from .rings import RingDescriptor


# ---------------------------------------------------------------------------
# minors-gcd invariant factor oracle (integers only, no shared code)


def _int_det(grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    acc = 0
    for j in range(n):
        if grid[0][j] == 0:
            continue
        minor = [[grid[i][k] for k in range(n) if k != j]
                 for i in range(1, n)]
        term = grid[0][j] * _int_det(minor)
        acc += term if j % 2 == 0 else -term
    return acc


def minors_gcd_snf_oracle(m: RingMatrix):
    """Invariant factors d_k = gcd(k-minors) / gcd((k-1)-minors), brute force."""
    if m.ring.kind != "integers":
        raise UsageError("oracle works on integer matrices")
    grid = [[int(e.constant_coeff()) for e in row] for row in m.rows]
    n, c = len(grid), len(grid[0])
    factors = []
    prev = 1
    for k in range(1, min(n, c) + 1):
        g = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(c), k):
                g = int_gcd(g, _int_det([[grid[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


# ---------------------------------------------------------------------------
# seeded scrambles with ground truth


@dataclass(frozen=True)
class ScrambleRecipe:
    """Replayable description of the elementary operations applied."""

    seed: int
    size: int
    ops: tuple   # op JSON dicts, in application order

    def to_json(self):
        return {"seed": self.seed, "size": self.size, "ops": list(self.ops)}


def scramble(D: RingMatrix, recipe: ScrambleRecipe):
    """Replay a recipe against a diagonal seed matrix.

    Returns (matrix, ground-truth certificate); replaying is exact, so the
    same recipe always reproduces the same matrix.
    """
    bench = Workbench(D)
    for op_data in recipe.ops:
        bench.apply(op_from_json(D.ring, op_data))
    cert = bench.certificate()
    return bench.matrix(), cert


def random_recipe(ring: RingDescriptor, size: int, op_count: int, seed: int,
                  bounds: Bounds = None) -> ScrambleRecipe:
    """Draw elementary operations with multipliers from the bounded pool."""
    bounds = bounds or Bounds()
    rng = random.Random(seed)
    pool = element_pool(ring, bounds)
    ops = []
    for _ in range(op_count):
        kind = rng.choice(["row_add", "col_add", "row_add", "col_add",
                           "row_swap", "col_swap"])
        if size < 2:
            break
        i = rng.randrange(size)
        j = rng.randrange(size - 1)
        if j >= i:
            j += 1
        if kind == "row_swap":
            ops.append(RowSwap(i, j).to_json())
        elif kind == "col_swap":
            ops.append(ColSwap(i, j).to_json())
        elif kind == "row_add":
            mult = pool[rng.randrange(len(pool))]
            ops.append(RowAdd(i, j, mult).to_json())
        else:
            mult = pool[rng.randrange(len(pool))]
            ops.append(ColAdd(i, j, mult).to_json())
    return ScrambleRecipe(seed=seed, size=size, ops=tuple(ops))
