"""Planted-consistent MC-4 networks for the benchmark.

A planted network hides a scenario: every vertex is an integer point, and
the pair (i, j) gets the base case its points stand in under componentwise
dominance — equal points give CG, i strictly dominated by j gives CGPP (and
the converse CGPPi), incomparable points give CNO.  Dominance is a preorder,
and an atomic network is algebraically closed exactly when "label in
{CG, CGPP}" is a preorder (test_perfbench.py checks this over all 4^3
atomic triangles), so the hidden scenario is a solution.  Each label is then
relaxed to a random superset inside a palette, or to ALL, which keeps the
scenario a solution of the relaxed network.

Label matrices are n-by-n uint8 arrays of relation codes (CG=1, CGPP=2,
CGPPi=4, CNO=8, unions by bitwise or), diagonal CG, converse-coherent.
"""

from __future__ import annotations

import numpy as np

CG, CGPP, CGPPI, CNO = 1, 2, 4, 8
ALL = 15
BASIC_CODES = (CG, CGPP, CGPPI, CNO)

# Every label but NONE and ALL; M99 further excludes the two labels holding
# CGPP and CGPPi without CNO (codes 6 and 7), the ones its gadget rejects.
GENERAL_PALETTE = tuple(range(1, 15))
M99_PALETTE = tuple(c for c in GENERAL_PALETTE if c not in (6, 7))

# Converse of a code: swap the CGPP and CGPPi bits.
CONVERSE = np.array(
    [(c & (CG | CNO)) | ((c & CGPP) << 1) | ((c & CGPPI) >> 1) for c in range(16)],
    dtype=np.uint8,
)


def dominance_scenario(points: np.ndarray) -> np.ndarray:
    """Atomic label matrix of the dominance preorder on integer points."""
    le = np.all(points[:, None, :] <= points[None, :, :], axis=2)
    ge = le.T
    out = np.full(le.shape, CNO, dtype=np.uint8)
    out[le & ~ge] = CGPP
    out[ge & ~le] = CGPPI
    out[le & ge] = CG
    return out


def relax(
    atomic: np.ndarray, palette: tuple[int, ...], p_all: float, rng: np.random.Generator
) -> np.ndarray:
    """Replace each atomic label by ALL with probability p_all, otherwise by
    a uniformly drawn superset of it taken from palette."""
    n = len(atomic)
    rows, cols = np.triu_indices(n, k=1)
    base = atomic[rows, cols]
    relaxed = np.full(base.shape, ALL, dtype=np.uint8)
    draw = rng.random(base.size)
    pick = rng.random(base.size)
    for code in BASIC_CODES:
        supersets = np.array([c for c in palette if c & code], dtype=np.uint8)
        if supersets.size == 0:
            raise ValueError(f"palette has no superset of base code {code}")
        hit = (base == code) & (draw >= p_all)
        relaxed[hit] = supersets[(pick[hit] * supersets.size).astype(np.int64)]
    out = np.full((n, n), CG, dtype=np.uint8)
    out[rows, cols] = relaxed
    out[cols, rows] = CONVERSE[relaxed]
    return out


def planted_network(
    n: int, palette: tuple[int, ...], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(relaxed labels, hidden atomic scenario) for n points drawn uniformly
    from an 8-by-8 grid; half the labels are relaxed to ALL.

    On that grid about 1 pair in 64 is tied (CG), so M99 instances have
    congruence classes that the decider must find by forcing, and most
    pairs are strictly ordered or incomparable.
    """
    points = rng.integers(0, 8, size=(n, 2))
    atomic = dominance_scenario(points)
    return relax(atomic, palette, 0.5, rng), atomic
