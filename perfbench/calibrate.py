"""Machine-speed reference for the benchmark's timings.

On a shared host a vCPU's speed moves with what the host's other tenants
do.  On the 2-vCPU 2.1 GHz Xeon VM this benchmark was written on, the same
``parse_network`` call took 75-90 ms for some seconds and a steady 150-155 ms
for the next seconds or minutes, so the median of a 20-second run landed in
one state or the other, and ten runs spread by 20-35% between their
quartiles.  Wall times alone cannot tell the program's speed from the
machine's.

So the benchmark times a fixed kernel in the same process, between
operations: text handling, table lookups over nested lists, many small numpy
calls and a few sorts of larger arrays, about a quarter each, the kinds of
work mc4's layers do.  It does not call mc4, so a change to the program does
not move it, while the machine's state moves it as it moves the program.
Every reported end-to-end time is the measured wall time times ``REF_S`` over
the kernel time measured around it: the time the operation would take on a
machine that runs the kernel in ``REF_S``.  On a 5-minute trace of one
``parse_network`` call repeated, the medians of 20-second windows spread by
4-5% in this unit against 21-24% in wall time.  The readable report prints
the wall times beside.  A program change that makes mc4 slower or faster
moves the scaled times by the same share as the wall times; only the
machine's share is divided out.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

# The kernel's time in the host's fast state, so scaled figures read close to
# the wall times of a quiet machine.
REF_S = 0.010

_LABELS = ("CG", "CGPP", "CGPPi", "CNO", "CG|CGPP", "CGPP|CNO", "CG|CGPPi|CNO")
_LINES = [
    f"v{i} v{(i * 7 + 3) % 211} : {_LABELS[(i * 5 + i // 3) % len(_LABELS)]}"
    for i in range(3500)
]
_N = 26
_TABLE = [[(a * 7 + b * 3) % 15 + 1 for b in range(16)] for a in range(16)]
_GRID = [[(i * 5 + j * 11) % 15 + 1 for j in range(_N)] for i in range(_N)]
_CODES = np.array([[(i * 3 + j * 13) % 16 for j in range(60)] for i in range(60)], dtype=np.uint8)
_ARCS = (np.arange(40000, dtype=np.int64) * 7919 % 200).reshape(-1, 2)


def _text() -> int:
    """Tokenising, dict counting and string building, as parse and serialize do."""
    counts: dict[str, int] = {}
    seen: dict[tuple[str, str], int] = {}
    out = []
    for k, line in enumerate(_LINES):
        a, b, _, label = line.split()
        seen[a, b] = k
        for token in label.split("|"):
            counts[token] = counts.get(token, 0) + 1
        out.append(f"{b} {a} : {label}")
    return len("\n".join(out)) + len(seen) + sum(counts.values())


def _table() -> int:
    """Table lookups and bit operations over nested lists with a work queue,
    as path consistency does."""
    m = [row[:] for row in _GRID]
    queue = deque((i, j) for i in range(_N) for j in range(_N) if i != j)
    queued = set(queue)
    changed = 0
    for i, j in queue:
        row = _TABLE[m[i][j]]
        for k in range(_N):
            new = m[i][k] & row[m[j][k]]
            if new != m[i][k] and (i, k) in queued:
                changed += 1
    return changed


def _arrays() -> int:
    """Many small numpy calls, as the gadget builders and deciders make."""
    total = 0
    for _ in range(30):
        rows, cols = np.triu_indices(60, k=1)
        codes = _CODES[rows, cols].astype(np.int64)
        keep = np.isin(codes, (3, 5, 9, 12))
        total += int(np.stack([rows[keep], cols[keep]], axis=1).sum())
    return total


def _sorting() -> int:
    """Sorting, deduplicating and gathering over arrays of some ten thousand
    entries, as the strong-component rounds of the deciders do."""
    total = 0
    for shift in range(2):
        arcs = (_ARCS + shift) % 200
        keys = np.unique(arcs[:, 0] * 200 + arcs[:, 1])
        counts = np.bincount(keys // 200, minlength=200)
        total += int(counts[arcs[:, 1]].sum()) + int(np.argsort(arcs[:, 0], kind="stable")[-1])
    return total


def kernel() -> int:
    """A fixed amount of work of the kinds mc4 does: about REF_S seconds."""
    return _text() + _table() + _arrays() + _sorting()


def kernel_time(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` kernel runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(times: list[float], kernel_times: list[float], window: int = 2) -> list[float]:
    """Wall times in reference seconds.

    ``kernel_times`` has one entry more than ``times``: entry k was measured
    just before time k, and the last just after the last time.  Time k is
    scaled by the median kernel time among entries k - window .. k + 1 +
    window, so one slow kernel run does not move it.
    """
    if len(kernel_times) != len(times) + 1:
        raise ValueError("need one kernel time before each operation and one after the last")
    out = []
    for k, t in enumerate(times):
        around = kernel_times[max(0, k - window): k + 2 + window]
        out.append(t * REF_S / statistics.median(around))
    return out
