"""A fixed kernel that times how fast the machine runs right now.

On a shared virtual machine with 2 vCPUs the same code runs up to 1.6
times slower for minutes at a time, for reasons outside the process
(contended hosts, frequency changes). Timing this kernel next to every optimiser run
and dividing by its median cancels much of that drift: over ten seeds per
workload, the spread (IQR over median) of the raw median run time was
0.07-0.24, five of six sets at 0.20 or more, and that of the ratio
0.05-0.13.

The kernel does, in miniature, the three things the optimiser spends its
time on: building insertion neighbours of a permutation as tuples keyed in a
dict, drawing Gaussian game scores with numpy, and serialising records to
JSON. It does not import dca, so no change to dca can move it.
"""

from __future__ import annotations

import io
import json
import time

import numpy as np

N = 40
RECORDS = 600
GAMES = 1000


def kernel() -> float:
    x = tuple(range(1, N + 1))
    best: dict[tuple[int, ...], tuple[int, int]] = {}
    for element in x:
        for rank in range(N):
            rest = [e for e in x if e != element]
            rest.insert(rank, element)
            key = tuple(rest)
            move = (element, rank)
            if key not in best or move < best[key]:
                best[key] = move
    rng = np.random.default_rng(1)
    out = io.StringIO()
    top = -np.inf
    for i, move in enumerate(sorted(best.values())[:RECORDS]):
        games = rng.normal(0.0, 1.9, GAMES)
        record = {"id": i, "move": list(move), "mean": float(games.mean()), "se": float(games.std())}
        out.write(json.dumps(record, sort_keys=True) + "\n")
        top = max(top, record["mean"])
    return top


def time_kernel() -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started
