"""Stdlib evaluator for the `subprocess` oracle: a noisy hidden-target landscape.

Speaks the line-delimited JSON protocol of `dca.evaluation.SubprocessOracle`:

    request:  {"assignment": [...], "games": N, "seed": S}
    response: {"mean": M, "se": E, "n": N}

Each game scores the assignment's true fitness (minus its total rank
displacement from --target) plus Gaussian noise of standard deviation
--sigma, drawn from a generator seeded by the request's seed alone. The
response therefore depends only on the request and the command line, never
on request order or on earlier requests, and its cost grows with the game
count.

    python3 evaluator.py --target "3 1 2 4" --sigma 1.9
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys


def true_fitness(assignment: list[int], target_rank: dict[int, int]) -> float:
    return -float(sum(abs(i - target_rank[e]) for i, e in enumerate(assignment)))


def respond(request: dict, target_rank: dict[int, int], sigma: float) -> dict:
    assignment = [int(e) for e in request["assignment"]]
    games = int(request["games"])
    if sorted(assignment) != sorted(target_rank) or games < 1:
        raise ValueError("assignment must permute the target and games must be >= 1")
    true = true_fitness(assignment, target_rank)
    gauss = random.Random(int(request["seed"])).gauss
    samples = [true + gauss(0.0, sigma) for _ in range(games)]
    mean = math.fsum(samples) / games
    if games == 1:
        return {"mean": mean, "se": 0.0, "n": 1}
    var = math.fsum((s - mean) ** 2 for s in samples) / (games - 1)
    return {"mean": mean, "se": math.sqrt(var / games), "n": games}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", required=True, help="space-separated target permutation")
    parser.add_argument("--sigma", type=float, required=True, help="per-game noise s.d.")
    args = parser.parse_args(argv)
    target_rank = {int(e): i for i, e in enumerate(args.target.split())}
    for line in sys.stdin:
        if not line.strip():
            continue
        response = respond(json.loads(line), target_rank, args.sigma)
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
