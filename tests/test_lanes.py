"""Two evaluator lanes run the sequential program: the same trace bytes, the same tests.

A subprocess oracle with `workers: 2` sends phase-1 probes the stop rule has
already made certain, and phase 2's next candidate should the current one be
rejected, ahead of need. Every answer depends on its request alone, so the
run must be byte-identical to `workers: 1`; only the requests sent ahead and
never used, reported under summary.json's `oracle`, may differ.
"""

from __future__ import annotations

import gc
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dca.annealer import InsertionProposer
from dca.errors import OracleIOError
from dca.evaluation import CachingEvaluator
from dca.harness import RunConfig, run_experiment

# Gaussian games around minus the total rank displacement from argv[1], seeded
# by the request alone. With argv[2] = k and argv[3] a directory, it records
# each child's pid there, and the first child to have given k answers exits on
# its next request without answering; later children never die.
EVALUATOR = """
import json, math, os, random, sys
target = {int(e): i for i, e in enumerate(sys.argv[1].split())}
k, where = (int(sys.argv[2]), sys.argv[3]) if len(sys.argv) > 3 else (None, None)
if where:
    open(os.path.join(where, str(os.getpid())), "w").close()
answered = 0
for line in sys.stdin:
    request = json.loads(line)
    if answered == k and not os.path.exists(os.path.join(where, "died")):
        open(os.path.join(where, "died"), "w").close()
        sys.exit(3)
    x, games = request["assignment"], request["games"]
    true = -sum(abs(i - target[e]) for i, e in enumerate(x))
    gauss = random.Random(request["seed"]).gauss
    samples = [true + gauss(0.0, 1.5) for _ in range(games)]
    mean = math.fsum(samples) / games
    var = math.fsum((s - mean) ** 2 for s in samples) / max(games - 1, 1)
    print(json.dumps({"mean": mean, "se": math.sqrt(var / games), "n": games}), flush=True)
    answered += 1
"""


def config(target, initial, seed, workers, games=(40, 60, 80), steps=6, t0=2.0, scope="flanking", args=()):
    cmd = [sys.executable, "-c", EVALUATOR, " ".join(map(str, target)), *args]
    return RunConfig.from_dict({
        "initial": list(initial),
        "seed": seed,
        "oracle": {"kind": "subprocess", "cmd": cmd, "timeout": 20, "workers": workers},
        "phase1": {"games": games[0], "baseline_games": games[1], "induction_scope": scope},
        "phase2": {"games": games[2], "steps": steps, "t0": t0, "dt": t0 / steps},
    })


def outputs(cfg, out):
    summary = run_experiment(cfg, out)
    doc = summary.to_dict()
    traces = (out / "trace.jsonl").read_bytes(), (out / "trace.csv").read_bytes()
    return (*traces, doc["evaluations"], doc["oracle"])


def test_two_lanes_write_the_sequential_trace(tmp_path):
    unused = []

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(3, 10), label="n")
        target = data.draw(st.permutations(range(1, n + 1)), label="target")
        initial = data.draw(st.permutations(range(1, n + 1)), label="initial")
        p1 = data.draw(st.sampled_from([20, 50]), label="phase-1 games")
        # Equal phase budgets let phase 2 hit phase 1's cache.
        p2 = data.draw(st.sampled_from([p1, 30, 200]), label="phase-2 games")
        kwargs = dict(
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
            games=(p1, data.draw(st.sampled_from([p1, 40]), label="baseline games"), p2),
            steps=data.draw(st.integers(1, 8), label="steps"),
            t0=data.draw(st.sampled_from([0.05, 3.0, 40.0]), label="t0"),
            scope=data.draw(st.sampled_from(["flanking", "all-pairs"]), label="scope"),
        )
        where = tmp_path / str(len(unused))
        one = outputs(config(target, initial, workers=1, **kwargs), where / "one")
        two = outputs(config(target, initial, workers=2, **kwargs), where / "two")
        assert two[:3] == one[:3]
        assert one[3]["unused_requests"] == 0 and one[3]["requests"] == one[2]["tests"]
        assert two[3]["requests"] == two[2]["tests"] + two[3]["unused_requests"]
        unused.append(two[3]["unused_requests"])

    check()
    assert sum(unused) > 0  # some examples really sent a candidate that went unused


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k", [1, 4, 9])
def test_an_evaluator_that_dies_ends_in_a_counted_restart_or_an_error(workers, k, tmp_path):
    target, initial = (3, 1, 4, 6, 2, 5), (6, 5, 4, 3, 2, 1)
    cfg = config(target, initial, seed=k, workers=workers, args=(str(k), str(tmp_path)))
    try:
        restarts = run_experiment(cfg).to_dict()["oracle"]["restarts"]
    except OracleIOError as err:
        assert "closed its output" in str(err) or "pipe failed" in str(err)
    else:
        assert workers == 2 and restarts == 1
    assert (tmp_path / "died").exists()
    pids = [int(p.name) for p in tmp_path.iterdir() if p.name.isdigit()]
    assert 1 <= len(pids) <= workers + 1
    for pid in pids:  # every child reaped, none a zombie
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    gc.collect()  # an unreaped Popen would warn here, and warnings are errors


def test_one_lane_runs_the_sequential_program(monkeypatch):
    calls = {"propose": 0}
    propose = InsertionProposer.propose

    def counted(self, current, graph):
        calls["propose"] += 1
        return propose(self, current, graph)

    def refused(self, x, n_games):
        raise AssertionError("a one-lane run sent a request ahead")

    monkeypatch.setattr(InsertionProposer, "propose", counted)
    monkeypatch.setattr(CachingEvaluator, "prefetch", refused)
    cfg = RunConfig.from_dict({
        "initial": "8 7 6 5 4 3 2 1",
        "seed": 11,
        "oracle": {"kind": "synthetic", "target": "3 1 4 5 8 2 6 7", "sigma": 1.9},
        "phase1": {"games": 100, "baseline_games": 200},
        "phase2": {"games": 400, "steps": 25, "t0": 3.0, "dt": 0.1},
    })
    summary = run_experiment(cfg)
    assert calls["propose"] == 25
    assert summary.to_dict()["oracle"] == {
        "requests": summary.phase1_tests + summary.phase2_tests,
        "games": summary.phase1_games + summary.phase2_games,
        "unused_requests": 0,
        "unused_games": 0,
        "restarts": 0,
    }
