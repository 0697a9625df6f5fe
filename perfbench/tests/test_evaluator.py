"""The subprocess evaluator's answers depend only on the request."""

import json
import subprocess
import sys

from workloads import EVALUATOR

TARGET = "3 1 4 2 5"
REQUESTS = [
    {"assignment": [1, 2, 3, 4, 5], "games": 1000, "seed": 7},
    {"assignment": [3, 1, 4, 2, 5], "games": 1000, "seed": 7},
    {"assignment": [1, 2, 3, 4, 5], "games": 1000, "seed": 8},
    {"assignment": [1, 2, 3, 4, 5], "games": 16000, "seed": 7},
    {"assignment": [5, 4, 3, 2, 1], "games": 1, "seed": 0},
]


def ask(requests):
    lines = "".join(json.dumps(r) + "\n" for r in requests)
    done = subprocess.run(
        [sys.executable, str(EVALUATOR), "--target", TARGET, "--sigma", "1.9"],
        input=lines, capture_output=True, text=True, timeout=60, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_answers_do_not_depend_on_order_or_history():
    forward = ask(REQUESTS)
    backward = ask(REQUESTS[::-1])[::-1]
    repeated = ask(REQUESTS + REQUESTS)
    assert forward == backward == repeated[: len(REQUESTS)] == repeated[len(REQUESTS):]


def test_answers_follow_the_landscape_and_the_seed():
    plain, at_target, reseeded, precise, single = ask(REQUESTS)
    assert plain["n"] == 1000 and precise["n"] == 16000 and single["n"] == 1
    assert single["se"] == 0.0
    assert plain != reseeded
    # [1 2 3 4 5] sits 6 ranks away from the target in total.
    assert abs(plain["mean"] + 6.0) < 10 * plain["se"]
    assert abs(at_target["mean"]) < 10 * at_target["se"]
    assert precise["se"] < plain["se"] / 3


def test_a_malformed_request_ends_the_evaluator_without_an_answer():
    done = subprocess.run(
        [sys.executable, str(EVALUATOR), "--target", TARGET, "--sigma", "1.9"],
        input=json.dumps({"assignment": [1, 2, 3], "games": 10, "seed": 1}) + "\n",
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
