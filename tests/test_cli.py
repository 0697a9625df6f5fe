from __future__ import annotations

import gc
import json
import math
import re
import shlex
import shutil
import sys
from pathlib import Path

import pytest

from dca.cli import build_parser, main
from dca.constraints import RankConstraint
from dca.evaluation import FitnessEstimate, Oracle, ReplayOracle, format_mean, format_se
from dca.harness import FIXTURE_TABLE1_2, TABLE_X0, RunConfig, packaged_fixtures_dir
from dca.trace import TraceRecord, read_trace

from references import dump_trace, trace_to_csv


@pytest.fixture
def synthetic_config_file(tmp_path):
    doc = {
        "initial": "4 3 2 1",
        "seed": 9,
        "oracle": {"kind": "synthetic", "target": "2 4 1 3", "weights": 1.0, "sigma": 0.5},
        "phase1": {"games": 200},
        "phase2": {"games": 800, "steps": 5},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def test_optimize_runs_and_persists(synthetic_config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(synthetic_config_file), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "phase2 best:" in captured
    assert (out / "trace.jsonl").exists()
    assert (out / "summary.json").exists()


def run_outputs(doc, tmp_path, name, flags=()):
    """trace.jsonl bytes and summary.json less wall_time_s of `dca optimize` on `doc` with `flags`."""
    config, out = tmp_path / f"{name}.json", tmp_path / name
    config.write_text(json.dumps(doc))
    assert main(["optimize", "--config", str(config), "--out", str(out), *flags]) == 0
    summary = json.loads((out / "summary.json").read_text())
    del summary["wall_time_s"]
    return (out / "trace.jsonl").read_bytes(), summary


# Each override flag, a value for it, and the config section and key it stands for.
OVERRIDES = [
    ("--games", 300, "phase1", "games"),
    ("--games-hi", 500, "phase2", "games"),
    ("--tau", 0.5, "phase1", "tau"),
    ("--t0", 0.4, "phase2", "t0"),
    ("--dt", 0.03, "phase2", "dt"),
    ("--steps", 8, "phase2", "steps"),
    ("--pool-size", 2, "phase2", "pool_size"),
    ("--induction-scope", "all-pairs", "phase1", "induction_scope"),
    ("--seed", 4, None, "seed"),
]


@pytest.mark.parametrize("flag, value, section, key", OVERRIDES, ids=[case[0][2:] for case in OVERRIDES])
def test_optimize_flag_overrides(flag, value, section, key, tmp_path, capsys):
    # Each flag must act exactly as its config key does, and change the run.
    doc = {
        "initial": "6 5 4 3 2 1",
        "seed": 9,
        "oracle": {"kind": "synthetic", "target": "2 4 6 1 3 5", "weights": 1.0, "sigma": 0.8},
        "phase1": {"games": 200},
        "phase2": {"games": 800, "t0": 0.3, "dt": 0.02, "steps": 5, "pool_size": 6},
    }
    base = run_outputs(doc, tmp_path, "base")
    flagged = run_outputs(doc, tmp_path, "flag", [flag, str(value)])
    (doc[section] if section else doc)[key] = value
    assert flagged == run_outputs(doc, tmp_path, "key")
    assert flagged != base


def test_phase1_reports_decisions(synthetic_config_file, tmp_path, capsys):
    out = tmp_path / "p1"
    assert main(["phase1", "--config", str(synthetic_config_file), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "best:" in captured
    assert (out / "constraints.txt").exists()


def test_phase2_from_edge_list(synthetic_config_file, tmp_path, capsys):
    graph_file = tmp_path / "edges.txt"
    graph_file.write_text("2 < 4\n")
    assert main(
        ["phase2", "--config", str(synthetic_config_file), "--graph", str(graph_file),
         "--start", "2 4 1 3", "--steps", "4"]
    ) == 0
    assert "best:" in capsys.readouterr().out


def phase_argv(command, config, tmp_path):
    argv = [command, "--config", str(config)]
    if command == "phase2":
        graph_file = tmp_path / "edges.txt"
        graph_file.write_text("2 < 4\n")
        argv += ["--graph", str(graph_file), "--start", "2 4 1 3"]
    return argv


def assert_trace_files_match_their_rows(out):
    records = read_trace(out / "trace.jsonl")
    assert (out / "trace.jsonl").read_text() == dump_trace(records)
    assert (out / "trace.csv").read_text() == trace_to_csv(records)
    return records


@pytest.mark.parametrize("command", ["phase1", "phase2"])
def test_phase_commands_stream_both_trace_files(command, synthetic_config_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = phase_argv(command, synthetic_config_file, tmp_path) + ["--out", str(out)]
    assert main(argv) == 0
    records = assert_trace_files_match_their_rows(out)
    assert records and {r.phase for r in records} == {int(command[-1])}


def test_interrupted_phase1_leaves_a_trace_prefix(tmp_path, capsys, write_replay):
    fixture = ReplayOracle.load(packaged_fixtures_dir() / FIXTURE_TABLE1_2)
    short = tmp_path / "short.replay"
    write_replay(dict(list(fixture.records.items())[:8]), short)
    config = tmp_path / "short.json"
    config.write_text(json.dumps(
        {"initial": TABLE_X0, "seed": 5, "oracle": {"kind": "replay", "path": str(short)}}
    ))
    out = tmp_path / "out"
    assert main(["phase1", "--config", str(config), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    prefix = assert_trace_files_match_their_rows(out)
    assert [r.test_id for r in prefix] == list(range(8))


@pytest.mark.parametrize("fails", [False, True])
@pytest.mark.parametrize("command", ["phase1", "phase2"])
def test_phase_commands_close_their_oracle(
    command, fails, synthetic_config_file, tmp_path, monkeypatch, capsys, write_replay
):
    closed = []
    monkeypatch.setattr(Oracle, "close", lambda self: closed.append(self))
    if fails:
        # A fixture holding neither command's first assignment fails at once.
        fixture = tmp_path / "other.replay"
        write_replay({("1 2 3 4", 10): FitnessEstimate(0.0, 0.1, 10)}, fixture)
        doc = json.loads(synthetic_config_file.read_text())
        doc["oracle"] = {"kind": "replay", "path": str(fixture)}
        synthetic_config_file.write_text(json.dumps(doc))
    assert main(phase_argv(command, synthetic_config_file, tmp_path)) == (2 if fails else 0)
    assert len(closed) == 1


def test_induction_scope_flag(synthetic_config_file, capsys):
    assert main(
        ["phase1", "--config", str(synthetic_config_file), "--induction-scope", "all-pairs"]
    ) == 0
    assert "best:" in capsys.readouterr().out


def test_phase2_rejects_an_edge_list_with_a_cycle(synthetic_config_file, tmp_path, capsys):
    graph_file = tmp_path / "edges.txt"
    graph_file.write_text("1 < 2\n2 < 3\n3 < 1\n")
    assert main(
        ["phase2", "--config", str(synthetic_config_file), "--graph", str(graph_file), "--start", "2 4 1 3"]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'3 < 1' closes a cycle" in err


# Each bad edge list, and the number and message of the line it fails on.
BAD_EDGE_LISTS = {
    "unparseable": ("1 < 2\n3 < x\n", 2, "unparseable edge line '3 < x'"),
    "self-loop": ("1 < 2\n2 < 2\n", 2, "self-loop constraint on element 2"),
    "evidence": ("1 < 2 # 1,2 gap=x thr=1\n", 1, "unparseable evidence in '1 < 2 # 1,2 gap=x thr=1'"),
    "cycle": ("1 < 2\n2 < 3\n# a comment\n\n3 < 1\n", 5, "edge line '3 < 1' closes a cycle"),
    "separator": ("1 < 2\n# a note\fmore\n3 < x\n", 3, "unparseable edge line '3 < x'"),
}


@pytest.mark.parametrize("case", BAD_EDGE_LISTS)
@pytest.mark.parametrize("command", ["phase2", "brute"])
def test_a_bad_edge_list_line_is_an_error_naming_its_file_and_line(
    command, case, synthetic_config_file, tmp_path, capsys
):
    text, number, message = BAD_EDGE_LISTS[case]
    graph_file = tmp_path / "edges.txt"
    graph_file.write_text(text)
    if command == "phase2":
        argv = ["phase2", "--config", str(synthetic_config_file), "--start", "2 4 1 3"]
    else:
        landscape = tmp_path / "landscape.json"
        landscape.write_text(json.dumps({"target": "3 1 2"}))
        argv = ["brute", "--landscape", str(landscape)]
    assert main([*argv, "--graph", str(graph_file)]) == 2
    assert capsys.readouterr().err == f"error: {graph_file}:{number}: {message}\n"


def test_phase2_rejects_a_graph_the_start_lacks_before_its_first_test(synthetic_config_file, tmp_path, capsys):
    graph_file, out = tmp_path / "edges.txt", tmp_path / "out"
    graph_file.write_text("1 < 9\n")
    argv = ["phase2", "--config", str(synthetic_config_file), "--graph", str(graph_file), "--start", "1 2 3 4"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: graph elements [9] missing from assignment 1 2 3 4\n"
    assert (out / "trace.jsonl").read_text() == ""


def test_replay_exits_zero_on_shipped_fixtures(capsys):
    assert main(["replay"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["constraints_match"] and report["values_match"]


def test_replay_exits_nonzero_on_mismatching_fixtures(tmp_path, capsys):
    import shutil

    fixtures = tmp_path / "fixtures"
    shutil.copytree(packaged_fixtures_dir(), fixtures)
    path = fixtures / "table1_2.replay"
    path.write_text(
        path.read_text().replace(
            "3 2 10 11 9 6 4 5 7 8 | -3.96985", "3 2 10 11 9 6 4 5 7 8 | -3.91985"
        )
    )
    assert main(["replay", "--fixtures", str(fixtures)]) == 1


def test_brute_subcommand(tmp_path, capsys):
    landscape = tmp_path / "landscape.json"
    landscape.write_text(json.dumps({"target": "3 1 2", "weights": 1.0, "sigma": 0.0}))
    assert main(["brute", "--landscape", str(landscape)]) == 0
    assert "3 1 2" in capsys.readouterr().out


def test_brute_prints_an_unsigned_zero_mean(tmp_path, capsys):
    # The optimum is the target, whose score is -0.0.
    landscape = tmp_path / "landscape.json"
    landscape.write_text(json.dumps({"target": "3 1 2", "weights": [0.5, 1.5, 2.5]}))
    assert main(["brute", "--landscape", str(landscape)]) == 0
    assert capsys.readouterr().out == "optimum: 3 1 2  mean 0.00000\n"


@pytest.mark.parametrize(
    "value, mean, se",
    [(-0.0, "0.00000", "0.000000"), (-4e-7, "0.00000", "0.000000"), (-4e-6, "0.00000", "-0.000004"),
     (-6e-6, "-0.00001", "-0.000006"), (0.0, "0.00000", "0.000000"), (-math.inf, "-inf", "-inf")],
)
def test_means_and_errors_that_round_to_zero_print_unsigned(value, mean, se):
    assert (format_mean(value), format_se(value)) == (mean, se)


def test_brute_with_graph(tmp_path, capsys):
    landscape = tmp_path / "landscape.json"
    landscape.write_text(json.dumps({"target": "3 1 2", "weights": 1.0, "sigma": 0.0}))
    graph_file = tmp_path / "edges.txt"
    graph_file.write_text("1 < 3\n")
    assert main(["brute", "--landscape", str(landscape), "--graph", str(graph_file)]) == 0
    out = capsys.readouterr().out
    best = out.split("optimum:")[1].split("mean")[0].strip()
    assert best.index("1") < best.index("3")


@pytest.mark.parametrize(
    "doc",
    [
        {"target": "1 2 3", "weights": "abc"},
        {"target": "1 2 3", "weights": {"1": 1, "2": 1, "x": 1}},
        {"target": "1 2 3", "sigma": "abc"},
        {"kind": "replay", "target": "1 2 3"},
        "{not json",
    ],
)
def test_brute_reports_an_unusable_landscape(doc, tmp_path, capsys):
    landscape = tmp_path / "landscape.json"
    landscape.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["brute", "--landscape", str(landscape)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["exact", "synthetic"])
def test_brute_reads_an_oracle_landscape_spec(kind, tmp_path, capsys):
    landscape = tmp_path / "landscape.json"
    landscape.write_text(json.dumps({"kind": kind, "target": "3 1 2", "sigma": 0.5}))
    assert main(["brute", "--landscape", str(landscape)]) == 0
    assert "optimum: 3 1 2" in capsys.readouterr().out


def test_export_dag_from_trace(synthetic_config_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["optimize", "--config", str(synthetic_config_file), "--out", str(out)])
    capsys.readouterr()
    dot_path = tmp_path / "ranking.dot"
    assert main(["export-dag", "--trace", str(out / "trace.jsonl"), "--out", str(dot_path)]) == 0
    assert dot_path.read_text().startswith("digraph")


def test_optimize_closes_the_jsonl_trace_when_the_csv_cannot_open(
    synthetic_config_file, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "out"
    (out / "trace.csv").mkdir(parents=True)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    assert main(["optimize", "--config", str(synthetic_config_file), "--out", str(out)]) == 2
    gc.collect()
    assert capsys.readouterr().err.startswith("error:")
    assert unraisable == []


@pytest.mark.parametrize("pairs", [[(2, 3), (3, 2)], [(2, 2)]], ids=["cycle", "self-loop"])
def test_export_dag_rejects_an_induced_note_closing_a_cycle(pairs, tmp_path, capsys):
    records = [
        TraceRecord(i, 1, (1, 2, 3), -1.0, 0.1, 10, annotations=[RankConstraint(a, b, (0, i), 0.5, 0.2)])
        for i, (a, b) in enumerate(pairs)
    ]
    trace = tmp_path / "trace.jsonl"
    trace.write_text(dump_trace(records))
    dot_path = tmp_path / "dag.dot"
    assert main(["export-dag", "--trace", str(trace), "--out", str(dot_path)]) == 2
    err = capsys.readouterr().err
    a, b = pairs[-1]
    assert err.startswith("error:") and f"test {len(pairs) - 1}: induced note {a}<{b} closes a cycle" in err
    assert not dot_path.exists()


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"initial": "1 2", "seed": 0, "oracle": {"kind": "???"}}))
    assert main(["optimize", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


EXACT = {"kind": "exact", "target": "2 4 1 3"}


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        pytest.param("phase1", "games", "many", "phase1 games 'many' is not a number", id="games"),
        pytest.param("phase1", "tau", "high", "phase1 tau 'high' is not a number", id="tau"),
        pytest.param(None, "seed", "abc", "seed 'abc' is not a number", id="seed"),
        pytest.param(None, "seed", "7", "seed '7' is not a number", id="seed-string"),
        pytest.param("phase1", "tau", "1.5", "phase1 tau '1.5' is not a number", id="tau-string"),
        pytest.param("phase1", "games", "300", "phase1 games '300' is not a number", id="games-string"),
        pytest.param("phase2", "steps", "3", "phase2 steps '3' is not a number", id="steps-string"),
        pytest.param(None, "initial", 5, "unparseable assignment 5", id="initial"),
        pytest.param(None, "initial", ["a", "b"], "unparseable assignment ['a', 'b']", id="initial-ids"),
        pytest.param("phase2", "script_moves", 5, "script_moves must be a path", id="script-moves"),
        pytest.param("phase1", "element_order", 5, "element_order must be a list", id="element-order"),
        pytest.param("phase1", "tau", float("nan"), "tau must be finite", id="tau-nan"),
        pytest.param("phase2", "t0", float("nan"), "temperature must be finite", id="t0-nan"),
        pytest.param("phase2", "dt", float("nan"), "decrement must be finite", id="dt-nan"),
        pytest.param(None, "oracle", "synthetic", "oracle spec must be an object", id="oracle-string"),
        pytest.param(None, "oracle", {"kind": "exact"}, "missing required key 'target'", id="landscape-target"),
        pytest.param(None, "oracle", {"kind": "exact", "target": 5}, "unparseable assignment 5", id="target"),
        pytest.param(None, "oracle", {"kind": "replay"}, "missing required key 'path'", id="replay-path"),
        pytest.param(None, "oracle", {"kind": "subprocess"}, "missing required key 'cmd'", id="subprocess-cmd"),
        pytest.param(
            None, "oracle", {"kind": "subprocess", "cmd": "prog"}, "non-empty list of strings", id="cmd-string"
        ),
        pytest.param(
            None, "oracle", {"kind": "subprocess", "cmd": ["prog"], "timeout": -1},
            "timeout must be finite and positive", id="timeout-negative",
        ),
        pytest.param(
            # Refused before any child starts: Python's blocking calls wait at most TIMEOUT_MAX.
            None, "oracle", {"kind": "subprocess", "cmd": ["dca-no-such-evaluator"], "timeout": 1e300},
            "timeout must be finite and positive, <= ", id="timeout-too-large",
        ),
        pytest.param(
            None, "oracle", {"kind": "subprocess", "cmd": ["dca-no-such-evaluator"]},
            "cannot start evaluator ['dca-no-such-evaluator']", id="cmd-missing-program",
        ),
        pytest.param(None, "oracle", {"kind": "pool", "members": "abc"}, "members must be a list", id="members"),
        pytest.param(
            None, "oracle", {"kind": "pool", "members": [{"weight": 1}]},
            "pool member 0 missing required key 'oracle'", id="member-oracle",
        ),
        pytest.param(
            None, "oracle", {"kind": "pool", "members": [{"weight": "x", "oracle": EXACT}]},
            "pool weight 'x' is not a number", id="pool-weight",
        ),
        pytest.param(
            None, "oracle", {"kind": "pool", "members": [{"weight": float("nan"), "oracle": EXACT}]},
            "pool weights must be finite", id="pool-weight-nan",
        ),
        pytest.param(None, "seed", 1.7, "seed 1.7 is not an integer", id="seed-fraction"),
        pytest.param(None, "seed", True, "seed True is not an integer", id="seed-bool"),
        pytest.param("phase1", "games", 10.9, "phase1 games 10.9 is not an integer", id="games-fraction"),
        pytest.param(
            "phase1", "games", float("inf"), "phase1 games inf is not an integer", id="games-infinite"
        ),
        pytest.param(
            "phase1", "baseline_games", 2000.5, "phase1 baseline_games 2000.5 is not an integer",
            id="baseline-games-fraction",
        ),
        pytest.param("phase2", "games", False, "phase2 games False is not an integer", id="phase2-games-bool"),
        pytest.param("phase2", "steps", 3.9, "phase2 steps 3.9 is not an integer", id="steps-fraction"),
        pytest.param(
            "phase2", "pool_size", True, "phase2 pool_size True is not an integer", id="pool-size-bool"
        ),
        pytest.param("phase1", "tau", True, "phase1 tau True is not a number", id="tau-bool"),
        pytest.param("phase2", "t0", True, "phase2 t0 True is not a number", id="t0-bool"),
        pytest.param("phase2", "dt", False, "phase2 dt False is not a number", id="dt-bool"),
        pytest.param(
            None, "oracle", {**EXACT, "kind": "synthetic", "sigma": True}, "sigma True is not a number",
            id="sigma-bool",
        ),
        pytest.param(None, "oracle", {**EXACT, "weights": True}, "weights True is not a number", id="weights-bool"),
        pytest.param(
            None, "oracle", {**EXACT, "weights": [1, True, 1, 1]}, "weight True is not a number",
            id="weights-list-bool",
        ),
        pytest.param(
            None, "oracle", {**EXACT, "weights": {"1": 1, "2": True, "3": 1, "4": 1}},
            "weight True is not a number", id="weights-map-bool",
        ),
        pytest.param(
            None, "oracle", {"kind": "pool", "members": [{"weight": True, "oracle": EXACT}]},
            "pool weight True is not a number", id="pool-weight-bool",
        ),
        pytest.param(
            None, "oracle", {"kind": "subprocess", "cmd": ["prog"], "timeout": True},
            "subprocess timeout True is not a number", id="timeout-bool",
        ),
        pytest.param(
            None, "oracle", {"kind": "subprocess", "cmd": ["prog"], "workers": True},
            "subprocess workers True is not an integer", id="workers-bool",
        ),
        pytest.param(
            None, "oracle", {"kind": "subprocess", "cmd": ["prog"], "workers": 1.5},
            "subprocess workers 1.5 is not an integer", id="workers-fraction",
        ),
        pytest.param(
            None, "oracle", {"kind": "subprocess", "cmd": ["prog"], "workers": 0},
            "subprocess workers must be >= 1, got 0", id="workers-zero",
        ),
        pytest.param(
            "phase1", "element_order", [True, 2], "element_order must be a list of elements",
            id="element-order-bool",
        ),
        pytest.param(None, "initial", [4, 3, 2, True], "unparseable assignment [4, 3, 2, True]", id="initial-bool"),
        pytest.param(
            None, "oracle", {**EXACT, "target": [2, 4, True, 3]}, "unparseable assignment [2, 4, True, 3]",
            id="target-bool",
        ),
        pytest.param(
            None, "initial", [4.7, 3, 2, 1], "unparseable assignment [4.7, 3, 2, 1]", id="initial-fraction"
        ),
        pytest.param(
            None, "oracle", {**EXACT, "target": [2, 4, 1.2, 3]}, "unparseable assignment [2, 4, 1.2, 3]",
            id="target-fraction",
        ),
        pytest.param(
            None, "initial", [4, 3, 2, float("inf")], "unparseable assignment [4, 3, 2, inf]",
            id="initial-infinite",
        ),
        pytest.param(
            "phase2", "script_moves", "", "phase2 script_moves must be a path, got ''", id="script-moves-empty"
        ),
    ],
)
def test_malformed_config_values_exit_2(section, key, value, message, synthetic_config_file, capsys):
    doc = json.loads(synthetic_config_file.read_text())
    (doc[section] if section else doc)[key] = value
    synthetic_config_file.write_text(json.dumps(doc))
    assert main(["optimize", "--config", str(synthetic_config_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_integral_float_settings_are_accepted(synthetic_config_file, capsys):
    doc = json.loads(synthetic_config_file.read_text())
    doc["seed"] = 9.0
    doc["phase1"] = {"games": 2e2, "baseline_games": 4e2}
    doc["phase2"] = {"games": 8e2, "steps": 5.0, "pool_size": 8.0}
    synthetic_config_file.write_text(json.dumps(doc))
    assert main(["optimize", "--config", str(synthetic_config_file)]) == 0
    assert "phase2 best:" in capsys.readouterr().out


def test_integral_float_element_ids_read_as_ints(synthetic_config_file, capsys):
    assert main(["optimize", "--config", str(synthetic_config_file)]) == 0
    expected = capsys.readouterr().out
    doc = json.loads(synthetic_config_file.read_text())
    doc["initial"] = [4.0, 3.0, 2.0, 1.0]
    doc["oracle"]["target"] = [2.0, 4, 1, 3.0]
    doc["phase1"]["element_order"] = [4.0, 3.0, 2.0, 1.0]
    synthetic_config_file.write_text(json.dumps(doc))
    assert main(["optimize", "--config", str(synthetic_config_file)]) == 0
    assert capsys.readouterr().out == expected


def test_script_moves_flag_pins_the_annealing_path(tmp_path, capsys):
    fixtures = packaged_fixtures_dir()
    doc = {
        "initial": "11 2 3 10 9 6 4 5 7 8",
        "seed": 5,
        "oracle": {"kind": "replay", "path": [str(fixtures / name) for name in ("table1_2.replay", "table3.replay")]},
    }
    config = tmp_path / "replay.json"
    config.write_text(json.dumps(doc))
    assert main(
        ["optimize", "--config", str(config),
         "--script-moves", str(fixtures / "table3.moves")]
    ) == 0
    out = capsys.readouterr().out
    assert "phase2 best: 5 4 2 3 7 6 8 10 11 9" in out
    assert "-2.95471" in out


def test_an_empty_script_moves_flag_is_refused_by_the_name_of_its_config_key(synthetic_config_file, capsys):
    assert main(["optimize", "--config", str(synthetic_config_file), "--script-moves", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "phase2 script_moves must be a path, got ''" in err


ROW = {"test_id": 0, "phase": 1, "assignment": "1 2 3", "mean": -1.0, "se": 0.1, "n_games": 10}
BAD_NOTE = {"kind": "induced", "before": 1, "after": 2, "tests": 5, "gap": 0.2, "threshold": 0.1}
NOTE = {**BAD_NOTE, "tests": [0, 1]}
# Trace lines that parse as JSON but are not trace rows, by test case.
BAD_ROWS = {
    "trace-note": {**ROW, "annotations": [BAD_NOTE]},
    "trace-note-tests": {**ROW, "annotations": [{**BAD_NOTE, "tests": [0]}]},
    "trace-note-kind": {**ROW, "annotations": [{**NOTE, "kind": "maybe"}]},
    "trace-assignment": {**ROW, "assignment": 5},
    "trace-marker": {**ROW, "marker": 'a "quoted" star'},
    "trace-decision": {**ROW, "phase": 2, "decision": "kept"},
    "trace-test-id-bool": {**ROW, "test_id": True},
    "trace-test-id-float": {**ROW, "test_id": 0.5},
    "trace-phase": {**ROW, "phase": "1"},
    "trace-phase-3": {**ROW, "phase": 3},
    "trace-phase-bool": {**ROW, "phase": True},
    "trace-cached": {**ROW, "phase": 2, "cached": "no"},
    "trace-reeval": {**ROW, "phase": 2, "reeval": 1},
    "trace-n-games": {**ROW, "n_games": 10.0},
    "trace-mean": {**ROW, "mean": "-1.0"},
    "trace-se": {**ROW, "se": None},
    "trace-se-bool": {**ROW, "se": False},
    "trace-temperature": {**ROW, "phase": 2, "temperature": "0.1"},
    "trace-delta": {**ROW, "phase": 2, "delta": True},
    "trace-probability": {**ROW, "phase": 2, "probability": [0.5]},
    "trace-note-before": {**ROW, "annotations": [{**NOTE, "before": "3"}]},
    "trace-note-after": {**ROW, "annotations": [{**NOTE, "after": True}]},
    "trace-note-test-entry": {**ROW, "annotations": [{**NOTE, "tests": [0, 1.0]}]},
    "trace-note-gap": {**ROW, "annotations": [{**NOTE, "gap": "0.2"}]},
    "trace-note-threshold": {**ROW, "annotations": [{**NOTE, "threshold": None}]},
}
# Input files that are not UTF-8, by test case: what the error calls the file.
NOT_UTF8 = {
    "trace-not-utf8": "trace",
    "config-not-utf8": "JSON file",
    "landscape-not-utf8": "JSON file",
    "script-moves-not-utf8": "scripted move file",
    "replay-path-not-utf8": "replay fixture",
    "fixtures-not-utf8": "replay fixture",
    "graph-not-utf8": "edge list",
}


@pytest.mark.parametrize(
    "case",
    ["config", "script-moves", "replay-path", "landscape", "trace", "graph", "trace-number", "trace-form-feed",
     *BAD_ROWS,
     *NOT_UTF8],
)
def test_unreadable_input_files_exit_2(case, synthetic_config_file, tmp_path, capsys):
    # A -not-utf8 case runs its base case's command on a file of bytes that
    # are not UTF-8 in place of a missing file.
    path = tmp_path / "missing"
    config = str(synthetic_config_file)
    trace = tmp_path / "trace.jsonl"
    fixtures = tmp_path / "fixtures"
    if case == "fixtures-not-utf8":
        shutil.copytree(packaged_fixtures_dir(), fixtures)
        path = fixtures / FIXTURE_TABLE1_2
    if case in NOT_UTF8:
        path.write_bytes(b"\xff\xfe")
    base = case.removesuffix("-not-utf8")
    if case == "trace-number":
        trace.write_text(json.dumps(ROW) + "\n5\n")
    elif case == "trace-form-feed":  # JSON allows no form feed after a value
        trace.write_text(json.dumps(ROW) + "\f\n")
    elif case in BAD_ROWS:
        trace.write_text(json.dumps(BAD_ROWS[case]) + "\n")
    elif base == "replay-path":
        doc = json.loads(synthetic_config_file.read_text())
        doc["oracle"] = {"kind": "replay", "path": str(path)}
        synthetic_config_file.write_text(json.dumps(doc))
    argv = {
        "config": ["optimize", "--config", str(path)],
        "script-moves": ["optimize", "--config", config, "--script-moves", str(path)],
        "replay-path": ["optimize", "--config", config],
        "fixtures": ["replay", "--fixtures", str(fixtures)],
        "landscape": ["brute", "--landscape", str(path)],
        "trace": ["export-dag", "--trace", str(path), "--out", str(tmp_path / "dag.dot")],
        "graph": ["phase2", "--config", config, "--graph", str(path), "--start", "2 4 1 3"],
    }.get(base, ["export-dag", "--trace", str(trace), "--out", str(tmp_path / "dag.dot")])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if case in NOT_UTF8:
        assert f"{path}: not a UTF-8 {NOT_UTF8[case]}" in err
    elif case.startswith("trace-"):
        assert f"{trace}:{2 if case == 'trace-number' else 1}: unparseable trace line" in err
    else:
        assert "No such file or directory" in err and str(path) in err


# An element id spelled otherwise than `format_assignment` writes it, by input: the input's text, and what
# the error says.
SPELLED_OTHERWISE = {
    "replay": ("# dca-replay v1\n4 3 2 +1 | -1.0 | 0.1 | 200\n", "{path}:2: unparseable replay line"),
    "trace": (json.dumps({**ROW, "assignment": "1_0 2 3"}) + "\n", "{path}:1: unparseable trace line"),
    "script-moves": ("4 3 1 +2\n", "{path}:1: unparseable assignment ['4', '3', '1', '+2']"),
    "start": ("2 4 1 03", "unparseable assignment ['2', '4', '1', '03']"),
    "initial": ("4 3 2 +1", "unparseable assignment ['4', '3', '2', '+1']"),
    "target": ("2 4 1 \u0663", "unparseable assignment ['2', '4', '1', '\u0663']"),
    "weights": ({"2": 1, "4": 1, "1": 1, " 3": 1}, "weight key ' 3' is not a number"),
    "graph": ("2 < +4\n", "{path}:1: unparseable edge line '2 < +4'"),
}


@pytest.mark.parametrize("case", SPELLED_OTHERWISE)
def test_an_element_id_spelled_otherwise_exits_2(case, synthetic_config_file, tmp_path, capsys):
    value, message = SPELLED_OTHERWISE[case]
    path = tmp_path / "input"
    config = str(synthetic_config_file)
    doc = json.loads(synthetic_config_file.read_text())
    if case in ("replay", "trace", "script-moves", "graph"):
        path.write_text(value)
    elif case == "start":
        path.write_text("2 < 4\n")  # the edge list phase2 needs
    if case == "replay":
        doc["oracle"] = {"kind": "replay", "path": str(path)}
    elif case == "initial":
        doc["initial"] = value
    elif case in ("target", "weights"):
        doc["oracle"][case] = value
    synthetic_config_file.write_text(json.dumps(doc))
    argv = {
        "trace": ["export-dag", "--trace", str(path), "--out", str(tmp_path / "dag.dot")],
        "script-moves": ["optimize", "--config", config, "--script-moves", str(path)],
        "start": ["phase2", "--config", config, "--graph", str(path), "--start", value],
        "graph": ["phase2", "--config", config, "--graph", str(path), "--start", "2 4 1 3"],
    }.get(case, ["optimize", "--config", config])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message.format(path=path) in err and "Traceback" not in err


def test_readme_commands_and_run_config_parse():
    # README's CLI block, optional [...] parts included, and its run config stay valid.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    commands = [line for line in block.splitlines() if line.startswith("dca ")]
    assert len(commands) == 8
    for line in commands:
        build_parser().parse_args(shlex.split(line.replace("[", "").replace("]", ""))[1:])
    config = re.search(r"^### Run config.*?\n```json\n(.*?)^```", readme, re.S | re.M).group(1)
    RunConfig.from_dict(json.loads(config)).validate()
