from __future__ import annotations

import json

import pytest

from dca.cli import main
from dca.evaluation import FitnessEstimate, Oracle, ReplayFixture
from dca.harness import FIXTURE_TABLE1_2, TABLE_X0, packaged_fixtures_dir
from dca.trace import dump_trace, read_trace, trace_to_csv


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


def test_optimize_flag_overrides(synthetic_config_file, capsys):
    assert main(
        ["optimize", "--config", str(synthetic_config_file), "--steps", "3", "--t0", "0.3",
         "--dt", "0.05", "--seed", "4"]
    ) == 0
    assert "phase1 best:" in capsys.readouterr().out


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


def test_interrupted_phase1_leaves_a_trace_prefix(tmp_path, capsys):
    fixture = ReplayFixture.load(packaged_fixtures_dir() / FIXTURE_TABLE1_2)
    short = tmp_path / "short.replay"
    ReplayFixture(records=dict(list(fixture.records.items())[:8])).save(short)
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
    command, fails, synthetic_config_file, tmp_path, monkeypatch, capsys
):
    closed = []
    monkeypatch.setattr(Oracle, "close", lambda self: closed.append(self))
    if fails:
        # A fixture holding neither command's first assignment fails at once.
        fixture = tmp_path / "other.replay"
        ReplayFixture(records={"1 2 3 4": FitnessEstimate(0.0, 0.1, 10)}).save(fixture)
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
    synthetic_config_file.write_text(json.dumps(doc))
    assert main(["optimize", "--config", str(synthetic_config_file)]) == 0
    assert capsys.readouterr().out == expected


def test_script_moves_flag_pins_the_annealing_path(tmp_path, capsys):
    fixtures = packaged_fixtures_dir()
    doc = {
        "initial": "11 2 3 10 9 6 4 5 7 8",
        "seed": 5,
        "oracle": {"kind": "replay", "path": str(fixtures / "table1_2.replay")},
        "oracle_phase2": {"kind": "replay", "path": str(fixtures / "table3.replay")},
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


ROW = {"test_id": 0, "phase": 1, "assignment": "1 2 3", "mean": -1.0, "se": 0.1, "n_games": 10}
BAD_NOTE = {"kind": "induced", "before": 1, "after": 2, "tests": 5, "gap": 0.2, "threshold": 0.1}


@pytest.mark.parametrize(
    "case",
    ["config", "script-moves", "replay-path", "landscape", "trace", "graph", "trace-number", "trace-note"],
)
def test_unreadable_input_files_exit_2(case, synthetic_config_file, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    config = str(synthetic_config_file)
    trace = tmp_path / "trace.jsonl"
    if case == "trace-number":
        trace.write_text(json.dumps(ROW) + "\n5\n")
    elif case == "trace-note":
        trace.write_text(json.dumps({**ROW, "annotations": [BAD_NOTE]}) + "\n")
    elif case == "replay-path":
        doc = json.loads(synthetic_config_file.read_text())
        doc["oracle"] = {"kind": "replay", "path": missing}
        synthetic_config_file.write_text(json.dumps(doc))
    argv = {
        "config": ["optimize", "--config", missing],
        "script-moves": ["optimize", "--config", config, "--script-moves", missing],
        "replay-path": ["optimize", "--config", config],
        "landscape": ["brute", "--landscape", missing],
        "trace": ["export-dag", "--trace", missing, "--out", str(tmp_path / "dag.dot")],
        "graph": ["phase2", "--config", config, "--graph", missing, "--start", "2 4 1 3"],
        "trace-number": ["export-dag", "--trace", str(trace), "--out", str(tmp_path / "dag.dot")],
        "trace-note": ["export-dag", "--trace", str(trace), "--out", str(tmp_path / "dag.dot")],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if case.startswith("trace-"):
        assert f"{trace}:{2 if case == 'trace-number' else 1}: unparseable trace line" in err
    else:
        assert "No such file or directory" in err and missing in err
