"""Command-line surface for running, replaying, and inspecting optimisations."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import read_json_file, read_text
from .constraints import ConstraintGraph, from_edge_list_text, to_dot, to_edge_list_text
from .errors import DcaError
from .evaluation import HiddenTargetLandscape, format_mean
from .harness import (
    SECTION_KEYS,
    RunConfig,
    assemble,
    brute_force_optimum,
    graph_from_trace,
    replay_verify,
    run_experiment,
)
from .perm import format_assignment, parse_assignment
from .trace import read_trace


# Each override flag: the config section and key it sets, and its argparse keywords.
_OVERRIDES = {
    "--games": ("phase1", "games", dict(type=int, help="phase-1 games per test")),
    "--games-hi": ("phase2", "games", dict(type=int, help="phase-2 games per test")),
    "--tau": ("phase1", "tau", dict(type=float, help="noise-gate multiplier")),
    "--t0": ("phase2", "t0", dict(type=float, help="initial annealing temperature")),
    "--dt": ("phase2", "dt", dict(type=float, help="temperature decrement per step")),
    "--steps": ("phase2", "steps", dict(type=int, help="annealing step count")),
    "--pool-size": ("phase2", "pool_size", dict(type=int, help="candidate pool size per step")),
    "--induction-scope": ("phase1", "induction_scope", dict(choices=["flanking", "all-pairs"])),
    "--script-moves": ("phase2", "script_moves", dict(help="file of scripted candidate assignments")),
}


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--seed", type=int, help="override the config's master seed")
    p.add_argument("--out", type=Path, help="directory for trace and summary files")
    for flag, (_, _, keywords) in _OVERRIDES.items():
        p.add_argument(flag, **keywords)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for flag, (section, key, _) in _OVERRIDES.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            name, reader = SECTION_KEYS[section][key]
            setattr(getattr(cfg, section), name, reader(value, f"{section} {key}"))
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _read_graph(path: Path) -> ConstraintGraph:
    return from_edge_list_text(read_text(path, "edge list"), path)


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(RunConfig.from_json_file(args.config), args)
    summary = run_experiment(cfg, out_dir=args.out)
    print(f"phase1 best: {format_assignment(summary.phase1.best)}  "
          f"mean {format_mean(summary.phase1.best_estimate.mean)}")
    print(f"phase2 best: {format_assignment(summary.best)}  "
          f"mean {format_mean(summary.best_mean)}")
    print(f"evaluations: {summary.phase1_tests + summary.phase2_tests} tests, "
          f"{summary.phase1_games + summary.phase2_games} games")
    if args.out:
        print(f"trace written under {args.out}")
    return 0


def cmd_phase1(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(RunConfig.from_json_file(args.config), args)
    with assemble(cfg, args.out) as parts:
        result = parts.phase1()
    print(f"best: {format_assignment(result.best)}  mean {format_mean(result.best_estimate.mean)}")
    for d in result.decisions:
        print(f"  {d.outcome}: {d.before}<{d.after}")
    if args.out:
        (Path(args.out) / "constraints.txt").write_text(to_edge_list_text(result.graph))
    return 0


def cmd_phase2(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(RunConfig.from_json_file(args.config), args)
    graph = _read_graph(args.graph)
    start = parse_assignment(args.start)
    with assemble(cfg, args.out) as parts:
        result = parts.phase2(start, graph)
    print(f"best: {format_assignment(result.best)}  mean {format_mean(result.best_estimate.mean)}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    report = replay_verify(args.fixtures)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.ok else 1


def cmd_brute(args: argparse.Namespace) -> int:
    landscape = HiddenTargetLandscape.from_config(read_json_file(args.landscape))
    graph = _read_graph(args.graph) if args.graph else None
    best, mean = brute_force_optimum(landscape, graph)
    print(f"optimum: {format_assignment(best)}  mean {format_mean(mean)}")
    return 0


def cmd_export_dag(args: argparse.Namespace) -> int:
    graph = graph_from_trace(read_trace(args.trace))
    args.out.write_text(to_dot(graph, reduce=args.reduce))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="full two-phase run from a config file")
    _add_shared_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p1 = sub.add_parser("phase1", help="run the climbing phase only")
    _add_shared_flags(p1)
    p1.set_defaults(func=cmd_phase1)

    p2 = sub.add_parser("phase2", help="run the annealing phase from a start and edge list")
    p2.add_argument("--graph", required=True, type=Path, help="constraint edge-list file")
    p2.add_argument("--start", required=True, help="starting assignment, space-separated")
    _add_shared_flags(p2)
    p2.set_defaults(func=cmd_phase2)

    p_rep = sub.add_parser("replay", help="verify the shipped table replays")
    p_rep.add_argument("--fixtures", type=Path, help="fixture directory (defaults to packaged)")
    p_rep.set_defaults(func=cmd_replay)

    p_brute = sub.add_parser("brute", help="exhaustive optimum of a small exact landscape")
    p_brute.add_argument("--landscape", required=True, type=Path)
    p_brute.add_argument("--graph", type=Path)
    p_brute.set_defaults(func=cmd_brute)

    p_dag = sub.add_parser("export-dag", help="DOT export of a trace's induced constraints")
    p_dag.add_argument("--trace", required=True, type=Path)
    p_dag.add_argument("--out", required=True, type=Path)
    p_dag.add_argument("--reduce", action="store_true", help="emit the transitive reduction")
    p_dag.set_defaults(func=cmd_export_dag)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DcaError, OSError) as err:  # an OSError: an input file that cannot be read
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
