"""Command-line entry points: gen, train, eval, plot.

Exit codes: 0 success, 1 usage or config problems, 2 data problems
(unreadable files, bad checkpoints, runtime failures).  The run-directory
root for ``train`` defaults to ``$ROUTEZERO_RUN_ROOT`` (else ``runs/``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import SearchBudgetError, SizeLimitError, SolveResult, exact_evrp, exact_tsps, gap, greedy_rollouts
from .env import DeadEndError, RoutingGame, objective, validate_route
from .instance import (
    Instance,
    InstanceError,
    TspInstance,
    generate_evrp,
    generate_tsp,
    load_instance,
    save_instance,
    write_file,
)
from .net import CheckpointError, PolicyValueNet, load_net
from .planner import GreedyNetPolicy, NetEvaluator, PlannerConfig, PlannerError, play_seats
from .trainer import TrainerError, read_metrics, train, train_config_from_dict

RESULTS_HEADER = "instance,method,objective,oracle,gap_pct,feasible"
TIMING_HEADER = "instance,wall_s,oracle_s,evaluations"
# the least value of each integer flag; a smaller one is a usage error, before any I/O (an unset flag is skipped)
_FLAG_MINIMUMS = {"count": 1, "budget": 1, "m_root": 1, "window": 1, "seed": 0}
# the eval flags that only a search reads, and the value an unset one takes in mcts mode
_MCTS_DEFAULTS = {"budget": 32, "m_root": 16, "seed": 0}


class DataError(RuntimeError):
    """Input data unusable for the requested command."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="routezero", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="write instance files")
    p_gen.add_argument("problem", choices=("tsp", "evrp"))
    p_gen.add_argument("--nodes", type=int, default=20, help="tsp city count")
    p_gen.add_argument("--customers", type=int, default=10, help="evrp customer count")
    p_gen.add_argument("--stations", type=int, default=4, help="evrp station count")
    p_gen.add_argument("--objective", choices=("DM", "EM"), default="DM", help="evrp objective mode")
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=".", help="output directory")

    p_train = sub.add_parser("train", help="run the self-play training loop")
    p_train.add_argument("config", help="JSON file of TrainConfig fields")
    p_train.add_argument("--run-dir", default=None)
    p_train.add_argument("--resume", action="store_true")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on an instance directory")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("instances", help="directory of instance JSON files")
    p_eval.add_argument("--mode", choices=("greedy", "mcts"), default="greedy")
    p_eval.add_argument("--budget", type=int, help="mcts simulations per move (default 32)")
    p_eval.add_argument("--m-root", type=int, help="mcts root candidates (default 16)")
    p_eval.add_argument("--seed", type=int, help="mcts search seed (default 0)")
    p_eval.add_argument("--out", default=None, help="results csv path (default: <instances>/results.csv)")

    p_plot = sub.add_parser("plot", help="render a metrics csv as an SVG chart")
    p_plot.add_argument("metrics", help="metrics.csv from a run directory")
    p_plot.add_argument("out", help="output .svg path")
    p_plot.add_argument("--window", type=int, default=20, help="moving-average window")
    return parser


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    for k in range(args.count):
        seed = args.seed + k
        try:
            if args.problem == "tsp":
                inst: Instance = generate_tsp(args.nodes, seed=seed)
                name = f"tsp_n{args.nodes}_seed{seed}.json"
            else:
                inst = generate_evrp(args.customers, args.stations, seed=seed, objective_mode=args.objective)
                name = f"evrp_c{args.customers}_s{args.stations}_{args.objective.lower()}_seed{seed}.json"
        except InstanceError as exc:  # a size the generator rejects fails on the first seed, before any write
            evrp = f"--customers {args.customers} --stations {args.stations}"
            sizes = f"--nodes {args.nodes}" if args.problem == "tsp" else evrp
            raise ValueError(f"{sizes}: {exc}") from exc
        out_dir.mkdir(parents=True, exist_ok=True)
        save_instance(inst, out_dir / name)
    print(f"wrote {args.count} instance file(s) to {out_dir}")
    return 0


def cmd_train(args) -> int:
    config_path = Path(args.config)
    try:
        raw = json.loads(config_path.read_text())
    except FileNotFoundError as exc:
        raise DataError(f"{config_path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{config_path}: invalid JSON: {exc}") from exc
    cfg = train_config_from_dict(raw)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    root = os.environ.get("ROUTEZERO_RUN_ROOT", "runs")
    run_dir = Path(args.run_dir) if args.run_dir else Path(root) / config_path.stem
    ckpt = train(cfg, run_dir, resume=args.resume)
    print(f"run directory: {run_dir}")
    print(f"checkpoint: {ckpt}")
    return 0


def _is_feasible(inst: Instance, route) -> bool:
    if isinstance(inst, TspInstance):
        return sorted(route) == list(range(inst.n_nodes))
    return not validate_route(inst, route)


def _plan_route(inst: Instance, net: PolicyValueNet, planner_cfg: PlannerConfig, rng) -> SolveResult | DeadEndError:
    """Search-guided route: slot 0 plans each move against a greedy shadow of the same net in slot 1.

    Both slots play through ``planner.play_seats`` under the one step cap
    until slot 0 ends.  Returns slot 0's route, whose ``expansions`` is the
    sum of its plan evaluation counts, or its ``DeadEndError``, as
    ``greedy_rollouts`` returns a slot's.
    """
    start = time.perf_counter()
    shadow = GreedyNetPolicy(net)
    moves, ends = play_seats(RoutingGame(inst), ((NetEvaluator(net), shadow), shadow), planner_cfg, rng)
    end = next(result for slot, result in ends if slot == 0)
    if isinstance(end, DeadEndError):
        return end
    route = end.route
    evaluations = sum(result.evaluations for slot, _, result, _ in moves if slot == 0)
    return SolveResult(route, objective(inst, route), evaluations, time.perf_counter() - start)


def _oracles(insts: list[Instance]) -> list[SolveResult | None]:
    """Exact solutions of one problem's instances, None where an instance is too large or the search budget runs out.

    TSP instances all go through one `exact_tsps`, EVRP instances through
    one `exact_evrp` each.
    """
    if isinstance(insts[0], TspInstance):
        return [result if isinstance(result, SolveResult) else None for result in exact_tsps(insts)]
    oracles = []
    for inst in insts:
        try:
            oracles.append(exact_evrp(inst))
        except (SizeLimitError, SearchBudgetError):
            oracles.append(None)
    return oracles


def _result_row(path: Path, inst: Instance, solved: SolveResult, oracle: SolveResult | None, mode: str) -> str:
    obj = solved.objective
    best = oracle.objective if oracle is not None else None
    oracle_s = repr(best) if best is not None else ""
    gap_s = repr(gap(obj, best)) if best is not None and best > 0 else ""
    feasible = _is_feasible(inst, solved.route)
    return f"{path.name},{mode},{obj!r},{oracle_s},{gap_s},{feasible}"


def _timing_row(path: Path, solved: SolveResult, oracle: SolveResult | None) -> str:
    oracle_s = repr(oracle.wall_time_s) if oracle is not None else ""
    return f"{path.name},{solved.wall_time_s!r},{oracle_s},{solved.expansions}"


def cmd_eval(args) -> int:
    for name, default in _MCTS_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.mode == "greedy":  # which would ignore it
            raise ValueError(f"--{name.replace('_', '-')} applies to --mode mcts only")
    if not Path(args.checkpoint).exists():
        raise DataError(f"{args.checkpoint}: checkpoint not found")
    net = load_net(args.checkpoint)
    inst_dir = Path(args.instances)
    paths = sorted(inst_dir.glob("*.json"))
    if not paths:
        raise DataError(f"{inst_dir}: no instance files")
    insts = [load_instance(path) for path in paths]
    problem = net.config.problem
    other = next((path for path, inst in zip(paths, insts) if isinstance(inst, TspInstance) != (problem == "tsp")), None)
    if other is not None:
        raise DataError(f"{args.checkpoint}: the net plays {problem} instances, {other} is not one")
    if args.mode == "greedy":
        solved = greedy_rollouts(insts, net)
    else:
        planner_cfg = PlannerConfig(n_simulations=args.budget, m_root=args.m_root)
        rngs = [np.random.default_rng([args.seed, idx]) for idx in range(len(insts))]
        solved = [_plan_route(inst, net, planner_cfg, rng) for inst, rng in zip(insts, rngs)]
    for path, result in zip(paths, solved):  # the first dead end in sorted file order
        if isinstance(result, DeadEndError):
            raise DeadEndError(f"{path.name}: {result}")
    oracles = _oracles(insts)
    rows = [_result_row(*row, args.mode) for row in zip(paths, insts, solved, oracles)]
    timing = [_timing_row(*row) for row in zip(paths, solved, oracles)]
    out = Path(args.out) if args.out else inst_dir / "results.csv"
    timing_out = out.with_name(f"{out.stem}.timing.csv")
    write_file(out, "\n".join([RESULTS_HEADER, *rows]) + "\n")
    write_file(timing_out, "\n".join([TIMING_HEADER, *timing]) + "\n")
    print(f"wrote {len(rows)} result row(s) to {out}, timing to {timing_out}")
    return 0


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    window = min(window, values.shape[0])
    sums = np.cumsum(values)
    out = np.empty_like(values)
    out[:window] = sums[:window] / np.arange(1, window + 1)
    out[window:] = (sums[window:] - sums[:-window]) / window
    return out


def _polyline(xs, ys, x_map, y_map, color: str) -> str:
    pts = " ".join(f"{x_map(x):.2f},{y_map(y):.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def _panel(parts, episodes, series, top, height, title):
    """One chart panel: axes, ticks, and the given (label, color, values) series."""
    left, right = 60.0, 780.0
    lo = min(float(np.min(v)) for _, _, v in series)
    hi = max(float(np.max(v)) for _, _, v in series)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    e_lo, e_hi = float(episodes[0]), float(episodes[-1])
    if e_hi - e_lo < 1e-12:
        e_hi = e_lo + 1.0
    bottom = top + height

    def x_map(x):
        return left + (x - e_lo) / (e_hi - e_lo) * (right - left)

    def y_map(y):
        return bottom - (y - lo) / (hi - lo) * height

    parts.append(f'<text x="{left:.0f}" y="{top - 8:.2f}" font-size="13">{title}</text>')
    parts.append(
        f'<line x1="{left}" y1="{bottom:.2f}" x2="{right}" y2="{bottom:.2f}" stroke="black" stroke-width="1"/>'
    )
    parts.append(f'<line x1="{left}" y1="{top:.2f}" x2="{left}" y2="{bottom:.2f}" stroke="black" stroke-width="1"/>')
    for frac in (0.0, 0.5, 1.0):
        y = lo + frac * (hi - lo)
        parts.append(
            f'<text x="{left - 6:.2f}" y="{y_map(y) + 4:.2f}" font-size="10" text-anchor="end">{y:.6g}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        x = e_lo + frac * (e_hi - e_lo)
        parts.append(
            f'<text x="{x_map(x):.2f}" y="{bottom + 14:.2f}" font-size="10" text-anchor="middle">{x:.6g}</text>'
        )
    legend_x = left + 10
    for label, color, values in series:
        parts.append(_polyline(episodes, values, x_map, y_map, color))
        parts.append(f'<text x="{legend_x:.2f}" y="{top + 12:.2f}" font-size="11" fill="{color}">{label}</text>')
        legend_x += 110
    return x_map, top, bottom


def render_metrics_svg(rows: list[dict], window: int) -> str:
    """Standalone SVG: moving-average objectives, stage marker, SOC panel."""
    episodes = np.array([r["episode"] for r in rows], dtype=float)
    learner = _moving_average(np.array([r["learner_obj"] for r in rows]), window)
    competitor = _moving_average(np.array([r["competitor_obj"] for r in rows]), window)
    have_soc = all(r["soc_per_customer"] is not None for r in rows)
    height = 460 if have_soc else 320
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="{height}" viewBox="0 0 800 {height}">',
        f'<rect width="800" height="{height}" fill="white"/>',
    ]
    x_map, top, bottom = _panel(
        parts,
        episodes,
        [("learner", "#1f77b4", learner), ("competitor", "#d62728", competitor)],
        top=30.0,
        height=240.0,
        title="objective (moving average)",
    )
    stages = [r["stage"] for r in rows]
    if 2 in stages and stages[0] == 1:
        switch_ep = float(episodes[stages.index(2)])
        x = x_map(switch_ep)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top:.2f}" x2="{x:.2f}" y2="{bottom:.2f}" '
            'stroke="gray" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        parts.append(f'<text x="{x + 4:.2f}" y="{top + 26:.2f}" font-size="10" fill="gray">stage 2</text>')
    if have_soc:
        soc = _moving_average(np.array([r["soc_per_customer"] for r in rows]), window)
        _panel(
            parts,
            episodes,
            [("battery per customer (kWh)", "#2ca02c", soc)],
            top=330.0,
            height=100.0,
            title="energy use",
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    write_file(args.out, render_metrics_svg(read_metrics(Path(args.metrics)), args.window))
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval, "plot": cmd_plot}
    try:
        for name, least in _FLAG_MINIMUMS.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ValueError(f"--{name.replace('_', '-')} must be at least {least}, got {value}")
        return handlers[args.command](args)
    except (DataError, InstanceError, CheckpointError, TrainerError, DeadEndError, PlannerError, OSError) as exc:
        print(f"routezero: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"routezero: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
