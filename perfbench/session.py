"""One benchmark child process: set-up, then timed sessions of CLI calls.

Started by ``run.py`` with the routezero sources on ``PYTHONPATH`` and BLAS
pinned to one thread.  ``--mode setup`` stops after set-up, so the parent
can sample set-up time in fresh processes; ``--mode session`` goes on to run
sessions until another would overrun ``--seconds`` (always at least one).
The child writes ``report.json`` into its work directory; the parent checks
the outputs it names.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Workload


def instance_seed(wl: Workload, seed: int, stream: int) -> int:
    """First `routezero gen` seed of an eval set (stream 0 greedy, 1 mcts)."""
    base = 0 if wl.fixed_instances else 1_000_000 + 10_000 * seed
    return base + 5_000 * stream


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }


def set_up(cli, wl: Workload, seed: int, work: Path) -> dict:
    """Write the workload's inputs; returns the paths the session uses."""
    inputs = {}
    if wl.train is not None:
        inputs["config"] = work / "config.json"
        inputs["config"].write_text(json.dumps({**wl.train, "seed": seed}, indent=2) + "\n")
    sets = [("greedy", wl.greedy_count, 0)]
    if wl.mcts_count:
        sets.append(("mcts", wl.mcts_count, 1))
    for kind, count, stream in sets:
        inputs[kind] = work / f"{kind}_instances"
        argv = ["gen", *wl.gen, "--count", str(count), "--seed", str(instance_seed(wl, seed, stream))]
        if cli.main([*argv, "--out", str(inputs[kind])]) != 0:
            raise RuntimeError(f"set-up failed: routezero {' '.join(argv)}")
    return inputs


def nearest_neighbor_eval(instances: Path, out: Path) -> int:
    """Nearest-neighbour routes scored against the exact oracle, as eval rows.

    Writes the same CSV layout as `routezero eval`.  An instance whose
    heuristic or oracle raises gets no row, which counts as a failed op.
    """
    from routezero.baselines import exact_evrp, gap, nearest_neighbor
    from routezero.cli import RESULTS_HEADER
    from routezero.env import validate_route
    from routezero.instance import load_instance

    rows = [RESULTS_HEADER]
    for path in sorted(instances.glob("*.json")):
        inst = load_instance(path)
        try:
            route = nearest_neighbor(inst)
            oracle = exact_evrp(inst).objective
        except Exception:  # reported as a missing row
            traceback.print_exc()
            continue
        feasible = not validate_route(inst, route.route)
        cells = (path.name, "nearest_neighbor", repr(route.objective), repr(oracle), repr(gap(route.objective, oracle)))
        rows.append(",".join(cells) + f",{feasible}")
    out.write_text("\n".join(rows) + "\n")
    return 0


def run_session(cli, wl: Workload, seed: int, inputs: dict, out: Path, tracer=None) -> dict:
    """The timed closed loop: each call waits for the previous one."""
    out.mkdir()
    calls = []

    def call(kind: str, fn, args: list, ops: int) -> None:
        started = time.perf_counter()
        try:
            code = fn(*args)
        except Exception:  # a crash is a failed call, reported, not fatal
            code = traceback.format_exc()
        calls.append({"kind": kind, "code": code, "wall_s": time.perf_counter() - started, "ops": ops})

    started = time.perf_counter()
    checkpoint = None
    if wl.train is not None:
        call("train", cli.main, [["train", str(inputs["config"]), "--run-dir", str(out / "run")]], wl.planned_episodes)
        checkpoint = out / "run" / "checkpoint.npz"
    if wl.greedy == "net":
        argv = ["eval", str(checkpoint), str(inputs["greedy"]), "--mode", "greedy", "--out", str(out / "greedy.csv")]
        call("greedy", cli.main, [argv], wl.greedy_count)
    else:
        evaluate = nearest_neighbor_eval
        if tracer is not None:
            evaluate = tracer.wrap("session.nearest_neighbor_eval", evaluate)
        call("greedy", evaluate, [inputs["greedy"], out / "greedy.csv"], wl.greedy_count)
    if wl.mcts_count:
        argv = ["eval", str(checkpoint), str(inputs["mcts"]), "--mode", "mcts", "--budget", str(wl.mcts_budget),
                "--m-root", str(wl.mcts_m_root), "--seed", str(seed), "--out", str(out / "mcts.csv")]
        call("mcts", cli.main, [argv], wl.mcts_count)
    ended = time.perf_counter()
    return {"dir": str(out), "start": started, "end": ended, "wall_s": ended - started, "calls": calls}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--mode", choices=("setup", "session"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="session window; 0 runs one session")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload].minimal() if args.smoke else WORKLOADS[args.workload]

    import routezero.cli as cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = set_up(cli, wl, args.seed, args.work)
    report = {"setup_s": time.monotonic() - args.spawned, "env": blas_info(), "sessions": []}

    if args.mode == "session":
        sessions = report["sessions"]
        while True:
            sessions.append(run_session(cli, wl, args.seed, inputs, args.work / f"session{len(sessions)}", tracer))
            used = sum(s["wall_s"] for s in sessions)
            if used + used / len(sessions) > args.seconds:
                break
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write_spans(args.work / "spans.jsonl")
        report["trace"] = {
            "spans": str(args.work / "spans.jsonl"),
            "counts": dict(tracer.counts),
            "skipped": tracer.skipped,
        }
    (args.work / "report.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
