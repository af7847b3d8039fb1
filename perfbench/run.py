"""routezero benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload tsp6-desk --seed 0 --seconds 36 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
run starts fresh child processes (``session.py``) with BLAS pinned to one
thread, checks every output they wrote, prints a report and, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, from a
traced session compared against an untraced one.  ``--smoke`` shrinks every
workload to minimal sizes for checking the benchmark itself.

Scratch files go to ``.perfbench_work/`` under the repository root.  It
keeps a ledger of output hashes per workload, seed and source digest, so
every run of one seed on one source tree must reproduce the same files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import accounting, layer_metrics, layer_table, read_spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; the median is reported
RUN_DEADLINE_S = 170.0
OBJECTIVE_TOLERANCE = 1e-9
ACCOUNTING_TOLERANCE = 0.03
# workload-level metrics printed above the result line, where the workload has them
DETAIL_UNITS = {
    "setup_s": "s",
    "train_episodes_per_s": "1/s",
    "eval_greedy_instances_per_s": "1/s",
    "eval_mcts_instances_per_s": "1/s",
    "gap_greedy_pct": "%",
    "gap_mcts_pct": "%",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def source_digest(root: Path) -> str:
    """Digest of the package and benchmark sources that decide the outputs."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src" / "routezero").glob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() or "unknown"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, work: Path, mode: str, deadline: float, seconds: float, trace: bool = False) -> dict:
    """Run one child to completion and return its report."""
    work.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--work", str(work),
        "--mode", mode, "--seconds", str(seconds),
    ]
    if trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    with open(work / "child.log", "w") as log:
        cmd += ["--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=child_env(args.root), stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = (work / "child.log").read_text()[-2000:]
        raise BenchError(f"{mode} child exited with {proc.returncode}:\n{tail}")
    return json.loads((work / "report.json").read_text())


def read_rows(path: Path) -> dict[str, dict]:
    if not path.exists():
        return {}
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return {row["instance"]: row for row in (dict(zip(header, line.split(","))) for line in lines[1:] if line)}


def check_eval(rows: dict[str, dict], instances: Path, problems: list[str], label: str) -> dict:
    """Failed instances and mean optimality gap of one eval call."""
    failed = 0
    gaps = []
    for path in sorted(instances.glob("*.json")):
        row = rows.get(path.name)
        if row is None:
            failed += 1
            continue
        if row["feasible"] != "True":
            failed += 1
            problems.append(f"{label}: infeasible route for {path.name}")
            continue
        if not row["oracle"]:
            problems.append(f"{label}: no oracle for {path.name}")
            continue
        obj, oracle = float(row["objective"]), float(row["oracle"])
        if obj < oracle - OBJECTIVE_TOLERANCE:
            problems.append(f"{label}: objective {obj!r} below oracle {oracle!r} for {path.name}")
        gaps.append(float(row["gap_pct"]))
    return {"failed": failed, "gap_pct": statistics.fmean(gaps) if gaps else 0.0}


def check_session(wl: Workload, work: Path, session: dict, problems: list[str]) -> dict:
    """Per-session op counts, rates and quality, from the files it wrote."""
    out = Path(session["dir"])
    calls = {c["kind"]: c for c in session["calls"]}
    for c in session["calls"]:
        if c["code"] != 0:
            print(f"perfbench: routezero {c['kind']} call returned {c['code']}", file=sys.stderr)
    result = {"wall_s": session["wall_s"], "calls": session["calls"], "attempted": 0, "failed": 0, "hashes": {}}
    if "train" in calls:
        metrics = out / "run" / "metrics.csv"
        done = len(metrics.read_text().splitlines()) - 1 if metrics.exists() else 0
        result["attempted"] += wl.planned_episodes
        result["failed"] += wl.planned_episodes - done
        result["train_episodes_per_s"] = done / calls["train"]["wall_s"]
        if metrics.exists():
            result["hashes"]["metrics.csv"] = hashlib.sha256(metrics.read_bytes()).hexdigest()
    for kind in ("greedy", "mcts"):
        if kind not in calls:
            continue
        csv = out / f"{kind}.csv"
        checked = check_eval(read_rows(csv), work / f"{kind}_instances", problems, f"{kind} eval")
        result["attempted"] += calls[kind]["ops"]
        result["failed"] += checked["failed"]
        result[f"eval_{kind}_instances_per_s"] = calls[kind]["ops"] / calls[kind]["wall_s"]
        result[f"gap_{kind}_pct"] = checked["gap_pct"]
        if csv.exists():
            result["hashes"][csv.name] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return result


def check_ledger(args, hashes: dict, problems: list[str]) -> None:
    """Every run of one workload, seed and source tree must write the same files."""
    ledger_path = args.root / ".perfbench_work" / "ledger.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{args.workload}|seed={args.seed}|smoke={args.smoke}|src={source_digest(args.root)}"
    known = ledger.setdefault(key, {})
    for name, digest in hashes.items():
        if known.setdefault(name, digest) != digest:
            problems.append(f"{name} differs from an earlier run of this seed")
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def same_outputs(checked: list[dict], problems: list[str]) -> dict:
    first = checked[0]["hashes"]
    for other in checked[1:]:
        for name, digest in other["hashes"].items():
            if first.get(name) != digest:
                problems.append(f"{name} differs between sessions of one run")
    return first


def timed_run(args, wl: Workload, work: Path, deadline: float) -> dict:
    def setup_only(k: int) -> float:
        return spawn(args, work / f"setup{k}", "setup", deadline, 0)["setup_s"]

    # set-up samples before and after the sessions, so one slow stretch of the host moves only some of them
    setups = [setup_only(k) for k in range(SETUP_SAMPLES // 2)]
    report = spawn(args, work / "main", "session", deadline, args.seconds)
    setups += [report["setup_s"]] + [setup_only(k) for k in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
    problems: list[str] = []
    checked = [check_session(wl, work / "main", s, problems) for s in report["sessions"]]
    check_ledger(args, same_outputs(checked, problems), problems)

    def median(key: str) -> float:
        return statistics.median(c[key] for c in checked)

    attempted = sum(c["attempted"] for c in checked)
    failed = sum(c["failed"] for c in checked)
    metrics = {
        "setup_s": statistics.median(setups),
        "session_s": median("wall_s"),
        "eval_greedy_instances_per_s": median("eval_greedy_instances_per_s"),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    detail = {"setup_s": metrics["setup_s"]}
    for key in ("train_episodes_per_s", "eval_greedy_instances_per_s", "eval_mcts_instances_per_s",
                "gap_greedy_pct", "gap_mcts_pct"):
        if key in checked[0]:
            detail[key] = median(key)
    detail["peak_rss_mb"] = report["peak_rss_mb"]
    detail["failed_ratio"] = failed / attempted
    return {
        "problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics,
        "detail": detail, "setup_samples": setups, "env": report["env"],
        "sessions": [{k: v for k, v in c.items() if k != "hashes"} for c in checked],
    }


def traced_run(args, wl: Workload, work: Path, deadline: float) -> dict:
    # one session per child (a window of 0 s); untraced before and after, so drift of the host cancels
    plain = [spawn(args, work / "plain0", "session", deadline, 0)]
    traced = spawn(args, work / "traced", "session", deadline, 0, trace=True)
    plain.append(spawn(args, work / "plain1", "session", deadline, 0))
    problems: list[str] = []
    traced_check = check_session(wl, work / "traced", traced["sessions"][0], problems)
    for k, report in enumerate(plain):
        if check_session(wl, work / f"plain{k}", report["sessions"][0], problems)["hashes"] != traced_check["hashes"]:
            problems.append("traced outputs differ from untraced outputs")
    check_ledger(args, traced_check["hashes"], problems)

    trace = traced["trace"]
    spans = read_spans(trace["spans"])
    session = traced["sessions"][0]
    in_session = [s for s in spans if s[3] >= session["start"] and s[4] <= session["end"]]
    top, accounted = accounting(in_session)
    if abs(top - accounted) > ACCOUNTING_TOLERANCE * top or abs(session["wall_s"] - top) > ACCOUNTING_TOLERANCE * top:
        problems.append(f"self times do not add up: top-level {top:.3f} s, accounted {accounted:.3f} s, "
                        f"wall {session['wall_s']:.3f} s")
    keep = args.root / ".perfbench_work" / "traces"
    keep.mkdir(parents=True, exist_ok=True)
    span_file = keep / f"{args.workload}-seed{args.seed}.spans.jsonl"
    shutil.copyfile(trace["spans"], span_file)

    untraced = statistics.fmean(report["sessions"][0]["wall_s"] for report in plain)
    metrics = layer_metrics(spans, trace["counts"])
    metrics["trace.overhead_s"] = session["wall_s"] - untraced
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / untraced
    metrics["trace.skipped_wrappers"] = len(trace["skipped"])
    return {
        "problems": problems, "attempted": traced_check["attempted"], "failed": traced_check["failed"],
        "metrics": metrics, "env": traced["env"], "span_file": str(span_file.relative_to(args.root)),
        "skipped": trace["skipped"],
        "layers": dict(sorted(layer_table(spans).items(), key=lambda kv: -kv[1]["self_s"])),
        "accounting": {"top_level_s": top, "accounted_s": accounted, "wall_s": session["wall_s"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes, for checking the benchmark")
    args = parser.parse_args(argv)
    args.root = Path.cwd()
    if not (args.root / "src" / "routezero" / "cli.py").is_file() or not (args.root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root; src/routezero or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload].minimal() if args.smoke else WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = args.root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        run = (traced_run if args.trace else timed_run)(args, wl, work, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = json.loads((args.root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    run["env"]["git_sha"] = git_sha(args.root)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}" + (" smoke" if args.smoke else ""))
    print("env " + json.dumps(run["env"], sort_keys=True))
    if args.trace:
        print("layers (calls, inclusive s, self s) " + json.dumps(run["layers"]))
        print(f"spans written to {run['span_file']}; skipped wrappers: {run['skipped'] or 'none'}")
    else:
        print(f"sessions {len(run['sessions'])}, set-up samples {run['setup_samples']}")
        for name, value in run["detail"].items():
            print(f"{args.workload} {name} {value!r} {DETAIL_UNITS[name]}")
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    results = args.root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {k: v for k, v in run.items() if k != "layers"}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
