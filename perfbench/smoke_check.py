"""Smoke check of the benchmark itself, at minimal sizes.

    python3 perfbench/smoke_check.py

Runs every workload untraced and traced with ``--smoke`` and asserts that:
the result line names every BENCHMARK.json metric with its unit; the
report names each workload-level metric its workload reports; every
correctness check passed; and the traced self times add up to the
top-level spans, which add up to the traced session wall time.
Exits non-zero on the first failed assertion.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import accounting, read_spans  # noqa: E402

SEED = 7
TOLERANCE = 0.03

# workload-level metrics each workload prints above its result line
REPORTED = {
    "tsp6-desk": ("setup_s", "train_episodes_per_s", "eval_greedy_instances_per_s", "eval_mcts_instances_per_s",
                  "gap_greedy_pct", "gap_mcts_pct", "peak_rss_mb", "failed_ratio"),
    "tsp10-wide": ("setup_s", "train_episodes_per_s", "eval_greedy_instances_per_s", "gap_greedy_pct",
                   "peak_rss_mb", "failed_ratio"),
    "evrp6-eval": ("setup_s", "eval_greedy_instances_per_s", "gap_greedy_pct", "peak_rss_mb", "failed_ratio"),
}


def run(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    return proc.stdout.splitlines()


def check_result(lines: list[str], expected: list[dict], label: str) -> None:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: {[line for line in lines if line.startswith('check failed')]}"
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    names = [m["name"] for m in expected]
    assert list(result["metrics"]) == names, f"{label}: {sorted(set(names) ^ set(result['metrics']))}"
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']} is not a number"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        name = w["name"]
        lines = run(name, 0)
        check_result(lines, bench["end_to_end"], f"{name} trace=0")
        for metric in REPORTED[name]:
            assert any(line.startswith(f"{name} {metric} ") for line in lines), f"{name}: {metric} not printed"
        lines = run(name, 1)
        check_result(lines, bench["per_layer"], f"{name} trace=1")
        record = json.loads((ROOT / ".perfbench_work" / "results" / f"{name}-seed{SEED}-trace1.json").read_text())
        top, accounted = accounting(read_spans(ROOT / record["span_file"]))
        assert abs(top - accounted) <= TOLERANCE * top, f"{name}: self times {accounted} vs top-level {top}"
        acc = record["accounting"]
        assert abs(acc["wall_s"] - acc["top_level_s"]) <= TOLERANCE * acc["wall_s"], f"{name}: {acc}"
        print(f"ok {name}: {len(bench['end_to_end'])} end-to-end and {len(bench['per_layer'])} per-layer metrics; "
              f"session self times {acc['accounted_s']:.3f} s, top-level spans {acc['top_level_s']:.3f} s, "
              f"wall {acc['wall_s']:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
