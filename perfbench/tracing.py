"""Span tracing of the routezero layers, installed from outside the package.

``Tracer.install()`` replaces the public functions and methods listed in
``SPECS`` with wrappers that record one span per call: id, layer name,
parent span id, start, end and thread.  A module-level function is replaced
in every ``routezero`` module that bound it by name (``from .planner import
plan`` makes a second binding), so each call is recorded exactly once.
Names that do not exist in the installed package are skipped and listed,
so the benchmark keeps running when an entry point is renamed or merged.

Spans stay in memory until ``write_spans``.  ``layer_metrics`` turns them
into the per-layer metrics: call counts, inclusive and self seconds (self
= duration minus the part of it that child spans cover), and the counters
the wrappers read from public return values.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# (layer span name, module, attribute); "Class.method" names a method.
SPECS = (
    ("cli.main", "routezero.cli", "main"),
    ("cli.gen", "routezero.cli", "cmd_gen"),
    ("cli.train", "routezero.cli", "cmd_train"),
    ("cli.eval", "routezero.cli", "cmd_eval"),
    ("instance.generate", "routezero.instance", "generate_tsp"),
    ("instance.generate", "routezero.instance", "generate_evrp"),
    ("instance.load", "routezero.instance", "load_instance"),
    ("env.legal_actions", "routezero.env", "legal_actions"),
    ("env.step", "routezero.env", "step"),
    ("net.featurize", "routezero.net", "featurize"),
    ("net.forward", "routezero.net", "PolicyValueNet.forward"),
    ("net.forward", "routezero.net", "PolicyValueNet.encode"),
    ("net.forward", "routezero.net", "PolicyValueNet.policy_logits"),
    ("net.forward", "routezero.net", "PolicyValueNet.value"),
    ("net.forward", "routezero.net", "PolicyValueNet.evaluate"),
    ("net.train_step", "routezero.net", "PolicyValueNet.train_step"),
    ("autodiff.backward", "routezero.autodiff", "Tensor.backward"),
    ("planner.plan", "routezero.planner", "plan"),
    ("planner.opponent", "routezero.planner", "GreedyNetPolicy.__call__"),
    ("planner.evaluator", "routezero.planner", "NetEvaluator.__call__"),
    ("baselines.greedy_rollout", "routezero.baselines", "greedy_rollout"),
    ("baselines.exact_tsp", "routezero.baselines", "exact_tsp"),
    ("baselines.exact_evrp", "routezero.baselines", "exact_evrp"),
    ("baselines.nearest_neighbor", "routezero.baselines", "nearest_neighbor"),
    ("trainer.run_episode", "routezero.trainer", "run_episode"),
    ("trainer.buffer_push", "routezero.trainer", "PolicyBuffer.push"),
    ("trainer.buffer_push", "routezero.trainer", "ValueBuffer.push"),
    ("trainer.buffer_sample", "routezero.trainer", "PolicyBuffer.sample"),
    ("trainer.buffer_sample", "routezero.trainer", "ValueBuffer.sample"),
    ("trainer.arena", "routezero.trainer", "arena_evaluate"),
    ("trainer.checkpoint_save", "routezero.trainer", "save_checkpoint"),
    ("trainer.checkpoint_load", "routezero.trainer", "load_checkpoint"),
)


def _states_in(args) -> int:
    """Number of states one inference call carries, whatever its signature."""
    n = 0
    for a in args:
        nodes = a.get("nodes") if isinstance(a, dict) else getattr(a, "nodes", None)
        shape = getattr(nodes, "shape", ())
        if len(shape) == 2:
            n += 1
        elif len(shape) == 3:
            n += shape[0]
    return n


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent, start, end, thread)
        self.counts: Counter = Counter()
        self.skipped: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = self._stack()
        self._plan_seen: dict[int, set] = {}  # open plan span id -> opponent routes seen
        self._before = {
            "planner.plan": self._plan_enter,
            "planner.opponent": self._opponent_enter,
            "net.forward": self._forward_enter,
        }
        self._after = {
            "planner.plan": self._plan_exit,
            "baselines.exact_evrp": self._exact_evrp_exit,
            "trainer.checkpoint_save": self._checkpoint_save_exit,
        }

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, **amounts) -> None:
        with self._lock:
            self.counts.update(amounts)

    def wrap(self, name: str, fn):
        before = self._before.get(name)
        after = self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs under the main thread's open span
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = [next(self._ids), name, parent[0] if parent else None, time.perf_counter(), None, None]
            stack.append(span)
            if before:
                before(span, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                span[5] = threading.get_ident()
                self.spans.append(tuple(span))
            if after:
                after(span, args, result)
            return result

        return traced

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n == "routezero" or n.startswith("routezero.")]
        for name, module_name, attr in SPECS:
            owner = sys.modules.get(module_name)
            cls_name, _, method = attr.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            fn = vars(holder).get(method) if holder is not None else None
            if fn is None:
                self.skipped.append(f"{module_name}.{attr}")
            elif cls_name:
                setattr(holder, method, self.wrap(name, fn))
            else:
                wrapper = self.wrap(name, fn)
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)

    # Counters read at layer boundaries.  Opponent moves are keyed by the
    # opponent's route, which fixes its state within one plan() call.

    def _plan_enter(self, span, args):
        self._plan_seen[span[0]] = set()

    def _plan_exit(self, span, args, result):
        seen = self._plan_seen.pop(span[0])
        self._count(plan_evaluations=result.evaluations, plan_simulations=result.simulations, plan_opp_unique=len(seen))

    def _opponent_enter(self, span, args):
        plan = next((s for s in reversed(self._stack()) if s[1] == "planner.plan"), None)
        if plan is not None:
            self._plan_seen[plan[0]].add(tuple(args[1].route))
            self._count(plan_opp_calls=1)

    def _forward_enter(self, span, args):
        self._count(forward_states=_states_in(args[1:]))

    def _exact_evrp_exit(self, span, args, result):
        self._count(exact_evrp_expansions=result.expansions)

    def _checkpoint_save_exit(self, span, args, result):
        with self._lock:
            self.counts["checkpoint_bytes"] = os.path.getsize(args[0])

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def read_spans(path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for sid, _, parent, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children[sid], start, end) for sid, _, _, start, end, _ in spans}


def accounting(spans: list[tuple]) -> tuple[float, float]:
    """(sum of top-level span durations, self time accounted under them).

    Top-level spans run in the main thread.  The self times of the main
    thread's spans, plus the time that worker-thread spans cover inside
    them, must add up to the top-level durations; a span that outlives its
    parent or an interval counted twice breaks the sum.
    """
    top_spans = [s for s in spans if s[2] is None]
    if not top_spans:
        return 0.0, 0.0
    main_thread = top_spans[0][5]
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    worker_cover = defaultdict(list)
    accounted = 0.0
    for sid, _, parent, start, end, tid in spans:
        if tid == main_thread:
            accounted += selfs[sid]
        elif parent in by_id and by_id[parent][5] == main_thread:
            worker_cover[parent].append((start, end))
    accounted += sum(_covered(iv, by_id[p][3], by_id[p][4]) for p, iv in worker_cover.items())
    return sum(end - start for _, _, _, start, end, _ in top_spans), accounted


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_table(spans: list[tuple]) -> dict[str, dict]:
    """Calls, inclusive seconds and self seconds per layer span name."""
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, name, _, start, end, _ in spans:
        row = table[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += selfs[sid]
    return table


def layer_metrics(spans: list[tuple], counts: dict) -> dict[str, float]:
    """Per-layer metrics from spans and boundary counters (trace.* excluded)."""
    table = layer_table(spans)  # absent layers read as zero rows

    def calls(name: str) -> int:
        return table[name]["calls"]

    def incl(name: str) -> float:
        return table[name]["s"]

    def excl(name: str) -> float:
        return table[name]["self_s"]

    episodes = [end - start for _, name, _, start, end, _ in spans if name == "trainer.run_episode"]

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "planner.plan.calls": calls("planner.plan"),
        "planner.plan.self_s": excl("planner.plan"),
        "planner.evaluations_per_plan": per(counts.get("plan_evaluations", 0), calls("planner.plan")),
        "planner.simulations_per_plan": per(counts.get("plan_simulations", 0), calls("planner.plan")),
        "planner.opponent.calls": calls("planner.opponent"),
        "planner.opponent.s": incl("planner.opponent"),
        "planner.opponent_unique_ratio": per(counts.get("plan_opp_unique", 0), counts.get("plan_opp_calls", 0)),
        "planner.evaluator.calls": calls("planner.evaluator"),
        "planner.evaluator.s": incl("planner.evaluator"),
        "net.forward.calls": calls("net.forward"),
        "net.forward.self_s": excl("net.forward"),
        "net.forward.states_per_call": per(counts.get("forward_states", 0), calls("net.forward")),
        "net.featurize.calls": calls("net.featurize"),
        "net.featurize.self_s": excl("net.featurize"),
        "net.train_step.calls": calls("net.train_step"),
        "net.train_step.self_s": excl("net.train_step"),
        "autodiff.backward.s": incl("autodiff.backward"),
        "trainer.run_episode.calls": calls("trainer.run_episode"),
        "trainer.run_episode.p50_s": _quantile(episodes, 0.5),
        "trainer.run_episode.p90_s": _quantile(episodes, 0.9),
        "trainer.buffer_push.s": incl("trainer.buffer_push"),
        "trainer.buffer_sample.s": incl("trainer.buffer_sample"),
        "trainer.arena.s": incl("trainer.arena"),
        "baselines.greedy_rollout.calls": calls("baselines.greedy_rollout"),
        "baselines.greedy_rollout.s": incl("baselines.greedy_rollout"),
        "trainer.checkpoint_save.s": incl("trainer.checkpoint_save"),
        "trainer.checkpoint_bytes": counts.get("checkpoint_bytes", 0),
        "trainer.checkpoint_load.s": incl("trainer.checkpoint_load"),
        "env.legal_actions.calls": calls("env.legal_actions"),
        "env.legal_actions.self_s": excl("env.legal_actions"),
        "env.step.calls": calls("env.step"),
        "env.step.self_s": excl("env.step"),
        "env.legal_actions_per_step": per(calls("env.legal_actions"), calls("env.step")),
        "baselines.exact_evrp.s": incl("baselines.exact_evrp"),
        "baselines.exact_evrp.expansions": counts.get("exact_evrp_expansions", 0),
        "baselines.exact_tsp.s": incl("baselines.exact_tsp"),
        "cli.eval.s": incl("cli.eval"),
        "cli.train.s": incl("cli.train"),
        "instance.generate.s": incl("instance.generate"),
        "instance.load.s": incl("instance.load"),
    }
