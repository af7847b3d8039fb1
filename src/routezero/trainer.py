"""Two-stage self-play training loop.

An episode pits a learner against a competitor on one shared instance.  In
stage 1 only the learner searches; the competitor plays greedily, with the
current parameters with probability ``self_play_prob`` and the frozen
historical best otherwise, drawn once per episode.  In stage 2 both sides
search, the competitor guided by the historical-best priors.  The
historical best is replaced only when the current parameters beat it over
a fixed arena set, so the target the learner trains against ratchets
monotonically.

Determinism: every random draw comes from a generator derived from
``(seed, stream, episode)``, so the episode counter is the complete rng
state and a resumed run replays exactly the episodes an uninterrupted run
would have produced.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .baselines import greedy_rollouts
from .env import (
    DeadEndError,
    PlayerState,
    RoutingGame,
    game_outcome,
    legal_actions,
    objective,
)
from .instance import EvrpInstance, Instance, check_fields, generate_evrp, generate_tsp, write_file
from .net import (
    CHECKPOINT_VERSION,
    Adam,
    CheckpointError,
    NetConfig,
    PolicyValueNet,
    StateFeatures,
    check_version,
    checked_array,
    featurize,
    net_from_arrays,
    net_to_arrays,
    read_arrays,
    write_arrays,
)
from .planner import GreedyNetPolicy, NetEvaluator, PlannerConfig, PlannerError, play_seats

METRICS_HEADER = "episode,stage,learner_obj,competitor_obj,z,policy_loss,value_loss,soc_per_customer"

# rng stream tags; the third SeedSequence word is the episode or arena index
_STREAM_EPISODE = 0
_STREAM_INSTANCE = 1
_STREAM_ARENA = 2

_NET_PROBLEMS = {"tsp": "tsp", "dm-evrp": "evrp", "em-evrp": "evrp"}


class TrainerError(RuntimeError):
    """Training-loop failure: an episode that failed, or a run directory that cannot be read or resumed."""


@dataclass(frozen=True)
class TrainConfig:
    problem: str = "tsp"
    n_nodes: int = 6
    n_customers: int = 4
    n_stations: int = 2
    total_episodes: int = 300
    stage_switch: int = 150
    self_play_prob: float = 0.5
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    net: NetConfig | None = None  # None: the default NetConfig of the problem's net layout
    arena_size: int = 32
    arena_interval: int = 50
    policy_buffer_capacity: int = 200_000
    value_buffer_capacity: int = 200_000
    train_steps_per_episode: int = 1
    checkpoint_interval: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.problem not in _NET_PROBLEMS:
            raise ValueError(f"problem must be one of {tuple(_NET_PROBLEMS)}, got {self.problem!r}")
        if not 0.0 <= self.self_play_prob < 1.0:
            raise ValueError("self_play_prob must lie in [0, 1)")
        if not 0 <= self.stage_switch <= self.total_episodes:
            raise ValueError("stage_switch must lie in [0, total_episodes]")
        expected_net = _NET_PROBLEMS[self.problem]
        if self.net is None:
            object.__setattr__(self, "net", NetConfig(problem=expected_net))
        if self.net.problem != expected_net:
            raise ValueError(f"net.problem must be {expected_net!r} for problem {self.problem!r}")
        for name in (
            "total_episodes",
            "arena_size",
            "arena_interval",
            "policy_buffer_capacity",
            "value_buffer_capacity",
            "checkpoint_interval",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.train_steps_per_episode < 0:
            raise ValueError("train_steps_per_episode must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.problem == "tsp" and self.n_nodes < 3:
            raise ValueError("n_nodes must be at least 3")
        if self.problem != "tsp" and (self.n_customers < 1 or self.n_stations < 1):
            raise ValueError("need at least one customer and one station")


def train_config_from_dict(raw) -> TrainConfig:
    """Build a TrainConfig; ValueError names an unknown key or mistyped field, at the top or in ``planner``/``net``."""
    check_fields(TrainConfig, raw, "config")
    data = dict(raw)
    for key, cls in (("planner", PlannerConfig), ("net", NetConfig)):
        if key in data:
            check_fields(cls, data[key], f"{key} config")
            data[key] = cls(**data[key])
    return TrainConfig(**data)


def derived_seed(*key: int) -> int:
    """Stable scalar seed for a tagged stream of the run seed."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def make_instance(cfg: TrainConfig, seed: int) -> Instance:
    if cfg.problem == "tsp":
        return generate_tsp(cfg.n_nodes, seed=seed)
    mode = "DM" if cfg.problem == "dm-evrp" else "EM"
    return generate_evrp(cfg.n_customers, cfg.n_stations, seed=seed, objective_mode=mode)


class _Ring:
    """Fixed-capacity FIFO of rows with one array per column.

    Columns double in length up to ``capacity`` as rows arrive, then wrap:
    logical row i (oldest first) lives in slot ``(write - count + i) % capacity``.
    Subclasses name ``COLUMNS`` and define ``push``, ``sample`` (on themselves,
    where the perfbench tracer wraps them) and ``_check_rows``, shared by push and load.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.columns: dict[str, np.ndarray] = {}
        self.count = 0
        self.write = 0

    def __len__(self) -> int:
        return self.count

    def _append(self, *row: np.ndarray) -> None:
        size = len(self.columns[self.COLUMNS[0]]) if self.columns else 0
        if self.count == size < self.capacity:  # until the first wrap, rows fill slots 0..count-1
            old = self.columns or {k: np.empty((0, *v.shape), v.dtype) for k, v in zip(self.COLUMNS, row)}
            grown = min(self.capacity, max(1, 2 * size))
            self.columns = {k: np.empty((grown, *col.shape[1:]), col.dtype) for k, col in old.items()}
            for k, col in old.items():
                self.columns[k][:size] = col
        for col, value in zip(self.columns.values(), row):
            col[self.write] = value
        self.write = (self.write + 1) % self.capacity
        self.count = min(self.count + 1, self.capacity)

    def _rows(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        slots = (self.write - self.count + rows) % self.capacity
        return {k: col[slots] for k, col in self.columns.items()}

    def _sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray] | None:
        if not self.count:
            return None
        return self._rows(rng.integers(0, self.count, size=batch_size))

    def to_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        rows = self._rows(np.arange(self.count))
        return {f"{prefix}count": np.array(self.count, dtype=np.int64)} | {prefix + k: v for k, v in rows.items()}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], prefix: str, capacity: int):
        """Rebuild from ``to_arrays`` output; ValueError or CheckpointError names a malformed or missing array."""
        buf = cls(capacity)
        count = int(checked_array(arrays, f"{prefix}count", ()))
        if not 0 <= count <= capacity:
            raise ValueError(f"array '{prefix}count' is {count}, outside [0, {capacity}]")
        if count:
            for k in cls.COLUMNS:
                col = checked_array(arrays, prefix + k, None)
                if col.shape[:1] != (count,):
                    raise ValueError(f"array '{prefix}{k}' has shape {col.shape}, expected {count} rows")
                buf.columns[k] = col.copy()
            buf._check_rows(prefix, buf.columns)
        buf.count = count
        buf.write = count % capacity
        return buf


class PolicyBuffer(_Ring):
    """FIFO store of (state features, legal mask, improved policy)."""

    COLUMNS = ("nodes", "globals", "current", "first", "legal", "target")

    def push(self, features: StateFeatures, legal: np.ndarray, target: np.ndarray) -> None:
        legal = np.asarray(legal, dtype=bool)
        target = np.asarray(target, dtype=np.float64)
        self._check_rows("", {"legal": legal[None], "target": target[None]})
        current, first = np.int64(features.current), np.int64(features.first)
        self._append(features.nodes, features.globals_, current, first, legal, target)

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray] | None:
        return self._sample(batch_size, rng)

    def _check_rows(self, prefix: str, rows: dict[str, np.ndarray]) -> None:
        legal, target = rows["legal"], rows["target"]
        if legal.dtype != bool or legal.shape != target.shape:
            raise ValueError(f"array '{prefix}legal' is not a boolean mask shaped like '{prefix}target'")
        if (target < 0).any() or (np.abs(target.sum(axis=-1) - 1.0) > 1e-9).any() or target[~legal].any():
            raise ValueError(f"array '{prefix}target' is not a distribution over legal actions")


class ValueBuffer(_Ring):
    """FIFO store of (own node features, opponent node features, outcome)."""

    COLUMNS = ("own_nodes", "opp_nodes", "z")

    def push(self, own: StateFeatures, opp: StateFeatures, outcome: float) -> None:
        self._check_rows("", {"z": np.float64(outcome)})
        self._append(own.nodes, opp.nodes, np.float64(outcome))

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray] | None:
        return self._sample(batch_size, rng)

    def _check_rows(self, prefix: str, rows: dict[str, np.ndarray]) -> None:
        if (np.abs(rows["z"]) != 1.0).any():
            raise ValueError(f"array '{prefix}z' holds an outcome other than -1 or +1")


@dataclass(frozen=True)
class EpisodeRecord:
    """One episode's results; ``trajs`` and ``objectives`` are (learner's, competitor's).

    ``learner`` is the learner's seat, +1 for slot 0 and -1 for slot 1, so
    ``pair[::learner]`` puts a pair in slot order; ``outcome`` is slot 0's.
    ``telemetry`` holds the episode's counts and seconds keyed by their
    names in the ``episode`` event of ``events.log``: `run_episode` builds
    it from the moves and the greedy adapters, and `train` splices it into
    that event.
    """

    learner: int
    trajs: tuple[tuple[PlayerState, ...], tuple[PlayerState, ...]]
    objectives: tuple[float, float]
    outcome: int
    policy_samples: tuple[tuple[PlayerState, np.ndarray], ...]
    telemetry: dict[str, object]


def stage_gate(episode: int, cfg: TrainConfig) -> int:
    """Stage for a 0-based episode index: 1 before the switch, then 2."""
    return 1 if episode < cfg.stage_switch else 2


def run_episode(
    inst: Instance,
    nets: tuple[PolicyValueNet, PolicyValueNet],
    cfg: TrainConfig,
    stage: int,
    rng: np.random.Generator,
) -> EpisodeRecord:
    """Play one paired episode and collect its training samples.

    The learner seat is drawn uniformly; the opponent model used inside
    the learner's search is the current net with probability
    ``self_play_prob``, otherwise the historical best, and in stage 1 the
    competitor plays that same greedy policy.  Both seats play
    through one ``planner.play_seats``, so within a round neither sees the
    other's move early.  Both seats play to their end; then the first seat
    to dead-end raises a ``DeadEndError`` naming it.  A ``PlannerError``
    from a seat's search is raised naming that seat in the same way.
    """
    theta, theta_best = nets
    learner_seat = 1 if rng.random() < 0.5 else -1
    mu_policy = GreedyNetPolicy(theta if rng.random() < cfg.self_play_prob else theta_best)
    learner = (NetEvaluator(theta), mu_policy)
    competitor = mu_policy if stage == 1 else (NetEvaluator(theta_best, value_net=theta), GreedyNetPolicy(theta))
    greedy = (mu_policy,) if stage == 1 else (mu_policy, competitor[1])
    seats = (learner, competitor)[::learner_seat]  # seat 1 plays slot 0
    moves, ends = play_seats(RoutingGame(inst), seats, cfg.planner, rng)
    names = ["learner seat" if seat is learner else "competitor seat" for seat in seats]
    try:
        ends = dict(ends)  # plays both seats to their ends
    except PlannerError as exc:
        raise PlannerError(f"{names[exc.slot]}: {exc}") from exc
    for slot, end in ends.items():
        if isinstance(end, DeadEndError):
            raise DeadEndError(f"{names[slot]}: {end}")

    slots = (0, 1)[::learner_seat]  # (learner's slot, competitor's slot)
    trajs = tuple(tuple(own for i, own, _, _ in moves if i == slot) + (ends[slot],) for slot in slots)
    objectives = tuple(objective(inst, traj[-1].route) for traj in trajs)
    # per role each move's PlanResult counts (0 for a greedy move); the greedy adapters' counters; the moves' seconds
    telemetry = {
        f"{role}_{key}": [0 if r is None else getattr(r, count) for i, _, r, _ in moves if i == slot]
        for key, count in (("sims", "simulations"), ("evals", "evaluations"))
        for role, slot in zip(("learner", "competitor"), slots)
    }
    telemetry |= {
        "greedy_forwards": sum(policy.forwards for policy in greedy),
        "greedy_memo_hits": sum(policy.memo_hits for policy in greedy),
        "search_s": sum((seconds for _, _, r, seconds in moves if r is not None), 0.0),
        "opponent_s": sum((seconds for _, _, r, seconds in moves if r is None), 0.0),
    }
    return EpisodeRecord(
        learner=learner_seat,
        trajs=trajs,
        objectives=objectives,
        outcome=game_outcome(*(-obj for obj in objectives[::learner_seat])),
        policy_samples=tuple((own, result.improved_policy) for _, own, result, _ in moves if result is not None),
        telemetry=telemetry,
    )


def value_tuples(
    traj_first: tuple[PlayerState, ...],
    traj_second: tuple[PlayerState, ...],
    outcome: int,
) -> list[tuple[PlayerState, PlayerState, float]]:
    """Outcome-labelled state pairs, one family per seat's perspective.

    Pairs are emitted for indices valid in both trajectories.  The first
    family pairs both seats at t; the second pairs the second seat's state
    at t with the first seat's at t+1 (clamped to its terminal state),
    mirroring the asymmetric alignment used for variable-length episodes.
    """
    last_first = len(traj_first) - 1
    shorter = min(len(traj_first), len(traj_second))
    out = []
    for t in range(shorter):
        out.append((traj_first[t], traj_second[t], float(outcome)))
        out.append((traj_second[t], traj_first[min(t + 1, last_first)], float(-outcome)))
    return out


def arena_evaluate(
    theta: PolicyValueNet,
    theta_best: PolicyValueNet,
    arena_instances: list[Instance],
) -> tuple[bool, float, dict[str, int]]:
    """Greedy-rollout showdown on the fixed arena set; returns (update, reward_sum, dead_ends).

    A rollout that ``env.play`` ends in a dead end scores nothing (a greedy
    EVRP net can cycle between recharge points).  reward_sum totals the edge of
    theta over the best on instances both finish; dead_ends counts failed
    rollouts per side.  Update only if theta finishes every instance and
    either reward_sum > 0 or the best dead-ends somewhere.
    """
    best_runs = greedy_rollouts(arena_instances, theta_best)
    theta_runs = greedy_rollouts(arena_instances, theta)
    dead_ends = {
        "theta": sum(isinstance(r, DeadEndError) for r in theta_runs),
        "best": sum(isinstance(r, DeadEndError) for r in best_runs),
    }
    total = 0.0
    for b, t in zip(best_runs, theta_runs):
        if not isinstance(b, DeadEndError) and not isinstance(t, DeadEndError):
            total += b.objective - t.objective
    updated = dead_ends["theta"] == 0 and (total > 0.0 or dead_ends["best"] > 0)
    return updated, total, dead_ends


@dataclass
class TrainerState:
    theta: PolicyValueNet
    theta_best: PolicyValueNet
    policy_buffer: PolicyBuffer
    value_buffer: ValueBuffer
    episode: int
    adam: Adam  # theta's optimizer; the best net is only ever evaluated and has none


def save_checkpoint(path, cfg: TrainConfig, state: TrainerState) -> None:
    """Atomically write the complete trainer state: both nets' weights, theta's Adam moments, both buffers."""
    arrays = {
        "meta/version": np.array(CHECKPOINT_VERSION, dtype=np.int64),
        "meta/episode": np.array(state.episode, dtype=np.int64),
        "meta/config": np.frombuffer(json.dumps(asdict(cfg)).encode(), dtype=np.uint8),
    }
    arrays |= net_to_arrays(state.theta, "theta/")
    arrays |= {f"theta/adam_m/{k}": v for k, v in state.adam.m.items()}
    arrays |= {f"theta/adam_v/{k}": v for k, v in state.adam.v.items()}
    arrays["theta/meta/adam_t"] = np.array(state.adam.t, dtype=np.int64)
    arrays |= net_to_arrays(state.theta_best, "best/")
    arrays |= state.policy_buffer.to_arrays("pol/")
    arrays |= state.value_buffer.to_arrays("val/")
    write_arrays(path, arrays)


def load_checkpoint(path) -> tuple[TrainConfig, TrainerState]:
    """Read a trainer checkpoint; CheckpointError names a bad array, or a net whose config is not the run's."""
    arrays = read_arrays(path)
    try:
        check_version(arrays)
        episode = int(checked_array(arrays, "meta/episode", ()))
        cfg = train_config_from_dict(json.loads(checked_array(arrays, "meta/config", None).tobytes().decode()))
        theta, best = (net_from_arrays(arrays, prefix) for prefix in ("theta/", "best/"))
        for prefix, net in (("theta/", theta), ("best/", best)):
            if net.config != cfg.net:
                difference = _first_difference(net.config, cfg.net, (prefix, "meta/config"))
                raise CheckpointError(f"the {prefix} net does not match the run config: {difference}")
        moments = [
            {k: checked_array(arrays, f"theta/{group}/{k}", p.shape) for k, p in theta.params.items()}
            for group in ("adam_m", "adam_v")
        ]
        state = TrainerState(
            theta=theta,
            theta_best=best,
            policy_buffer=PolicyBuffer.from_arrays(arrays, "pol/", cfg.policy_buffer_capacity),
            value_buffer=ValueBuffer.from_arrays(arrays, "val/", cfg.value_buffer_capacity),
            episode=episode,
            adam=Adam(*moments, int(checked_array(arrays, "theta/meta/adam_t", ()))),
        )
    except (CheckpointError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return cfg, state


def _format_float(x: float) -> str:
    return repr(float(x))


def _append_line(path: Path, line: str) -> None:
    with open(path, "a") as fh:
        fh.write(line + "\n")


def _append_event(path: Path, payload: dict) -> None:
    _append_line(path, json.dumps(payload, separators=(",", ":")))


def _read_lines(path: Path) -> list[str]:
    """The lines of a run log; TrainerError names a missing file."""
    try:
        return path.read_text().splitlines()
    except FileNotFoundError as exc:
        raise TrainerError(f"{path}: {exc.strerror}") from exc


def read_metrics(path: Path, limit: int | None = None) -> list[dict]:
    """The first ``limit`` (default: all) parsed rows of a metrics.csv, each with its ``line``.

    Line 1 must be ``METRICS_HEADER``; TrainerError names the file and line of any other header or a bad row.
    """
    lines = _read_lines(path)
    if lines[:1] != [METRICS_HEADER]:
        raise TrainerError(f"{path}: line 1: expected the header {METRICS_HEADER}")
    width = METRICS_HEADER.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if len(rows) == limit:
            break
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise TrainerError(f"{path}: line {lineno}: {len(cells)} cells, header has {width}")
        episode, stage, learner_obj, competitor_obj, _, _, _, soc = cells
        try:
            rows.append(
                {
                    "episode": int(episode),
                    "stage": int(stage),
                    "learner_obj": float(learner_obj),
                    "competitor_obj": float(competitor_obj),
                    "soc_per_customer": float(soc) if soc else None,
                    "line": line,
                }
            )
        except ValueError as exc:
            raise TrainerError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise TrainerError(f"{path}: no metric rows")
    return rows


def _rewind(metrics_path: Path, events_path: Path, episode: int) -> None:
    """Cut metrics.csv to its first rows, which must be episodes 1..``episode``, and events.log to its lines
    before the first of a later episode, parsing neither further; TrainerError names a missing or damaged file and line.
    """
    rows = read_metrics(metrics_path, episode)
    if [row["episode"] for row in rows] != list(range(1, episode + 1)):
        raise TrainerError(f"{metrics_path}: lacks rows 1..{episode}; the checkpoint is at episode {episode}")
    events = []
    for lineno, line in enumerate(_read_lines(events_path), start=1):
        try:
            if json.loads(line)["episode"] > episode:
                break
        except (ValueError, LookupError, TypeError) as exc:  # a JSONDecodeError is a ValueError
            raise TrainerError(f"{events_path}: line {lineno}: not a JSON event with an episode: {exc}") from exc
        events.append(line + "\n")
    write_file(metrics_path, "\n".join([METRICS_HEADER, *(row["line"] for row in rows)]) + "\n")
    write_file(events_path, "".join(events))


def _first_difference(saved, wanted, sources=("the checkpoint", "this one"), prefix: str = "") -> str:
    """The first field in which two unequal configs differ, dotted when nested, and both values, named by ``sources``."""
    for f in fields(saved):
        old, new = getattr(saved, f.name), getattr(wanted, f.name)
        if old != new and is_dataclass(old):
            return _first_difference(old, new, sources, f"{prefix}{f.name}.")
        if old != new:
            return f"{prefix}{f.name} is {old!r} in {sources[0]}, {new!r} in {sources[1]}"


def train(cfg: TrainConfig, run_dir, resume: bool = False) -> Path:
    """Run the training loop end to end; returns the checkpoint path.

    Artifacts in ``run_dir``: ``config.json`` (resolved config),
    ``metrics.csv`` (one row per episode, deterministic given the seed),
    ``events.log`` (JSON lines: episodes, arena showdowns, checkpoints, a
    self-play dead end; carries wall times, so not byte-stable),
    ``checkpoint.npz``.  A resume needs both logs; it rewinds them to the
    checkpointed episode and replays from there, which reproduces the
    uninterrupted run byte for byte in metrics.csv.  A fresh run refuses a
    ``run_dir`` that holds any of these files, with a ValueError naming it.
    """
    run_dir = Path(run_dir)
    metrics_path = run_dir / "metrics.csv"
    events_path = run_dir / "events.log"
    ckpt_path = run_dir / "checkpoint.npz"
    if not resume:
        for path in (run_dir / "config.json", metrics_path, events_path, ckpt_path):
            if path.exists():
                raise ValueError(
                    f"{path} exists: the run directory holds a run; resume it with --resume or choose another --run-dir"
                )
    run_dir.mkdir(parents=True, exist_ok=True)

    if resume:
        if not ckpt_path.exists():
            raise TrainerError(f"{ckpt_path}: no checkpoint to resume from")
        saved_cfg, state = load_checkpoint(ckpt_path)
        if saved_cfg != cfg:
            difference = _first_difference(saved_cfg, cfg)
            raise TrainerError(f"{ckpt_path}: checkpoint was produced by a different config: {difference}")
        _rewind(metrics_path, events_path, state.episode)
        _append_event(events_path, {"event": "resume", "episode": state.episode})
    else:
        theta = PolicyValueNet.create(cfg.net, seed=cfg.seed)
        state = TrainerState(
            theta=theta,
            theta_best=theta.copy(),
            policy_buffer=PolicyBuffer(cfg.policy_buffer_capacity),
            value_buffer=ValueBuffer(cfg.value_buffer_capacity),
            episode=0,
            adam=Adam.zeros(theta.params),
        )
        write_file(run_dir / "config.json", json.dumps(asdict(cfg), indent=2) + "\n")
        write_file(metrics_path, METRICS_HEADER + "\n")
        write_file(events_path, "")

    arena_set = [make_instance(cfg, derived_seed(cfg.seed, _STREAM_ARENA, k)) for k in range(cfg.arena_size)]

    for episode in range(state.episode, cfg.total_episodes):
        stage = stage_gate(episode, cfg)
        inst_seed = derived_seed(cfg.seed, _STREAM_INSTANCE, episode)
        inst = make_instance(cfg, inst_seed)
        rng = np.random.default_rng([cfg.seed, _STREAM_EPISODE, episode])
        started = time.perf_counter()
        try:
            record = run_episode(inst, (state.theta, state.theta_best), cfg, stage, rng)
            play_s = time.perf_counter() - started
        except (PlannerError, DeadEndError) as exc:
            kind = "dead_end" if isinstance(exc, DeadEndError) else "planner_error"
            _append_event(events_path, {"event": kind, "episode": episode + 1, "instance_seed": inst_seed, "error": str(exc)})
            raise TrainerError(f"episode {episode + 1} (instance seed {inst_seed}): {exc}") from exc

        for played_state, improved in record.policy_samples:
            state.policy_buffer.push(featurize(played_state), legal_actions(played_state), improved)
        for own, opp, label in value_tuples(*record.trajs[::record.learner], record.outcome):
            state.value_buffer.push(featurize(own), featurize(opp), label)

        policy_losses = []
        value_losses = []
        train_start = time.perf_counter()
        for _ in range(cfg.train_steps_per_episode):
            policy_batch = state.policy_buffer.sample(cfg.net.batch_size, rng)
            value_batch = state.value_buffer.sample(cfg.net.batch_size, rng)
            p_loss, v_loss = state.theta.train_step(policy_batch, value_batch, state.adam)
            policy_losses.append(p_loss)
            value_losses.append(v_loss)
        train_s = time.perf_counter() - train_start
        p_mean = float(np.mean(policy_losses)) if policy_losses else 0.0
        v_mean = float(np.mean(value_losses)) if value_losses else 0.0

        if (episode + 1) % cfg.arena_interval == 0:
            arena_start = time.perf_counter()
            updated, reward_sum, dead_ends = arena_evaluate(state.theta, state.theta_best, arena_set)
            arena_s = time.perf_counter() - arena_start
            if updated:
                state.theta_best = state.theta.copy()
            _append_event(
                events_path,
                {
                    "event": "arena",
                    "episode": episode + 1,
                    "reward_sum": reward_sum,
                    "updated": updated,
                    "dead_ends": dead_ends,
                    "arena_s": arena_s,
                },
            )

        if isinstance(inst, EvrpInstance):
            soc = _format_float(record.trajs[0][-1].energy_kwh / inst.n_customers)
        else:
            soc = ""
        _append_line(
            metrics_path,
            ",".join(
                (
                    str(episode + 1),
                    str(stage),
                    _format_float(record.objectives[0]),
                    _format_float(record.objectives[1]),
                    str(record.outcome),
                    _format_float(p_mean),
                    _format_float(v_mean),
                    soc,
                )
            ),
        )
        _append_event(
            events_path,
            {
                "event": "episode",
                "episode": episode + 1,
                "stage": stage,
                "learner": record.learner,
                "instance_seed": inst_seed,
                "z": record.outcome,
                **record.telemetry,
                "play_s": play_s,
                "train_s": train_s,
                "wall_time_s": time.perf_counter() - started,
            },
        )

        state.episode = episode + 1
        if state.episode % cfg.checkpoint_interval == 0 or state.episode == cfg.total_episodes:
            checkpoint_start = time.perf_counter()
            save_checkpoint(ckpt_path, cfg, state)
            checkpoint_s = time.perf_counter() - checkpoint_start
            _append_event(events_path, {"event": "checkpoint", "episode": state.episode, "checkpoint_s": checkpoint_s})

    return ckpt_path
