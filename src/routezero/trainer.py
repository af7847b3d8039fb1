"""Two-stage self-play training loop.

An episode pits a learner against a competitor on one shared instance.  In
stage 1 only the learner searches; the competitor plays the frozen
historical-best policy greedily.  In stage 2 both sides search, the
competitor guided by the historical-best priors.  The historical best is
replaced only when the current parameters beat it over a fixed arena set,
so the target the learner trains against ratchets monotonically.

Determinism: every random draw comes from a generator derived from
``(seed, stream, episode)``, so the episode counter is the complete rng
state and a resumed run replays exactly the episodes an uninterrupted run
would have produced.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .baselines import greedy_rollout
from .env import (
    DeadEndError,
    PlayerState,
    RoutingGame,
    game_outcome,
    legal_actions,
    objective,
    step_limit,
)
from .instance import EvrpInstance, Instance, generate_evrp, generate_tsp
from .net import (
    CheckpointError,
    NetConfig,
    PolicyValueNet,
    StateFeatures,
    featurize,
    net_from_arrays,
    net_to_arrays,
    read_arrays,
    stack_features,
    write_arrays,
)
from .planner import GreedyNetPolicy, NetEvaluator, PlannerConfig, PlannerError, plan

TRAINER_CHECKPOINT_VERSION = 1

METRICS_HEADER = "episode,stage,learner_obj,competitor_obj,z,policy_loss,value_loss,soc_per_customer"

# rng stream tags; the third SeedSequence word is the episode or arena index
_STREAM_EPISODE = 0
_STREAM_INSTANCE = 1
_STREAM_ARENA = 2

_PROBLEMS = ("tsp", "dm-evrp", "em-evrp")


class TrainerError(RuntimeError):
    """Training-loop failure with episode context."""


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
    net: NetConfig = field(default_factory=lambda: NetConfig(problem="tsp"))
    arena_size: int = 32
    arena_interval: int = 50
    policy_buffer_capacity: int = 200_000
    value_buffer_capacity: int = 200_000
    train_steps_per_episode: int = 1
    checkpoint_interval: int = 50
    value_pair_offset: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.problem not in _PROBLEMS:
            raise ValueError(f"problem must be one of {_PROBLEMS}, got {self.problem!r}")
        if not 0.0 <= self.self_play_prob < 1.0:
            raise ValueError("self_play_prob must lie in [0, 1)")
        if not 0 <= self.stage_switch <= self.total_episodes:
            raise ValueError("stage_switch must lie in [0, total_episodes]")
        expected_net = "tsp" if self.problem == "tsp" else "evrp"
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
        if self.problem == "tsp" and self.n_nodes < 2:
            raise ValueError("n_nodes must be at least 2")
        if self.problem != "tsp" and (self.n_customers < 1 or self.n_stations < 0):
            raise ValueError("need at least one customer and nonnegative stations")


def train_config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


def train_config_from_dict(raw: dict) -> TrainConfig:
    data = dict(raw)
    allowed = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    try:
        if "planner" in data:
            data["planner"] = PlannerConfig(**data["planner"])
        if "net" in data:
            data["net"] = NetConfig(**data["net"])
        elif "problem" in data:
            data["net"] = NetConfig(problem="tsp" if data["problem"] == "tsp" else "evrp")
        return TrainConfig(**data)
    except TypeError as exc:
        raise ValueError(f"bad config: {exc}") from exc


def derived_seed(*key: int) -> int:
    """Stable scalar seed for a tagged stream of the run seed."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def make_instance(cfg: TrainConfig, seed: int) -> Instance:
    if cfg.problem == "tsp":
        return generate_tsp(cfg.n_nodes, seed=seed)
    mode = "DM" if cfg.problem == "dm-evrp" else "EM"
    return generate_evrp(cfg.n_customers, cfg.n_stations, seed=seed, objective_mode=mode)


class PolicyBuffer:
    """FIFO store of (state features, legal mask, improved policy)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, features: StateFeatures, legal: np.ndarray, target: np.ndarray) -> None:
        legal = np.asarray(legal, dtype=bool)
        target = np.asarray(target, dtype=np.float64)
        if target.shape != legal.shape:
            raise ValueError("policy target and legal mask shapes differ")
        if (target < 0).any() or abs(float(target.sum()) - 1.0) > 1e-9 or target[~legal].any():
            raise ValueError("policy target is not a distribution over legal actions")
        self.entries.append((features, legal.copy(), target.copy()))

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray] | None:
        if not self.entries:
            return None
        idx = rng.integers(0, len(self.entries), size=batch_size)
        picked = [self.entries[i] for i in idx]
        batch = stack_features([p[0] for p in picked])
        batch["legal"] = np.stack([p[1] for p in picked])
        batch["target"] = np.stack([p[2] for p in picked])
        assert not batch["target"][~batch["legal"]].any()
        return batch

    def to_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        out = {f"{prefix}count": np.array(len(self.entries), dtype=np.int64)}
        if self.entries:
            out[f"{prefix}nodes"] = np.stack([f.nodes for f, _, _ in self.entries])
            out[f"{prefix}globals"] = np.stack([f.globals_ for f, _, _ in self.entries])
            out[f"{prefix}current"] = np.array([f.current for f, _, _ in self.entries], dtype=np.int64)
            out[f"{prefix}first"] = np.array([f.first for f, _, _ in self.entries], dtype=np.int64)
            out[f"{prefix}legal"] = np.stack([m for _, m, _ in self.entries])
            out[f"{prefix}target"] = np.stack([t for _, _, t in self.entries])
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], prefix: str, capacity: int) -> "PolicyBuffer":
        buf = cls(capacity)
        for i in range(int(arrays[f"{prefix}count"])):
            feats = StateFeatures(
                arrays[f"{prefix}nodes"][i],
                arrays[f"{prefix}globals"][i],
                int(arrays[f"{prefix}current"][i]),
                int(arrays[f"{prefix}first"][i]),
            )
            buf.push(feats, arrays[f"{prefix}legal"][i], arrays[f"{prefix}target"][i])
        return buf


class ValueBuffer:
    """FIFO store of (own features, opponent features, outcome) triples."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, own: StateFeatures, opp: StateFeatures, outcome: float) -> None:
        if outcome not in (-1.0, 1.0):
            raise ValueError(f"outcome must be -1 or +1, got {outcome}")
        self.entries.append((own, opp, float(outcome)))

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray] | None:
        if not self.entries:
            return None
        idx = rng.integers(0, len(self.entries), size=batch_size)
        picked = [self.entries[i] for i in idx]
        return {
            "own_nodes": np.stack([p[0].nodes for p in picked]),
            "opp_nodes": np.stack([p[1].nodes for p in picked]),
            "z": np.array([p[2] for p in picked]),
        }

    def to_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        out = {f"{prefix}count": np.array(len(self.entries), dtype=np.int64)}
        if self.entries:
            for side, pos in (("own", 0), ("opp", 1)):
                out[f"{prefix}{side}_nodes"] = np.stack([e[pos].nodes for e in self.entries])
                out[f"{prefix}{side}_globals"] = np.stack([e[pos].globals_ for e in self.entries])
                out[f"{prefix}{side}_current"] = np.array([e[pos].current for e in self.entries], dtype=np.int64)
                out[f"{prefix}{side}_first"] = np.array([e[pos].first for e in self.entries], dtype=np.int64)
            out[f"{prefix}z"] = np.array([e[2] for e in self.entries])
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], prefix: str, capacity: int) -> "ValueBuffer":
        buf = cls(capacity)
        for i in range(int(arrays[f"{prefix}count"])):
            sides = []
            for side in ("own", "opp"):
                sides.append(
                    StateFeatures(
                        arrays[f"{prefix}{side}_nodes"][i],
                        arrays[f"{prefix}{side}_globals"][i],
                        int(arrays[f"{prefix}{side}_current"][i]),
                        int(arrays[f"{prefix}{side}_first"][i]),
                    )
                )
            buf.push(sides[0], sides[1], float(arrays[f"{prefix}z"][i]))
        return buf


@dataclass(frozen=True)
class EpisodeRecord:
    instance_seed: int
    learner: int
    traj_first: tuple[PlayerState, ...]
    traj_second: tuple[PlayerState, ...]
    outcome: int
    objective_first: float
    objective_second: float
    stage: int
    policy_samples: tuple[tuple[PlayerState, np.ndarray], ...]
    sims_first: tuple[int, ...]
    sims_second: tuple[int, ...]

    @property
    def learner_objective(self) -> float:
        return self.objective_first if self.learner == 1 else self.objective_second

    @property
    def competitor_objective(self) -> float:
        return self.objective_second if self.learner == 1 else self.objective_first


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
    ``self_play_prob``, otherwise the historical best.  Both seats act on
    states frozen at the top of the round, so within a round neither sees
    the other's move early.
    """
    theta, theta_best = nets
    game = RoutingGame(inst)
    learner_seat = 1 if rng.random() < 0.5 else -1
    mu_net = theta if rng.random() < cfg.self_play_prob else theta_best

    mu_policy = GreedyNetPolicy(mu_net, game)
    learner_eval = NetEvaluator(theta, game)
    competitor_eval = NetEvaluator(theta_best, game, value_net=theta)
    competitor_opp_model = GreedyNetPolicy(theta, game)

    states = {1: game.initial_state(), -1: game.initial_state()}
    trajs: dict[int, list[PlayerState]] = {1: [states[1]], -1: [states[-1]]}
    sims: dict[int, list[int]] = {1: [], -1: []}
    samples: list[tuple[PlayerState, np.ndarray]] = []

    rounds = 0
    cap = step_limit(inst)
    while not (states[1].done and states[-1].done):
        rounds += 1
        if rounds > cap:
            raise PlannerError(f"episode exceeded {cap} rounds without terminating")
        frozen = dict(states)
        for seat in (1, -1):
            if frozen[seat].done:
                continue
            own, opp = frozen[seat], frozen[-seat]
            if stage == 1 and seat != learner_seat:
                action = mu_policy(own)
                sims[seat].append(0)
            else:
                if seat == learner_seat:
                    result = plan(own, opp, learner_eval, mu_policy, cfg.planner, game, rng=rng)
                else:
                    result = plan(own, opp, competitor_eval, competitor_opp_model, cfg.planner, game, rng=rng)
                action = result.action
                sims[seat].append(result.simulations)
                samples.append((own, result.improved_policy))
            states[seat] = game.step(states[seat], action)
            trajs[seat].append(states[seat])

    obj = {seat: objective(inst, states[seat].route) for seat in (1, -1)}
    outcome = game_outcome(-obj[1], -obj[-1])
    return EpisodeRecord(
        instance_seed=inst.seed,
        learner=learner_seat,
        traj_first=tuple(trajs[1]),
        traj_second=tuple(trajs[-1]),
        outcome=outcome,
        objective_first=obj[1],
        objective_second=obj[-1],
        stage=stage,
        policy_samples=tuple(samples),
        sims_first=tuple(sims[1]),
        sims_second=tuple(sims[-1]),
    )


def value_tuples(
    traj_first: tuple[PlayerState, ...],
    traj_second: tuple[PlayerState, ...],
    outcome: int,
    offset: bool = True,
) -> list[tuple[PlayerState, PlayerState, float]]:
    """Outcome-labelled state pairs, one family per seat's perspective.

    Pairs are emitted for indices valid in both trajectories.  With
    ``offset`` the second family pairs the second seat's state at t with
    the first seat's at t+1 (clamped to its terminal state), mirroring
    the asymmetric alignment used for variable-length episodes.
    """
    last_first = len(traj_first) - 1
    shorter = min(len(traj_first), len(traj_second))
    out = []
    for t in range(shorter):
        out.append((traj_first[t], traj_second[t], float(outcome)))
        t_next = min(t + 1, last_first) if offset else t
        out.append((traj_second[t], traj_first[t_next], float(-outcome)))
    return out


def arena_evaluate(
    theta: PolicyValueNet,
    theta_best: PolicyValueNet,
    arena_instances: list[Instance],
) -> tuple[bool, float]:
    """Greedy-rollout showdown on the fixed arena set.

    Returns (update, reward_sum) where reward_sum totals the per-instance
    reward edge of the current parameters over the historical best; the
    best is replaced only on a strictly positive sum.
    """
    total = 0.0
    for inst in arena_instances:
        total += greedy_rollout(inst, theta_best).objective - greedy_rollout(inst, theta).objective
    return total > 0.0, total


@dataclass
class TrainerState:
    theta: PolicyValueNet
    theta_best: PolicyValueNet
    policy_buffer: PolicyBuffer
    value_buffer: ValueBuffer
    episode: int


def save_checkpoint(path, cfg: TrainConfig, state: TrainerState) -> None:
    """Atomically write the complete trainer state."""
    arrays = {
        "meta/version": np.array(TRAINER_CHECKPOINT_VERSION, dtype=np.int64),
        "meta/episode": np.array(state.episode, dtype=np.int64),
        "meta/config": np.frombuffer(json.dumps(train_config_to_dict(cfg)).encode(), dtype=np.uint8),
    }
    arrays |= net_to_arrays(state.theta, "theta/")
    arrays |= net_to_arrays(state.theta_best, "best/")
    arrays |= state.policy_buffer.to_arrays("pol/")
    arrays |= state.value_buffer.to_arrays("val/")
    write_arrays(path, arrays)


def load_checkpoint(path) -> tuple[TrainConfig, TrainerState]:
    """Read a trainer checkpoint; CheckpointError names a missing or malformed array."""
    arrays = read_arrays(path, TRAINER_CHECKPOINT_VERSION)
    try:
        episode = int(arrays["meta/episode"])
        cfg = train_config_from_dict(json.loads(arrays["meta/config"].tobytes().decode()))
        state = TrainerState(
            theta=net_from_arrays(arrays, "theta/"),
            theta_best=net_from_arrays(arrays, "best/"),
            policy_buffer=PolicyBuffer.from_arrays(arrays, "pol/", cfg.policy_buffer_capacity),
            value_buffer=ValueBuffer.from_arrays(arrays, "val/", cfg.value_buffer_capacity),
            episode=episode,
        )
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing array {exc}") from exc
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


def _truncate_metrics(path: Path, episode: int) -> None:
    """Drop rows written after the checkpointed episode."""
    if not path.exists():
        path.write_text(METRICS_HEADER + "\n")
        return
    lines = path.read_text().splitlines()
    kept = [METRICS_HEADER]
    for line in lines[1:]:
        if line and int(line.split(",", 1)[0]) <= episode:
            kept.append(line)
    path.write_text("\n".join(kept) + "\n")


def _truncate_events(path: Path, episode: int) -> None:
    if not path.exists():
        path.touch()
        return
    kept = []
    for line in path.read_text().splitlines():
        if line and json.loads(line).get("episode", 0) <= episode:
            kept.append(line)
    path.write_text("".join(k + "\n" for k in kept))


def train(cfg: TrainConfig, run_dir, resume: bool = False) -> Path:
    """Run the training loop end to end; returns the checkpoint path.

    Artifacts in ``run_dir``: ``config.json`` (resolved config),
    ``metrics.csv`` (one row per episode, deterministic given the seed),
    ``events.log`` (JSON lines: episodes, arena showdowns, checkpoints;
    carries wall times, so not byte-stable), ``checkpoint.npz``.  A resume
    rewinds both logs to the checkpointed episode and replays from there,
    which reproduces the uninterrupted run byte for byte in metrics.csv.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = run_dir / "metrics.csv"
    events_path = run_dir / "events.log"
    ckpt_path = run_dir / "checkpoint.npz"

    if resume:
        if not ckpt_path.exists():
            raise TrainerError(f"{ckpt_path}: no checkpoint to resume from")
        saved_cfg, state = load_checkpoint(ckpt_path)
        if saved_cfg != cfg:
            raise TrainerError("checkpoint was produced by a different config")
        start = state.episode
        _truncate_metrics(metrics_path, start)
        _truncate_events(events_path, start)
        _append_event(events_path, {"event": "resume", "episode": start})
    else:
        state = TrainerState(
            theta=PolicyValueNet.create(cfg.net, seed=cfg.seed),
            theta_best=None,  # type: ignore[arg-type]
            policy_buffer=PolicyBuffer(cfg.policy_buffer_capacity),
            value_buffer=ValueBuffer(cfg.value_buffer_capacity),
            episode=0,
        )
        state.theta_best = state.theta.copy()
        start = 0
        (run_dir / "config.json").write_text(json.dumps(train_config_to_dict(cfg), indent=2) + "\n")
        metrics_path.write_text(METRICS_HEADER + "\n")
        events_path.write_text("")

    arena_set = [make_instance(cfg, derived_seed(cfg.seed, _STREAM_ARENA, k)) for k in range(cfg.arena_size)]

    for episode in range(start, cfg.total_episodes):
        stage = stage_gate(episode, cfg)
        inst_seed = derived_seed(cfg.seed, _STREAM_INSTANCE, episode)
        inst = make_instance(cfg, inst_seed)
        rng = np.random.default_rng([cfg.seed, _STREAM_EPISODE, episode])
        started = time.perf_counter()
        try:
            record = run_episode(inst, (state.theta, state.theta_best), cfg, stage, rng)
        except (PlannerError, DeadEndError) as exc:
            raise TrainerError(f"episode {episode + 1} (instance seed {inst_seed}): {exc}") from exc

        for played_state, improved in record.policy_samples:
            state.policy_buffer.push(featurize(played_state), legal_actions(played_state), improved)
        for own, opp, label in value_tuples(
            record.traj_first, record.traj_second, record.outcome, cfg.value_pair_offset
        ):
            state.value_buffer.push(featurize(own), featurize(opp), label)

        policy_losses = []
        value_losses = []
        for _ in range(cfg.train_steps_per_episode):
            policy_batch = state.policy_buffer.sample(cfg.net.batch_size, rng)
            value_batch = state.value_buffer.sample(cfg.net.batch_size, rng)
            p_loss, v_loss = state.theta.train_step(policy_batch, value_batch)
            policy_losses.append(p_loss)
            value_losses.append(v_loss)
        p_mean = float(np.mean(policy_losses)) if policy_losses else 0.0
        v_mean = float(np.mean(value_losses)) if value_losses else 0.0

        if (episode + 1) % cfg.arena_interval == 0:
            updated, reward_sum = arena_evaluate(state.theta, state.theta_best, arena_set)
            if updated:
                state.theta_best = state.theta.copy()
            _append_event(
                events_path,
                {
                    "event": "arena",
                    "episode": episode + 1,
                    "reward_sum": reward_sum,
                    "updated": updated,
                },
            )

        if isinstance(inst, EvrpInstance):
            learner_traj = record.traj_first if record.learner == 1 else record.traj_second
            soc = _format_float(learner_traj[-1].energy_kwh / inst.n_customers)
        else:
            soc = ""
        _append_line(
            metrics_path,
            ",".join(
                (
                    str(episode + 1),
                    str(stage),
                    _format_float(record.learner_objective),
                    _format_float(record.competitor_objective),
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
                "learner_sims": list(record.sims_first if record.learner == 1 else record.sims_second),
                "competitor_sims": list(record.sims_second if record.learner == 1 else record.sims_first),
                "wall_time_s": time.perf_counter() - started,
            },
        )

        state.episode = episode + 1
        if state.episode % cfg.checkpoint_interval == 0 or state.episode == cfg.total_episodes:
            save_checkpoint(ckpt_path, cfg, state)
            _append_event(events_path, {"event": "checkpoint", "episode": state.episode})

    return ckpt_path
