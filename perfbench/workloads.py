"""The three benchmark workloads: their inputs and their closed-loop CLI calls.

Every workload runs one client that issues ``routezero`` calls one after
another, each waiting for the previous one.  Sizes are chosen so that one
session takes about 9 s on a 2-CPU x86-64 host, so that three or four fit in
one run and their median damps the host's speed drift; README.md gives the
reasons.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

DESK_NET = {
    "problem": "tsp",
    "embed_dim": 32,
    "n_heads": 4,
    "n_layers": 2,
    "ffn_dim": 64,
    "batch_size": 64,
    "learning_rate": 1e-3,
}


@dataclass(frozen=True)
class Workload:
    name: str
    gen: tuple[str, ...]  # `routezero gen` arguments before --count/--seed/--out
    greedy_count: int  # instances in the greedy eval set
    train: dict | None = None  # TrainConfig fields (seed added per run); None: no training
    greedy: str = "net"  # "net": `routezero eval --mode greedy`; "nearest_neighbor": library baseline
    mcts_count: int = 0  # instances in the mcts eval set; 0: no mcts eval
    mcts_budget: int = 32
    mcts_m_root: int = 16
    fixed_instances: bool = False  # eval set independent of the seed
    smoke: dict = field(default_factory=dict)  # overrides for the smoke check

    @property
    def planned_episodes(self) -> int:
        return self.train["total_episodes"] if self.train else 0

    def minimal(self) -> "Workload":
        return replace(self, **self.smoke)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tsp6-desk",
            gen=("tsp", "--nodes", "6"),
            train={
                "problem": "tsp",
                "n_nodes": 6,
                "total_episodes": 12,
                "stage_switch": 6,
                "self_play_prob": 0.5,
                "planner": {"n_simulations": 20, "m_root": 8},
                "net": DESK_NET,
                "arena_size": 16,
                "arena_interval": 12,
                "train_steps_per_episode": 4,
                "checkpoint_interval": 100,
            },
            greedy_count=320,
            mcts_count=12,
            smoke={
                "greedy_count": 3,
                "mcts_count": 2,
                "mcts_budget": 8,
                "mcts_m_root": 4,
                "train": {
                    "problem": "tsp",
                    "n_nodes": 6,
                    "total_episodes": 2,
                    "stage_switch": 1,
                    "planner": {"n_simulations": 4, "m_root": 2},
                    "net": DESK_NET,
                    "arena_size": 2,
                    "arena_interval": 2,
                    "train_steps_per_episode": 1,
                },
            },
        ),
        Workload(
            name="tsp10-wide",
            gen=("tsp", "--nodes", "10"),
            train={
                "problem": "tsp",
                "n_nodes": 10,
                "total_episodes": 1,
                "stage_switch": 1,
                "planner": {"n_simulations": 8, "m_root": 4},
                "net": {"problem": "tsp"},
                "arena_size": 8,
                "arena_interval": 1,
                "train_steps_per_episode": 1,
                "checkpoint_interval": 1,
            },
            greedy_count=96,
            smoke={
                "greedy_count": 2,
                "train": {
                    "problem": "tsp",
                    "n_nodes": 10,
                    "total_episodes": 1,
                    "stage_switch": 1,
                    "planner": {"n_simulations": 4, "m_root": 2},
                    "net": {"problem": "tsp", "batch_size": 16},
                    "arena_size": 1,
                    "arena_interval": 1,
                },
            },
        ),
        Workload(
            name="evrp6-eval",
            gen=("evrp", "--customers", "6", "--stations", "2", "--objective", "EM"),
            greedy="nearest_neighbor",
            greedy_count=10,
            fixed_instances=True,
            smoke={"greedy_count": 2},
        ),
    )
}
