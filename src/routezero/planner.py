"""Gumbel-top-m tree search planning one player's next move.

The search plans for the "own" player while modelling the opponent inside
the tree: every tree edge advances the own state by the chosen action and
the opponent state by one greedy move of the opponent policy, mirroring the
simultaneous real game.  Root candidates are sampled without replacement
via the Gumbel-max trick, simulation budget is split over candidates by
sequential halving, and both the final action and the improved policy mix
prior logits with visit-scaled completed values:

    score(a)  = gumbel_a + logit_a + sigma(q_a)
    sigma(q)  = (c_visit + max_visits) * c_scale * q
    improved  = softmax(logits + sigma(completed_q))   over legal actions.

Completed values fall back to the root value estimate for unvisited
actions, so the improved policy is defined over every legal action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .env import RoutingGame
from .net import featurize, greedy_actions, stack_features


class PlannerError(RuntimeError):
    """The search was invoked on an unusable root (terminal or unbudgeted)."""


@dataclass(frozen=True)
class PlannerConfig:
    n_simulations: int = 100
    m_root: int = 16
    c_visit: float = 50.0
    c_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_simulations < 1 or self.m_root < 1:
            raise ValueError("n_simulations and m_root must be >= 1")
        if self.c_scale <= 0:
            raise ValueError("c_scale must be positive")


class Evaluator(Protocol):
    """Maps an (own, opponent) state pair to (masked logits, value)."""

    def __call__(self, own, opp) -> tuple[np.ndarray, float]: ...


@dataclass
class TreeNode:
    own: object
    opp: object
    logits: np.ndarray | None
    value: float
    terminal: bool
    children: dict[int, "TreeNode"] = field(default_factory=dict)
    visits: int = 0
    value_sum: float = 0.0

    @property
    def q(self) -> float:
        return self.value_sum / self.visits if self.visits else self.value


@dataclass(frozen=True)
class PlanResult:
    action: int
    improved_policy: np.ndarray
    simulations: int
    evaluations: int
    root_value: float


def sample_gumbel_topm(logits: np.ndarray, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Top-m legal actions by logit + Gumbel noise, without replacement.

    Returns (actions, gumbels) sorted by perturbed logit, best first.  ``m``
    larger than the number of legal actions is clamped.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    legal = np.isfinite(logits)
    n_legal = int(legal.sum())
    if n_legal == 0:
        raise PlannerError("no legal actions to sample")
    m = min(m, n_legal)
    gumbels = rng.gumbel(size=logits.shape[0])
    scores = np.where(legal, logits + gumbels, -np.inf)
    order = np.argsort(-scores, kind="stable")[:m]
    return order, gumbels[order]


def sequential_halving_schedule(m: int, budget: int) -> list[tuple[int, int]]:
    """Per-phase (candidates, simulations each) splitting ``budget``.

    Phase ``p`` keeps the top ``ceil(m / 2**p)`` candidates and gives each
    ``floor(budget / (phases * candidates))`` simulations; whatever remains
    is spent in the last phase.  The total never exceeds the budget and
    falls short by less than ``m`` at worst.  A budget below ``m``
    degenerates to one simulation for each of the ``budget`` best
    candidates.
    """
    if m < 1 or budget < 1:
        raise ValueError("m and budget must be >= 1")
    if m == 1:
        return [(1, budget)]
    if budget < m:
        return [(budget, 1)]
    phases = math.ceil(math.log2(m))
    schedule = []
    spent = 0
    for p in range(phases):
        cands = math.ceil(m / 2**p)
        sims = budget // (phases * cands)
        schedule.append((cands, sims))
        spent += cands * sims
    final_cands = schedule[-1][0]
    extra = (budget - spent) // final_cands
    schedule[-1] = (final_cands, schedule[-1][1] + extra)
    return schedule


def sigma(q, max_visits: int, config: PlannerConfig):
    """Visit-scaled value transform added to logits when ranking actions."""
    return (config.c_visit + max_visits) * config.c_scale * q


def _completed_q(node: TreeNode, legal_ids: np.ndarray) -> np.ndarray:
    q = np.full(legal_ids.shape[0], node.value)
    for idx, a in enumerate(legal_ids):
        child = node.children.get(int(a))
        if child is not None and child.visits:
            q[idx] = child.q
    return np.clip(q, -1.0, 1.0)


def _max_child_visits(node: TreeNode) -> int:
    return max((c.visits for c in node.children.values()), default=0)


class _Search:
    def __init__(self, game: RoutingGame, evaluator: Evaluator, opponent_policy: Callable, config: PlannerConfig):
        self.game = game
        self.evaluator = evaluator
        self.opponent_policy = opponent_policy
        self.config = config
        self.evaluations = 0
        self.simulations = 0

    def make_node(self, own, opp) -> TreeNode:
        own_done = self.game.is_terminal(own)
        opp_done = self.game.is_terminal(opp)
        if own_done and opp_done:
            z = 1.0 if self.game.terminal_reward(own) >= self.game.terminal_reward(opp) else -1.0
            return TreeNode(own, opp, None, z, terminal=True)
        if own_done:
            # own player is out of moves; score the pair once and freeze
            _, value = self.evaluator(own, opp)
            self.evaluations += 1
            return TreeNode(own, opp, None, value, terminal=True)
        logits, value = self.evaluator(own, opp)
        self.evaluations += 1
        return TreeNode(own, opp, logits, value, terminal=False)

    def advance_opponent(self, opp):
        if self.game.is_terminal(opp):
            return opp
        return self.game.step(opp, self.opponent_policy(opp))

    def expand_child(self, node: TreeNode, action: int) -> TreeNode:
        own_next = self.game.step(node.own, action)
        child = self.make_node(own_next, self.advance_opponent(node.opp))
        node.children[action] = child
        return child

    def select_action(self, node: TreeNode) -> int:
        legal = np.flatnonzero(np.isfinite(node.logits))
        q = _completed_q(node, legal)
        scores = node.logits[legal] + sigma(q, _max_child_visits(node), self.config)
        return int(legal[int(np.argmax(scores))])

    def playout(self, root: TreeNode, root_action: int) -> None:
        """One simulation through a root candidate; backs up a single leaf."""
        self.simulations += 1
        path = []
        node, action = root, root_action
        while True:
            child = node.children.get(action)
            if child is None:
                child = self.expand_child(node, action)
                path.append(child)
                break
            node = child
            path.append(node)
            if node.terminal:
                break
            action = self.select_action(node)
        leaf_value = path[-1].value
        for visited in path:
            visited.visits += 1
            visited.value_sum += leaf_value


def plan(
    own_state,
    opp_state,
    evaluator: Evaluator,
    opponent_policy: Callable,
    config: PlannerConfig,
    game: RoutingGame,
    rng: np.random.Generator | None = None,
) -> PlanResult:
    """Pick a move for the own player and return the improved policy.

    ``opponent_policy`` maps an opponent state to its next action; it
    models the opponent greedily inside the tree.  Network evaluations are
    bounded by ``n_simulations + 1``.
    """
    if game.is_terminal(own_state):
        raise PlannerError("cannot plan from a terminal state")
    rng = np.random.default_rng(config.seed) if rng is None else rng
    search = _Search(game, evaluator, opponent_policy, config)

    root = search.make_node(own_state, opp_state)
    candidates, gumbels = sample_gumbel_topm(root.logits, config.m_root, rng)
    base = root.logits[candidates] + gumbels
    schedule = sequential_halving_schedule(candidates.shape[0], config.n_simulations)

    order = np.arange(candidates.shape[0])
    for n_cands, sims_each in schedule:
        order = order[:n_cands]
        for _ in range(sims_each):
            for idx in order:
                search.playout(root, int(candidates[idx]))
        scores = np.array(
            [base[idx] + sigma(root.children[int(candidates[idx])].q, _max_child_visits(root), config)
             if int(candidates[idx]) in root.children else base[idx]
             for idx in order]
        )
        order = order[np.argsort(-scores, kind="stable")]

    expected = sum(n * s for n, s in schedule)
    if search.simulations != expected:
        raise PlannerError(f"ran {search.simulations} simulations, the schedule asks for {expected}")
    if search.evaluations > config.n_simulations + 1:
        raise PlannerError(f"{search.evaluations} evaluations exceed n_simulations + 1 = {config.n_simulations + 1}")

    action = int(candidates[order[0]])
    legal = np.flatnonzero(np.isfinite(root.logits))
    completed = _completed_q(root, legal)
    scores = root.logits[legal] + sigma(completed, _max_child_visits(root), config)
    scores -= scores.max()
    probs = np.exp(scores)
    probs /= probs.sum()
    improved = np.zeros(root.logits.shape[0])
    improved[legal] = probs
    return PlanResult(
        action=action,
        improved_policy=improved,
        simulations=search.simulations,
        evaluations=search.evaluations,
        root_value=root.value,
    )


class NetEvaluator:
    """Adapter: a policy/value network as the search's evaluator."""

    def __init__(self, policy_net, game: RoutingGame, value_net=None):
        self.policy_net = policy_net
        self.value_net = value_net if value_net is not None else policy_net
        self.game = game

    def __call__(self, own, opp) -> tuple[np.ndarray, float]:
        terminal = self.game.is_terminal(own)
        own_batch = stack_features([featurize(own)])
        opp_batch = stack_features([featurize(opp)])
        legal = np.zeros(own.instance.n_nodes, dtype=bool) if terminal else self.game.legal_actions(own)
        own_batch["legal"] = legal[None]
        logits, values = self.value_net.forward(own_batch, opp_batch)
        if not terminal and self.policy_net is not self.value_net:
            logits = self.policy_net.forward(own_batch)
        return logits[0], float(values[0])


class GreedyNetPolicy:
    """Adapter: a policy network as the in-tree opponent move source."""

    def __init__(self, net, game: RoutingGame):
        self.net = net
        self.game = game

    def __call__(self, state) -> int:
        return int(greedy_actions(self.net, [state], self.game.legal_actions(state)[None])[0])
