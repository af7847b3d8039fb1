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

The greedy opponent's move does not depend on the own action, so the
opponent state at tree depth d is the same in every branch.  One `plan()`
keeps these states in an opponent chain, extended lazily, so the opponent
policy runs at most once per depth and never on a finished opponent.  The
search runs in sweeps: sequential halving gives each surviving candidate
one playout per sweep, and each candidate's playouts stay in its own
subtree, whose statistics no other playout of the sweep reads or writes.
So a sweep descends once per candidate, evaluates all of its new leaves in
one evaluator call and then backs up every path, which builds the same
tree, visit counts and values as running the playouts one at a time.

Across the plans of one game the opponent chains repeat routes.  The net
as a greedy opponent, `GreedyNetPolicy`, keeps each route's move for the
one instance it plays, so a route costs at most one ``forward`` per game,
and a forced move none (`net.greedy_actions`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol

import numpy as np

from .env import RoutingGame, game_outcome, play
from .net import featurize, greedy_actions, stack_features, stack_states


class PlannerError(RuntimeError):
    """A search that cannot start (terminal root, no legal move) or broke its simulation count or evaluation bound."""


@dataclass(frozen=True)
class PlannerConfig:
    n_simulations: int = 100
    m_root: int = 16
    c_visit: float = 50.0
    c_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n_simulations < 1 or self.m_root < 1:
            raise ValueError("n_simulations and m_root must be >= 1")
        if not (math.isfinite(self.c_scale) and self.c_scale > 0):
            raise ValueError(f"c_scale must be finite and positive, got {self.c_scale!r}")
        if not (math.isfinite(self.c_visit) and self.c_visit >= 0):
            raise ValueError(f"c_visit must be finite and nonnegative, got {self.c_visit!r}")


class Evaluator(Protocol):
    """Maps (own, opponent) state pairs to (masked logits, value).

    An evaluator is either a plain ``(own, opp)`` callable or an object
    whose ``evaluate_batch(pairs)`` returns one (logits, value) per pair in
    order.  The search evaluates the new leaves of a sweep together: an
    ``evaluate_batch`` gets them in one call, a plain callable is mapped
    over them.  Logits of a finished own state are never read.
    """


@dataclass
class TreeNode:
    own: object
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


def _completed_scores(node: TreeNode, config: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The legal actions of ``node`` and their ``logit + sigma(completed q)``, which rank and weigh them."""
    legal = np.flatnonzero(np.isfinite(node.logits))
    return legal, node.logits[legal] + sigma(_completed_q(node, legal), _max_child_visits(node), config)


def _select_action(node: TreeNode, config: PlannerConfig) -> int:
    legal, scores = _completed_scores(node, config)
    return int(legal[int(np.argmax(scores))])


class _Search:
    def __init__(self, game: RoutingGame, evaluator: Evaluator, opponent_policy: Callable, config: PlannerConfig, opp):
        self.game = game
        self.evaluate = getattr(evaluator, "evaluate_batch", None) or (
            lambda pairs: [evaluator(own, o) for own, o in pairs]
        )
        self.opponent_policy = opponent_policy
        self.config = config
        self.opponents = [opp]  # opponent state at each tree depth, the root's at 0
        self.evaluations = 0
        self.simulations = 0

    def opponent(self, depth: int):
        """The opponent after ``depth`` greedy moves from the root; each depth is computed once."""
        while len(self.opponents) <= depth:
            last = self.opponents[-1]
            if not self.game.is_terminal(last):
                last = self.game.step(last, self.opponent_policy(last))
            self.opponents.append(last)
        return self.opponents[depth]

    def make_nodes(self, leaves: list[tuple[object, int]]) -> list[TreeNode]:
        """Nodes for (own state, depth) leaves; one evaluator call scores all that need it."""
        nodes: list[TreeNode | None] = []
        pending = []
        for own, depth in leaves:
            opp = self.opponent(depth)
            if self.game.is_terminal(own) and self.game.is_terminal(opp):
                z = float(game_outcome(self.game.terminal_reward(own), self.game.terminal_reward(opp)))
                nodes.append(TreeNode(own, None, z, terminal=True))
            else:
                pending.append((len(nodes), own, opp))
                nodes.append(None)
        if pending:
            results = self.evaluate([(own, opp) for _, own, opp in pending])
            self.evaluations += len(pending)
            for (slot, own, _), (logits, value) in zip(pending, results):
                # a finished own player is scored once and frozen
                done = self.game.is_terminal(own)
                nodes[slot] = TreeNode(own, None if done else logits, value, terminal=done)
        return nodes

    def sweep(self, root: TreeNode, root_actions: list[int]) -> None:
        """One simulation through each root action, each backing up a single leaf."""
        paths, expand = [], []
        for action in root_actions:
            self.simulations += 1
            node, path = root, []
            while action in node.children:
                node = node.children[action]
                path.append(node)
                if node.terminal:
                    break
                action = _select_action(node, self.config)
            else:
                expand.append((node, action, path))
            paths.append(path)
        children = self.make_nodes([(self.game.step(node.own, action), len(path) + 1) for node, action, path in expand])
        for (node, action, path), child in zip(expand, children):
            node.children[action] = child
            path.append(child)
        for path in paths:
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
    rng: np.random.Generator,
) -> PlanResult:
    """Pick a move for the own player and return the improved policy.

    ``opponent_policy`` maps an opponent state to its next action; it
    models the opponent greedily inside the tree.  ``rng`` draws the root's
    Gumbel noise, the search's only random choice.  Network evaluations are
    bounded by ``n_simulations + 1``.
    """
    if game.is_terminal(own_state):
        raise PlannerError("cannot plan from a terminal state")
    search = _Search(game, evaluator, opponent_policy, config, opp_state)

    root = search.make_nodes([(own_state, 0)])[0]
    candidates, gumbels = sample_gumbel_topm(root.logits, config.m_root, rng)
    base = root.logits[candidates] + gumbels
    schedule = sequential_halving_schedule(candidates.shape[0], config.n_simulations)

    order = np.arange(candidates.shape[0])
    for n_cands, sims_each in schedule:
        order = order[:n_cands]
        for _ in range(sims_each):
            search.sweep(root, [int(candidates[idx]) for idx in order])
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
    legal, scores = _completed_scores(root, config)
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
    )


def play_seats(game: RoutingGame, seats, config: PlannerConfig, rng: np.random.Generator) -> tuple[list, Iterator]:
    """Play a two-seat game on ``game`` from the initial state through one ``env.play``.

    A seat is a greedy policy ``state -> action`` or an ``(evaluator,
    opponent_model)`` pair that plans each move against the other seat's
    state.  Returns ``(moves, ends)``.  ``ends`` is the ``env.play``
    generator: reading it plays the game, and it yields ``(slot, finished
    state or DeadEndError)`` in the order the slots end, so a caller that
    stops reading once the slot it needs has ended plays no later round.
    ``moves`` lists the moves played so far in play order as ``(slot,
    state, PlanResult | None, seconds)``, ``None`` marking a greedy move
    and ``seconds`` the move's wall time: a planning seat's ``plan`` call,
    its in-tree opponent included, or a greedy seat's own move.
    `trainer.run_episode` sums these into an episode's telemetry.  The
    slots of a round move in slot order, and only ``plan`` draws from
    ``rng``.  A `PlannerError` from a seat's ``plan`` is raised with its
    ``slot`` set.
    """
    moves = []

    def choose(states, live):
        actions = []
        for i in live:
            own, seat = states[i], seats[i]
            started = time.perf_counter()
            try:
                result = plan(own, states[1 - i], *seat, config, game, rng=rng) if isinstance(seat, tuple) else None
            except PlannerError as exc:
                exc.slot = i  # the slot whose search failed, for the caller to name
                raise
            actions.append(seat(own) if result is None else result.action)
            moves.append((i, own, result, time.perf_counter() - started))
        return actions

    return moves, play([game.initial_state() for _ in seats], choose)


class NetEvaluator:
    """Adapter: a policy/value network as the search's evaluator."""

    def __init__(self, policy_net, value_net=None):
        self.policy_net = policy_net
        self.value_net = value_net if value_net is not None else policy_net

    def evaluate_batch(self, pairs: list[tuple]) -> list[tuple[np.ndarray, float]]:
        """(logits, value) of each (own, opp) pair, from one forward per net.

        Pairs that share an opponent state object share its row of the
        forward's opponent stack, so each distinct opponent is encoded once.
        """
        opps = list({id(opp): opp for _, opp in pairs}.values())
        rows = {id(opp): row for row, opp in enumerate(opps)}
        own_batch = stack_states([own for own, _ in pairs])
        own_batch["opp_row"] = np.array([rows[id(opp)] for _, opp in pairs], dtype=np.int64)
        logits, values = self.value_net.forward(own_batch, stack_features([featurize(opp) for opp in opps]))
        if own_batch["legal"].any() and self.policy_net is not self.value_net:
            logits = self.policy_net.forward(own_batch)
        return [(logits[i], float(values[i])) for i in range(len(pairs))]


class GreedyNetPolicy:
    """Adapter: a policy network as a greedy ``state -> action`` seat or in-tree opponent.

    An adapter plays one instance, that of the first state it is asked
    about; a state of any other instance raises ``ValueError``.  It keeps
    each route's move, so it runs `greedy_actions` at most once per route
    and so at most one batch-1 ``forward``, none for a forced move.  The memo
    assumes the net does not change while the adapter is alive; build one
    adapter per game.  ``forwards`` counts its forward calls and
    ``memo_hits`` the moves it answered from the memo.
    """

    def __init__(self, net):
        self.net = net
        self.instance = None
        self.moves: dict[tuple[int, ...], int] = {}
        self.forwards = 0
        self.memo_hits = 0

    def __call__(self, state) -> int:
        if self.instance is None:
            self.instance = state.instance
        elif state.instance is not self.instance:
            raise ValueError("a GreedyNetPolicy plays the one instance it was first asked about")
        move = self.moves.get(state.route)
        if move is not None:
            self.memo_hits += 1
            return move
        actions, rows = greedy_actions(self.net, [state])
        self.forwards += rows
        move = self.moves[state.route] = int(actions[0])
        return move
