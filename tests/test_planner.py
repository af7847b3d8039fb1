import numpy as np
import pytest

import routezero.env as env_mod
from routezero.env import DeadEndError, RoutingGame, initial_state, legal_actions, step
from routezero.instance import generate_evrp, generate_tsp
from routezero.net import NetConfig, PolicyValueNet, featurize, stack_features
from routezero.planner import (
    GreedyNetPolicy,
    NetEvaluator,
    PlannerConfig,
    PlannerError,
    PlanResult,
    TreeNode,
    _completed_q,
    _max_child_visits,
    _select_action,
    plan,
    play_seats,
    sample_gumbel_topm,
    sequential_halving_schedule,
    sigma,
)


def tiny_net(problem, seed=0):
    cfg = NetConfig(problem=problem, embed_dim=16, n_heads=2, n_layers=1, ffn_dim=32, batch_size=8)
    return PolicyValueNet.create(cfg, seed=seed)


class OneShotGame:
    """Depth-1 stand-in: every arm jumps straight to a terminal reward."""

    def __init__(self, rewards, opp_reward):
        self.rewards = np.asarray(rewards, dtype=np.float64)
        self.opp_reward = float(opp_reward)

    def is_terminal(self, state):
        return state != "root"

    def step(self, state, action):
        return ("leaf", int(action))

    def terminal_reward(self, state):
        return self.opp_reward if state == "opp" else float(self.rewards[state[1]])


def oneshot_evaluator(n_arms):
    def evaluate(own, opp):
        return np.zeros(n_arms), 0.0

    return evaluate


def never_called(state):
    raise AssertionError("opponent policy must not run against a finished opponent")


def sequential_plan(own_state, opp_state, evaluator, opponent_policy, config, game, rng):
    """Reference search: one playout at a time, each new edge stepping its parent's opponent.

    Returns the PlanResult and the evaluator calls of the root and of each sweep.
    """
    calls = [0]

    def make_node(own, opp):
        done = game.is_terminal(own)
        if done and game.is_terminal(opp):
            node = TreeNode(own, None, 1.0 if game.terminal_reward(own) >= game.terminal_reward(opp) else -1.0, True)
        else:
            logits, value = evaluator(own, opp)
            calls[-1] += 1
            node = TreeNode(own, None if done else logits, value, done)
        node.opp = opp
        return node

    def playout(node, action):
        path = []
        while action in node.children:
            node = node.children[action]
            path.append(node)
            if node.terminal:
                break
            action = _select_action(node, config)
        else:
            opp = node.opp if game.is_terminal(node.opp) else game.step(node.opp, opponent_policy(node.opp))
            node.children[action] = make_node(game.step(node.own, action), opp)
            path.append(node.children[action])
        for visited in path:
            visited.visits += 1
            visited.value_sum += path[-1].value

    root = make_node(own_state, opp_state)
    candidates, gumbels = sample_gumbel_topm(root.logits, config.m_root, rng)
    schedule = sequential_halving_schedule(candidates.shape[0], config.n_simulations)
    order = np.arange(candidates.shape[0])
    for n_cands, sims_each in schedule:
        order = order[:n_cands]
        for _ in range(sims_each):
            calls.append(0)
            for idx in order:
                playout(root, int(candidates[idx]))
        scores = [root.logits[candidates[i]] + gumbels[i]
                  + (sigma(root.children[candidates[i]].q, _max_child_visits(root), config)
                     if candidates[i] in root.children else 0.0) for i in order]
        order = order[np.argsort(-np.array(scores), kind="stable")]
    legal = np.flatnonzero(np.isfinite(root.logits))
    scores = root.logits[legal] + sigma(_completed_q(root, legal), _max_child_visits(root), config)
    probs = np.exp(scores - scores.max())
    improved = np.zeros(root.logits.shape[0])
    improved[legal] = probs / probs.sum()
    sims = sum(n * k for n, k in schedule)
    return PlanResult(int(candidates[order[0]]), improved, sims, sum(calls)), calls


def hashed_evaluator(game):
    """Plain-callable evaluator whose logits and value are a fixed function of both routes."""

    def evaluate(own, opp):
        rng = np.random.default_rng([len(own.route), *own.route, 1_000, *opp.route])
        n = own.instance.n_nodes
        legal = np.zeros(n, dtype=bool) if game.is_terminal(own) else legal_actions(own)
        return np.where(legal, rng.normal(size=n), -np.inf), float(np.tanh(rng.normal()))

    return evaluate


def lowest_legal(state):
    return int(np.flatnonzero(legal_actions(state))[0])


def random_root(inst, rng):
    """Live own state and an opponent anywhere from its start to finished, after random legal moves."""

    def walk(moves):
        state = initial_state(inst)
        for _ in range(moves):
            if state.done:
                break
            state = step(state, int(rng.choice(np.flatnonzero(legal_actions(state)))))
        return state

    own = walk(int(rng.integers(0, inst.n_nodes - 1)))
    while own.done:
        own = walk(int(rng.integers(0, 2)))
    return own, walk(int(rng.integers(0, inst.n_nodes + 2)))


def routing_case(problem, seed):
    inst = generate_tsp(6, seed=seed) if problem == "tsp" else generate_evrp(4, 2, seed=seed)
    return inst, RoutingGame(inst)


class CountingEvaluator:
    """Batched evaluator that records the size of each call and refuses single pairs."""

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.batches = []

    def __call__(self, own, opp):
        raise AssertionError("plan() must evaluate through evaluate_batch")

    def evaluate_batch(self, pairs):
        self.batches.append(len(pairs))
        return [self.evaluate(own, opp) for own, opp in pairs]


class TestPlannerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlannerConfig(n_simulations=0)
        with pytest.raises(ValueError):
            PlannerConfig(m_root=0)
        with pytest.raises(ValueError):
            PlannerConfig(c_scale=0.0)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("c_scale", float("nan"), "c_scale must be finite and positive"),
            ("c_scale", float("inf"), "c_scale must be finite and positive"),
            ("c_scale", -1.0, "c_scale must be finite and positive"),
            ("c_visit", float("nan"), "c_visit must be finite and nonnegative"),
            ("c_visit", float("inf"), "c_visit must be finite and nonnegative"),
            ("c_visit", -5.0, "c_visit must be finite and nonnegative"),
        ],
    )
    def test_float_fields_must_be_finite_and_in_range(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            PlannerConfig(**{field: value})

    def test_zero_visit_constant_is_allowed(self):
        assert PlannerConfig(c_visit=0.0).c_visit == 0.0


class TestGumbelTopM:
    def test_returns_distinct_legal_actions(self):
        logits = np.array([0.0, -np.inf, 1.0, 0.5, -np.inf, 2.0])
        rng = np.random.default_rng(0)
        actions, gumbels = sample_gumbel_topm(logits, 3, rng)
        assert len(set(actions.tolist())) == 3
        assert not {1, 4} & set(actions.tolist())
        assert gumbels.shape == (3,)

    def test_clamps_m_to_legal_count(self):
        logits = np.array([0.0, -np.inf, 1.0])
        actions, _ = sample_gumbel_topm(logits, 10, np.random.default_rng(1))
        assert sorted(actions.tolist()) == [0, 2]

    def test_sorted_by_perturbed_logit(self):
        logits = np.random.default_rng(2).normal(size=8)
        actions, gumbels = sample_gumbel_topm(logits, 8, np.random.default_rng(3))
        scores = logits[actions] + gumbels
        assert (np.diff(scores) <= 0).all()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_gumbel_topm(np.zeros(3), 0, np.random.default_rng(0))
        with pytest.raises(PlannerError):
            sample_gumbel_topm(np.full(3, -np.inf), 1, np.random.default_rng(0))

    def test_top1_frequencies_match_softmax(self):
        # Gumbel-max draws land on each action with its softmax probability
        logits = np.array([1.2, -0.3, 0.4, 0.0])
        probs = np.exp(logits) / np.exp(logits).sum()
        rng = np.random.default_rng(4)
        draws = 20_000
        hits = np.zeros(4)
        for _ in range(draws):
            a, _ = sample_gumbel_topm(logits, 1, rng)
            hits[a[0]] += 1
        freq = hits / draws
        bound = 3.0 * np.sqrt(probs * (1 - probs) / draws)
        assert (np.abs(freq - probs) <= bound).all()


class TestSequentialHalving:
    @pytest.mark.parametrize(
        "m, budget, expect",
        [
            (4, 8, [(4, 1), (2, 2)]),
            (8, 32, [(8, 1), (4, 2), (2, 8)]),
            (16, 100, [(16, 1), (8, 3), (4, 6), (2, 18)]),
        ],
    )
    def test_known_schedules_spend_exactly_the_budget(self, m, budget, expect):
        schedule = sequential_halving_schedule(m, budget)
        assert schedule == expect
        assert sum(n * s for n, s in schedule) == budget

    def test_degenerate_cases(self):
        assert sequential_halving_schedule(1, 7) == [(1, 7)]
        assert sequential_halving_schedule(8, 3) == [(3, 1)]

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 16, 33])
    @pytest.mark.parametrize("budget", [1, 2, 7, 16, 50, 333])
    def test_budget_never_exceeded_and_nearly_spent(self, m, budget):
        schedule = sequential_halving_schedule(m, budget)
        total = sum(n * s for n, s in schedule)
        assert total <= budget
        assert total > budget - m or budget < m
        cands = [n for n, _ in schedule]
        assert cands == sorted(cands, reverse=True)
        assert cands[-1] >= 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sequential_halving_schedule(0, 5)
        with pytest.raises(ValueError):
            sequential_halving_schedule(4, 0)


class TestSigma:
    def test_formula(self):
        cfg = PlannerConfig(c_visit=50.0, c_scale=2.0)
        assert sigma(0.5, 10, cfg) == (50.0 + 10) * 2.0 * 0.5
        np.testing.assert_allclose(sigma(np.array([-1.0, 1.0]), 0, cfg), [-100.0, 100.0])


class TestPlanOneShot:
    def plan_arms(self, rewards, opp_reward, seed=0, **cfg):
        game = OneShotGame(rewards, opp_reward)
        config = PlannerConfig(**{"n_simulations": 4 * len(rewards), "m_root": len(rewards), "c_scale": 20.0, **cfg})
        return plan(
            "root",
            "opp",
            oneshot_evaluator(len(rewards)),
            never_called,
            config,
            game,
            rng=np.random.default_rng(seed),
        )

    def test_finds_the_only_winning_arm(self):
        for seed in range(10):
            result = self.plan_arms([-2.0, 1.0, -1.0, 0.2], opp_reward=0.5, seed=seed)
            assert result.action == 1

    def test_improved_policy_concentrates_on_winners(self):
        result = self.plan_arms([1.0, -1.0, 2.0, -3.0], opp_reward=0.0)
        assert result.improved_policy[0] + result.improved_policy[2] > 0.95
        assert result.improved_policy.sum() == pytest.approx(1.0, abs=1e-12)

    def test_simulation_and_evaluation_accounting(self):
        result = self.plan_arms([0.0, 1.0, -1.0], opp_reward=0.0, n_simulations=10)
        expected = sum(n * s for n, s in sequential_halving_schedule(3, 10))
        assert result.simulations == expected
        assert 10 - 3 < result.simulations <= 10
        assert result.evaluations <= 11, "terminal leaves cost no network calls"

    def test_tie_against_opponent_counts_as_win(self):
        result = self.plan_arms([-1.0, 0.5, -1.0], opp_reward=0.5)
        assert result.action == 1


class TestPlanOnRouting:
    def setup_tsp(self, seed=21):
        inst = generate_tsp(5, seed=seed)
        game = RoutingGame(inst)
        net = tiny_net("tsp")
        return game, NetEvaluator(net), GreedyNetPolicy(net)

    def test_result_shape_and_support(self):
        game, evaluator, opp = self.setup_tsp()
        own = game.initial_state()
        result = plan(own, own, evaluator, opp, PlannerConfig(n_simulations=12, m_root=4),
                      game, rng=np.random.default_rng(5))
        legal = legal_actions(own)
        assert legal[result.action]
        assert result.improved_policy.shape == (5,)
        assert (result.improved_policy[~legal] == 0.0).all()
        assert (result.improved_policy >= 0.0).all()
        assert result.improved_policy.sum() == pytest.approx(1.0, abs=1e-12)
        assert 8 < result.simulations <= 12

    def test_deterministic_given_rng(self):
        game, evaluator, opp = self.setup_tsp()
        own = game.initial_state()
        cfg = PlannerConfig(n_simulations=16, m_root=4)
        a = plan(own, own, evaluator, opp, cfg, game, rng=np.random.default_rng(6))
        b = plan(own, own, evaluator, opp, cfg, game, rng=np.random.default_rng(6))
        assert a.action == b.action
        np.testing.assert_array_equal(a.improved_policy, b.improved_policy)

    def test_opponent_is_stepped_inside_the_tree(self):
        game, evaluator, greedy = self.setup_tsp()
        own = game.initial_state()
        calls = []

        def spy(state):
            calls.append(state)
            return greedy(state)

        plan(own, own, evaluator, spy, PlannerConfig(n_simulations=12, m_root=4),
             game, rng=np.random.default_rng(8))
        assert calls, "tree edges must advance the opponent"

    def test_terminal_root_rejected(self):
        game, evaluator, opp = self.setup_tsp()
        state = game.initial_state()
        for a in range(5):
            state = step(state, a)
        with pytest.raises(PlannerError, match="terminal"):
            plan(state, state, evaluator, opp, PlannerConfig(), game, rng=np.random.default_rng(0))

    def test_plans_evrp_without_dead_ends(self):
        inst = generate_evrp(4, 2, seed=22)
        game = RoutingGame(inst)
        net = tiny_net("evrp")
        evaluator = NetEvaluator(net)
        opp = GreedyNetPolicy(net)
        own = game.initial_state()
        result = plan(own, own, evaluator, opp, PlannerConfig(n_simulations=20, m_root=8),
                      game, rng=np.random.default_rng(9))
        assert legal_actions(own)[result.action]


class TestSweeps:
    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    def test_plain_evaluator_matches_sequential_search_exactly(self, problem):
        rng = np.random.default_rng(31)
        for k in range(12):
            inst, game = routing_case(problem, seed=300 + k)
            own, opp = random_root(inst, rng)
            cfg = PlannerConfig(n_simulations=int(rng.integers(1, 40)), m_root=int(rng.integers(1, 9)))
            args = (own, opp, hashed_evaluator(game), lowest_legal, cfg, game)
            got = plan(*args, rng=np.random.default_rng(k))
            ref, _ = sequential_plan(*args, rng=np.random.default_rng(k))
            assert got.action == ref.action
            assert got.improved_policy.tobytes() == ref.improved_policy.tobytes()
            assert (got.simulations, got.evaluations) == (ref.simulations, ref.evaluations)
            assert got.evaluations <= cfg.n_simulations + 1

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    def test_net_evaluator_matches_sequential_search(self, problem):
        rng = np.random.default_rng(32)
        for k in range(6):
            inst, game = routing_case(problem, seed=400 + k)
            theta, best = tiny_net(problem, seed=k), tiny_net(problem, seed=k + 50)
            evaluator = NetEvaluator(best, value_net=theta) if k % 2 else NetEvaluator(theta)
            own, opp = random_root(inst, rng)
            rest = (GreedyNetPolicy(theta), PlannerConfig(n_simulations=24, m_root=8), game)
            got = plan(own, opp, evaluator, *rest, rng=np.random.default_rng(k))
            one_pair = lambda own, opp: evaluator.evaluate_batch([(own, opp)])[0]
            ref, _ = sequential_plan(own, opp, one_pair, *rest, rng=np.random.default_rng(k))
            assert got.action == ref.action
            np.testing.assert_allclose(got.improved_policy, ref.improved_policy, rtol=0, atol=1e-12)
            assert (got.simulations, got.evaluations) == (ref.simulations, ref.evaluations)

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    def test_one_batched_call_for_the_root_and_each_sweep_with_a_new_evaluated_leaf(self, problem):
        rng = np.random.default_rng(33)
        for k in range(10):
            inst, game = routing_case(problem, seed=500 + k)
            own, opp = random_root(inst, rng)
            cfg = PlannerConfig(n_simulations=int(rng.integers(1, 40)), m_root=int(rng.integers(1, 9)))
            counting = CountingEvaluator(hashed_evaluator(game))
            got = plan(own, opp, counting, lowest_legal, cfg, game, rng=np.random.default_rng(k))
            _, calls = sequential_plan(own, opp, hashed_evaluator(game), lowest_legal, cfg, game,
                                       rng=np.random.default_rng(k))
            assert counting.batches == [n for n in calls if n]
            assert sum(counting.batches) == got.evaluations <= cfg.n_simulations + 1

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    def test_opponent_policy_runs_once_per_state_and_never_when_finished(self, problem):
        rng = np.random.default_rng(34)
        for k in range(10):
            inst, game = routing_case(problem, seed=600 + k)
            own, opp = random_root(inst, rng)
            seen = []

            def spy(state):
                assert not game.is_terminal(state), "opponent policy called on a finished opponent"
                seen.append(state.route)
                return lowest_legal(state)

            cfg = PlannerConfig(n_simulations=40, m_root=2)
            plan(own, opp, hashed_evaluator(game), spy, cfg, game, rng=np.random.default_rng(k))
            assert len(seen) == len(set(seen))

    def test_opponent_one_move_from_the_end_moves_once(self):
        inst, game = routing_case("tsp", seed=700)
        opp = initial_state(inst)
        for a in range(5):
            opp = step(opp, a)
        seen = []
        plan(game.initial_state(), opp, hashed_evaluator(game), lambda s: seen.append(s.route) or 5,
             PlannerConfig(n_simulations=40, m_root=2), game, rng=np.random.default_rng(0))
        assert seen == [opp.route]


class TestNetAdapters:
    def test_evaluator_masks_and_bounds(self):
        inst = generate_tsp(5, seed=23)
        game = RoutingGame(inst)
        evaluator = NetEvaluator(tiny_net("tsp"))
        own = game.initial_state()
        logits, value = evaluator.evaluate_batch([(own, own)])[0]
        assert np.isfinite(logits).sum() == legal_actions(own).sum()
        assert -1.0 <= value <= 1.0

    def test_split_value_net(self):
        inst = generate_evrp(3, 1, seed=24)
        game = RoutingGame(inst)
        policy_net = tiny_net("evrp", seed=1)
        value_net = tiny_net("evrp", seed=2)
        evaluator = NetEvaluator(policy_net, value_net=value_net)
        own = game.initial_state()
        logits, value = evaluator.evaluate_batch([(own, own)])[0]
        batch = stack_features([featurize(own)])
        batch["legal"] = legal_actions(own)[None]
        assert value == pytest.approx(value_net.forward(batch, batch)[1][0], rel=1e-12)
        np.testing.assert_allclose(logits, policy_net.forward(batch)[0], rtol=1e-12)

    def test_split_net_batch_matches_single_pairs(self):
        inst = generate_tsp(5, seed=27)
        game = RoutingGame(inst)
        theta, theta_best = tiny_net("tsp", seed=2), tiny_net("tsp", seed=1)
        evaluator = NetEvaluator(theta_best, value_net=theta)
        states = [game.initial_state()]
        for a in (3, 1, 4, 0, 2):
            states.append(step(states[-1], a))
        pairs = [(states[0], states[1]), (states[2], states[1]), (states[5], states[1]), (states[3], states[4])]
        batched = evaluator.evaluate_batch(pairs)
        for (own, opp), (logits, value) in zip(pairs, batched):
            single_logits, single_value = evaluator.evaluate_batch([(own, opp)])[0]
            np.testing.assert_allclose(logits, single_logits, rtol=1e-12)
            assert value == pytest.approx(single_value, rel=1e-12)
        assert np.isneginf(batched[2][0]).all()

    def test_terminal_own_state_is_scored_by_the_value_net(self):
        inst = generate_tsp(4, seed=26)
        game = RoutingGame(inst)
        value_net = tiny_net("tsp", seed=2)
        evaluator = NetEvaluator(tiny_net("tsp", seed=1), value_net=value_net)
        own = game.initial_state()
        for a in range(4):
            own = step(own, a)
        opp = game.initial_state()
        logits, value = evaluator.evaluate_batch([(own, opp)])[0]
        assert np.isneginf(logits).all()
        own_batch = stack_features([featurize(own)])
        own_batch["legal"] = np.zeros((1, 4), dtype=bool)
        assert value == value_net.forward(own_batch, stack_features([featurize(opp)]))[1][0]

    def test_greedy_policy_matches_argmax(self):
        inst = generate_tsp(5, seed=25)
        game = RoutingGame(inst)
        net = tiny_net("tsp")
        policy = GreedyNetPolicy(net)
        own = game.initial_state()
        batch = stack_features([featurize(own)])
        batch["legal"] = legal_actions(own)[None]
        expect = int(np.argmax(net.forward(batch)[0]))
        assert policy(own) == expect

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    def test_greedy_policy_runs_one_forward_per_route(self, problem, monkeypatch):
        inst = generate_tsp(6, seed=26) if problem == "tsp" else generate_evrp(4, 2, seed=7)
        game, net = RoutingGame(inst), tiny_net(problem)
        forwards = []  # rows of each forward without an opponent stack, which only the greedy policy runs
        forward = net.forward

        def counted(own, opp=None):
            if opp is None:
                forwards.append(len(own["nodes"]))
            return forward(own, opp)

        monkeypatch.setattr(net, "forward", counted)
        policy = GreedyNetPolicy(net)
        asked = []

        def spy(state):
            asked.append(state)
            return policy(state)

        seats = ((NetEvaluator(net), spy), spy)
        _, ends, _ = play_seats(game, seats, PlannerConfig(n_simulations=8, m_root=4), np.random.default_rng(4))
        dict(ends)  # plays both seats to their ends
        fresh = GreedyNetPolicy(tiny_net(problem))
        routes = {s.route: s for s in asked}
        chosen = [r for r, s in routes.items() if legal_actions(s).sum() > 1]
        assert forwards == [1] * len(chosen) and policy.forwards == len(chosen)
        assert policy.memo_hits == len(asked) - len(routes) > 0
        assert [policy(s) for s in asked] == [fresh(s) for s in asked]

    def test_greedy_policy_refuses_a_state_of_another_instance(self):
        net = tiny_net("tsp")
        policy = GreedyNetPolicy(net)
        first, other = initial_state(generate_tsp(5, seed=1)), initial_state(generate_tsp(5, seed=2))
        assert policy(first) != GreedyNetPolicy(net)(other), "the two instances must disagree for the check to bite"
        with pytest.raises(ValueError, match="one instance"):
            policy(other)


def highest_legal(state):
    return int(np.flatnonzero(legal_actions(state))[-1])


def customers_first(state):
    """Lowest legal customer, else the lowest legal node."""
    legal = np.flatnonzero(legal_actions(state))
    customers = legal[state.instance.kinds[legal] == 2]
    return int(customers[0] if customers.size else legal[0])


def play_to_the_end(game, seats, config, rng):
    """`play_seats` with its ``ends`` read to the last slot's end, as a dict in end order."""
    moves, ends, _ = play_seats(game, seats, config, rng)
    return moves, dict(ends)


class TestPlaySeats:
    def evrp_case(self):
        """An EVRP-4 game on which ``highest_legal`` (slot 0) takes more moves than ``customers_first``."""
        inst, game = routing_case("evrp", seed=4)
        moves, ends = play_to_the_end(game, (highest_legal, customers_first), None, np.random.default_rng(0))
        lengths = [len(ends[slot].route) - 1 for slot in (0, 1)]
        assert lengths[0] > lengths[1]
        return game, lengths

    def test_moves_come_round_major_and_plans_draw_rng_in_slot_order(self):
        inst, game = routing_case("tsp", seed=800)
        cfg = PlannerConfig(n_simulations=8, m_root=4)
        seats = ((hashed_evaluator(game), lowest_legal), (hashed_evaluator(game), highest_legal))
        moves, ends = play_to_the_end(game, seats, cfg, np.random.default_rng(5))
        assert [slot for slot, _, _ in moves] == [0, 1] * inst.n_nodes
        assert [len(state.route) for _, state, _ in moves] == [k for k in range(inst.n_nodes) for _ in seats]
        replay = np.random.default_rng(5)
        for k, (slot, own, got) in enumerate(moves):
            opp = moves[k + 1 - 2 * slot][1]  # the other slot's state in the same round
            ref = plan(own, opp, *seats[slot], cfg, game, rng=replay)
            assert (got.action, got.improved_policy.tobytes()) == (ref.action, ref.improved_policy.tobytes())
        assert all(end.done for end in ends.values())

    def test_greedy_seat_moves_are_none_and_draw_nothing(self):
        inst, game = routing_case("tsp", seed=801)
        cfg = PlannerConfig(n_simulations=8, m_root=4)
        rng = np.random.default_rng(6)
        moves, _ = play_to_the_end(game, (lowest_legal, lowest_legal), cfg, rng)
        assert len(moves) == 2 * inst.n_nodes and all(result is None for _, _, result in moves)
        assert rng.random() == np.random.default_rng(6).random()
        moves, _ = play_to_the_end(game, ((hashed_evaluator(game), lowest_legal), highest_legal), cfg, rng)
        assert [result is None for _, _, result in moves] == [False, True] * inst.n_nodes

    def test_ends_come_in_end_order(self):
        game, lengths = self.evrp_case()
        moves, ends = play_to_the_end(game, (highest_legal, customers_first), None, np.random.default_rng(0))
        assert list(ends) == [1, 0]
        assert [sum(slot == i for slot, _, _ in moves) for i in (0, 1)] == lengths

    def test_step_cap_ends_the_longer_seat_while_the_other_finishes(self, monkeypatch):
        game, lengths = self.evrp_case()
        cap = lengths[1] + 1
        monkeypatch.setattr(env_mod, "step_limit", lambda inst: cap)
        moves, ends = play_to_the_end(game, (highest_legal, customers_first), None, np.random.default_rng(0))
        assert list(ends) == [1, 0]
        assert ends[1].done and len(ends[1].route) - 1 == lengths[1]
        assert isinstance(ends[0], DeadEndError)
        assert str(ends[0]) == f"rollout exceeded {cap} steps without terminating"
        assert sum(slot == 0 for slot, _, _ in moves) == cap

    def test_ends_play_only_as_far_as_they_are_read(self):
        game, lengths = self.evrp_case()
        moves, ends, _ = play_seats(game, (highest_legal, customers_first), None, np.random.default_rng(0))
        assert moves == []
        slot, end = next(ends)
        assert slot == 1 and len(end.route) - 1 == lengths[1]
        assert [slot for slot, _, _ in moves] == [0, 1] * lengths[1]
        assert [slot for slot, _ in ends] == [0]
        assert [sum(slot == i for slot, _, _ in moves) for i in (0, 1)] == lengths
