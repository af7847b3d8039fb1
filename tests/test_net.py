import hashlib
import multiprocessing
import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from routezero import autodiff as ad
from routezero import net as net_mod
from routezero.baselines import greedy_rollouts
from routezero.env import RoutingGame, initial_state, legal_actions, step
from routezero.instance import TspInstance, generate_evrp, generate_tsp
from routezero.net import (
    LOGIT_CLIP,
    Adam,
    CheckpointError,
    NetConfig,
    PolicyValueNet,
    featurize,
    greedy_actions,
    load_net,
    net_from_arrays,
    net_to_arrays,
    save_net,
    stack_features,
    stack_states,
)
from routezero.planner import GreedyNetPolicy, NetEvaluator, PlannerConfig, plan
from routezero.trainer import PolicyBuffer, TrainConfig, TrainerState, ValueBuffer, load_checkpoint, save_checkpoint

TINY = dict(embed_dim=16, n_heads=2, n_layers=1, ffn_dim=32, batch_size=8, learning_rate=1e-2)
DESK_NET = dict(embed_dim=32, n_heads=4, n_layers=2, ffn_dim=64, batch_size=64, learning_rate=1e-3)
DEFAULT_NET = {}  # the NetConfig defaults
PINNED_DESK_STEPS = "fdaa5e9693dc86d545ddb0c7edfe3e049fce8129fc26c62f1014307393eb3ff9"


def tiny_net(problem="tsp", seed=0, **overrides):
    return PolicyValueNet.create(NetConfig(problem=problem, **{**TINY, **overrides}), seed=seed)


def stack(states, legal=True):
    """`forward` input for a list of states, with their legal masks unless ``legal`` is False."""
    batch = stack_features([featurize(s) for s in states])
    if legal:
        batch["legal"] = np.stack([legal_actions(s) for s in states])
    return batch


def logits_of(net, state):
    return net.forward(stack([state]))[0]


def tape_forward(net, own, opp=None):
    """What `forward` computes, run on autodiff tensors through the same builders."""
    t = net._tensors(train=False)
    nodes = own["nodes"] if opp is None else np.concatenate([own["nodes"], opp["nodes"]])
    h, pooled = net._encode(t, nodes, training=False, update_stats=False)
    if opp is not None:
        b = own["nodes"].shape[0]
        h, pooled, pooled_opp = ad.Tensor(h.data[:b]), ad.Tensor(pooled.data[:b]), ad.Tensor(pooled.data[b:])
    logits = np.where(own["legal"], net._policy_logits(t, h, pooled, own).data, -np.inf)
    return logits if opp is None else (logits, net._value(t, pooled, pooled_opp).data)


def random_states(inst, count, rng):
    """``count`` live states after random legal prefixes of 0 to 3 moves."""
    states = []
    while len(states) < count:
        state = initial_state(inst)
        for _ in range(rng.integers(0, 4)):
            state = step(state, int(rng.choice(np.flatnonzero(legal_actions(state)))))
        if not state.done:
            states.append(state)
    return states


class TestNetConfig:
    def test_rejects_unknown_problem(self):
        with pytest.raises(ValueError, match="problem"):
            NetConfig(problem="knapsack")

    def test_heads_must_divide_embedding(self):
        with pytest.raises(ValueError, match="divisible"):
            NetConfig(embed_dim=100, n_heads=8)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            NetConfig(n_layers=0)
        with pytest.raises(ValueError):
            NetConfig(learning_rate=0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1e-3])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            NetConfig(learning_rate=rate)

    def test_feature_layout_follows_problem(self):
        tsp = NetConfig(problem="tsp")
        evrp = NetConfig(problem="evrp")
        assert tsp.context_features == 3 * tsp.embed_dim and evrp.context_features == 2 * evrp.embed_dim + 4
        assert evrp.node_features == tsp.node_features + 2


class TestFeaturize:
    def test_tsp_initial(self):
        inst = generate_tsp(5, seed=3)
        f = featurize(initial_state(inst))
        assert f.nodes.shape == (5, 5)
        np.testing.assert_array_equal(f.nodes[:, 0:2], inst.coords)
        assert f.nodes[:, 2:].sum() == 0.0
        assert f.current == -1 and f.first == -1
        assert f.globals_.size == 0

    def test_tsp_marks_first_and_current(self):
        inst = generate_tsp(5, seed=3)
        state = step(step(initial_state(inst), 2), 4)
        f = featurize(state)
        assert f.current == 4 and f.first == 2
        assert f.nodes[2, 3] == 1.0 and f.nodes[4, 4] == 1.0
        np.testing.assert_array_equal(f.nodes[:, 2], state.served)

    def test_evrp_globals_track_the_vehicle(self):
        inst = generate_evrp(3, 1, seed=4)
        state = initial_state(inst)
        f = featurize(state)
        assert f.nodes.shape == (inst.n_nodes, 7)
        np.testing.assert_array_equal(f.globals_, [1.0, 0.0, 1.0, 0.0])
        nxt = step(state, int(inst.customer_ids[0]))
        g = featurize(nxt).globals_
        assert g[0] < 1.0 and g[1] > 0.0 and g[2] < 1.0

    def test_evrp_kind_one_hot(self):
        inst = generate_evrp(3, 2, seed=4)
        f = featurize(initial_state(inst))
        onehot = f.nodes[:, 3:6]
        assert (onehot.sum(axis=1) == 1.0).all()
        assert onehot[0, 0] == 1.0

    def test_unknown_instance_type_raises(self):
        state = replace(initial_state(generate_tsp(4, seed=5)), instance=object())
        with pytest.raises(TypeError, match="got object"):
            featurize(state)

    def test_stack_features(self):
        inst = generate_tsp(4, seed=5)
        batch = stack_features([featurize(initial_state(inst))] * 3)
        assert batch["nodes"].shape == (3, 4, 5)
        assert batch["current"].dtype == np.int64

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    def test_stack_states_adds_each_states_own_mask(self, problem):
        inst = generate_tsp(5, seed=6) if problem == "tsp" else generate_evrp(3, 1, seed=6)
        states = random_states(inst, 3, np.random.default_rng(7))
        finished = initial_state(inst)
        while not finished.done:
            finished = step(finished, int(np.flatnonzero(legal_actions(finished))[0]))
        batch = stack_states([*states, finished])
        reference = stack_features([featurize(s) for s in (*states, finished)])
        assert batch.keys() == {*reference, "legal"}
        for key, value in reference.items():
            np.testing.assert_array_equal(batch[key], value)
        np.testing.assert_array_equal(batch["legal"][:3], [legal_actions(s) for s in states])
        assert batch["legal"].dtype == bool and not batch["legal"][3].any()


class TestForward:
    def test_logits_masked_and_clipped(self):
        inst = generate_tsp(6, seed=6)
        net = tiny_net("tsp")
        state = step(initial_state(inst), 3)
        legal = legal_actions(state)
        logits = logits_of(net, state)
        assert np.isneginf(logits[~legal]).all()
        assert (np.abs(logits[legal]) <= LOGIT_CLIP).all()

    def test_value_bounded(self):
        inst = generate_evrp(4, 2, seed=7)
        net = tiny_net("evrp")
        state = initial_state(inst)
        _, values = net.forward(stack([state]), stack([state], legal=False))
        assert values.shape == (1,)
        assert -1.0 <= values[0] <= 1.0

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    def test_stacked_batch_matches_single_states(self, problem):
        inst = generate_tsp(6, seed=8) if problem == "tsp" else generate_evrp(4, 2, seed=8)
        net = tiny_net(problem)
        first = int(np.flatnonzero(legal_actions(initial_state(inst)))[-1])
        own = [initial_state(inst), step(initial_state(inst), first)]
        own.append(step(own[1], int(np.flatnonzero(legal_actions(own[1]))[0])))
        opp = [own[2], own[0], own[1]]

        logits = net.forward(stack(own))
        assert isinstance(logits, np.ndarray) and logits.shape == (3, inst.n_nodes)
        pair_logits, values = net.forward(stack(own), stack(opp, legal=False))
        assert values.shape == (3,)
        for k in range(3):
            legal = legal_actions(own[k])
            assert np.isneginf(logits[k][~legal]).all() and np.isfinite(logits[k][legal]).all()
            np.testing.assert_allclose(logits[k], logits_of(net, own[k]), rtol=1e-12)
            np.testing.assert_allclose(pair_logits[k], logits[k], rtol=1e-12)
            single_logits, single_value = net.forward(stack([own[k]]), stack([opp[k]], legal=False))
            np.testing.assert_allclose(pair_logits[k], single_logits[0], rtol=1e-12)
            assert values[k] == pytest.approx(single_value[0], rel=1e-12)

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_matches_the_tape_bit_for_bit(self, problem, batch_size):
        inst = generate_tsp(7, seed=13) if problem == "tsp" else generate_evrp(5, 2, seed=13)
        net = tiny_net(problem, n_layers=2)
        rng = np.random.default_rng(13)
        for key, stat in net.bn_stats.items():
            stat[:] = rng.uniform(0.5, 2.0, stat.shape) if key.endswith("/var") else rng.normal(0.0, 0.5, stat.shape)
        own = stack(random_states(inst, batch_size, rng))
        opp = stack(random_states(inst, batch_size, rng), legal=False)
        assert net.forward(own).tobytes() == tape_forward(net, own).tobytes()
        (logits, values), (tape_logits, tape_values) = net.forward(own, opp), tape_forward(net, own, opp)
        assert logits.tobytes() == tape_logits.tobytes()
        assert values.tobytes() == tape_values.tobytes()

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    @pytest.mark.parametrize("batch_size", [1, 4, 8])
    def test_opp_row_matches_one_opponent_per_row_bit_for_bit(self, problem, batch_size):
        inst = generate_tsp(7, seed=15) if problem == "tsp" else generate_evrp(5, 2, seed=15)
        net = tiny_net(problem, n_layers=2)
        rng = np.random.default_rng(15 + batch_size)
        own = stack(random_states(inst, batch_size, rng))
        opps = []
        while len(opps) < max(1, batch_size // 2):
            state = random_states(inst, 1, rng)[0]
            if all(state.route != o.route for o in opps):
                opps.append(state)
        opp_row = rng.permutation(np.arange(batch_size) % len(opps))
        expect_logits, expect_values = net.forward(own, stack([opps[r] for r in opp_row], legal=False))
        logits, values = net.forward({**own, "opp_row": opp_row}, stack(opps, legal=False))
        assert logits.tobytes() == expect_logits.tobytes()
        assert values.tobytes() == expect_values.tobytes()

    def test_builds_no_autodiff_tensor(self, monkeypatch):
        inst = generate_evrp(4, 2, seed=14)
        net = tiny_net("evrp")
        own, opp = stack([initial_state(inst)]), stack([initial_state(inst)], legal=False)

        def refuse(self, *args, **kwargs):
            raise AssertionError("an autodiff.Tensor was built")

        monkeypatch.setattr(ad.Tensor, "__init__", refuse)
        net.forward(own)
        net.forward(own, opp)
        with pytest.raises(AssertionError, match="Tensor was built"):
            net._tensors(train=False)

    def test_forward_is_deterministic(self):
        inst = generate_tsp(5, seed=9)
        net = tiny_net("tsp")
        batch = stack([initial_state(inst)])
        np.testing.assert_array_equal(net.forward(batch), net.forward(batch))

    def test_same_seed_same_net(self):
        a, b = tiny_net(seed=3), tiny_net(seed=3)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        c = tiny_net(seed=4)
        assert any((a.params[k] != c.params[k]).any() for k in a.params)

    def test_permutation_equivariance(self):
        coords = np.random.default_rng(11).uniform(size=(6, 2))
        perm = np.array([3, 1, 5, 0, 2, 4])
        inv = np.argsort(perm)
        net = tiny_net("tsp")

        state = step(step(initial_state(TspInstance(coords=coords)), 2), 0)
        logits = logits_of(net, state)

        pstate = step(step(initial_state(TspInstance(coords=coords[perm])), int(inv[2])), int(inv[0]))
        plogits = logits_of(net, pstate)
        np.testing.assert_allclose(plogits, logits[perm], rtol=1e-9, atol=1e-10)

    def test_greedy_action_is_legal(self):
        # an untrained net may never terminate, so only walk a bounded prefix
        inst = generate_evrp(4, 2, seed=12)
        net = tiny_net("evrp")
        state = initial_state(inst)
        for _ in range(40):
            if state.done:
                break
            actions, _ = greedy_actions(net, [state])
            a = int(actions[0])
            assert legal_actions(state)[a]
            state = step(state, a)

    def test_greedy_actions_skip_the_forward_only_when_every_move_is_forced(self, monkeypatch):
        net = tiny_net("tsp")
        calls = []
        forward = net.forward
        monkeypatch.setattr(net, "forward", lambda own, opp=None: calls.append(len(own["nodes"])) or forward(own, opp))
        insts = [generate_tsp(5, seed=s) for s in range(3)]
        forced = [initial_state(inst) for inst in insts]
        for k, order in enumerate([(4, 0, 2, 1), (0, 4, 1, 2), (2, 1, 0, 4)]):
            for city in order:  # city 3 is left
                forced[k] = step(forced[k], city)
        open_ = step(initial_state(insts[0]), 3)
        actions, rows = greedy_actions(net, forced)
        assert (calls, rows) == ([], 0)
        assert actions.tolist() == [3, 3, 3] and [legal_actions(s).sum() for s in forced] == [1, 1, 1]
        mixed = [forced[0], open_, forced[2]]
        actions, rows = greedy_actions(net, mixed)
        assert (calls, rows) == ([3], 3)
        assert actions.tolist() == np.argmax(forward(stack(mixed)), axis=1).tolist()
        assert actions[0] == actions[2] == 3


def small_case(problem, seed):
    return generate_tsp(7, seed=seed) if problem == "tsp" else generate_evrp(5, 2, seed=seed)


def split_rows(monkeypatch, cpus):
    """Make every inference forward share its encode among ``cpus`` threads (at most one per row).

    Returns the recorded row count of each inference encode, one per chunk.
    """
    monkeypatch.setattr(net_mod, "SPLIT_MIN_WORK", 0)
    monkeypatch.setattr(ad, "usable_cpus", lambda: cpus)
    return record_encodes(monkeypatch)


def record_encodes(monkeypatch):
    encodes = []
    encode = PolicyValueNet._encode

    def recording(self, t, nodes, training, update_stats, ops=ad):
        encodes.append(nodes.shape[0])
        return encode(self, t, nodes, training, update_stats, ops)

    monkeypatch.setattr(PolicyValueNet, "_encode", recording)
    return encodes


def forward_bytes(net, batch):
    return net.forward(batch).tobytes()


class TestRowChunks:
    """A large inference forward encodes its rows in chunks on worker threads, with the serial bits."""

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    @pytest.mark.parametrize("size", [DESK_NET, DEFAULT_NET])
    def test_encoder_rows_do_not_depend_on_their_batch(self, problem, size):
        # the property the split rests on: each row's h and pooled have the same bits alone as in a batch
        net = PolicyValueNet.create(NetConfig(problem=problem, **size), seed=2)
        rng = np.random.default_rng(21)
        for key, stat in net.bn_stats.items():
            stat[:] = rng.uniform(0.5, 2.0, stat.shape) if key.endswith("/var") else rng.normal(0.0, 0.5, stat.shape)
        nodes = stack(random_states(small_case(problem, 21), 9, rng))["nodes"]
        h, pooled = net._encode(net.params, nodes, training=False, update_stats=False, ops=ad.ARRAY_OPS)
        for row in range(len(nodes)):
            alone_h, alone_pooled = net._encode(net.params, nodes[row : row + 1], False, False, ops=ad.ARRAY_OPS)
            assert h[row].tobytes() == alone_h[0].tobytes()
            assert pooled[row].tobytes() == alone_pooled[0].tobytes()

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    @pytest.mark.parametrize(
        "cpus, batch_size, chunks",
        [  # the chunks of own alone, of own with opp and of own with half of opp through opp_row
            (2, 5, [[3, 2], [5, 5], [4, 3]]),
            (3, 7, [[3, 3, 1], [5, 5, 4], [4, 4, 2]]),
            (2, 1, [[1], [1, 1], [1, 1]]),
            (2, 40, [[16, 16, 8], [16, 16, 16, 16, 16], [16, 16, 16, 12]]),
        ],
    )
    def test_split_forward_returns_the_serial_bits(self, monkeypatch, problem, cpus, batch_size, chunks):
        net = PolicyValueNet.create(NetConfig(problem=problem, **DESK_NET), seed=3)
        rng = np.random.default_rng(30 + batch_size)
        own = stack(random_states(small_case(problem, 30), batch_size, rng))
        opp = stack(random_states(small_case(problem, 30), batch_size, rng), legal=False)
        opp_row = rng.permutation(batch_size) % max(1, batch_size // 2)
        half = {k: v[: max(1, batch_size // 2)] for k, v in opp.items()}
        serial = [net.forward(own), *net.forward(own, opp), *net.forward({**own, "opp_row": opp_row}, half)]
        encodes = split_rows(monkeypatch, cpus)
        split = [net.forward(own), *net.forward(own, opp), *net.forward({**own, "opp_row": opp_row}, half)]
        assert [a.tobytes() for a in split] == [a.tobytes() for a in serial]
        for expected in chunks:  # the threads take a forward's chunks in any order
            assert sorted(encodes[: len(expected)], reverse=True) == expected
            del encodes[: len(expected)]

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    def test_split_greedy_rollouts_and_evaluator_return_the_serial_bits(self, monkeypatch, problem):
        net = PolicyValueNet.create(NetConfig(problem=problem, **DESK_NET), seed=4)
        insts = [small_case(problem, 40 + k) for k in range(5)]
        pairs = [tuple(random_states(inst, 2, np.random.default_rng(k))) for k, inst in enumerate(insts * 2)]
        pairs.append((pairs[0][0], pairs[1][1]))  # shares its opponent state with pair 1

        def outputs():
            rolled = greedy_rollouts(insts, net)
            rollouts = [str(r) if isinstance(r, Exception) else (r.route, r.objective) for r in rolled]
            evaluated = NetEvaluator(net, net.copy()).evaluate_batch(pairs)
            return rollouts, [(logits.tobytes(), value) for logits, value in evaluated]

        serial = outputs()
        encodes = split_rows(monkeypatch, 2)
        assert outputs() == serial
        assert encodes[:2] in ([3, 2], [2, 3]), "the first greedy step encodes its 5 states in two chunks"

    def test_a_default_size_forward_splits_above_about_64_node_rows(self, monkeypatch):
        net = PolicyValueNet.create(NetConfig(problem="tsp"), seed=5)
        monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
        encodes = record_encodes(monkeypatch)
        for n, batch_size in ((8, 8), (8, 9), (10, 8)):  # 64, 72 and 80 node rows
            inst = generate_tsp(n, seed=5)
            net.forward(stack(random_states(inst, batch_size, np.random.default_rng(5))))
            assert sorted(encodes, reverse=True) == {64: [8], 72: [5, 4], 80: [4, 4]}[n * batch_size]
            encodes.clear()

    def test_desk_search_and_greedy_eval_start_no_worker(self, monkeypatch):
        monkeypatch.setattr(ad, "_pool", None)
        threads = threading.active_count()
        net = PolicyValueNet.create(NetConfig(problem="tsp", **DESK_NET), seed=6)
        insts = [generate_tsp(6, seed=600 + k) for k in range(64)]
        greedy_rollouts(insts, net)
        state = initial_state(insts[0])
        evaluator, opponent = NetEvaluator(net), GreedyNetPolicy(net)
        plan(state, state, evaluator, opponent, PlannerConfig(), RoutingGame(insts[0]), rng=np.random.default_rng(6))
        assert ad._pool is None and threading.active_count() == threads

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
    def test_a_forked_child_starts_a_pool_of_its_own(self, monkeypatch):
        net = PolicyValueNet.create(NetConfig(problem="tsp", **DESK_NET), seed=8)
        batch = stack(random_states(generate_tsp(6, seed=8), 5, np.random.default_rng(8)))
        serial = net.forward(batch).tobytes()
        split_rows(monkeypatch, 2)
        assert net.forward(batch).tobytes() == serial and ad._pool is not None
        with multiprocessing.get_context("fork").Pool(1) as pool:  # the child inherits no worker thread
            assert pool.apply_async(forward_bytes, (net, batch)).get(timeout=60) == serial

    @pytest.mark.parametrize("failing", ["first", "last"])
    def test_an_error_in_a_chunk_is_raised_from_forward(self, monkeypatch, failing):
        # chunks are taken in turn, so the calling thread may take both: the failing chunk is chosen by its rows
        net = PolicyValueNet.create(NetConfig(problem="tsp", **DESK_NET), seed=7)
        batch = stack(random_states(generate_tsp(6, seed=7), 4, np.random.default_rng(7)))
        rows = batch["nodes"][:2] if failing == "first" else batch["nodes"][2:]
        encodes = split_rows(monkeypatch, 2)
        encode = PolicyValueNet._encode

        def failing_chunk(self, t, nodes, *args, **kwargs):
            if np.array_equal(nodes, rows):
                raise FloatingPointError(f"{failing} chunk failed")
            return encode(self, t, nodes, *args, **kwargs)

        monkeypatch.setattr(PolicyValueNet, "_encode", failing_chunk)
        with pytest.raises(FloatingPointError, match=f"{failing} chunk failed"):
            net.forward(batch)
        assert encodes == [2], "the other chunk ran"


def training_batches(inst, size, rng):
    """A policy batch (random targets on the legal moves) and a value batch (random pairs, z = +-1)."""
    policy = stack(random_states(inst, size, rng))
    target = rng.uniform(0.1, 1.0, policy["legal"].shape) * policy["legal"]
    policy["target"] = target / target.sum(axis=1, keepdims=True)
    value = {
        "own_nodes": stack(random_states(inst, size, rng), legal=False)["nodes"],
        "opp_nodes": stack(random_states(inst, size, rng), legal=False)["nodes"],
        "z": rng.choice([-1.0, 1.0], size),
    }
    return policy, value


def one_tape_train_step(net, policy_batch, value_batch, adam):
    """`train_step` with all three encodes on one tape and one ``backward()`` of the summed loss."""
    t = net._tensors(train=True)
    p_loss = v_loss = None
    if policy_batch is not None:
        h, pooled = net._encode(t, policy_batch["nodes"], training=True, update_stats=True)
        logits = net._policy_logits(t, h, pooled, policy_batch)
        p_loss = ad.masked_cross_entropy(logits, policy_batch["legal"], policy_batch["target"])
    if value_batch is not None:
        _, pooled_own = net._encode(t, value_batch["own_nodes"], training=True, update_stats=True)
        _, pooled_opp = net._encode(t, value_batch["opp_nodes"], training=True, update_stats=True)
        v_loss = ad.mse(net._value(t, pooled_own, pooled_opp), value_batch["z"])
    losses = [loss for loss in (p_loss, v_loss) if loss is not None]
    (losses[0] if len(losses) == 1 else ad.add(*losses)).backward()
    adam.update(net.params, {k: tt.grad for k, tt in t.items() if tt.grad is not None}, net.config.learning_rate)
    return tuple(0.0 if loss is None else float(loss.data) for loss in (p_loss, v_loss))


def train_step_peak_bytes(net, policy_batch, value_batch):
    """Peak traced allocation of one `train_step` above what was allocated before it."""
    adam = Adam.zeros(net.params)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        net.train_step(policy_batch, value_batch, adam)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def one_hot_policy_batch(inst, action):
    state = initial_state(inst)
    legal = legal_actions(state)
    target = np.zeros(inst.n_nodes)
    target[action] = 1.0
    batch = stack_features([featurize(state)])
    batch["legal"] = legal[None]
    batch["target"] = target[None]
    return batch


class TestTrainStep:
    def test_policy_overfits_one_hot(self):
        inst = generate_tsp(5, seed=13)
        net = tiny_net("tsp")
        batch = one_hot_policy_batch(inst, action=3)
        adam = Adam.zeros(net.params)
        first_loss = net.train_step(batch, None, adam)[0]
        for _ in range(150):
            p_loss, _ = net.train_step(batch, None, adam)
        assert p_loss < min(0.05, first_loss)
        state = initial_state(inst)
        assert int(np.argmax(logits_of(net, state))) == 3

    def test_value_overfits_pair_labels(self):
        inst = generate_evrp(3, 1, seed=14)
        net = tiny_net("evrp")
        a = featurize(initial_state(inst))
        b = featurize(step(initial_state(inst), int(inst.customer_ids[0])))
        batch = {
            "own_nodes": np.stack([a.nodes, b.nodes]),
            "opp_nodes": np.stack([b.nodes, a.nodes]),
            "z": np.array([1.0, -1.0]),
        }
        adam = Adam.zeros(net.params)
        for _ in range(200):
            _, v_loss = net.train_step(None, batch, adam)
        assert v_loss < 0.05

    def test_noop_step_changes_nothing(self):
        net = tiny_net("tsp")
        before = {k: v.copy() for k, v in net.params.items()}
        adam = Adam.zeros(net.params)
        assert net.train_step(None, None, adam) == (0.0, 0.0)
        assert adam.t == 0
        for k in before:
            np.testing.assert_array_equal(net.params[k], before[k])

    def test_each_head_updates_parameters(self):
        inst = generate_tsp(5, seed=15)
        net = tiny_net("tsp")
        before = {k: v.copy() for k, v in net.params.items()}
        adam = Adam.zeros(net.params)
        net.train_step(one_hot_policy_batch(inst, 2), None, adam)
        assert adam.t == 1
        assert any((net.params[k] != before[k]).any() for k in net.params)

    def test_training_moves_running_stats(self):
        inst = generate_tsp(5, seed=16)
        net = tiny_net("tsp")
        before = {k: v.copy() for k, v in net.bn_stats.items()}
        net.train_step(one_hot_policy_batch(inst, 1), None, Adam.zeros(net.params))
        assert any((net.bn_stats[k] != before[k]).any() for k in net.bn_stats)

    def test_adam_update_follows_the_formula(self):
        # bias-corrected Adam, beta1 0.9, beta2 0.999, eps 1e-8, written out by hand over three steps
        rng = np.random.default_rng(21)
        params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
        expect = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v2 = {k: np.zeros_like(v) for k, v in params.items()}
        adam = Adam.zeros(params)
        for t in (1, 2, 3):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            adam.update(params, grads, 0.01)
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + 0.1 * g
                v2[k] = 0.999 * v2[k] + 0.001 * g * g
                expect[k] -= 0.01 * (m[k] / (1 - 0.9**t)) / (np.sqrt(v2[k] / (1 - 0.999**t)) + 1e-8)
        assert adam.t == 3
        for k in params:
            np.testing.assert_allclose(params[k], expect[k], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(adam.m[k], m[k], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(adam.v[k], v2[k], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    @pytest.mark.parametrize("heads", ["both", "policy", "value"])
    def test_matches_one_tape_of_the_summed_loss_bit_for_bit(self, problem, heads):
        inst = generate_tsp(7, seed=17) if problem == "tsp" else generate_evrp(5, 2, seed=17)
        net = tiny_net(problem, n_layers=2)
        reference = net.copy()
        adam, reference_adam = Adam.zeros(net.params), Adam.zeros(reference.params)
        rng = np.random.default_rng(17)
        for _ in range(3):
            policy, value = training_batches(inst, 6, rng)
            policy = None if heads == "value" else policy
            value = None if heads == "policy" else value
            assert net.train_step(policy, value, adam) == one_tape_train_step(reference, policy, value, reference_adam)
        for mine, theirs in ((net.params, reference.params), (net.bn_stats, reference.bn_stats)):
            assert all(np.array_equal(mine[k], theirs[k]) for k in theirs)
        for mine, theirs in ((adam.m, reference_adam.m), (adam.v, reference_adam.v)):
            assert all(np.array_equal(mine[k], theirs[k]) for k in theirs)
        assert adam.t == reference_adam.t == 3

    def test_only_one_loss_tape_is_alive_at_a_time(self):
        # the policy tape is freed before the value graph is built, so both heads together
        # peak near the value head alone; holding both tapes would add the policy peak to it
        net = PolicyValueNet.create(NetConfig(problem="tsp", embed_dim=64, n_heads=4, n_layers=2, ffn_dim=128))
        policy, value = training_batches(generate_tsp(10, seed=18), 64, np.random.default_rng(18))
        policy_only = train_step_peak_bytes(net.copy(), policy, None)
        value_only = train_step_peak_bytes(net.copy(), None, value)
        both = train_step_peak_bytes(net.copy(), policy, value)
        assert both < value_only + policy_only / 2

    def test_a_value_step_peaks_below_50_activations(self):
        # the value loss is backpropagated in two halves, so one encode's tape is alive at a time;
        # each encoder layer keeps about 17 (B, N, embed) activations of this shape, so one
        # two-layer tape and the half-freed next one stay below 50 of them (two tapes: about 78)
        net = PolicyValueNet.create(NetConfig(problem="tsp", embed_dim=64, n_heads=4, n_layers=2, ffn_dim=128))
        _, value = training_batches(generate_tsp(10, seed=18), 64, np.random.default_rng(18))
        activation = 64 * 10 * 64 * np.dtype(np.float64).itemsize
        assert train_step_peak_bytes(net, None, value) < 50 * activation

    def test_a_value_step_peaks_near_a_policy_step(self):
        # both hold one encoder tape at their peak, so a value step costs little more memory than a
        # policy step of the same batch; with own's and the opponent's tapes alive together it took 1.8x
        net = PolicyValueNet.create(NetConfig(problem="tsp", embed_dim=64, n_heads=4, n_layers=2, ffn_dim=128))
        policy, value = training_batches(generate_tsp(10, seed=18), 64, np.random.default_rng(18))
        policy_only = train_step_peak_bytes(net.copy(), policy, None)
        assert train_step_peak_bytes(net.copy(), None, value) < 1.15 * policy_only

    def test_desk_steps_keep_their_pinned_bits(self):
        # SHA-256 of the losses, weights and running statistics after two desk-size steps: any change
        # to the floats of a train step changes it.  The GEMMs' rounding is part of it; it was recorded
        # on x86-64 with numpy 2.4 on OpenBLAS 0.3.31.
        net = PolicyValueNet.create(NetConfig(problem="tsp", **DESK_NET), seed=0)
        adam = Adam.zeros(net.params)
        rng = np.random.default_rng(24)
        digest = hashlib.sha256()
        for _ in range(2):
            policy, value = training_batches(generate_tsp(6, seed=24), DESK_NET["batch_size"], rng)
            digest.update(np.array(net.train_step(policy, value, adam)).tobytes())
        for arrays in (net.params, net.bn_stats):
            for k in sorted(arrays):
                digest.update(arrays[k].tobytes())
        assert digest.hexdigest() == PINNED_DESK_STEPS

    def test_net_carries_no_optimizer_state(self):
        net = tiny_net("tsp")
        net.train_step(one_hot_policy_batch(generate_tsp(5, seed=15), 2), None, Adam.zeros(net.params))
        assert set(vars(net)) == {"config", "params", "bn_stats"}
        assert set(vars(net.copy())) == {"config", "params", "bn_stats"}


class RecordingPool(ThreadPoolExecutor):
    """A worker pool that keeps every future it hands out."""

    def __init__(self, workers):
        super().__init__(workers, thread_name_prefix="test-pool")
        self.futures = []

    def submit(self, fn, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.futures.append(future)
        return future


@pytest.fixture
def recording_pool(monkeypatch):
    """Every pooled step on a fresh two-worker `RecordingPool`, shut down after the test."""
    pool = RecordingPool(2)
    monkeypatch.setattr(ad, "_pool", pool)
    yield pool
    pool.shutdown(wait=True)


def pool_train_steps(monkeypatch, cpus, chunk_states=3):
    """Make every train step pool its work over ``cpus`` threads, in sublayer chunks of ``chunk_states`` states."""
    monkeypatch.setattr(net_mod, "SPLIT_MIN_WORK", 0)
    monkeypatch.setattr(ad, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(ad, "CHUNK_STATES", chunk_states)


def step_state(net, adam, losses=()):
    """Bytes of everything a train step changes: losses, params, running statistics and Adam's m, v and t."""
    arrays = [np.array(losses), np.array(adam.t)]
    for group in (net.params, net.bn_stats, adam.m, adam.v):
        arrays += [group[k] for k in sorted(group)]
    return [a.tobytes() for a in arrays]


class TestPooledTrainStep:
    """A large train step shares its sublayer forwards and weight-gradient products with the worker pool, bit for bit."""

    @pytest.mark.parametrize("problem", ["tsp", "evrp"])
    @pytest.mark.parametrize("heads", ["both", "policy", "value"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_pooled_steps_give_the_serial_bits(self, monkeypatch, problem, heads, cpus):
        inst = small_case(problem, 19)
        rng = np.random.default_rng(19)
        batches = []
        for _ in range(2):
            policy, value = training_batches(inst, 11, rng)  # 11 states: chunks of 3, 3, 3 and 2
            batches.append((None if heads == "value" else policy, None if heads == "policy" else value))
        serial, pooled = tiny_net(problem, n_layers=2), tiny_net(problem, n_layers=2)
        serial_adam, pooled_adam = Adam.zeros(serial.params), Adam.zeros(pooled.params)
        serial_losses = [serial.train_step(policy, value, serial_adam) for policy, value in batches]

        pool_train_steps(monkeypatch, cpus)
        calls = []
        for name in ("_transposed_product", "_ffn"):
            real = getattr(ad, name)

            def recording(a, *args, _real=real, _name=name):
                calls.append((_name, len(a), threading.current_thread() is threading.main_thread()))
                return _real(a, *args)

            monkeypatch.setattr(ad, name, recording)
        pooled_losses = [pooled.train_step(policy, value, pooled_adam) for policy, value in batches]
        assert step_state(pooled, pooled_adam, pooled_losses) == step_state(serial, serial_adam, serial_losses)
        assert sorted(rows for name, rows, _ in calls if name == "_ffn")[-1] == 3, "each ffn ran in chunks"
        assert {main for name, _, main in calls if name == "_transposed_product"} == {False}, "products on the pool"

    def test_a_16_state_step_runs_in_two_8_state_chunks(self, monkeypatch):
        # below 2 x CHUNK_STATES states a chunk is half the stack, so both threads take one
        policy, value = training_batches(generate_tsp(7, seed=23), 16, np.random.default_rng(23))
        serial, pooled = tiny_net("tsp", n_layers=2), tiny_net("tsp", n_layers=2)
        serial_adam, pooled_adam = Adam.zeros(serial.params), Adam.zeros(pooled.params)
        serial_losses = serial.train_step(policy, value, serial_adam)
        pool_train_steps(monkeypatch, 2, chunk_states=16)
        rows = []
        real = ad._ffn
        monkeypatch.setattr(ad, "_ffn", lambda x, *args: rows.append(len(x)) or real(x, *args))
        pooled_losses = pooled.train_step(policy, value, pooled_adam)
        assert step_state(pooled, pooled_adam, pooled_losses) == step_state(serial, serial_adam, serial_losses)
        assert rows == [8] * 16, "two chunks per ffn: 2 layers in each of 4 encodes (policy, opponent, own, opponent)"

    def test_a_desk_step_starts_no_pool_and_no_thread(self, monkeypatch):
        monkeypatch.setattr(ad, "_pool", None)
        monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
        threads = threading.active_count()
        net = PolicyValueNet.create(NetConfig(problem="tsp", **DESK_NET), seed=0)
        policy, value = training_batches(generate_tsp(6, seed=20), DESK_NET["batch_size"], np.random.default_rng(20))
        net.train_step(policy, value, Adam.zeros(net.params))
        assert ad._pool is None and threading.active_count() == threads

    @pytest.mark.parametrize("where", ["chunk", "product"])
    def test_a_worker_error_leaves_the_net_and_adam_unchanged(self, monkeypatch, recording_pool, where):
        net = tiny_net("tsp", n_layers=2)
        adam = Adam.zeros(net.params)
        policy, value = training_batches(generate_tsp(7, seed=21), 11, np.random.default_rng(21))
        net.train_step(policy, value, adam)
        params, m, v = ({k: a.copy() for k, a in group.items()} for group in (net.params, adam.m, adam.v))
        t = adam.t
        pool_train_steps(monkeypatch, 2)
        name = "_ffn" if where == "chunk" else "_transposed_product"
        real = getattr(ad, name)
        taken = threading.Event()

        def failing(*args):
            if threading.current_thread() is threading.main_thread():
                taken.wait(timeout=30)  # so that a worker takes a chunk of this ffn
                return real(*args)
            taken.set()
            raise FloatingPointError(f"worker {where} failed")

        monkeypatch.setattr(ad, name, failing)
        with pytest.raises(FloatingPointError, match=f"worker {where} failed"):
            net.train_step(policy, value, adam)
        assert recording_pool.futures and all(future.done() for future in recording_pool.futures)
        for now, then in ((net.params, params), (adam.m, m), (adam.v, v)):
            assert all(np.array_equal(now[k], then[k]) for k in then)
        assert adam.t == t

    def test_a_pooled_value_step_peaks_near_the_serial_one(self, monkeypatch, recording_pool):
        # the sublayer chunks write into outputs allocated once, and few products are in flight at a time
        net = PolicyValueNet.create(NetConfig(problem="tsp"), seed=22)
        _, value = training_batches(generate_tsp(10, seed=22), 64, np.random.default_rng(22))
        monkeypatch.setattr(ad, "usable_cpus", lambda: 1)
        serial = train_step_peak_bytes(net.copy(), None, value)
        assert not recording_pool.futures
        monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
        pooled = train_step_peak_bytes(net.copy(), None, value)
        assert recording_pool.futures, "a default-size step of 64 TSP-10 states pools"
        assert pooled <= 1.05 * serial


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        inst = generate_evrp(4, 2, seed=17)
        net = tiny_net("evrp")
        state = initial_state(inst)
        path = tmp_path / "net.npz"
        save_net(net, path)
        loaded = load_net(path)
        np.testing.assert_array_equal(logits_of(loaded, state), logits_of(net, state))
        assert loaded.config == net.config

    def test_optimizer_state_survives_reload(self, tmp_path):
        # the optimizer is the trainer's: its checkpoint carries theta's moments
        inst = generate_tsp(5, seed=18)
        batch = one_hot_policy_batch(inst, 1)
        net = tiny_net("tsp")
        adam = Adam.zeros(net.params)
        net.train_step(batch, None, adam)
        path = tmp_path / "ckpt.npz"
        cfg = TrainConfig(net=net.config)
        save_checkpoint(path, cfg, TrainerState(net, net.copy(), PolicyBuffer(1), ValueBuffer(1), 1, adam))
        twin = load_checkpoint(path)[1]
        assert twin.adam.t == adam.t == 1
        net.train_step(batch, None, adam)
        twin.theta.train_step(batch, None, twin.adam)
        for k in net.params:
            np.testing.assert_array_equal(twin.theta.params[k], net.params[k])
            np.testing.assert_array_equal(twin.adam.m[k], adam.m[k])
            np.testing.assert_array_equal(twin.adam.v[k], adam.v[k])

    def test_config_mismatch_rejected(self, tmp_path):
        # a dump whose embedded config does not fit its arrays
        path = tmp_path / "net.npz"
        save_net(tiny_net("tsp"), path)
        data = dict(np.load(path))
        data["theta/meta/config"] = net_to_arrays(tiny_net("evrp"), "theta/")["theta/meta/config"]
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="'theta/param/embed/W' has shape"):
            load_net(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "net.npz"
        save_net(tiny_net("tsp"), path)
        data = dict(np.load(path))
        data["meta/version"] = np.array(99)
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="version"):
            load_net(path)

    def test_missing_or_misshapen_array_names_the_key(self):
        arrays = net_to_arrays(tiny_net("tsp"), "theta/")
        del arrays["theta/stat/layer0/bn2/var"]
        with pytest.raises(CheckpointError, match="missing array 'theta/stat/layer0/bn2/var'"):
            net_from_arrays(arrays, "theta/")
        arrays = net_to_arrays(tiny_net("tsp"), "theta/")
        arrays["theta/param/embed/W"] = arrays["theta/param/embed/W"][:, :3]
        with pytest.raises(CheckpointError, match="'theta/param/embed/W' has shape"):
            net_from_arrays(arrays, "theta/")

    def test_dump_is_the_theta_slice_of_a_trainer_checkpoint(self, tmp_path):
        net = tiny_net("tsp", seed=22)
        save_net(net, tmp_path / "net.npz")
        save_checkpoint(
            tmp_path / "ckpt.npz",
            TrainConfig(net=net.config),
            TrainerState(net, tiny_net("tsp", seed=23), PolicyBuffer(1), ValueBuffer(1), 1, Adam.zeros(net.params)),
        )
        with np.load(tmp_path / "net.npz") as dump, np.load(tmp_path / "ckpt.npz") as ckpt:
            keys = set(dump.files)
            assert keys == {k for k in keys if k.startswith(("theta/param/", "theta/stat/"))} | {
                "theta/meta/config",
                "meta/version",
            }
            for k in keys:
                np.testing.assert_array_equal(dump[k], ckpt[k])

    def test_load_net_reads_theta_of_a_trainer_checkpoint_and_nothing_else(self, tmp_path, monkeypatch):
        net = tiny_net("tsp", seed=22)
        path = tmp_path / "ckpt.npz"
        adam = Adam.zeros(net.params)
        net.train_step(one_hot_policy_batch(generate_tsp(5, seed=18), 1), None, adam)
        state = TrainerState(net, tiny_net("tsp", seed=23), PolicyBuffer(1), ValueBuffer(1), 1, adam)
        save_checkpoint(path, TrainConfig(net=net.config), state)
        read = []
        real = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", lambda self, key: read.append(key) or real(self, key))
        loaded = load_net(path)
        weights = {k for k in read if k.startswith(("theta/param/", "theta/stat/"))}
        assert sorted(read) == sorted(weights | {"theta/meta/config", "meta/version"})
        assert loaded.config == net.config
        for k in net.params:
            np.testing.assert_array_equal(loaded.params[k], net.params[k])
        for k in net.bn_stats:
            np.testing.assert_array_equal(loaded.bn_stats[k], net.bn_stats[k])

    def test_save_leaves_no_temp_file(self, tmp_path):
        save_net(tiny_net("tsp"), tmp_path / "net.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["net.npz"]

    def test_failed_save_leaves_no_temp_file_and_the_old_dump(self, tmp_path, monkeypatch):
        path = tmp_path / "x.npz"
        save_net(tiny_net("tsp", seed=1), path)
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail)
        with pytest.raises(OSError, match="disk full"):
            save_net(tiny_net("tsp", seed=2), path)
        assert [p.name for p in tmp_path.iterdir()] == ["x.npz"]
        assert path.read_bytes() == before

    def test_prefixed_arrays_round_trip(self):
        net = tiny_net("evrp", seed=19)
        arrays = net_to_arrays(net, "best/")
        clone = net_from_arrays(arrays, "best/")
        for k in net.params:
            np.testing.assert_array_equal(clone.params[k], net.params[k])

    def test_copy_is_independent(self):
        net = tiny_net("tsp", seed=20)
        twin = net.copy()
        key = next(iter(twin.params))
        twin.params[key] += 1.0
        assert (net.params[key] != twin.params[key]).any()
