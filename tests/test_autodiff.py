import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from routezero import autodiff as ad
from routezero.autodiff import (
    ARRAY_OPS,
    Tensor,
    add,
    attention,
    batchnorm_nodes,
    concat,
    ffn,
    gate,
    gather_nodes,
    masked_cross_entropy,
    matmul,
    mean,
    mse,
    mul,
    relu,
    reshape,
    tanh,
)
from routezero.env import initial_state, legal_actions, step
from routezero.instance import generate_evrp, generate_tsp
from routezero.net import NetConfig, PolicyValueNet, stack_states

rng = np.random.default_rng(20240814)


def leaf(*shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def total(x):
    """Scalar sum of ``x`` on the tape: flatten, then a matmul with a ones column, whose gradient is exactly ones."""
    flat = reshape(x, (1, -1))
    return reshape(matmul(flat, Tensor(np.ones((flat.shape[1], 1)))), ())


def gradcheck(fn, *leaves, eps=1e-6, rtol=1e-5, atol=1e-8):
    """Compare backward() against central differences on every leaf entry."""
    for t in leaves:
        t.grad = None
    fn(*leaves).backward()
    for t in leaves:
        assert t.grad is not None, "leaf never received a gradient"
        flat = t.data.reshape(-1)
        numeric = np.empty_like(flat)
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + eps
            hi = float(fn(*leaves).data)
            flat[k] = saved - eps
            lo = float(fn(*leaves).data)
            flat[k] = saved
            numeric[k] = (hi - lo) / (2.0 * eps)
        np.testing.assert_allclose(t.grad.reshape(-1), numeric, rtol=rtol, atol=atol)


class TestTensorMechanics:
    def test_constants_carry_no_tape(self):
        out = tanh(Tensor(rng.normal(size=(3, 3))))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None

    def test_mixed_inputs_track_only_parameters(self):
        const = Tensor(np.ones((2, 2)))
        param = leaf(2, 2)
        loss = total(add(const, param))
        loss.backward()
        assert const.grad is None
        np.testing.assert_array_equal(param.grad, np.ones((2, 2)))

    def test_backward_needs_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            leaf(2, 3).backward()

    def test_seeded_backward_matches_the_weighted_sum(self):
        # y.backward(G) starts from G as y's gradient: every leaf gets the bits of sum(y * G)'s backward
        w0, x0, seed = rng.normal(size=(4, 3)), rng.normal(size=(5, 2, 4)), rng.normal(size=(5, 2, 3))

        def graph():
            w, x = Tensor(w0, requires_grad=True), Tensor(x0, requires_grad=True)
            return w, x, tanh(add(matmul(x, w), mul(matmul(x, w), 0.5)))

        w, x, y = graph()
        y.backward(seed)
        w_sum, x_sum, y_sum = graph()
        total(mul(y_sum, Tensor(seed))).backward()
        assert w.grad.tobytes() == w_sum.grad.tobytes()
        assert x.grad.tobytes() == x_sum.grad.tobytes()

    def test_seed_of_the_wrong_shape_raises(self):
        y = tanh(leaf(2, 3))
        with pytest.raises(ValueError, match=r"seed gradient has shape \(3, 2\), expected \(2, 3\)"):
            y.backward(np.ones((3, 2)))

    def test_reused_leaf_accumulates(self):
        x = leaf(4)
        total(mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)

    def test_backward_frees_the_tape(self):
        x, w = leaf(2, 3, 4), leaf(4, 5)
        hidden = tanh(matmul(x, w))
        loss = total(mul(hidden, hidden))
        loss.backward()
        for node in (hidden, loss):
            assert node.grad is None and node._parents == ()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_second_backward_raises(self):
        loss = total(tanh(leaf(3)))
        loss.backward()
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()

    def test_shared_upstream_gradient_is_not_aliased(self):
        # add hands its one upstream gradient to both parents; each leaf must own its copy
        a, b = leaf(2, 3), leaf(2, 3)
        total(add(a, b)).backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        a.grad += 5.0
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    def test_self_add_and_two_branches_are_exact(self):
        x = leaf(2, 3)
        total(add(x, x)).backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
        x.grad = None
        # one branch adopts a fresh array, the other passes a reshaped view through
        total(add(mul(x, 3.0), reshape(reshape(x, (3, 2)), (2, 3)))).backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 4.0))
        w, y = leaf(2, 3), leaf(2, 3)
        w_data, y_data = w.data.copy(), y.data.copy()
        total(mul(w, y)).backward()
        np.testing.assert_array_equal(w.grad, y_data)
        np.testing.assert_array_equal(y.grad, w_data)
        w.grad += 1.0
        np.testing.assert_array_equal(y.grad, w_data)
        np.testing.assert_array_equal(y.data, y_data)

    def test_leaves_accumulate_across_graphs_in_call_order(self):
        # two graphs sharing leaves, backpropagated one after the other, give each leaf
        # the same floats as one backward() of their sum, which walks the first graph first
        w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=3)
        x1, x2 = rng.normal(size=(5, 2, 4)), rng.normal(size=(6, 4))

        def losses(w, b):
            first = total(tanh(add(matmul(Tensor(x1), w), b)))
            second = total(mul(tanh(matmul(Tensor(x2), reshape(w, (4, 3)))), mul(b, 1e3)))
            return first, second

        w, b = Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
        first, second = losses(w, b)
        first.backward()
        second.backward()
        w_sum, b_sum = Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
        add(*losses(w_sum, b_sum)).backward()
        assert w.grad.tobytes() == w_sum.grad.tobytes()
        assert b.grad.tobytes() == b_sum.grad.tobytes()

    def test_diamond_graph(self):
        def fn(x):
            y = tanh(x)
            return total(add(mul(y, y), y))

        gradcheck(fn, leaf(5))


class TestOpGradients:
    def test_add_broadcast(self):
        gradcheck(lambda a, b: total(add(a, b)), leaf(3, 4), leaf(4))

    def test_scalar_broadcast(self):
        gradcheck(lambda a, b: total(mul(a, b)), leaf(3, 4), leaf(1, 1))

    def test_mul_broadcast(self):
        gradcheck(lambda a, b: total(mul(a, b)), leaf(2, 3, 4), leaf(3, 1))

    def test_sub_and_neg(self):
        gradcheck(lambda a, b: total(add(a, mul(b, -1.0))), leaf(3), leaf(3))
        gradcheck(lambda a: total(mul(a, -1.0)), leaf(3))

    def test_mul_by_a_constant(self):
        gradcheck(lambda a: total(mul(a, -2.5)), leaf(3, 2))

    def test_matmul_2d(self):
        gradcheck(lambda a, b: total(matmul(a, b)), leaf(3, 4), leaf(4, 2))

    @pytest.mark.parametrize("stack", [(2, 3), (2, 2, 3)], ids=["3d", "4d"])
    def test_matmul_batched_times_shared(self, stack):
        weight = Tensor(rng.normal(size=stack + (5,)))
        gradcheck(lambda a, b: total(mul(matmul(a, b), weight)), leaf(*stack, 4), leaf(4, 5))

    def test_matmul_shared_weight_gradient_is_exact(self):
        a, w = leaf(64, 6, 32), leaf(32, 64)
        g = rng.normal(size=(64, 6, 64))
        total(mul(matmul(a, w), Tensor(g))).backward()
        np.testing.assert_allclose(w.grad, np.einsum("bnk,bnm->km", a.data, g), rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.grad, np.einsum("bnm,km->bnk", g, w.data), rtol=0, atol=1e-12)

    def test_matmul_batched_both(self):
        gradcheck(lambda a, b: total(matmul(a, b)), leaf(2, 3, 4), leaf(2, 4, 5))

    def test_reshape(self):
        gradcheck(lambda a: total(mul(reshape(a, (6,)), reshape(a, (6,)))), leaf(2, 3))

    def test_concat_last_axis(self):
        gradcheck(lambda a, b: total(tanh(concat([a, b], axis=-1))), leaf(2, 3), leaf(2, 2))

    def test_concat_first_axis(self):
        gradcheck(lambda a, b: total(tanh(concat([a, b], axis=0))), leaf(2, 3), leaf(1, 3))

    def test_mean_axis(self):
        gradcheck(lambda a: total(mul(mean(a, axis=1), mean(a, axis=1))), leaf(3, 4))

    def test_tanh(self):
        gradcheck(lambda a: total(mul(tanh(a), tanh(a))), leaf(3, 4))

    def test_relu_away_from_kink(self):
        x = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
        gradcheck(lambda a: total(mul(relu(a), relu(a))), x)


class TestFusedSublayers:
    # each fused op against central differences, every input a leaf; a fixed random weight
    # on the output makes every output entry count with its own factor
    def test_attention_gradients(self):
        weight = Tensor(rng.normal(size=(2, 3, 4)))
        gradcheck(
            lambda x, wq, wk, wv, wo: total(mul(attention(x, wq, wk, wv, wo, 2), weight)),
            leaf(2, 3, 4),
            *(leaf(4, 4) for _ in range(4)),
        )

    def test_gate_gradients(self):
        weight = Tensor(rng.normal(size=(2, 3, 4)))
        leaves = leaf(2, 3, 4), leaf(2, 3, 4), leaf(8, 4), leaf(4)
        gradcheck(lambda x, f, w, b: total(mul(gate(x, f, w, b), weight)), *leaves)

    def test_ffn_gradients(self):
        weight = Tensor(rng.normal(size=(2, 3, 4)))
        leaves = leaf(2, 3, 4), leaf(4, 5), leaf(5), leaf(5, 4), leaf(4)
        assert np.abs(leaves[0].data @ leaves[1].data + leaves[2].data).min() > 1e-3, "a pre-activation near the kink"
        gradcheck(lambda x, w1, b1, w2, b2: total(mul(ffn(x, w1, b1, w2, b2), weight)), *leaves)

    def test_attention_weights_of_each_node_sum_to_one(self):
        # with identity value and output maps, nodes that all hold one vector get it back unchanged
        row = rng.normal(size=4)
        x = np.broadcast_to(row, (3, 5, 4)).copy()
        eye = np.eye(4)
        out = attention(Tensor(x), Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(4, 4))), eye, eye, 2)
        np.testing.assert_allclose(out.data, x, rtol=1e-12)

    def test_gate_lies_between_its_two_inputs(self):
        x, f = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4))
        out = gate(Tensor(x), Tensor(f), Tensor(rng.normal(scale=3.0, size=(8, 4))), Tensor(rng.normal(size=4))).data
        assert (out >= np.minimum(x, f) - 1e-12).all() and (out <= np.maximum(x, f) + 1e-12).all()


class TestPooling:
    """The sublayers' row-chunked forwards and the pooled backward walk give the serial bits."""

    @pytest.fixture
    def threads(self, monkeypatch):
        """3 threads: this one and 2 tasks on a fresh two-worker pool, shut down after the test."""
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(ad, "_pool", pool)
            yield 3

    def test_one_thread_calls_the_kernel_once_here_and_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(ad, "_pool", None)
        calls = []

        def kernel(x, w):
            calls.append((len(x), threading.current_thread() is threading.main_thread()))
            return (x @ w,)

        x, w = rng.normal(size=(40, 3, 4)), rng.normal(size=(4, 4))
        (out,) = ad.row_chunks(1, kernel, (x,), (w,))
        assert out.tobytes() == (x @ w).tobytes()
        assert calls == [(40, True)] and ad._pool is None

    @pytest.mark.parametrize("chunk_states", [1, 2, 4, 7])
    def test_row_chunks_give_the_bits_and_layout_of_one_call(self, monkeypatch, threads, chunk_states):
        monkeypatch.setattr(ad, "CHUNK_STATES", chunk_states)
        x, f = rng.normal(size=(7, 5, 8)), rng.normal(size=(7, 5, 8))
        ffn_weights = rng.normal(size=(8, 6)), rng.normal(size=6), rng.normal(size=(6, 8)), rng.normal(size=8)
        cases = [
            (ad._attention, (x,), (*(rng.normal(size=(8, 8)) for _ in range(4)), 2)),
            (ad._gate, (x, f), (rng.normal(size=(16, 8)), rng.normal(size=8))),
            (ad._ffn, (x,), ffn_weights),
        ]
        for kernel, rows, shared in cases:
            whole = kernel(*rows, *shared)
            chunked = ad.row_chunks(threads, kernel, rows, shared)
            assert [a.tobytes() for a in chunked] == [a.tobytes() for a in whole]
            assert [a.strides for a in chunked] == [a.strides for a in whole], "the backward reads the same layout"

    def test_row_chunks_lose_no_chunk_under_thread_switches(self, monkeypatch):
        # more threads than cores and a short switch interval: a chunk taken twice or lost, or outputs
        # allocated twice, would leave rows that differ from one call
        monkeypatch.setattr(ad, "CHUNK_STATES", 1)
        x = rng.normal(size=(64, 3, 4))
        ffn_weights = rng.normal(size=(4, 5)), rng.normal(size=5), rng.normal(size=(5, 4)), rng.normal(size=4)
        whole = [a.tobytes() for a in ad._ffn(x, *ffn_weights)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(5) as pool:
                monkeypatch.setattr(ad, "_pool", pool)
                for _ in range(20):
                    chunked = ad.row_chunks(6, ad._ffn, (x,), ffn_weights)
                    assert [a.tobytes() for a in chunked] == whole
        finally:
            sys.setswitchinterval(interval)

    def test_a_pooled_walk_sums_each_leaf_in_walk_order(self, threads):
        # w is every attention weight, a folded matmul's weight through add(w, w) and both ffn weights, so its
        # queue mixes weight-gradient products with plain contributions; x feeds two ops
        x, w, gw, gb, b1, b2 = leaf(5, 3, 4), leaf(4, 4), leaf(8, 4), leaf(4), leaf(4), leaf(4)
        weight = Tensor(rng.normal(size=(5, 3, 4)))

        def loss(x, w, gw, gb, b1, b2, pooled_ops=ad):
            a = pooled_ops.attention(x, w, w, w, w, 2)
            h = pooled_ops.gate(matmul(a, add(w, w)), x, gw, gb)
            return total(mul(pooled_ops.ffn(h, w, b1, w, b2), weight))

        leaves = (x, w, gw, gb, b1, b2)
        loss(*leaves).backward()
        copies = [Tensor(t.data, requires_grad=True) for t in leaves]
        loss(*copies, pooled_ops=ad.pooled_ops(threads)).backward(threads=threads)
        for serial, pooled in zip(leaves, copies):
            assert pooled.grad.tobytes() == serial.grad.tobytes()
            assert pooled._walk is None


class TestGatherNodes:
    def test_forward_picks_rows(self):
        a = leaf(3, 4, 2)
        out = gather_nodes(a, np.array([1, 3, 0]))
        np.testing.assert_array_equal(out.data, a.data[[0, 1, 2], [1, 3, 0]])

    def test_negative_index_gives_zero_vector(self):
        a = leaf(2, 3, 4)
        out = gather_nodes(a, np.array([-1, 2]))
        assert (out.data[0] == 0.0).all()
        np.testing.assert_array_equal(out.data[1], a.data[1, 2])

    def test_gradient(self):
        idx = np.array([-1, 2, 0])
        gradcheck(lambda a: total(mul(gather_nodes(a, idx), gather_nodes(a, idx))), leaf(3, 4, 2))


class TestBatchNorm:
    def test_training_gradients(self):
        rm, rv = np.zeros(3), np.ones(3)
        weight = Tensor(rng.normal(size=(2, 4, 3)))
        gradcheck(
            lambda a, g, b: total(mul(batchnorm_nodes(a, g, b, rm, rv, training=True), weight)),
            leaf(2, 4, 3),
            leaf(3),
            leaf(3),
            atol=1e-7,
        )

    def test_inference_gradients(self):
        rm = rng.normal(size=3)
        rv = rng.uniform(0.5, 2.0, size=3)
        gradcheck(
            lambda a, g, b: total(tanh(batchnorm_nodes(a, g, b, rm, rv, training=False))),
            leaf(2, 4, 3),
            leaf(3),
            leaf(3),
        )

    def test_training_normalizes_the_batch(self):
        a = leaf(4, 5, 3)
        y = batchnorm_nodes(a, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3), training=True)
        np.testing.assert_allclose(y.data.mean(axis=(0, 1)), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.data.var(axis=(0, 1)), 1.0, atol=1e-4)

    def test_running_stats_move_only_on_request(self):
        a = Tensor(rng.normal(loc=2.0, size=(3, 4, 2)))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        rm, rv = np.zeros(2), np.ones(2)
        batchnorm_nodes(a, gamma, beta, rm, rv, training=True)
        assert (rm == 0.0).all() and (rv == 1.0).all()
        batchnorm_nodes(a, gamma, beta, rm, rv, training=True, update_stats=True)
        mu = a.data.mean(axis=(0, 1))
        var = a.data.var(axis=(0, 1))
        np.testing.assert_allclose(rm, 0.1 * mu, rtol=1e-12)
        np.testing.assert_allclose(rv, 1.0 + 0.1 * (var - 1.0), rtol=1e-12)

    def test_inference_uses_running_stats(self):
        a = Tensor(rng.normal(size=(2, 3, 2)))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        y = batchnorm_nodes(a, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=False)
        expect = (a.data - rm) / np.sqrt(rv + 1e-5)
        np.testing.assert_allclose(y.data, expect, rtol=1e-12)


def array_op_cases(rng):
    """(name, data input, other arguments) of every `ARRAY_OPS` entry, on fresh random inputs."""
    x = rng.normal(scale=rng.uniform(0.1, 30.0), size=(3, 5, 4))
    index = rng.integers(-3, 5, size=3)
    index[rng.integers(3)] = -1
    stats = (rng.normal(size=4), rng.uniform(0.1, 3.0, size=4))
    return [
        ("Tensor", x, ()),
        ("add", x, (rng.normal(size=4),)),
        ("mul", x, (rng.normal(size=(5, 1)),)),
        ("matmul", x, (rng.normal(size=(4, 6)),)),
        ("reshape", x, ((3, 20),)),
        ("concat", [x, rng.normal(size=(3, 5, 2))], (-1,)),
        ("mean", x, (1,)),
        ("tanh", x, ()),
        ("relu", x, ()),
        ("gather_nodes", x, (index,)),
        ("batchnorm_nodes", x, (rng.normal(size=4), rng.normal(size=4), *stats, False)),
        ("attention", x, (*rng.normal(size=(4, 4, 4)), 2)),
        ("gate", x, (rng.normal(size=(3, 5, 4)), rng.normal(size=(8, 4)), rng.normal(size=4))),
        ("ffn", x, (rng.normal(size=(4, 6)), rng.normal(size=6), rng.normal(size=(6, 4)), rng.normal(size=4))),
    ]


class TestArrayOps:
    @pytest.mark.parametrize("seed", range(8))
    def test_each_entry_is_its_tape_forward_bit_for_bit(self, seed):
        cases = array_op_cases(np.random.default_rng(seed))
        assert [name for name, _, _ in cases] == list(vars(ARRAY_OPS))
        for name, data, rest in cases:
            if name == "Tensor":
                tape_data = data
            elif name == "concat":
                tape_data = [Tensor(part, requires_grad=True) for part in data]
            else:
                tape_data = Tensor(data, requires_grad=True)
            tape = getattr(ad, name)(tape_data, *rest)
            plain = getattr(ARRAY_OPS, name)(data, *rest)
            assert isinstance(plain, np.ndarray) and plain.dtype == np.float64, name
            assert plain.shape == tape.data.shape and plain.tobytes() == tape.data.tobytes(), name

    def test_training_mode_batch_norm_is_refused(self):
        x = rng.normal(size=(2, 3, 4))
        with pytest.raises(ValueError, match="inference mode only"):
            ARRAY_OPS.batchnorm_nodes(x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), True)

    def test_the_net_calls_exactly_the_namespace_and_autodiff_has_no_other_op(self):
        called = set()

        class Recording:
            def __getattr__(self, name):
                called.add(name)
                return getattr(ad, name)

        for problem, inst in (("tsp", generate_tsp(6, seed=3)), ("evrp", generate_evrp(4, 2, seed=3))):
            cfg = NetConfig(problem=problem, embed_dim=8, n_heads=2, n_layers=1, ffn_dim=16)
            net = PolicyValueNet.create(cfg, seed=0)
            start = initial_state(inst)
            batch = stack_states([start, step(start, int(np.flatnonzero(legal_actions(start))[0]))])
            t = net._tensors(train=True)
            h, pooled = net._encode(t, batch["nodes"], training=True, update_stats=False, ops=Recording())
            net._policy_logits(t, h, pooled, batch, ops=Recording())
            net._value(t, pooled, pooled, ops=Recording())
        assert called == set(vars(ARRAY_OPS))
        ops = {k for k, v in vars(ad).items() if callable(v) and getattr(v, "__module__", "") == ad.__name__}
        pooling = {"usable_cpus", "row_chunks", "pooled_ops"}  # how a large encode shares its work, not ops
        assert {k for k in ops if not k.startswith("_")} == called | {"masked_cross_entropy", "mse"} | pooling
        assert not hasattr(ad, "scale") and not hasattr(ARRAY_OPS, "scale"), "scaling is mul by a constant"
        for inside in ("sigmoid", "softmax", "transpose"):
            assert not hasattr(ad, inside) and not hasattr(ARRAY_OPS, inside), f"{inside} runs inside a fused sublayer"


def random_policy_batch(batch=3, n=5):
    logits = rng.normal(size=(batch, n))
    legal = rng.uniform(size=(batch, n)) < 0.7
    legal[np.arange(batch), rng.integers(n, size=batch)] = True
    raw = rng.uniform(size=(batch, n)) * legal
    target = raw / raw.sum(axis=1, keepdims=True)
    return logits, legal, target


class TestLosses:
    def test_masked_cross_entropy_value(self):
        logits, legal, target = random_policy_batch()
        loss = masked_cross_entropy(Tensor(logits), legal, target)
        neg = np.where(legal, logits, -np.inf)
        logp = neg - np.log(np.exp(neg).sum(axis=1, keepdims=True))
        expect = -(target * np.where(legal, logp, 0.0)).sum() / logits.shape[0]
        assert float(loss.data) == pytest.approx(expect, rel=1e-12)

    def test_masked_cross_entropy_gradient(self):
        logits, legal, target = random_policy_batch()
        x = Tensor(logits, requires_grad=True)
        gradcheck(lambda a: masked_cross_entropy(a, legal, target), x)

    def test_illegal_logits_get_no_gradient(self):
        logits, legal, target = random_policy_batch()
        x = Tensor(logits, requires_grad=True)
        masked_cross_entropy(x, legal, target).backward()
        assert (x.grad[~legal] == 0.0).all()

    def test_target_mass_off_mask_rejected(self):
        legal = np.array([[True, False]])
        with pytest.raises(ValueError, match="illegal"):
            masked_cross_entropy(Tensor(np.zeros((1, 2))), legal, np.array([[0.5, 0.5]]))

    def test_mse(self):
        target = rng.normal(size=(4, 1))
        x = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        loss = mse(x, target)
        assert float(loss.data) == pytest.approx(((x.data - target) ** 2).mean(), rel=1e-12)
        gradcheck(lambda a: mse(a, target), x)
