"""Policy/value network over routing states.

Encoder: linear node embedding followed by transformer layers where batch
norm runs *before* each sublayer and a learned sigmoid gate blends the
sublayer output with its input,

    h'  = gate_1(h,  attention(norm(h)))
    h'' = gate_2(h', feedforward(norm(h')))
    gate(x, f) = s * x + (1 - s) * f,   s = sigmoid(W [x || f] + b).

The graph embedding is the mean over node embeddings.  The policy head is
a pointer: a context vector (graph embedding, current node embedding and,
for EVRP, the vehicle's battery/clock/cargo readings) is projected to a
query q and each node scores ``C * tanh(q . h_j / sqrt(d))``.  The value
head reads the pooled embeddings of the two players' states side by side
and squashes through tanh into [-1, 1].

The network is written once, in `_encode`, `_policy_logits` and `_value`,
against an ops namespace, where attention, each gate and the feed-forward
block are one op each.  Training passes `autodiff`, whose tape gives the
gradients; `forward` passes `autodiff.ARRAY_OPS`, the same ops and forward
kernels on plain numpy arrays, so inference records nothing, wraps nothing
and returns the tape path's outputs bit for bit.
This module defines no op of its own.  There is no external ML runtime,
which keeps checkpoints exact and runs reproducible.

In inference mode an encoder row has the same bits alone as in any batch:
batch norm reads the running statistics, and each state's products are
GEMMs of their own.  A row's dependence on its batch lies in the three 2-D
head GEMMs.  So a large stack (encoder work of at least ``SPLIT_MIN_WORK``)
is encoded on the usable CPUs through one splitter,
`autodiff.Workers.row_chunks`: the calling thread and a worker pool,
started by the first such encode, take row chunks in turn.  An inference
forward runs its whole encode in chunks, and the heads run once on the
joined rows; the outputs are those of one serial encode.  A train step
runs each sublayer's forward in chunks and the pool computes most
weight-gradient products (see `autodiff`), with the serial step's floats.
The gain assumes one BLAS thread.

A net is its config, parameters and batch-norm running statistics, and
nothing else.  The optimizer is the caller's: `train_step` updates the
parameters through the `Adam` it is given, and only the trainer keeps one,
for the learning net.  So the historical best, a `save_net` dump and every
net `routezero eval` loads carry weights only.

There is one checkpoint format, ``CHECKPOINT_VERSION``: ``meta/version``
beside nets under a prefix, the learning net θ always under ``theta/``.
A `save_net` dump is the θ slice of a trainer checkpoint, and `load_net`
reads θ from either.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import threading
import zipfile
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .env import PlayerState, legal_actions
from .instance import COORD_RANGE_KM, EvrpInstance, TspInstance, check_fields, write_file

LOGIT_CLIP = 10.0
CHECKPOINT_VERSION = 2

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

TSP_NODE_FEATURES = 5
EVRP_NODE_FEATURES = 7
EVRP_GLOBAL_FEATURES = 4

# Encoder work, rows x nodes x n_layers x embed_dim x (embed_dim + ffn_dim), of a stack from which its encode
# shares the usable CPUs: an inference forward in encode row chunks, a train step in sublayer row chunks and
# pooled weight-gradient products.  Above the measured crossover of both net sizes; a desk step is below it.
SPLIT_MIN_WORK = 16e6
_workers = None  # the encoder's worker pool, started by the first forward or train step that splits
_workers_lock = threading.Lock()


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _one_malloc_arena() -> None:
    """Have threads started from now on allocate from glibc's main malloc arena (``M_ARENA_MAX`` 1).

    A worker thread otherwise gets an arena of its own, which keeps the
    blocks the worker freed where the main thread's train step cannot reuse
    them, and so raises the process peak.  Sharing one arena costs no
    measurable time: Python threads allocate small objects under the
    interpreter lock anyway, and an encoder chunk makes few large
    allocations.  Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-8, 1)  # M_ARENA_MAX


def _worker_pool():
    global _workers
    with _workers_lock:
        if _workers is None:
            from concurrent.futures import ThreadPoolExecutor

            _one_malloc_arena()
            _workers = ThreadPoolExecutor(max(1, _usable_cpus() - 1), thread_name_prefix="routezero-encode")
        return _workers


def _forget_workers() -> None:
    """Drop the parent's pool and lock in a forked child, where the pool's threads do not exist."""
    global _workers, _workers_lock
    _workers, _workers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


class CheckpointError(RuntimeError):
    """A network checkpoint is unreadable or incompatible."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture and optimizer knobs; problem picks the feature layout."""

    problem: str = "evrp"
    embed_dim: int = 128
    n_heads: int = 8
    n_layers: int = 3
    ffn_dim: int = 512
    batch_size: int = 256
    learning_rate: float = 1e-4

    def __post_init__(self) -> None:
        if self.problem not in ("tsp", "evrp"):
            raise ValueError(f"problem must be tsp or evrp, got {self.problem!r}")
        if self.embed_dim % self.n_heads != 0:
            raise ValueError("embed_dim must be divisible by n_heads")
        if min(self.embed_dim, self.n_heads, self.n_layers, self.ffn_dim, self.batch_size) < 1:
            raise ValueError("architecture sizes must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate!r}")

    @property
    def node_features(self) -> int:
        return TSP_NODE_FEATURES if self.problem == "tsp" else EVRP_NODE_FEATURES

    @property
    def context_features(self) -> int:
        if self.problem == "tsp":
            return 3 * self.embed_dim
        return 2 * self.embed_dim + EVRP_GLOBAL_FEATURES


@dataclass(frozen=True)
class StateFeatures:
    """Network-ready view of one player state.

    ``nodes`` is (n_nodes, F) with every entry in [0, 1]; ``globals_``
    carries the vehicle readings (empty for TSP); ``current`` and ``first``
    are node indices, -1 when undefined.
    """

    nodes: np.ndarray
    globals_: np.ndarray
    current: int
    first: int


def featurize(state: PlayerState) -> StateFeatures:
    inst = state.instance
    if isinstance(inst, TspInstance):
        n = inst.n_nodes
        first = state.route[0] if state.route else -1
        feats = np.zeros((n, TSP_NODE_FEATURES))
        feats[:, 0:2] = inst.coords
        feats[:, 2] = state.served
        if first >= 0:
            feats[first, 3] = 1.0
        if state.position >= 0:
            feats[state.position, 4] = 1.0
        return StateFeatures(feats, np.zeros(0), int(state.position), int(first))

    if not isinstance(inst, EvrpInstance):
        raise TypeError(f"featurize needs a TspInstance or EvrpInstance, got {type(inst).__name__}")
    n = inst.n_nodes
    veh = inst.vehicle
    feats = np.zeros((n, EVRP_NODE_FEATURES))
    feats[:, 0:2] = inst.coords / COORD_RANGE_KM
    feats[:, 2] = inst.demands / veh.cargo_capacity_kg
    feats[np.arange(n), 3 + inst.kinds] = 1.0
    feats[inst.customer_ids, 6] = state.served[inst.customer_ids]
    globals_ = np.array(
        [
            state.battery_kwh / veh.battery_capacity_kwh,
            state.clock_h / inst.t_max_h,
            state.load_kg / veh.cargo_capacity_kg,
            state.position / max(1, n - 1),
        ]
    )
    return StateFeatures(feats, globals_, int(state.position), 0)


def stack_features(batch: list[StateFeatures]) -> dict[str, np.ndarray]:
    """Stack same-shape features into arrays the forward pass consumes."""
    return {
        "nodes": np.stack([f.nodes for f in batch]),
        "globals": np.stack([f.globals_ for f in batch]),
        "current": np.array([f.current for f in batch], dtype=np.int64),
        "first": np.array([f.first for f in batch], dtype=np.int64),
    }


def stack_states(states: list[PlayerState]) -> dict[str, np.ndarray]:
    """`stack_features` of ``states`` plus their (B, N) ``legal`` masks, a finished state's all False."""
    batch = stack_features([featurize(s) for s in states])
    batch["legal"] = np.stack([np.zeros(s.served.shape, bool) if s.done else legal_actions(s) for s in states])
    return batch


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _param_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, in creation order (matrices draw from the rng in this order)."""
    d, f = config.embed_dim, config.ffn_dim
    shapes = {"embed/W": (config.node_features, d), "embed/b": (d,)}
    for i in range(config.n_layers):
        pre = f"layer{i}"
        for name in ("bn1/gamma", "bn1/beta", "bn2/gamma", "bn2/beta"):
            shapes[f"{pre}/{name}"] = (d,)
        for w in ("Wq", "Wk", "Wv", "Wo"):
            shapes[f"{pre}/attn/{w}"] = (d, d)
        for gate in ("gate1", "gate2"):
            shapes |= {f"{pre}/{gate}/W": (2 * d, d), f"{pre}/{gate}/b": (d,)}
        shapes |= {f"{pre}/ffn/W1": (d, f), f"{pre}/ffn/b1": (f,), f"{pre}/ffn/W2": (f, d), f"{pre}/ffn/b2": (d,)}
    shapes |= {"policy/Wctx": (config.context_features, d), "policy/bctx": (d,)}
    shapes |= {"value/W1": (2 * d, d), "value/b1": (d,), "value/W2": (d, 1), "value/b2": (1,)}
    return shapes


def _stat_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every batch-norm running statistic, one mean and one var per norm."""
    gammas = [k.removesuffix("gamma") for k in _param_shapes(config) if k.endswith("/gamma")]
    return {f"{k}{stat}": (config.embed_dim,) for k in gammas for stat in ("mean", "var")}


@dataclass
class Adam:
    """Adam moments of one parameter set; ``update`` applies one step in place."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, params: dict[str, np.ndarray]) -> "Adam":
        m = {k: np.zeros_like(p) for k, p in params.items()}
        return cls(m, {k: np.zeros_like(p) for k, p in m.items()})

    def update(self, params, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            m += (1.0 - ADAM_BETA1) * (g - m)
            v += (1.0 - ADAM_BETA2) * (g * g - v)
            params[k] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


class PolicyValueNet:
    """Shared-trunk policy and value network: config, weights and BN statistics."""

    def __init__(self, config: NetConfig, params: dict[str, np.ndarray], bn_stats: dict[str, np.ndarray]):
        self.config = config
        self.params = params
        self.bn_stats = bn_stats

    @classmethod
    def create(cls, config: NetConfig, seed: int = 0) -> "PolicyValueNet":
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in _param_shapes(config).items():
            if len(shape) == 2:
                params[name] = _glorot(rng, *shape)
            else:
                params[name] = np.ones(shape) if name.endswith("/gamma") else np.zeros(shape)
        stats = {k: np.ones(s) if k.endswith("/var") else np.zeros(s) for k, s in _stat_shapes(config).items()}
        return cls(config, params, stats)

    def copy(self) -> "PolicyValueNet":
        """Deep snapshot of the weights and running statistics."""
        return PolicyValueNet(
            self.config,
            {k: v.copy() for k, v in self.params.items()},
            {k: v.copy() for k, v in self.bn_stats.items()},
        )

    def _tensors(self, train: bool) -> dict[str, ad.Tensor]:
        return {k: ad.Tensor(v, requires_grad=train) for k, v in self.params.items()}

    def _encode(self, t, nodes: np.ndarray, training: bool, update_stats: bool, ops=ad):
        cfg = self.config

        def norm(x, key):
            """Batch norm ``key`` (such as ``layer0/bn1``) of ``x``, with its running statistics."""
            gamma, beta = t[f"{key}/gamma"], t[f"{key}/beta"]
            mean, var = self.bn_stats[f"{key}/mean"], self.bn_stats[f"{key}/var"]
            return ops.batchnorm_nodes(x, gamma, beta, mean, var, training, update_stats)

        h = ops.add(ops.matmul(ops.Tensor(nodes), t["embed/W"]), t["embed/b"])
        for i in range(cfg.n_layers):
            pre = f"layer{i}"
            attn_w = [t[f"{pre}/attn/{w}"] for w in ("Wq", "Wk", "Wv", "Wo")]
            attn = ops.attention(norm(h, f"{pre}/bn1"), *attn_w, cfg.n_heads)
            h = ops.gate(h, attn, t[f"{pre}/gate1/W"], t[f"{pre}/gate1/b"])
            ffn = ops.ffn(norm(h, f"{pre}/bn2"), *(t[f"{pre}/ffn/{w}"] for w in ("W1", "b1", "W2", "b2")))
            h = ops.gate(h, ffn, t[f"{pre}/gate2/W"], t[f"{pre}/gate2/b"])
        pooled = ops.mean(h, axis=1)
        return h, pooled

    def _workers_for(self, nodes: np.ndarray) -> ad.Workers | None:
        """The threads that share the encode of ``nodes``: one per usable CPU (at most one per row), or None.

        None when the encoder work is below ``SPLIT_MIN_WORK`` or one thread
        would do it all; then the encode and its backward run serially and
        no pool is started.
        """
        cfg = self.config
        work = nodes.shape[0] * nodes.shape[1] * cfg.n_layers * cfg.embed_dim * (cfg.embed_dim + cfg.ffn_dim)
        threads = min(_usable_cpus(), nodes.shape[0]) if work >= SPLIT_MIN_WORK else 1
        return ad.Workers(_worker_pool(), threads) if threads > 1 else None

    def _policy_logits(self, t, h, pooled, batch: dict[str, np.ndarray], ops=ad):
        cfg = self.config
        cur = ops.gather_nodes(h, batch["current"])
        if cfg.problem == "tsp":
            first = ops.gather_nodes(h, batch["first"])
            ctx = ops.concat([pooled, cur, first], axis=-1)
        else:
            ctx = ops.concat([pooled, cur, ops.Tensor(batch["globals"])], axis=-1)
        query = ops.add(ops.matmul(ctx, t["policy/Wctx"]), t["policy/bctx"])
        q3 = ops.reshape(query, (query.shape[0], cfg.embed_dim, 1))
        scores = ops.mul(ops.reshape(ops.matmul(h, q3), h.shape[:2]), 1.0 / np.sqrt(cfg.embed_dim))
        return ops.mul(ops.tanh(scores), LOGIT_CLIP)

    def _value(self, t, pooled_own, pooled_opp, ops=ad):
        joint = ops.concat([pooled_own, pooled_opp], axis=-1)
        hidden = ops.relu(ops.add(ops.matmul(joint, t["value/W1"]), t["value/b1"]))
        out = ops.tanh(ops.add(ops.matmul(hidden, t["value/W2"]), t["value/b2"]))
        return ops.reshape(out, (out.shape[0],))

    def forward(self, own: dict[str, np.ndarray], opp: dict[str, np.ndarray] | None = None):
        """The one inference path: (B, N) pointer logits, illegal entries at -inf.

        ``own`` and ``opp`` are `stack_features` dicts, ``own`` with its (B, N)
        ``legal`` mask.  With ``opp``, both stacks are encoded as one batch and
        the (B,) values of the (own, opp) pairs are returned as well.  Own row
        i pairs with opponent row i, or with row ``own["opp_row"][i]`` when
        ``own`` carries that (B,) index, so an opponent shared by several own
        states is passed and encoded once.  The builders run on the plain
        parameter arrays, in inference mode.  A stack whose encoder work
        reaches ``SPLIT_MIN_WORK`` is encoded in row chunks on the usable CPUs
        (`_workers_for`), with the bits of one serial encode.
        """
        t, ops = self.params, ad.ARRAY_OPS
        nodes = own["nodes"] if opp is None else np.concatenate([own["nodes"], opp["nodes"]])
        encode = partial(self._encode, t, training=False, update_stats=False, ops=ops)
        workers = self._workers_for(nodes)
        h, pooled = encode(nodes) if workers is None else workers.row_chunks(encode, (nodes,), ())
        if opp is not None:
            b = own["nodes"].shape[0]
            h, pooled, pooled_opp = h[:b], pooled[:b], pooled[b:]
            if "opp_row" in own:
                pooled_opp = pooled_opp[own["opp_row"]]
        logits = np.where(np.asarray(own["legal"], dtype=bool), self._policy_logits(t, h, pooled, own, ops), -np.inf)
        if opp is None:
            return logits
        return logits, self._value(t, pooled, pooled_opp, ops)

    def _policy_loss(self, t, batch: dict[str, np.ndarray]) -> float:
        """Build the policy loss on the tape and backpropagate it; returns the loss."""
        workers = self._workers_for(batch["nodes"])
        ops = ad if workers is None else ad.pooled_ops(workers)
        h, pooled = self._encode(t, batch["nodes"], training=True, update_stats=True, ops=ops)
        logits = self._policy_logits(t, h, pooled, batch)
        loss = ad.masked_cross_entropy(logits, batch["legal"], batch["target"])
        loss.backward(workers=workers)
        return float(loss.data)

    def _value_loss(self, t, batch: dict[str, np.ndarray]) -> float:
        """Backpropagate the value loss with one encoder tape alive at a time; returns the loss.

        The opponent stack is first encoded without a tape, for its pooled
        embedding, which enters the value head as a fresh leaf.  Own's encode
        and the head are backpropagated and freed; then the opponent stack is
        encoded again on the tape and backpropagated from the leaf's gradient.
        A training-mode forward does not read the running statistics, so both
        opponent encodes give the same bits; the statistics move once per
        stack, own first.
        """
        workers = self._workers_for(batch["own_nodes"])
        ops = ad if workers is None else ad.pooled_ops(workers)
        constants = self._tensors(train=False)
        _, pooled = self._encode(constants, batch["opp_nodes"], training=True, update_stats=False, ops=ops)
        opp_leaf = ad.Tensor(pooled.data, requires_grad=True)
        _, pooled_own = self._encode(t, batch["own_nodes"], training=True, update_stats=True, ops=ops)
        loss = ad.mse(self._value(t, pooled_own, opp_leaf), batch["z"])
        loss.backward(workers=workers)
        _, pooled_opp = self._encode(t, batch["opp_nodes"], training=True, update_stats=True, ops=ops)
        pooled_opp.backward(opp_leaf.grad, workers)
        return float(loss.data)

    def train_step(
        self,
        policy_batch: dict[str, np.ndarray] | None,
        value_batch: dict[str, np.ndarray] | None,
        adam: Adam,
    ) -> tuple[float, float]:
        """One ``adam`` update on cross-entropy (policy) plus MSE (value).

        ``policy_batch`` holds stacked features with ``legal`` and
        ``target``; ``value_batch`` holds ``own_*``/``opp_*`` feature stacks
        and ``z``.  Either side may be ``None``.  Returns the two losses.

        Only one encoder tape is alive at any time.  The policy loss is
        backpropagated as soon as it is built, which frees its tape; the
        value loss is backpropagated in two halves, own's encode with the
        value head, then the opponent's (see `_value_loss`), at the cost of
        one more forward encode of the opponent stack.  Each parameter leaf
        sums policy, value head, own and opponent gradients, the order one
        ``backward()`` of the summed loss walks them in, and Adam steps once
        on the sum: the same floats as that one-tape step.

        A stack whose encoder work reaches ``SPLIT_MIN_WORK`` is encoded and
        backpropagated on the usable CPUs (`_workers_for`): its sublayers
        in row chunks, most weight-gradient products on the worker pool.
        The floats are those of the serial step.  An exception in a worker
        is raised once every task of the step has ended, before Adam steps.
        """
        if policy_batch is None and value_batch is None:
            return 0.0, 0.0
        t = self._tensors(train=True)
        p_loss = 0.0 if policy_batch is None else self._policy_loss(t, policy_batch)
        v_loss = 0.0 if value_batch is None else self._value_loss(t, value_batch)
        grads = {k: tt.grad for k, tt in t.items() if tt.grad is not None}
        adam.update(self.params, grads, self.config.learning_rate)
        return p_loss, v_loss


def greedy_actions(net: PolicyValueNet, states: list[PlayerState]) -> tuple[np.ndarray, int]:
    """Highest-logit legal move of each live state, and the forward rows spent on them.

    When every state has exactly one legal move, those moves are returned
    and no ``forward`` runs (0 rows).  Otherwise one ``forward`` over the
    whole stack, forced states included, since a row's bits depend on its
    batch through the head GEMMs (the encoder's row chunks do not); the
    states must then share a problem type and node count.  A large stack is
    encoded in row chunks on the usable CPUs.  Ties resolve to the lowest
    node id.
    """
    legal = np.stack([legal_actions(s) for s in states])
    if (legal.sum(axis=1) == 1).all():
        return np.argmax(legal, axis=1), 0
    return np.argmax(net.forward(stack_states(states)), axis=1), len(states)


def net_to_arrays(net: PolicyValueNet, prefix: str) -> dict[str, np.ndarray]:
    """Flatten one net (weights, BN stats, config) to arrays under ``prefix``."""
    arrays = {f"{prefix}param/{k}": v for k, v in net.params.items()}
    arrays |= {f"{prefix}stat/{k}": v for k, v in net.bn_stats.items()}
    arrays[f"{prefix}meta/config"] = np.frombuffer(json.dumps(asdict(net.config)).encode(), dtype=np.uint8)
    return arrays


def checked_array(arrays: dict[str, np.ndarray], key: str, shape: tuple[int, ...] | None) -> np.ndarray:
    """``arrays[key]``; CheckpointError names the key if it is missing or not of ``shape`` (None: any)."""
    if key not in arrays:
        raise CheckpointError(f"missing array {key!r}")
    if shape is not None and arrays[key].shape != shape:
        raise CheckpointError(f"array {key!r} has shape {arrays[key].shape}, expected {shape}")
    return arrays[key]


def net_from_arrays(arrays: dict[str, np.ndarray], prefix: str) -> PolicyValueNet:
    """Rebuild the net that `net_to_arrays` wrote under ``prefix``.

    The embedded config goes through `check_fields` as a config file does.
    A mistyped field, or a missing array or one whose shape does not fit
    that config, raises CheckpointError naming it.  Other arrays are ignored.
    """
    try:
        raw = json.loads(checked_array(arrays, f"{prefix}meta/config", None).tobytes().decode())
        check_fields(NetConfig, raw, "net config")
        config = NetConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad embedded net config: {exc}") from exc
    groups = {}
    for group, shapes in (("param", _param_shapes(config)), ("stat", _stat_shapes(config))):
        groups[group] = {k: checked_array(arrays, f"{prefix}{group}/{k}", shape) for k, shape in shapes.items()}
    return PolicyValueNet(config, groups["param"], groups["stat"])


def check_version(arrays: dict[str, np.ndarray]) -> None:
    """Reject a dump whose ``meta/version`` is missing or not ``CHECKPOINT_VERSION``."""
    found = checked_array(arrays, "meta/version", None)
    if found.shape != () or int(found) != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {found} != {CHECKPOINT_VERSION}")


def read_arrays(path, keep=None) -> dict[str, np.ndarray]:
    """The arrays of an .npz dump whose keys ``keep`` accepts, else every array; rejects unreadable files."""
    try:
        with np.load(path) as data:
            return {k: data[k] for k in data.files if keep is None or keep(k)}
    except (OSError, ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc


def write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write an .npz dump atomically, streamed to `write_file`'s temp file."""
    write_file(path, lambda fh: np.savez(fh, **arrays))


def save_net(net: PolicyValueNet, path) -> None:
    """Write ``net`` as the θ slice of a trainer checkpoint: ``meta/version`` and its ``theta/`` arrays."""
    write_arrays(path, {"meta/version": np.array(CHECKPOINT_VERSION, dtype=np.int64), **net_to_arrays(net, "theta/")})


def load_net(path) -> PolicyValueNet:
    """θ of a `save_net` dump or a trainer checkpoint, from one read of ``meta/version`` and θ's own arrays.

    A malformed file or another version raises CheckpointError naming ``path``.
    """
    meta = ("meta/version", "theta/meta/config")
    arrays = read_arrays(path, lambda k: k in meta or k.startswith(("theta/param/", "theta/stat/")))
    try:
        check_version(arrays)
        return net_from_arrays(arrays, "theta/")
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
