"""Reverse-mode automatic differentiation on numpy arrays.

Implements exactly the operations the policy/value network runs: matmul,
broadcast arithmetic, reshape, concat, mean, tanh and relu, node-axis batch
norm, index gather, the three encoder sublayers (multi-head attention, the
sigmoid gate and the feed-forward block, one op each) and the two loss
heads.  Tensors record their
parents and a backward closure; ``backward()`` walks the tape in reverse
topological order and frees it as it goes: once a node has passed its
gradient on, its gradient, closure and parent links are dropped, so the
activations of later layers are released while earlier layers are still
being differentiated.  Only leaves keep ``.grad``, and a graph can be
backpropagated once.  A scalar root starts from a gradient of ones; any
root can be given a seed gradient of its own shape, ``y.backward(G)``,
which gives every leaf the bits of a scalar backward of ``sum(y * G)``.
A leaf adds up the gradients of every graph it is backpropagated
through, in call order.  For two graphs that share only leaves,
``a.backward(); b.backward()`` gives each leaf the same floats as
``add(a, b).backward()``, which walks ``a``'s graph first.

``PolicyValueNet.train_step`` relies on both to hold one encoder tape at
a time.  It frees its policy tape before it builds the value graph, and
it splits the value graph, ``head(concat(own, opp))``, at the opponent's
pooled embedding: a leaf stands in for it while the head and own's encode
are backpropagated, and the opponent's encode is then backpropagated from
that leaf's gradient.  One ``backward()`` of the whole graph walks the
head first, then all of own's ops, then all of the opponent's (the depth
first search expands the concat's last parent first, so the opponent's
ops enter the post-order first and run last), and the split runs them in
that same order, so every parameter leaf sums the same floats in the same
order.

A large encode shares its work with a worker pool, given as `Workers`:
the calling thread and tasks on an executor that the network owns.
`Workers.row_chunks` is the one splitter: it runs a kernel whose rows do
not depend on each other in row chunks that the threads take in turn,
joined into outputs allocated once in the layout of one call, with that
call's bits.  An inference forward splits its whole `ARRAY_OPS` encode
so.  In training mode batch norm is the only op whose rows depend on
other states, so under `pooled_ops` only the three sublayer kernels,
which work one state at a time, split; every other op runs whole on the
calling thread.  A pooled ``backward(workers=...)`` hands each parameter leaf's
weight-gradient product (``X.T @ G`` of attention, the feed-forward block
and `matmul`'s folded branch) to the pool while the calling thread walks
on down the input-gradient chain.  The gate's product stays on the
calling thread: it multiplies a joined copy of the gate's two inputs,
which on the pool stayed alive beside the gate's input gradients, at the
top of the backward, and raised a default-size step's peak RSS by about
10 MB.  A leaf queues every gradient it receives in the walk, and once
every product has ended it sums its queue in walk order, so the leaf sums
stay those of the serial walk.  The input-gradient GEMMs stay whole: cut
into row chunks, most chunks came out with other bits on OpenBLAS.  A
pooled step therefore gives the serial step's floats.

Results of operations on constant inputs record no tape, but every op
still allocates a result ``Tensor`` and a backward closure: at the desk
network size (embed 32, 2 layers, TSP-6 or EVRP-6, batch 1-2) a forward
through this module takes 1.2-1.6x as long as the same ops on plain
arrays (2-CPU x86-64 host, one BLAS thread), so the network runs
inference on plain arrays instead.

`ARRAY_OPS` is that plain-array path: every op the network builders call,
under its tape name, and nothing else.  Its entries are this module's
forward kernels (relu, gather_nodes, the batch-norm normalization and the
three sublayers), through which the tape ops compute their forwards, and
numpy one-liners for the rest, so inference returns the tape's forward
values bit for bit.  Its batch norm runs in inference mode only.
"""

from __future__ import annotations

import operator
import threading
from collections import deque
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

BN_EPS = 1e-5
CHUNK_STATES = 16  # most states per row chunk of `Workers.row_chunks`: 8-32 measured alike, 64 slower


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


def _relu(a: np.ndarray) -> np.ndarray:
    return a * (a > 0.0)


def _softmax(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _gather_nodes(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    return a[np.arange(a.shape[0]), np.maximum(index, 0)] * (index >= 0)[:, None]


def _normalize(a, gamma, beta, mu, var) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch-norm output ``gamma * xhat + beta`` under statistics (mu, var), with ``xhat`` and ``1 / std``."""
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (a - mu) * inv_std
    return gamma * xhat + beta, xhat, inv_std


def _batchnorm_nodes(a, gamma, beta, running_mean, running_var, training, update_stats=False):
    if training:
        raise ValueError("plain-array batch norm runs in inference mode only")
    return _normalize(a, gamma, beta, running_mean, running_var)[0]


def _attention(x, wq, wk, wv, wo, heads: int):
    """Multi-head self-attention over the node axis of a (B, N, D) array, and what its backward reads.

    Returns ``(out, q, k, v, p, mixed)``: the output, the (B, H, N, D/H) head
    views of the three projections, the attention weights and the heads'
    outputs joined back to (B, N, D).
    """
    b, n, d = x.shape
    dh = d // heads
    q, k, v = ((x @ w).reshape(b, n, heads, dh).transpose(0, 2, 1, 3) for w in (wq, wk, wv))
    p = _softmax((q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh)))
    mixed = (p @ v).transpose(0, 2, 1, 3).reshape(b, n, d)
    return mixed @ wo, q, k, v, p, mixed


def _gate(x, f, w, b):
    """``s * x + (1 - s) * f`` with ``s = sigmoid([x || f] W + b)``, and ``s``."""
    s = _sigmoid(np.concatenate([x, f], axis=-1) @ w + b)
    return s * x + (s * -1.0 + 1.0) * f, s


def _ffn(x, w1, b1, w2, b2):
    """``relu(x W1 + b1) W2 + b2``, and the hidden activation."""
    hidden = _relu(x @ w1 + b1)
    return hidden @ w2 + b2, hidden


ARRAY_OPS = SimpleNamespace(
    Tensor=lambda x: np.asarray(x, dtype=np.float64),
    add=operator.add,
    mul=operator.mul,
    matmul=operator.matmul,
    reshape=lambda a, shape: a.reshape(shape),
    concat=lambda parts, axis=-1: np.concatenate(parts, axis=axis),
    mean=lambda a, axis: a.mean(axis=axis),
    tanh=np.tanh,
    relu=_relu,
    gather_nodes=_gather_nodes,
    batchnorm_nodes=_batchnorm_nodes,
    attention=lambda *args: _attention(*args)[0],
    gate=lambda *args: _gate(*args)[0],
    ffn=lambda *args: _ffn(*args)[0],
)


class Workers(NamedTuple):
    """The threads an encode runs on: this one and ``threads - 1`` tasks at a time on ``pool``."""

    pool: Executor
    threads: int

    def row_chunks(self, kernel, rows: tuple[np.ndarray, ...], shared: tuple) -> list[np.ndarray]:
        """``kernel(*rows, *shared)``, in row chunks that the threads take in turn.

        A chunk holds `CHUNK_STATES` states, or ``ceil(states / threads)``
        when fewer, so that a small stack gives every thread a chunk.  The
        outputs are joined into arrays allocated once in the layout of the
        first chunk's, so the backward reads the layout of one call, and a
        kernel whose rows do not depend on each other gives its bits.
        Returns, or raises the first exception, once every thread has ended.
        """
        b = rows[0].shape[0]
        size = min(CHUNK_STATES, -(-b // self.threads))
        starts = iter(range(0, b, size))
        lock = threading.Lock()
        joined: list[np.ndarray] = []

        def take_chunks():
            while True:
                with lock:
                    lo = next(starts, None)
                if lo is None:
                    return
                parts = kernel(*(a[lo : lo + size] for a in rows), *shared)
                with lock:
                    if not joined:
                        joined.extend(np.empty_like(part, shape=(b, *part.shape[1:])) for part in parts)
                for whole, part in zip(joined, parts):
                    whole[lo : lo + len(part)] = part

        futures = [self.pool.submit(take_chunks) for _ in range(self.threads - 1)]
        try:
            take_chunks()
        finally:
            for future in futures:
                future.exception()  # waits for the task, without raising
        for future in futures:
            future.result()
        return joined


def _kernel(kernel, workers: Workers | None, rows: tuple[np.ndarray, ...], *shared) -> list[np.ndarray]:
    """``kernel(*rows, *shared)``: in one call, or in row chunks on ``workers``."""
    return kernel(*rows, *shared) if workers is None else workers.row_chunks(kernel, rows, shared)


def pooled_ops(workers: Workers) -> SimpleNamespace:
    """The tape ops under their `ARRAY_OPS` names, the three sublayers computing their forwards on ``workers``."""
    ops = {name: globals()[name] for name in vars(ARRAY_OPS)}
    return SimpleNamespace(**ops | {name: partial(ops[name], workers=workers) for name in ("attention", "gate", "ffn")})


def _transposed_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.T @ b


class _PooledWalk:
    """The leaf gradients of one pooled `Tensor.backward` walk, kept in walk order until the walk ends.

    An entry is ``(leaf, gradient or Future of it, fresh)``.  At most
    ``workers.threads`` products run or wait on the pool at a time, each
    holding its two operands, so the walk's memory stays bounded.
    """

    def __init__(self, workers: Workers):
        self.workers = workers
        self.queued: list[tuple[Tensor, np.ndarray | Future, bool]] = []
        self.running: deque[Future] = deque()

    def product(self, leaf: Tensor, a: np.ndarray, b: np.ndarray) -> None:
        if len(self.running) >= self.workers.threads:
            self.running.popleft().exception()
        future = self.workers.pool.submit(_transposed_product, a, b)
        self.running.append(future)
        self.queued.append((leaf, future, True))

    def wait(self) -> None:
        for future in self.running:
            future.exception()


def _consumed(grad: np.ndarray) -> None:
    raise RuntimeError("backward() already ran on this graph")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_walk")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._walk: _PooledWalk | None = None  # set on a leaf while a pooled walk runs

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into ``.grad``; in a pooled walk, a leaf queues it until the walk ends.

        A ``fresh`` array, one the caller has just allocated and hands to no
        one else, becomes ``.grad`` as is; any other (a view, or an array
        also passed to another parent) is copied first, so that a later
        in-place sum cannot write through to a second tensor.
        """
        if self._walk is not None:
            self._walk.queued.append((self, grad, fresh))
        elif self.grad is None:
            self.grad = grad if fresh else grad.copy()
        else:
            self.grad += grad

    def _accumulate_product(self, a: np.ndarray, b: np.ndarray) -> None:
        """Add the weight-gradient product ``a.T @ b``; in a pooled walk, a leaf's runs on the pool."""
        if self._walk is None:
            self._accumulate(_transposed_product(a, b), fresh=True)
        else:
            self._walk.product(self, a, b)

    def backward(self, grad=None, workers: Workers | None = None) -> None:
        """Backpropagate from this tensor, seeded with ``grad``: ones by default, which needs a scalar.

        With ``workers``, the walk is pooled: each leaf's weight-gradient
        products (`_accumulate_product`) run on ``workers.pool`` while this
        thread walks on down the input-gradient chain, and every gradient a
        leaf receives is queued.  Once all products have ended, each leaf
        sums its queue in walk order, so a leaf gets the floats of the
        serial walk.  An exception, in the walk or in a product, is raised
        only after every product has ended.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() needs a scalar loss or a seed gradient")
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=np.float64)
            if grad.shape != self.shape:
                raise ValueError(f"seed gradient has shape {grad.shape}, expected {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = grad
        if workers is None:
            _backpropagate(order)
            return
        walk = _PooledWalk(workers)
        leaves = [node for node in order if node._backward is None and node is not self]
        for leaf in leaves:
            leaf._walk = walk
        try:
            _backpropagate(order)
        finally:
            walk.wait()
            for leaf in leaves:
                leaf._walk = None
        for leaf, queued, fresh in walk.queued:
            leaf._accumulate(queued if isinstance(queued, np.ndarray) else queued.result(), fresh)


def _backpropagate(order: list[Tensor]) -> None:
    """Run the backward closures of ``order``, a post-order, from its end, freeing each node's tape as it goes."""
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad = None
            node._backward = _consumed
            node._parents = ()


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        # g itself goes to both parents, so only a reduced copy is fresh
        for p in (a, b):
            if p.requires_grad:
                pg = _unbroadcast(g, p.shape)
                p._accumulate(pg, fresh=pg is not g)

    return _result(a.data + b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape), fresh=True)

    return _result(a.data * b.data, (a, b), bwd)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        if b.data.ndim == 2 and a.data.ndim > 2:
            # Shared weight: fold the stack into rows, one GEMM per gradient.
            k, m = b.shape
            g2 = g.reshape(-1, m)
            if a.requires_grad:
                a._accumulate((g2 @ b.data.T).reshape(a.shape), fresh=True)
            if b.requires_grad:
                b._accumulate_product(a.data.reshape(-1, k), g2)
            return
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.shape), fresh=True)
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.shape), fresh=True)

    return _result(a.data @ b.data, (a, b), bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape

    def bwd(g):
        a._accumulate(g.reshape(old))

    return _result(a.data.reshape(shape), (a,), bwd)


def concat(parts, axis: int = -1) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            if p.requires_grad:
                p._accumulate(piece)

    return _result(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def mean(a, axis: int) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.shape) / a.shape[axis], fresh=True)

    return _result(a.data.mean(axis=axis), (a,), bwd)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def bwd(g):
        a._accumulate(g * (1.0 - y * y), fresh=True)

    return _result(y, (a,), bwd)


def relu(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        a._accumulate(g * (a.data > 0.0), fresh=True)

    return _result(_relu(a.data), (a,), bwd)


def gather_nodes(a, index: np.ndarray) -> Tensor:
    """Pick one node embedding per batch row: (B, N, D) x (B,) -> (B, D).

    Negative indices select a zero vector (used for "no current node yet").
    """
    a = _as_tensor(a)
    index = np.asarray(index, dtype=np.int64)

    def bwd(g):
        out = np.zeros_like(a.data)
        np.add.at(out, (np.arange(a.shape[0]), np.maximum(index, 0)), g * (index >= 0)[:, None])
        a._accumulate(out, fresh=True)

    return _result(_gather_nodes(a.data, index), (a,), bwd)


def batchnorm_nodes(
    a,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    update_stats: bool = False,
) -> Tensor:
    """Batch norm over the pooled (batch, node) axes of a (B, N, C) tensor.

    Training mode normalizes by the statistics of the current batch;
    inference mode uses the running estimates.  Running stats only move
    when ``update_stats`` is set, so repeated forwards are reproducible,
    and then a tenth of the way to the batch's statistics.
    """
    a, gamma, beta = _as_tensor(a), _as_tensor(gamma), _as_tensor(beta)
    if training:
        mu = a.data.mean(axis=(0, 1))
        var = a.data.var(axis=(0, 1))
        if update_stats:
            running_mean += 0.1 * (mu - running_mean)
            running_var += 0.1 * (var - running_var)
    else:
        mu, var = running_mean, running_var
    y, xhat, inv_std = _normalize(a.data, gamma.data, beta.data, mu, var)
    count = a.shape[0] * a.shape[1]

    def bwd(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=(0, 1)), fresh=True)
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=(0, 1)), fresh=True)
        if a.requires_grad:
            gx = g * gamma.data
            if training:
                term = gx - gx.mean(axis=(0, 1)) - xhat * (gx * xhat).sum(axis=(0, 1)) / count
                a._accumulate(term * inv_std, fresh=True)
            else:
                a._accumulate(gx * inv_std, fresh=True)

    return _result(y, (a, gamma, beta), bwd)


# The three encoder sublayers below are one tape op each, so the tape keeps only
# what their backwards read.  Each backward does, float for float, what the chain
# of the ops above that spells out its forward would do: the same folded GEMMs as
# `matmul`, the same elementwise products, and the same order wherever an input
# sums several contributions.  Training runs are reproducible byte for byte, and
# their pinned hashes hold only while this does.


def attention(x, wq, wk, wv, wo, heads: int, workers: Workers | None = None) -> Tensor:
    """Multi-head self-attention over the node axis of a (B, N, D) tensor; see `_attention`."""
    x, wq, wk, wv, wo = (_as_tensor(a) for a in (x, wq, wk, wv, wo))
    out, q, k, v, p, mixed = _kernel(_attention, workers, (x.data,), wq.data, wk.data, wv.data, wo.data, heads)

    def bwd(g):
        b, n, d = x.shape
        g2 = g.reshape(-1, d)
        if wo.requires_grad:
            wo._accumulate_product(mixed.reshape(-1, d), g2)
        gm = (g2 @ wo.data.T).reshape(b, n, heads, -1).transpose(0, 2, 1, 3).copy()
        gp = gm @ np.swapaxes(v, -1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * (1.0 / np.sqrt(d // heads))
        grads = (gs @ k, (np.swapaxes(q, -1, -2) @ gs).transpose(0, 1, 3, 2), np.swapaxes(p, -1, -2) @ gm)
        # the input sums its three contributions in the order q, k, v
        for w, gh in zip((wq, wk, wv), grads):
            gw = gh.transpose(0, 2, 1, 3).reshape(-1, d)
            if w.requires_grad:
                w._accumulate_product(x.data.reshape(-1, d), gw)
            if x.requires_grad:
                x._accumulate((gw @ w.data.T).reshape(x.shape), fresh=True)

    return _result(out, (x, wq, wk, wv, wo), bwd)


def gate(x, f, w, b, workers: Workers | None = None) -> Tensor:
    """Learned sigmoid blend of a sublayer's input ``x`` and output ``f``; see `_gate`."""
    x, f, w, b = (_as_tensor(a) for a in (x, f, w, b))
    out, s = _kernel(_gate, workers, (x.data, f.data), w.data, b.data)

    def bwd(g):
        d = s.shape[-1]
        gz = (g * x.data + (g * f.data) * -1.0) * s * (1.0 - s)
        gz2 = gz.reshape(-1, d)
        if b.requires_grad:
            b._accumulate(_unbroadcast(gz, b.shape), fresh=True)
        if w.requires_grad:
            # on this thread even in a pooled walk: on the pool, the joined inputs would stay alive beside gcat
            w._accumulate(np.concatenate([x.data, f.data], axis=-1).reshape(-1, 2 * d).T @ gz2, fresh=True)
        gcat = (gz2 @ w.data.T).reshape(*s.shape[:-1], 2 * d)
        if x.requires_grad:
            x._accumulate(gcat[..., :d] + g * s, fresh=True)
        if f.requires_grad:
            f._accumulate(gcat[..., d:] + g * (s * -1.0 + 1.0), fresh=True)

    return _result(out, (x, f, w, b), bwd)


def ffn(x, w1, b1, w2, b2, workers: Workers | None = None) -> Tensor:
    """Two-layer relu feed-forward over the last axis; see `_ffn`."""
    x, w1, b1, w2, b2 = (_as_tensor(a) for a in (x, w1, b1, w2, b2))
    out, hidden = _kernel(_ffn, workers, (x.data,), w1.data, b1.data, w2.data, b2.data)

    def bwd(g):
        d, f = w1.shape
        g2 = g.reshape(-1, g.shape[-1])
        if b2.requires_grad:
            b2._accumulate(_unbroadcast(g, b2.shape), fresh=True)
        if w2.requires_grad:
            w2._accumulate_product(hidden.reshape(-1, f), g2)
        # hidden > 0 exactly where the pre-activation is
        gh = (g2 @ w2.data.T).reshape(hidden.shape) * (hidden > 0.0)
        if b1.requires_grad:
            b1._accumulate(_unbroadcast(gh, b1.shape), fresh=True)
        gh2 = gh.reshape(-1, f)
        if w1.requires_grad:
            w1._accumulate_product(x.data.reshape(-1, d), gh2)
        if x.requires_grad:
            x._accumulate((gh2 @ w1.data.T).reshape(x.shape), fresh=True)

    return _result(out, (x, w1, b1, w2, b2), bwd)


def masked_cross_entropy(logits, legal: np.ndarray, target: np.ndarray) -> Tensor:
    """Mean cross-entropy of target distributions against masked softmax.

    ``legal`` is a (B, N) boolean mask; targets must be zero on illegal
    entries.  Illegal logits never contribute to the normalizer or the
    gradient.
    """
    logits = _as_tensor(logits)
    legal = np.asarray(legal, dtype=bool)
    target = np.asarray(target, dtype=np.float64)
    if (target[~legal] != 0.0).any():
        raise ValueError("target distribution puts mass on illegal actions")
    neg = np.where(legal, logits.data, -np.inf)
    m = neg.max(axis=1, keepdims=True)
    e = np.exp(neg - m)
    z = e.sum(axis=1, keepdims=True)
    logp = np.where(legal, neg - m - np.log(z), 0.0)
    probs = e / z
    batch = logits.shape[0]
    loss = -(target * logp).sum() / batch

    def bwd(g):
        row_mass = target.sum(axis=1, keepdims=True)
        grad = np.where(legal, probs * row_mass - target, 0.0) * (g / batch)
        logits._accumulate(grad, fresh=True)

    return _result(loss, (logits,), bwd)


def mse(pred, target: np.ndarray) -> Tensor:
    """Mean squared error of a prediction tensor against constants."""
    pred = _as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    diff = pred.data - target

    def bwd(g):
        pred._accumulate(g * 2.0 * diff / diff.size, fresh=True)

    return _result((diff**2).mean(), (pred,), bwd)
