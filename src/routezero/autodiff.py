"""Reverse-mode automatic differentiation on numpy arrays.

Implements exactly the operations the policy/value network needs: matmul,
broadcast arithmetic, shape moves, tanh/sigmoid/relu, softmax, node-axis
batch norm, index gather and the two loss heads.  Tensors record their
parents and a backward closure; ``backward()`` walks the tape in reverse
topological order and frees it as it goes: once a node has passed its
gradient on, its gradient, closure and parent links are dropped, so the
activations of later layers are released while earlier layers are still
being differentiated.  Only leaves keep ``.grad``, and a graph can be
backpropagated once.  A leaf adds up the gradients of every graph it is
backpropagated through, in call order.  For two graphs that share only
leaves, ``a.backward(); b.backward()`` gives each leaf the same floats as
``add(a, b).backward()``, which walks ``a``'s graph first.
``PolicyValueNet.train_step`` relies on this to free its policy tape
before it builds the value graph.  Results of operations on constant
inputs record no tape, but every op still allocates a result ``Tensor``
and a backward closure: at the desk network size (embed 32, 2 layers,
TSP-6 or EVRP-6, batch 1-2) a forward through this module takes 2.1-2.4x
as long as the same ops on plain arrays (2-CPU x86-64 host, one BLAS
thread), so the network runs inference on plain arrays instead.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5


def _consumed(grad: np.ndarray) -> None:
    raise RuntimeError("backward() already ran on this graph")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into ``.grad``.

        A ``fresh`` array, one the caller has just allocated and hands to no
        one else, becomes ``.grad`` as is; any other (a view, or an array
        also passed to another parent) is copied first, so that a later
        in-place sum cannot write through to a second tensor.
        """
        if self.grad is None:
            self.grad = grad if fresh else grad.copy()
        else:
            self.grad += grad

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar loss")
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
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None
                node._backward = _consumed
                node._parents = ()

    def zero_grad(self) -> None:
        self.grad = None

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


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


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        a._accumulate(g * c, fresh=True)

    return _result(a.data * c, (a,), bwd)


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
                b._accumulate(a.data.reshape(-1, k).T @ g2, fresh=True)
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


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        a._accumulate(g.transpose(inverse))

    return _result(a.data.transpose(axes), (a,), bwd)


def concat(parts, axis: int = -1) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            if p.requires_grad:
                p._accumulate(piece)

    return _result(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def mean(a, axis, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    count = int(np.prod([a.shape[ax] for ax in axes]))

    def bwd(g):
        gg = g if keepdims else np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(gg, a.shape) / count, fresh=True)

    return _result(a.data.mean(axis=axes, keepdims=keepdims), (a,), bwd)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(range(a.data.ndim)) if axis is None else ((axis,) if isinstance(axis, int) else tuple(axis))

    def bwd(g):
        gg = g if keepdims else np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(gg, a.shape).copy(), fresh=True)

    return _result(a.data.sum(axis=axes, keepdims=keepdims), (a,), bwd)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def bwd(g):
        a._accumulate(g * (1.0 - y * y), fresh=True)

    return _result(y, (a,), bwd)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        a._accumulate(g * y * (1.0 - y), fresh=True)

    return _result(y, (a,), bwd)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    keep = a.data > 0.0

    def bwd(g):
        a._accumulate(g * keep, fresh=True)

    return _result(a.data * keep, (a,), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        a._accumulate(y * (g - inner), fresh=True)

    return _result(y, (a,), bwd)


def gather_nodes(a, index: np.ndarray) -> Tensor:
    """Pick one node embedding per batch row: (B, N, D) x (B,) -> (B, D).

    Negative indices select a zero vector (used for "no current node yet").
    """
    a = _as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    batch = np.arange(a.shape[0])
    safe = np.where(index < 0, 0, index)
    valid = (index >= 0).astype(np.float64)[:, None]
    data = a.data[batch, safe] * valid

    def bwd(g):
        out = np.zeros_like(a.data)
        np.add.at(out, (batch, safe), g * valid)
        a._accumulate(out, fresh=True)

    return _result(data, (a,), bwd)


def batchnorm_nodes(
    a,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    update_stats: bool = False,
    momentum: float = 0.1,
    eps: float = BN_EPS,
) -> Tensor:
    """Batch norm over the pooled (batch, node) axes of a (B, N, C) tensor.

    Training mode normalizes by the statistics of the current batch;
    inference mode uses the running estimates.  Running stats only move
    when ``update_stats`` is set, so repeated forwards are reproducible.
    """
    a, gamma, beta = _as_tensor(a), _as_tensor(gamma), _as_tensor(beta)
    if training:
        mu = a.data.mean(axis=(0, 1))
        var = a.data.var(axis=(0, 1))
        if update_stats:
            running_mean += momentum * (mu - running_mean)
            running_var += momentum * (var - running_var)
    else:
        mu, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv_std
    y = gamma.data * xhat + beta.data
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
