"""Property tests: the replay rings against a plain-list FIFO model."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from routezero.net import StateFeatures
from routezero.trainer import PolicyBuffer, ValueBuffer

N = 4


def features(rng) -> StateFeatures:
    return StateFeatures(rng.random((N, 5)), np.zeros(0), int(rng.integers(-1, N)), int(rng.integers(-1, N)))


def policy_push(seed):
    """Arguments of one PolicyBuffer.push, and the row the model stores for them."""
    rng = np.random.default_rng(seed)
    feats = features(rng)
    legal = rng.random(N) < 0.5
    legal[rng.integers(N)] = True
    target = np.where(legal, rng.random(N) + 0.1, 0.0)
    target /= target.sum()
    row = (feats.nodes, feats.globals_, np.int64(feats.current), np.int64(feats.first), legal, target)
    return (feats, legal, target), row


def value_push(seed):
    rng = np.random.default_rng(seed)
    own, opp = features(rng), features(rng)
    z = float(rng.choice([-1.0, 1.0]))
    return (own, opp, z), (own.nodes, opp.nodes, np.float64(z))


def model_batch(rows, columns, idx):
    return {k: np.stack([rows[i][j] for i in idx]) for j, k in enumerate(columns)}


def assert_batches_equal(got, want):
    assert got.keys() == want.keys()
    for k in want:
        assert got[k].dtype == want[k].dtype, k
        np.testing.assert_array_equal(got[k], want[k], err_msg=k)


def check_against_model(buf, rows, draw_seed, batch=7):
    assert len(buf) == len(rows)
    arrays = buf.to_arrays("b/")
    assert int(arrays["b/count"]) == len(rows)
    if not rows:
        assert buf.sample(batch, np.random.default_rng(draw_seed)) is None
        assert set(arrays) == {"b/count"}
        return
    stored = {k[2:]: v for k, v in arrays.items() if k != "b/count"}
    assert_batches_equal(stored, model_batch(rows, buf.COLUMNS, range(len(rows))))
    idx = np.random.default_rng(draw_seed).integers(0, len(rows), size=batch)
    assert_batches_equal(buf.sample(batch, np.random.default_rng(draw_seed)), model_batch(rows, buf.COLUMNS, idx))


@pytest.mark.parametrize("cls, make_push", [(PolicyBuffer, policy_push), (ValueBuffer, value_push)])
@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 6),
    seeds=st.lists(st.integers(0, 2**32 - 1), max_size=16),
    reload_at=st.integers(0, 16),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_ring_matches_a_list_fifo(cls, make_push, capacity, seeds, reload_at, draw_seed):
    buf = cls(capacity)
    rows = []
    for i, seed in enumerate(seeds):
        if i == reload_at:  # a checkpoint round trip mid-stream, as a resume does
            buf = cls.from_arrays(buf.to_arrays("b/"), "b/", capacity)
        args, row = make_push(seed)
        buf.push(*args)
        rows = (rows + [row])[-capacity:]
    check_against_model(buf, rows, draw_seed)
    check_against_model(cls.from_arrays(buf.to_arrays("b/"), "b/", capacity), rows, draw_seed)
