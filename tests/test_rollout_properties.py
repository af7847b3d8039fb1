"""Property tests: random legal play, the per-state mask cache, and lockstep greedy rollouts against serial ones."""

from dataclasses import fields, replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from routezero.baselines import greedy_rollouts
from routezero.env import (
    DeadEndError,
    RoutingGame,
    _legal_mask,
    initial_state,
    legal_actions,
    objective,
    rollout,
    step,
    step_limit,
)
from routezero.instance import generate_evrp, generate_tsp
from routezero.net import NetConfig, PolicyValueNet, featurize, stack_features

SEEDS = st.integers(0, 2**31 - 1)
TSP = st.builds(generate_tsp, st.integers(3, 8), SEEDS)
EVRP = st.builds(generate_evrp, st.integers(1, 4), st.integers(1, 2), SEEDS, st.sampled_from(["DM", "EM"]))


def assert_same_state(a, b):
    for name in (f.name for f in fields(a) if f.compare):
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y, name


@settings(max_examples=60, deadline=None)
@given(inst=st.one_of(TSP, EVRP), move_seed=SEEDS)
def test_random_legal_play_never_dead_ends(inst, move_seed):
    rng = np.random.default_rng(move_seed)
    state = initial_state(inst)
    for _ in range(step_limit(inst)):
        if state.done:
            break
        mask = legal_actions(state)
        assert mask.any(), f"dead end at node {state.position}, route {state.route}"
        state = step(state, int(rng.choice(np.flatnonzero(mask))))


@settings(max_examples=60, deadline=None)
@given(inst=st.one_of(TSP, EVRP), move_seed=SEEDS)
def test_cached_mask_is_a_fresh_compute_that_stays_with_its_state(inst, move_seed):
    rng = np.random.default_rng(move_seed)
    state = initial_state(inst)
    for _ in range(step_limit(inst)):
        if state.done:
            break
        assert state._mask is None, "a successor starts without a mask"
        mask = legal_actions(state)
        assert legal_actions(state) is mask
        np.testing.assert_array_equal(mask, _legal_mask(state))
        assert replace(state)._mask is None
        action = int(rng.choice(np.flatnonzero(mask)))
        nxt = step(state, action)
        assert_same_state(nxt, step(replace(state), action))
        state = nxt


def serial_greedy(inst, net):
    """The per-instance reference: env.rollout with the argmax of one state's logits under its mask."""

    def argmax(state, legal):
        batch = stack_features([featurize(state)])
        batch["legal"] = legal[None]
        return int(np.argmax(net.forward(batch)[0]))

    try:
        return rollout(RoutingGame(inst), argmax)
    except DeadEndError as exc:
        return exc


@pytest.mark.parametrize("problem, instances", [("tsp", TSP), ("evrp", EVRP)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_lockstep_matches_serial_rollouts(problem, instances, data):
    insts = data.draw(st.lists(instances, min_size=1, max_size=6), label="instances")
    chunk = data.draw(st.integers(1, 4), label="batch_size")
    cfg = NetConfig(problem=problem, embed_dim=16, n_heads=2, n_layers=1, ffn_dim=32, batch_size=chunk)
    net = PolicyValueNet.create(cfg, seed=data.draw(st.integers(0, 3), label="net seed"))
    for inst, got in zip(insts, greedy_rollouts(insts, net), strict=True):
        want = serial_greedy(inst, net)
        if isinstance(want, DeadEndError):
            assert isinstance(got, DeadEndError) and str(got) == str(want)
        else:
            assert got.route == want.route
            assert got.objective == objective(inst, want.route)
