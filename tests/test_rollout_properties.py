"""Property tests: random legal play, the per-state mask cache, the EVRP transition, and lockstep greedy rollouts against serial ones."""

import struct
from dataclasses import fields, replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from routezero.baselines import greedy_rollouts
from routezero.env import (
    DeadEndError,
    PlayerState,
    RoutingGame,
    _legal_mask,
    evrp_arrivals,
    initial_state,
    legal_actions,
    objective,
    rollout,
    step,
    step_limit,
)
from routezero.instance import _KIND_CUSTOMER, _KIND_STATION, EvrpInstance, TspInstance, generate_evrp, generate_tsp
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



@st.composite
def varied_evrp(draw, sloped=st.booleans()):
    """An `EVRP` instance, flat or with random antisymmetric grades up to 0.06 rad, with no dwell or a quarter hour."""
    inst = draw(EVRP)
    slope = None
    if draw(sloped):
        raw = np.random.default_rng(draw(SEEDS)).uniform(-0.06, 0.06, (inst.n_nodes, inst.n_nodes))
        slope = np.triu(raw, 1) - np.triu(raw, 1).T
    return replace(inst, slope=slope, recharge_dwell_h=draw(st.sampled_from([0.0, 0.25])))


@settings(max_examples=300, deadline=None)
@given(inst=varied_evrp(sloped=st.just(True)), move_seed=SEEDS)
def test_random_legal_play_on_sloped_evrp_meets_an_empty_mask_only_at_the_depot(inst, move_seed):
    # a downhill edge cannot charge the pack past capacity, in the mask as in step; steep grades can
    # still leave the depot with no move, at the start or after a return that strands a customer
    rng = np.random.default_rng(move_seed)
    state = initial_state(inst)
    for _ in range(step_limit(inst)):
        if state.done:
            break
        mask = legal_actions(state)
        if not mask.any():
            assert state.position == 0, f"dead end at node {state.position}, route {state.route}"
            break
        state = step(state, int(rng.choice(np.flatnonzero(mask))))


def reference_arrival(state, j):
    """The EVRP transition as numpy scalar reads: clipped battery, clock plus drive then service or dwell, depot reset."""
    inst, full = state.instance, state.instance.vehicle.battery_capacity_kwh
    e_edge = float(inst.load_tables(state.load_kg).energy[state.position, j])
    battery = min(state.battery_kwh - e_edge, full)
    clock = state.clock_h + float(inst.travel_h[state.position, j])
    if inst.kinds[j] == _KIND_CUSTOMER:
        return battery, clock + inst.service_time_h, state.load_kg - float(inst.demands[j]), True, e_edge
    if inst.kinds[j] == _KIND_STATION:
        return full, clock + inst.recharge_dwell_h, state.load_kg, state.served_since_depot, e_edge
    return full, 0.0, inst.vehicle.cargo_capacity_kg, False, e_edge


def bits(values):
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


def reference_initial_state(inst):
    """The initial state as one constructor per problem, each field written out."""
    if isinstance(inst, TspInstance):
        return PlayerState(inst, -1, np.zeros(inst.n_nodes, dtype=bool), 0.0, 0.0, 0.0, (), False, False)
    veh = inst.vehicle
    return PlayerState(inst, 0, ~inst.is_customer, veh.battery_capacity_kwh, 0.0, veh.cargo_capacity_kg, (0,), False, False)


def reference_successor(state, j):
    """`step`'s successor as one constructor per problem, the EVRP one on `reference_arrival`."""
    inst = state.instance
    served = state.served.copy()
    served[j] = True
    if isinstance(inst, TspInstance):
        dist = 0.0 if state.position < 0 else float(inst.dist_km[state.position, j])
        return PlayerState(
            inst, j, served, state.battery_kwh, state.clock_h, state.load_kg, state.route + (j,),
            state.served_since_depot, bool(served.all()), state.distance_km + dist, state.energy_kwh,
        )
    battery, clock, load, since_depot, e_edge = reference_arrival(state, j)
    if not inst.is_customer[j]:
        served = state.served
    return PlayerState(
        inst, j, served, battery, clock, load, state.route + (j,), since_depot, j == 0 and bool(served.all()),
        state.distance_km + float(inst.dist_km[state.position, j]), state.energy_kwh + e_edge,
    )


def assert_same_bits(a, b):
    """Every field of two states equal in type and bits; arrays in dtype and bytes."""
    for name in (f.name for f in fields(a)):
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        else:
            assert type(x) is type(y) and bits([x]) == bits([y]), name


@settings(max_examples=80, deadline=None)
@given(inst=st.one_of(TSP, varied_evrp()), move_seed=SEEDS)
def test_evrp_arrivals_are_the_successor_fields_bit_for_bit(inst, move_seed):
    # TSP, and EVRP flat or sloped with no dwell or a quarter hour: every initial and successor field is the
    # reference constructors' bit for bit, and each EVRP child is built from its `evrp_arrivals` numbers
    rng = np.random.default_rng(move_seed)
    state = initial_state(inst)
    assert_same_bits(state, reference_initial_state(inst))
    for _ in range(step_limit(inst)):
        moves = [] if state.done else np.flatnonzero(legal_actions(state)).tolist()
        if not moves:  # steeper grades or a dwell can leave an instance with no route at all
            break
        arrivals = evrp_arrivals(state, moves) if isinstance(inst, EvrpInstance) else [None] * len(moves)
        for j, arrival in zip(moves, arrivals, strict=True):
            child = step(state, j)
            assert_same_bits(child, reference_successor(state, j))
            if arrival is not None:
                successor = (child.battery_kwh, child.clock_h, child.load_kg, child.served_since_depot)
                assert bits(arrival[:4]) == bits(successor), (state.route, j)
                assert bits([state.energy_kwh + arrival[4]]) == bits([child.energy_kwh])
                assert bits(arrival) == bits(reference_arrival(state, j)), (state.route, j)
        state = step(state, int(rng.choice(moves)))


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
