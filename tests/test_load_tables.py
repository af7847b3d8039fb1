"""Per-load energy tables: random legal play against a per-edge reference, and the memo's keys."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from routezero.env import _served_full, initial_state, legal_actions, step, step_limit
from routezero.instance import (
    _KIND_CUSTOMER,
    _KIND_STATION,
    EvrpInstance,
    Node,
    NodeKind,
    generate_evrp,
)

SEEDS = st.integers(0, 2**31 - 1)


@st.composite
def evrp_instances(draw):
    """Random EVRP instances: 0-2 stations, demands that are not binary fractions, optional grades.

    Demands up to 2.5 t against the 4 t capacity force depot returns, and
    grades up to 0.04 rad make some edges regenerative.
    """
    n_customers, n_stations = draw(st.integers(1, 4), label="customers"), draw(st.integers(0, 2), label="stations")
    rng = np.random.default_rng(draw(SEEDS, label="instance seed"))
    n = 1 + n_stations + n_customers
    xy = 40.0 * rng.random((n, 2))
    nodes = [Node(0, NodeKind.DEPOT, *xy[0])]
    nodes += [Node(k, NodeKind.STATION, *xy[k]) for k in range(1, 1 + n_stations)]
    nodes += [Node(k, NodeKind.CUSTOMER, *xy[k], rng.uniform(100.0, 2500.0)) for k in range(1 + n_stations, n)]
    slope = None
    if draw(st.booleans(), label="sloped"):
        grade = np.triu(rng.uniform(-0.04, 0.04, (n, n)), 1)
        slope = grade - grade.T
    return EvrpInstance(
        nodes=tuple(nodes),
        slope=slope,
        recharge_dwell_h=rng.uniform(0.05, 0.5),
        objective_mode=draw(st.sampled_from(["DM", "EM"]), label="objective"),
    )


def twin(inst):
    """A second instance built from the same data."""
    return EvrpInstance(
        nodes=inst.nodes, slope=inst.slope, recharge_dwell_h=inst.recharge_dwell_h, objective_mode=inst.objective_mode
    )


def reference_homing(inst, battery_kwh, clock_h, mass_kg):
    """The per-edge homing test: energy tables evaluated at ``mass_kg`` on every call."""
    home_h = inst.travel_h[:, 0]
    escape = inst.escape_table_kwh(mass_kg)
    ok = (battery_kwh >= np.maximum(escape[:, 0], 0.0)) & (clock_h + home_h <= inst.t_max_h)
    if inst.station_ids.size:
        stations = inst.station_ids
        via_clock = clock_h[:, None] + inst.travel_h[:, stations] + inst.recharge_dwell_h + home_h[stations][None, :]
        station_home = inst.recharge_home_energy_kwh(mass_kg)[:, 1:]
        via = (
            (battery_kwh[:, None] >= np.maximum(escape[:, 1:], 0.0))
            & (inst.vehicle.battery_capacity_kwh >= np.maximum(station_home, 0.0))
            & (via_clock <= inst.t_max_h)
        )
        ok |= via.any(axis=1)
    return ok


def reference_mask(state):
    """The EVRP legal mask from the per-edge helpers, one energy evaluation per call."""
    inst = state.instance
    i = state.position
    mass_now = inst.vehicle.curb_mass_kg + state.load_kg
    e_after = state.battery_kwh - inst.energy_row_kwh(i, mass_now)
    arrive_h = state.clock_h + inst.travel_h[i]
    legal = np.zeros(inst.n_nodes, dtype=bool)
    open_customers = (inst.kinds == _KIND_CUSTOMER) & ~_served_full(state) & (inst.demands <= state.load_kg)
    if open_customers.any():
        settled = reference_homing(inst, e_after, arrive_h + inst.service_time_h, mass_now - inst.demands)
        legal |= open_customers & settled
    is_station = inst.kinds == _KIND_STATION
    if is_station.any():
        full = np.full(inst.n_nodes, inst.vehicle.battery_capacity_kwh)
        recharged = reference_homing(inst, full, arrive_h + inst.recharge_dwell_h, mass_now)
        legal |= is_station & (e_after >= 0.0) & recharged
    legal[i] = False
    depot_reachable = e_after[0] >= 0.0 and arrive_h[0] <= inst.t_max_h and i != 0
    if state.served_since_depot or bool(state.served.all()) or not legal.any():
        legal[0] = depot_reachable
    return legal


def play(inst, rng, loads_seen):
    """One random legal rollout, checking every mask and energy increment against the reference."""
    state = initial_state(inst)
    curb = inst.vehicle.curb_mass_kg
    for _ in range(step_limit(inst)):
        if state.done:
            return
        mask = legal_actions(state)
        loads_seen.add(state.load_kg)
        np.testing.assert_array_equal(mask, reference_mask(state))
        if not mask.any():
            return
        action = int(rng.choice(np.flatnonzero(mask)))
        nxt = step(state, action)
        edge = float(inst.energy_row_kwh(state.position, curb + state.load_kg, action))
        assert nxt.energy_kwh == state.energy_kwh + edge
        state = nxt


@settings(max_examples=60, deadline=None)
@given(inst=evrp_instances(), move_seed=SEEDS)
def test_tables_match_per_edge_evaluation_under_random_play(inst, move_seed):
    other = twin(inst)
    loads_seen = set()
    for k in range(4):
        play(inst, np.random.default_rng([move_seed, k]), loads_seen)
        play(other, np.random.default_rng([move_seed, k]), set())
    # one entry per distinct load, keyed by the exact float
    assert set(inst._load_tables) == loads_seen and len(inst._load_tables) == len(loads_seen)
    # the same data and the same moves fill the twin's own entries, never shared ones
    assert set(other._load_tables) == loads_seen
    for load, tables in inst._load_tables.items():
        theirs = other._load_tables[load]
        assert tables is not theirs
        for mine, twins in zip(tables, theirs, strict=True):
            assert not np.shares_memory(mine, twins)


def test_loads_one_ulp_apart_are_separate_entries():
    inst = generate_evrp(4, 2, seed=3)
    load = 4000.0 - 0.3
    below = np.nextafter(load, 0.0)
    assert inst.load_tables(load) is inst.load_tables(load)
    assert inst.load_tables(below) is not inst.load_tables(load)
    assert len(inst._load_tables) == 2


def test_tables_are_read_only_and_match_the_helpers():
    inst = generate_evrp(4, 2, seed=3)
    load = 3000.25
    tables = inst.load_tables(load)
    mass = inst.vehicle.curb_mass_kg + load
    np.testing.assert_array_equal(tables.energy, inst.energy_matrix_kwh(mass))
    np.testing.assert_array_equal(tables.settled_escape, inst.escape_table_kwh(mass - inst.demands))
    np.testing.assert_array_equal(tables.settled_home, inst.recharge_home_energy_kwh(mass - inst.demands)[:, 1:])
    np.testing.assert_array_equal(tables.escape, inst.escape_table_kwh(mass))
    np.testing.assert_array_equal(tables.home, inst.recharge_home_energy_kwh(mass)[:, 1:])
    for table in tables:
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
