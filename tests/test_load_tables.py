"""Per-load energy tables: random legal play against a per-edge reference, and the memo's keys."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from routezero.env import (
    DeadEndError,
    RoutingGame,
    _served_full,
    initial_state,
    legal_actions,
    objective,
    rollout,
    step,
    step_limit,
)
from routezero.instance import (
    _KIND_CUSTOMER,
    _KIND_STATION,
    EvrpInstance,
    Node,
    NodeKind,
    VehicleParams,
    generate_evrp,
)

SEEDS = st.integers(0, 2**31 - 1)


@st.composite
def evrp_instances(draw):
    """Random EVRP instances: 0-2 stations, demands that are not binary fractions, optional grades.

    Demands up to 2.5 t against the 4 t capacity force depot returns, and
    grades up to 0.04 rad make some edges regenerative.  Under the default
    8 h trip clock and 80 kWh battery the clock decides almost no mask.  So
    a tight variant sets ``t_max`` to 0.8-2.5 times the farthest node's
    round trip (at the default 60 km/h, plus the default 0.1 h service) and
    the battery to 6-15 kWh: the clock then decides about a third of the
    masks, and the battery often leaves only the homing paths via a
    station, so their clock sums are put to the test as well.
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
    t_max_h, vehicle = 8.0, VehicleParams()
    if draw(st.booleans(), label="tight"):
        round_trip_h = 2.0 * np.hypot(*(xy - xy[0]).T).max() / 60.0 + 0.1
        t_max_h = rng.uniform(0.8, 2.5) * round_trip_h
        vehicle = VehicleParams(battery_capacity_kwh=rng.uniform(6.0, 15.0))
    return EvrpInstance(
        nodes=tuple(nodes),
        vehicle=vehicle,
        slope=slope,
        t_max_h=t_max_h,
        recharge_dwell_h=rng.uniform(0.05, 0.5),
        objective_mode=draw(st.sampled_from(["DM", "EM"]), label="objective"),
    )


def twin(inst):
    """A second instance built from the same data."""
    return replace(inst)


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
    # at 6 kWh some stations cannot drive home on a full battery, so their paths need inf
    for battery_kwh in (80.0, 6.0):
        inst = generate_evrp(4, 2, seed=3, vehicle=VehicleParams(battery_capacity_kwh=battery_kwh))
        load = 3000.25
        tables = inst.load_tables(load)
        mass = inst.vehicle.curb_mass_kg + load
        full = inst.vehicle.battery_capacity_kwh
        paths = range(inst.recharge_ids.size)

        def need(escape, home):
            return max(escape, 0.0) if full >= max(home, 0.0) else np.inf

        np.testing.assert_array_equal(tables.energy, inst.energy_matrix_kwh(mass))
        escape, home = inst.escape_table_kwh(mass - inst.demands), inst.recharge_home_energy_kwh(mass - inst.demands)
        settled = [[need(escape[j, p], home[j, p]) for p in paths] for j in range(inst.n_nodes)]
        np.testing.assert_array_equal(tables.settled_need, settled)
        escape, home = inst.escape_table_kwh(mass), inst.recharge_home_energy_kwh(mass)[0]
        station = [[need(escape[j, p], home[p]) <= full for p in paths] for j in range(inst.n_nodes)]
        np.testing.assert_array_equal(tables.station_ok, station)
        stranded = np.isinf(tables.settled_need[:, 1:]).all(axis=0)
        assert stranded.any() == (battery_kwh == 6.0)
        for table in tables:
            with pytest.raises(ValueError):
                table[0, 0] = 0.0


def test_via_station_clock_equal_to_t_max_keeps_the_station_legal():
    # on a line: station 1 at 60 km is too far from the depot for the 9 kWh battery, station 2 at 30 km is not,
    # so from station 2 the move to station 1 is legal only through its homing path via station 2
    nodes = (
        Node(0, NodeKind.DEPOT, 0.0, 0.0),
        Node(1, NodeKind.STATION, 60.0, 0.0),
        Node(2, NodeKind.STATION, 30.0, 0.0),
        Node(3, NodeKind.CUSTOMER, -1.0, 0.0, 100.0),
    )
    loose = EvrpInstance(nodes=nodes, vehicle=VehicleParams(battery_capacity_kwh=9.0), recharge_dwell_h=0.3)
    full = loose.vehicle.battery_capacity_kwh
    escape = loose.escape_table_kwh(loose.vehicle.curb_mass_kg + loose.vehicle.cargo_capacity_kg)
    assert escape[1, 0] > full and escape[1, 2] <= full and escape[2, 0] <= full
    at_2 = step(initial_state(loose), 2)
    travel, dwell = loose.travel_h, loose.recharge_dwell_h
    # the path's clock in route order: arrive at 1, recharge, back to 2, recharge, home
    t_max = at_2.clock_h + travel[2, 1] + dwell + travel[1, 2] + dwell + travel[2, 0]
    for limit, legal in ((t_max, True), (np.nextafter(t_max, 0.0), False), (np.nextafter(t_max, np.inf), True)):
        state = replace(at_2, instance=replace(loose, t_max_h=limit))
        mask = legal_actions(state)
        np.testing.assert_array_equal(mask, reference_mask(state))
        assert mask[1] == legal


@settings(max_examples=60, deadline=None)
@given(inst=evrp_instances(), move_seed=SEEDS)
def test_terminal_reward_is_minus_the_objective_bit_for_bit(inst, move_seed):
    game = RoutingGame(inst)
    for k in range(4):
        rng = np.random.default_rng([move_seed, k])
        try:
            end = rollout(game, lambda state, mask: int(rng.choice(np.flatnonzero(mask))))
        except DeadEndError:
            continue
        assert game.terminal_reward(end) == -objective(inst, end.route)
