"""Per-load energy tables: random legal play against a per-edge reference, and the memo's keys."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from routezero.env import (
    DeadEndError,
    IllegalActionError,
    RoutingGame,
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


def reference_paths(inst, battery_kwh, clock_h, mass_kg):
    """The homing paths from every node, one edge energy at a time: which fit the battery, which the clock.

    Columns as in ``recharge_ids``.  ``mass_kg`` is a scalar or one mass per
    node; a path's first leg and its station's drive home both use the mass
    of the node it leaves from.  A recharge point is never its own path.
    """
    full = inst.vehicle.battery_capacity_kwh
    mass = np.broadcast_to(mass_kg, (inst.n_nodes,))
    battery_ok = np.zeros((inst.n_nodes, inst.recharge_ids.size), dtype=bool)
    clock_ok = np.zeros_like(battery_ok)
    for j in range(inst.n_nodes):
        for col, p in enumerate(inst.recharge_ids):
            if p == j:
                continue
            first = float(inst.energy_row_kwh(j, mass[j], p))
            home = float(inst.energy_row_kwh(p, mass[j], 0))
            battery_ok[j, col] = battery_kwh[j] >= max(first, 0.0) and full >= max(home, 0.0)
            dwell = 0.0 if p == 0 else inst.recharge_dwell_h
            clock_ok[j, col] = clock_h[j] + inst.travel_h[j, p] + dwell + inst.travel_h[p, 0] <= inst.t_max_h
    return battery_ok, clock_ok


def reference_moves(state):
    """Per-edge view of the moves from ``state``: the battery left at each node and, as `reference_paths`
    gives them, its homing paths after serving it and after a full recharge there."""
    inst = state.instance
    mass_now = inst.vehicle.curb_mass_kg + state.load_kg
    full = np.full(inst.n_nodes, inst.vehicle.battery_capacity_kwh)
    # regeneration beyond capacity is lost, as in step
    edges = [float(inst.energy_row_kwh(state.position, mass_now, j)) for j in range(inst.n_nodes)]
    e_after = np.minimum(state.battery_kwh - np.array(edges), full)
    arrive_h = state.clock_h + inst.travel_h[state.position]
    settled = reference_paths(inst, e_after, arrive_h + inst.service_time_h, mass_now - inst.demands)
    recharged = reference_paths(inst, full, arrive_h + inst.recharge_dwell_h, mass_now)
    return e_after, settled, recharged


def reference_mask(state):
    """The EVRP legal mask from per-edge energies, one evaluation per edge."""
    inst = state.instance
    i = state.position
    e_after, settled, recharged = reference_moves(state)
    open_customers = (inst.kinds == _KIND_CUSTOMER) & ~state.served & (inst.demands <= state.load_kg)
    legal = open_customers & (settled[0] & settled[1]).any(axis=1)
    legal |= (inst.kinds == _KIND_STATION) & (e_after >= 0.0) & (recharged[0] & recharged[1]).any(axis=1)
    legal[i] = False
    depot_reachable = e_after[0] >= 0.0 and state.clock_h + inst.travel_h[i, 0] <= inst.t_max_h and i != 0
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
    # each entry against energy_row_kwh on its own edges; at 6 kWh some stations cannot drive home on a
    # full battery, so their paths need inf
    for battery_kwh in (80.0, 6.0):
        inst = generate_evrp(4, 2, seed=3, vehicle=VehicleParams(battery_capacity_kwh=battery_kwh))
        load = 3000.25
        tables = inst.load_tables(load)
        mass = inst.vehicle.curb_mass_kg + load
        full = inst.vehicle.battery_capacity_kwh
        own = (inst.recharge_ids, np.arange(inst.recharge_ids.size))

        def need(j, p, mass_kg):
            first, home = float(inst.energy_row_kwh(j, mass_kg, p)), float(inst.energy_row_kwh(p, mass_kg, 0))
            return max(first, 0.0) if full >= max(home, 0.0) else np.inf

        np.testing.assert_array_equal(tables.energy, inst.energy_matrix_kwh(mass))
        nodes = range(inst.n_nodes)
        settled = [[need(j, p, mass - inst.demands[j]) for p in inst.recharge_ids] for j in nodes]
        np.testing.assert_array_equal(tables.settled_need, settled)
        station = [[need(j, p, mass) <= full for p in inst.recharge_ids] for j in nodes]
        np.testing.assert_array_equal(tables.station_ok, station)
        # a recharge point's own path has no first leg, and a full battery covers it exactly when it covers
        # the direct path home, which takes no dwell: that column never decides a move
        assert set(tables.settled_need[own]) <= {0.0, np.inf}
        np.testing.assert_array_equal(tables.station_ok[own], tables.station_ok[inst.recharge_ids, 0])
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
    mass = loose.vehicle.curb_mass_kg + loose.vehicle.cargo_capacity_kg
    assert loose.energy_row_kwh(1, mass, 0) > full and loose.energy_row_kwh(1, mass, 2) <= full
    assert loose.energy_row_kwh(2, mass, 0) <= full
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


def expected_message(state, j, moves):
    """The part of the illegal-move message for masked move ``j`` that names the rule, from `reference_moves`."""
    inst = state.instance
    e_after, settled, recharged = moves
    if j == state.position:
        return "self-move"
    if j == 0:
        if not (state.served_since_depot or bool(state.served.all())):
            return "before serving any customer"
        return "depot unreachable on current battery" if e_after[0] < 0.0 else "depot return breaks the trip time limit"
    if inst.kinds[j] == _KIND_CUSTOMER:
        if j in state.route:
            return "already served"
        if inst.demands[j] > state.load_kg:
            return "demand exceeds remaining cargo"
        (battery_ok, clock_ok), battery_message = settled, "strands the battery"
    else:
        if e_after[j] < 0.0:
            return "unreachable on current battery"
        (battery_ok, clock_ok), battery_message = recharged, "no onward recharge"
    if not battery_ok[j].any():
        return battery_message
    if not clock_ok[j].any():
        return "trip time limit"
    return "no single route home fits both"


@settings(max_examples=200, deadline=None)
@given(inst=evrp_instances(), move_seed=SEEDS)
def test_illegal_move_message_names_the_rule_the_mask_applied(inst, move_seed):
    rng = np.random.default_rng(move_seed)
    state = initial_state(inst)
    for _ in range(40):
        mask = legal_actions(state)
        moves = reference_moves(state)
        for j in np.flatnonzero(~mask):
            expected = expected_message(state, int(j), moves)
            with pytest.raises(IllegalActionError) as excinfo:
                step(state, int(j))
            assert expected in str(excinfo.value), (int(j), state.route)
        if not mask.any():
            return
        state = step(state, int(rng.choice(np.flatnonzero(mask))))
        if state.done:
            return
