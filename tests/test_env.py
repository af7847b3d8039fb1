import math
from dataclasses import replace

import numpy as np
import pytest

import routezero.env as env_mod
from routezero.env import (
    VIOLATION_BATTERY,
    VIOLATION_CARGO,
    VIOLATION_ENDPOINTS,
    VIOLATION_NODE_ID,
    VIOLATION_SELF_LOOP,
    VIOLATION_SERVICE_COUNT,
    VIOLATION_TIME,
    DeadEndError,
    IllegalActionError,
    PlayerState,
    RouteError,
    RoutingGame,
    TerminalStateError,
    energy_consumed,
    game_outcome,
    initial_state,
    legal_actions,
    objective,
    play,
    rollout,
    step,
    validate_route,
)
from routezero.instance import (
    EvrpInstance,
    Node,
    NodeKind,
    TspInstance,
    VehicleParams,
    generate_evrp,
    generate_tsp,
)


def line_instance(points, **kwargs):
    """Nodes on the x axis: points = [(kind, x_km, demand), ...], depot at 0."""
    nodes = [Node(0, NodeKind.DEPOT, 0.0, 0.0)]
    for k, (kind, x, demand) in enumerate(points):
        nodes.append(Node(k + 1, kind, x, 0.0, demand))
    return EvrpInstance(nodes=tuple(nodes), **kwargs)


def manual_edge_energy(inst, i, j, mass_kg):
    """Straight reimplementation of the battery model for spot checks."""
    veh = inst.vehicle
    v = inst.speed_kmh / 3.6
    a = 0.0 if inst.slope is None else float(inst.slope[i, j])
    rolling = veh.rolling_resistance * math.cos(a)
    if veh.physical_rolling_resistance:
        rolling *= veh.gravity
    drag = 0.5 * veh.drag_coefficient * veh.air_density * veh.frontal_area_m2 * v * v
    power = (mass_kg * (veh.gravity * math.sin(a) + rolling) + drag) * v
    dist = math.dist((inst.nodes[i].x, inst.nodes[i].y), (inst.nodes[j].x, inst.nodes[j].y))
    hours = dist / inst.speed_kmh
    if power >= 0:
        eff = veh.motor_discharge_factor * veh.battery_discharge_factor
    else:
        eff = veh.motor_recovery_factor * veh.battery_recovery_factor
    return eff * power * hours / 1000.0


class TestInitialState:
    def test_tsp_starts_nowhere(self):
        state = initial_state(generate_tsp(5, seed=1))
        assert state.position == -1
        assert not state.served.any()
        assert state.route == ()
        assert not state.done

    def test_evrp_starts_loaded_at_depot(self):
        inst = generate_evrp(3, 1, seed=1)
        state = initial_state(inst)
        assert state.position == 0
        assert state.battery_kwh == inst.vehicle.battery_capacity_kwh
        assert state.load_kg == inst.vehicle.cargo_capacity_kg
        assert state.clock_h == 0.0
        assert state.route == (0,)
        # served is indexed by node id: the depot and the station have nothing to serve
        np.testing.assert_array_equal(state.served, ~inst.is_customer)


class TestTsp:
    def test_mask_is_unvisited_cities(self):
        state = initial_state(generate_tsp(4, seed=2))
        assert legal_actions(state).all()
        state = step(state, 2)
        mask = legal_actions(state)
        assert not mask[2] and mask.sum() == 3

    def test_first_step_costs_nothing(self):
        state = step(initial_state(generate_tsp(4, seed=2)), 1)
        assert state.distance_km == 0.0
        assert state.position == 1

    def test_distance_accumulates(self):
        inst = generate_tsp(4, seed=3)
        state = initial_state(inst)
        for a in (0, 3, 1, 2):
            state = step(state, a)
        assert state.done
        expect = inst.dist_km[0, 3] + inst.dist_km[3, 1] + inst.dist_km[1, 2]
        assert state.distance_km == pytest.approx(expect, rel=1e-12)

    def test_revisit_rejected(self):
        state = step(initial_state(generate_tsp(4, seed=2)), 1)
        with pytest.raises(IllegalActionError, match="already visited"):
            step(state, 1)
        with pytest.raises(IllegalActionError, match="already visited"):
            step(state, 1)  # now against the mask the first call cached

    def test_terminal_state_has_no_actions(self):
        state = initial_state(generate_tsp(3, seed=2))
        for a in (0, 1, 2):
            state = step(state, a)
        with pytest.raises(TerminalStateError):
            legal_actions(state)
        with pytest.raises(TerminalStateError):
            step(state, 0)


# flat-ground energy rates, default vehicle: ~0.138 kWh/km empty, ~0.149 full;
# the 80 kWh pack covers roughly 536-579 km per charge
FAR = 5000.0


class TestEvrpMask:
    def test_cargo_gate(self):
        inst = line_instance(
            [(NodeKind.CUSTOMER, 10.0, 3000.0), (NodeKind.CUSTOMER, 20.0, 2000.0)]
        )
        state = step(initial_state(inst), 1)
        mask = legal_actions(state)
        assert not mask[2], "demand 2000 exceeds the 1000 kg left"
        assert mask[0]

    def test_battery_stranding_gate(self):
        # customer is reachable, but after serving it no recharge point is
        inst = line_instance([(NodeKind.CUSTOMER, 300.0, 0.5)], t_max_h=100.0)
        assert not legal_actions(initial_state(inst))[1]
        near = line_instance([(NodeKind.CUSTOMER, 150.0, 0.5)], t_max_h=100.0)
        assert legal_actions(initial_state(near))[1]

    def test_trip_clock_gate(self):
        inst = line_instance([(NodeKind.CUSTOMER, 100.0, 0.5)], t_max_h=3.0)
        assert not legal_actions(initial_state(inst))[1], "2h out + 2h home + service > 3h"
        relaxed = line_instance([(NodeKind.CUSTOMER, 80.0, 0.5)], t_max_h=3.0)
        assert legal_actions(initial_state(relaxed))[1]

    def test_station_needs_onward_recharge(self):
        # regen downhill makes the station reachable, but the climb back out
        # costs more than a full pack, so stopping there would strand the truck
        slope = np.zeros((3, 3))
        slope[0, 1] = -0.05
        slope[1, 0] = 0.05
        inst = line_instance(
            [(NodeKind.STATION, 300.0, 0.0), (NodeKind.CUSTOMER, 1.0, 0.5)],
            slope=slope,
            t_max_h=100.0,
        )
        assert not legal_actions(initial_state(inst))[1]

    def test_downhill_customer_counts_only_the_charge_the_pack_holds(self):
        # 0 -> 2 regenerates 42.1 kWh into a full 80 kWh pack, and step clips the surplus; home from
        # customer 2 takes 92.6 kWh, so the unclipped 122.1 kWh would admit a move into a dead end
        slope = np.array([[0.0, 0.017, -0.048], [-0.017, 0.0, -0.034], [0.048, 0.034, 0.0]])
        inst = replace(generate_evrp(1, 1, seed=1036940417, objective_mode="EM"), slope=slope)
        start = initial_state(inst)
        tables = inst.load_tables(start.load_kg)
        need = tables.settled_need[2].min()
        assert start.battery_kwh - tables.energy[0, 2] >= need > inst.vehicle.battery_capacity_kwh
        assert not legal_actions(start)[2]
        with pytest.raises(IllegalActionError, match="move to customer 2 strands the battery"):
            step(start, 2)

    def test_depot_is_last_resort(self):
        inst = line_instance(
            [(NodeKind.STATION, 10.0, 0.0), (NodeKind.CUSTOMER, FAR, 0.5)],
            t_max_h=400.0,
        )
        start = initial_state(inst)
        mask = legal_actions(start)
        assert not mask[0], "self-move"
        assert mask[1] and not mask[2]
        at_station = step(start, 1)
        mask = legal_actions(at_station)
        assert mask[0] and mask.sum() == 1, "empty trip home is the only escape"

    def test_depot_masked_while_work_remains(self):
        inst = line_instance(
            [(NodeKind.STATION, 10.0, 0.0), (NodeKind.CUSTOMER, 20.0, 0.5)]
        )
        at_station = step(initial_state(inst), 1)
        mask = legal_actions(at_station)
        assert mask[2]
        assert not mask[0], "no empty trips while a customer is still in reach"

    def test_mask_is_pure(self):
        inst = generate_evrp(4, 2, seed=5)
        state = initial_state(inst)
        first = legal_actions(state)
        assert np.array_equal(first, legal_actions(state))

    @pytest.mark.parametrize("inst", [generate_tsp(4, seed=5), generate_evrp(4, 2, seed=5)], ids=["tsp", "evrp"])
    def test_mask_is_read_only(self, inst):
        mask = legal_actions(initial_state(inst))
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = not mask[0]

    def test_customer_needs_one_escape_that_fits_both_resources(self):
        # after the far customer, serving the near one would leave a battery
        # that only reaches the station and a clock that only covers the
        # direct drive home; admitting it would dead-end the route
        inst = line_instance(
            [
                (NodeKind.CUSTOMER, 220.0, 0.5),
                (NodeKind.CUSTOMER, 40.0, 0.5),
                (NodeKind.STATION, 48.0, 0.0),
            ],
            t_max_h=7.6,
        )
        far, near, station = 1, 2, 3
        state = step(initial_state(inst), far)
        mass_move = inst.vehicle.curb_mass_kg + state.load_kg
        mass_after = mass_move - inst.demands[near]
        battery = state.battery_kwh - float(inst.energy_row_kwh(far, mass_move, near))
        assert battery < float(inst.energy_row_kwh(near, mass_after, 0))
        assert battery >= float(inst.energy_row_kwh(near, mass_after, station))
        clock = state.clock_h + inst.travel_h[far, near] + inst.service_time_h
        assert clock + inst.travel_h[near, 0] <= inst.t_max_h
        assert clock + inst.travel_h[near, station] + inst.travel_h[station, 0] > inst.t_max_h

        mask = legal_actions(state)
        assert not mask[near]
        assert mask[station], "recharging first stays available"
        assert legal_actions(step(state, station))[near], "the detour re-opens the customer"


class TestEvrpStep:
    def test_customer_visit_effects(self):
        inst = line_instance([(NodeKind.CUSTOMER, 40.0, 750.0)])
        state = step(initial_state(inst), 1)
        veh = inst.vehicle
        e = manual_edge_energy(inst, 0, 1, veh.curb_mass_kg + veh.cargo_capacity_kg)
        assert state.battery_kwh == pytest.approx(veh.battery_capacity_kwh - e, rel=1e-12)
        assert state.clock_h == pytest.approx(40.0 / 60.0 + inst.service_time_h, rel=1e-12)
        assert state.load_kg == veh.cargo_capacity_kg - 750.0
        assert state.served.all() and state.served_since_depot
        assert not state.done, "still has to get home"

    def test_station_resets_battery_only(self):
        inst = line_instance(
            [(NodeKind.STATION, 50.0, 0.0), (NodeKind.CUSTOMER, 60.0, 500.0)],
            recharge_dwell_h=0.25,
        )
        state = step(initial_state(inst), 1)
        veh = inst.vehicle
        assert state.battery_kwh == veh.battery_capacity_kwh
        assert state.load_kg == veh.cargo_capacity_kg
        assert state.clock_h == pytest.approx(50.0 / 60.0 + 0.25, rel=1e-12)
        assert not state.served_since_depot

    def test_depot_restocks_and_resets_clock(self):
        inst = line_instance(
            [(NodeKind.CUSTOMER, 10.0, 3000.0), (NodeKind.CUSTOMER, 20.0, 2000.0)]
        )
        state = step(initial_state(inst), 1)
        state = step(state, 0)
        veh = inst.vehicle
        assert state.battery_kwh == veh.battery_capacity_kwh
        assert state.load_kg == veh.cargo_capacity_kg
        assert state.clock_h == 0.0
        assert not state.served_since_depot
        assert not state.done, "customer 2 still open"
        state = step(step(state, 2), 0)
        assert state.done

    def test_regeneration_cannot_overfill_the_pack(self):
        slope = np.zeros((2, 2))
        slope[0, 1] = -0.06
        slope[1, 0] = 0.06
        inst = line_instance([(NodeKind.CUSTOMER, 10.0, 0.5)], slope=slope)
        e = manual_edge_energy(inst, 0, 1, inst.vehicle.curb_mass_kg + inst.vehicle.cargo_capacity_kg)
        assert e < 0, "downhill run must regenerate"
        state = step(initial_state(inst), 1)
        assert state.battery_kwh == inst.vehicle.battery_capacity_kwh
        assert state.energy_kwh == pytest.approx(e, rel=1e-12), "ledger keeps the signed draw"

    def test_out_of_range_action(self):
        inst = generate_evrp(3, 1, seed=7)
        state = initial_state(inst)
        with pytest.raises(IllegalActionError, match="out of range"):
            step(state, 99)
        legal_actions(state)
        with pytest.raises(IllegalActionError, match="out of range"):
            step(state, 99)

    @pytest.mark.parametrize(
        "build, moves, bad, message",
        [
            (
                lambda: line_instance(
                    [(NodeKind.CUSTOMER, 10.0, 3000.0), (NodeKind.CUSTOMER, 20.0, 2000.0)]
                ),
                (1,),
                2,
                "demand exceeds remaining cargo",
            ),
            (
                lambda: line_instance([(NodeKind.CUSTOMER, 300.0, 0.5)], t_max_h=100.0),
                (),
                1,
                "strands the battery",
            ),
            (
                lambda: line_instance([(NodeKind.CUSTOMER, 100.0, 0.5)], t_max_h=3.0),
                (),
                1,
                "trip time limit",
            ),
            (
                lambda: line_instance(
                    [(NodeKind.CUSTOMER, 10.0, 0.5), (NodeKind.CUSTOMER, 20.0, 0.5)]
                ),
                (1, 0),
                1,
                "already served",
            ),
            (
                lambda: line_instance(
                    [(NodeKind.STATION, 10.0, 0.0), (NodeKind.CUSTOMER, 20.0, 0.5)]
                ),
                (1,),
                0,
                "before serving any customer",
            ),
            (
                lambda: line_instance(
                    [(NodeKind.STATION, 900.0, 0.0), (NodeKind.CUSTOMER, 10.0, 0.5)],
                    t_max_h=100.0,
                ),
                (),
                1,
                "unreachable on current battery",
            ),
        ],
    )
    def test_illegal_moves_name_the_rule(self, build, moves, bad, message):
        state = initial_state(build())
        for a in moves:
            state = step(state, a)
        with pytest.raises(IllegalActionError, match=message):
            step(state, bad)
        with pytest.raises(IllegalActionError, match=message):
            step(state, bad)  # now against the mask the first call cached

    def test_self_move_rejected(self):
        inst = line_instance([(NodeKind.CUSTOMER, 10.0, 0.5)])
        with pytest.raises(IllegalActionError, match="self-move"):
            step(initial_state(inst), 0)


class TestObjective:
    def test_unit_square_tour(self):
        inst = TspInstance(coords=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert objective(inst, [0, 1, 2, 3]) == 4.0

    def test_tsp_requires_a_permutation(self):
        inst = generate_tsp(4, seed=1)
        with pytest.raises(RouteError):
            objective(inst, [0, 1, 2])
        with pytest.raises(RouteError):
            objective(inst, [0, 1, 2, 2])

    def test_distance_mode_sums_hops(self):
        inst = line_instance(
            [(NodeKind.CUSTOMER, 10.0, 3000.0), (NodeKind.CUSTOMER, 20.0, 2000.0)],
            objective_mode="DM",
        )
        assert objective(inst, [0, 1, 0, 2, 0]) == pytest.approx(60.0, rel=1e-12)

    def test_energy_mode_tracks_the_load_profile(self):
        inst = line_instance(
            [(NodeKind.CUSTOMER, 10.0, 3000.0), (NodeKind.CUSTOMER, 20.0, 2000.0)],
            objective_mode="EM",
        )
        route = [0, 1, 0, 2, 0]
        veh = inst.vehicle
        loads = [4000.0, 1000.0, 4000.0, 2000.0]
        expect = sum(
            manual_edge_energy(inst, i, j, veh.curb_mass_kg + load)
            for (i, j), load in zip(zip(route[:-1], route[1:]), loads)
        )
        assert objective(inst, route) == pytest.approx(expect, rel=1e-12)

    def test_evrp_route_needs_depot_endpoints(self):
        inst = line_instance([(NodeKind.CUSTOMER, 10.0, 0.5)])
        with pytest.raises(RouteError):
            objective(inst, [1, 0])


class TestValidateRoute:
    def two_customer(self, **kwargs):
        return line_instance(
            [(NodeKind.CUSTOMER, 10.0, 3000.0), (NodeKind.CUSTOMER, 20.0, 2000.0)],
            **kwargs,
        )

    def codes(self, inst, route):
        return {v.code for v in validate_route(inst, route)}

    def test_feasible_route_is_clean(self):
        assert validate_route(self.two_customer(), [0, 1, 0, 2, 0]) == []

    def test_endpoints(self):
        assert VIOLATION_ENDPOINTS in self.codes(self.two_customer(), [1, 0, 2, 0])
        assert VIOLATION_ENDPOINTS in self.codes(self.two_customer(), [0, 1, 0, 2])

    def test_self_loop(self):
        assert VIOLATION_SELF_LOOP in self.codes(self.two_customer(), [0, 1, 1, 0, 2, 0])

    def test_service_count(self):
        missed = validate_route(self.two_customer(), [0, 1, 0])
        assert [v.code for v in missed] == [VIOLATION_SERVICE_COUNT]
        assert missed[0].position == 2

    def test_cargo_overrun(self):
        assert VIOLATION_CARGO in self.codes(self.two_customer(), [0, 1, 2, 0])

    def test_battery_overrun(self):
        inst = line_instance([(NodeKind.CUSTOMER, 700.0, 0.5)], t_max_h=1000.0)
        assert VIOLATION_BATTERY in self.codes(inst, [0, 1, 0])

    def test_time_overrun(self):
        inst = line_instance([(NodeKind.CUSTOMER, 30.0, 0.5)], t_max_h=0.1)
        assert VIOLATION_TIME in self.codes(inst, [0, 1, 0])

    def test_unknown_node_short_circuits(self):
        out = validate_route(self.two_customer(), [0, 99, 0])
        assert [v.code for v in out] == [VIOLATION_NODE_ID]

    def test_validator_honours_mid_route_restock(self):
        # depot visit refills cargo, so 3000 + 2000 in two trips is fine
        inst = self.two_customer()
        assert self.codes(inst, [0, 2, 0, 1, 0]) == set()


class TestGameOutcome:
    def test_tie_goes_to_first(self):
        assert game_outcome(-5.7, -5.7) == 1

    def test_orderings(self):
        assert game_outcome(-1.0, -2.0) == 1
        assert game_outcome(-2.0, -1.0) == -1


class TestRoutingGame:
    def test_terminal_reward_is_negative_objective(self):
        inst = generate_tsp(4, seed=9)
        game = RoutingGame(inst)
        state = rollout(game, lambda s, m: int(np.argmax(m)))
        assert state.done
        assert game.terminal_reward(state) == -objective(inst, state.route)

    def test_reward_of_live_state_rejected(self):
        game = RoutingGame(generate_tsp(4, seed=9))
        with pytest.raises(TerminalStateError):
            game.terminal_reward(game.initial_state())

    def test_step_cap_turns_into_dead_end(self, monkeypatch):
        monkeypatch.setattr(env_mod, "step_limit", lambda inst: 2)
        game = RoutingGame(generate_tsp(5, seed=9))
        with pytest.raises(DeadEndError, match="exceeded 2 steps"):
            rollout(game, lambda s, m: int(np.argmax(m)))

    @pytest.mark.parametrize("mode", ["DM", "EM"])
    def test_evrp_nearest_customer_rollout_is_feasible(self, mode):
        inst = generate_evrp(6, 2, seed=11, objective_mode=mode)
        game = RoutingGame(inst)

        def policy(state, mask):
            ids = np.flatnonzero(mask)
            customers = ids[np.isin(ids, inst.customer_ids)]
            pool = customers if customers.size else ids
            return int(pool[np.argmin(inst.dist_km[state.position, pool])])

        state = rollout(game, policy)
        assert state.done
        assert validate_route(inst, state.route) == []



def argmax_moves(states, live):
    return [int(np.argmax(legal_actions(states[i]))) for i in live]


class TestPlay:
    def test_empty_mask_ends_its_slot_while_the_other_finishes(self):
        inst = generate_evrp(4, 2, seed=3)
        customer = int(inst.customer_ids[0])
        # an empty battery and a spent trip clock away from the depot leave no move
        stuck = replace(initial_state(inst), position=customer, route=(0, customer), battery_kwh=0.0)
        stuck = replace(stuck, clock_h=inst.t_max_h)
        assert not legal_actions(stuck).any()
        (i, dead), (j, end) = play([initial_state(generate_tsp(5, seed=1)), stuck], argmax_moves)
        assert i == 1 and isinstance(dead, DeadEndError)
        assert str(dead) == f"no legal action at node {customer}, route so far (0, {customer})"
        assert j == 0 and end.done and end.route == (0, 1, 2, 3, 4)

    def test_moves_see_every_slot_as_it_stood_at_the_top_of_the_round(self):
        seen = []

        def recording(states, live):
            seen.append((list(live), [s.route for s in states]))
            return argmax_moves(states, live)

        ends = dict(play([initial_state(generate_tsp(3, seed=1)), initial_state(generate_tsp(5, seed=2))], recording))
        assert [live for live, _ in seen] == [[0, 1]] * 3 + [[1]] * 2
        for k, (_, routes) in enumerate(seen):
            assert routes == [tuple(range(min(k, 3))), tuple(range(k))]
        assert ends[0].route == (0, 1, 2) and ends[1].route == (0, 1, 2, 3, 4)

    def test_route_finished_on_the_cap_th_move_counts(self, monkeypatch):
        start = initial_state(generate_tsp(5, seed=4))
        monkeypatch.setattr(env_mod, "step_limit", lambda inst: inst.n_nodes)
        [(_, end)] = play([start], argmax_moves)
        assert end.done and len(end.route) == 5
        monkeypatch.setattr(env_mod, "step_limit", lambda inst: inst.n_nodes - 1)
        [(_, end)] = play([start], argmax_moves)
        assert isinstance(end, DeadEndError) and str(end) == "rollout exceeded 4 steps without terminating"


def flat_edge_power_w(inst, mass_kg):
    """Tractive power on the flat 10 km edge 0 -> 1, read back from the model's edge energy."""
    veh = inst.vehicle
    assert inst.dist_km[0, 1] == 10.0 and inst.speed_kmh == 60.0
    eff = veh.motor_discharge_factor * veh.battery_discharge_factor
    return float(inst.energy_row_kwh(0, mass_kg, 1)) * 1000.0 / (10.0 / 60.0) / eff


class TestEnergyHelpers:
    def test_mech_power_flat_at_curb_mass(self):
        inst = line_instance([(NodeKind.CUSTOMER, 10.0, 0.5)])
        veh = inst.vehicle
        v = 60.0 / 3.6
        drag = 0.5 * veh.drag_coefficient * veh.air_density * veh.frontal_area_m2 * v * v
        expect = (veh.curb_mass_kg * veh.rolling_resistance + drag) * v
        assert flat_edge_power_w(inst, veh.curb_mass_kg) == pytest.approx(expect, rel=1e-12)
        assert flat_edge_power_w(inst, veh.curb_mass_kg) == pytest.approx(8290.0, abs=1e-9)

    def test_physical_rolling_resistance_scales_by_gravity(self):
        veh = VehicleParams(physical_rolling_resistance=True)
        inst = line_instance([(NodeKind.CUSTOMER, 10.0, 0.5)], vehicle=veh)
        assert flat_edge_power_w(inst, veh.curb_mass_kg) == pytest.approx(
            manual_edge_energy(inst, 0, 1, veh.curb_mass_kg) / (10.0 / 60.0) / (1.18 * 1.11) * 1000.0,
            rel=1e-12,
        )

    def test_energy_consumed_discharge_and_regen(self):
        slope = np.zeros((3, 3))
        slope[0, 2] = -0.03
        slope[2, 0] = 0.03
        inst = line_instance(
            [(NodeKind.CUSTOMER, 25.0, 100.0), (NodeKind.CUSTOMER, 50.0, 100.0)],
            slope=slope,
        )
        veh = inst.vehicle
        e_flat = energy_consumed(inst, 0, 1, 2000.0)
        assert e_flat == pytest.approx(manual_edge_energy(inst, 0, 1, veh.curb_mass_kg + 2000.0), rel=1e-12)
        assert e_flat > 0
        e_down = energy_consumed(inst, 0, 2, 2000.0)
        assert e_down == pytest.approx(manual_edge_energy(inst, 0, 2, veh.curb_mass_kg + 2000.0), rel=1e-12)
        assert e_down < 0

    def test_zero_length_edge_is_free(self):
        inst = line_instance([(NodeKind.CUSTOMER, 25.0, 100.0)])
        assert energy_consumed(inst, 1, 1, 0.0) == 0.0

    def test_rejects_bad_arguments(self):
        inst = line_instance([(NodeKind.CUSTOMER, 25.0, 100.0)])
        with pytest.raises(RouteError):
            energy_consumed(inst, 0, 5, 0.0)
        with pytest.raises(RouteError):
            energy_consumed(inst, 0, 1, -1.0)
        with pytest.raises(RouteError):
            energy_consumed(inst, 0, 1, 4000.1)
