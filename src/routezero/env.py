"""Single-vehicle routing environments over `instance` data.

A state tracks one vehicle's position, battery, clock, remaining cargo and
the set of customers already served.  Transitions are deterministic.  The
action mask is the rule set of the game: it forbids any move after which the
vehicle could not reach a recharge point, or could not return to the depot
inside the per-trip driver limit.

The EVRP battery model: traversing edge ``i -> j`` at total mass ``m`` draws

    P = (m * (g * sin(a) + c_r * cos(a)) + 0.5 * c_d * rho * A * v^2) * v

watts at constant speed ``v`` (m/s) on grade ``a``, and charges the battery
``eff * P * t`` watt-hours over the traversal time ``t``, where ``eff`` is
the discharge loss product for P >= 0 and the recovery product otherwise.
Arriving at a station or the depot resets the battery to full; the depot
additionally restocks cargo and starts a fresh driver clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .instance import (
    _KIND_CUSTOMER,
    _KIND_STATION,
    EvrpInstance,
    Instance,
    LoadTables,
    TspInstance,
)


class TerminalStateError(RuntimeError):
    """An operation that needs a live state was given a finished one."""


class IllegalActionError(ValueError):
    """`step` was asked to take a move forbidden by the action mask."""


class DeadEndError(RuntimeError):
    """A route cannot finish: no legal action in a non-terminal state, or ``env.play``'s step cap reached."""


class RouteError(ValueError):
    """A route sequence is structurally unusable for the given instance."""


@dataclass(frozen=True)
class PlayerState:
    """One player's immutable rollout state.

    ``served`` is indexed by node id.  For TSP, ``position`` is -1 before
    the first city is chosen and ``served`` marks visited cities; battery,
    clock and load stay zero.  For EVRP, ``served`` starts true at the depot
    and the stations, which have nothing to serve, so ``served.all()`` means
    every customer is served and ``~served`` marks the open customers;
    ``route`` always starts at the depot.  ``legal_actions`` keeps the
    state's mask in ``_mask`` on first use; it takes no part in comparisons,
    and successors (``step``) start without one.
    """

    instance: Instance
    position: int
    served: np.ndarray
    battery_kwh: float
    clock_h: float
    load_kg: float
    route: tuple[int, ...]
    served_since_depot: bool
    done: bool
    distance_km: float = 0.0
    energy_kwh: float = 0.0
    _mask: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)


def initial_state(inst: Instance) -> PlayerState:
    """Fresh state: full battery and cargo at the depot, clock at zero."""
    if isinstance(inst, TspInstance):
        position, route, served, battery, load = -1, (), np.zeros(inst.n_nodes, dtype=bool), 0.0, 0.0
    else:
        position, route, served = 0, (0,), ~inst.is_customer
        battery, load = inst.vehicle.battery_capacity_kwh, inst.vehicle.cargo_capacity_kg
    return PlayerState(
        instance=inst,
        position=position,
        served=served,
        battery_kwh=battery,
        clock_h=0.0,
        load_kg=load,
        route=route,
        served_since_depot=False,
        done=False,
    )


def legal_actions(state: PlayerState) -> np.ndarray:
    """Boolean mask over node ids of the moves allowed from ``state``.

    Computed once per state and kept on it, so every caller gets the same
    read-only array; the rules are in `_legal_mask`.
    """
    if state._mask is None:
        if state.done:
            raise TerminalStateError("no legal actions in a terminal state")
        mask = _legal_mask(state)
        mask.flags.writeable = False
        object.__setattr__(state, "_mask", mask)
    return state._mask


def _legal_mask(state: PlayerState) -> np.ndarray:
    """A fresh mask of the moves allowed from the live ``state``.

    EVRP rules, a move to ``j`` is legal when all of:
      * ``j`` differs from the current position;
      * customer ``j``: unserved, demand fits the remaining cargo, and after
        serving ``j`` the vehicle can still reach the depot, directly or via
        one recharge stop, on both the battery and the trip clock;
      * station ``j``: reachable on the current battery, and after a full
        recharge at ``j`` the drive home (directly or via another station)
        fits both resources the same way;
      * depot: reachable on battery and clock, and either some customer was
        served since the last depot visit, every customer is served, or no
        other move is legal (empty trips are a last resort, never a dead
        end).

    Each homing test asks one path to fit both resources at once, which is
    what keeps the mask free of dead ends: independent per-resource bounds
    can certify two different escapes and admit a state that has none.  The
    battery side is read from `LoadTables`, the clock side from
    `_paths_in_time`.
    """
    inst = state.instance
    if isinstance(inst, TspInstance):
        return ~state.served

    i = state.position
    tables = inst.load_tables(state.load_kg)
    e_after = _arrival_kwh(state, tables)
    arrive_h = state.clock_h + inst.travel_h[i]
    legal = np.zeros(inst.n_nodes, dtype=bool)
    open_customers = ~state.served & (inst.demands <= state.load_kg)
    if open_customers.any():
        in_time = _paths_in_time(inst, arrive_h + inst.service_time_h)
        legal |= open_customers & ((e_after[:, None] >= tables.settled_need) & in_time).any(axis=1)
    if inst.n_stations:
        in_time = _paths_in_time(inst, arrive_h + inst.recharge_dwell_h)
        legal |= inst.is_station & (e_after >= 0.0) & (tables.station_ok & in_time).any(axis=1)

    legal[i] = False
    depot_reachable = e_after[0] >= 0.0 and arrive_h[0] <= inst.t_max_h and i != 0
    if state.served_since_depot or bool(state.served.all()) or not legal.any():
        legal[0] = depot_reachable
    return legal


def _arrival_kwh(state: PlayerState, tables: LoadTables) -> np.ndarray:
    """The battery on arrival at each node from ``state`` after the edge's charge.

    Regeneration cannot push the pack beyond capacity; the surplus is lost.
    The mask, its messages and `evrp_arrivals` all read this one array.
    """
    return np.minimum(state.battery_kwh - tables.energy[state.position], state.instance.vehicle.battery_capacity_kwh)


def _paths_in_time(inst: EvrpInstance, clock_h: np.ndarray) -> np.ndarray:
    """Which homing paths from each node ``j`` end inside the trip limit when left at ``clock_h[j]``.

    Columns as in ``recharge_ids``.  The legs are added in route order, so
    each path's clock is the float a route along it would read.
    """
    first_h, dwell_h, final_h = inst.path_legs_h
    return ((clock_h[:, None] + first_h) + dwell_h) + final_h <= inst.t_max_h


def _explain_illegal(state: PlayerState, j: int) -> str:
    """The rule that masks move ``j``, read from the same tables and clock test as `_legal_mask`."""
    inst = state.instance
    if isinstance(inst, TspInstance):
        return f"city {j} already visited" if state.served[j] else f"city {j} out of range"
    if j == state.position:
        return f"self-move at node {j}"
    kind = int(inst.kinds[j])
    tables = inst.load_tables(state.load_kg)
    e_after = _arrival_kwh(state, tables)
    arrive_h = state.clock_h + inst.travel_h[state.position]
    if kind == _KIND_CUSTOMER:
        if state.served[j]:
            return f"customer {j} already served"
        if inst.demands[j] > state.load_kg:
            return f"customer {j} demand exceeds remaining cargo"
        if not (e_after[j] >= tables.settled_need[j]).any():
            return f"move to customer {j} strands the battery"
        if not _paths_in_time(inst, arrive_h + inst.service_time_h)[j].any():
            return f"serving customer {j} breaks the trip time limit"
        return f"after customer {j} no single route home fits both battery and clock"
    if kind == _KIND_STATION:
        if e_after[j] < 0.0:
            return f"station {j} unreachable on current battery"
        if not tables.station_ok[j].any():
            return f"station {j} has no onward recharge within a full battery"
        if not _paths_in_time(inst, arrive_h + inst.recharge_dwell_h)[j].any():
            return f"station {j} breaks the trip time limit"
        return f"after station {j} no single route home fits both battery and clock"
    if not (state.served_since_depot or bool(state.served.all())):
        return "depot return before serving any customer while other moves exist"
    if e_after[0] < 0.0:
        return "depot unreachable on current battery"
    return "depot return breaks the trip time limit"


def step(state: PlayerState, action: int) -> PlayerState:
    """Apply one move and return the successor state.

    The move is checked against the state's `legal_actions` mask, computed
    here only if no caller has asked for it yet; the successor carries no
    mask.  Raises ``IllegalActionError`` (with the violated rule spelled
    out) if the move is masked, and ``TerminalStateError`` on finished
    states.
    """
    inst = state.instance
    action = int(action)
    if not 0 <= action < inst.n_nodes:
        raise IllegalActionError(f"action {action} out of range")
    if not legal_actions(state)[action]:
        raise IllegalActionError(_explain_illegal(state, action))

    tsp = isinstance(inst, TspInstance)
    if tsp:  # a city move changes only position, route, served and distance
        arrival = (state.battery_kwh, state.clock_h, state.load_kg, state.served_since_depot, 0.0)
    else:
        (arrival,) = evrp_arrivals(state, (action,))
    battery, clock, load, served_since_depot, e_edge = arrival
    served = state.served
    if tsp or inst.is_customer[action]:
        served = served.copy()
        served[action] = True
    return PlayerState(
        instance=inst,
        position=action,
        served=served,
        battery_kwh=battery,
        clock_h=clock,
        load_kg=load,
        route=state.route + (action,),
        served_since_depot=served_since_depot,
        done=(tsp or action == 0) and bool(served.all()),
        distance_km=state.distance_km + (0.0 if state.position < 0 else float(inst.dist_km[state.position, action])),
        energy_kwh=state.energy_kwh + e_edge,
    )


def evrp_arrivals(state: PlayerState, moves: Sequence[int]) -> list[tuple[float, float, float, bool, float]]:
    """The EVRP transition from ``state`` to each node in ``moves``, unchecked.

    One ``(battery_kwh, clock_h, load_kg, served_since_depot, edge_kwh)``
    per move, in plain floats read from the state's `LoadTables` row and
    ``travel_h``: the battery on arrival (`_arrival_kwh`, clipped at
    capacity), then the clock plus the drive and the service or dwell,
    with a full reset at the depot.  `step` builds its successor from these numbers,
    and ``baselines.exact_evrp`` scores children on them before it builds
    any, so both read the rules from here.
    """
    inst = state.instance
    full = inst.vehicle.battery_capacity_kwh
    tables = inst.load_tables(state.load_kg)
    energy = tables.energy[state.position].tolist()
    battery = _arrival_kwh(state, tables).tolist()
    travel = inst.travel_h[state.position].tolist()
    kinds, demands = inst.kinds.tolist(), inst.demands.tolist()
    clock_h, load_kg = state.clock_h, state.load_kg
    arrivals = []
    for j in moves:
        e_edge = energy[j]
        clock = clock_h + travel[j]
        if kinds[j] == _KIND_CUSTOMER:
            arrivals.append((battery[j], clock + inst.service_time_h, load_kg - demands[j], True, e_edge))
        elif kinds[j] == _KIND_STATION:
            arrivals.append((full, clock + inst.recharge_dwell_h, load_kg, state.served_since_depot, e_edge))
        else:
            arrivals.append((full, 0.0, inst.vehicle.cargo_capacity_kg, False, e_edge))
    return arrivals


def energy_consumed(inst: EvrpInstance, i: int, j: int, load_kg: float) -> float:
    """Signed battery charge in kWh for edge ``i -> j`` at cargo ``load_kg``.

    Positive values discharge the pack, negative values regenerate.  A
    zero-length edge costs nothing.
    """
    n = inst.n_nodes
    if not (0 <= i < n and 0 <= j < n):
        raise RouteError(f"node id out of range: ({i}, {j})")
    if load_kg < 0 or load_kg > inst.vehicle.cargo_capacity_kg:
        raise RouteError(f"load {load_kg} outside [0, capacity]")
    return float(inst.energy_row_kwh(i, inst.vehicle.curb_mass_kg + load_kg, j))


def objective(inst: Instance, route: Sequence[int]) -> float:
    """Scalar cost of a complete route (lower is better).

    TSP: closed tour length over a permutation of all cities.  EVRP with
    ``DM``: total distance of the depot-to-depot walk; with ``EM``: total
    signed battery charge, with the cargo profile implied by the walk.
    """
    route = [int(a) for a in route]
    if isinstance(inst, TspInstance):
        if sorted(route) != list(range(inst.n_nodes)):
            raise RouteError("TSP route must visit every city exactly once")
        hops = np.array(route + [route[0]])
        return float(inst.dist_km[hops[:-1], hops[1:]].sum())

    if len(route) < 2 or route[0] != 0 or route[-1] != 0:
        raise RouteError("EVRP route must start and end at the depot")
    if inst.objective_mode == "DM":
        hops = np.array(route)
        return float(inst.dist_km[hops[:-1], hops[1:]].sum())
    total = 0.0
    load = inst.vehicle.cargo_capacity_kg
    for i, j in zip(route[:-1], route[1:]):
        total += float(inst.energy_row_kwh(i, inst.vehicle.curb_mass_kg + load, j))
        if inst.kinds[j] == _KIND_CUSTOMER:
            load -= float(inst.demands[j])
        elif j == 0:
            load = inst.vehicle.cargo_capacity_kg
    return total


VIOLATION_ENDPOINTS = "route-endpoints"
VIOLATION_SELF_LOOP = "self-loop"
VIOLATION_SERVICE_COUNT = "customer-service-count"
VIOLATION_CARGO = "cargo-capacity"
VIOLATION_BATTERY = "battery-range"
VIOLATION_TIME = "trip-time-limit"
VIOLATION_NODE_ID = "node-id"


@dataclass(frozen=True)
class RouteViolation:
    code: str
    position: int
    message: str


def validate_route(inst: EvrpInstance, route: Sequence[int]) -> list[RouteViolation]:
    """Re-simulate a route independently and report every broken rule.

    Returns an empty list for feasible routes.  Checks: depot endpoints,
    no consecutive repeats, each customer served exactly once, cargo never
    negative, battery within [0, capacity] at every arrival, and every
    depot-to-depot trip inside the driver time limit.
    """
    route = [int(a) for a in route]
    violations: list[RouteViolation] = []
    for idx, a in enumerate(route):
        if not 0 <= a < inst.n_nodes:
            violations.append(RouteViolation(VIOLATION_NODE_ID, idx, f"unknown node {a}"))
            return violations
    if not route or route[0] != 0 or route[-1] != 0:
        violations.append(RouteViolation(VIOLATION_ENDPOINTS, 0, "route must start and end at the depot"))
        if not route:
            return violations

    counts = np.zeros(inst.n_nodes, dtype=int)
    for idx in range(1, len(route)):
        if route[idx] == route[idx - 1]:
            violations.append(RouteViolation(VIOLATION_SELF_LOOP, idx, f"consecutive repeat of node {route[idx]}"))
    for a in route:
        counts[a] += 1
    for c in inst.customer_ids:
        if counts[c] != 1:
            violations.append(
                RouteViolation(VIOLATION_SERVICE_COUNT, int(c), f"customer {c} served {counts[c]} times")
            )

    veh = inst.vehicle
    battery = veh.battery_capacity_kwh
    load = veh.cargo_capacity_kg
    clock = 0.0
    for idx in range(1, len(route)):
        i, j = route[idx - 1], route[idx]
        battery -= float(inst.energy_row_kwh(i, veh.curb_mass_kg + load, j))
        battery = min(battery, veh.battery_capacity_kwh)
        clock += float(inst.travel_h[i, j])
        if battery < 0.0:
            violations.append(
                RouteViolation(VIOLATION_BATTERY, idx, f"battery {battery:.6f} kWh below zero arriving at {j}")
            )
        if clock > inst.t_max_h:
            violations.append(
                RouteViolation(VIOLATION_TIME, idx, f"trip clock {clock:.6f} h over the {inst.t_max_h} h limit")
            )
        kind = int(inst.kinds[j])
        if kind == _KIND_CUSTOMER:
            clock += inst.service_time_h
            load -= float(inst.demands[j])
            if load < 0.0:
                violations.append(RouteViolation(VIOLATION_CARGO, idx, f"cargo {load} kg below zero at {j}"))
            if clock > inst.t_max_h:
                violations.append(
                    RouteViolation(VIOLATION_TIME, idx, f"service at {j} ends {clock:.6f} h over the limit")
                )
        elif kind == _KIND_STATION:
            clock += inst.recharge_dwell_h
            battery = veh.battery_capacity_kwh
        else:
            battery = veh.battery_capacity_kwh
            load = veh.cargo_capacity_kg
            clock = 0.0
    return violations


def game_outcome(reward_first: float, reward_second: float) -> int:
    """+1 if the first player's reward is at least the second's, else -1."""
    return 1 if reward_first >= reward_second else -1


class RoutingGame:
    """Bundles the transition functions for one instance behind one object.

    The search (``planner.plan``) reads a game through these methods, so
    test doubles can stand in for a real instance there; play loops take
    only the initial state from it.
    """

    def __init__(self, inst: Instance):
        self.instance = inst

    def initial_state(self) -> PlayerState:
        return initial_state(self.instance)

    def step(self, state: PlayerState, action: int) -> PlayerState:
        return step(state, action)

    def is_terminal(self, state: PlayerState) -> bool:
        return state.done

    def terminal_reward(self, state: PlayerState) -> float:
        """Minus the route's `objective`.

        For EM instances that is the state's accumulated ``energy_kwh``:
        `step` adds the edge charges `objective` re-simulates, in the same
        order, so the float is the same without the re-simulation.
        """
        if not state.done:
            raise TerminalStateError("reward of a live state is undefined")
        if isinstance(self.instance, EvrpInstance) and self.instance.objective_mode == "EM":
            return -state.energy_kwh
        return -objective(self.instance, state.route)


def step_limit(inst: Instance) -> int:
    """Moves after which a route on ``inst`` counts as a dead end.

    Legal moves can cycle forever between recharge points, so `play` stops
    every route here instead of hanging.
    """
    return 60 * inst.n_nodes + 200


def play(states: Sequence[PlayerState], moves: Callable) -> Iterator[tuple[int, PlayerState | DeadEndError]]:
    """Play every state to its end in rounds, yielding ``(index, result)`` as each slot ends.

    Each round ``moves(states, live)`` returns one action per unfinished
    index in ``live``, all chosen from the states as they stood at the top
    of the round; finished slots keep their final state in ``states``.  A
    slot's result is its finished state, or a ``DeadEndError`` when its mask
    is empty or it has made ``step_limit`` moves of its own instance (a
    route finished on the cap-th move counts).  The other slots play on.
    """
    states = list(states)
    live = range(len(states))
    for moved in itertools.count():
        playing = []
        for i in live:
            state = states[i]
            if state.done:
                yield i, state
            elif moved == (cap := step_limit(state.instance)):
                yield i, DeadEndError(f"rollout exceeded {cap} steps without terminating")
            elif not legal_actions(state).any():
                yield i, DeadEndError(f"no legal action at node {state.position}, route so far {state.route}")
            else:
                playing.append(i)
        live = playing
        if not live:
            return
        for i, action in zip(live, moves(states, live), strict=True):
            states[i] = step(states[i], action)


def rollout(game: RoutingGame, policy: Callable[[PlayerState, np.ndarray], int]) -> PlayerState:
    """Drive ``policy(state, legal_mask) -> action`` from the initial state to its end; a dead end raises."""
    ((_, end),) = play([game.initial_state()], lambda states, live: [policy(states[0], legal_actions(states[0]))])
    if isinstance(end, DeadEndError):
        raise end
    return end
