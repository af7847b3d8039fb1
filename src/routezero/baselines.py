"""Reference solvers and heuristics used as training/evaluation baselines.

``exact_tsps`` is Held-Karp dynamic programming over subsets, so it is exact
but only sized for desk-scale tours.  It relaxes one subset size at a time,
vectorized over every subset of that size and over every instance of one
node count, stacked in chunks no larger than one instance at the size
limit; ``exact_tsp`` is its one-instance form.  On a 2-CPU host with BLAS
on one thread, 320 instances at n=6 take about 6 ms together and 96 at
n=10 about 70 ms; one at a time, an instance takes about 0.2 ms at n=6,
0.9 ms at n=10, 4 ms at n=12 and 0.12 s at n=16, where the process peaks
near 80 MB RSS.  ``exact_evrp`` runs best-first
branch and bound directly over the environment's transition system, so its
optimum is the optimum of the game the planner actually plays, station
visits, depot returns and energy accounting included.  It scores each
child on plain floats from the instance's per-load energy tables and builds
a state only for the child it pops, so at 6 customers and 2 stations it
takes 0.02-0.2 s per instance (300-1800 expansions) on the same host, and
ten such instances 0.5-1.0 s.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .env import DeadEndError, RoutingGame, evrp_arrivals, initial_state, legal_actions, objective, play, rollout, step
from .instance import _KIND_CUSTOMER, EvrpInstance, Instance, TspInstance
from .net import greedy_actions

EXACT_TSP_MAX_NODES = 16
EXACT_EVRP_MAX_CUSTOMERS = 8


class SizeLimitError(ValueError):
    """Instance too large for an exact solver."""


class SearchBudgetError(RuntimeError):
    """Branch and bound exceeded its expansion cap."""


@dataclass(frozen=True)
class SolveResult:
    route: tuple[int, ...]
    objective: float
    expansions: int
    wall_time_s: float


def gap(objective_value: float, best_value: float) -> float:
    """Percentage excess over the reference value."""
    if best_value <= 0:
        raise ValueError("reference objective must be positive")
    return 100.0 * (objective_value - best_value) / best_value


def exact_tsps(insts: Sequence[TspInstance]) -> list[SolveResult | SizeLimitError]:
    """Optimal tours by Held-Karp over bitmask subsets, anchored at city 0, one DP per node count.

    Instances of one node count ``n`` are stacked on a leading axis, in
    chunks of at most ``2**(EXACT_TSP_MAX_NODES - n)``, so a chunk's tables
    are no larger than one instance's at the size limit.  Each layer relaxes
    every subset of one size in every instance of the chunk at once; the
    sums, the tie order and so the routes, objectives and ``expansions``
    are those of solving each instance alone.  An instance above the limit
    gets its ``SizeLimitError``.  ``wall_time_s`` runs from the start of the
    instance's chunk.
    """
    results: list[SolveResult | SizeLimitError | None] = [None] * len(insts)
    groups: dict[int, list[int]] = {}
    for slot, inst in enumerate(insts):
        if inst.n_nodes > EXACT_TSP_MAX_NODES:
            results[slot] = SizeLimitError(f"exact_tsp handles up to {EXACT_TSP_MAX_NODES} cities, got {inst.n_nodes}")
        else:
            groups.setdefault(inst.n_nodes, []).append(slot)
    for n, slots in groups.items():
        odd = np.arange(1, 1 << n, 2)
        members = (odd[:, None] >> np.arange(n)) & 1
        layer = members.sum(axis=1)
        layers, open_to = [odd[layer == k] for k in range(1, n)], members == 0
        size = 1 << (EXACT_TSP_MAX_NODES - n)
        for lo in range(0, len(slots), size):
            chunk = slots[lo : lo + size]
            start = time.perf_counter()
            solved = _held_karp(np.stack([insts[slot].dist_km for slot in chunk]), layers, open_to)
            elapsed = time.perf_counter() - start
            for slot, (tour, value, expansions) in zip(chunk, solved):
                results[slot] = SolveResult(tour, value, expansions, elapsed)
    return results


def _held_karp(d: np.ndarray, layers: list[np.ndarray], open_to: np.ndarray) -> list[tuple]:
    """(tour, length, expansions) of each (n, n) distance matrix in the stack ``d``.

    ``layers[k - 1]`` holds the odd subset masks of ``k`` cities, and
    ``open_to[mask >> 1, j]`` says that city ``j`` is outside ``mask``.
    """
    b, n, _ = d.shape
    full = (1 << n) - 1
    cost = np.full((b, full + 1, n), np.inf)
    parent = np.full((b, full + 1, n), -1, dtype=np.int8)
    cost[:, 1, 0] = 0.0
    expansions = np.zeros(b, dtype=np.int64)
    # cell (mask | 1 << j, j) has the one predecessor mask, so each is written once, from the layer below
    for masks in layers:
        candidate = cost[:, masks][..., None] + d[:, None]
        best_from = candidate.argmin(axis=2)
        best_cost = np.take_along_axis(candidate, best_from[:, :, None], axis=2)[:, :, 0]
        inst, rows, nxt = np.nonzero((best_cost < np.inf) & open_to[masks >> 1])
        grown = masks[rows] | (1 << nxt)
        cost[inst, grown, nxt] = best_cost[inst, rows, nxt]
        parent[inst, grown, nxt] = best_from[inst, rows, nxt]
        expansions += np.bincount(inst, minlength=b)
    closing = cost[:, full] + d[:, :, 0]
    closing[:, 0] = np.inf
    every = np.arange(b)
    last = closing.argmin(axis=1)
    lengths = closing[every, last]
    tours = np.empty((b, n), dtype=np.int64)
    mask = np.full(b, full)
    for pos in range(n - 1, -1, -1):
        tours[:, pos] = last
        mask, last = mask ^ (1 << last), parent[every, mask, last].astype(np.int64)
    return [(tuple(t), float(length), int(count)) for t, length, count in zip(tours.tolist(), lengths, expansions)]


def exact_tsp(inst: TspInstance) -> SolveResult:
    """Optimal tour of one instance: `exact_tsps` of ``[inst]``; an instance above the size limit raises."""
    result = exact_tsps([inst])[0]
    if isinstance(result, SizeLimitError):
        raise result
    return result


def _evrp_edge_bounds(inst: EvrpInstance) -> np.ndarray:
    """Per-edge lower bounds on the objective increment over any cargo."""
    if inst.objective_mode == "DM":
        return inst.dist_km.copy()
    veh = inst.vehicle
    lo = inst.energy_matrix_kwh(veh.curb_mass_kg)
    hi = inst.energy_matrix_kwh(veh.curb_mass_kg + veh.cargo_capacity_kg)
    return np.minimum(lo, hi)


def exact_evrp(inst: EvrpInstance, expansion_cap: int = 2_000_000) -> SolveResult:
    """Optimal route under the environment's exact rules.

    Best-first search over environment states.  The admissible cost-to-go
    bound sums, over customers still open, the cheapest edge entering each
    plus the cheapest edge home; with regenerative (negative-cost) edges a
    pessimistic slack keeps the bound admissible.  Dominance discards a
    state when an already-seen state at the same (position, served set,
    trip progress, cargo) is at least as good on cost, battery and clock.
    Children are scored from the energy tables by `env.evrp_arrivals`
    before any state is built: the heap holds ``(parent, action)``, and
    `step` builds a child, checking the move against its parent's mask,
    only when the child is popped.  Children are pushed nearest-first so
    equal-cost pops are deterministic.
    """
    if inst.n_customers > EXACT_EVRP_MAX_CUSTOMERS:
        raise SizeLimitError(
            f"exact_evrp handles up to {EXACT_EVRP_MAX_CUSTOMERS} customers, got {inst.n_customers}"
        )
    start = time.perf_counter()
    edge_lb = _evrp_edge_bounds(inst)
    np.fill_diagonal(edge_lb, np.inf)
    min_into = edge_lb.min(axis=0)
    min_home = float(edge_lb[:, 0].min())
    slack = 0.0
    finite_min = float(min_into.min())
    if finite_min < 0.0 or min_home < 0.0:
        slack = 3.0 * (inst.n_nodes + 2) * (inst.n_customers + 1) * min(finite_min, min_home)

    bounds: dict[bytes, float] = {}

    def bound(served: bytes) -> float:
        # a function of the served set alone, so each set is summed once
        value = bounds.get(served)
        if value is None:
            value = bounds[served] = float(min_into[~np.frombuffer(served, dtype=bool)].sum()) + min_home + slack
        return value

    seen: dict[tuple, list[tuple[float, float, float]]] = {}

    def dominated(key: tuple, cost: float, battery: float, clock: float) -> bool:
        entries = seen.setdefault(key, [])
        for c, b, t in entries:
            if c <= cost and b >= battery and t <= clock:
                return True
        entries[:] = [e for e in entries if not (cost <= e[0] and battery >= e[1] and clock <= e[2])]
        entries.append((cost, battery, clock))
        return False

    is_customer = inst.is_customer.tolist()
    distance_cost = inst.objective_mode == "DM"
    state, cost = initial_state(inst), 0.0
    heap = []
    counter = 0
    expansions = 0
    while not state.done:
        expansions += 1
        if expansions > expansion_cap:
            raise SearchBudgetError(f"exceeded {expansion_cap} expansions")
        dist = inst.dist_km[state.position].tolist()
        moves = sorted(np.flatnonzero(legal_actions(state)).tolist(), key=dist.__getitem__)
        served = state.served.tobytes()
        all_served = b"\x00" not in served
        energy = state.energy_kwh
        for j, (battery, clock, load, since_depot, e_edge) in zip(moves, evrp_arrivals(state, moves)):
            child_cost = cost + dist[j] if distance_cost else cost + ((energy + e_edge) - energy)
            child_served = served[:j] + b"\x01" + served[j + 1 :] if is_customer[j] else served
            if dominated((j, child_served, since_depot, round(load, 9)), child_cost, battery, clock):
                continue
            counter += 1
            to_go = 0.0 if j == 0 and all_served else bound(child_served)
            heapq.heappush(heap, (child_cost + to_go, counter, child_cost, state, j))
        if not heap:
            raise DeadEndError("no feasible route found")
        _, _, cost, parent, action = heapq.heappop(heap)
        state = step(parent, action)
    return SolveResult(state.route, cost, expansions, time.perf_counter() - start)


def nearest_neighbor(inst: Instance) -> SolveResult:
    """Greedy nearest-feasible-customer heuristic with station fallback, played by `env.rollout`;
    every TSP city is a customer, and a tour starts at city 0, where `exact_tsp` anchors.
    """
    start = time.perf_counter()
    tsp = isinstance(inst, TspInstance)

    def move(state, mask) -> int:
        here = state.position
        if here < 0:
            return 0
        ids = np.flatnonzero(mask)
        customers = ids if tsp else ids[inst.kinds[ids] == _KIND_CUSTOMER]
        if customers.size:
            return int(min(customers, key=lambda j: (inst.dist_km[here, j], j)))
        # no customer in reach: home once all are served, else recharge, avoiding an immediate bounce
        stations = [int(j) for j in ids if j != 0]
        if not stations or (mask[0] and bool(state.served.all())):
            return 0
        prev = state.route[-2] if len(state.route) >= 2 else -1
        stations = [j for j in stations if j != prev] or stations
        return min(stations, key=lambda j: (inst.dist_km[here, j], j))

    route = rollout(RoutingGame(inst), move).route
    return SolveResult(route, objective(inst, route), len(route) - 1, time.perf_counter() - start)


def greedy_rollouts(insts: Sequence[Instance], net) -> list[SolveResult | DeadEndError]:
    """Roll the network's argmax policy on every instance in lockstep, no search.

    Instances of one type and node count go in chunks of at most
    ``net.config.batch_size``, each played by one ``env.play`` with one
    `greedy_actions` per round over its live slots, so a round in which
    every live slot is forced runs no ``forward``; a slot's dead end is its
    ``DeadEndError``.  ``wall_time_s`` runs from the start of the slot's
    chunk, and ``expansions`` counts the forward rows spent on the slot: a
    TSP-n tour reads n - 1.
    """
    results: list[SolveResult | DeadEndError | None] = [None] * len(insts)
    groups: dict[tuple, list[int]] = {}
    for slot, inst in enumerate(insts):
        groups.setdefault((type(inst), inst.n_nodes), []).append(slot)
    size = net.config.batch_size
    for slots in groups.values():
        for lo in range(0, len(slots), size):
            chunk = slots[lo : lo + size]
            rows = [0] * len(chunk)

            def moves(states, live):
                actions, spent = greedy_actions(net, [states[i] for i in live])
                if spent:
                    for i in live:
                        rows[i] += 1
                return actions

            start = time.perf_counter()
            for i, end in play([initial_state(insts[slot]) for slot in chunk], moves):
                if not isinstance(end, DeadEndError):
                    route = end.route
                    end = SolveResult(route, objective(end.instance, route), rows[i], time.perf_counter() - start)
                results[chunk[i]] = end
    return results


def greedy_rollout(inst: Instance, net) -> SolveResult:
    """Roll the network's argmax policy to termination, no search; a dead end raises."""
    result = greedy_rollouts([inst], net)[0]
    if isinstance(result, DeadEndError):
        raise result
    return result
