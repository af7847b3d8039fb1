"""Problem instances: data model, random generation and text serialization.

Two problem families are supported.  ``TspInstance`` is a plain Euclidean
tour problem on the unit square.  ``EvrpInstance`` is a capacitated
electric-vehicle routing problem on a 100 km square map with one depot,
recharging stations and customers, a physical energy model and per-trip
driver time limits.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Callable, NamedTuple

import numpy as np

COORD_RANGE_KM = 100.0
DEPOT_RANGE_KM = (25.0, 75.0)
DEMAND_CHOICES = (0.25, 0.5, 0.75, 1.0)

KM_PER_H_TO_M_PER_S = 1000.0 / 3600.0
W_H_TO_KWH = 1e-3


class InstanceError(ValueError):
    """Invalid instance data (bad counts, ranges or parameters)."""


class InstanceFormatError(InstanceError):
    """Instance file cannot be parsed or is missing required fields."""


class NodeKind(str, Enum):
    DEPOT = "depot"
    STATION = "station"
    CUSTOMER = "customer"


@dataclass(frozen=True)
class Node:
    """A single map node.  ``demand`` is zero unless ``kind`` is customer."""

    id: int
    kind: NodeKind
    x: float
    y: float
    demand: float = 0.0


@dataclass(frozen=True)
class VehicleParams:
    """Physical vehicle constants.

    Defaults describe a 4.1 t delivery truck with a 4 t cargo capacity and
    an 80 kWh battery.  Efficiency factors above 1 are loss multipliers on
    discharge, below 1 are recovery multipliers on regeneration.

    ``physical_rolling_resistance`` switches the rolling-resistance term
    from the plain ``c_r * cos(slope)`` form (default) to the gravity-scaled
    ``c_r * g * cos(slope)`` form.
    """

    cargo_capacity_kg: float = 4000.0
    curb_mass_kg: float = 4100.0
    battery_capacity_kwh: float = 80.0
    frontal_area_m2: float = 3.912
    air_density: float = 1.2
    gravity: float = 9.81
    rolling_resistance: float = 0.01
    drag_coefficient: float = 0.7
    motor_discharge_factor: float = 1.18
    motor_recovery_factor: float = 0.85
    battery_discharge_factor: float = 1.11
    battery_recovery_factor: float = 0.93
    physical_rolling_resistance: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name == "physical_rolling_resistance":
                continue
            value = getattr(self, f.name)
            if not 0.0 < value < math.inf:
                raise InstanceError(f"vehicle parameter {f.name} must be finite and > 0, got {value}")


_KIND_DEPOT = 0
_KIND_STATION = 1
_KIND_CUSTOMER = 2

_KIND_CODE = {
    NodeKind.DEPOT: _KIND_DEPOT,
    NodeKind.STATION: _KIND_STATION,
    NodeKind.CUSTOMER: _KIND_CUSTOMER,
}


class LoadTables(NamedTuple):
    """An instance's energy tables at one cargo load; every array is read-only.

    ``energy`` is the n x n edge-energy matrix at the total mass
    ``curb + load``.  The other two cover the homing paths of each node
    ``j``, one column per path as in ``recharge_ids``: straight to the
    depot, or via one station and then home.  ``settled_need`` is the
    battery each path needs from ``j`` after serving it, at the mass
    ``mass - demands[j]``: its first leg's charge, at least zero, or
    ``inf`` when its station cannot reach the depot on a full battery.
    ``station_ok`` marks the paths a full battery covers at the unchanged
    mass, as after a station stop.  A recharge point's own column (no first
    leg, then the dwell and the drive home) never decides a move: its direct
    path home needs the same battery and less time.  These and
    ``path_legs_h`` are the whole homing rule: the mask and the
    illegal-move message both read it from here.
    """

    energy: np.ndarray
    settled_need: np.ndarray
    station_ok: np.ndarray


@dataclass(eq=False)
class EvrpInstance:
    """Immutable EVRP instance plus cached geometry/energy tables.

    Node ids are positional: id 0 is the depot, ids ``1..n_stations`` are
    stations, the remaining ids are customers.  ``slope`` is an optional
    antisymmetric matrix of road grades in radians; ``None`` means flat.

    The legal-move mask and ``step`` read the energy model through
    `load_tables`, evaluated once per cargo load the instance meets: a
    search reaches only the loads ``capacity - sum(subset of demands)``.
    The clock side of the homing paths does not depend on the load, so it
    is built once here: ``path_legs_h`` holds each path's first leg, dwell
    and final leg, which the mask adds to the clock in that order.
    ``exact_evrp`` on a 6-customer, 2-station instance makes 300-1800
    expansions and takes 0.02-0.2 s (2-CPU host, BLAS 1 thread); ten such
    instances take 0.5-1.0 s.
    """

    nodes: tuple[Node, ...]
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    speed_kmh: float = 60.0
    t_max_h: float = 8.0
    service_time_h: float = 0.1
    recharge_dwell_h: float = 0.0
    slope: np.ndarray | None = None
    objective_mode: str = "EM"
    seed: int | None = None

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        # chained comparisons are False for NaN, so each check also rejects it
        if not 0 < self.speed_kmh < math.inf:
            raise InstanceError("speed must be finite and > 0")
        if not 0 < self.t_max_h < math.inf:
            raise InstanceError("t_max must be finite and > 0")
        if not (0 <= self.service_time_h < math.inf and 0 <= self.recharge_dwell_h < math.inf):
            raise InstanceError("service and dwell times must be finite and >= 0")
        if self.objective_mode not in ("DM", "EM"):
            raise InstanceError(f"objective_mode must be DM or EM, got {self.objective_mode!r}")
        n = len(self.nodes)
        if n < 2:
            raise InstanceError("instance needs a depot and at least one customer")
        kinds = np.array([_KIND_CODE[node.kind] for node in self.nodes], dtype=np.int8)
        if kinds[0] != _KIND_DEPOT or np.count_nonzero(kinds == _KIND_DEPOT) != 1:
            raise InstanceError("exactly one depot required, at node id 0")
        for i, node in enumerate(self.nodes):
            if not all(map(math.isfinite, (node.x, node.y, node.demand))):
                raise InstanceError(f"node {i} has a non-finite coordinate or demand")
            if node.id != i:
                raise InstanceError(f"node ids must be positional, found id {node.id} at index {i}")
            if node.kind is not NodeKind.CUSTOMER and node.demand != 0.0:
                raise InstanceError(f"non-customer node {i} carries demand {node.demand}")
            if node.kind is NodeKind.CUSTOMER and node.demand <= 0.0:
                raise InstanceError(f"customer node {i} needs positive demand")
        demands = np.array([node.demand for node in self.nodes], dtype=np.float64)
        if demands.max() > self.vehicle.cargo_capacity_kg:
            raise InstanceError("customer demand exceeds cargo capacity")

        self.kinds = kinds
        self.coords = np.array([(node.x, node.y) for node in self.nodes], dtype=np.float64)
        self.demands = demands
        self.is_customer = kinds == _KIND_CUSTOMER
        self.is_station = kinds == _KIND_STATION
        self.customer_ids = np.flatnonzero(self.is_customer)
        self.station_ids = np.flatnonzero(self.is_station)
        if self.customer_ids.size == 0:
            raise InstanceError("instance needs at least one customer")
        self.recharge_ids = np.concatenate(([0], self.station_ids))

        diff = self.coords[:, None, :] - self.coords[None, :, :]
        self.dist_km = np.sqrt((diff**2).sum(axis=-1))
        self.travel_h = self.dist_km / self.speed_kmh
        # homing path legs from every node, columns as in recharge_ids; the direct path's dwell and final leg are 0.0
        self.path_legs_h = (
            self.travel_h[:, self.recharge_ids],
            np.where(self.recharge_ids == 0, 0.0, self.recharge_dwell_h),
            self.travel_h[self.recharge_ids, 0],
        )

        if self.slope is not None:
            self.slope = np.asarray(self.slope, dtype=np.float64)
            if self.slope.shape != (n, n):
                raise InstanceError("slope matrix shape must be (n_nodes, n_nodes)")
            if not np.isfinite(self.slope).all():
                raise InstanceError("slope matrix must be finite")
            if not np.allclose(self.slope, -self.slope.T, atol=1e-12):
                raise InstanceError("slope matrix must be antisymmetric")
        slope_mat = self.slope if self.slope is not None else np.zeros((n, n))

        veh = self.vehicle
        rolling = veh.rolling_resistance * np.cos(slope_mat)
        if veh.physical_rolling_resistance:
            rolling = veh.gravity * rolling
        # per-edge mass coefficient of the tractive power model; newtons per kg
        self.mass_coef = veh.gravity * np.sin(slope_mat) + rolling
        self.speed_ms = self.speed_kmh * KM_PER_H_TO_M_PER_S
        self.drag_w_per_kg0 = 0.5 * veh.drag_coefficient * veh.air_density * veh.frontal_area_m2 * self.speed_ms**2
        self.discharge_factor = veh.motor_discharge_factor * veh.battery_discharge_factor
        self.recovery_factor = veh.motor_recovery_factor * veh.battery_recovery_factor
        self._load_tables: dict[float, LoadTables] = {}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_customers(self) -> int:
        return int(self.customer_ids.size)

    @property
    def n_stations(self) -> int:
        return int(self.station_ids.size)

    def load_tables(self, load_kg: float) -> LoadTables:
        """The energy tables at cargo ``load_kg``, computed on first use and kept.

        Keyed by the exact float.  Every entry is an `_edge_energy_kwh`
        value, so it is the float `energy_row_kwh` gives for that edge and
        mass: a homing path's first leg at the row's mass and its station's
        drive home at the same mass.
        """
        tables = self._load_tables.get(load_kg)
        if tables is None:
            mass = self.vehicle.curb_mass_kg + load_kg
            full = self.vehicle.battery_capacity_kwh
            rids = self.recharge_ids
            first_h, _, final_h = self.path_legs_h

            def homing_need(mass_kg):
                first = self._edge_energy_kwh(self.mass_coef[:, rids], first_h, mass_kg)
                home = self._edge_energy_kwh(self.mass_coef[rids, 0], final_h, mass_kg)
                return np.where(full >= np.maximum(home, 0.0), np.maximum(first, 0.0), np.inf)

            tables = LoadTables(
                energy=self.energy_matrix_kwh(mass),
                settled_need=homing_need((mass - self.demands)[:, None]),
                station_ok=homing_need(mass) <= full,
            )
            for table in tables:
                table.flags.writeable = False
            self._load_tables[load_kg] = tables
        return tables

    def _edge_energy_kwh(self, coef, travel, mass_kg):
        power_w = (mass_kg * coef + self.drag_w_per_kg0) * self.speed_ms
        eff = np.where(power_w >= 0.0, self.discharge_factor, self.recovery_factor)
        return eff * power_w * travel * W_H_TO_KWH

    def energy_row_kwh(self, i: int, mass_kg, j) -> np.ndarray:
        """Signed battery charge (kWh) for edges ``i -> j`` at total mass.

        ``j`` and ``mass_kg`` may be scalars or matching vectors.  Negative
        values mean net regeneration on the edge.
        """
        return self._edge_energy_kwh(self.mass_coef[i, j], self.travel_h[i, j], mass_kg)

    def energy_matrix_kwh(self, mass_kg: float) -> np.ndarray:
        """Full signed edge-energy table at one total mass."""
        return self._edge_energy_kwh(self.mass_coef, self.travel_h, mass_kg)


@dataclass(eq=False)
class TspInstance:
    """Euclidean TSP on the unit square; node ids are coordinate indices."""

    coords: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 2:
            raise InstanceError("coords must have shape (n, 2)")
        if self.coords.shape[0] < 3:
            raise InstanceError("TSP needs at least 3 cities")
        if not np.isfinite(self.coords).all():
            raise InstanceError("coords must be finite")
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        self.dist_km = np.sqrt((diff**2).sum(axis=-1))

    @property
    def n_nodes(self) -> int:
        return int(self.coords.shape[0])


Instance = EvrpInstance | TspInstance


def generate_evrp(
    n_customers: int,
    n_stations: int,
    seed: int,
    objective_mode: str = "EM",
    vehicle: VehicleParams | None = None,
) -> EvrpInstance:
    """Sample a random EVRP instance.

    The depot is uniform on the central [25, 75]^2 km square, stations and
    customers are uniform on [0, 100]^2, demands are uniform over
    {0.25, 0.5, 0.75, 1.0} kg.  Identical seeds give identical instances.
    """
    if n_customers < 1 or n_stations < 1:
        raise InstanceError("need at least one customer and one station")
    rng = np.random.default_rng(seed)
    lo, hi = DEPOT_RANGE_KM
    depot_xy = lo + (hi - lo) * rng.random(2)
    station_xy = COORD_RANGE_KM * rng.random((n_stations, 2))
    customer_xy = COORD_RANGE_KM * rng.random((n_customers, 2))
    demands = rng.choice(np.array(DEMAND_CHOICES), size=n_customers)

    nodes = [Node(0, NodeKind.DEPOT, float(depot_xy[0]), float(depot_xy[1]))]
    for k in range(n_stations):
        nodes.append(Node(1 + k, NodeKind.STATION, float(station_xy[k, 0]), float(station_xy[k, 1])))
    base = 1 + n_stations
    for k in range(n_customers):
        nodes.append(
            Node(base + k, NodeKind.CUSTOMER, float(customer_xy[k, 0]), float(customer_xy[k, 1]), float(demands[k]))
        )
    return EvrpInstance(
        nodes=tuple(nodes),
        vehicle=vehicle if vehicle is not None else VehicleParams(),
        objective_mode=objective_mode,
        seed=seed,
    )


def generate_tsp(n: int, seed: int) -> TspInstance:
    """Sample ``n`` cities uniformly on the unit square."""
    if n < 3:
        raise InstanceError("TSP needs at least 3 cities")
    rng = np.random.default_rng(seed)
    return TspInstance(coords=rng.random((n, 2)), seed=seed)


def _node_to_dict(node: Node) -> dict:
    return {
        "id": node.id,
        "kind": node.kind.value,
        "x": float(node.x),
        "y": float(node.y),
        "demand": float(node.demand),
    }


def instance_to_dict(inst: Instance) -> dict:
    """Plain-JSON form with a fixed key order (round-trips exactly)."""
    if isinstance(inst, TspInstance):
        return {
            "problem": "tsp",
            "coords": [[float(x), float(y)] for x, y in inst.coords],
            "seed": inst.seed,
        }
    veh = {f.name: getattr(inst.vehicle, f.name) for f in fields(VehicleParams)}
    veh = {k: (v if isinstance(v, bool) else float(v)) for k, v in veh.items()}
    return {
        "problem": "evrp",
        "nodes": [_node_to_dict(node) for node in inst.nodes],
        "vehicle": veh,
        "speed": float(inst.speed_kmh),
        "t_max": float(inst.t_max_h),
        "service_time": float(inst.service_time_h),
        "recharge_dwell": float(inst.recharge_dwell_h),
        "objective_mode": inst.objective_mode,
        "seed": inst.seed,
        "slope": None if inst.slope is None else [[float(v) for v in row] for row in inst.slope],
    }


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix(value) -> bool:
    return isinstance(value, list) and all(isinstance(row, list) and all(map(_number, row)) for row in value)


# JSON values accepted per field annotation (a string, as modules postpone annotations):
# bools are not numbers, ints count as floats, and a matrix is a list of rows of numbers
_FIELD_TYPES = {
    "int": ("an integer", lambda v: _number(v) and isinstance(v, int)),
    "int | None": ("an integer or null", lambda v: v is None or _number(v) and isinstance(v, int)),
    "float": ("a number", _number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "matrix": ("a list of rows of numbers", _matrix),
    "matrix | None": ("a list of rows of numbers or null", lambda v: v is None or _matrix(v)),
}

# the top-level keys of an instance file and their annotations, per problem
_FILE_KEYS = {
    "tsp": {"problem": "str", "coords": "matrix", "seed": "int | None"},
    "evrp": {"problem": "str", "objective_mode": "str", "nodes": "list", "vehicle": "VehicleParams"}
    | dict.fromkeys(("speed", "t_max", "service_time", "recharge_dwell"), "float")
    | {"seed": "int | None", "slope": "matrix | None"},
}


def check_fields(cls, data, what: str) -> None:
    """Reject ``data`` unless it is an object whose keys are fields of ``cls`` holding values of their types.

    ``cls`` is a dataclass or a dict of annotations; its reader checks a field `_FIELD_TYPES` does not list.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    types = cls if isinstance(cls, dict) else {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    for name, value in data.items():
        if types[name] in _FIELD_TYPES:
            kind, fits = _FIELD_TYPES[types[name]]
            if not fits(value):
                raise ValueError(f"{what} field {name} must be {kind}, got {value!r}")


def instance_from_dict(data: dict, source: str = "<dict>") -> Instance:
    """The instance of an `instance_to_dict` form, its fields read by the `check_fields` rule of config files.

    The top level is checked against ``_FILE_KEYS``, each node against `Node` and the vehicle against
    `VehicleParams`.  Every key `instance_to_dict` writes is required, so no field falls back to a default:
    an unknown or missing key or a mistyped value raises InstanceFormatError naming ``source`` and the field.
    """
    try:
        problem = data["problem"]
        if problem not in ("tsp", "evrp"):
            raise InstanceFormatError(f"unknown problem kind {problem!r}")
        check_fields(_FILE_KEYS[problem], data, "instance")
        if problem == "tsp":
            return TspInstance(coords=data["coords"], seed=data["seed"])
        nodes = []
        for i, n in enumerate(data["nodes"]):
            check_fields(Node, n, f"node {i}")
            nodes.append(Node(n["id"], NodeKind(n["kind"]), float(n["x"]), float(n["y"]), float(n["demand"])))
        check_fields(VehicleParams, data["vehicle"], "vehicle")
        return EvrpInstance(
            nodes=nodes,
            vehicle=VehicleParams(**{f.name: data["vehicle"][f.name] for f in fields(VehicleParams)}),
            speed_kmh=float(data["speed"]),
            t_max_h=float(data["t_max"]),
            service_time_h=float(data["service_time"]),
            recharge_dwell_h=float(data["recharge_dwell"]),
            slope=data["slope"],
            objective_mode=data["objective_mode"],
            seed=data["seed"],
        )
    except InstanceError as exc:
        raise type(exc)(f"{source}: {exc}") from exc
    except KeyError as exc:
        raise InstanceFormatError(f"{source}: bad instance data: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{source}: bad instance data: {exc}") from exc


def write_file(path: str | Path, content: str | Callable[[BinaryIO], object]) -> None:
    """The package's one whole-file writer: ``content`` (text, or a function writing bytes to a file)
    goes to a temp file beside ``path``, renamed over it; a failed write removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    write = content if callable(content) else lambda fh: fh.write(content.encode())
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_instance(inst: Instance, path: str | Path) -> None:
    """Write an instance as JSON, atomically."""
    write_file(path, json.dumps(instance_to_dict(inst), indent=2) + "\n")


def load_instance(path: str | Path) -> Instance:
    """Read an instance file; raises ``InstanceFormatError`` on bad input."""
    path = Path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object")
    return instance_from_dict(data, source=str(path))
