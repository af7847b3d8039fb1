import json
import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from routezero.instance import (
    EvrpInstance,
    InstanceError,
    InstanceFormatError,
    Node,
    NodeKind,
    TspInstance,
    VehicleParams,
    generate_evrp,
    generate_tsp,
    instance_to_dict,
    load_instance,
    save_instance,
)


def flat_instance(demands=(0.5, 1.0), stations=1, **kwargs):
    nodes = [Node(0, NodeKind.DEPOT, 50.0, 50.0)]
    for k in range(stations):
        nodes.append(Node(1 + k, NodeKind.STATION, 20.0 + 10 * k, 80.0))
    for k, d in enumerate(demands):
        nodes.append(Node(1 + stations + k, NodeKind.CUSTOMER, 30.0 * (k + 1), 10.0, d))
    return EvrpInstance(nodes=tuple(nodes), **kwargs)


class TestVehicleParams:
    def test_defaults_match_published_constants(self):
        veh = VehicleParams()
        assert veh.cargo_capacity_kg == 4000.0
        assert veh.curb_mass_kg == 4100.0
        assert veh.battery_capacity_kwh == 80.0
        assert veh.frontal_area_m2 == 3.912
        assert (veh.motor_discharge_factor, veh.battery_discharge_factor) == (1.18, 1.11)
        assert (veh.motor_recovery_factor, veh.battery_recovery_factor) == (0.85, 0.93)

    @pytest.mark.parametrize("field", ["cargo_capacity_kg", "battery_capacity_kwh", "gravity"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(InstanceError):
            VehicleParams(**{field: 0.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [f.name for f in fields(VehicleParams) if f.type == "float"])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(InstanceError, match="finite"):
            VehicleParams(**{field: bad})


class TestInstanceValidation:
    def test_depot_must_be_node_zero(self):
        nodes = (
            Node(0, NodeKind.CUSTOMER, 0.0, 0.0, 1.0),
            Node(1, NodeKind.DEPOT, 1.0, 1.0),
        )
        with pytest.raises(InstanceError, match="depot"):
            EvrpInstance(nodes=nodes)

    def test_node_ids_positional(self):
        nodes = (
            Node(0, NodeKind.DEPOT, 0.0, 0.0),
            Node(2, NodeKind.CUSTOMER, 1.0, 1.0, 1.0),
        )
        with pytest.raises(InstanceError, match="positional"):
            EvrpInstance(nodes=nodes)

    def test_station_with_demand_rejected(self):
        nodes = (
            Node(0, NodeKind.DEPOT, 0.0, 0.0),
            Node(1, NodeKind.STATION, 1.0, 1.0, 2.0),
            Node(2, NodeKind.CUSTOMER, 2.0, 2.0, 1.0),
        )
        with pytest.raises(InstanceError, match="demand"):
            EvrpInstance(nodes=nodes)

    def test_demand_above_capacity_rejected(self):
        with pytest.raises(InstanceError, match="capacity"):
            flat_instance(demands=(4001.0,))

    def test_slope_must_be_antisymmetric(self):
        inst_nodes = flat_instance().nodes
        bad = np.ones((4, 4))
        with pytest.raises(InstanceError, match="antisymmetric"):
            EvrpInstance(nodes=inst_nodes, slope=bad)

    def test_bad_objective_mode(self):
        with pytest.raises(InstanceError):
            flat_instance(objective_mode="XX")

    def test_tsp_needs_three_cities(self):
        with pytest.raises(InstanceError):
            TspInstance(coords=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tsp_coords_must_be_finite(self, bad):
        coords = np.zeros((3, 2))
        coords[1, 0] = bad
        with pytest.raises(InstanceError, match="finite"):
            TspInstance(coords=coords)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("attr", ["x", "y", "demand"])
    def test_node_data_must_be_finite(self, attr, bad):
        nodes = list(flat_instance().nodes)
        nodes[-1] = replace(nodes[-1], **{attr: bad})
        with pytest.raises(InstanceError, match="non-finite"):
            EvrpInstance(nodes=tuple(nodes))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["speed_kmh", "t_max_h", "service_time_h", "recharge_dwell_h"])
    def test_times_and_speed_must_be_finite(self, field, bad):
        with pytest.raises(InstanceError, match="finite"):
            flat_instance(**{field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_slope_must_be_finite(self, bad):
        slope = np.zeros((4, 4))
        slope[1, 2], slope[2, 1] = bad, -bad
        with pytest.raises(InstanceError, match="finite"):
            flat_instance(slope=slope)

    def test_nan_in_a_json_file_is_rejected_on_load(self, tmp_path):
        # json.load reads the NaN literal that json.dump writes
        path = tmp_path / "tsp.json"
        coords = [[0.0, 0.0], [float("nan"), 1.0], [1.0, 0.0]]
        path.write_text(json.dumps({"problem": "tsp", "coords": coords, "seed": None}))
        with pytest.raises(InstanceError, match="finite"):
            load_instance(path)


class TestGeometry:
    def test_distance_symmetric_zero_diagonal(self):
        inst = generate_evrp(5, 2, seed=3)
        assert np.allclose(inst.dist_km, inst.dist_km.T)
        assert np.all(np.diag(inst.dist_km) == 0.0)

    def test_distance_and_travel_time_helpers(self):
        inst = flat_instance()
        d = inst.dist_km[0, 2]
        assert d == pytest.approx(math.hypot(50.0 - 30.0, 50.0 - 10.0))
        assert inst.travel_h[0, 2] == pytest.approx(d / 60.0)


class TestGenerators:
    def test_evrp_layout_and_ranges(self):
        inst = generate_evrp(10, 4, seed=0)
        assert inst.n_customers == 10 and inst.n_stations == 4
        assert inst.kinds[0] == 0
        depot = inst.coords[0]
        assert 25.0 <= depot[0] <= 75.0 and 25.0 <= depot[1] <= 75.0
        assert (inst.coords >= 0.0).all() and (inst.coords <= 100.0).all()
        for d in inst.demands[inst.customer_ids]:
            assert d in (0.25, 0.5, 0.75, 1.0)

    def test_same_seed_same_instance(self):
        a = generate_evrp(6, 2, seed=42)
        b = generate_evrp(6, 2, seed=42)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.demands, b.demands)
        c = generate_evrp(6, 2, seed=43)
        assert not np.array_equal(a.coords, c.coords)

    def test_tsp_unit_square(self):
        inst = generate_tsp(12, seed=5)
        assert inst.n_nodes == 12
        assert (inst.coords >= 0.0).all() and (inst.coords <= 1.0).all()
        assert np.array_equal(inst.coords, generate_tsp(12, seed=5).coords)


class TestEnergyTables:
    # frozen values from a by-hand evaluation of the tractive-power formula
    # at 60 km/h over 10 km: P = (m*(g*sin a + c_r*cos a) + 0.5*c_d*rho*A*v^2)*v
    def test_flat_curb_mass_edge(self):
        nodes = (
            Node(0, NodeKind.DEPOT, 0.0, 0.0),
            Node(1, NodeKind.CUSTOMER, 10.0, 0.0, 1.0),
        )
        inst = EvrpInstance(nodes=nodes)
        e = inst.energy_row_kwh(0, 4100.0, 1)
        assert float(e) == pytest.approx(1.8097070000000006, rel=1e-12)

    def test_flat_full_load_edge(self):
        nodes = (
            Node(0, NodeKind.DEPOT, 0.0, 0.0),
            Node(1, NodeKind.CUSTOMER, 10.0, 0.0, 1.0),
        )
        inst = EvrpInstance(nodes=nodes)
        e = inst.energy_row_kwh(0, 8100.0, 1)
        assert float(e) == pytest.approx(1.9552403333333341, rel=1e-12)

    def test_downhill_regeneration_uses_recovery_factors(self):
        nodes = (
            Node(0, NodeKind.DEPOT, 0.0, 0.0),
            Node(1, NodeKind.CUSTOMER, 10.0, 0.0, 1.0),
        )
        slope = np.array([[0.0, math.radians(-5.0)], [math.radians(5.0), 0.0]])
        inst = EvrpInstance(nodes=nodes, slope=slope)
        down = float(inst.energy_row_kwh(0, 4100.0, 1))
        up = float(inst.energy_row_kwh(1, 4100.0, 0))
        assert down == pytest.approx(-6.605609359039823, rel=1e-12)
        assert up > 0.0
        # climbing back costs more than the descent refunds
        assert up + down > 0.0

    def test_gravity_scaled_rolling_resistance_flag(self):
        nodes = (
            Node(0, NodeKind.DEPOT, 0.0, 0.0),
            Node(1, NodeKind.CUSTOMER, 10.0, 0.0, 1.0),
        )
        inst = EvrpInstance(nodes=nodes, vehicle=VehicleParams(physical_rolling_resistance=True))
        e = inst.energy_row_kwh(0, 4100.0, 1)
        assert float(e) == pytest.approx(3.1239093833333342, rel=1e-12)

    def test_energy_matrix_matches_rows(self):
        inst = generate_evrp(4, 2, seed=9)
        mat = inst.energy_matrix_kwh(5000.0)
        for i in range(inst.n_nodes):
            assert np.allclose(mat[i], inst.energy_row_kwh(i, 5000.0, np.arange(inst.n_nodes)), rtol=1e-15)


class TestSerialization:
    def test_evrp_round_trip(self, tmp_path):
        inst = generate_evrp(5, 2, seed=17, objective_mode="DM")
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert isinstance(back, EvrpInstance)
        assert np.array_equal(back.coords, inst.coords)
        assert np.array_equal(back.demands, inst.demands)
        assert back.objective_mode == "DM"
        assert back.seed == 17
        assert back.vehicle == inst.vehicle

    def test_tsp_round_trip(self, tmp_path):
        inst = generate_tsp(7, seed=2)
        path = tmp_path / "tsp.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert isinstance(back, TspInstance)
        assert np.array_equal(back.coords, inst.coords)

    @pytest.mark.parametrize("problem", ["tsp", "DM", "EM"])
    def test_generated_file_loads_to_its_arrays_and_saves_back_byte_for_byte(self, tmp_path, problem):
        inst = generate_tsp(6, seed=3) if problem == "tsp" else generate_evrp(4, 2, seed=5, objective_mode=problem)
        save_instance(inst, tmp_path / "a.json")
        back = load_instance(tmp_path / "a.json")
        for name in ("coords", "dist_km", "demands", "kinds", "travel_h", "mass_coef"):
            if hasattr(inst, name):
                assert getattr(back, name).tobytes() == getattr(inst, name).tobytes(), name
        save_instance(back, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_failed_save_leaves_no_temp_file_and_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "inst.json"
        save_instance(generate_tsp(5, seed=1), path)
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            save_instance(generate_tsp(5, seed=2), path)
        assert [p.name for p in tmp_path.iterdir()] == ["inst.json"]
        assert path.read_bytes() == before

    def test_save_is_reproducible(self, tmp_path):
        inst = generate_evrp(3, 1, seed=4)
        save_instance(inst, tmp_path / "a.json")
        save_instance(inst, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_slope_survives_round_trip(self, tmp_path):
        base = flat_instance()
        n = base.n_nodes
        rng = np.random.default_rng(0)
        s = rng.normal(0, 0.02, (n, n))
        slope = s - s.T
        inst = EvrpInstance(nodes=base.nodes, slope=slope)
        save_instance(inst, tmp_path / "s.json")
        back = load_instance(tmp_path / "s.json")
        assert np.allclose(back.slope, slope, atol=1e-15)

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(InstanceFormatError):
            load_instance(p)

    @pytest.mark.parametrize(
        "key",
        ["problem", "vehicle", "speed", "objective_mode", "seed", "recharge_dwell", "slope"]
        + ["vehicle.battery_capacity_kwh", "nodes.2.demand", "tsp:seed"],
    )
    def test_rejects_missing_field_naming_the_key(self, tmp_path, key):
        # an EVRP key, a dotted path into the nodes or the vehicle, or a "tsp:" key of a TSP file;
        # every key instance_to_dict writes is required, so none falls back to a default
        problem, _, path = key.rpartition(":")
        data = instance_to_dict(generate_tsp(4, seed=4) if problem == "tsp" else generate_evrp(3, 1, seed=4))
        *parents, name = path.split(".")
        holder = data
        for part in parents:
            holder = holder[int(part) if part.isdigit() else part]
        del holder[name]
        p = tmp_path / "cut.json"
        p.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError, match=rf"^.*cut\.json: bad instance data: missing key '{name}'$"):
            load_instance(p)

    def test_rejects_a_node_missing_a_field_naming_the_key(self, tmp_path):
        data = instance_to_dict(generate_evrp(3, 1, seed=4))
        del data["nodes"][2]["kind"]
        p = tmp_path / "cut.json"
        p.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError, match="missing key 'kind'"):
            load_instance(p)

    def test_constructor_error_names_the_file(self, tmp_path):
        data = instance_to_dict(generate_tsp(4, seed=1))
        data["coords"][2][1] = math.inf
        p = tmp_path / "inf.json"
        p.write_text(json.dumps(data))
        with pytest.raises(InstanceError, match=r"^.*inf\.json: coords must be finite$") as err:
            load_instance(p)
        assert type(err.value) is InstanceError
        data = instance_to_dict(generate_tsp(4, seed=1)) | {"problem": "knapsack"}
        p.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError, match=r"^[^:]*inf\.json: unknown problem kind 'knapsack'$"):
            load_instance(p)

    def test_rejects_unknown_kind(self, tmp_path):
        inst = generate_evrp(3, 1, seed=4)
        data = instance_to_dict(inst)
        data["nodes"][1]["kind"] = "warehouse"
        p = tmp_path / "kind.json"
        p.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError):
            load_instance(p)

    def test_missing_file_is_io_error_not_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_instance(tmp_path / "absent.json")
