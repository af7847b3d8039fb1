import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import routezero.env as env_mod
import routezero.planner as planner_mod
from routezero import cli
from routezero.baselines import SearchBudgetError
from routezero.cli import RESULTS_HEADER, TIMING_HEADER, main
from routezero.env import RoutingGame, initial_state, legal_actions, step
from routezero.instance import InstanceFormatError, generate_evrp, load_instance
from routezero.net import NetConfig, PolicyValueNet, load_net, net_to_arrays, save_net
from routezero.planner import PlannerConfig
from routezero.trainer import METRICS_HEADER

TINY_TRAIN = {
    "problem": "tsp",
    "n_nodes": 5,
    "total_episodes": 2,
    "stage_switch": 1,
    "planner": {"n_simulations": 6, "m_root": 4},
    "net": {
        "problem": "tsp",
        "embed_dim": 16,
        "n_heads": 2,
        "n_layers": 1,
        "ffn_dim": 32,
        "batch_size": 8,
        "learning_rate": 0.001,
    },
    "arena_size": 1,
    "arena_interval": 2,
    "train_steps_per_episode": 1,
    "checkpoint_interval": 2,
    "seed": 0,
}


@pytest.fixture
def trained_run(tmp_path):
    config = tmp_path / "smoke.json"
    config.write_text(json.dumps(TINY_TRAIN))
    run_dir = tmp_path / "run"
    assert main(["train", str(config), "--run-dir", str(run_dir)]) == 0
    return run_dir


class TestGen:
    def test_writes_named_tsp_files(self, tmp_path):
        assert main(["gen", "tsp", "--nodes", "5", "--count", "3", "--seed", "7", "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == [f"tsp_n5_seed{s}.json" for s in (7, 8, 9)]
        inst = load_instance(tmp_path / "tsp_n5_seed7.json")
        assert inst.n_nodes == 5

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["gen", "tsp", "--nodes", "4", "--count", "2", "--seed", "1", "--out", str(tmp_path)]
        main(args)
        first = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
        main(args)
        second = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
        assert first == second

    def test_evrp_naming_and_mode(self, tmp_path):
        assert (
            main(
                [
                    "gen", "evrp", "--customers", "3", "--stations", "2",
                    "--objective", "EM", "--count", "1", "--seed", "4", "--out", str(tmp_path),
                ]
            )
            == 0
        )
        path = tmp_path / "evrp_c3_s2_em_seed4.json"
        assert path.exists()
        inst = load_instance(path)
        assert inst.objective_mode == "EM"
        assert inst.n_customers == 3 and inst.n_stations == 2

    def test_bad_problem_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen", "knapsack", "--out", str(tmp_path)])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        ("args", "named"),
        [
            (["tsp", "--count", "-1"], "--count must be at least 1, got -1"),
            (["tsp", "--count", "0"], "--count must be at least 1, got 0"),
            (["tsp", "--nodes", "2"], "--nodes 2: TSP needs at least 3 cities"),
            (["evrp", "--customers", "0"], "--customers 0 --stations 4: need at least one customer"),
            (["evrp", "--stations", "0"], "--customers 10 --stations 0: need at least one customer"),
        ],
    )
    def test_bad_count_or_size_is_usage_error_before_any_file(self, tmp_path, args, named, capsys):
        out = tmp_path / "out"
        assert main(["gen", *args, "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_smoke_run(self, trained_run):
        assert (trained_run / "checkpoint.npz").exists()
        rows = (trained_run / "metrics.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_resume_exits_zero(self, tmp_path, trained_run):
        config = tmp_path / "smoke.json"
        assert main(["train", str(config), "--run-dir", str(trained_run), "--resume"]) == 0

    def test_seed_override_lands_in_config(self, tmp_path):
        config = tmp_path / "smoke.json"
        config.write_text(json.dumps(TINY_TRAIN))
        run_dir = tmp_path / "run"
        assert main(["train", str(config), "--run-dir", str(run_dir), "--seed", "5"]) == 0
        saved = json.loads((run_dir / "config.json").read_text())
        assert saved["seed"] == 5

    def test_run_root_env_var(self, tmp_path, monkeypatch):
        config = tmp_path / "smoke.json"
        config.write_text(json.dumps(TINY_TRAIN))
        monkeypatch.setenv("ROUTEZERO_RUN_ROOT", str(tmp_path / "root"))
        assert main(["train", str(config)]) == 0
        assert (tmp_path / "root" / "smoke" / "metrics.csv").exists()

    @pytest.mark.parametrize("name", ["config.json", "metrics.csv", "events.log", "checkpoint.npz"])
    def test_a_run_directory_holding_a_run_is_refused_without_resume(self, tmp_path, trained_run, name, capsys):
        for other in {"config.json", "metrics.csv", "events.log", "checkpoint.npz"} - {name}:
            (trained_run / other).unlink()
        before = {path.name: path.read_bytes() for path in trained_run.iterdir()}
        capsys.readouterr()
        assert main(["train", str(tmp_path / "smoke.json"), "--run-dir", str(trained_run)]) == 1
        err = capsys.readouterr().err
        assert f"{trained_run / name} exists" in err and "--resume" in err and "Traceback" not in err
        assert {path.name: path.read_bytes() for path in trained_run.iterdir()} == before

    def test_repeating_a_train_command_keeps_the_first_run(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "smoke.json"
        config.write_text(json.dumps(TINY_TRAIN))
        monkeypatch.setenv("ROUTEZERO_RUN_ROOT", str(tmp_path / "root"))
        (tmp_path / "root" / "smoke").mkdir(parents=True)  # an empty directory holds no run
        assert main(["train", str(config)]) == 0
        run = tmp_path / "root" / "smoke"
        before = {path.name: path.read_bytes() for path in run.iterdir()}
        assert main(["train", str(config)]) == 1
        assert "--resume" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in run.iterdir()} == before
        assert main(["train", str(config), "--resume"]) == 0

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        assert main(["train", str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_garbage_json_is_data_error(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        assert main(["train", str(config)]) == 2

    def test_unknown_key_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**TINY_TRAIN, "episodes": 3}))
        assert main(["train", str(config)]) == 1

    def test_planner_seed_is_an_unknown_key(self, tmp_path, capsys):
        # plan() takes its rng from the caller, so the planner has no seed to set
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**TINY_TRAIN, "planner": {**TINY_TRAIN["planner"], "seed": 3}}))
        assert main(["train", str(config), "--run-dir", str(tmp_path / "run")]) == 1
        assert "unknown planner config keys: seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resume_from_checkpoint_with_planner_seed_is_data_error(self, tmp_path, trained_run, capsys):
        ckpt = trained_run / "checkpoint.npz"
        arrays = dict(np.load(ckpt))
        saved = json.loads(arrays["meta/config"].tobytes().decode())
        saved["planner"]["seed"] = 0
        arrays["meta/config"] = np.frombuffer(json.dumps(saved).encode(), dtype=np.uint8)
        np.savez(ckpt, **arrays)
        config = tmp_path / "smoke.json"
        assert main(["train", str(config), "--run-dir", str(trained_run), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "checkpoint.npz" in err and "unknown planner config keys: seed" in err

    def test_resume_from_checkpoint_without_a_version_is_data_error(self, tmp_path, trained_run, capsys):
        ckpt = trained_run / "checkpoint.npz"
        arrays = dict(np.load(ckpt))
        del arrays["meta/version"]
        np.savez(ckpt, **arrays)
        config = tmp_path / "smoke.json"
        assert main(["train", str(config), "--run-dir", str(trained_run), "--resume"]) == 2
        assert f"{ckpt}: missing array 'meta/version'" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix, name, value", [("theta/", "learning_rate", 0.5), ("best/", "embed_dim", 8)])
    def test_a_net_unlike_the_run_config_is_data_error(self, tmp_path, trained_run, prefix, name, value, capsys):
        # theta's embedded learning_rate would drive its train steps, and best's shapes its arena forwards
        ckpt = trained_run / "checkpoint.npz"
        other = PolicyValueNet.create(NetConfig(**{**TINY_TRAIN["net"], name: value}))
        np.savez(ckpt, **dict(np.load(ckpt)) | net_to_arrays(other, prefix))
        capsys.readouterr()
        assert main(["train", str(tmp_path / "smoke.json"), "--run-dir", str(trained_run), "--resume"]) == 2
        err = capsys.readouterr().err
        named = f"{name} is {value!r} in {prefix}, {TINY_TRAIN['net'][name]!r} in meta/config"
        assert f"{ckpt}: the {prefix} net does not match the run config: {named}" in err
        assert "Traceback" not in err

    def test_bad_value_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**TINY_TRAIN, "self_play_prob": 2.0}))
        assert main(["train", str(config)]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [{"n_nodes": 2}, {"problem": "dm-evrp", "n_stations": 0, "net": {**TINY_TRAIN["net"], "problem": "evrp"}}],
    )
    def test_size_the_generator_rejects_is_usage_error_before_any_file(self, tmp_path, overrides, capsys):
        config = tmp_path / "small.json"
        config.write_text(json.dumps({**TINY_TRAIN, **overrides}))
        assert main(["train", str(config), "--run-dir", str(tmp_path / "run")]) == 1
        assert "at least" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        ("config", "named"),
        [
            ([1, 2], "config must be a JSON object"),
            ({**TINY_TRAIN, "total_episodes": 1.5}, "config field total_episodes must be an integer"),
            ({**TINY_TRAIN, "seed": "a"}, "config field seed must be an integer"),
            ({**TINY_TRAIN, "seed": -1}, "seed must be nonnegative"),
            ({**TINY_TRAIN, "checkpoint_interval": 2.5}, "config field checkpoint_interval must be an integer"),
            ({**TINY_TRAIN, "arena_size": True}, "config field arena_size must be an integer"),
            ({**TINY_TRAIN, "arena_size": 0}, "arena_size must be positive"),
            ({**TINY_TRAIN, "self_play_prob": "0.5"}, "config field self_play_prob must be a number"),
            ({**TINY_TRAIN, "planner": None}, "planner config must be a JSON object"),
            ({**TINY_TRAIN, "planner": {"n_simulations": 6.0}}, "planner config field n_simulations"),
            ({**TINY_TRAIN, "net": {**TINY_TRAIN["net"], "n_layers": "1"}}, "net config field n_layers"),
            ({**TINY_TRAIN, "net": {**TINY_TRAIN["net"], "learning_rate": float("nan")}}, "learning_rate must be"),
            ({**TINY_TRAIN, "planner": {"c_visit": -5}}, "c_visit must be finite and nonnegative"),
            ({**TINY_TRAIN, "planner": {"c_scale": float("inf")}}, "c_scale must be finite and positive"),
        ],
    )
    def test_mistyped_config_is_usage_error_naming_the_field_before_any_file(self, tmp_path, config, named, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["train", str(path), "--run-dir", str(tmp_path / "run")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestEval:
    def gen_instances(self, tmp_path, n=2):
        inst_dir = tmp_path / "instances"
        main(["gen", "tsp", "--nodes", "5", "--count", str(n), "--seed", "0", "--out", str(inst_dir)])
        return inst_dir

    def read_rows(self, path):
        lines = path.read_text().splitlines()
        assert lines[0] == RESULTS_HEADER
        return [line.split(",") for line in lines[1:]]

    def test_greedy_rows_with_oracle_gap(self, tmp_path, trained_run):
        inst_dir = self.gen_instances(tmp_path)
        ckpt = trained_run / "checkpoint.npz"
        assert main(["eval", str(ckpt), str(inst_dir), "--mode", "greedy"]) == 0
        rows = self.read_rows(inst_dir / "results.csv")
        assert len(rows) == 2
        for name, method, obj, oracle, gap_pct, feasible in rows:
            assert name.endswith(".json") and method == "greedy"
            assert float(obj) >= float(oracle) - 1e-9
            assert float(gap_pct) >= -1e-9
            assert feasible == "True"

    def test_mcts_mode(self, tmp_path, trained_run):
        inst_dir = self.gen_instances(tmp_path, n=1)
        out = tmp_path / "mcts.csv"
        code = main(
            [
                "eval", str(trained_run / "checkpoint.npz"), str(inst_dir),
                "--mode", "mcts", "--budget", "8", "--m-root", "4", "--out", str(out),
            ]
        )
        assert code == 0
        rows = self.read_rows(out)
        assert rows[0][1] == "mcts" and rows[0][5] == "True"

    @pytest.mark.parametrize("flag", ["--budget", "--m-root"])
    def test_budget_or_m_root_below_one_is_a_usage_error(self, tmp_path, trained_run, flag, capsys):
        inst_dir = self.gen_instances(tmp_path, n=1)
        out = tmp_path / "mcts.csv"
        argv = ["eval", str(trained_run / "checkpoint.npz"), str(inst_dir), "--mode", "mcts", flag, "0"]
        assert main([*argv, "--out", str(out)]) == 1
        assert f"{flag} must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "mcts.timing.csv").exists()

    @pytest.mark.parametrize(("flag", "value"), [("--budget", "8"), ("--m-root", "4"), ("--seed", "3")])
    def test_search_flag_in_greedy_mode_is_a_usage_error_before_any_file(self, tmp_path, capsys, flag, value):
        # greedy mode runs no search, so it refuses a flag it would ignore, before it reads the checkpoint
        for mode in (["--mode", "greedy"], []):
            argv = ["eval", str(tmp_path / "absent.npz"), str(tmp_path), *mode, flag, value]
            assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
            err = capsys.readouterr().err
            assert f"{flag} applies to --mode mcts only" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_mcts_applies_the_search_flag_defaults(self, tmp_path, trained_run, monkeypatch):
        inst_dir = self.gen_instances(tmp_path, n=2)
        searches = []  # the planner config and rng state of each instance's search
        real = cli._plan_route

        def recording(inst, net, planner_cfg, rng):
            searches.append((planner_cfg, rng.bit_generator.state))
            return real(inst, net, planner_cfg, rng)

        monkeypatch.setattr(cli, "_plan_route", recording)
        argv = ["eval", str(trained_run / "checkpoint.npz"), str(inst_dir), "--mode", "mcts"]
        assert main([*argv, "--out", str(tmp_path / "default.csv")]) == 0
        explicit = ["--budget", "32", "--m-root", "16", "--seed", "0", "--out", str(tmp_path / "explicit.csv")]
        assert main([*argv, *explicit]) == 0
        assert searches[:2] == searches[2:] and searches[0][0] == PlannerConfig(n_simulations=32, m_root=16)
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()

    def test_missing_checkpoint(self, tmp_path, capsys):
        inst_dir = self.gen_instances(tmp_path, n=1)
        assert main(["eval", str(tmp_path / "absent.npz"), str(inst_dir)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_checkpoint_with_only_a_version_is_data_error(self, tmp_path, capsys):
        inst_dir = self.gen_instances(tmp_path, n=1)
        ckpt = tmp_path / "bare.npz"
        np.savez(ckpt, **{"meta/version": np.array(2)})
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        assert "missing array 'theta/meta/config'" in capsys.readouterr().err

    def test_net_dump_missing_array_is_data_error(self, tmp_path, capsys):
        inst_dir = self.gen_instances(tmp_path, n=1)
        ckpt = tmp_path / "net.npz"
        net = PolicyValueNet.create(NetConfig(**TINY_TRAIN["net"]))
        save_net(net, ckpt)
        arrays = dict(np.load(ckpt))
        del arrays["theta/stat/layer0/bn1/mean"]
        np.savez(ckpt, **arrays)
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        assert "missing array 'theta/stat/layer0/bn1/mean'" in capsys.readouterr().err

    def test_checkpoint_without_a_version_is_data_error(self, tmp_path, trained_run, capsys):
        inst_dir = self.gen_instances(tmp_path, n=1)
        ckpt = tmp_path / "unversioned.npz"
        arrays = dict(np.load(trained_run / "checkpoint.npz"))
        del arrays["meta/version"]
        np.savez(ckpt, **arrays)
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        assert f"{ckpt}: missing array 'meta/version'" in capsys.readouterr().err
        assert not (inst_dir / "results.csv").exists()

    def test_version_1_trainer_checkpoint_is_data_error(self, tmp_path, trained_run, capsys):
        inst_dir = self.gen_instances(tmp_path, n=1)
        ckpt = tmp_path / "old.npz"
        arrays = dict(np.load(trained_run / "checkpoint.npz"))
        arrays["meta/version"] = np.array(1)
        np.savez(ckpt, **arrays)
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        assert f"{ckpt}: checkpoint version 1 != 2" in capsys.readouterr().err

    def test_version_1_net_dump_is_data_error(self, tmp_path, capsys):
        # the pre-theta/ net layout: unprefixed arrays at version 1
        inst_dir = self.gen_instances(tmp_path, n=1)
        ckpt = tmp_path / "v1.npz"
        net = PolicyValueNet.create(NetConfig(**TINY_TRAIN["net"]))
        np.savez(ckpt, **{"meta/version": np.array(1)}, **net_to_arrays(net, ""))
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        assert f"{ckpt}: checkpoint version 1 != 2" in capsys.readouterr().err
        assert not (inst_dir / "results.csv").exists()

    @pytest.mark.parametrize(
        ("field", "value", "named"),
        [
            ("embed_dim", 16.0, "net config field embed_dim must be an integer, got 16.0"),
            ("batch_size", 8.0, "net config field batch_size must be an integer, got 8.0"),
            ("n_layers", True, "net config field n_layers must be an integer, got True"),
        ],
    )
    def test_mistyped_embedded_net_config_is_data_error_naming_the_field(
        self, tmp_path, trained_run, field, value, named, capsys
    ):
        inst_dir = self.gen_instances(tmp_path, n=1)
        ckpt = tmp_path / "mistyped.npz"
        arrays = dict(np.load(trained_run / "checkpoint.npz"))
        config = json.loads(arrays["theta/meta/config"].tobytes().decode())
        arrays["theta/meta/config"] = np.frombuffer(json.dumps({**config, field: value}).encode(), dtype=np.uint8)
        np.savez(ckpt, **arrays)
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        assert f"{ckpt}: bad embedded net config: {named}" in capsys.readouterr().err

    def test_trainer_checkpoint_is_read_once(self, tmp_path, trained_run, monkeypatch):
        inst_dir = self.gen_instances(tmp_path, n=1)
        reads = []
        real = np.load
        monkeypatch.setattr(np, "load", lambda *a, **k: reads.append(a) or real(*a, **k))
        assert main(["eval", str(trained_run / "checkpoint.npz"), str(inst_dir)]) == 0
        assert len(reads) == 1

    def test_trainer_checkpoint_reads_only_theta_and_meta(self, tmp_path, trained_run, monkeypatch):
        inst_dir = self.gen_instances(tmp_path, n=1)
        keys = []
        real = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", lambda self, key: keys.append(key) or real(self, key))
        assert main(["eval", str(trained_run / "checkpoint.npz"), str(inst_dir)]) == 0
        assert any(k.startswith("theta/param/") for k in keys)
        assert not [k for k in keys if k.startswith(("pol/", "val/", "best/", "theta/adam_", "theta/meta/adam_t"))]

    def evrp_net_eval(self, tmp_path):
        # this untrained net finishes evrp seed 7 greedily (seed 8 cycles)
        inst_dir = tmp_path / "instances"
        gen = ["gen", "evrp", "--customers", "4", "--stations", "2", "--objective", "EM", "--count", "1"]
        main([*gen, "--seed", "7", "--out", str(inst_dir)])
        ckpt = tmp_path / "net.npz"
        save_net(PolicyValueNet.create(NetConfig(**{**TINY_TRAIN["net"], "problem": "evrp"})), ckpt)
        return ckpt, inst_dir

    def test_oracle_out_of_budget_leaves_blank_cells(self, tmp_path, monkeypatch):
        ckpt, inst_dir = self.evrp_net_eval(tmp_path)

        def exhausted(inst):
            raise SearchBudgetError("exceeded 1 expansions")

        monkeypatch.setattr(cli, "exact_evrp", exhausted)
        assert main(["eval", str(ckpt), str(inst_dir)]) == 0
        [(_, method, obj, oracle, gap_pct, feasible)] = self.read_rows(inst_dir / "results.csv")
        assert (method, oracle, gap_pct, feasible) == ("greedy", "", "", "True") and float(obj) > 0
        [(_, _, oracle_s, _)] = self.read_timing(inst_dir / "results.timing.csv")
        assert oracle_s == ""

    def read_timing(self, path):
        lines = path.read_text().splitlines()
        assert lines[0] == TIMING_HEADER == "instance,wall_s,oracle_s,evaluations"
        return [line.split(",") for line in lines[1:]]

    def test_greedy_timing_sidecar(self, tmp_path, trained_run):
        inst_dir = self.gen_instances(tmp_path, n=3)
        out = tmp_path / "greedy.csv"
        assert main(["eval", str(trained_run / "checkpoint.npz"), str(inst_dir), "--out", str(out)]) == 0
        results = self.read_rows(out)
        timing = self.read_timing(tmp_path / "greedy.timing.csv")
        assert [t[0] for t in timing] == [r[0] for r in results] == [f"tsp_n5_seed{s}.json" for s in range(3)]
        for name, wall_s, oracle_s, evaluations in timing:
            assert float(wall_s) > 0 and float(oracle_s) > 0
            assert int(evaluations) == 4  # one forward row per move of a 5-city tour but the forced last one
        assert len({t[2] for t in timing}) == 1, "the three oracles share one Held-Karp chunk and its time"

    def test_evrp_greedy_evaluations_count_forward_rows(self, tmp_path, monkeypatch):
        ckpt, inst_dir = self.evrp_net_eval(tmp_path)
        rows = []
        forward = PolicyValueNet.forward
        counted = lambda net, own, opp=None: rows.append(len(own["nodes"])) or forward(net, own, opp)
        monkeypatch.setattr(PolicyValueNet, "forward", counted)
        assert main(["eval", str(ckpt), str(inst_dir)]) == 0
        spent = sum(rows)
        [_, _, _, evaluations] = self.read_timing(inst_dir / "results.timing.csv")[0]
        state = initial_state(load_instance(inst_dir / "evrp_c4_s2_em_seed7.json"))
        chosen = 0  # moves with a choice; a forced move runs no forward
        for action in cli.greedy_rollouts([state.instance], load_net(ckpt))[0].route[1:]:
            chosen += int(legal_actions(state).sum() > 1)
            state = step(state, action)
        assert int(evaluations) == spent == chosen

    def test_mcts_timing_counts_plan_evaluations(self, tmp_path, trained_run, monkeypatch):
        inst_dir = self.gen_instances(tmp_path, n=2)
        counted = []
        real_plan = planner_mod.plan

        def spy(*args, **kwargs):
            result = real_plan(*args, **kwargs)
            counted.append(result.evaluations)
            return result

        monkeypatch.setattr(planner_mod, "plan", spy)
        out = tmp_path / "mcts.csv"
        argv = ["eval", str(trained_run / "checkpoint.npz"), str(inst_dir), "--mode", "mcts", "--budget", "8"]
        assert main([*argv, "--m-root", "4", "--out", str(out)]) == 0
        timing = self.read_timing(tmp_path / "mcts.timing.csv")
        assert [t[0] for t in timing] == [r[0] for r in self.read_rows(out)]
        # each tour of 5 cities is 5 planned moves
        assert [int(t[3]) for t in timing] == [sum(counted[:5]), sum(counted[5:])]
        assert all(float(t[1]) > 0 and float(t[2]) > 0 for t in timing)

    def test_mcts_shadow_makes_no_move_after_slot_0_ends(self, tmp_path, monkeypatch):
        # with this untrained net, slot 0 finishes seed 7 in 11 moves and the greedy shadow alone in 29
        inst = generate_evrp(4, 2, 7, "EM")
        net = PolicyValueNet.create(NetConfig(**{**TINY_TRAIN["net"], "problem": "evrp"}))
        planner_cfg = PlannerConfig(n_simulations=4, m_root=2)
        shadow = planner_mod.GreedyNetPolicy(net)
        seats = ((planner_mod.NetEvaluator(net), shadow), shadow)
        game = RoutingGame(inst)
        full_moves, full_ends = planner_mod.play_seats(game, seats, planner_cfg, np.random.default_rng(3))
        full_route = dict(full_ends)[0].route
        assert sum(slot == 1 for slot, *_ in full_moves) > sum(slot == 0 for slot, *_ in full_moves)
        played = []

        def recording(*args):
            moves, ends = planner_mod.play_seats(*args)
            played.append(moves)
            return moves, ends

        monkeypatch.setattr(cli, "play_seats", recording)
        solved = cli._plan_route(inst, net, planner_cfg, np.random.default_rng(3))
        assert solved.route == full_route
        assert [slot for slot, *_ in played[0]] == [0, 1] * (len(solved.route) - 1)

    def test_greedy_dead_end_names_the_instance(self, tmp_path, capsys):
        # with this untrained net, seed 7 finishes and seed 8 cycles until the step cap
        inst_dir = tmp_path / "instances"
        gen = ["gen", "evrp", "--customers", "4", "--stations", "2", "--objective", "EM", "--count", "2"]
        main([*gen, "--seed", "7", "--out", str(inst_dir)])
        ckpt = tmp_path / "net.npz"
        save_net(PolicyValueNet.create(NetConfig(**{**TINY_TRAIN["net"], "problem": "evrp"})), ckpt)
        capsys.readouterr()
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        err = capsys.readouterr().err
        assert "evrp_c4_s2_em_seed8.json: rollout exceeded" in err and "seed7" not in err
        assert not (inst_dir / "results.csv").exists()

    def test_non_finite_instance_is_data_error(self, tmp_path, capsys):
        inst_dir = self.gen_instances(tmp_path, n=1)
        path = inst_dir / "tsp_n5_seed0.json"
        data = json.loads(path.read_text())
        data["coords"][2][0] = float("nan")
        path.write_text(json.dumps(data))
        ckpt = tmp_path / "net.npz"
        save_net(PolicyValueNet.create(NetConfig(**TINY_TRAIN["net"])), ckpt)
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        assert "coords must be finite" in capsys.readouterr().err
        assert not (inst_dir / "results.csv").exists()

    @pytest.mark.parametrize("key", ["problem", "coords"])
    def test_instance_missing_a_key_names_the_key(self, tmp_path, capsys, key):
        inst_dir = self.gen_instances(tmp_path, n=1)
        path = inst_dir / "tsp_n5_seed0.json"
        data = json.loads(path.read_text())
        del data[key]
        path.write_text(json.dumps(data))
        ckpt = tmp_path / "net.npz"
        save_net(PolicyValueNet.create(NetConfig(**TINY_TRAIN["net"])), ckpt)
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        assert f"tsp_n5_seed0.json: bad instance data: missing key '{key}'" in capsys.readouterr().err
        assert not (inst_dir / "results.csv").exists()

    def test_bad_instance_error_names_the_file(self, tmp_path, trained_run, capsys):
        inst_dir = self.gen_instances(tmp_path, n=2)
        path = inst_dir / "tsp_n5_seed1.json"
        data = json.loads(path.read_text())
        data["coords"][3][1] = float("inf")
        path.write_text(json.dumps(data))
        assert json.loads(path.read_text())["coords"][3][1] == float("inf")
        assert main(["eval", str(trained_run / "checkpoint.npz"), str(inst_dir)]) == 2
        err = capsys.readouterr().err
        assert "tsp_n5_seed1.json: coords must be finite" in err and "seed0" not in err

    def test_mcts_dead_end_names_the_instance(self, tmp_path, trained_run, monkeypatch, capsys):
        inst_dir = tmp_path / "instances"
        main(["gen", "tsp", "--nodes", "6", "--count", "1", "--seed", "3", "--out", str(inst_dir)])
        monkeypatch.setattr(env_mod, "step_limit", lambda inst: 3)  # a 6-city tour takes 6 moves
        capsys.readouterr()
        argv = ["eval", str(trained_run / "checkpoint.npz"), str(inst_dir), "--mode", "mcts", "--budget", "4"]
        assert main([*argv, "--m-root", "2"]) == 2
        assert "tsp_n6_seed3.json: rollout exceeded 3 steps without terminating" in capsys.readouterr().err
        assert not (inst_dir / "results.csv").exists()

    def test_mcts_reports_the_first_dead_end_in_file_order(self, tmp_path, trained_run, monkeypatch, capsys):
        inst_dir = tmp_path / "instances"
        main(["gen", "tsp", "--nodes", "6", "--count", "2", "--seed", "3", "--out", str(inst_dir)])
        monkeypatch.setattr(env_mod, "step_limit", lambda inst: 3)  # both 6-city tours dead-end
        planned = []
        real = cli._plan_route

        def recording(*args):
            planned.append(real(*args))
            return planned[-1]

        monkeypatch.setattr(cli, "_plan_route", recording)
        capsys.readouterr()
        argv = ["eval", str(trained_run / "checkpoint.npz"), str(inst_dir), "--mode", "mcts", "--budget", "4"]
        assert main([*argv, "--m-root", "2"]) == 2
        err = capsys.readouterr().err
        assert "tsp_n6_seed3.json: rollout exceeded 3 steps" in err and "seed4" not in err and "Traceback" not in err
        assert [type(result).__name__ for result in planned] == ["DeadEndError", "DeadEndError"]
        assert not list(inst_dir.glob("*.csv"))

    # (problem, edit of the generated file's JSON data, message): valid JSON, no valid instance; an EVRP file
    # holds the depot, one station and two customers, in that order
    INVALID = [
        ("tsp", lambda data: [data], "expected a JSON object"),
        ("tsp", lambda data: {**data, "coords": [[*xy, 0.5] for xy in data["coords"]]}, "coords must have shape"),
        ("evrp", lambda data: {**data, "nodes": data["nodes"][:1]}, "instance needs a depot and at least one customer"),
        ("evrp", lambda data: {**data, "nodes": data["nodes"][:2]}, "instance needs at least one customer"),
        (
            "evrp",
            lambda data: {**data, "nodes": [*data["nodes"][:3], {**data["nodes"][3], "demand": 0.0}]},
            "customer node 3 needs positive demand",
        ),
        ("evrp", lambda data: {**data, "slope": [[0.0, 0.1], [-0.1, 0.0]]}, "slope matrix shape must be"),
    ]

    @pytest.mark.parametrize("problem, edit, message", INVALID)
    def test_invalid_instance_is_data_error_naming_the_file(self, tmp_path, capsys, problem, edit, message):
        inst_dir = tmp_path / "instances"
        sizes = ["--nodes", "5"] if problem == "tsp" else ["--customers", "2", "--stations", "1"]
        main(["gen", problem, *sizes, "--count", "1", "--out", str(inst_dir)])
        (path,) = inst_dir.glob("*.json")
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        ckpt = tmp_path / "net.npz"
        save_net(PolicyValueNet.create(NetConfig(**{**TINY_TRAIN["net"], "problem": problem})), ckpt)
        capsys.readouterr()
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err and "Traceback" not in err
        assert not list(inst_dir.glob("*.csv"))

    # (problem, path to the value in the instance file, bad value, message)
    MALFORMED = [
        ("evrp", ("speed",), True, "instance field speed must be a number, got True"),
        ("evrp", ("speed",), "60", "instance field speed must be a number, got '60'"),
        ("evrp", ("t_max",), "8", "instance field t_max must be a number, got '8'"),
        (
            "evrp",
            ("vehicle", "physical_rolling_resistance"),
            "false",
            "vehicle field physical_rolling_resistance must be true or false, got 'false'",
        ),
        ("evrp", ("vehicle", "battery_capacity_kwh"), True, "vehicle field battery_capacity_kwh must be a number"),
        ("evrp", ("nodes", 2, "id"), 2.7, "node 2 field id must be an integer, got 2.7"),
        ("evrp", ("recharge_dwel",), 0.25, "unknown instance keys: recharge_dwel"),
        ("evrp", ("seed",), 1.0, "instance field seed must be an integer or null, got 1.0"),
        ("tsp", ("coords", 1), ["0.5", True], "instance field coords must be a list of rows of numbers"),
    ]

    @pytest.mark.parametrize("problem, where, value, message", MALFORMED)
    def test_malformed_instance_field_is_data_error_naming_it(self, tmp_path, capsys, problem, where, value, message):
        inst_dir = tmp_path / "instances"
        sizes = ["--nodes", "5"] if problem == "tsp" else ["--customers", "4", "--stations", "2", "--objective", "EM"]
        main(["gen", problem, *sizes, "--count", "1", "--out", str(inst_dir)])
        (path,) = inst_dir.glob("*.json")
        data = json.loads(path.read_text())
        *outer, last = where
        target = data
        for key in outer:
            target = target[key]
        target[last] = value
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(f'{path}: bad instance data: {message}')}"):
            load_instance(path)
        ckpt = tmp_path / "net.npz"
        save_net(PolicyValueNet.create(NetConfig(**{**TINY_TRAIN["net"], "problem": problem})), ckpt)
        capsys.readouterr()
        assert main(["eval", str(ckpt), str(inst_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: bad instance data: {message}" in err and "Traceback" not in err
        assert not list(inst_dir.glob("*.csv"))

    @pytest.mark.parametrize("mode", ["greedy", "mcts"])
    @pytest.mark.parametrize("net_problem, other", [("tsp", "evrp_c4_s2_em_seed7.json"), ("evrp", "tsp_n5_seed0.json")])
    def test_net_of_the_other_problem_is_data_error_before_any_route(
        self, tmp_path, monkeypatch, capsys, net_problem, other, mode
    ):
        # both problems in one directory; the first file of the other problem in sorted order is named
        inst_dir = self.gen_instances(tmp_path, n=2)
        main(["gen", "evrp", "--customers", "4", "--stations", "2", "--objective", "EM", "--count", "2",
              "--seed", "7", "--out", str(inst_dir)])
        ckpt = tmp_path / "net.npz"
        save_net(PolicyValueNet.create(NetConfig(**{**TINY_TRAIN["net"], "problem": net_problem})), ckpt)

        def no_route(*args, **kwargs):
            raise AssertionError("a route was played")

        monkeypatch.setattr(cli, "greedy_rollouts", no_route)
        monkeypatch.setattr(cli, "play_seats", no_route)
        capsys.readouterr()
        assert main(["eval", str(ckpt), str(inst_dir), "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: the net plays {net_problem} instances, {inst_dir / other} is not one" in err
        assert "Traceback" not in err and "seed1" not in err and "seed8" not in err
        assert not list(inst_dir.glob("*.csv"))

    def test_empty_instance_dir(self, tmp_path, trained_run):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["eval", str(trained_run / "checkpoint.npz"), str(empty)]) == 2


class TestPlot:
    def test_svg_from_run(self, tmp_path, trained_run):
        out = tmp_path / "chart.svg"
        assert main(["plot", str(trained_run / "metrics.csv"), str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
        body = out.read_text()
        assert "polyline" in body
        assert "stage 2" in body, "switch marker expected when both stages appear"

    def test_missing_metrics(self, tmp_path):
        assert main(["plot", str(tmp_path / "absent.csv"), str(tmp_path / "o.svg")]) == 2

    def test_header_only_metrics(self, tmp_path):
        metrics = tmp_path / "m.csv"
        metrics.write_text("episode,stage,learner_obj,competitor_obj,z,policy_loss,value_loss,soc_per_customer\n")
        assert main(["plot", str(metrics), str(tmp_path / "o.svg")]) == 2

    @pytest.mark.parametrize(
        ("text", "where"),
        [
            ("a,b\n1,2\n", f"line 1: expected the header {METRICS_HEADER}"),
            (f"{METRICS_HEADER}\n1,1,3.0\n", "line 2: 3 cells, header has 8"),
            (f"{METRICS_HEADER}\n1,1,3.0,4.0,1,0.5,0.5,\nx,1,3.0,4.0,1,0.5,0.5,\n", "line 3: invalid literal"),
        ],
    )
    def test_malformed_metrics_is_data_error_naming_the_line(self, tmp_path, text, where, capsys):
        metrics = tmp_path / "m.csv"
        metrics.write_text(text)
        assert main(["plot", str(metrics), str(tmp_path / "o.svg")]) == 2
        assert f"m.csv: {where}" in capsys.readouterr().err
        assert not (tmp_path / "o.svg").exists()

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_window_below_one_is_a_usage_error(self, tmp_path, trained_run, window, capsys):
        out = tmp_path / "w.svg"
        assert main(["plot", str(trained_run / "metrics.csv"), str(out), "--window", window]) == 1
        assert f"--window must be at least 1, got {window}" in capsys.readouterr().err
        assert not out.exists()

    def test_soc_panel_for_evrp_rows(self, tmp_path):
        metrics = tmp_path / "m.csv"
        rows = ["episode,stage,learner_obj,competitor_obj,z,policy_loss,value_loss,soc_per_customer"]
        for e in range(1, 6):
            rows.append(f"{e},1,{100 - e},{101 - e},1,0.5,0.5,{3.0 + 0.1 * e}")
        metrics.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o.svg"
        assert main(["plot", str(metrics), str(out), "--window", "2"]) == 0
        assert "energy use" in out.read_text()


class TestUsage:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["gen", "eval", "train"])
    def test_negative_seed_is_a_usage_error_naming_the_flag(self, tmp_path, capsys, command):
        # checked before any file is read or written; an unset train --seed is not checked
        config = tmp_path / "smoke.json"
        config.write_text(json.dumps(TINY_TRAIN))
        argv = {
            "gen": ["gen", "tsp", "--seed", "-3", "--out", str(tmp_path / "out")],
            "eval": ["eval", str(tmp_path / "absent.npz"), str(tmp_path), "--mode", "mcts", "--seed", "-3"],
            "train": ["train", str(config), "--run-dir", str(tmp_path / "out"), "--seed", "-3"],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--seed must be at least 0, got -3" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["smoke.json"]

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "routezero.cli", "gen", "tsp", "--nodes", "4", "--count", "1",
             "--seed", "0", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote 1 instance file(s)" in proc.stdout
