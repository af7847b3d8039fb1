import json
import shutil
from dataclasses import asdict, replace

import numpy as np
import pytest

import routezero.trainer as trainer_mod
from routezero.env import DeadEndError, game_outcome, initial_state, legal_actions, objective, step
from routezero.instance import EvrpInstance, TspInstance, generate_tsp
from routezero.net import Adam, CheckpointError, NetConfig, PolicyValueNet, featurize
from routezero.planner import PlannerConfig, PlannerError
from routezero.trainer import (
    METRICS_HEADER,
    PolicyBuffer,
    TrainConfig,
    TrainerError,
    TrainerState,
    ValueBuffer,
    arena_evaluate,
    derived_seed,
    load_checkpoint,
    make_instance,
    run_episode,
    save_checkpoint,
    stage_gate,
    train,
    train_config_from_dict,
    value_tuples,
)

TINY_NET = dict(embed_dim=16, n_heads=2, n_layers=1, ffn_dim=32, batch_size=8, learning_rate=1e-3)


def tiny_cfg(**overrides):
    base = dict(
        problem="tsp",
        n_nodes=4,
        total_episodes=4,
        stage_switch=2,
        self_play_prob=0.5,
        planner=PlannerConfig(n_simulations=6, m_root=4),
        net=NetConfig(problem="tsp", **TINY_NET),
        arena_size=2,
        arena_interval=2,
        train_steps_per_episode=1,
        checkpoint_interval=2,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_nets(problem="tsp", seed=0):
    theta = PolicyValueNet.create(NetConfig(problem=problem, **TINY_NET), seed=seed)
    return theta, theta.copy()


class TestTrainConfig:
    def test_round_trip_through_dict(self):
        cfg = tiny_cfg()
        assert train_config_from_dict(asdict(cfg)) == cfg

    def test_net_defaults_follow_problem(self):
        cfg = train_config_from_dict({"problem": "dm-evrp", "n_customers": 2, "n_stations": 1})
        assert cfg.net.problem == "evrp"

    @pytest.mark.parametrize("problem", ["dm-evrp", "em-evrp"])
    def test_library_and_json_configs_take_the_same_default_net(self, problem):
        assert TrainConfig(problem=problem) == train_config_from_dict({"problem": problem})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: budget"):
            train_config_from_dict({"budget": 3})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"problem": "vrp"},
            {"self_play_prob": 1.0},
            {"self_play_prob": -0.1},
            {"stage_switch": 99},
            {"total_episodes": 0},
            {"train_steps_per_episode": -1},
            {"n_nodes": 1},
            {"n_nodes": 2},
            {"problem": "dm-evrp", "n_stations": 0, "net": NetConfig(problem="evrp", **TINY_NET)},
            {"net": NetConfig(problem="evrp", **TINY_NET)},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            tiny_cfg(**overrides)

    def test_nested_configs_parse_from_plain_dicts(self):
        raw = asdict(tiny_cfg())
        assert isinstance(raw["planner"], dict) and isinstance(raw["net"], dict)
        cfg = train_config_from_dict(raw)
        assert cfg.planner == PlannerConfig(n_simulations=6, m_root=4)


class TestStageGate:
    def test_boundaries(self):
        cfg = tiny_cfg(total_episodes=10, stage_switch=3)
        assert [stage_gate(e, cfg) for e in range(5)] == [1, 1, 1, 2, 2]

    def test_all_stage_two(self):
        cfg = tiny_cfg(stage_switch=0)
        assert stage_gate(0, cfg) == 2

    def test_all_stage_one(self):
        cfg = tiny_cfg(stage_switch=4, total_episodes=4)
        assert stage_gate(3, cfg) == 1


def feature_of(inst, moves=()):
    state = initial_state(inst)
    for a in moves:
        state = step(state, a)
    return featurize(state), legal_actions(state) if not state.done else None


class TestPolicyBuffer:
    def make_entry(self, inst, action):
        feats, legal = feature_of(inst)
        target = np.zeros(inst.n_nodes)
        target[action] = 1.0
        return feats, legal, target

    def test_push_sample(self):
        inst = generate_tsp(4, seed=0)
        buf = PolicyBuffer(capacity=8)
        buf.push(*self.make_entry(inst, 1))
        batch = buf.sample(5, np.random.default_rng(0))
        assert batch["nodes"].shape == (5, 4, 5)
        assert batch["target"].sum(axis=1) == pytest.approx(np.ones(5))

    def test_fifo_eviction(self):
        inst = generate_tsp(4, seed=0)
        buf = PolicyBuffer(capacity=2)
        for action in (0, 1, 2):
            buf.push(*self.make_entry(inst, action))
        assert len(buf) == 2
        kept = [int(np.argmax(t)) for t in buf.to_arrays("p/")["p/target"]]
        assert kept == [1, 2], "oldest row evicted, survivors oldest first"

    def test_rejects_bad_targets(self):
        inst = generate_tsp(4, seed=0)
        feats, legal = feature_of(inst)
        buf = PolicyBuffer(capacity=4)
        with pytest.raises(ValueError):
            buf.push(feats, legal, np.full(4, 0.5))
        with pytest.raises(ValueError):
            buf.push(feats, legal, np.array([1.5, -0.5, 0.0, 0.0]))
        with pytest.raises(ValueError):
            buf.push(feats, np.zeros(4, dtype=bool), np.array([1.0, 0.0, 0.0, 0.0]))

    def test_empty_sample_is_none(self):
        assert PolicyBuffer(4).sample(2, np.random.default_rng(0)) is None

    def test_array_round_trip(self):
        inst = generate_tsp(4, seed=0)
        buf = PolicyBuffer(capacity=4)
        buf.push(*self.make_entry(inst, 1))
        buf.push(*self.make_entry(inst, 3))
        arrays = buf.to_arrays("p/")
        clone = PolicyBuffer.from_arrays(arrays, "p/", capacity=4)
        assert len(clone) == 2
        for key, value in clone.to_arrays("p/").items():
            np.testing.assert_array_equal(value, arrays[key])
        np.testing.assert_array_equal(arrays["p/target"][1], np.eye(4)[3])

    def test_empty_round_trip(self):
        clone = PolicyBuffer.from_arrays(PolicyBuffer(4).to_arrays("p/"), "p/", capacity=4)
        assert len(clone) == 0


class TestValueBuffer:
    def test_outcome_must_be_unit(self):
        inst = generate_tsp(4, seed=0)
        feats, _ = feature_of(inst)
        buf = ValueBuffer(4)
        with pytest.raises(ValueError):
            buf.push(feats, feats, 0.5)

    def test_sample_and_round_trip(self):
        inst = generate_tsp(4, seed=0)
        a, _ = feature_of(inst)
        b, _ = feature_of(inst, moves=(2,))
        buf = ValueBuffer(4)
        buf.push(a, b, 1.0)
        buf.push(b, a, -1.0)
        batch = buf.sample(3, np.random.default_rng(1))
        assert set(batch) == {"own_nodes", "opp_nodes", "z"}
        assert set(np.unique(batch["z"])) <= {-1.0, 1.0}
        clone = ValueBuffer.from_arrays(buf.to_arrays("v/"), "v/", capacity=4)
        assert len(clone) == 2
        arrays = clone.to_arrays("v/")
        assert set(arrays) == {"v/count", "v/own_nodes", "v/opp_nodes", "v/z"}
        assert arrays["v/z"].tolist() == [1.0, -1.0]
        np.testing.assert_array_equal(arrays["v/own_nodes"][1], b.nodes)


class TestValueTuples:
    def traj(self, inst, moveses):
        out = [initial_state(inst)]
        for a in moveses:
            out.append(step(out[-1], a))
        return tuple(out)

    def test_aligned_families(self):
        inst = generate_tsp(4, seed=1)
        first = self.traj(inst, (0, 1, 2, 3))
        second = self.traj(inst, (3, 2, 1, 0))
        tuples = value_tuples(first, second, outcome=1)
        assert len(tuples) == 2 * len(first)
        for t in range(len(first)):
            own, opp, z = tuples[2 * t]
            assert own is first[t] and opp is second[t] and z == 1.0
            own, opp, z = tuples[2 * t + 1]
            assert own is second[t] and opp is first[min(t + 1, len(first) - 1)] and z == -1.0

    def test_offset_sees_the_next_state(self):
        inst = generate_tsp(4, seed=1)
        first = self.traj(inst, (0, 1, 2, 3))
        second = self.traj(inst, (3, 2, 1, 0))
        tuples = value_tuples(first, second, outcome=-1)
        own, opp, z = tuples[1]
        assert own is second[0] and opp is first[1] and z == 1.0
        own, opp, _ = tuples[-1]
        assert own is second[-1] and opp is first[-1], "clamped at the terminal state"

    def test_unequal_lengths_use_the_shorter(self):
        inst = generate_tsp(4, seed=1)
        first = self.traj(inst, (0, 1))
        second = self.traj(inst, (3, 2, 1, 0))
        tuples = value_tuples(first, second, outcome=1)
        assert len(tuples) == 2 * len(first)


class TestSeedsAndInstances:
    def test_derived_seed_is_stable_and_keyed(self):
        assert derived_seed(1, 2, 3) == derived_seed(1, 2, 3)
        assert derived_seed(1, 2, 3) != derived_seed(1, 2, 4)
        assert derived_seed(1, 0, 3) != derived_seed(1, 1, 3)

    def test_make_instance_dispatch(self):
        tsp = make_instance(tiny_cfg(), seed=5)
        assert isinstance(tsp, TspInstance) and tsp.n_nodes == 4
        dm = make_instance(
            tiny_cfg(problem="dm-evrp", n_customers=2, n_stations=1, net=NetConfig(problem="evrp", **TINY_NET)),
            seed=5,
        )
        assert isinstance(dm, EvrpInstance) and dm.objective_mode == "DM"
        em = make_instance(
            tiny_cfg(problem="em-evrp", n_customers=2, n_stations=1, net=NetConfig(problem="evrp", **TINY_NET)),
            seed=5,
        )
        assert em.objective_mode == "EM"


class TestRunEpisode:
    def play(self, stage, seed=0, **overrides):
        cfg = tiny_cfg(**overrides)
        inst = generate_tsp(cfg.n_nodes, seed=3)
        record = run_episode(inst, tiny_nets(seed=seed), cfg, stage, np.random.default_rng(seed))
        return inst, record

    def test_trajectories_finish_and_score(self):
        inst, record = self.play(stage=1)
        assert all(traj[-1].done for traj in record.trajs)
        assert record.objectives == tuple(objective(inst, traj[-1].route) for traj in record.trajs)
        first, second = record.objectives[::record.learner]
        assert record.outcome == game_outcome(-first, -second)

    def test_stage1_competitor_never_searches(self):
        _, record = self.play(stage=1)
        learner_sims, competitor_sims = record.sims
        assert set(competitor_sims) == {0}
        assert min(learner_sims) > 0
        assert len(record.policy_samples) == len(learner_sims)

    def test_stage2_both_search(self):
        _, record = self.play(stage=2)
        assert min(record.sims[0]) > 0 and min(record.sims[1]) > 0
        assert len(record.policy_samples) == len(record.sims[0]) + len(record.sims[1])

    def test_deterministic_given_rng(self):
        _, a = self.play(stage=2, seed=4)
        _, b = self.play(stage=2, seed=4)
        assert [t[-1].route for t in a.trajs] == [t[-1].route for t in b.trajs]
        assert a.learner == b.learner and a.outcome == b.outcome

    def test_learner_entries_are_the_searching_seats_in_either_seat(self):
        seats = set()
        for seed in range(6):
            _, record = self.play(stage=1, seed=seed)
            seats.add(record.learner)
            learner_traj, competitor_traj = record.trajs
            searched = [own for own, _ in record.policy_samples]
            assert len(searched) == len(learner_traj) - 1 and all(a is b for a, b in zip(searched, learner_traj))
            assert len(record.sims[0]) == len(learner_traj) - 1 and len(record.sims[1]) == len(competitor_traj) - 1
        assert seats == {1, -1}

    def test_stage1_competitor_replays_historical_best_greedily(self):
        cfg = tiny_cfg(self_play_prob=0.0)
        inst = generate_tsp(cfg.n_nodes, seed=3)
        theta = PolicyValueNet.create(cfg.net, seed=0)
        theta_best = PolicyValueNet.create(cfg.net, seed=9)
        record = run_episode(inst, (theta, theta_best), cfg, stage=1, rng=np.random.default_rng(2))
        from routezero.net import greedy_actions

        state = initial_state(inst)
        for nxt in record.trajs[1][1:]:
            state = step(state, greedy_actions(theta_best, [state])[0][0])
            assert state.route == nxt.route


class TestArena:
    def test_identical_nets_are_a_draw(self):
        theta, theta_best = tiny_nets()
        instances = [generate_tsp(4, seed=s) for s in range(3)]
        updated, reward_sum, dead_ends = arena_evaluate(theta, theta_best, instances)
        assert not updated, "ties must not replace the historical best"
        assert reward_sum == 0.0
        assert dead_ends == {"theta": 0, "best": 0}

    def test_sum_matches_manual_recompute(self):
        from routezero.baselines import greedy_rollout

        theta = PolicyValueNet.create(NetConfig(problem="tsp", **TINY_NET), seed=0)
        other = PolicyValueNet.create(NetConfig(problem="tsp", **TINY_NET), seed=5)
        instances = [generate_tsp(5, seed=s) for s in range(4)]
        updated, reward_sum, _ = arena_evaluate(theta, other, instances)
        manual = sum(
            greedy_rollout(inst, other).objective - greedy_rollout(inst, theta).objective
            for inst in instances
        )
        assert reward_sum == pytest.approx(manual, rel=1e-12)
        assert updated == (manual > 0.0)

    def test_dead_ends_score_nothing_and_gate_promotion(self, monkeypatch):
        theta, theta_best = tiny_nets()
        instances = [generate_tsp(4, seed=s) for s in range(3)]
        real = trainer_mod.greedy_rollouts

        def dead_end_for(dead_net):
            def rollouts(insts, net):
                results = real(insts, net)
                if net is not dead_net:
                    return results
                dead = DeadEndError("rollout exceeded 440 steps without terminating")
                return [dead if inst.seed == 1 else r for inst, r in zip(insts, results)]

            return rollouts

        monkeypatch.setattr(trainer_mod, "greedy_rollouts", dead_end_for(theta_best))
        assert arena_evaluate(theta, theta_best, instances) == (True, 0.0, {"theta": 0, "best": 1})
        monkeypatch.setattr(trainer_mod, "greedy_rollouts", dead_end_for(theta))
        assert arena_evaluate(theta, theta_best, instances) == (False, 0.0, {"theta": 1, "best": 0})


class TestCheckpoint:
    def fresh_state(self, cfg):
        theta = PolicyValueNet.create(cfg.net, seed=cfg.seed)
        return TrainerState(theta, theta.copy(), PolicyBuffer(8), ValueBuffer(8), 3, Adam.zeros(theta.params))

    def test_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        state = self.fresh_state(cfg)
        inst = generate_tsp(4, seed=0)
        feats, legal = feature_of(inst)
        target = np.zeros(4)
        target[1] = 1.0
        state.policy_buffer.push(feats, legal, target)
        state.value_buffer.push(feats, feats, -1.0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, cfg, state)
        cfg2, state2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert state2.episode == 3
        assert len(state2.policy_buffer) == 1 and len(state2.value_buffer) == 1
        for k in state.theta.params:
            np.testing.assert_array_equal(state2.theta.params[k], state.theta.params[k])
            np.testing.assert_array_equal(state2.theta_best.params[k], state.theta_best.params[k])

    def test_version_mismatch(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, cfg, self.fresh_state(cfg))
        data = dict(np.load(path))
        data["meta/version"] = np.array(99)
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def corrupted(self, tmp_path, key, corrupt):
        cfg = tiny_cfg(policy_buffer_capacity=8, value_buffer_capacity=8)
        state = self.fresh_state(cfg)
        inst = generate_tsp(4, seed=0)
        feats, legal = feature_of(inst)
        for action in (1, 2, 3):
            state.policy_buffer.push(feats, legal, np.eye(4)[action])
            state.value_buffer.push(feats, feats, 1.0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, cfg, state)
        arrays = dict(np.load(path))
        if corrupt is None:
            del arrays[key]
        else:
            arrays[key] = corrupt(arrays[key].copy())
        np.savez(path, **arrays)
        return path

    @pytest.mark.parametrize(
        "key, corrupt, message",
        [
            ("pol/count", lambda a: np.array(9), "'pol/count' is 9, outside"),
            ("val/opp_nodes", lambda a: a[:2], "'val/opp_nodes' has shape .*, expected 3 rows"),
            ("pol/legal", lambda a: a.astype(np.float64), "'pol/legal' is not a boolean mask"),
            ("pol/legal", lambda a: np.where(np.eye(4)[1:], False, a), "'pol/target' is not a distribution"),
            ("pol/target", lambda a: a * 2.0, "'pol/target' is not a distribution"),
            ("val/z", lambda a: np.where(np.arange(3) == 1, 0.5, a), "'val/z' holds an outcome other than"),
            ("val/z", None, "missing array 'val/z'"),
        ],
    )
    def test_malformed_buffer_arrays(self, tmp_path, key, corrupt, message):
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(self.corrupted(tmp_path, key, corrupt))

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, corrupt, message",
        [
            ("theta/adam_v/embed/W", lambda a: a[:, :3], "'theta/adam_v/embed/W' has shape .*, expected"),
            ("theta/adam_m/value/b2", None, "missing array 'theta/adam_m/value/b2'"),
            ("theta/meta/adam_t", None, "missing array 'theta/meta/adam_t'"),
        ],
    )
    def test_malformed_moments(self, tmp_path, key, corrupt, message):
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(self.corrupted(tmp_path, key, corrupt))

    def test_only_theta_carries_moments(self, tmp_path):
        ckpt = train(tiny_cfg(total_episodes=2, checkpoint_interval=2), tmp_path / "run")
        keys = set(np.load(ckpt).files)
        assert not [k for k in keys if "adam" in k and not k.startswith(("theta/adam_", "theta/meta/adam_t"))]
        _, state = load_checkpoint(ckpt)
        assert state.adam.t == 2  # one train step per episode
        assert {f"theta/adam_{g}/{k}" for g in "mv" for k in state.theta.params} | {"theta/meta/adam_t"} <= keys


def read_metrics(run_dir):
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    return [line.split(",") for line in lines[1:]]


def read_events(run_dir):
    return [json.loads(line) for line in (run_dir / "events.log").read_text().splitlines()]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("finished") / "run"
    train(tiny_cfg(), run)
    return run


class TestTrainLoop:
    def test_artifacts_and_stage_column(self, tmp_path):
        cfg = tiny_cfg()
        ckpt = train(cfg, tmp_path / "run")
        assert ckpt.exists()
        assert (tmp_path / "run" / "config.json").exists()
        rows = read_metrics(tmp_path / "run")
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        assert [r[1] for r in rows] == ["1", "1", "2", "2"]
        assert all(r[7] == "" for r in rows), "soc column is blank for TSP"
        events = read_events(tmp_path / "run")
        kinds = {e["event"] for e in events}
        assert {"episode", "arena", "checkpoint"} <= kinds
        saved = json.loads((tmp_path / "run" / "config.json").read_text())
        assert train_config_from_dict(saved) == cfg

    def test_metrics_are_reproducible(self, tmp_path):
        cfg = tiny_cfg()
        train(cfg, tmp_path / "a")
        train(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_interrupt_resume_matches_uninterrupted(self, tmp_path, monkeypatch):
        self.crash_and_resume(tiny_cfg(), tmp_path, monkeypatch)

    def test_resume_with_wrapped_buffers(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(policy_buffer_capacity=5, value_buffer_capacity=7)
        resumed = self.crash_and_resume(cfg, tmp_path, monkeypatch)
        assert (len(resumed.policy_buffer), len(resumed.value_buffer)) == (5, 7)
        episodes = [e for e in read_events(tmp_path / "full") if e["event"] == "episode" and e["episode"] <= 2]
        assert sum(len(e["learner_sims"]) for e in episodes) > 5, "the policy ring wrapped before the checkpoint"

    def test_resume_from_a_checkpoint_with_best_moments(self, tmp_path, monkeypatch):
        # older releases also saved the best net's Adam moments; a resume ignores them
        added = []

        def add_best_moments(run_dir):
            arrays = dict(np.load(run_dir / "checkpoint.npz"))
            for k in [k for k in arrays if k.startswith(("theta/adam_", "theta/meta/adam_t"))]:
                added.append("best/" + k.removeprefix("theta/"))
                arrays[added[-1]] = np.full_like(arrays[k], 7)
            np.savez(run_dir / "checkpoint.npz", **arrays)

        self.crash_and_resume(tiny_cfg(), tmp_path, monkeypatch, add_best_moments)
        assert {"best/adam_m/embed/W", "best/adam_v/value/b2", "best/meta/adam_t"} <= set(added)

    def test_resume_drops_the_logs_past_the_checkpoint_unread(self, tmp_path, monkeypatch):
        # a metrics row cut short, and events.log lines after the first one of a later episode
        def cut_tails(run_dir):
            for name, tail in (("metrics.csv", "3,2,0.1"), ("events.log", '{"event":"episode","episode":3}\n{"arena')):
                with open(run_dir / name, "a") as fh:
                    fh.write(tail)

        self.crash_and_resume(tiny_cfg(), tmp_path, monkeypatch, cut_tails)

    def crash_and_resume(self, cfg, tmp_path, monkeypatch, edit=None):
        train(cfg, tmp_path / "full")

        real = trainer_mod.run_episode
        calls = {"n": 0}

        def bomb(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("simulated crash")
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "run_episode", bomb)
        with pytest.raises(RuntimeError, match="simulated crash"):
            train(cfg, tmp_path / "broken")
        monkeypatch.setattr(trainer_mod, "run_episode", real)
        if edit is not None:
            edit(tmp_path / "broken")
        _, resumed = load_checkpoint(tmp_path / "broken" / "checkpoint.npz")

        train(cfg, tmp_path / "broken", resume=True)
        assert (tmp_path / "broken" / "metrics.csv").read_bytes() == (tmp_path / "full" / "metrics.csv").read_bytes()
        events = read_events(tmp_path / "broken")
        assert any(e["event"] == "resume" and e["episode"] == 2 for e in events)
        stages = [e["stage"] for e in events if e["event"] == "episode"]
        assert stages == sorted(stages), "stage never reverts"
        return resumed

    def test_dead_end_stops_the_run_and_logs_the_seat(self, tmp_path, monkeypatch, capsys):
        import routezero.env as env_mod
        from routezero.cli import main

        monkeypatch.setattr(env_mod, "step_limit", lambda inst: 3)  # a 6-city tour takes 6 moves
        desk_net = NetConfig(problem="tsp", embed_dim=32, n_heads=4, n_layers=2, ffn_dim=64, batch_size=64)
        cfg = tiny_cfg(n_nodes=6, net=desk_net, planner=PlannerConfig(n_simulations=20, m_root=8))
        inst_seed = derived_seed(cfg.seed, trainer_mod._STREAM_INSTANCE, 0)
        # both seats reach the cap in round 3; play reports seat 1 first
        seat_one_learns = np.random.default_rng([cfg.seed, trainer_mod._STREAM_EPISODE, 0]).random() < 0.5
        error = f"{'learner' if seat_one_learns else 'competitor'} seat: rollout exceeded 3 steps without terminating"
        with pytest.raises(TrainerError) as raised:
            train(cfg, tmp_path / "run")
        assert str(raised.value) == f"episode 1 (instance seed {inst_seed}): {error}"
        assert read_events(tmp_path / "run")[-1] == {
            "event": "dead_end",
            "episode": 1,
            "instance_seed": inst_seed,
            "error": error,
        }
        assert read_metrics(tmp_path / "run") == []

        config = tmp_path / "desk.json"
        config.write_text(json.dumps(asdict(cfg)))
        capsys.readouterr()
        assert main(["train", str(config), "--run-dir", str(tmp_path / "cli")]) == 2
        assert f"episode 1 (instance seed {inst_seed}): {error}" in capsys.readouterr().err

    def test_a_planner_error_stops_the_run_and_logs_the_episode(self, tmp_path, monkeypatch):
        real = trainer_mod.run_episode
        calls = {"n": 0}

        def failing(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise PlannerError("cannot plan from a terminal state")
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "run_episode", failing)
        cfg = tiny_cfg()
        inst_seed = derived_seed(cfg.seed, trainer_mod._STREAM_INSTANCE, 1)
        with pytest.raises(TrainerError) as raised:
            train(cfg, tmp_path / "run")
        assert str(raised.value) == f"episode 2 (instance seed {inst_seed}): cannot plan from a terminal state"
        assert read_events(tmp_path / "run")[-1] == {
            "event": "planner_error",
            "episode": 2,
            "instance_seed": inst_seed,
            "error": "cannot plan from a terminal state",
        }
        assert [row[0] for row in read_metrics(tmp_path / "run")] == ["1"]

    @pytest.mark.parametrize("failing_seat", ["learner", "competitor"])
    def test_a_planner_error_names_the_seat_whose_search_failed(self, tmp_path, monkeypatch, failing_seat):
        import routezero.planner as planner_mod

        real = planner_mod.plan

        def plan(own, opp, evaluator, *args, **kwargs):
            # the learner's evaluator reads theta for both heads; a stage-2 competitor's reads theta_best's policy
            seat = "learner" if evaluator.policy_net is evaluator.value_net else "competitor"
            if seat == failing_seat:
                raise PlannerError("cannot plan from a terminal state")
            return real(own, opp, evaluator, *args, **kwargs)

        monkeypatch.setattr(planner_mod, "plan", plan)
        cfg = tiny_cfg(stage_switch=0)
        inst_seed = derived_seed(cfg.seed, trainer_mod._STREAM_INSTANCE, 0)
        error = f"{failing_seat} seat: cannot plan from a terminal state"
        with pytest.raises(TrainerError) as raised:
            train(cfg, tmp_path / "run")
        assert str(raised.value) == f"episode 1 (instance seed {inst_seed}): {error}"
        assert isinstance(raised.value.__cause__, PlannerError) and str(raised.value.__cause__) == error
        assert read_events(tmp_path / "run")[-1] == {
            "event": "planner_error",
            "episode": 1,
            "instance_seed": inst_seed,
            "error": error,
        }

    @pytest.mark.parametrize(
        ("name", "edit", "message"),
        [
            ("events.log", lambda lines: [*lines[:-1], lines[-1][:14]], r"events\.log: line 8: not a JSON event with"),
            ("metrics.csv", lambda lines: [lines[0], "x" + lines[1][1:], *lines[2:]], r"metrics\.csv: line 2: invalid"),
            ("metrics.csv", None, r"metrics\.csv: No such file or directory"),
            ("metrics.csv", lambda lines: lines[:3] + lines[4:], r"metrics\.csv: lacks rows 1\.\.4; the checkpoint"),
            ("events.log", None, r"events\.log: No such file"),
            (
                "metrics.csv",
                lambda lines: [lines[0].replace("learner_obj,competitor", "competitor_obj,learner"), *lines[1:]],
                r"metrics\.csv: line 1",
            ),
        ],
        ids=["cut-event", "bad-episode-cell", "deleted-metrics", "missing-row", "deleted-events", "swapped-header"],
    )
    def test_resume_rejects_a_damaged_log_naming_the_file(self, tmp_path, finished_run, name, edit, message):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        if edit is None:
            (run / name).unlink()
        else:
            (run / name).write_text("".join(line + "\n" for line in edit((run / name).read_text().splitlines())))
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        with pytest.raises(TrainerError, match=message):
            train(tiny_cfg(), run, resume=True)
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before, "a rejected resume writes nothing"

    def test_resume_needs_a_checkpoint(self, tmp_path):
        with pytest.raises(TrainerError, match="no checkpoint"):
            train(tiny_cfg(), tmp_path / "nothing", resume=True)

    def test_resume_rejects_a_different_config(self, tmp_path):
        cfg = tiny_cfg()
        train(cfg, tmp_path / "run")
        with pytest.raises(TrainerError, match="different config"):
            train(tiny_cfg(seed=1), tmp_path / "run", resume=True)

    @pytest.mark.parametrize(
        ("overrides", "named"),
        [
            ({"seed": 4}, "seed is 0 in the checkpoint, 4 in this one"),
            ({"net": replace(tiny_cfg().net, embed_dim=32)}, "net.embed_dim is 16 in the checkpoint, 32 in this one"),
            (
                {"planner": replace(tiny_cfg().planner, n_simulations=7)},
                "planner.n_simulations is 6 in the checkpoint, 7 in this one",
            ),
        ],
        ids=["seed", "net", "planner"],
    )
    def test_a_different_config_names_the_checkpoint_and_the_field(self, tmp_path, finished_run, overrides, named):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        with pytest.raises(TrainerError) as raised:
            train(tiny_cfg(**overrides), run, resume=True)
        ckpt = run / "checkpoint.npz"
        assert str(raised.value) == f"{ckpt}: checkpoint was produced by a different config: {named}"
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_completed_run_resumes_to_a_noop(self, tmp_path):
        cfg = tiny_cfg()
        train(cfg, tmp_path / "run")
        before = (tmp_path / "run" / "metrics.csv").read_bytes()
        train(cfg, tmp_path / "run", resume=True)
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == before

    def test_episode_events_time_the_train_steps(self, finished_run):
        episodes = [e for e in read_events(finished_run) if e["event"] == "episode"]
        assert len(episodes) == 4
        for e in episodes:
            assert 0.0 <= e["train_s"] <= e["wall_time_s"]
        assert sum(e["train_s"] for e in episodes) > 0.0, "the run took train steps"

    def test_episode_phases_fit_in_the_wall_time(self, finished_run):
        # play, train steps and the arena are disjoint parts of an episode's wall time;
        # the checkpoint write comes after the episode event and times itself
        events = read_events(finished_run)
        arena_s = {e["episode"]: e["arena_s"] for e in events if e["event"] == "arena"}
        assert sorted(arena_s) == [2, 4]
        episodes = [e for e in events if e["event"] == "episode"]
        assert len(episodes) == 4
        for e in episodes:
            assert e["play_s"] > 0.0
            assert e["play_s"] + e["train_s"] + arena_s.get(e["episode"], 0.0) <= e["wall_time_s"]
        checkpoints = [e for e in events if e["event"] == "checkpoint"]
        assert [e["episode"] for e in checkpoints] == [2, 4]
        assert all(e["checkpoint_s"] > 0.0 for e in checkpoints)

    def test_episode_events_split_play_into_search_and_greedy_moves(self, finished_run):
        # search_s times the planning seats (in-tree opponents included), opponent_s the greedy seats' own moves
        episodes = [e for e in read_events(finished_run) if e["event"] == "episode"]
        assert [e["stage"] for e in episodes] == [1, 1, 2, 2]
        for e in episodes:
            assert e["search_s"] > 0.0 and e["opponent_s"] >= 0.0
            assert e["search_s"] + e["opponent_s"] <= e["play_s"]
        assert all(e["opponent_s"] > 0.0 for e in episodes if e["stage"] == 1)
        assert all(e["opponent_s"] == 0.0 for e in episodes if e["stage"] == 2)

    def test_stage1_events_show_zero_competitor_sims(self, tmp_path):
        cfg = tiny_cfg()
        train(cfg, tmp_path / "run")
        events = [e for e in read_events(tmp_path / "run") if e["event"] == "episode"]
        for e in events:
            if e["stage"] == 1:
                assert set(e["competitor_sims"]) == {0}
            else:
                assert min(e["competitor_sims"]) > 0
            assert min(e["learner_sims"]) > 0

    def test_episode_events_count_evaluations_and_greedy_forwards(self, tmp_path, monkeypatch):
        from routezero.planner import NetEvaluator

        counted = []  # per episode: [pairs evaluated, forwards run outside an evaluate_batch]
        scope = []  # "episode" inside run_episode, then "evaluate" inside an evaluate_batch
        real_episode, real_batch = trainer_mod.run_episode, NetEvaluator.evaluate_batch
        real_forward = PolicyValueNet.forward

        def within(name, call):
            scope.append(name)
            try:
                return call()
            finally:
                scope.pop()

        def episode(*args, **kwargs):
            counted.append([0, 0])
            return within("episode", lambda: real_episode(*args, **kwargs))

        def evaluate_batch(self, pairs):
            counted[-1][0] += len(pairs)
            return within("evaluate", lambda: real_batch(self, pairs))

        def forward(self, own, opp=None):
            if scope == ["episode"]:  # arena rollouts run outside any episode
                counted[-1][1] += 1
            return real_forward(self, own, opp)

        monkeypatch.setattr(trainer_mod, "run_episode", episode)
        monkeypatch.setattr(NetEvaluator, "evaluate_batch", evaluate_batch)
        monkeypatch.setattr(PolicyValueNet, "forward", forward)
        train(tiny_cfg(n_nodes=6), tmp_path / "run")
        events = [e for e in read_events(tmp_path / "run") if e["event"] == "episode"]
        assert len(events) == len(counted) == 4
        for e, (pairs, forwards) in zip(events, counted):
            assert sum(e["learner_evals"]) + sum(e["competitor_evals"]) == pairs > 0
            assert e["greedy_forwards"] == forwards > 0
            for sims, evals in ((e["learner_sims"], e["learner_evals"]), (e["competitor_sims"], e["competitor_evals"])):
                assert len(sims) == len(evals) and [s == 0 for s in sims] == [v == 0 for v in evals]
        assert sum(e["greedy_memo_hits"] for e in events) > 0
        assert "greedy_forwards" not in (tmp_path / "run" / "metrics.csv").read_text()

    @pytest.mark.parametrize("problem", ["tsp", "em-evrp"])
    def test_metrics_and_events_read_each_role_from_its_record(self, tmp_path, monkeypatch, problem):
        cfg = tiny_cfg(total_episodes=6, stage_switch=3)
        if problem == "em-evrp":
            cfg = tiny_cfg(
                problem="em-evrp",
                n_customers=3,
                n_stations=1,
                total_episodes=6,
                stage_switch=3,
                planner=PlannerConfig(n_simulations=8, m_root=4),
                net=NetConfig(problem="evrp", **TINY_NET),
            )
        records = []
        real = trainer_mod.run_episode

        def capture(*args, **kwargs):
            records.append(real(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(trainer_mod, "run_episode", capture)
        train(cfg, tmp_path / "run")
        assert {record.learner for record in records} == {1, -1}, "the run puts the learner in both seats"
        events = [e for e in read_events(tmp_path / "run") if e["event"] == "episode"]
        for record, row, event in zip(records, read_metrics(tmp_path / "run"), events, strict=True):
            learner_traj = record.trajs[0]
            inst = learner_traj[0].instance
            # the learner's entries are its own: the seat that searched, scored on its own route
            assert min(record.sims[0]) > 0 and len(record.sims[0]) == len(learner_traj) - 1
            assert record.objectives == tuple(objective(inst, traj[-1].route) for traj in record.trajs)
            assert row[2:5] == [repr(record.objectives[0]), repr(record.objectives[1]), str(record.outcome)]
            soc = repr(learner_traj[-1].energy_kwh / cfg.n_customers) if problem == "em-evrp" else ""
            assert row[7] == soc
            assert (event["learner"], event["z"]) == (record.learner, record.outcome)
            assert (event["learner_sims"], event["competitor_sims"]) == (list(record.sims[0]), list(record.sims[1]))

    def test_arena_updates_only_on_positive_sums(self, tmp_path):
        cfg = tiny_cfg(total_episodes=6, stage_switch=3, arena_interval=1)
        train(cfg, tmp_path / "run")
        arenas = [e for e in read_events(tmp_path / "run") if e["event"] == "arena"]
        assert len(arenas) == 6
        for e in arenas:
            assert e["updated"] == (e["reward_sum"] > 0.0)
            assert e["arena_s"] > 0.0, "the arena logs its wall time"

    def test_evrp_smoke_writes_soc(self, tmp_path):
        cfg = tiny_cfg(
            problem="dm-evrp",
            n_customers=3,
            n_stations=1,
            total_episodes=2,
            stage_switch=1,
            planner=PlannerConfig(n_simulations=8, m_root=4),
            net=NetConfig(problem="evrp", **TINY_NET),
            arena_interval=2,
            checkpoint_interval=2,
        )
        train(cfg, tmp_path / "run")
        rows = read_metrics(tmp_path / "run")
        assert len(rows) == 2
        assert all(float(r[7]) > 0.0 for r in rows), "energy per customer is recorded"

    def test_evrp_training_survives_arena_dead_ends(self, tmp_path):
        cfg = TrainConfig(
            problem="em-evrp",
            n_customers=6,
            n_stations=2,
            total_episodes=10,
            stage_switch=5,
            planner=PlannerConfig(n_simulations=20, m_root=8),
            net=NetConfig(
                problem="evrp", embed_dim=32, n_heads=4, n_layers=2, ffn_dim=64, batch_size=64, learning_rate=1e-3
            ),
            arena_size=8,
            arena_interval=5,
            train_steps_per_episode=4,
            checkpoint_interval=10,
            seed=0,
        )
        train(cfg, tmp_path / "run")
        assert [r[0] for r in read_metrics(tmp_path / "run")] == [str(e) for e in range(1, 11)]
        arenas = [e for e in read_events(tmp_path / "run") if e["event"] == "arena"]
        assert [e["episode"] for e in arenas] == [5, 10]
        assert arenas[0]["dead_ends"]["theta"] > 0, "the current net cycles until the step cap in the first arena"
        for e in arenas:
            assert e["updated"] == (e["dead_ends"]["theta"] == 0 and (e["reward_sum"] > 0 or e["dead_ends"]["best"] > 0))

    def test_zero_train_steps_allowed(self, tmp_path):
        cfg = tiny_cfg(total_episodes=2, stage_switch=1, train_steps_per_episode=0)
        train(cfg, tmp_path / "run")
        rows = read_metrics(tmp_path / "run")
        assert all(r[5] == "0.0" and r[6] == "0.0" for r in rows)
