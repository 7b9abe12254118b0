"""Experiment harness: config, metrics, checkpoints, plotting, CLI, trainer."""

import glob
import importlib.util
import itertools
import os
import shlex
import shutil
import struct
import subprocess
import sys
import tracemalloc
import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from cure_rl import battery, checkpoint as ckpt
from cure_rl.cli import build_config, make_parser
from cure_rl.cli import main as cli_main
from cure_rl.config import (ExperimentConfig, config_hash, flatten, load_config,
                            save_config, set_by_path)
from cure_rl.cure import ActionSource
from cure_rl.envs import TASK_NAMES
from cure_rl.metrics import COLUMNS, LossAggregator, MetricsWriter, read_metrics
from cure_rl.plotting import collect_series, plot_reward_curves
from cure_rl.srl import Encoder
from cure_rl.train import CHECKPOINT_FILE, PHASES, Trainer, train

REPO = os.path.join(os.path.dirname(__file__), "..")


def tiny_cfg(**kw):
    cfg = ExperimentConfig()
    cfg.task = "point_reacher"
    cfg.seed = 1
    cfg.steps = 30
    cfg.batch_size = 8
    cfg.hidden_dim = 32
    cfg.init_steps = 10
    cfg.render_size = 20
    cfg.crop_size = 16
    cfg.horizon = 40
    cfg.srl.z_dim = 16
    cfg.eval.interval = 20
    cfg.eval.episodes = 1
    cfg.replay.capacity = 200
    for k, v in kw.items():
        set_by_path(cfg, k, v)
    cfg.validate()
    return cfg


class TestConfig:
    def test_defaults_match_published_table(self):
        cfg = ExperimentConfig()
        flat = flatten(cfg)
        assert flat["batch_size"] == 128
        assert flat["replay.capacity"] == 80000
        assert flat["gamma"] == 0.99
        assert flat["hidden_dim"] == 1024
        assert flat["cure.p_c"] == 0.2
        assert flat["frames"] == 3
        assert flat["critic.lr"] == 1e-3
        assert flat["critic.target_freq"] == 2
        assert flat["critic.tau"] == 0.01
        assert flat["actor.lr"] == 1e-3
        assert flat["actor.freq"] == 2
        assert flat["actor.log_std"] == [-10.0, 2.0]
        assert flat["srl.lr"] == 1e-3
        assert flat["alpha.lr"] == 1e-4
        assert flat["alpha.init"] == 0.1
        assert flat["init_steps"] == 1000
        assert flat["cure.beta"] == 1.0
        assert flat["cure.gamma"] == 0.99
        assert flat["srl.z_dim"] == 50
        assert flat["srl.lambda_z"] == 1e-6
        assert flat["srl.lambda_theta"] == 1e-7
        assert flat["srl.key_tau"] == 0.05

    def test_set_by_path_coerces_types(self):
        cfg = ExperimentConfig()
        set_by_path(cfg, "critic.lr", "0.005")
        set_by_path(cfg, "steps", "123")
        set_by_path(cfg, "cure.enabled", "false")
        assert cfg.critic.lr == 0.005 and cfg.steps == 123 and cfg.cure.enabled is False

    @pytest.mark.parametrize("key,text,want", [
        ("steps", "1e4", 10000), ("batch_size", "32.7", ValueError("expected int, got 32.7")),
        ("steps", "true", ValueError("expected int, got True")), ("cure.enabled", "true", True),
        ("actor.log_std", "[-5, 2]", [-5, 2]), ("srl.head", "rae", "rae")])
    def test_file_and_override_parse_text_alike(self, tmp_path, key, text, want):
        def outcome(make):
            try:
                return flatten(make())[key]
            except ValueError as e:
                return e

        path = tmp_path / "c.txt"
        path.write_text(f"{key} = {text}\n")
        via_file = outcome(lambda: load_config(str(path)))
        via_set = outcome(lambda: build_config(
            make_parser().parse_args(["train", "--set", f"{key}={text}"])))
        if isinstance(want, ValueError):
            assert (str(via_file), str(via_set)) == (f"{path}:1: {want}", str(want))
        else:
            assert via_file == via_set == want

    def test_set_by_path_rejects_unknown_key(self):
        with pytest.raises(KeyError):
            set_by_path(ExperimentConfig(), "critic.nope", "1")

    def test_file_roundtrip(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "c.txt"
        save_config(cfg, str(path))
        loaded = load_config(str(path))
        assert flatten(loaded) == flatten(cfg)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("seed = 1\nthis is not a setting\n")
        with pytest.raises(ValueError, match="2"):
            load_config(str(path))

    def test_hash_ignores_out_and_steps(self):
        a, b = tiny_cfg(), tiny_cfg()
        b.out = "/elsewhere"
        b.steps = 999
        assert config_hash(a) == config_hash(b)
        b.gamma = 0.5
        assert config_hash(a) != config_hash(b)
        c = tiny_cfg(mode="cure")
        assert config_hash(a) != config_hash(c)

    def test_crop_defaults_to_render_minus_four(self):
        cfg = ExperimentConfig()
        cfg.crop_size = 0
        cfg.render_size = 36
        assert cfg.crop == 32
        cfg.crop_size = 20
        assert cfg.crop == 20

    def test_validate_rejects_bad_values(self):
        cfg = tiny_cfg()
        cfg.cure.p_c = 1.5
        with pytest.raises(ValueError):
            cfg.validate()

    @pytest.mark.parametrize("overrides,match", [
        ({"actor.freq": 0}, "actor.freq"),
        ({"critic.target_freq": 0}, "critic.target_freq"),
        ({"batch_size": 0}, "batch_size"),
        ({"srl.head": "contrastive", "batch_size": 1}, "batch_size >= 2"),
        ({"actor.log_std": "[1]"}, "actor.log_std"),
        ({"actor.log_std": "[2, -10]"}, "actor.log_std"),
        ({"actor.log_std": '["a", 2]'}, "actor.log_std"),
        ({"replay.capacity": 4}, "replay.capacity"),
        ({"crop_size": 24}, "crop size 24 exceeds render_size 20"),
        ({"hidden_dim": 0}, "hidden_dim must be positive"),
        ({"srl.z_dim": 0}, "srl.z_dim must be positive"),
        ({"frames": 0}, "frames must be positive"),
        ({"alpha.init": 0}, "alpha.init must be positive"),
        ({"cure.beta": -1}, "cure.beta must be >= 0"),
        ({"critic.tau": 3}, r"critic.tau must be in \[0,1\]"),
        ({"critic.tau": -0.1}, r"critic.tau must be in \[0,1\]"),
        ({"srl.key_tau": 1.5}, r"srl.key_tau must be in \[0,1\]"),
        ({"mode": "random"}, r"mode must be mixed\|cure, got .random."),
        ({"mode": "cure", "cure.enabled": False}, "^mode=cure requires cure.enabled"),
        ({"mode": "cure", "pretrain.mode": "random"}, "mode=cure runs no pretraining"),
        ({"steps": -5}, "^steps must be non-negative, got -5"),
        ({"init_steps": -1}, "^init_steps must be non-negative, got -1"),
        ({"horizon": 0}, "^horizon must be positive"),
        ({"pretrain.mode": "random", "pretrain.steps": -4},
         "^pretrain.steps must be positive with pretrain.mode=random, got -4"),
        ({"pretrain.mode": "cure", "pretrain.steps": 0}, "^pretrain.steps must be positive"),
    ], ids=["actor_freq", "target_freq", "batch_size", "contrastive_batch_1",
            "log_std_one_number", "log_std_min_above_max", "log_std_not_numbers",
            "capacity_below_batch", "crop_above_render", "hidden_dim_0", "z_dim_0",
            "frames_0", "alpha_init_0", "beta_negative",
            "tau_above_1", "tau_below_0", "key_tau_above_1", "mode_random",
            "cure_mode_without_cure", "cure_mode_with_pretraining", "steps_negative",
            "init_steps_negative", "horizon_0", "pretrain_steps_negative",
            "pretrain_steps_0"])
    def test_validate_rejects_settings_that_crash_an_update(self, overrides, match):
        cfg = tiny_cfg()
        for key, value in overrides.items():
            set_by_path(cfg, key, value)
        with pytest.raises(ValueError, match=match):
            cfg.validate()

    def test_validate_accepts_run_lengths_at_their_bounds(self):
        """A run of no main steps, one of seeding steps only, and an unused
        ``pretrain.steps`` of 0 are valid (``tiny_cfg`` validates)."""
        tiny_cfg(steps=0)
        tiny_cfg(steps=0, **{"pretrain.mode": "random", "pretrain.steps": 1})
        tiny_cfg(steps=200, init_steps=200, **{"replay.capacity": 200})
        tiny_cfg(init_steps=0, **{"pretrain.steps": 0})

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["cure.beta", "critic.tau", "srl.lr", "actor.log_std"])
    def test_validate_rejects_non_finite_settings(self, key, value):
        cfg = tiny_cfg()
        set_by_path(cfg, key, [float(value), 2.0] if key == "actor.log_std" else value)
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            cfg.validate()

    def test_validate_rejects_cure_pretraining_without_cure(self):
        cfg = tiny_cfg(**{"pretrain.mode": "cure"})
        cfg.cure.enabled = False
        with pytest.raises(ValueError, match="pretrain.mode=cure"):
            cfg.validate()


class TestMetrics:
    def test_writer_reader_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.csv")
        agg = LossAggregator()
        agg.add("critic_loss_task", 1.0)
        agg.add("srl_loss", 2.0)
        for curious in (1, 0, 0, 0):
            agg.add("curious_fraction", curious)
        with MetricsWriter(path) as w:
            w.write_row("train", 10, 0, 3.5, agg.flush())
        rows = read_metrics(path)
        assert len(rows) == 1
        r = rows[0]
        assert r["kind"] == "train" and r["step"] == 10
        assert r["reward"] == 3.5
        assert r["critic_loss_task"] == 1.0
        assert r["curious_fraction"] == 0.25

    def test_reader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_metrics(str(path))

    def test_reader_rejects_short_row_with_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(COLUMNS) + "\ntrain,1,0\n")
        with pytest.raises(ValueError, match=":2"):
            read_metrics(str(path))

    def test_aggregator_flush_resets(self):
        agg = LossAggregator()
        agg.add("srl_loss", 2.0)
        agg.add("srl_loss", 4.0)
        first = agg.flush()
        assert first["srl_loss"] == 3.0
        assert agg.flush()["srl_loss"] == 0.0


def mixed_arrays():
    """One array of every stored dtype, plus 0-d, empty and strided inputs."""
    return {
        "f4": np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3),
        "f8": np.array([np.pi, -0.0, np.inf, 1e-300, -7.25]),
        "i8": np.array([[2**62, -1], [0, -2**63]], dtype=np.int64),
        "u1": np.arange(32, dtype=np.uint8).reshape(4, 4, 2),
        "scalar": np.array(3.5),
        "empty": np.zeros((0, 3), dtype=np.float32),
        "strided": np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2].T,
    }


class TestCheckpointFormat:
    def _save(self, tmp_path, arrays=None, meta=None, h="ab" * 32):
        path = str(tmp_path / "x.ckpt")
        ckpt.save(path, h, arrays or {"w": np.arange(4, dtype=np.float32)},
                  meta or {"phase": "main"})
        return path

    def test_roundtrip(self, tmp_path):
        path = self._save(tmp_path)
        arrays, meta, h = ckpt.load(path, expected_hash="ab" * 32)
        np.testing.assert_array_equal(arrays["w"], np.arange(4, dtype=np.float32))
        assert meta["phase"] == "main"

    def test_bad_magic_rejected(self, tmp_path):
        path = self._save(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[0] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ckpt.CheckpointError, match="magic"):
            ckpt.load(path)

    def test_truncation_rejected(self, tmp_path):
        path = self._save(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-5])
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load(path)

    def test_version_1_rejected(self, tmp_path):
        path = self._save(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[8:12] = struct.pack("<I", 1)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ckpt.CheckpointError, match="version 1, expected 5"):
            ckpt.load(path)

    def test_version_2_rejected(self, tmp_path):
        # version 2 had no loop mode entry and the old metrics keys
        path = self._save(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[8:12] = struct.pack("<I", 2)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ckpt.CheckpointError, match="version 2, expected 5"):
            ckpt.load(path)

    def test_version_3_rejected(self, tmp_path):
        # version 3 kept the environment state as JSON lists, its metadata flat
        path = self._save(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[8:12] = struct.pack("<I", 3)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ckpt.CheckpointError, match="version 3, expected 5"):
            ckpt.load(path)

    def test_version_4_rejected(self, tmp_path):
        # version 4 stored the replay buffer as full obs and next_obs stacks
        path = self._save(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[8:12] = struct.pack("<I", 4)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ckpt.CheckpointError, match="version 4, expected 5"):
            ckpt.load(path)

    def test_hash_mismatch_rejected(self, tmp_path):
        path = self._save(tmp_path)
        with pytest.raises(ckpt.CheckpointError, match="hash"):
            ckpt.load(path, expected_hash="cd" * 32)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = self._save(tmp_path)
        with open(path, "ab") as f:
            f.write(b"extra")
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load(path)

    def test_save_is_atomic(self, tmp_path):
        # a failing save must not clobber an existing good checkpoint
        path = self._save(tmp_path)
        good = open(path, "rb").read()
        with pytest.raises(Exception):
            ckpt.save(path, "ab" * 32, {"w": object()}, {})
        assert open(path, "rb").read() == good

    @pytest.mark.parametrize("dtype", [np.int32, np.bool_, np.float16])
    def test_unsupported_dtype_rejected(self, tmp_path, dtype):
        # an unlisted dtype is an error, not a silent cast to float32
        path = str(tmp_path / "x.ckpt")
        arrays = {"ok": np.zeros(2, dtype=np.float32), "bad": np.ones(3, dtype=dtype)}
        with pytest.raises(ckpt.CheckpointError, match=f"'bad'.*{np.dtype(dtype)}"):
            ckpt.save(path, "ab" * 32, arrays, {})
        assert os.listdir(tmp_path) == []

    def test_mixed_roundtrip_is_bitwise(self, tmp_path):
        src = mixed_arrays()
        arrays, _, _ = ckpt.load(self._save(tmp_path, src))
        assert sorted(arrays) == sorted(src)
        for name, a in src.items():
            out = arrays[name]
            assert out.dtype == a.dtype and out.shape == a.shape, name
            assert out.tobytes() == a.tobytes(), name
            assert out.flags.writeable and out.flags.c_contiguous, name
        for a, b in itertools.combinations(arrays.values(), 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("size_known", [True, False])
    def test_every_prefix_rejected(self, tmp_path, monkeypatch, size_known):
        path = self._save(tmp_path, mixed_arrays())
        blob = open(path, "rb").read()
        if not size_known:
            # report a larger file, so only the short-read checks can catch a cut
            real_fstat = os.fstat
            monkeypatch.setattr(ckpt.os, "fstat", lambda fd: types.SimpleNamespace(
                st_size=real_fstat(fd).st_size + len(blob)))
        for n in range(len(blob)):
            with open(path, "wb") as f:
                f.write(blob[:n])
            with pytest.raises(ckpt.CheckpointError, match="truncated"):
                ckpt.load(path)

    def test_corrupt_shape_rejected_before_allocating(self, tmp_path):
        path = self._save(tmp_path)
        blob = bytearray(open(path, "rb").read())
        dim = blob.index(b"w") + 3  # after the name and the dtype code and ndim bytes
        blob[dim:dim + 4] = struct.pack("<I", 2**32 - 1)  # a 16 GB float32 array
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ckpt.CheckpointError, match="truncated"):
            ckpt.load(path)

    @pytest.mark.parametrize("field,junk", [("metadata", b"{"), ("metadata", b"\xff"),
                                            ("array name", b"\xff")])
    def test_corrupt_text_rejected(self, tmp_path, field, junk):
        path = self._save(tmp_path, meta={"phase": "main"})
        blob = open(path, "rb").read()
        i = blob.index(b"w") if field == "array name" else len(blob) - 2
        open(path, "wb").write(blob[:i] + junk + blob[i + 1:])
        with pytest.raises(ckpt.CheckpointError, match=f"corrupt {field}"):
            ckpt.load(path)

    def test_layout_matches_documented_encoding(self, tmp_path):
        h = "cd" * 32
        a = np.array([[1.5, -2.0, 0.25]], dtype=np.float32)
        b = np.array([7, -8], dtype=np.int64)
        meta = {"z": [1, 2], "a": "x"}
        path = self._save(tmp_path, {"b": b, "a": a}, meta, h)
        meta_b = b'{"a": "x", "z": [1, 2]}'
        expected = (b"CURERLCK" + struct.pack("<I", 5)
                    + struct.pack("<H", 64) + h.encode()
                    + struct.pack("<I", 2)
                    + struct.pack("<H", 1) + b"a" + struct.pack("<BB", 0, 2)
                    + struct.pack("<II", 1, 3) + struct.pack("<3f", 1.5, -2.0, 0.25)
                    + struct.pack("<H", 1) + b"b" + struct.pack("<BB", 2, 1)
                    + struct.pack("<I", 2) + struct.pack("<2q", 7, -8)
                    + struct.pack("<Q", len(meta_b)) + meta_b)
        assert open(path, "rb").read() == expected

    def test_split_join_roundtrip(self, tmp_path):
        state = {"param": {"enc": np.arange(3, dtype=np.float32)},
                 "env": {"stack": np.zeros((2, 2), np.float32), "inner_step": 3,
                         "state": {"th": np.array([0.1, -2.0]), "x": 0.5}},
                 "trainer": {"phase": "main"}, "empty": {}}
        arrays, meta = ckpt.split(state)
        assert sorted(arrays) == ["env/stack", "env/state/th", "param/enc"]
        assert meta == {"param": {}, "env": {"inner_step": 3, "state": {"x": 0.5}},
                        "trainer": {"phase": "main"}, "empty": {}}
        out = ckpt.join(*ckpt.load(self._save(tmp_path, arrays, meta))[:2])
        assert out["env"]["state"]["th"].tobytes() == state["env"]["state"]["th"].tobytes()
        assert ckpt.split(out)[1] == meta
        assert sorted(ckpt.split(out)[0]) == sorted(arrays)
        assert ckpt.join(arrays, meta)["trainer"] is not meta["trainer"]

    def test_split_rejects_a_key_with_a_slash(self):
        with pytest.raises(ckpt.CheckpointError, match="'opt/a/b'"):
            ckpt.split({"opt": {"a/b": np.zeros(1)}})

    def test_load_holds_one_copy_of_the_arrays(self, tmp_path):
        payload = 32 * 2**20
        path = self._save(tmp_path, {"w": np.ones(payload // 4, dtype=np.float32)})
        tracemalloc.start()
        try:
            arrays, _, _ = ckpt.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arrays["w"].nbytes == payload
        assert peak < 1.5 * payload, f"load peaked at {peak / payload:.2f}x the payload"


class TestPlotting:
    def _write_csv(self, path, rows):
        with MetricsWriter(str(path)) as w:
            agg = LossAggregator()
            for step, reward in rows:
                w.write_row("eval", step, 0, reward, agg.flush())

    def test_envelope_ordering_on_synthetic_csvs(self, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"m{i}.csv"
            self._write_csv(p, [(s, float(i + s)) for s in (10, 20, 30)])
            paths.append(str(p))
        out = str(tmp_path / "plot.svg")
        steps, mean, lo, hi = plot_reward_curves(paths, out)
        assert steps == [10, 20, 30]
        for m, l, h in zip(mean, lo, hi):
            assert l <= m <= h
        ET.parse(out)  # well-formed XML

    def test_intersects_common_steps(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_csv(p1, [(10, 1.0), (20, 2.0)])
        self._write_csv(p2, [(20, 3.0), (30, 4.0)])
        steps, values = collect_series([str(p1), str(p2)])
        assert steps == [20]
        assert values == [[2.0], [3.0]]

    def test_no_common_steps_rejected(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_csv(p1, [(10, 1.0)])
        self._write_csv(p2, [(20, 2.0)])
        with pytest.raises(ValueError):
            collect_series([str(p1), str(p2)])


class TestTrainer:
    def test_short_run_produces_metrics_and_checkpoint(self, tmp_path):
        out = str(tmp_path / "run")
        train(tiny_cfg(), out)
        rows = read_metrics(os.path.join(out, "metrics.csv"))
        assert any(r["kind"] == "train" for r in rows)
        assert any(r["kind"] == "eval" for r in rows)
        assert os.path.exists(os.path.join(out, "checkpoint.ckpt"))

    @pytest.mark.parametrize("overrides,match", [
        ({"task": "nope"}, "unknown task"),
        ({"render_size": 12, "crop_size": 12}, "render size"),
        ({"task": "reacher_hard", "horizon": 41}, "multiple of action repeat"),
        ({"crop_size": 8}, "too small for the four-conv encoder")],
        ids=["task", "render_size", "horizon", "crop"])
    def test_refused_config_leaves_no_run_directory(self, tmp_path, overrides, match):
        """A config that passes ``validate()`` but that the env or the models
        refuse raises before the run directory is made."""
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=match):
            Trainer(tiny_cfg(**overrides), str(out))
        assert not out.exists()

    @pytest.mark.parametrize("head", ["rae", "contrastive"])
    def test_rerun_is_byte_identical(self, tmp_path, head):
        m = []
        for d in ("a", "b"):
            out = str(tmp_path / d)
            train(tiny_cfg(**{"srl.head": head}), out)
            m.append(open(os.path.join(out, "metrics.csv"), "rb").read())
        assert m[0] == m[1]

    @pytest.mark.parametrize("head", ["rae", "contrastive"])
    def test_run_survives_a_nonfinite_update_step(self, tmp_path, caplog, head):
        """One sampled batch with a NaN pixel: every update of that step is
        skipped with a warning, its SRL loss is logged as nan, and the run goes on."""
        cfg = tiny_cfg(steps=45, **{"srl.head": head, "eval.interval": 1000})
        bad_t = cfg.init_steps + 2     # the third sampled batch (an actor step)
        snaps = {}

        def hook(t, phase):
            if t == bad_t and phase in ("sample", PHASES[-1]):
                snaps[phase] = ({g.name: g.data.copy() for g in tr.param_groups()},
                                {n: opt.t for n, opt in tr._optimizers().items()})

        tr = Trainer(cfg, str(tmp_path), phase_hook=hook)
        sample, calls = tr.buffer.sample, []

        def poisoned(n, rng):
            batch = sample(n, rng)
            calls.append(n)
            if len(calls) == 3:
                batch.obs[0, 0, 10, 10] = np.nan   # inside every crop of the 20x20 render
            return batch

        tr.buffer.sample = poisoned
        with caplog.at_level("WARNING", logger="cure_rl"), np.errstate(invalid="ignore"):
            path = tr.run_main()
        (before, t_before), (after, t_after) = snaps["sample"], snaps[PHASES[-1]]
        moved = {n for n in before if not np.array_equal(before[n], after[n])}
        assert moved <= {"task.target", "cure.target", "key_encoder"}
        assert t_after == t_before
        rows = [r for r in read_metrics(path) if r["kind"] == "train"]
        bad_row = next(r for r in rows if r["step"] > bad_t)
        assert np.isnan(bad_row["srl_loss"]) and rows[-1]["step"] > bad_row["step"]
        assert not np.isnan(rows[-1]["srl_loss"])
        srl_msgs = [r.getMessage() for r in caplog.records if r.name == "cure_rl.srl"]
        assert srl_msgs == [f"srl: {head} update skipped: non-finite gradient"]

    # case -> (mode, overrides, encoder forwards per update step on (actor, other) steps)
    FORWARDS = {
        "mixed_rae": ("mixed", {}, (7, 6)),
        "mixed_rae_no_cure": ("mixed", {"cure.enabled": False}, (5, 4)),
        "cure": ("cure", {}, (5, 4)),
        "random": ("random", {}, (2, 2)),
        "random_no_cure": ("random", {"cure.enabled": False}, (1, 1)),
        "mixed_contrastive": ("mixed", {"srl.head": "contrastive"}, (8, 7)),
        "mixed_contrastive_no_cure": ("mixed", {"srl.head": "contrastive",
                                                "cure.enabled": False}, (5, 4)),
        "cure_contrastive": ("cure", {"srl.head": "contrastive"}, (6, 5)),
        "random_contrastive": ("random", {"srl.head": "contrastive"}, (2, 2)),
        "random_contrastive_no_cure": ("random", {"srl.head": "contrastive",
                                                  "cure.enabled": False}, (1, 1)),
    }

    @pytest.mark.parametrize("case", list(FORWARDS))
    def test_update_step_encodes_each_latent_once(self, tmp_path, monkeypatch, case):
        """Encoder forwards per update step, action selection included: one per
        (batch, encoder version), so a mixed RAE cure step makes 6, plus one
        for the curious actor on actor steps."""
        mode, overrides, (actor, other) = self.FORWARDS[case]
        cfg = tiny_cfg(**{"eval.interval": 1000}, **overrides)
        calls = [0]
        after_step = {}   # step -> encoder forwards so far, at its last phase hook

        def hook(t, phase):
            after_step[t] = calls[0]

        tr = Trainer(cfg, str(tmp_path), phase_hook=hook)
        forward = Encoder.__call__

        def counted(enc, obs, detach=False):
            if enc is tr.srl.encoder:
                calls[0] += 1
            return forward(enc, obs, detach)

        monkeypatch.setattr(Encoder, "__call__", counted)
        tr._run("main", mode, cfg.steps)
        steps = range(cfg.init_steps, cfg.steps)
        assert {t: after_step[t] - after_step[t - 1] for t in steps} == \
            {t: actor if t % cfg.actor.freq == 0 else other for t in steps}

    @pytest.mark.parametrize("mode,cure_enabled", [
        ("random", True), ("random", False), ("cure", True), ("mixed", True), ("mixed", False),
    ])  # cure mode acts with the curious agent, so it has no run without one
    def test_every_update_step_marks_every_phase(self, tmp_path, mode, cure_enabled):
        cfg = tiny_cfg(steps=16, **{"cure.enabled": cure_enabled})
        marks = {}
        tr = Trainer(cfg, str(tmp_path),
                     phase_hook=lambda t, phase: marks.setdefault(t, []).append(phase))
        tr._run("main", mode, cfg.steps)
        assert {t: tuple(marks[t]) for t in range(cfg.init_steps, cfg.steps)} == \
            dict.fromkeys(range(cfg.init_steps, cfg.steps), PHASES)

    @pytest.mark.parametrize("task", TASK_NAMES)
    def test_resume_matches_uninterrupted_run(self, tmp_path, task):
        full = str(tmp_path / "full")
        train(tiny_cfg(steps=50, task=task), full)
        split = str(tmp_path / "split")
        train(tiny_cfg(steps=25, task=task), split)
        train(tiny_cfg(steps=50, task=task), split,
              resume=os.path.join(split, "checkpoint.ckpt"))
        for name in ("metrics.csv", "checkpoint.ckpt"):
            assert (open(os.path.join(full, name), "rb").read()
                    == open(os.path.join(split, name), "rb").read()), name

    @pytest.mark.parametrize("split_at", [12, 25])
    def test_resume_of_a_wrapped_ring_matches_uninterrupted_run(self, tmp_path, split_at):
        """The replay ring (16 slots) wraps and 10-step episodes reset before
        and after the checkpoint; the resumed run writes the same files."""
        def cfg(steps):
            return tiny_cfg(steps=steps, **{"replay.capacity": 16})

        full, split = str(tmp_path / "full"), str(tmp_path / "split")
        done = train(cfg(50), full)
        assert done.episode == 5 and done.buffer.cursor == 50 % 16
        train(cfg(split_at), split)
        train(cfg(50), split, resume=os.path.join(split, "checkpoint.ckpt"))
        for name in ("metrics.csv", "checkpoint.ckpt"):
            assert (open(os.path.join(full, name), "rb").read()
                    == open(os.path.join(split, name), "rb").read()), name

    # a checkpoint casts the contrastive head's float64 bilinear weight (and
    # the float64 encoder state it spreads to) back to float32 on load
    RESUME_CAST = pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: float64 contrastive training does not survive a checkpoint"))

    @pytest.mark.parametrize("start,head,mode", [
        ("pretrain", "rae", "mixed"), ("main", "rae", "mixed"), ("main", "rae", "cure"),
        pytest.param("main", "contrastive", "mixed", marks=RESUME_CAST),
        pytest.param("main", "contrastive", "cure", marks=RESUME_CAST),
    ], ids=["pretrain", "main", "cure_only", "contrastive", "contrastive_cure_only"])
    def test_resume_after_a_killed_run_logs_each_row_once(self, tmp_path, start, head, mode):
        """A run resumed from a checkpoint (saved after pretraining, or at main
        step 30) dies at any later step in the same directory; resuming that
        checkpoint again rewrites the rows the dead run logged."""
        def cfg(steps=60):
            # a cure-mode run has no pretraining phase
            pretrain = "random" if mode == "mixed" else "none"
            return tiny_cfg(steps=steps, mode=mode, **{
                "srl.head": head, "pretrain.mode": pretrain, "pretrain.steps": 15})

        full, base = str(tmp_path / "full"), str(tmp_path / "base")
        train(cfg(), full)
        train(cfg(0 if start == "pretrain" else 30), base)
        os.rename(os.path.join(base, "checkpoint.ckpt"), os.path.join(base, "resume.ckpt"))

        # no shrinking, so a failing (strict-xfail) case stops at its first example
        @settings(max_examples=2, deadline=None, database=None, phases=[Phase.generate])
        @given(kill=st.integers(0 if start == "pretrain" else 30, 59))
        def killed_then_resumed(kill):
            split = str(tmp_path / f"split_{kill}")
            shutil.rmtree(split, ignore_errors=True)
            shutil.copytree(base, split)
            path = os.path.join(split, "resume.ckpt")

            def die(t, phase):
                if t == kill:
                    raise RuntimeError("killed")

            with pytest.raises(RuntimeError, match=f"main step {kill}"):
                train(cfg(), split, resume=path, phase_hook=die)
            train(cfg(), split, resume=path)
            for name in ("metrics.csv", "pretrain_metrics.csv", "checkpoint.ckpt"):
                a, b = (os.path.join(d, name) for d in (full, split))
                assert os.path.exists(a) == os.path.exists(b), name
                if os.path.exists(a):
                    assert open(a, "rb").read() == open(b, "rb").read(), name
            lines = [len(open(os.path.join(d, "metrics.csv.time")).readlines())
                     for d in (full, split)]
            assert lines[0] == lines[1] == len(read_metrics(os.path.join(full, "metrics.csv")))

        killed_then_resumed()

    @pytest.mark.parametrize("name", ["metrics.csv", "metrics.csv.time"])
    def test_resume_with_metrics_rows_missing_raises(self, tmp_path, name):
        """A resume refused for its metrics rows changes no file, also when
        the run logged rows past the checkpoint that a resume would cut off."""
        out = str(tmp_path)
        train(tiny_cfg(steps=25), out)
        saved = os.path.join(out, "resume.ckpt")
        os.rename(os.path.join(out, "checkpoint.ckpt"), saved)
        path = os.path.join(out, name)
        kept = len(open(path).readlines()) - 1
        train(tiny_cfg(steps=50), out, resume=saved)
        lines = open(path).readlines()
        open(path, "w").writelines(lines[:kept])
        files = ("config.txt", "metrics.csv", "metrics.csv.time")
        before = {f: open(os.path.join(out, f), "rb").read() for f in files}
        with pytest.raises(ckpt.CheckpointError, match=name.replace(".", r"\.")):
            train(tiny_cfg(steps=75), out, resume=saved)
        assert {f: open(os.path.join(out, f), "rb").read() for f in files} == before

    def test_cure_only_resume_matches_uninterrupted_run(self, tmp_path):
        full = str(tmp_path / "full")
        train(tiny_cfg(steps=50, mode="cure"), full)
        split = str(tmp_path / "split")
        train(tiny_cfg(steps=25, mode="cure"), split)
        train(tiny_cfg(steps=50, mode="cure"), split,
              resume=os.path.join(split, "checkpoint.ckpt"))
        for name in ("metrics.csv", "checkpoint.ckpt"):
            assert (open(os.path.join(full, name), "rb").read()
                    == open(os.path.join(split, name), "rb").read()), name

    def test_cure_only_resume_from_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            train(tiny_cfg(mode="cure"), str(tmp_path), resume=str(tmp_path / "missing.ckpt"))
        assert not os.path.exists(tmp_path / "metrics.csv")

    def test_seeding_is_random_and_only_mixed_mode_draws_the_mix(self, tmp_path):
        cfg = tiny_cfg()
        tr = Trainer(cfg, str(tmp_path))
        tr.obs = tr.env.reset()
        mix = tr.streams["mix"].bit_generator

        def sources(mode, steps):
            before = mix.state
            out = {tr._select_action(t, mode)[1] for t in steps}
            return out, mix.state != before

        seeding = range(cfg.init_steps)
        after = range(cfg.init_steps, cfg.init_steps + 20)
        for mode in ("random", "cure", "mixed"):
            assert sources(mode, seeding) == ({ActionSource.RANDOM}, False), mode
        assert sources("random", after) == ({ActionSource.RANDOM}, False)
        assert sources("cure", after) == ({ActionSource.CURIOUS}, False)
        assert sources("mixed", after)[1]

    def test_evaluation_never_touches_buffer_or_streams(self, tmp_path):
        cfg = tiny_cfg()
        tr = Trainer(cfg, str(tmp_path))
        tr.obs = tr.env.reset()
        from cure_rl.metrics import MetricsWriter as MW
        w = MW(os.path.join(str(tmp_path), "m.csv"))
        for t in range(15):
            tr._step_once(t, "mixed", w)
        n = len(tr.buffer)
        state_before = {k: tr.streams[k].bit_generator.state
                        for k in ("explore", "task_actor", "mix", "replay", "crop")}
        tr.evaluate(episodes=1)
        assert len(tr.buffer) == n
        for k, s in state_before.items():
            assert tr.streams[k].bit_generator.state == s

    @pytest.mark.parametrize("episodes", [0, -1])
    def test_evaluate_rejects_fewer_than_one_episode(self, tmp_path, episodes):
        tr = Trainer(tiny_cfg(**{"eval.episodes": 3}), str(tmp_path))
        with pytest.raises(ValueError, match="episodes"):
            tr.evaluate(episodes=episodes)
        assert tr.eval_count == 0

    def test_training_error_names_phase_and_step(self, tmp_path):
        cfg = tiny_cfg()
        tr = Trainer(cfg, str(tmp_path))

        def boom(*a, **kw):
            raise RuntimeError("synthetic failure")

        tr.srl.update = boom
        with pytest.raises(RuntimeError, match="main step"):
            tr.run_main()

    @pytest.mark.parametrize("head", ["rae", "contrastive"])
    def test_params_stay_views_of_their_group(self, tmp_path, head):
        def assert_views(tr):
            for g in tr.param_groups():
                for p in g.params.values():
                    assert np.shares_memory(p.data, g.data), f"{g.name}: detached tensor"

        cfg = tiny_cfg(steps=12, **{"srl.head": head})
        tr = Trainer(cfg, str(tmp_path))
        tr.run_main()
        assert tr.task_agent.critic_opt.t > 0 and tr.srl.opt.t > 0
        assert_views(tr)
        path = tr.save_checkpoint()
        tr2 = Trainer(cfg, str(tmp_path))
        tr2.load_checkpoint(path)
        assert_views(tr2)

    @pytest.mark.parametrize("phase,kill", [("pretrain", 47), ("main", 45)])
    def test_killed_run_resumes_from_its_own_checkpoint(self, tmp_path, phase, kill):
        """A run saves ``checkpoint.ckpt`` every ``eval.interval`` (20) steps of
        each phase; killed in either phase, it resumes from the last one to the
        bytes of an uninterrupted run."""
        cfg = tiny_cfg(steps=60, **{"pretrain.mode": "random", "pretrain.steps": 60})
        full, split = str(tmp_path / "full"), str(tmp_path / "split")
        train(cfg, full)
        seen = []

        def die(t, step_phase):
            if t == kill and step_phase == "select":
                seen.append(t)   # the main phase reaches step ``kill`` second
                if len(seen) == ("pretrain", "main").index(phase) + 1:
                    raise RuntimeError("killed")

        with pytest.raises(RuntimeError, match=f"{phase} step {kill}"):
            train(cfg, split, phase_hook=die)
        path = os.path.join(split, "checkpoint.ckpt")
        saved = ckpt.load(path)[1]["trainer"]
        assert (saved["phase"], saved["phase_t"]) == (phase, 40)
        train(cfg, split, resume=path)
        for name in ("pretrain_metrics.csv", "metrics.csv", "checkpoint.ckpt"):
            assert (open(os.path.join(full, name), "rb").read()
                    == open(os.path.join(split, name), "rb").read()), name

    @pytest.mark.parametrize("saved_in_cure", [False, True])
    def test_resume_in_another_mode_rejected(self, tmp_path, saved_in_cure):
        """The config hash covers the mode, so its check refuses the resume."""
        out = str(tmp_path)
        saved, other = ("cure", "mixed") if saved_in_cure else ("mixed", "cure")
        train(tiny_cfg(steps=15, mode=saved), out)
        with pytest.raises(ckpt.CheckpointError, match="config hash mismatch"):
            train(tiny_cfg(steps=30, mode=other), out,
                  resume=os.path.join(out, "checkpoint.ckpt"))

    @pytest.mark.parametrize("pretrain", ["none", "random", "cure"])
    def test_resume_from_pretraining_matches_uninterrupted_run(self, tmp_path, pretrain):
        """A ``steps=0`` run (``cure-rl train --steps 0``) pretrains, if its
        config says so, and saves a checkpoint at step 0 of the main phase;
        resumed with more steps, it writes the files of an uninterrupted run."""
        def cfg(steps):
            return tiny_cfg(steps=steps, **{"pretrain.mode": pretrain, "pretrain.steps": 15})

        full, split = str(tmp_path / "full"), str(tmp_path / "split")
        train(cfg(30), full)
        train(cfg(0), split)
        path = os.path.join(split, "checkpoint.ckpt")
        meta = ckpt.load(path)[1]
        assert (meta["trainer"]["phase"], meta["trainer"]["phase_t"]) == ("main", 0)
        # the main phase starts with no pretraining losses pending
        assert not any(meta["agg"]["counts"].values()), meta["agg"]["counts"]
        train(cfg(30), split, resume=path)
        logs = ["pretrain_metrics.csv"] if pretrain != "none" else []
        for name in ["metrics.csv", "checkpoint.ckpt", *logs]:
            assert (open(os.path.join(full, name), "rb").read()
                    == open(os.path.join(split, name), "rb").read()), name

    @pytest.mark.parametrize("head", ["rae", "contrastive"])
    @pytest.mark.parametrize("mode", ["random", "cure", "mixed"])
    def test_update_leaves_no_gradient(self, tmp_path, head, mode):
        cfg = tiny_cfg(**{"srl.head": head})
        tr = Trainer(cfg, str(tmp_path))
        tr.obs = tr.env.reset()
        with MetricsWriter(str(tmp_path / "m.csv")) as w:
            for t in range(cfg.init_steps):
                tr._step_once(t, mode, w)
        tr._update(cfg.init_steps, tr.buffer.sample(cfg.batch_size, tr.streams["replay"]), mode)
        stepped = [tr.srl.opt]
        if mode == "mixed":
            stepped.append(tr.task_agent.actor_opt)
        if mode != "random":
            stepped += [tr.curious_agent.critic_opt, tr.curious_agent.alpha_opt]
        assert all(opt.t == 1 for opt in stepped)
        assert [n for g in tr.param_groups() for n, p in g.params.items()
                if p.grad is not None] == []

    def test_pretraining_writes_separate_metrics(self, tmp_path):
        cfg = tiny_cfg(**{"pretrain.mode": "cure", "pretrain.steps": 15})
        out = str(tmp_path / "run")
        train(cfg, out)
        pre = read_metrics(os.path.join(out, "pretrain_metrics.csv"))
        assert pre and all(r["kind"] == "train" for r in pre)
        assert os.path.exists(os.path.join(out, "metrics.csv"))


class TestCompareRuns:
    SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "compare_runs.py")

    def run_tool(self, a, b):
        return subprocess.run([sys.executable, self.SCRIPT, a, b],
                              capture_output=True, text=True, timeout=120)

    def test_same_seed_identical_other_seed_differs(self, tmp_path):
        dirs = {}
        for name, seed in (("a", 1), ("b", 1), ("c", 2)):
            dirs[name] = str(tmp_path / name)
            train(tiny_cfg(seed=seed, **{"pretrain.mode": "random", "pretrain.steps": 15}),
                  dirs[name])
        same = self.run_tool(dirs["a"], dirs["b"])
        assert same.returncode == 0, same.stdout + same.stderr
        assert "metrics.csv: identical" in same.stdout
        assert "pretrain_metrics.csv: identical" in same.stdout
        assert "arrays, 0 differ;" in same.stdout and "meta entries, 0 differ;" in same.stdout

        other = self.run_tool(dirs["a"], dirs["c"])
        assert other.returncode == 1, other.stdout + other.stderr
        assert "metrics.csv: differs" in other.stdout
        assert "first differing row 2:" in other.stdout   # row 1 has no update yet
        assert "srl_loss: 2 rows differ, largest relative difference" in other.stdout
        assert "arrays, 0 differ;" not in other.stdout

    def test_visitation_csv_compared(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        rows = "policy,min,mean,max\nrandom,0.1,0.2,0.3\ntask,0.1,0.15,0.2\ncure,0.2,0.4,0.9\n"
        for d in (a, b):
            d.mkdir()
            (d / "visitation.csv").write_text(rows)
        same = self.run_tool(str(a), str(b))
        assert same.returncode == 0, same.stdout + same.stderr
        assert "visitation.csv: identical" in same.stdout

        (b / "visitation.csv").write_text(rows.replace("0.4", "0.5"))
        other = self.run_tool(str(a), str(b))
        assert other.returncode == 1, other.stdout + other.stderr
        assert "visitation.csv: differs" in other.stdout
        assert "first differing row 3:" in other.stdout
        assert "mean: 1 rows differ, largest relative difference 0.2" in other.stdout

    def test_csv_columns_compared_by_name_when_headers_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        (a / "visitation.csv").write_text(
            "policy,min,mean,max\nrandom,0.1,0.2,0.3\ncure,0.2,0.4,0.9\n")
        (b / "visitation.csv").write_text(
            "policy,min,spread,mean,max\nrandom,0.1,0.2,0.2,0.3\ncure,0.2,0.7,0.4,0.9\n")
        out = self.run_tool(str(a), str(b))
        assert out.returncode == 1, out.stdout + out.stderr
        assert "visitation.csv: differs" in out.stdout
        assert "columns only in B: spread" in out.stdout
        assert "only in A" not in out.stdout
        assert "rows differ" not in out.stdout and "first differing row" not in out.stdout

    def test_against_a_revision(self, tmp_path, monkeypatch, capsys):
        """``--against REV`` on a one-run set whose job is a run and its
        resume: a revision equal to the working tree gives identical runs, and
        one changed default in the working tree gives a difference."""
        spec = importlib.util.spec_from_file_location("compare_runs", self.SCRIPT)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        repo = tmp_path / "repo"
        for d in ("src", "configs"):
            shutil.copytree(os.path.join(REPO, d), repo / d,
                            ignore=shutil.ignore_patterns("__pycache__"))
        git = ["git", "-C", str(repo), "-c", "user.name=test", "-c", "user.email=test@example.com"]
        for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "tree"]):
            subprocess.run(git + args, check=True, capture_output=True)
        sets = ("init_steps=10", "batch_size=8", "hidden_dim=32", "render_size=20",
                "crop_size=16", "horizon=40", "srl.z_dim=16", "replay.capacity=200",
                "eval.interval=20", "eval.episodes=1")
        monkeypatch.setattr(tool, "ROOT", str(repo))

        def run(steps, *extra):
            return ("train", "--task", "point_reacher", "--steps", str(steps),
                    *(a for s in sets for a in ("--set", s)), *extra)
        commands = [run(20), run(30, "--resume", os.path.join("{out}", CHECKPOINT_FILE))]
        monkeypatch.setattr(tool, "JOBS", [("tiny", commands)])

        # both commands run, in one run directory: the second resumes at step 20
        assert tool.run_job(str(repo), str(tmp_path / "runs"), "tiny", commands)[0] == 0
        arrays, meta, _ = ckpt.load(str(tmp_path / "runs" / "tiny" / CHECKPOINT_FILE))
        assert ckpt.join(arrays, meta)["trainer"]["phase_t"] == 30
        failing = commands[:1] + [run(30, "--resume", "missing.ckpt")]
        assert tool.run_job(str(repo), str(tmp_path / "bad"), "tiny", failing)[0] != 0

        assert tool.main(["--against", "HEAD"]) == 0
        out = capsys.readouterr().out
        assert "tiny: identical" in out and "metrics.csv: identical" in out
        assert "arrays, 0 differ;" in out and "config hash same" in out

        config = repo / "src" / "cure_rl" / "config.py"
        source = config.read_text()
        assert "lambda_z: float = 1e-6" in source
        config.write_text(source.replace("lambda_z: float = 1e-6", "lambda_z: float = 1e-3"))
        assert tool.main(["--against", "HEAD"]) == 1
        out = capsys.readouterr().out
        assert "tiny: differs" in out and "metrics.csv: differs" in out
        assert "config hash differs" in out
        assert subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                              text=True).stdout.split() == ["M", "src/cure_rl/config.py"]

    def test_unloadable_checkpoint_reported_as_difference(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        train(tiny_cfg(), a)
        shutil.copytree(a, b)
        path = os.path.join(b, "checkpoint.ckpt")
        blob = bytearray(open(path, "rb").read())
        blob[8:12] = struct.pack("<I", 1)
        open(path, "wb").write(bytes(blob))
        out = self.run_tool(a, b)
        assert out.returncode == 1, out.stdout + out.stderr
        assert "metrics.csv: identical" in out.stdout
        assert "checkpoint.ckpt: cannot compare:" in out.stdout
        assert "format version 1, expected 5" in out.stdout


class TestRunExperiments:
    def test_killed_job_resumes_on_rerun(self, tmp_path, monkeypatch):
        """A job killed after a periodic checkpoint is not done; run again, it
        resumes from that checkpoint to the files of an uninterrupted run."""
        def cfg(name):
            return tiny_cfg(steps=60, out=str(tmp_path / name),
                            **{"pretrain.mode": "random", "pretrain.steps": 30})

        full, job = cfg("full"), cfg("job")
        battery.run("full", full)
        assert battery.done(full)

        calls = []

        def spy(c, resume=None, kill=None):
            steps = []
            calls.append((resume, steps))

            def hook(t, phase):
                steps.append(t)
                if t == kill:   # pretraining runs 30 steps, so this is a main step
                    raise RuntimeError("killed")
            return train(c, resume=resume, phase_hook=hook)

        monkeypatch.setattr(battery, "train", lambda c, resume=None: spy(c, resume, kill=45))
        with pytest.raises(RuntimeError, match="main step 45"):
            battery.run("job", job)
        assert os.path.exists(os.path.join(job.out, "checkpoint.ckpt"))
        assert not battery.done(job)

        monkeypatch.setattr(battery, "train", spy)
        battery.run("job", job)
        resume, steps = calls[-1]
        assert resume == os.path.join(job.out, "checkpoint.ckpt") and steps[0] == 40
        assert battery.done(job)
        for name in ("pretrain_metrics.csv", "metrics.csv", "checkpoint.ckpt"):
            assert (open(os.path.join(full.out, name), "rb").read()
                    == open(os.path.join(job.out, name), "rb").read()), name

        battery.run("job", job)
        assert len(calls) == 2   # a complete job is skipped

    @pytest.fixture(scope="class")
    def dry_root(self, tmp_path_factory):
        """A dry run of the battery into a root whose visitation.csv is stale."""
        root = str(tmp_path_factory.mktemp("battery"))
        stale = os.path.join(root, battery.VISITATION_CSV)
        os.makedirs(os.path.dirname(stale))
        with open(stale, "w") as f:
            f.write("policy,min,mean,max\nrandom,1,1,1\ntask,1,1,1\ncure,9,9,9\n")
        battery.dry_run(root)
        return root

    def test_dry_run_gives_every_criterion_its_numbers(self, dry_root):
        """Every file criteria 5-8 read exists, and each reader returns finite
        numbers of the shape its criterion compares; the orderings are not judged."""
        for criterion in battery.CRITERIA:
            for path in battery.criterion_files(criterion):
                assert os.path.isfile(os.path.join(dry_root, path)), path
        means = battery.visitation_means(dry_root)
        assert set(means) == {"random", "task", "cure"}
        assert all(np.isfinite(v) for v in means.values()), means
        for group in ("reacher_hard", "reacher_hard_contrastive"):
            rewards = battery.arm_rewards(dry_root, group)
            assert set(rewards) == {"base", "cure"}
            for arm, values in rewards.items():
                assert values.shape == (3,) and np.all(np.isfinite(values)), (group, arm)
        rewards = battery.pretrain_rewards(dry_root)
        assert set(rewards) == {"random", "cure"}
        assert all(np.isfinite(v) for v in rewards.values()), rewards

    def test_scoring_replaces_a_stale_visitation_csv(self, dry_root):
        means = battery.visitation_means(dry_root)
        assert means != {"random": 1.0, "task": 1.0, "cure": 9.0}, means

    @pytest.mark.parametrize("defect", ["short", "no_checkpoint", "refused_checkpoint"])
    def test_incomplete_run_is_named(self, dry_root, tmp_path, defect):
        """A run whose metrics.csv exists but whose checkpoint stops short of
        its last step, is missing or belongs to another run is not done; the
        other runs of its group are."""
        root = str(tmp_path / "root")
        shutil.copytree(dry_root, root)
        for group in battery.GROUPS:
            assert battery.incomplete_runs(root, group, battery.TINY) == [], group
        run = next(r for r in battery.RUNS if r.path == "reacher_hard/base_s2")
        path = os.path.join(root, run.path, CHECKPOINT_FILE)
        if defect == "short":   # main step 100 of the dry run's 150
            train(battery.run_cfg(run, root, {**battery.TINY, "steps": 100}))
        else:
            os.remove(path)
        if defect == "refused_checkpoint":
            shutil.copy(os.path.join(root, "reacher_hard", "cure_s2", CHECKPOINT_FILE), path)
        assert os.path.exists(os.path.join(root, run.path, "metrics.csv"))
        assert battery.incomplete_runs(root, "reacher_hard", battery.TINY) == [
            "reacher_hard/base_s2"]
        assert battery.incomplete_runs(root, "pretrain", battery.TINY) == []


def quick_start_commands() -> list:
    """The ``cure-rl`` commands of README's Quick start, as argument lists."""
    readme = open(os.path.join(REPO, "README.md")).read()
    block = readme.split("## Quick start", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cure-rl ")]


class TestCli:
    TINY = ["--task", "point_reacher", "--seed", "2", "--steps", "20",
            "--set", "batch_size=8", "--set", "hidden_dim=32",
            "--set", "init_steps=10", "--set", "render_size=20",
            "--set", "crop_size=16", "--set", "horizon=40",
            "--set", "srl.z_dim=16", "--set", "replay.capacity=200",
            "--set", "eval.interval=10", "--set", "eval.episodes=1"]

    def test_gradcheck_subcommand_passes(self, capsys):
        assert cli_main(["gradcheck", "--tol", "1e-4"]) == 0

    def test_refused_resume_leaves_config_txt_alone(self, tmp_path):
        out = str(tmp_path / "run")
        cli_main(["train", *self.TINY, "--out", out])
        path = os.path.join(out, "config.txt")
        before = open(path, "rb").read()
        with pytest.raises(ckpt.CheckpointError, match="config hash mismatch"):
            cli_main(["train", *self.TINY, "--steps", "30", "--set", "cure.beta=5",
                      "--resume", os.path.join(out, "checkpoint.ckpt"), "--out", out])
        assert open(path, "rb").read() == before

    def test_run_reproduces_itself_from_its_config_txt(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        cli_main(["train", *self.TINY, "--set", "mode=cure", "--out", a])
        cli_main(["train", "--config", os.path.join(a, "config.txt"), "--out", b])
        assert "mode=\"cure\"\n" in open(os.path.join(b, "config.txt")).read()
        assert (open(os.path.join(a, "metrics.csv"), "rb").read()
                == open(os.path.join(b, "metrics.csv"), "rb").read())

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(REPO, "configs", "*.txt"))),
                             ids=os.path.basename)
    def test_shipped_config_loads_and_validates(self, path):
        load_config(path).validate()

    @pytest.mark.parametrize("argv", quick_start_commands(),
                             ids=lambda argv: f"{argv[0]}:{argv[-1]}")
    def test_readme_quick_start_command_parses(self, monkeypatch, argv):
        monkeypatch.chdir(REPO)
        args = make_parser().parse_args(argv)
        if args.command == "train":
            build_config(args)

    def test_train_subcommand_with_overrides(self, tmp_path):
        out = str(tmp_path / "run")
        rc = cli_main([
            "train", "--task", "point_reacher", "--seed", "2", "--steps", "20",
            "--set", "batch_size=8", "--set", "hidden_dim=32",
            "--set", "init_steps=10", "--set", "render_size=20",
            "--set", "crop_size=16", "--set", "horizon=40",
            "--set", "srl.z_dim=16", "--set", "replay.capacity=200",
            "--set", "eval.interval=20", "--set", "eval.episodes=1",
            "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "config.txt"))

    def test_plot_subcommand(self, tmp_path):
        out = str(tmp_path / "run")
        cli_main([
            "train", "--task", "point_reacher", "--seed", "2", "--steps", "20",
            "--set", "batch_size=8", "--set", "hidden_dim=32",
            "--set", "init_steps=10", "--set", "render_size=20",
            "--set", "crop_size=16", "--set", "horizon=40",
            "--set", "srl.z_dim=16", "--set", "replay.capacity=200",
            "--set", "eval.interval=10", "--set", "eval.episodes=1",
            "--out", out])
        svg = str(tmp_path / "r.svg")
        assert cli_main(["plot", os.path.join(out, "metrics.csv"),
                         "--out", svg]) == 0
        ET.parse(svg)

    @pytest.mark.parametrize("column", ["nope", "kind"])
    def test_plot_rejects_a_column_that_is_not_a_metric(self, tmp_path, column):
        with pytest.raises(SystemExit) as e:
            cli_main(["plot", str(tmp_path / "metrics.csv"), "--out",
                      str(tmp_path / "r.svg"), "--column", column])
        assert e.value.code == 2


@settings(max_examples=10, deadline=None)
@given(vals=st.lists(st.floats(-100, 100), min_size=1, max_size=8))
def test_metric_floats_roundtrip_through_csv(tmp_path_factory, vals):
    tmp = tmp_path_factory.mktemp("csv")
    path = str(tmp / "m.csv")
    agg = LossAggregator()
    with MetricsWriter(path) as w:
        for i, v in enumerate(vals):
            w.write_row("train", i, 0, float(np.float32(v)), agg.flush())
    rows = read_metrics(path)
    got = [r["reward"] for r in rows]
    np.testing.assert_allclose(got, [float(np.float32(v)) for v in vals],
                               rtol=1e-6, atol=1e-6)


def test_package_does_not_shadow_the_train_module():
    import cure_rl.train as T
    assert isinstance(T, types.ModuleType) and T.Trainer is Trainer
