"""Experiment harness: config, metrics, checkpoints, plotting, CLI, trainer."""

import itertools
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cure_rl import checkpoint as ckpt
from cure_rl.cli import build_config, make_parser
from cure_rl.cli import main as cli_main
from cure_rl.config import (ExperimentConfig, config_hash, flatten, load_config,
                            save_config, set_by_path)
from cure_rl.cure import ActionSource
from cure_rl.metrics import COLUMNS, LossAggregator, MetricsWriter, read_metrics
from cure_rl.plotting import collect_series, plot_reward_curves
from cure_rl.srl import Encoder
from cure_rl.train import Trainer, train


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
        with pytest.raises(ckpt.CheckpointError, match="version 1, expected 3"):
            ckpt.load(path)

    def test_version_2_rejected(self, tmp_path):
        # version 2 had no loop mode entry and the old metrics keys
        path = self._save(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[8:12] = struct.pack("<I", 2)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ckpt.CheckpointError, match="version 2, expected 3"):
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
        expected = (b"CURERLCK" + struct.pack("<I", 3)
                    + struct.pack("<H", 64) + h.encode()
                    + struct.pack("<I", 2)
                    + struct.pack("<H", 1) + b"a" + struct.pack("<BB", 0, 2)
                    + struct.pack("<II", 1, 3) + struct.pack("<3f", 1.5, -2.0, 0.25)
                    + struct.pack("<H", 1) + b"b" + struct.pack("<BB", 2, 1)
                    + struct.pack("<I", 2) + struct.pack("<2q", 7, -8)
                    + struct.pack("<Q", len(meta_b)) + meta_b)
        assert open(path, "rb").read() == expected

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

    @pytest.mark.parametrize("head", ["rae", "contrastive"])
    def test_rerun_is_byte_identical(self, tmp_path, head):
        m = []
        for d in ("a", "b"):
            out = str(tmp_path / d)
            train(tiny_cfg(**{"srl.head": head}), out)
            m.append(open(os.path.join(out, "metrics.csv"), "rb").read())
        assert m[0] == m[1]

    def test_update_step_encodes_each_latent_once(self, tmp_path, monkeypatch):
        """Encoder forwards per update step, action selection included: one per
        (batch, encoder version), so an RAE cure step makes 6, plus one for
        the curious actor on actor steps."""
        cfg = tiny_cfg(**{"eval.interval": 1000})
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
        tr.run_main()
        steps = range(cfg.init_steps, cfg.steps)
        assert {t: after_step[t] - after_step[t - 1] for t in steps} == \
            {t: 7 if t % cfg.actor.freq == 0 else 6 for t in steps}

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        full = str(tmp_path / "full")
        train(tiny_cfg(steps=50), full)
        split = str(tmp_path / "split")
        train(tiny_cfg(steps=25), split)
        train(tiny_cfg(steps=50), split,
              resume=os.path.join(split, "checkpoint.ckpt"))
        assert (open(os.path.join(full, "metrics.csv"), "rb").read()
                == open(os.path.join(split, "metrics.csv"), "rb").read())

    def test_cure_only_resume_matches_uninterrupted_run(self, tmp_path):
        full = str(tmp_path / "full")
        train(tiny_cfg(steps=50), full, cure_only=True)
        split = str(tmp_path / "split")
        train(tiny_cfg(steps=25), split, cure_only=True)
        train(tiny_cfg(steps=50), split, cure_only=True,
              resume=os.path.join(split, "checkpoint.ckpt"))
        for name in ("metrics.csv", "checkpoint.ckpt"):
            assert (open(os.path.join(full, name), "rb").read()
                    == open(os.path.join(split, name), "rb").read()), name

    def test_cure_only_resume_from_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            train(tiny_cfg(), str(tmp_path), cure_only=True,
                  resume=str(tmp_path / "missing.ckpt"))
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

    def test_resume_from_pretrain_checkpoint_rejected(self, tmp_path):
        cfg = tiny_cfg(**{"pretrain.mode": "random", "pretrain.steps": 15})
        tr = Trainer(cfg, str(tmp_path))
        tr.phase = "pretrain"
        path = tr.save_checkpoint(os.path.join(str(tmp_path), "pre.ckpt"))
        with pytest.raises(ckpt.CheckpointError, match="main"):
            train(cfg, str(tmp_path), resume=path)

    @pytest.mark.parametrize("saved_cure_only", [False, True])
    def test_resume_in_another_mode_rejected(self, tmp_path, saved_cure_only):
        out = str(tmp_path)
        train(tiny_cfg(steps=15), out, cure_only=saved_cure_only)
        saved, other = ("cure", "mixed") if saved_cure_only else ("mixed", "cure")
        with pytest.raises(ckpt.CheckpointError, match=f"'{saved}' mode.*'{other}' mode"):
            train(tiny_cfg(steps=30), out, cure_only=not saved_cure_only,
                  resume=os.path.join(out, "checkpoint.ckpt"))

    @pytest.mark.parametrize("pretrain", ["random", "cure"])
    def test_resume_from_pretraining_matches_uninterrupted_run(self, tmp_path, pretrain):
        """The checkpoint ``cure-rl pretrain`` writes resumes into the main phase."""
        def cfg():
            return tiny_cfg(steps=30, **{"pretrain.mode": pretrain, "pretrain.steps": 15})

        full, split = str(tmp_path / "full"), str(tmp_path / "split")
        train(cfg(), full)
        tr = Trainer(cfg(), split)
        tr.run_pretrain()
        train(cfg(), split, resume=tr.save_checkpoint(os.path.join(split, "pretrain.ckpt")))
        for name in ("metrics.csv", "pretrain_metrics.csv", "checkpoint.ckpt"):
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
        assert "first differing row 1:" in other.stdout
        assert "srl_loss: 3 rows differ, largest relative difference" in other.stdout
        assert "arrays, 0 differ;" not in other.stdout

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
        assert "format version 1, expected 3" in out.stdout


class TestCli:
    def test_gradcheck_subcommand_passes(self, capsys):
        assert cli_main(["gradcheck", "--tol", "1e-4"]) == 0

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
