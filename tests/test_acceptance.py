"""Acceptance criteria for the full framework.

Criteria 1-4, 9 and 10 run from scratch in seconds to minutes. Criteria 5-8
judge the desk-scale battery that scripts/run_experiments.py writes into
results/; they read it through ``cure_rl.battery``, which defines its runs and
layout, and skip when its files are absent or (criteria 6-8) a run of the
group is not done under its checkpoint, naming them and the command that
writes them.
"""

import os
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cure_rl import battery, checkpoint as ckpt
from cure_rl.config import ExperimentConfig, SrlConfig, set_by_path
from cure_rl.diagnostics import gradient_suite
from cure_rl.metrics import read_metrics
from cure_rl.plotting import plot_reward_curves
from cure_rl.replay import ReplayBuffer
from cure_rl.srl import SrlModel
from cure_rl.train import PHASES, Trainer, train


def small_cfg(**kw):
    cfg = ExperimentConfig()
    cfg.task = "point_reacher"
    cfg.seed = 7
    cfg.batch_size = 8
    cfg.hidden_dim = 32
    cfg.render_size = 20
    cfg.crop_size = 16
    cfg.horizon = 40
    cfg.init_steps = 100
    cfg.srl.z_dim = 16
    cfg.replay.capacity = 2000
    cfg.eval.interval = 500
    cfg.eval.episodes = 1
    for k, v in kw.items():
        set_by_path(cfg, k, v)
    cfg.validate()
    return cfg


def need_artifacts(criterion: int):
    """Skip unless the criterion's files exist and, for criteria 6-8, every run
    of its group is done under its checkpoint."""
    group = battery.CRITERIA[criterion]
    missing = [p for p in battery.criterion_files(criterion)
               if not os.path.exists(os.path.join(battery.RESULTS, p))]
    incomplete = [] if criterion == 5 else battery.incomplete_runs(battery.RESULTS, group)
    reasons = [f"{what}: {', '.join(items)}" for what, items in (
        ("missing experiment artifacts under results/", missing),
        ("runs not done", incomplete)) if items]
    if reasons:
        pytest.skip(f"{'; '.join(reasons)}; write them with "
                    f"python scripts/run_experiments.py --only {group}")


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    checks = gradient_suite(seed=0)
    elapsed = time.monotonic() - t0
    worst = max(checks.values())
    assert worst < 1e-4, f"worst relative gradient error {worst:.3g}"
    assert elapsed < 120.0
    assert len(checks) >= 25  # every op family plus both SRL losses


def test_criterion_2_infonce_identity():
    cfg = ExperimentConfig(frames=3, crop_size=16, srl=SrlConfig(head="contrastive", z_dim=16))
    for batch_size in (4, 8, 32):
        m = SrlModel(np.random.default_rng(0), cfg)
        m.bilinear.data[:] = 0.0
        rng = np.random.default_rng(1)
        anchor = rng.uniform(0, 1, (batch_size, 3, 16, 16)).astype(np.float32)
        positive = rng.uniform(0, 1, (batch_size, 3, 16, 16)).astype(np.float32)
        _, per_sample = m.infonce_loss(anchor, positive)
        np.testing.assert_allclose(per_sample, np.log(batch_size), atol=1e-6)


def test_criterion_3_algorithm1_fidelity(tmp_path):
    cfg = small_cfg(steps=1000)
    logs, metrics = [], []
    for run in ("a", "b"):
        log = []
        tr = Trainer(cfg, str(tmp_path / run),
                     phase_hook=lambda t, phase: log.append((t, phase)))
        tr.run_main()
        logs.append(log)
        metrics.append(open(tmp_path / run / "metrics.csv", "rb").read())

    by_step = {}
    for t, phase in logs[0]:
        by_step.setdefault(t, []).append(phase)
    assert sorted(by_step) == list(range(1000))
    for t, seq in by_step.items():
        if t < cfg.init_steps:
            assert seq == list(PHASES[:3]), f"step {t}: {seq}"
        else:
            assert seq == list(PHASES), f"step {t}: {seq}"

    assert logs[0] == logs[1]
    assert metrics[0] == metrics[1]


def test_criterion_4_mixing_frequency(tmp_path):
    from cure_rl.cure import ActionSource
    cfg = small_cfg(steps=200, **{"cure.p_c": 0.2})
    tr = Trainer(cfg, str(tmp_path))
    tr.run_main()  # warm start: real agents, past the seeding phase
    tr.obs = tr.env.reset()
    n = 10_000
    curious = 0
    for t in range(cfg.init_steps, cfg.init_steps + n):
        action, source = tr._select_action(t, "mixed")
        assert np.all(np.abs(action) <= 1.0)
        curious += source is ActionSource.CURIOUS
    assert 0.188 <= curious / n <= 0.212, curious / n


def test_criterion_5_visitation():
    need_artifacts(5)
    means = battery.visitation_means(battery.RESULTS)
    assert set(means) == {"random", "task", "cure"}
    assert means["cure"] >= 3.0 * means["random"], means
    assert means["cure"] >= 3.0 * means["task"], means


def test_criterion_6_task_improvement():
    need_artifacts(6)
    rewards = battery.arm_rewards(battery.RESULTS, "reacher_hard")
    assert rewards["cure"].mean() > rewards["base"].mean(), rewards
    assert rewards["cure"].std() <= rewards["base"].std(), rewards


def test_criterion_7_head_agnosticism():
    need_artifacts(7)
    rewards = battery.arm_rewards(battery.RESULTS, "reacher_hard_contrastive")
    assert rewards["cure"].mean() >= rewards["base"].mean(), rewards


def test_criterion_8_pretraining():
    need_artifacts(8)
    rewards = battery.pretrain_rewards(battery.RESULTS)
    assert rewards["cure"] >= rewards["random"], rewards


def test_criterion_9_baseline_equivalence(tmp_path):
    outs = []
    # inert cure settings must leave a disabled run untouched (RNG isolation)
    for name, extra in (("a", {}), ("b", {}), ("c", {"cure.p_c": 0.9,
                                                     "cure.beta": 5.0})):
        cfg = small_cfg(steps=600, **{"cure.enabled": False, **extra})
        out = str(tmp_path / name)
        train(cfg, out)
        outs.append(out)

    blobs = [open(os.path.join(o, "metrics.csv"), "rb").read() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    arrays = [ckpt.load(os.path.join(o, "checkpoint.ckpt"))[0] for o in outs]
    assert arrays[0].keys() == arrays[1].keys() == arrays[2].keys()
    for k in arrays[0]:
        assert not k.startswith("param/cure."), k
        np.testing.assert_array_equal(arrays[0][k], arrays[1][k])
        np.testing.assert_array_equal(arrays[0][k], arrays[2][k])

    for row in read_metrics(os.path.join(outs[0], "metrics.csv")):
        if row["kind"] == "train":
            assert row["curious_fraction"] == 0.0
            assert row["critic_loss_cure"] == 0.0


def test_criterion_10_infrastructure(tmp_path):
    t0 = time.monotonic()

    # replay ring semantics
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(capacity=8)
    frames = [np.full((3, 6, 6), i, dtype=np.float32) for i in range(13)]
    for i, f in enumerate(frames):
        buf.push(f, np.zeros(2, np.float32), float(i), f, False)
    assert len(buf) == 8
    batch = buf.sample(8, rng)
    assert set(batch.rewards.astype(int)) <= set(range(5, 13))

    # checkpoint resume equivalence
    full, split = str(tmp_path / "full"), str(tmp_path / "split")
    train(small_cfg(steps=300), full)
    train(small_cfg(steps=150), split)
    train(small_cfg(steps=300), split,
          resume=os.path.join(split, "checkpoint.ckpt"))
    a = open(os.path.join(full, "metrics.csv"), "rb").read()
    b = open(os.path.join(split, "metrics.csv"), "rb").read()
    assert a == b  # CSV determinism + resume equivalence in one comparison

    # SVG validity
    svg = str(tmp_path / "r.svg")
    plot_reward_curves([os.path.join(full, "metrics.csv")], svg, kind="train")
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")

    assert time.monotonic() - t0 < 600.0
