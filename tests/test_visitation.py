"""Visitation experiment: frozen reference SRL model, checkpoint policies, CSV."""

import os

import numpy as np
import pytest

from cure_rl import checkpoint as ckpt
from cure_rl.config import ExperimentConfig, set_by_path
from cure_rl.envs import make_task, rollout
from cure_rl.replay import center_crop
from cure_rl.train import Trainer, train
from cure_rl.visitation import build_reference_srl, load_agent, visitation_experiment


def tiny_cfg(**kw):
    cfg = ExperimentConfig(task="point_reacher", seed=1, steps=30, batch_size=8,
                           hidden_dim=32, init_steps=10, render_size=20, crop_size=16,
                           horizon=40)
    cfg.srl.z_dim = 16
    cfg.eval.interval = 20
    cfg.eval.episodes = 1
    cfg.replay.capacity = 200
    for k, v in kw.items():
        set_by_path(cfg, k, v)
    cfg.validate()
    return cfg


HEADS = {"rae": {}, "contrastive": {"srl.head": "contrastive"}}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Checkpoints of tiny runs: a task run without the curious agent, and a
    cure-only run per SRL head."""
    root = tmp_path_factory.mktemp("visitation")
    out = {"task": str(root / "task")}
    train(tiny_cfg(**{"cure.enabled": False}), out["task"])
    for head, overrides in HEADS.items():
        out[head] = str(root / f"cure_{head}")
        train(tiny_cfg(mode="cure", **overrides), out[head])
    return {name: os.path.join(d, "checkpoint.ckpt") for name, d in out.items()}


def assert_holds(path, groups):
    """Each (name, flat values) pair equals the checkpoint's ``param/<name>``
    in the model's dtype. A contrastive run's checkpoint stores float64 groups
    (its bilinear weight is float64 under numpy 2) that a new model may hold
    as float32."""
    arrays, _, _ = ckpt.load(path, expected_hash=None)
    for name, flat in groups:
        np.testing.assert_array_equal(flat, arrays[f"param/{name}"].astype(flat.dtype))


@pytest.mark.parametrize("head", list(HEADS))
def test_csv_rows_and_rerun_identical(runs, tmp_path, head):
    cfg = tiny_cfg(**HEADS[head])
    srl_ckpt = runs["task"] if head == "rae" else runs[head]
    paths = [str(tmp_path / f"visitation_{i}.csv") for i in range(2)]
    for path in paths:
        results = visitation_experiment(cfg, srl_ckpt, srl_ckpt, runs[head], 1, path)
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == "policy,min,mean,max"
    assert [line.split(",")[0] for line in lines[1:]] == ["random", "task", "cure"]
    for line in lines[1:]:
        lo, mean, hi = (float(v) for v in line.split(",")[1:])
        assert np.isfinite([lo, mean, hi]).all()
        assert 0.0 <= lo <= mean <= hi
    assert set(results) == {"random", "task", "cure"}
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


@pytest.mark.parametrize("agent,run", [("task", "task"), ("cure", "rae")])
def test_checkpoint_policy_holds_the_checkpoint_arrays(runs, agent, run):
    sac, encoder = load_agent(tiny_cfg(), runs[run], agent, action_dim=2)
    assert_holds(runs[run], [
        (name, np.concatenate([p.data.reshape(-1) for p in module.params().values()]))
        for name, module in (("encoder", encoder), (f"{agent}.actor", sac.actor))])


def test_visitation_acts_as_evaluation(tmp_path):
    """Both agents loaded as visitation loads them choose, on every observation
    of a rollout, the bit-identical action the trainer's agents choose."""
    cfg = tiny_cfg()
    train(cfg, str(tmp_path / "run"))
    path = str(tmp_path / "run" / "checkpoint.ckpt")
    trainer = Trainer(cfg, str(tmp_path / "resumed"))
    trainer.load_checkpoint(path)
    observations = []
    rollout(make_task(cfg, np.random.default_rng(0)), lambda obs: trainer.task_agent.act(
        trainer.srl.encoder, center_crop(obs, cfg.crop), deterministic=True),
        1, observations.append)
    for name, agent in (("task", trainer.task_agent), ("cure", trainer.curious_agent)):
        loaded, encoder = load_agent(cfg, path, name, action_dim=2)
        for obs in observations:
            crop = center_crop(obs, cfg.crop)
            np.testing.assert_array_equal(
                loaded.act(encoder, crop, deterministic=True),
                agent.act(trainer.srl.encoder, crop, deterministic=True))


@pytest.mark.parametrize("head,groups", [
    ("rae", {"encoder", "decoder"}),
    ("contrastive", {"encoder", "bilinear", "key_encoder"})])
def test_reference_srl_holds_the_checkpoint_arrays(runs, head, groups):
    model = build_reference_srl(tiny_cfg(**HEADS[head]), runs[head])
    assert model.head == head
    assert {g.name for g in model.groups} == groups
    assert_holds(runs[head], [(g.name, g.data) for g in model.groups])


@pytest.mark.parametrize("episodes", [0, -1])
def test_episodes_below_one_rejected_before_loading(tmp_path, episodes):
    missing = str(tmp_path / "missing.ckpt")
    out = tmp_path / "visitation.csv"
    with pytest.raises(ValueError, match="episodes"):
        visitation_experiment(tiny_cfg(), missing, missing, missing, episodes, str(out))
    assert not out.exists()
