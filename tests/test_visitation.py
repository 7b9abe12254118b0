"""Visitation experiment: runs reopened with ``load_run``, frozen reference SRL
model, checkpoint policies, CSV."""

import os
import re
import shutil

import numpy as np
import pytest

from cure_rl import checkpoint as ckpt
from cure_rl.cli import main as cli_main
from cure_rl.config import ExperimentConfig, set_by_path
from cure_rl.envs import make_task, rollout
from cure_rl.train import CHECKPOINT_FILE, CONFIG_FILE, load_run, train
from cure_rl.visitation import visitation_experiment


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
    return {name: os.path.join(d, CHECKPOINT_FILE) for name, d in out.items()}


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
    srl_ckpt = runs["task"] if head == "rae" else runs[head]
    paths = [str(tmp_path / f"visitation_{i}.csv") for i in range(2)]
    for path in paths:
        results = visitation_experiment(srl_ckpt, srl_ckpt, runs[head], 1, path)
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
    """A run reopened by ``load_run`` holds every parameter group of its
    checkpoint, among them the encoder and the actor its policy acts with."""
    trainer = load_run(runs[run])
    arrays, _, _ = ckpt.load(runs[run], expected_hash=None)
    groups = {g.name: g.data for g in trainer.param_groups()}
    assert set(groups) == {k[len("param/"):] for k in arrays if k.startswith("param/")}
    assert {"encoder", f"{agent}.actor"} <= set(groups)
    assert_holds(runs[run], groups.items())
    assert trainer.phase == "main" and trainer.phase_t == trainer.cfg.steps


def test_visitation_acts_as_evaluation(tmp_path):
    """Both agents of a run reopened by ``load_run``, as visitation opens it,
    choose on every observation of an evaluation rollout the bit-identical
    action the trainer that saved the run chooses."""
    cfg = tiny_cfg()
    trained = train(cfg, str(tmp_path / "run"))
    loaded = load_run(str(tmp_path / "run" / CHECKPOINT_FILE))
    observations = []
    rollout(make_task(cfg, np.random.default_rng(0)), trained.policy("task"), 1,
            observations.append)
    for role in ("task", "curious"):
        act, reopened = trained.policy(role), loaded.policy(role)
        for obs in observations:
            np.testing.assert_array_equal(reopened(obs), act(obs))


@pytest.mark.parametrize("head,groups", [
    ("rae", {"encoder", "decoder"}),
    ("contrastive", {"encoder", "bilinear", "key_encoder"})])
def test_reference_srl_holds_the_checkpoint_arrays(runs, head, groups):
    model = load_run(runs[head]).srl
    assert model.head == head
    assert {g.name for g in model.groups} == groups
    assert_holds(runs[head], [(g.name, g.data) for g in model.groups])


def test_load_run_resolves_a_bare_checkpoint_name_and_writes_nothing(runs, monkeypatch):
    run_dir = os.path.dirname(runs["task"])
    before = {n: open(os.path.join(run_dir, n), "rb").read() for n in os.listdir(run_dir)}
    monkeypatch.chdir(run_dir)
    assert load_run(CHECKPOINT_FILE).out_dir == run_dir
    assert {n: open(os.path.join(run_dir, n), "rb").read()
            for n in os.listdir(run_dir)} == before


def test_load_run_refuses_an_edited_config_txt(runs, tmp_path):
    run_dir = str(tmp_path / "run")
    shutil.copytree(os.path.dirname(runs["task"]), run_dir)
    path = os.path.join(run_dir, CONFIG_FILE)
    text, n = re.subn(r"^cure\.beta=.*$", "cure.beta=5.0", open(path).read(), flags=re.M)
    assert n == 1 and load_run(runs["task"]).cfg.cure.beta != 5.0
    with open(path, "w") as f:
        f.write(text)
    with pytest.raises(ckpt.CheckpointError, match="config hash mismatch"):
        load_run(os.path.join(run_dir, CHECKPOINT_FILE))


def test_cure_run_of_another_srl_shape_scores_against_a_task_run(runs, tmp_path):
    """Each run opens with its own config: a cure run with ``srl.z_dim=8``
    provides the reference model and curious policy, a task run with 16 the
    task policy."""
    cure_dir = str(tmp_path / "cure_z8")
    train(tiny_cfg(mode="cure", **{"srl.z_dim": 8}), cure_dir)
    cure_ckpt = os.path.join(cure_dir, CHECKPOINT_FILE)
    assert load_run(cure_ckpt).cfg.srl.z_dim == 8 != load_run(runs["task"]).cfg.srl.z_dim
    results = visitation_experiment(cure_ckpt, runs["task"], cure_ckpt, 1,
                                    str(tmp_path / "visitation.csv"))
    assert all(np.isfinite(list(r.values())).all() for r in results.values()), results


def test_visitation_subcommand_end_to_end(runs, tmp_path, capsys):
    out = str(tmp_path / "vis")
    assert cli_main(["visitation", "--srl-ckpt", runs["rae"], "--task-ckpt", runs["task"],
                     "--cure-ckpt", runs["rae"], "--episodes", "1", "--out", out]) == 0
    csv = os.path.join(out, "visitation.csv")
    assert open(csv).read().splitlines()[0] == "policy,min,mean,max"
    stdout = capsys.readouterr().out
    assert "mean ratio cure/random=" in stdout and f"wrote {csv}" in stdout


@pytest.mark.parametrize("episodes", [0, -1])
def test_episodes_below_one_rejected_before_loading(tmp_path, episodes):
    missing = str(tmp_path / "missing.ckpt")
    out = tmp_path / "visitation.csv"
    with pytest.raises(ValueError, match="episodes"):
        visitation_experiment(missing, missing, missing, episodes, str(out))
    assert not out.exists()
