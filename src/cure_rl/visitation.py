"""Representation-error visitation experiment.

Rolls out three policies (random, task-trained, curiosity-trained) in the
same task, scores every visited observation with a frozen reference SRL
model, and reports min/mean/max error per step for each policy as CSV.

Each run opens with ``train.load_run`` in the config it ran, so runs of
different SRL shapes score together; rollouts and scoring use the curious
run's config. Every policy runs through ``envs.rollout``, the loop of
evaluation: a trained one is its run's ``Trainer.policy``, as in evaluation,
and the random one draws uniform actions from the rollout's env stream.
"""

from __future__ import annotations

import os

import numpy as np

from .config import ExperimentConfig
from .envs import make_task, rollout
from .replay import augmented_views, center_crop
from .srl import SrlModel
from .train import load_run

_VISIT_KEY_BASE = 2000


def score_trajectories(cfg: ExperimentConfig, ref_srl: SrlModel, act,
                       episodes: int, policy_index: int) -> np.ndarray:
    """Per-step SRL errors over rollouts of ``act(obs)`` under the frozen
    model; ``act=None`` is the random policy, drawing from the env's stream."""
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_VISIT_KEY_BASE + policy_index,)))
    env = make_task(cfg, rng)
    crop_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_VISIT_KEY_BASE + 100 + policy_index,)))
    errors = []

    def score(obs):
        if ref_srl.head == "rae":
            e = ref_srl.srl_error(center_crop(obs, cfg.crop)[None])
        else:
            a, p = augmented_views(obs[None], cfg.crop, crop_rng)
            # a batch of one has no negatives; score against itself + one shifted copy
            e = ref_srl.srl_error(np.concatenate([a, p]), np.concatenate([p, a]))[:1]
        errors.append(float(e[0]))

    if act is None:
        def act(obs):
            return rng.uniform(-1.0, 1.0, size=env.spec.action_dim)
    rollout(env, act, episodes, score)
    return np.asarray(errors)


def visitation_experiment(srl_checkpoint: str, task_checkpoint: str,
                          cure_checkpoint: str, episodes: int, out_csv: str) -> dict:
    """Score {random, task, cure} policies against the frozen SRL model of
    ``srl_checkpoint``'s run, in the config of ``cure_checkpoint``'s run."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    paths = [os.path.abspath(p) for p in (srl_checkpoint, task_checkpoint, cure_checkpoint)]
    runs = {p: load_run(p) for p in dict.fromkeys(paths)}   # each checkpoint once
    srl_run, task_run, cure_run = (runs[p] for p in paths)
    policies = {"random": None, "task": task_run.policy("task"),
                "cure": cure_run.policy("curious")}
    results = {}
    for i, (name, act) in enumerate(policies.items()):
        errs = score_trajectories(cure_run.cfg, srl_run.srl, act, episodes, i)
        results[name] = {"min": float(errs.min()), "mean": float(errs.mean()),
                         "max": float(errs.max())}
    with open(out_csv, "w") as f:
        f.write("policy,min,mean,max\n")
        for name in ("random", "task", "cure"):
            r = results[name]
            f.write(f"{name},{r['min']:.9g},{r['mean']:.9g},{r['max']:.9g}\n")
    return results
