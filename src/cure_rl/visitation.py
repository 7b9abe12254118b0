"""Representation-error visitation experiment.

Rolls out three policies (random, task-trained, curiosity-trained) in the
same task, scores every visited observation with a frozen reference SRL
model, and reports min/mean/max error per step for each policy as CSV.

Each policy runs through ``envs.rollout``, the loop that evaluation runs. A
trained policy is the checkpoint's agent acting through ``SacAgent.act``
on the centre crop with its tanh-mean action, as in evaluation; the random
policy draws uniform actions from the rollout's env stream.
"""

from __future__ import annotations

import numpy as np

from . import checkpoint as ckpt
from .config import ExperimentConfig
from .envs import make_task, rollout
from .replay import augmented_views, center_crop
from .sac import SacAgent
from .srl import Encoder, SrlModel
from .autodiff import ParamGroup

_VISIT_KEY_BASE = 2000


def _load_groups(path: str, groups):
    arrays, _, _ = ckpt.load(path, expected_hash=None)
    for g in groups:
        g.set(arrays[f"param/{g.name}"].astype(g.data.dtype))


def build_reference_srl(cfg: ExperimentConfig, checkpoint_path: str) -> SrlModel:
    """Frozen SRL model (encoder + head) restored from a finished run."""
    model = SrlModel(np.random.default_rng(0), cfg)
    _load_groups(checkpoint_path, model.groups)
    return model


def load_agent(cfg: ExperimentConfig, checkpoint_path: str, name: str,
               action_dim: int) -> tuple[SacAgent, Encoder]:
    """Agent ``name`` (``task`` or ``cure``) and an encoder, holding the
    checkpoint's ``encoder`` and ``<name>.actor`` groups: all that
    ``SacAgent.act`` reads. Acting reads neither the critics nor ``gamma``."""
    rng = np.random.default_rng(0)
    encoder = Encoder(rng, cfg.frames, cfg.crop, cfg.srl.z_dim)
    agent = SacAgent(rng, cfg, action_dim, name, cfg.gamma)
    actor = next(g for g in agent.groups if g.name == f"{name}.actor")
    _load_groups(checkpoint_path, [ParamGroup("encoder", encoder.params()), actor])
    return agent, encoder


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


def visitation_experiment(cfg: ExperimentConfig, srl_checkpoint: str,
                          task_checkpoint: str, cure_checkpoint: str,
                          episodes: int, out_csv: str) -> dict:
    """Score {random, task, cure} policies against one frozen SRL model."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    ref = build_reference_srl(cfg, srl_checkpoint)
    action_dim = make_task(cfg, np.random.default_rng(0)).spec.action_dim

    def policy(path, name):
        agent, encoder = load_agent(cfg, path, name, action_dim)
        return lambda obs: agent.act(encoder, center_crop(obs, cfg.crop), deterministic=True)

    policies = {"random": None, "task": policy(task_checkpoint, "task"),
                "cure": policy(cure_checkpoint, "cure")}
    results = {}
    for i, (name, act) in enumerate(policies.items()):
        errs = score_trajectories(cfg, ref, act, episodes, i)
        results[name] = {"min": float(errs.min()), "mean": float(errs.mean()),
                         "max": float(errs.max())}
    with open(out_csv, "w") as f:
        f.write("policy,min,mean,max\n")
        for name in ("random", "task", "cure"):
            r = results[name]
            f.write(f"{name},{r['min']:.9g},{r['mean']:.9g},{r['max']:.9g}\n")
    return results
