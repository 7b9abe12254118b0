"""Representation-error visitation experiment.

Rolls out three policies (random, task-trained, curiosity-trained) in the
same task, scores every visited observation with a frozen reference SRL
model, and reports min/mean/max error per step for each policy as CSV.
"""

from __future__ import annotations

import numpy as np

from . import checkpoint as ckpt
from .config import ExperimentConfig
from .envs import make_task
from .replay import augmented_views, center_crop
from .sac import GaussianActor
from .srl import Encoder, SrlModel
from .autodiff import ParamGroup, Tensor, no_grad

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


class CheckpointPolicy:
    """Deterministic policy (encoder + tanh-mean actor) from a checkpoint."""

    def __init__(self, cfg: ExperimentConfig, checkpoint_path: str, agent: str,
                 action_dim: int):
        if agent not in ("task", "cure"):
            raise ValueError(f"agent must be task or cure, got {agent!r}")
        rng = np.random.default_rng(0)
        self.crop = cfg.crop
        self.encoder = Encoder(rng, cfg.frames, cfg.crop, cfg.srl.z_dim)
        self.actor = GaussianActor(rng, cfg, action_dim, f"{agent}.actor")
        _load_groups(checkpoint_path, [ParamGroup("encoder", self.encoder.params()),
                                       ParamGroup(f"{agent}.actor", self.actor.params())])

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        with no_grad():
            z = self.encoder(Tensor(center_crop(obs, self.crop)[None]))
        # same protocol as training-time evaluation: tanh-mean action
        return self.actor.act(z, deterministic=True)[0]


class RandomPolicy:
    def __init__(self, action_dim: int):
        self.action_dim = action_dim

    def act(self, obs, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=self.action_dim)


def score_trajectories(cfg: ExperimentConfig, ref_srl: SrlModel, policy,
                       episodes: int, policy_index: int) -> np.ndarray:
    """Per-step SRL errors over rollouts of one policy under the frozen model."""
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_VISIT_KEY_BASE + policy_index,)))
    env = make_task(cfg, rng)
    crop_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_VISIT_KEY_BASE + 100 + policy_index,)))
    errors = []
    for _ in range(episodes):
        obs = env.reset()
        done = False
        while not done:
            if ref_srl.head == "rae":
                e = ref_srl.srl_error(center_crop(obs, cfg.crop)[None])
            else:
                a, p = augmented_views(obs[None], cfg.crop, crop_rng)
                # a batch of one has no negatives; score against itself + one shifted copy
                e = ref_srl.srl_error(np.concatenate([a, p]), np.concatenate([p, a]))[:1]
            errors.append(float(e[0]))
            obs, _, done = env.step(policy.act(obs, rng))
    return np.asarray(errors)


def visitation_experiment(cfg: ExperimentConfig, srl_checkpoint: str,
                          task_checkpoint: str, cure_checkpoint: str,
                          episodes: int, out_csv: str) -> dict:
    """Score {random, task, cure} policies against one frozen SRL model."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    ref = build_reference_srl(cfg, srl_checkpoint)
    action_dim = make_task(cfg, np.random.default_rng(0)).spec.action_dim
    policies = {
        "random": RandomPolicy(action_dim),
        "task": CheckpointPolicy(cfg, task_checkpoint, "task", action_dim),
        "cure": CheckpointPolicy(cfg, cure_checkpoint, "cure", action_dim),
    }
    results = {}
    for i, (name, policy) in enumerate(policies.items()):
        errs = score_trajectories(cfg, ref, policy, episodes, i)
        results[name] = {"min": float(errs.min()), "mean": float(errs.mean()),
                         "max": float(errs.max())}
    with open(out_csv, "w") as f:
        f.write("policy,min,mean,max\n")
        for name in ("random", "task", "cure"):
            r = results[name]
            f.write(f"{name},{r['min']:.9g},{r['mean']:.9g},{r['max']:.9g}\n")
    return results
