"""The experiment battery behind acceptance criteria 5-8, defined once.

Every run is data: its group, its output path relative to a results root,
its config file under ``configs/`` and its overrides. The visitation scoring
reopens two of those runs and writes ``visitation/visitation.csv``. One
reader per criterion turns a root's artifacts into the numbers that
criterion judges; ``criterion_files`` names the files each reader opens and
``incomplete_runs`` the runs of a group that are not done.

``scripts/run_experiments.py`` runs the battery into ``results/``;
``dry_run`` runs all of it at a tiny scale and every reader on the result,
which checks in seconds that the runs start and that the criteria can read
what they write.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .config import ExperimentConfig, config_hash, load_config, set_by_path
from .metrics import read_metrics
from .train import CHECKPOINT_FILE, METRICS_FILE, train
from .visitation import visitation_experiment

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
CONFIGS = os.path.join(REPO, "configs")
RESULTS = os.path.join(REPO, "results")

SEEDS = (0, 1, 2)
EPISODES = 5                       # visitation scoring episodes per policy
ARMS = {"base": False, "cure": True}   # arm -> cure.enabled
PRETRAIN_MODES = ("random", "cure")
POLICIES = ("random", "task", "cure")
CRITERIA = {5: "visitation", 6: "reacher_hard", 7: "reacher_hard_contrastive",
            8: "pretrain"}   # the group whose artifacts each criterion judges
GROUPS = tuple(CRITERIA.values())   # in the order the battery runs them

# every job at a scale that runs the whole battery in seconds (with one
# scoring episode per policy)
TINY = {"steps": 150, "init_steps": 100, "batch_size": 8, "replay.capacity": 2000,
        "eval.interval": 50, "eval.episodes": 1, "horizon": 40, "pretrain.steps": 50}


@dataclass(frozen=True)
class Run:
    group: str
    path: str        # relative to the results root
    config: str      # file under configs/
    overrides: dict


def _arm_path(group: str, arm: str, seed: int) -> str:
    return f"{group}/{arm}_s{seed}"


def _pretrain_path(mode: str) -> str:
    return f"pretrain/{mode}"


def _arm_runs(group: str, **overrides) -> list:
    return [Run(group, _arm_path(group, arm, seed), "desk_reacher_hard.txt",
                {"seed": seed, "cure.enabled": enabled, **overrides})
            for seed in SEEDS for arm, enabled in ARMS.items()]


CURE_ONLY = Run("visitation", "visitation/cure_only", "desk_point_reacher.txt",
                {"seed": 0, "mode": "cure"})
TASK_BASE = Run("visitation", "visitation/task_base", "desk_point_reacher.txt",
                {"seed": 0, "cure.enabled": False})
# the scoring's config, frozen SRL model and curious policy come from
# CURE_ONLY's checkpoint, its task policy from TASK_BASE's
VISITATION_CSV = "visitation/visitation.csv"

RUNS = (
    CURE_ONLY, TASK_BASE,
    *_arm_runs("reacher_hard"),
    *_arm_runs("reacher_hard_contrastive", **{"srl.head": "contrastive"}),
    *(Run("pretrain", _pretrain_path(mode), "desk_reacher_hard.txt",
          {"seed": 0, "pretrain.mode": mode, "pretrain.steps": 10000})
      for mode in PRETRAIN_MODES),
)


def run_cfg(run: Run, root: str, scale: dict | None = None) -> ExperimentConfig:
    """The config of ``run`` writing under ``root``; ``scale`` overrides last."""
    cfg = load_config(os.path.join(CONFIGS, run.config))
    for key, value in {**run.overrides, **(scale or {})}.items():
        set_by_path(cfg, key, value)
    cfg.out = os.path.join(root, run.path)
    cfg.validate()
    return cfg


def done(cfg) -> bool:
    """Whether the run's checkpoint holds the last step of its main phase."""
    path = os.path.join(cfg.out, CHECKPOINT_FILE)
    if not os.path.exists(path):
        return False
    trainer = ckpt.load(path, expected_hash=config_hash(cfg))[1]["trainer"]
    return trainer["phase"] == "main" and trainer["phase_t"] == cfg.steps


def run(tag: str, cfg):
    if done(cfg):
        print(f"[skip] {tag}: {cfg.out} already complete", flush=True)
        return
    path = os.path.join(cfg.out, CHECKPOINT_FILE)
    resume = path if os.path.exists(path) else None
    t0 = time.monotonic()
    print(f"[{'resume' if resume else 'run'}] {tag} -> {cfg.out}", flush=True)
    train(cfg, resume=resume)
    print(f"[done] {tag} in {(time.monotonic() - t0) / 60:.1f} min", flush=True)


def score_visitation(root: str, episodes: int = EPISODES):
    """Score the three policies of the visitation group's runs under ``root``
    into ``VISITATION_CSV``, replacing whatever that file held."""
    def checkpoint(r):
        return os.path.join(root, r.path, CHECKPOINT_FILE)

    results = visitation_experiment(checkpoint(CURE_ONLY), checkpoint(TASK_BASE),
                                    checkpoint(CURE_ONLY), episodes,
                                    os.path.join(root, VISITATION_CSV))
    print(f"[done] visitation scoring: {results}", flush=True)


def run_battery(root: str, groups=GROUPS, scale: dict | None = None,
                episodes: int = EPISODES):
    """Every run of ``groups`` into ``root``, in battery order; the visitation
    scoring follows its two runs."""
    for group in groups:
        for r in RUNS:
            if r.group == group:
                run(r.path, run_cfg(r, root, scale))
        if group == "visitation":
            score_visitation(root, episodes)


# -- what criteria 5-8 read ------------------------------------------------------
def final_eval_reward(run_dir: str) -> float:
    """Endpoint performance: mean of the last three evaluation rows.

    A single eval row is dominated by SAC policy oscillation between desk-scale
    eval intervals; averaging the final three rows measures where the policy
    ends up without changing the training budget.
    """
    rows = [r for r in read_metrics(os.path.join(run_dir, METRICS_FILE["main"]))
            if r["kind"] == "eval"]
    return float(np.mean([r["reward"] for r in rows[-3:]]))


def arm_rewards(root: str, group: str) -> dict:
    """Criteria 6 and 7: each arm's final rewards, one per seed in ``SEEDS``."""
    return {arm: np.array([final_eval_reward(os.path.join(root, _arm_path(group, arm, s)))
                           for s in SEEDS])
            for arm in ARMS}


def pretrain_rewards(root: str) -> dict:
    """Criterion 8: the final reward after each pretraining mode."""
    return {mode: final_eval_reward(os.path.join(root, _pretrain_path(mode)))
            for mode in PRETRAIN_MODES}


def visitation_means(root: str) -> dict:
    """Criterion 5: each policy's mean SRL error in ``VISITATION_CSV``."""
    path = os.path.join(root, VISITATION_CSV)
    with open(path) as f:
        lines = f.read().strip().splitlines()
    if not lines or lines[0] != "policy,min,mean,max":
        raise ValueError(f"{path}:1: expected the header policy,min,mean,max")
    means = {}
    for lineno, line in enumerate(lines[1:], 2):
        name, lo, mean, hi = line.split(",")
        lo, mean, hi = float(lo), float(mean), float(hi)
        if not lo <= mean <= hi:
            raise ValueError(f"{path}:{lineno}: mean outside [min, max]: {line!r}")
        means[name] = mean
    return means


def criterion_files(criterion: int) -> list:
    """The files criterion 5, 6, 7 or 8 reads, relative to the results root."""
    group = CRITERIA[criterion]
    if group == "visitation":
        return [VISITATION_CSV]
    return [f"{r.path}/{METRICS_FILE['main']}" for r in RUNS if r.group == group]


def incomplete_runs(root: str, group: str, scale: dict | None = None) -> list:
    """The runs of ``group`` under ``root`` that are not ``done``, including
    those whose checkpoint is refused, as paths relative to the root."""
    def complete(r):
        try:
            return done(run_cfg(r, root, scale))
        except ckpt.CheckpointError:
            return False
    return [r.path for r in RUNS if r.group == group and not complete(r)]


def dry_run(root: str):
    """Every job at ``TINY`` scale into ``root``, then every criterion's reader
    on the result; raises unless each reading is complete and finite."""
    run_battery(root, scale=TINY, episodes=1)
    readings = {5: visitation_means(root), 6: arm_rewards(root, CRITERIA[6]),
                7: arm_rewards(root, CRITERIA[7]), 8: pretrain_rewards(root)}
    values = [v for r in readings.values() for x in r.values() for v in np.ravel(x)]
    if set(readings[5]) != set(POLICIES) or not np.all(np.isfinite(values)):
        raise ValueError(f"dry run: criteria 5-8 read {readings}")
