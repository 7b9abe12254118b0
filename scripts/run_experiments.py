#!/usr/bin/env python3
"""Run the desk-scale experiment battery behind tests/test_acceptance.py.

Each job is one ``train`` call into its own directory under results/. Re-run
after an interruption, the script skips complete runs and resumes the others
from their checkpoints. Expect a few hours on one core.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cure_rl import checkpoint as ckpt
from cure_rl.config import config_hash, load_config, set_by_path
from cure_rl.train import train
from cure_rl.visitation import visitation_experiment

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
RESULTS = os.path.join(ROOT, "results")
CONFIGS = os.path.join(ROOT, "configs")


def desk_cfg(name: str, **overrides):
    cfg = load_config(os.path.join(CONFIGS, name))
    for key, value in overrides.items():
        set_by_path(cfg, key, value)
    cfg.validate()
    return cfg


def done(cfg) -> bool:
    """Whether the run's checkpoint holds the last step of its main phase."""
    path = os.path.join(cfg.out, "checkpoint.ckpt")
    if not os.path.exists(path):
        return False
    trainer = ckpt.load(path, expected_hash=config_hash(cfg))[1]["trainer"]
    return trainer["phase"] == "main" and trainer["phase_t"] == cfg.steps


def run(tag: str, cfg):
    if done(cfg):
        print(f"[skip] {tag}: {cfg.out} already complete", flush=True)
        return
    path = os.path.join(cfg.out, "checkpoint.ckpt")
    resume = path if os.path.exists(path) else None
    t0 = time.monotonic()
    print(f"[{'resume' if resume else 'run'}] {tag} -> {cfg.out}", flush=True)
    train(cfg, resume=resume)
    print(f"[done] {tag} in {(time.monotonic() - t0) / 60:.1f} min", flush=True)


def reacher_hard_battery(sub: str, seeds, **overrides):
    """Baseline vs cure arms for criteria 6 (rae) and 7 (contrastive)."""
    for seed in seeds:
        for arm, enabled in (("base", False), ("cure", True)):
            out = os.path.join(RESULTS, sub, f"{arm}_s{seed}")
            cfg = desk_cfg("desk_reacher_hard.txt", **{
                "seed": seed, "cure.enabled": enabled, "out": out, **overrides})
            run(f"{sub}/{arm}_s{seed}", cfg)


def visitation_battery(episodes: int):
    cure_out = os.path.join(RESULTS, "visitation", "cure_only")
    cfg = desk_cfg("desk_point_reacher.txt", **{"seed": 0, "mode": "cure", "out": cure_out})
    run("visitation/cure_only", cfg)

    task_out = os.path.join(RESULTS, "visitation", "task_base")
    tcfg = desk_cfg("desk_point_reacher.txt",
                    **{"seed": 0, "cure.enabled": False, "out": task_out})
    run("visitation/task_base", tcfg)

    csv = os.path.join(RESULTS, "visitation", "visitation.csv")
    if os.path.exists(csv):
        print(f"[skip] visitation/scoring: {csv} exists", flush=True)
        return
    results = visitation_experiment(
        cfg,
        srl_checkpoint=os.path.join(cure_out, "checkpoint.ckpt"),
        task_checkpoint=os.path.join(task_out, "checkpoint.ckpt"),
        cure_checkpoint=os.path.join(cure_out, "checkpoint.ckpt"),
        episodes=episodes, out_csv=csv)
    print(f"[done] visitation scoring: {results}", flush=True)


def pretrain_battery():
    for mode in ("random", "cure"):
        out = os.path.join(RESULTS, "pretrain", mode)
        cfg = desk_cfg("desk_reacher_hard.txt", **{
            "seed": 0, "pretrain.mode": mode, "pretrain.steps": 10000,
            "out": out})
        run(f"pretrain/{mode}", cfg)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", choices=["visitation", "reward", "contrastive",
                                       "pretrain"], default=None)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--episodes", type=int, default=5,
                    help="episodes per policy in the visitation scoring")
    args = ap.parse_args(argv)

    if args.only in (None, "visitation"):
        visitation_battery(args.episodes)
    if args.only in (None, "reward"):
        reacher_hard_battery("reacher_hard", args.seeds)
    if args.only in (None, "contrastive"):
        reacher_hard_battery("reacher_hard_contrastive", args.seeds,
                             **{"srl.head": "contrastive"})
    if args.only in (None, "pretrain"):
        pretrain_battery()
    print("[all done]", flush=True)


if __name__ == "__main__":
    main()
