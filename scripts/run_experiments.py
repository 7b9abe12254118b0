#!/usr/bin/env python3
"""Run the desk-scale experiment battery behind tests/test_acceptance.py.

Artifacts land in results/ and are skipped when already complete, so the
script can be re-run after an interruption. Expect a few hours on one core.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cure_rl.config import load_config, set_by_path
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


def done(out_dir: str) -> bool:
    return os.path.exists(os.path.join(out_dir, "checkpoint.ckpt"))


def run(tag: str, fn, out_dir: str):
    if done(out_dir):
        print(f"[skip] {tag}: {out_dir} already complete", flush=True)
        return
    t0 = time.monotonic()
    print(f"[run ] {tag} -> {out_dir}", flush=True)
    fn()
    print(f"[done] {tag} in {(time.monotonic() - t0) / 60:.1f} min", flush=True)


def reacher_hard_battery(sub: str, seeds, **overrides):
    """Baseline vs cure arms for criteria 6 (rae) and 7 (contrastive)."""
    for seed in seeds:
        for arm, enabled in (("base", False), ("cure", True)):
            out = os.path.join(RESULTS, sub, f"{arm}_s{seed}")
            cfg = desk_cfg("desk_reacher_hard.txt", **{
                "seed": seed, "cure.enabled": enabled, "out": out, **overrides})
            run(f"{sub}/{arm}_s{seed}", lambda c=cfg, o=out: train(c, o), out)


def visitation_battery(episodes: int):
    cure_out = os.path.join(RESULTS, "visitation", "cure_only")
    cfg = desk_cfg("desk_point_reacher.txt", **{"seed": 0, "mode": "cure", "out": cure_out})
    run("visitation/cure_only", lambda: train(cfg, cure_out), cure_out)

    task_out = os.path.join(RESULTS, "visitation", "task_base")
    tcfg = desk_cfg("desk_point_reacher.txt",
                    **{"seed": 0, "cure.enabled": False, "out": task_out})
    run("visitation/task_base", lambda: train(tcfg, task_out), task_out)

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
        run(f"pretrain/{mode}", lambda c=cfg, o=out: train(c, o), out)


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
