#!/usr/bin/env python3
"""Calibration probe: train a cure-only run with SRL overrides and report the
visitation ratio (cure vs random vs task) under its own frozen model."""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cure_rl.config import load_config, set_by_path
from cure_rl.train import train
from cure_rl.visitation import (CheckpointPolicy, RandomPolicy,
                                build_reference_srl, score_trajectories)

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    ap.add_argument("--episodes", type=int, default=3)
    args = ap.parse_args()

    cfg = load_config(os.path.join(ROOT, "configs", "desk_point_reacher.txt"))
    cfg.seed = 0
    cfg.mode = "cure"
    for kv in args.set:
        key, value = kv.split("=", 1)
        set_by_path(cfg, key, value)
    cfg.validate()

    ckpt = os.path.join(args.out, "checkpoint.ckpt")
    if not os.path.exists(ckpt):
        train(cfg, args.out)
    ref = build_reference_srl(cfg, ckpt)

    # the task_base run was trained with the unmodified config
    task_cfg = load_config(os.path.join(ROOT, "configs", "desk_point_reacher.txt"))
    task_cfg.seed = 0
    task_ckpt = os.path.join(ROOT, "results", "visitation", "task_base",
                             "checkpoint.ckpt")
    policies = {
        "random": RandomPolicy(2),
        "task": CheckpointPolicy(task_cfg, task_ckpt, "task", 2),
        "cure": CheckpointPolicy(cfg, ckpt, "cure", 2),
    }
    means = {}
    for i, (name, policy) in enumerate(policies.items()):
        e = score_trajectories(cfg, ref, policy, args.episodes, i)
        means[name] = e.mean()
        print(f"{name:8s} min {e.min():.5f} mean {e.mean():.5f} max {e.max():.5f}",
              flush=True)
    print("ratio vs random: %.2f   vs task: %.2f"
          % (means["cure"] / means["random"], means["cure"] / means["task"]))


if __name__ == "__main__":
    main()
