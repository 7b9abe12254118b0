"""Command-line entry points: train / visitation / plot / gradcheck. ``train
--resume`` continues a run from its checkpoint in either phase; ``--steps 0``
stops a run after pretraining. ``visitation`` takes only checkpoints: each
run's model opens with the ``config.txt`` beside its checkpoint."""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import ExperimentConfig, load_config, set_by_path
from .diagnostics import run_gradient_suite
from .metrics import COLUMNS
from .plotting import plot_reward_curves
from .train import train
from .visitation import visitation_experiment


def build_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.task is not None:
        cfg.task = args.task
    if args.steps is not None:
        cfg.steps = args.steps
    for item in args.overrides:
        if "=" not in item:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        set_by_path(cfg, key.strip(), value.strip())
    if args.out:
        cfg.out = args.out
    cfg.validate()
    return cfg


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cure-rl",
        description="Curiosity-driven state-representation RL from pixels")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the full training protocol")
    p_train.add_argument("--config", metavar="PATH", help="config file (key = value lines)")
    p_train.add_argument("--seed", type=int, metavar="N")
    p_train.add_argument("--task", metavar="NAME")
    p_train.add_argument("--steps", type=int, metavar="N")
    p_train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         dest="overrides", help="dotted-path override, repeatable")
    p_train.add_argument("--out", metavar="DIR", help="output directory")
    p_train.add_argument("--resume", metavar="CKPT",
                         help="continue a run of the same config from its checkpoint")

    p_vis = sub.add_parser("visitation",
                           help="score visited states of three policies under a "
                                "frozen SRL model, in the curious run's config")
    p_vis.add_argument("--srl-ckpt", required=True, metavar="CKPT",
                       help="checkpoint providing the frozen reference SRL model")
    p_vis.add_argument("--task-ckpt", required=True, metavar="CKPT",
                       help="checkpoint providing the task policy")
    p_vis.add_argument("--cure-ckpt", required=True, metavar="CKPT",
                       help="checkpoint providing the curious policy")
    p_vis.add_argument("--episodes", type=int, default=10)
    p_vis.add_argument("--out", default="runs", metavar="DIR", help="output directory")

    p_plot = sub.add_parser("plot", help="render reward curves from metric CSVs")
    p_plot.add_argument("csv", nargs="+", help="metrics.csv files (one per seed)")
    p_plot.add_argument("--out", required=True, metavar="SVG")
    p_plot.add_argument("--kind", default="eval", choices=["eval", "train"])
    p_plot.add_argument("--column", default="reward", choices=COLUMNS[3:])
    p_plot.add_argument("--title", default="evaluation reward")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--tol", type=float, default=1e-4)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)

    if args.command == "train":
        cfg = build_config(args)
        out_dir = cfg.out or "runs/latest"
        train(cfg, out_dir, resume=args.resume)
        print(f"run complete: {out_dir}")
        return 0

    if args.command == "visitation":
        os.makedirs(args.out, exist_ok=True)
        out_csv = os.path.join(args.out, "visitation.csv")
        results = visitation_experiment(args.srl_ckpt, args.task_ckpt, args.cure_ckpt,
                                        args.episodes, out_csv)
        for name, r in results.items():
            print(f"{name}: min={r['min']:.6g} mean={r['mean']:.6g} max={r['max']:.6g}")
        cure_mean = results["cure"]["mean"]
        print(f"mean ratio cure/random={cure_mean / results['random']['mean']:.3g} "
              f"cure/task={cure_mean / results['task']['mean']:.3g}")
        print(f"wrote {out_csv}")
        return 0

    if args.command == "plot":
        plot_reward_curves(args.csv, args.out, kind=args.kind,
                           column=args.column, title=args.title)
        print(f"wrote {args.out}")
        return 0

    if args.command == "gradcheck":
        _, worst = run_gradient_suite(seed=args.seed, tol=args.tol)
        return 0 if worst < args.tol else 1

    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
