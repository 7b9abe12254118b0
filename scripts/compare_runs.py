#!/usr/bin/env python3
"""Tell whether two run directories hold the same run, and where they part.

    python scripts/compare_runs.py DIR_A DIR_B
    python scripts/compare_runs.py --against REV

``metrics.csv``, ``pretrain_metrics.csv`` and ``visitation.csv`` are compared
byte for byte. When one differs, the first differing row and the largest
relative difference in each column are printed; when the headers differ, the
columns found in only one file are listed and the shared columns are compared
by name. ``checkpoint.ckpt`` is
compared array by array (dtype, shape and bytes) and entry by entry in its
metadata; a checkpoint either side cannot load (a corrupt file or another
format version) is reported as a difference. Exits 0 when every file present
in either directory is identical, 1 otherwise.

``--against REV`` proves that the working tree keeps the behaviour of git
revision ``REV``. It exports ``REV``'s ``src`` and ``configs`` with ``git
archive REV | tar -x`` (nothing in ``.git`` changes), runs the canonical run
set ``JOBS`` with each tree's own code and configs, at most ``WORKERS`` jobs at
a time with one BLAS thread each, and prints one verdict per run (A is
``REV``, B the working tree), then each run's per-file report. A job is a
sequence of commands run one after another in the same run directory (a run
and then its ``train --resume``). It exits 0 only when every file of every
run is identical. The runs go under a temporary directory that is deleted
afterwards.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cure_rl import checkpoint
from cure_rl.train import CHECKPOINT_FILE as CHECKPOINT, METRICS_FILE

CSVS = (METRICS_FILE["main"], METRICS_FILE["pretrain"], "visitation.csv")
SHOWN = 10  # differing arrays listed by name


def _rel(x: str, y: str) -> float:
    fx, fy = float(x), float(y)
    d = abs(fx - fy) / max(abs(fx), abs(fy), 1e-30)
    return d if math.isfinite(d) else math.inf


def _project(rows: list, header: list) -> list:
    """The data rows of a CSV (``rows[0]`` is its header) cut down to the
    columns of ``header``, in that order; a missing cell reads as empty."""
    idx = [rows[0].index(c) for c in header]
    return [[r[j] if j < len(r) else "" for j in idx] for r in rows[1:]]


def csv_report(a: bytes, b: bytes) -> list:
    """Lines locating the differences between two differing CSV files."""
    rows_a = list(csv.reader(io.StringIO(a.decode())))
    rows_b = list(csv.reader(io.StringIO(b.decode())))
    if not rows_a or not rows_b:
        return ["  headers differ"]
    lines = []
    if rows_a[0] != rows_b[0]:
        lines.append("  headers differ")
        for side, mine, other in (("A", rows_a[0], rows_b[0]), ("B", rows_b[0], rows_a[0])):
            only = [c for c in mine if c not in other]
            if only:
                lines.append(f"  columns only in {side}: " + ", ".join(only))
    header = [c for c in rows_a[0] if c in rows_b[0]]
    rows_a, rows_b = (_project(rows, header) for rows in (rows_a, rows_b))
    if len(rows_a) != len(rows_b):
        lines.append(f"  {len(rows_a)} vs {len(rows_b)} rows")
    first = next((i for i, (x, y) in enumerate(zip(rows_a, rows_b)) if x != y), None)
    if first is not None:
        lines += [f"  first differing row {first + 1}:",
                  "    A: " + ",".join(rows_a[first]),
                  "    B: " + ",".join(rows_b[first])]
    for j, col in enumerate(header):
        pairs = [(x[j], y[j]) for x, y in zip(rows_a, rows_b) if x[j] != y[j]]
        if not pairs:
            continue
        try:
            worst = max(_rel(x, y) for x, y in pairs)
        except ValueError:
            lines.append(f"  {col}: {len(pairs)} rows differ")
            continue
        lines.append(f"  {col}: {len(pairs)} rows differ, largest relative difference {worst:.3g}")
    return lines


def compare_checkpoints(path_a: str, path_b: str):
    """(identical, lines) for two checkpoints: arrays, metadata, config hash."""
    try:
        arrays_a, meta_a, hash_a = checkpoint.load(path_a)
        arrays_b, meta_b, hash_b = checkpoint.load(path_b)
    except checkpoint.CheckpointError as e:
        return False, [f"cannot compare: {e}"]
    names = sorted(set(arrays_a) | set(arrays_b))
    bad_arrays = []
    for name in names:
        a, b = arrays_a.get(name), arrays_b.get(name)
        if a is None or b is None:
            bad_arrays.append(f"{name} (only in {'B' if a is None else 'A'})")
        elif a.dtype != b.dtype or a.shape != b.shape:
            bad_arrays.append(f"{name} ({a.dtype}{a.shape} vs {b.dtype}{b.shape})")
        elif a.tobytes() != b.tobytes():
            a, b = a.astype(np.float64), b.astype(np.float64)
            scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-30)
            rel = np.abs(a - b).max(initial=0.0) / scale
            bad_arrays.append(f"{name} (largest difference {rel:.3g} of its largest magnitude)")
    keys = sorted(set(meta_a) | set(meta_b))
    bad_meta = [k for k in keys if k not in meta_a or k not in meta_b
                or json.dumps(meta_a[k], sort_keys=True) != json.dumps(meta_b[k], sort_keys=True)]
    same_hash = hash_a == hash_b
    lines = [f"{len(names)} arrays, {len(bad_arrays)} differ; "
             f"{len(keys)} meta entries, {len(bad_meta)} differ; "
             f"config hash {'same' if same_hash else 'differs'}"]
    lines += [f"  array {n}" for n in bad_arrays[:SHOWN]]
    if len(bad_arrays) > SHOWN:
        lines.append(f"  ... and {len(bad_arrays) - SHOWN} more arrays")
    lines += [f"  meta {k}" for k in bad_meta]
    return not bad_arrays and not bad_meta and same_hash, lines


def compare_dirs(dir_a: str, dir_b: str):
    """(identical, report lines) for two run directories."""
    identical, out = True, []
    for name in CSVS + (CHECKPOINT,):
        pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
        there = os.path.exists(pa), os.path.exists(pb)
        if not any(there):
            continue
        if not all(there):
            identical = False
            out.append(f"{name}: only in {'A' if there[0] else 'B'}")
            continue
        if name == CHECKPOINT:
            same, lines = compare_checkpoints(pa, pb)
            out.append(f"{name}: {lines[0]}")
            out += lines[1:]
        else:
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                a, b = fa.read(), fb.read()
            same = a == b
            out.append(f"{name}: {'identical' if same else 'differs'}")
            if not same:
                out += csv_report(a, b)
        identical = identical and same
    if not out:
        identical = False
        out.append("no run files in either directory")
    return identical, out


# -- the working tree against a git revision ------------------------------

WORKERS = 2
THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# every train run: a 1200-step desk run whose updates start at step 600
DESK = ("--seed", "0", "--set", "init_steps=600",
        "--set", "eval.interval=600", "--set", "eval.episodes=1")


def _train(config: str, *sets: str, steps: int = 1200) -> tuple:
    return ("train", "--config", f"configs/{config}.txt", "--steps", str(steps), *DESK,
            *(a for s in sets for a in ("--set", s)))


def _resumed(config: str, *sets: str) -> list:
    """A run stopped at step 600, then resumed from its checkpoint to 1200
    (the config hash leaves out ``steps``). Updates start at step 300 here,
    so the resumed run starts from saved Adam moments; the contrastive head's
    float64 groups come back float32 from the checkpoint and widen again."""
    sets = sets + ("init_steps=300",)
    return [_train(config, *sets, steps=600),
            _train(config, *sets) + ("--resume", os.path.join("{out}", CHECKPOINT))]


def _visitation(group: str) -> tuple:
    """Visitation scored by the group's mixed run, against its task and cure runs."""
    def ckpt(run):
        return os.path.join("{root}", group, run, CHECKPOINT)
    return ("visitation", "--srl-ckpt", ckpt("mixed"), "--task-ckpt", ckpt("task"),
            "--cure-ckpt", ckpt("cure"), "--episodes", "2")


# (run name, [cure-rl arguments, ...]); ``{root}`` is the directory holding
# one tree's runs and ``{out}`` the job's own. A visitation run reads runs
# listed before it.
JOBS = [
    ("reacher_hard/rae", [_train("desk_reacher_hard")]),
    ("reacher_hard/contrastive", [_train("desk_reacher_hard", "srl.head=contrastive")]),
    ("reacher_hard/no_cure", [_train("desk_reacher_hard", "cure.enabled=false")]),
    ("reacher_hard/mode_cure", [_train("desk_reacher_hard", "mode=cure")]),
    ("reacher_hard/pretrain_cure",
     [_train("desk_reacher_hard", "pretrain.mode=cure", "pretrain.steps=700")]),
    ("reacher_hard/pretrain_random",
     [_train("desk_reacher_hard", "pretrain.mode=random", "pretrain.steps=700")]),
    ("reacher_hard/rae_resumed", _resumed("desk_reacher_hard")),
    ("reacher_hard/contrastive_resumed", _resumed("desk_reacher_hard", "srl.head=contrastive")),
] + [(f"point_reacher_{head}/{run}", [args]) for head in ("rae", "contrastive")
     for run, args in (
    ("task", _train("desk_point_reacher", f"srl.head={head}", "cure.enabled=false")),
    ("cure", _train("desk_point_reacher", f"srl.head={head}", "mode=cure")),
    ("mixed", _train("desk_point_reacher", f"srl.head={head}")),
    ("visitation", _visitation(f"point_reacher_{head}")))]


def export(rev: str, dest: str):
    """``REV``'s ``src`` and ``configs``, written under ``dest`` by ``git archive``."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev, "src", "configs"],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"compare_runs: cannot export {rev!r} with git archive")


def run_job(tree: str, root: str, name: str, commands: list):
    """Runs the commands of one job of ``JOBS`` in turn with ``tree``'s code,
    up to the first that fails; returns (exit code, stderr) of the last run."""
    out = os.path.join(root, name)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **THREADS)
    for args in commands:
        args = tuple(a.format(root=root, out=out) for a in args)
        cmd = [sys.executable, "-m", "cure_rl.cli", *args, "--out", out]
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode:
            break
    return proc.returncode, proc.stderr


def against(rev: str, work: str) -> tuple:
    """(identical, verdict lines, report lines) for ``JOBS`` at ``rev`` (A)
    and in the working tree (B)."""
    trees = {"A": os.path.join(work, "tree"), "B": ROOT}
    roots = {side: os.path.join(work, f"runs_{side}") for side in trees}
    export(rev, trees["A"])
    results = {}
    # a visitation job starts once every train job before it has finished
    batches, batch = [], []
    for name, commands in JOBS:
        if commands[0][0] != "train" and batch:
            batches.append(batch)
            batch = []
        batch.append((name, commands))
    batches.append(batch)
    with ThreadPoolExecutor(WORKERS) as pool:
        for batch in batches:
            futures = {(side, name): pool.submit(run_job, trees[side], roots[side], name,
                                                 commands)
                       for name, commands in batch for side in trees}
            results.update((key, f.result()) for key, f in futures.items())
    identical, verdicts, report = True, [], []
    for name, _ in JOBS:
        failed = [(side, *results[side, name]) for side in trees if results[side, name][0]]
        if failed:
            same = False
            verdicts.append(f"{name}: failed in " + " and ".join(side for side, *_ in failed))
            for side, code, err in failed:
                tail = err.strip().splitlines()[-1:] or [""]
                report.append(f"== {name} ({side} exited {code}): {tail[0]}")
        else:
            same, lines = compare_dirs(*(os.path.join(roots[side], name) for side in trees))
            verdicts.append(f"{name}: {'identical' if same else 'differs'}")
            report += [f"== {name}"] + lines
        identical = identical and same
    return identical, verdicts, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="*", metavar="DIR", help="two run directories")
    ap.add_argument("--against", metavar="REV",
                    help="run JOBS at git revision REV and in the working tree")
    args = ap.parse_args(argv)
    if args.against is None:
        if len(args.dirs) != 2:
            ap.error("give two run directories, or --against REV")
        identical, lines = compare_dirs(*args.dirs)
        print("\n".join(lines))
        return 0 if identical else 1
    if args.dirs:
        ap.error("--against takes no run directories")
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as work:
        identical, verdicts, report = against(args.against, work)
    print(f"A: {args.against}, B: the working tree; {len(JOBS)} runs")
    print("\n".join(verdicts + report))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
