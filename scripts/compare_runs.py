#!/usr/bin/env python3
"""Tell whether two run directories hold the same run, and where they part.

    python scripts/compare_runs.py DIR_A DIR_B

``metrics.csv``, ``pretrain_metrics.csv`` and ``visitation.csv`` are compared
byte for byte. When one differs, the first differing row and the largest
relative difference in each column are printed; when the headers differ, the
columns found in only one file are listed and the shared columns are compared
by name. ``checkpoint.ckpt`` is
compared array by array (dtype, shape and bytes) and entry by entry in its
metadata; a checkpoint either side cannot load (a corrupt file or another
format version) is reported as a difference. Exits 0 when every file present
in either directory is identical, 1 otherwise.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    args = ap.parse_args(argv)
    identical, lines = compare_dirs(args.dir_a, args.dir_b)
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
