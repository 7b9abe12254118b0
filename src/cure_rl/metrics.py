"""CSV metrics logging with deterministic content.

One row per training episode and one per evaluation. Each column after
``reward`` is the mean of the values added to the ``LossAggregator`` under
that column's name since the last row, or 0 when none was added. Adding a
column is one ``COLUMNS`` entry plus one ``agg.add`` call. Wall-clock timings
go to a ``<file>.time`` sidecar so the main CSV is a pure function of
(config, seed).
"""

from __future__ import annotations

import os
import time

import numpy as np

from .checkpoint import CheckpointError

COLUMNS = (
    "kind", "step", "episode", "reward",
    "critic_loss_task", "actor_loss_task", "alpha_loss_task", "srl_loss",
    "critic_loss_cure", "actor_loss_cure", "alpha_loss_cure",
    "intrinsic_reward_mean", "curious_fraction",
)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.9g}"


class LossAggregator:
    """Running sum and count of the values added under each column name."""

    def __init__(self):
        self.sums = {k: 0.0 for k in COLUMNS[4:]}
        self.counts = {k: 0 for k in COLUMNS[4:]}

    def add(self, column: str, value: float):
        self.sums[column] += float(value)
        self.counts[column] += 1

    def flush(self) -> dict:
        """The mean of each column since the last flush; then starts over."""
        out = {k: self.sums[k] / n if (n := self.counts[k]) else 0.0 for k in self.sums}
        self.__init__()
        return out

    # checkpoint support: aggregator state must survive a resume
    def export_state(self) -> dict:
        return {"sums": dict(self.sums), "counts": dict(self.counts)}

    def import_state(self, state: dict):
        self.sums = {k: float(v) for k, v in state["sums"].items()}
        self.counts = {k: int(v) for k, v in state["counts"].items()}


class MetricsWriter:
    """Writes ``path`` anew, or with ``rows`` keeps its header and first
    ``rows`` rows (and as many sidecar lines) and appends after them: a
    resumed run drops whatever was logged past its checkpoint."""

    def __init__(self, path: str, rows: int = 0):
        self.path = path
        self.rows = rows
        self._start = time.monotonic()
        if rows:
            end, time_end = check_rows(path, rows)   # both files, before either is cut
            os.truncate(path, end)
            os.truncate(path + ".time", time_end)
            self._f = open(path, "a")
            self._tf = open(path + ".time", "a")
        else:
            self._f = open(path, "w")
            self._tf = open(path + ".time", "w")
            self._f.write(",".join(COLUMNS) + "\n")
            self._f.flush()

    def write_row(self, kind: str, step: int, episode: int, reward: float, agg: dict):
        values = [kind, step, episode, reward] + [agg.get(c, 0.0) for c in COLUMNS[4:]]
        self._f.write(",".join(_fmt(v) for v in values) + "\n")
        self._f.flush()
        self._tf.write(f"{time.monotonic() - self._start:.3f}\n")
        self._tf.flush()
        self.rows += 1

    def close(self):
        self._f.close()
        self._tf.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def check_rows(path: str, rows: int) -> tuple[int, int]:
    """Where the first ``rows`` metric rows end in ``path`` (after its header)
    and in its ``.time`` sidecar; ``CheckpointError`` if either holds fewer."""
    return _end_of(path, rows + 1, rows), _end_of(path + ".time", rows, rows)


def _end_of(path: str, lines: int, rows: int) -> int:
    try:
        with open(path, "rb") as f:
            if all(f.readline().endswith(b"\n") for _ in range(lines)):
                return f.tell()
    except FileNotFoundError:
        pass
    raise CheckpointError(
        f"{path}: holds fewer than the {rows} metric rows the checkpoint recorded")


def read_metrics(path: str) -> list[dict]:
    """Parse a metrics CSV; malformed input is rejected with its line number."""
    rows = []
    with open(path) as f:
        header = f.readline().rstrip("\n")
        cols = header.split(",")
        if cols != list(COLUMNS):
            raise ValueError(f"{path}:1: unexpected header {header!r}")
        for lineno, raw in enumerate(f, 2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(COLUMNS)} fields, got {len(parts)}")
            row = {"kind": parts[0]}
            try:
                row["step"] = int(parts[1])
                row["episode"] = int(parts[2])
                for name, val in zip(COLUMNS[3:], parts[3:]):
                    row[name] = float(val)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
            rows.append(row)
    return rows
