"""Curiosity layer: intrinsic reward from the SRL error and action mixing.

The curious policy is a second SAC agent rewarded by the current
representation error instead of the task reward. During collection each step
draws uniform epsilon and acts with the curious policy when epsilon < p_c.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class ActionSource(Enum):
    TASK = "task"
    CURIOUS = "curious"
    RANDOM = "random"


def intrinsic_reward(errors: np.ndarray, beta: float) -> np.ndarray:
    """r = beta * per-sample SRL error, recomputed fresh at every update."""
    return beta * np.asarray(errors, dtype=np.float32)


def choose_source(mix_rng: np.random.Generator, p_c: float,
                  curious_available: bool) -> ActionSource:
    """Per-step policy selection after seeding (the trainer seeds at random)."""
    if not curious_available:
        return ActionSource.TASK
    eps = mix_rng.random()
    return ActionSource.CURIOUS if eps < p_c else ActionSource.TASK

