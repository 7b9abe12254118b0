"""Fixed-capacity ring-buffer replay store with crop augmentation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Batch:
    obs: np.ndarray         # (B, S, H, W) raw stored observations
    actions: np.ndarray     # (B, d)
    rewards: np.ndarray     # (B,)
    next_obs: np.ndarray    # (B, S, H, W)
    dones: np.ndarray       # (B,)


_FIELDS = ("obs", "actions", "rewards", "next_obs", "dones")


class ReplayBuffer:
    """Ring buffer over transitions; uniform sampling with replacement."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.cursor = 0
        self.count = 0
        self.obs = None
        self.actions = None
        self.rewards = None
        self.next_obs = None
        self.dones = None

    def __len__(self):
        return self.count

    def _allocate(self, obs, action):
        self.obs = np.zeros((self.capacity,) + obs.shape, dtype=np.float32)
        self.next_obs = np.zeros_like(self.obs)
        self.actions = np.zeros((self.capacity, action.shape[0]), dtype=np.float32)
        self.rewards = np.zeros(self.capacity, dtype=np.float32)
        self.dones = np.zeros(self.capacity, dtype=np.float32)

    def push(self, obs, action, reward, next_obs, done):
        obs = np.asarray(obs, dtype=np.float32)
        action = np.asarray(action, dtype=np.float32).reshape(-1)
        next_obs = np.asarray(next_obs, dtype=np.float32)
        if not np.isfinite(reward):
            raise ValueError(f"non-finite reward {reward}")
        if self.obs is None:
            self._allocate(obs, action)
        if obs.shape != self.obs.shape[1:] or next_obs.shape != self.obs.shape[1:]:
            raise ValueError(
                f"observation shape {obs.shape} != stored shape {self.obs.shape[1:]}")
        if action.shape != self.actions.shape[1:]:
            raise ValueError(f"action shape {action.shape} != stored {self.actions.shape[1:]}")
        i = self.cursor
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = 1.0 if done else 0.0
        self.cursor = (self.cursor + 1) % self.capacity
        self.count = min(self.count + 1, self.capacity)

    def sample_indices(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        if self.count < batch_size:
            raise ValueError(f"buffer holds {self.count} transitions, need {batch_size}")
        return rng.integers(0, self.count, size=batch_size)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        idx = self.sample_indices(batch_size, rng)
        return self.gather(idx)

    def gather(self, idx: np.ndarray) -> Batch:
        return Batch(
            obs=self.obs[idx],
            actions=self.actions[idx],
            rewards=self.rewards[idx],
            next_obs=self.next_obs[idx],
            dones=self.dones[idx],
        )

    # -- checkpoint support ------------------------------------------------
    def export_state(self) -> dict:
        state = {"cursor": self.cursor, "count": self.count}
        if self.obs is not None:
            state.update({f: getattr(self, f)[:self.count] for f in _FIELDS})
        return state

    def import_state(self, state: dict):
        if "obs" in state:
            self._allocate(state["obs"][0], state["actions"][0])
            for f in _FIELDS:
                getattr(self, f)[:len(state[f])] = state[f]
        self.cursor = int(state["cursor"])
        self.count = int(state["count"])


def random_crop_batch(obs: np.ndarray, out: int, rng: np.random.Generator) -> np.ndarray:
    b, s, h, w = obs.shape
    if out > h or out > w:
        raise ValueError(f"crop size {out} exceeds observation size {h}x{w}")
    ii = rng.integers(0, h - out + 1, size=b)
    jj = rng.integers(0, w - out + 1, size=b)
    result = np.empty((b, s, out, out), dtype=obs.dtype)
    for n in range(b):
        result[n] = obs[n, :, ii[n]:ii[n] + out, jj[n]:jj[n] + out]
    return result


def center_crop(obs: np.ndarray, out: int) -> np.ndarray:
    """Center-crop (..., H, W) to (..., out, out)."""
    h, w = obs.shape[-2:]
    if out > h or out > w:
        raise ValueError(f"crop size {out} exceeds observation size {h}x{w}")
    i = (h - out) // 2
    j = (w - out) // 2
    return obs[..., i:i + out, j:j + out].copy()


def augmented_views(obs: np.ndarray, out: int, rng: np.random.Generator):
    """Two independent random-crop views of each observation (anchor, positive)."""
    return random_crop_batch(obs, out, rng), random_crop_batch(obs, out, rng)
