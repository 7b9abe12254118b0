"""Fixed-capacity ring-buffer replay store with crop augmentation.

Layout. An observation is a stack of S frames, and consecutive env steps
share S - 1 of them, so the buffer stores each frame once. ``frames`` is a
ring of single frames and ``index`` holds, per transition slot, the frame
ids of ``obs`` (columns ``:S``) and of ``next_obs`` (columns ``S:``). A frame
id is a running count; frame ``i`` lives at ``frames[i % len(frames)]``.
``gather`` rebuilds both stacks with one fancy index each, so a batch holds
bit for bit the values pushed, in the layout of a two-stack buffer.

Reuse rule. ``push`` accepts any pair of stacks and gives two frames one id
only when they are bitwise equal, compared as raw bytes (so ``-0.0`` is not
``0.0`` and a ``NaN`` equals itself): ``obs`` takes the previous push's
``next_obs`` ids when it equals that stack; ``next_obs`` takes ``obs``'s ids
shifted by one and stores only its last frame when ``next_obs[:-1]`` equals
``obs[1:]``; and within a stack stored fresh, a frame equal to the one before
it takes that frame's id. Env traffic so stores one frame per step plus one
per reset. A transition references no id below the lowest id of the one
pushed before it, so the live frames are the ids from the oldest live
transition's lowest id up. The ring is sized for env traffic and grows,
deterministically, before a push would overwrite a live frame.

The ``obs`` and ``next_obs`` properties materialize the ``(count, S, ...)``
stacks for inspection; training reads the buffer only through ``gather``.
``export_state`` gives the canonical form a checkpoint holds: the frames live
transitions reference, in id order, and the index renumbered to match.
"""

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


_FIELDS = ("actions", "rewards", "dones")


class ReplayBuffer:
    """Ring buffer over transitions; uniform sampling with replacement."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.cursor = 0
        self.count = 0
        self.frames = None      # (ring size, *frame shape) float32
        self.index = None       # (capacity, 2 S) int64 frame ids: obs, then next_obs
        self.actions = None
        self.rewards = None
        self.dones = None
        self.next_id = 0        # id of the next frame stored
        self._last = None       # (ids, bytes) of the previous push's next_obs
        self._low = 0           # at most the lowest live frame id, which never falls

    def __len__(self):
        return self.count

    def _allocate(self, frame_shape: tuple, stack: int, action_dim: int, ring: int = 0):
        # env traffic keeps at most capacity + resets + S frames live, so this
        # ring never grows for episodes of 8 steps or more; np.zeros leaves
        # the pages a run has not reached yet unallocated
        ring = max(ring, self.capacity + self.capacity // 8 + stack)
        self.frames = np.zeros((ring,) + frame_shape, dtype=np.float32)
        self.index = np.zeros((self.capacity, 2 * stack), dtype=np.int64)
        self.actions = np.zeros((self.capacity, action_dim), dtype=np.float32)
        self.rewards = np.zeros(self.capacity, dtype=np.float32)
        self.dones = np.zeros(self.capacity, dtype=np.float32)

    def _check(self, obs, action, reward, next_obs):
        if not np.isfinite(reward):
            raise ValueError(f"non-finite reward {reward}")
        if obs.ndim < 1 or len(obs) == 0:
            raise ValueError(f"observation shape {obs.shape} is not a stack of frames")
        if next_obs.shape != obs.shape:
            raise ValueError(f"next observation shape {next_obs.shape} != {obs.shape}")
        if self.frames is None:
            return
        stored = (self.index.shape[1] // 2,) + self.frames.shape[1:]
        if obs.shape != stored:
            raise ValueError(f"observation shape {obs.shape} != stored shape {stored}")
        if action.shape != self.actions.shape[1:]:
            raise ValueError(f"action shape {action.shape} != stored {self.actions.shape[1:]}")

    def push(self, obs, action, reward, next_obs, done):
        obs = np.ascontiguousarray(obs, dtype=np.float32)
        action = np.asarray(action, dtype=np.float32).reshape(-1)
        next_obs = np.ascontiguousarray(next_obs, dtype=np.float32)
        self._check(obs, action, reward, next_obs)
        if self.frames is None:
            self._allocate(obs.shape[1:], len(obs), action.shape[0])
        next_bytes = next_obs.tobytes()
        ids, new = self._frame_ids(obs, next_obs, next_bytes)
        self._store(ids, new)
        self._last = ids[len(obs):], next_bytes
        i = self.cursor
        self.index[i] = ids
        self.actions[i] = action
        self.rewards[i] = reward
        self.dones[i] = 1.0 if done else 0.0
        self.cursor = (self.cursor + 1) % self.capacity
        self.count = min(self.count + 1, self.capacity)

    def _frame_ids(self, obs, next_obs, next_bytes: bytes) -> tuple[list, list]:
        """The push's ``2 S`` frame ids by the reuse rule, and the frames
        that take the new ids ``next_id, next_id + 1, ...`` in order."""
        new, obs_bytes = [], obs.tobytes()
        if self._last is not None and self._last[1] == obs_bytes:
            obs_ids = self._last[0]
        else:
            obs_ids = self._fresh_ids(obs, new)
        frame = len(obs_bytes) // len(obs)
        if next_bytes[:len(next_bytes) - frame] == obs_bytes[frame:]:
            next_ids = obs_ids[1:] + [self.next_id + len(new)]
            new.append(next_obs[-1])
        else:
            next_ids = self._fresh_ids(next_obs, new)
        return obs_ids + next_ids, new

    def _fresh_ids(self, stack, new: list) -> list:
        """Ids for a stack stored fresh, whose frames are appended to ``new``;
        a frame bitwise equal to the one before it shares that frame's id."""
        ids = []
        for k, frame in enumerate(stack):
            if k and frame.tobytes() == stack[k - 1].tobytes():
                ids.append(ids[-1])
            else:
                ids.append(self.next_id + len(new))
                new.append(frame)
        return ids

    def _store(self, ids: list, new: list):
        """Write ``new`` under the next ids, first growing the ring if that
        would overwrite a frame the buffer still references after this push."""
        end = self.next_id + len(new)
        if end - self._low > len(self.frames):
            if self.count < self.capacity:
                oldest = 0 if self.count else None
            else:   # this push overwrites slot ``cursor``
                oldest = (self.cursor + 1) % self.capacity if self.capacity > 1 else None
            self._low = min(ids if oldest is None else ids + self.index[oldest].tolist())
            if end - self._low > len(self.frames):
                ring = len(self.frames)
                self._grow(max(end - self._low, ring + ring // 8), self._low)
        for frame in new:
            self.frames[self.next_id % len(self.frames)] = frame
            self.next_id += 1

    def _grow(self, size: int, low: int):
        """Move frames ``low .. next_id - 1`` into a ring of ``size`` frames."""
        frames = np.zeros((size,) + self.frames.shape[1:], dtype=np.float32)
        old, i = len(self.frames), low
        while i < self.next_id:   # at most three contiguous runs
            a, b = i % old, i % size
            n = min(self.next_id - i, old - a, size - b)
            frames[b:b + n] = self.frames[a:a + n]
            i += n
        self.frames = frames

    def _stacks(self, rows: np.ndarray, half: int) -> np.ndarray:
        s = self.index.shape[1] // 2
        return self.frames[rows[:, half * s:(half + 1) * s] % len(self.frames)]

    @property
    def obs(self) -> np.ndarray | None:
        """The live ``obs`` stacks, ``(count, S, ...)``, materialized; for inspection."""
        return None if self.index is None else self._stacks(self.index[:self.count], 0)

    @property
    def next_obs(self) -> np.ndarray | None:
        """The live ``next_obs`` stacks, ``(count, S, ...)``, materialized; for inspection."""
        return None if self.index is None else self._stacks(self.index[:self.count], 1)

    def sample_indices(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        if self.count < batch_size:
            raise ValueError(f"buffer holds {self.count} transitions, need {batch_size}")
        return rng.integers(0, self.count, size=batch_size)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        idx = self.sample_indices(batch_size, rng)
        return self.gather(idx)

    def gather(self, idx: np.ndarray) -> Batch:
        rows = self.index[idx]
        return Batch(
            obs=self._stacks(rows, 0),
            actions=self.actions[idx],
            rewards=self.rewards[idx],
            next_obs=self._stacks(rows, 1),
            dones=self.dones[idx],
        )

    # -- checkpoint support ------------------------------------------------
    def export_state(self) -> dict:
        state = {"cursor": self.cursor, "count": self.count}
        if self.index is not None:
            live = self.index[:self.count]
            ids, renumbered = np.unique(live, return_inverse=True)
            state["frames"] = self.frames[ids % len(self.frames)]
            state["index"] = renumbered.reshape(live.shape).astype(np.int64)
            state.update({f: getattr(self, f)[:self.count] for f in _FIELDS})
        return state

    def import_state(self, state: dict):
        self.__init__(self.capacity)
        if "index" in state:
            frames, index = state["frames"], state["index"]
            if index.size and not 0 <= index.min() <= index.max() < len(frames):
                raise ValueError("replay index refers to a frame the state does not hold")
            self._allocate(frames.shape[1:], index.shape[1] // 2, state["actions"].shape[1],
                           len(frames))
            self.frames[:len(frames)] = frames
            self.index[:len(index)] = index
            for f in _FIELDS:
                getattr(self, f)[:len(state[f])] = state[f]
            self.next_id = len(frames)
            last = index[int(state["cursor"]) - 1, index.shape[1] // 2:]
            self._last = last.tolist(), frames[last].tobytes()
        self.cursor = int(state["cursor"])
        self.count = int(state["count"])


def random_crop_batch(obs: np.ndarray, out: int, rng: np.random.Generator) -> np.ndarray:
    """One random ``out x out`` window per observation, shared by its frames."""
    b, s, h, w = obs.shape
    if out > h or out > w:
        raise ValueError(f"crop size {out} exceeds observation size {h}x{w}")
    ii = rng.integers(0, h - out + 1, size=b)
    jj = rng.integers(0, w - out + 1, size=b)
    windows = np.lib.stride_tricks.sliding_window_view(obs, (out, out), axis=(2, 3))
    return windows[np.arange(b), :, ii, jj]


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
