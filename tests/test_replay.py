"""Replay buffer ring semantics and crop augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cure_rl.config import ExperimentConfig
from cure_rl.envs import make_task
from cure_rl.replay import (ReplayBuffer, augmented_views, center_crop,
                            random_crop_batch)

OBS_SHAPE = (3, 12, 12)


def obs_const(v):
    return np.full(OBS_SHAPE, v, dtype=np.float32)


def fill(buf, n, start=0):
    for i in range(start, start + n):
        buf.push(obs_const(i), np.array([0.1, -0.1], dtype=np.float32),
                 float(i), obs_const(i + 1), i % 7 == 0)


class TestRing:
    def test_grows_then_saturates(self):
        buf = ReplayBuffer(capacity=8)
        fill(buf, 5)
        assert len(buf) == 5
        fill(buf, 10, start=5)
        assert len(buf) == 8

    def test_overwrite_keeps_newest(self):
        buf = ReplayBuffer(capacity=4)
        fill(buf, 6)
        assert buf.obs.shape == buf.next_obs.shape == (4,) + OBS_SHAPE
        assert sorted(buf.obs[:, 0, 0, 0].tolist()) == [2.0, 3.0, 4.0, 5.0]
        assert sorted(buf.next_obs[:, 0, 0, 0].tolist()) == [3.0, 4.0, 5.0, 6.0]

    def test_push_rejects_wrong_shape(self):
        buf = ReplayBuffer(capacity=4)
        fill(buf, 1)
        with pytest.raises(ValueError):
            buf.push(np.zeros((3, 10, 10), dtype=np.float32),
                     np.zeros(2, dtype=np.float32), 0.0, obs_const(0), False)

    def test_rejected_first_push_changes_nothing(self):
        buf = ReplayBuffer(capacity=4)
        with pytest.raises(ValueError):
            buf.push(np.zeros((3, 10, 10), dtype=np.float32), np.zeros(2, dtype=np.float32),
                     0.0, np.zeros((3, 12, 12), dtype=np.float32), False)
        assert buf.obs is None and buf.export_state() == {"cursor": 0, "count": 0}
        fill(buf, 2)
        assert buf.obs.shape == (2,) + OBS_SHAPE

    def test_push_rejects_nonfinite_reward(self):
        buf = ReplayBuffer(capacity=4)
        with pytest.raises(ValueError):
            buf.push(obs_const(0), np.zeros(2, dtype=np.float32),
                     float("nan"), obs_const(1), False)

    def test_sample_before_fill_rejected(self):
        buf = ReplayBuffer(capacity=4)
        fill(buf, 2)
        with pytest.raises(ValueError):
            buf.sample(3, np.random.default_rng(0))

    def test_sample_fields_consistent(self):
        buf = ReplayBuffer(capacity=16)
        fill(buf, 10)
        batch = buf.sample(6, np.random.default_rng(0))
        # next_obs of transition i is obs value + 1 by construction
        np.testing.assert_allclose(batch.next_obs[:, 0, 0, 0],
                                   batch.obs[:, 0, 0, 0] + 1.0)
        np.testing.assert_allclose(batch.rewards, batch.obs[:, 0, 0, 0])

    def test_sampling_is_seed_deterministic(self):
        buf = ReplayBuffer(capacity=16)
        fill(buf, 12)
        i1 = buf.sample_indices(8, np.random.default_rng(42))
        i2 = buf.sample_indices(8, np.random.default_rng(42))
        np.testing.assert_array_equal(i1, i2)

    def test_export_import_roundtrip(self):
        for pushes in (0, 6, 11):   # empty, filling, wrapped
            buf = ReplayBuffer(capacity=8)
            fill(buf, pushes)
            buf2 = ReplayBuffer(capacity=8)
            buf2.import_state(buf.export_state())
            for b in (buf, buf2):   # the copy goes on exactly like the original
                fill(b, 3, start=pushes)
            assert (len(buf2), buf2.cursor) == (len(buf), buf.cursor), pushes
            assert state_bytes(buf2.export_state()) == state_bytes(buf.export_state())
            for field in ("obs", "next_obs"):   # the properties the checkpoint rebuilds
                np.testing.assert_array_equal(getattr(buf, field), getattr(buf2, field))


@settings(max_examples=30, deadline=None)
@given(capacity=st.integers(1, 20), pushes=st.integers(0, 50))
def test_ring_count_and_cursor_invariants(capacity, pushes):
    buf = ReplayBuffer(capacity=capacity)
    fill(buf, pushes)
    assert len(buf) == min(pushes, capacity)
    assert buf.cursor == pushes % capacity
    if pushes >= capacity:
        stored = set(buf.rewards[:len(buf)].tolist())
        expected = set(float(i) for i in range(pushes - capacity, pushes))
        assert stored == expected


def state_bytes(state: dict) -> dict:
    """An exported buffer state with each array as (dtype, shape, raw bytes)."""
    return {k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for k, v in state.items()}


class TwoStackBuffer:
    """The layout the frame ring replaces: each slot keeps obs and next_obs whole."""

    def __init__(self, capacity):
        self.capacity, self.cursor, self.count = capacity, 0, 0
        self.slots = [None] * capacity

    def push(self, obs, action, reward, next_obs, done):
        self.slots[self.cursor] = (np.array(obs, np.float32), np.array(next_obs, np.float32),
                                   np.float32(reward))
        self.cursor = (self.cursor + 1) % self.capacity
        self.count = min(self.count + 1, self.capacity)

    def stacks(self):
        return (np.stack([self.slots[i][0] for i in range(self.count)]),
                np.stack([self.slots[i][1] for i in range(self.count)]),
                np.array([self.slots[i][2] for i in range(self.count)]))


# 2x2 frames where == and bitwise equality disagree: 0.0 == -0.0 but their
# bits differ, and NaN != NaN although its bits match
PALETTE = [np.array(f, dtype=np.float32).reshape(2, 2) for f in (
    [0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, 0.0], [-0.0, -0.0, -0.0, -0.0],
    [np.nan, 0.0, 1.0, 2.0], [np.nan] * 4, [1.0, 2.0, 3.0, -0.0])]
FRAME = st.integers(0, len(PALETTE) - 1)
STACK = st.lists(FRAME, min_size=3, max_size=3)
PUSH = st.one_of(
    st.tuples(st.just("step"), FRAME),               # shift the last stack by a frame
    st.tuples(st.just("reset"), FRAME, FRAME),        # a reset stack, then one step
    st.tuples(st.just("unrelated"), STACK, STACK),    # any two stacks, as fill() pushes
    st.tuples(st.just("bad"), st.sampled_from(["shape", "next_shape", "action", "reward"])))


def bad_push(buf, kind):
    obs = np.stack([PALETTE[0]] * 3)
    action, reward, next_obs = np.zeros(2, np.float32), 0.0, obs
    if kind == "shape":
        obs = next_obs = np.zeros((3, 3, 3), np.float32)
    elif kind == "next_shape":
        next_obs = np.zeros((2, 2, 2), np.float32)
    elif kind == "action":
        action = np.zeros(3, np.float32)
    else:
        reward = float("nan")
    buf.push(obs, action, reward, next_obs, False)


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 20), pushes=st.lists(PUSH, max_size=45))
def test_ring_matches_two_stack_oracle(capacity, pushes):
    ring, oracle = ReplayBuffer(capacity), TwoStackBuffer(capacity)
    last = np.stack([PALETTE[0]] * 3)
    action = np.array([0.5, -0.5], np.float32)

    def push_to(buffers, obs, next_obs, reward):
        for b in buffers:
            b.push(obs, action, reward, next_obs, False)

    def assert_matches(buf):
        if buf.count == 0:
            return
        batch = buf.gather(np.arange(buf.count))
        obs, next_obs, rewards = oracle.stacks()
        for got, want in ((batch.obs, obs), (batch.next_obs, next_obs),
                          (buf.obs, obs), (buf.next_obs, next_obs)):
            assert got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert batch.rewards.tobytes() == rewards.tobytes()

    for n, (kind, *args) in enumerate(pushes):
        if kind == "bad":
            before = state_bytes(ring.export_state())
            if args[0] in ("shape", "action") and ring.count == 0:
                continue   # the first good push fixes the shapes
            with pytest.raises(ValueError):
                bad_push(ring, args[0])
            assert state_bytes(ring.export_state()) == before
            continue
        if kind == "step":
            obs = last
        elif kind == "reset":
            obs = np.stack([PALETTE[args[0]]] * 3)
        if kind == "unrelated":
            obs, last = (np.stack([PALETTE[i] for i in s]) for s in args)
        else:
            last = np.concatenate([obs[1:], PALETTE[args[-1]][None]])
        push_to((ring, oracle), obs, last, float(n))
        assert_matches(ring)

    copy = ReplayBuffer(capacity)
    copy.import_state(ring.export_state())
    assert state_bytes(copy.export_state()) == state_bytes(ring.export_state())
    for i in range(3):   # both go on like the two-stack buffer
        obs = last
        last = np.concatenate([obs[1:], PALETTE[i][None]])
        push_to((ring, copy, oracle), obs, last, -1.0 - i)
        assert_matches(ring)
        assert_matches(copy)
    assert state_bytes(copy.export_state()) == state_bytes(ring.export_state())


def test_env_traffic_stores_a_frame_per_step_and_reset():
    cfg = ExperimentConfig(task="point_reacher", render_size=16, horizon=400)
    env = make_task(cfg, np.random.default_rng(0))
    buf = ReplayBuffer(capacity=200)
    rng = np.random.default_rng(1)
    episodes = 3
    for _ in range(episodes):   # 100 steps each, so the ring wraps
        obs, done = env.reset(), False
        while not done:
            next_obs, reward, done = env.step(rng.uniform(-1, 1, size=2))
            buf.push(obs, rng.uniform(-1, 1, size=2), reward, next_obs, done)
            obs = next_obs
    assert buf.count == buf.capacity
    held = len(buf.export_state()["frames"])
    assert held <= buf.count + episodes + cfg.frames
    two_stacks = 2 * buf.count * cfg.frames * 16 * 16 * 4
    assert buf.frames.nbytes <= two_stacks / 3


class TestCrops:
    def test_single_offset_shared_across_frames(self):
        obs = np.zeros((3, 12, 12), dtype=np.float32)
        for f in range(3):
            obs[f] = np.arange(144, dtype=np.float32).reshape(12, 12)
        out = random_crop_batch(obs[None], 8, np.random.default_rng(0))[0]
        assert out.shape == (3, 8, 8)
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[1], out[2])

    def test_crop_is_a_window_of_source(self):
        obs = np.arange(3 * 144, dtype=np.float32).reshape(3, 12, 12)
        out = random_crop_batch(obs[None], 8, np.random.default_rng(1))[0]
        found = any(
            np.array_equal(out, obs[:, i:i + 8, j:j + 8])
            for i in range(5) for j in range(5))
        assert found

    def test_crop_rejects_too_large(self):
        obs = np.zeros((3, 12, 12), dtype=np.float32)
        with pytest.raises(ValueError):
            random_crop_batch(obs[None], 13, np.random.default_rng(0))

    def test_full_size_crop_is_identity(self):
        obs = np.random.default_rng(0).random((3, 12, 12)).astype(np.float32)
        np.testing.assert_array_equal(
            random_crop_batch(obs[None], 12, np.random.default_rng(0))[0], obs)

    def test_center_crop(self):
        obs = np.arange(3 * 144, dtype=np.float32).reshape(3, 12, 12)
        out = center_crop(obs, 8)
        np.testing.assert_array_equal(out, obs[:, 2:10, 2:10])

    def test_batch_crop_independent_offsets(self):
        rng = np.random.default_rng(0)
        base = np.arange(144, dtype=np.float32).reshape(1, 12, 12)
        batch = np.repeat(base[None], 16, axis=0)
        out = random_crop_batch(batch, 8, rng)
        assert out.shape == (16, 1, 8, 8)
        # with 25 possible offsets, 16 crops of the same image should differ
        assert len({out[i].tobytes() for i in range(16)}) > 1

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 33), out=st.integers(1, 20))
    def test_crop_equals_the_per_sample_loop(self, seed, b, out):
        obs = np.random.default_rng(seed).standard_normal((b, 3, 20, 20)).astype(np.float32)
        rng = np.random.default_rng(seed + 1)
        ii = rng.integers(0, 20 - out + 1, size=b)
        jj = rng.integers(0, 20 - out + 1, size=b)
        want = np.stack([obs[n, :, ii[n]:ii[n] + out, jj[n]:jj[n] + out] for n in range(b)])
        got = random_crop_batch(obs, out, np.random.default_rng(seed + 1))
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    def test_augmented_views_differ_but_cover_source(self):
        rng = np.random.default_rng(3)
        batch = np.random.default_rng(0).random((8, 3, 12, 12)).astype(np.float32)
        a, p = augmented_views(batch, 8, rng)
        assert a.shape == p.shape == (8, 3, 8, 8)
        assert not np.array_equal(a, p)
