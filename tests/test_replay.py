"""Replay buffer ring semantics and crop augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        kept = sorted(buf.obs[:len(buf), 0, 0, 0].tolist())
        assert kept == [2.0, 3.0, 4.0, 5.0]

    def test_push_rejects_wrong_shape(self):
        buf = ReplayBuffer(capacity=4)
        fill(buf, 1)
        with pytest.raises(ValueError):
            buf.push(np.zeros((3, 10, 10), dtype=np.float32),
                     np.zeros(2, dtype=np.float32), 0.0, obs_const(0), False)

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
            for field in ("obs", "actions", "rewards", "next_obs", "dones"):
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

    def test_augmented_views_differ_but_cover_source(self):
        rng = np.random.default_rng(3)
        batch = np.random.default_rng(0).random((8, 3, 12, 12)).astype(np.float32)
        a, p = augmented_views(batch, 8, rng)
        assert a.shape == p.shape == (8, 3, 8, 8)
        assert not np.array_equal(a, p)
