"""Curiosity layer: intrinsic reward, action-source mixing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cure_rl.cure import ActionSource, choose_source, intrinsic_reward


class TestIntrinsicReward:
    def test_scales_errors_by_beta(self):
        e = np.array([0.1, 0.5, 2.0])
        np.testing.assert_allclose(intrinsic_reward(e, 2.0), 2.0 * e)

    def test_beta_zero_silences_reward(self):
        np.testing.assert_array_equal(intrinsic_reward(np.ones(4), 0.0), np.zeros(4))

    def test_output_is_float32(self):
        assert intrinsic_reward(np.ones(3, dtype=np.float64), 1.0).dtype == np.float32


class TestChooseSource:
    def test_no_curious_agent_falls_back_to_task(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert choose_source(rng, 0.9, curious_available=False) is ActionSource.TASK

    def test_p_c_zero_never_curious(self):
        rng = np.random.default_rng(0)
        sources = {choose_source(rng, 0.0, True) for _ in range(200)}
        assert sources == {ActionSource.TASK}

    def test_p_c_one_always_curious(self):
        rng = np.random.default_rng(0)
        sources = {choose_source(rng, 1.0, True) for _ in range(200)}
        assert sources == {ActionSource.CURIOUS}

    def test_mixing_is_seed_deterministic(self):
        def draw(seed):
            rng = np.random.default_rng(seed)
            return [choose_source(rng, 0.2, True) for _ in range(100)]

        assert draw(7) == draw(7)


@settings(max_examples=20, deadline=None)
@given(p_c=st.floats(0.05, 0.95), seed=st.integers(0, 1000))
def test_curious_fraction_concentrates_near_p_c(p_c, seed):
    rng = np.random.default_rng(seed)
    n = 4000
    hits = sum(choose_source(rng, p_c, True) is ActionSource.CURIOUS
               for _ in range(n))
    # 4000 Bernoulli draws: allow ~4.5 sigma around the mean
    sigma = np.sqrt(p_c * (1 - p_c) / n)
    assert abs(hits / n - p_c) < 4.5 * sigma + 1e-9
