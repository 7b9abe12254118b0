"""Environments: specs, rendering, dynamics, snapshots, task registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cure_rl.config import ExperimentConfig
from cure_rl.envs import Canvas, EnvSpec, TASK_NAMES, make_task, rollout, wrap_angle

ALL_TASKS = list(TASK_NAMES)


def make(name="point_reacher", seed=0, **kw):
    return make_task(ExperimentConfig(task=name, **kw), np.random.default_rng(seed))


class TestEnvSpec:
    def test_rejects_small_render(self):
        with pytest.raises(ValueError):
            EnvSpec(name="x", action_dim=1, render_size=8, frames=3,
                    action_repeat=1, horizon=100)

    def test_rejects_indivisible_horizon(self):
        with pytest.raises(ValueError):
            EnvSpec(name="x", action_dim=1, render_size=20, frames=3,
                    action_repeat=4, horizon=101)

    def test_episode_len(self):
        s = EnvSpec(name="x", action_dim=1, render_size=20, frames=3,
                    action_repeat=4, horizon=100)
        assert s.episode_len == 25


class TestCanvas:
    def test_values_bounded(self):
        c = Canvas(24)
        c.disc(0.0, 0.0, 0.3, 1.0)
        c.segment(-0.5, -0.5, 0.5, 0.5, 0.05, 0.9)
        assert c.frame.min() >= 0.0 and c.frame.max() <= 1.0

    def test_disc_is_brighter_at_center(self):
        c = Canvas(32)
        c.disc(0.0, 0.0, 0.4, 1.0)
        assert c.frame[16, 16] > c.frame[0, 0]

    def test_top_of_arena_is_row_zero(self):
        c = Canvas(32)
        c.disc(0.0, 0.9, 0.15, 1.0)
        top = c.frame[: 8].sum()
        bottom = c.frame[-8:].sum()
        assert top > bottom


class TestLiteEnv:
    def test_obs_shape_and_dtype(self):
        env = make(render_size=24, frames=3)
        obs = env.reset()
        assert obs.shape == (3, 24, 24)
        assert obs.dtype == np.float32
        assert 0.0 <= obs.min() and obs.max() <= 1.0

    def test_newest_frame_last(self):
        env = make(render_size=20)
        env.reset()
        obs, _, _ = env.step(np.ones(env.spec.action_dim))
        assert np.array_equal(obs[-1], env.render())

    def test_fixed_horizon(self):
        env = make(render_size=20, horizon=40)
        env.reset()
        steps = 0
        done = False
        while not done:
            _, _, done = env.step(np.zeros(env.spec.action_dim))
            steps += 1
        assert steps == env.spec.episode_len

    def test_rejects_nan_action(self):
        env = make(render_size=20)
        env.reset()
        with pytest.raises(ValueError):
            env.step(np.array([np.nan, 0.0]))

    def test_rejects_wrong_action_shape(self):
        env = make(render_size=20)
        env.reset()
        with pytest.raises(ValueError):
            env.step(np.zeros(5))

    def test_snapshot_restore_replays_identically(self):
        env = make(render_size=20, seed=3)
        env.reset()
        rng = np.random.default_rng(0)
        actions = rng.uniform(-1, 1, (10, env.spec.action_dim))
        for a in actions[:4]:
            env.step(a)
        snap = env.snapshot()
        first = [env.step(a) for a in actions[4:]]
        env.restore(snap)
        second = [env.step(a) for a in actions[4:]]
        for (o1, r1, d1), (o2, r2, d2) in zip(first, second):
            np.testing.assert_array_equal(o1, o2)
            assert r1 == r2 and d1 == d2

    def test_same_seed_same_rollout(self):
        def rollout(seed):
            env = make(render_size=20, seed=seed)
            obs = env.reset()
            total = 0.0
            for _ in range(10):
                obs, r, _ = env.step(np.full(env.spec.action_dim, 0.3))
                total += r
            return obs, total

        o1, t1 = rollout(5)
        o2, t2 = rollout(5)
        np.testing.assert_array_equal(o1, o2)
        assert t1 == t2


class TestTasks:
    @pytest.mark.parametrize("name", ALL_TASKS)
    def test_every_task_runs(self, name):
        env = make(name, 1, render_size=20)
        obs = env.reset()
        assert obs.shape == (3, 20, 20)
        rng = np.random.default_rng(2)
        for _ in range(5):
            obs, r, done = env.step(rng.uniform(-1, 1, env.spec.action_dim))
            assert np.isfinite(r)

    def test_unknown_task_lists_valid_names(self):
        with pytest.raises(ValueError) as e:
            make("noop")
        for name in ALL_TASKS:
            assert name in str(e.value)

    def test_cartpole_reward_unit_interval(self):
        env = make("cartpole_swingup", render_size=20)
        env.reset()
        rng = np.random.default_rng(1)
        for _ in range(30):
            _, r, done = env.step(rng.uniform(-1, 1, 1))
            assert 0.0 <= r <= env.spec.action_repeat
            if done:
                env.reset()

    def test_cartpole_starts_hanging_with_low_reward(self):
        rewards = []
        for seed in range(5):
            env = make("cartpole_swingup", seed, render_size=20)
            env.reset()
            _, r, _ = env.step(np.zeros(1))
            rewards.append(r / env.spec.action_repeat)
        assert np.mean(rewards) < 0.3

    def test_finger_spin_rewards_fast_rotation(self):
        env = make("finger_spin_lite", render_size=20)
        env.reset()
        total = 0.0
        for _ in range(100):
            _, r, done = env.step(np.ones(1))
            total += r
            if done:
                env.reset()
        assert total > 0.0

    def test_sparse_reacher_reward_binary_per_inner_step(self):
        env = make("reacher_easy", render_size=20)
        env.reset()
        rng = np.random.default_rng(3)
        for _ in range(50):
            _, r, done = env.step(rng.uniform(-1, 1, 2))
            assert r == int(r) and 0 <= r <= env.spec.action_repeat
            if done:
                env.reset()


def test_wrap_angle_range():
    a = wrap_angle(np.array([4.0 * np.pi, -3.5 * np.pi, 0.1]))
    assert np.all(a >= -np.pi) and np.all(a < np.pi)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000))
def test_reset_observation_is_repeated_first_frame(seed):
    env = make(render_size=20, seed=seed)
    obs = env.reset()
    np.testing.assert_array_equal(obs[0], obs[1])
    np.testing.assert_array_equal(obs[1], obs[2])


def test_rollout_visits_each_observation_before_its_action():
    env = make("cartpole_swingup", seed=3, render_size=20, horizon=40)
    resets, steps = [], []
    reset, step = env.reset, env.step

    def recorded_reset():
        resets.append(reset())
        return resets[-1]

    def recorded_step(action):
        steps.append(step(action))
        return steps[-1]

    env.reset, env.step = recorded_reset, recorded_step
    act_rng = np.random.default_rng(4)
    visited = []
    episodes, n = 3, env.spec.episode_len
    mean_return = rollout(env, lambda obs: act_rng.uniform(-1.0, 1.0, size=1),
                          episodes, visited.append)
    assert len(visited) == len(steps) == episodes * n
    # each episode starts at its reset observation; the later visits are the
    # observations its steps returned, all but the final one
    assert all(visited[e * n] is resets[e] for e in range(episodes))
    later = [v for i, v in enumerate(visited) if i % n]
    stepped = [obs for i, (obs, _, _) in enumerate(steps) if (i + 1) % n]
    assert len(later) == len(stepped) and all(v is o for v, o in zip(later, stepped))
    total = 0.0
    for _, r, _ in steps:
        total += r
    assert total > 0 and mean_return == total / episodes
