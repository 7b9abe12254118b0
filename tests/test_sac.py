"""SAC agent: squashed Gaussian, twin critics, targets, temperature."""

import numpy as np
import pytest

import cure_rl.autodiff as ad
from cure_rl.autodiff import LOG_2PI, Tensor
from cure_rl.config import ExperimentConfig, SrlConfig
from cure_rl.sac import GaussianActor, QFunction, SacAgent
from cure_rl.srl import Encoder

Z = 8
ACT = 2
HID = 16
CROP = 16


def cfg():
    return ExperimentConfig(hidden_dim=HID, srl=SrlConfig(z_dim=Z))


def agent(seed=0, config=None, **kw):
    return SacAgent(np.random.default_rng(seed), config or cfg(), ACT, "task", 0.99, **kw)


def make_actor(seed=0):
    return GaussianActor(np.random.default_rng(seed), cfg(), ACT, "a")


def snapshot(opt) -> list:
    """Everything an optimizer step moves: ``t``, group values and moments."""
    return [np.array(opt.t)] + [g.data.copy() for g in opt.groups] + \
        [a.copy() for st in opt.state.values() for a in (st.m, st.v)]


def assert_unchanged(opt, before):
    for got, want in zip(snapshot(opt), before, strict=True):
        np.testing.assert_array_equal(got, want)


def skip_warnings(caplog) -> list:
    msgs = [r.getMessage() for r in caplog.records if r.name == "cure_rl.sac"]
    assert all("skipped" in m and "critic target" not in m for m in msgs)
    return msgs


class TestActor:
    def test_standard_normal_logprob_oracle(self):
        """mu=0, sigma=1, eps=0 -> log pi = -dim/2 * ln(2 pi); tanh correction 0."""
        actor = make_actor()
        actor.l3.w.data[:] = 0.0
        actor.l3.b.data[:] = 0.0
        z = Tensor(np.random.default_rng(0).standard_normal((3, Z)).astype(np.float32))
        a, logp = actor.sample(z, np.zeros((3, ACT)))
        np.testing.assert_allclose(a.data, np.zeros((3, ACT)), atol=1e-7)
        np.testing.assert_allclose(logp.data, -0.5 * LOG_2PI * ACT * np.ones(3),
                                   rtol=1e-5)

    def test_logprob_matches_numpy_formula(self):
        actor = make_actor(1)
        rng = np.random.default_rng(2)
        z = Tensor(rng.standard_normal((5, Z)).astype(np.float32))
        eps = rng.standard_normal((5, ACT))
        a, logp = actor.sample(z, eps)
        mu, log_std = actor.dist_params(z)
        std = np.exp(log_std)
        u = mu + std * eps.astype(np.float32)
        gauss = np.sum(-0.5 * ((u - mu) / std) ** 2 - log_std
                       - 0.5 * LOG_2PI, axis=1)
        corr = np.sum(2.0 * (np.log(2.0) - u - np.logaddexp(0.0, -2.0 * u)), axis=1)
        np.testing.assert_allclose(logp.data, gauss - corr, rtol=1e-4)
        np.testing.assert_allclose(a.data, np.tanh(u), rtol=1e-5)

    def test_actions_strictly_inside_unit_cube(self):
        actor = make_actor(3)
        rng = np.random.default_rng(0)
        z = Tensor(rng.standard_normal((64, Z)).astype(np.float32) * 3)
        a, _ = actor.sample(z, rng.standard_normal((64, ACT)) * 3)
        assert np.all(np.abs(a.data) < 1.0)

    def test_log_std_clipped(self):
        actor = make_actor()
        actor.l3.b.data[ACT:] = 100.0
        _, log_std = actor.dist_params(Tensor(np.zeros((1, Z), dtype=np.float32)))
        assert np.all(log_std <= 2.0)

    def test_deterministic_act_is_tanh_mu(self):
        ag = agent()
        enc = Encoder(np.random.default_rng(5), 3, CROP, Z)
        obs = np.random.default_rng(0).random((3, CROP, CROP)).astype(np.float32)
        a = ag.act(enc, obs, deterministic=True)
        with ad.no_grad():
            z = enc(Tensor(obs[None]))
            mu, _ = ag.actor.dist_params(z)
        np.testing.assert_allclose(a, np.tanh(mu[0]), rtol=1e-6)


class TestCriticAndTargets:
    def test_targets_start_equal_and_frozen(self):
        ag = agent()
        for src, dst in ((ag.q1, ag.tq1), (ag.q2, ag.tq2)):
            sp, dp = src.params(), dst.params()
            for n, p in sp.items():
                tp = dp[n.replace(".q", ".tq", 1)]
                np.testing.assert_array_equal(p.data, tp.data)
                assert not tp.requires_grad

    def test_polyak_oracle(self):
        """target <- tau * online + (1 - tau) * target, for every target parameter."""
        config = cfg()
        config.critic.tau = 0.25
        ag = agent(config=config)
        for online, target in ((ag.q1, ag.tq1), (ag.q2, ag.tq2)):
            for p in online.params().values():
                p.data[...] = 2.0
            for p in target.params().values():
                p.data[...] = 0.0
        ag.polyak()
        for target in (ag.tq1, ag.tq2):
            for p in target.params().values():
                np.testing.assert_array_equal(p.data, np.full_like(p.data, 0.5))

    def test_compute_target_oracle(self):
        ag = agent(7)
        rng_z = np.random.default_rng(1)
        z2 = Tensor(np.tanh(rng_z.standard_normal((4, Z))).astype(np.float32))
        rewards = np.array([0.0, 1.0, 0.5, 2.0], dtype=np.float32)
        dones = np.array([0.0, 0.0, 1.0, 0.0], dtype=np.float32)
        y = ag.compute_target(z2, rewards, dones, np.random.default_rng(3))
        with ad.no_grad():
            eps = np.random.default_rng(3).standard_normal((4, ACT))
            a2, logp2 = ag.actor.sample(z2, eps)
            q = np.minimum(ag.tq1(z2, a2).data, ag.tq2(z2, a2).data)
        expected = rewards + 0.99 * (1.0 - dones) * (q - ag.alpha * logp2.data)
        np.testing.assert_allclose(y, expected, rtol=1e-5)
        # terminal transition bootstraps nothing
        np.testing.assert_allclose(y[2], 0.5, rtol=1e-6)

    def test_target_rejects_length_mismatch(self):
        ag = agent()
        z2 = Tensor(np.zeros((4, Z), dtype=np.float32))
        with pytest.raises(ValueError):
            ag.compute_target(z2, np.zeros(3, dtype=np.float32),
                              np.zeros(4, dtype=np.float32), np.random.default_rng(0))

    def test_critic_update_trains_encoder_when_enabled(self):
        rng = np.random.default_rng(0)
        enc = Encoder(np.random.default_rng(1), 3, CROP, Z)
        ag = agent(2, encoder=ad.ParamGroup("encoder", enc.params()))
        w0 = enc.fc.w.data.copy()
        obs = Tensor(rng.random((8, 3, CROP, CROP)).astype(np.float32))
        with ad.no_grad():
            z_next = enc(obs)
        loss = ag.update_critic(enc(obs), rng.uniform(-1, 1, (8, ACT)).astype(np.float32),
                                np.ones(8, dtype=np.float32), np.zeros(8, dtype=np.float32),
                                z_next, np.random.default_rng(5))
        assert loss is not None and np.isfinite(loss)
        assert not np.array_equal(enc.fc.w.data, w0)

    def test_nonfinite_reward_skips_the_critic_step(self, caplog):
        rng = np.random.default_rng(0)
        enc = Encoder(np.random.default_rng(1), 3, CROP, Z)
        ag = agent(2, encoder=ad.ParamGroup("encoder", enc.params()))
        obs = Tensor(rng.random((8, 3, CROP, CROP)).astype(np.float32))
        actions = rng.uniform(-1, 1, (8, ACT)).astype(np.float32)
        rewards, dones = np.ones(8, dtype=np.float32), np.zeros(8, dtype=np.float32)
        with ad.no_grad():
            z_next = enc(obs)
        ag.update_critic(enc(obs), actions, rewards, dones, z_next, np.random.default_rng(5))
        before = snapshot(ag.critic_opt)
        rewards[3] = np.nan
        with caplog.at_level("WARNING", logger="cure_rl.sac"):
            loss = ag.update_critic(enc(obs), actions, rewards, dones, z_next,
                                    np.random.default_rng(6))
        assert np.isnan(loss)
        assert_unchanged(ag.critic_opt, before)
        assert before[0] == 1 and [g.name for g in ag.critic_opt.groups] == ["task.critic", "encoder"]
        assert skip_warnings(caplog) == ["task: critic update skipped: non-finite gradient"]


class TestActorAlpha:
    def test_actor_update_leaves_critic_untouched(self):
        ag = agent(3)
        q_before = ag.q1.l1.w.data.copy()
        z = np.random.default_rng(0).standard_normal((8, Z)).astype(np.float32)
        aloss, alloss = ag.update_actor_and_alpha(z, np.random.default_rng(1))
        assert np.isfinite(aloss) and np.isfinite(alloss)
        np.testing.assert_array_equal(ag.q1.l1.w.data, q_before)

    def test_actor_loss_computes_no_critic_gradient(self):
        ag = agent(3)
        losses = []
        ag.actor_opt.minimize = lambda loss: losses.append(loss) or True
        z = np.random.default_rng(0).standard_normal((8, Z)).astype(np.float32)
        ag.update_actor_and_alpha(z, np.random.default_rng(1))
        written = {id(p) for p in losses[0].backward()}
        assert written == {id(p) for p in ag.actor.params().values()}

    def test_infinite_latent_skips_the_actor_and_alpha_steps(self, caplog):
        ag = agent(3)
        z = np.random.default_rng(0).standard_normal((8, Z)).astype(np.float32)
        ag.update_actor_and_alpha(z, np.random.default_rng(1))
        before = [snapshot(ag.actor_opt), snapshot(ag.alpha_opt)]
        z[2, 0] = np.inf
        with caplog.at_level("WARNING", logger="cure_rl.sac"), np.errstate(invalid="ignore"):
            ag.update_actor_and_alpha(z, np.random.default_rng(2))
        assert_unchanged(ag.actor_opt, before[0])
        assert_unchanged(ag.alpha_opt, before[1])
        assert skip_warnings(caplog) == ["task: actor update skipped: non-finite gradient",
                                         "task: alpha update skipped: non-finite gradient"]

    def test_alpha_moves_toward_target_entropy(self):
        ag = agent(4)
        z = np.random.default_rng(0).standard_normal((32, Z)).astype(np.float32)
        a0 = ag.alpha
        for _ in range(5):
            ag.update_actor_and_alpha(z, np.random.default_rng(1))
        assert ag.alpha != a0

    def test_target_entropy_is_minus_action_dim(self):
        assert agent().target_entropy == -float(ACT)

    def test_polyak_moves_targets_toward_online(self):
        ag = agent(5)
        for p in ag.q1.params().values():
            p.data += 1.0
        before = ag.tq1.l1.w.data.copy()
        ag.polyak()
        after = ag.tq1.l1.w.data
        np.testing.assert_allclose(after - before,
                                   0.01 * (ag.q1.l1.w.data - before), rtol=1e-4)


def test_qfunction_outputs_scalar_per_sample():
    q = QFunction(np.random.default_rng(0), Z, ACT, HID, "q")
    z = Tensor(np.zeros((5, Z), dtype=np.float32))
    a = Tensor(np.zeros((5, ACT), dtype=np.float32))
    assert q(z, a).shape == (5,)
