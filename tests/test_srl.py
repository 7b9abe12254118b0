"""SRL module: encoder geometry, both heads, per-sample errors, key EMA."""

import numpy as np
import pytest

import cure_rl.autodiff as ad
from cure_rl.autodiff import Tensor
from cure_rl.config import ExperimentConfig, SrlConfig
from cure_rl.srl import Encoder, SrlModel, conv_out_size

CROP = 16
Z = 16


def batch(n, seed=0, crop=CROP):
    return np.random.default_rng(seed).uniform(0, 1, (n, 3, crop, crop)).astype(np.float32)


def model(head="rae", seed=0, **srl):
    cfg = ExperimentConfig(frames=3, crop_size=CROP, srl=SrlConfig(head=head, z_dim=Z, **srl))
    return SrlModel(np.random.default_rng(seed), cfg)


class TestEncoder:
    def test_conv_out_size(self):
        assert conv_out_size(16) == 1
        assert conv_out_size(20) == 3
        with pytest.raises(ValueError):
            conv_out_size(14)

    def test_latent_bounded_by_tanh(self):
        enc = Encoder(np.random.default_rng(0), 3, CROP, Z)
        z = enc(Tensor(batch(4)))
        assert z.shape == (4, Z)
        assert np.all(np.abs(z.data) <= 1.0)

    def test_detach_blocks_gradient(self, monkeypatch):
        enc = Encoder(np.random.default_rng(0), 3, CROP, Z)
        nodes = []
        node = ad._Node

        def counted(*args):
            nodes.append(args)
            return node(*args)

        monkeypatch.setattr(ad, "_Node", counted)
        z = enc(Tensor(batch(2)), detach=True)
        assert z.node is None and not nodes     # no tape was built
        np.testing.assert_array_equal(z.data, enc(Tensor(batch(2))).data)
        ad.reduce_sum(ad.square(z)).backward()
        assert all(p.grad is None for p in enc.params().values())

    def test_param_grads_do_not_depend_on_obs_requiring_grad(self):
        grads = []
        for needs in (False, True):
            enc = Encoder(np.random.default_rng(0), 3, CROP, Z)
            obs = Tensor(batch(4), requires_grad=needs)
            ad.reduce_sum(ad.square(enc(obs))).backward()
            assert (obs.grad is not None) == needs
            grads.append({name: p.grad for name, p in enc.params().items()})
        for name, g in grads[0].items():
            np.testing.assert_array_equal(g, grads[1][name])


class TestRae:
    def test_reconstruction_shape_matches_input(self):
        m = model()
        recon = m.decoder(m.encoder(Tensor(batch(2))))
        assert recon.shape == (2, 3, CROP, CROP)

    def test_per_sample_error_composition(self):
        m = model(lambda_theta=0.0)
        obs = batch(4)
        loss, errors = m.rae_loss(obs)
        with ad.no_grad():
            z = m.encoder(Tensor(obs))
            recon = m.decoder(z)
        mse = np.mean((recon.data - obs) ** 2, axis=(1, 2, 3))
        expected = mse + m.cfg.lambda_z * np.sum(z.data ** 2, axis=1)
        np.testing.assert_allclose(errors, expected, rtol=1e-5)
        np.testing.assert_allclose(loss.item(), expected.mean(), rtol=1e-5)

    def test_weight_penalty_increases_loss(self):
        obs = batch(4)
        base = model(seed=1, lambda_theta=0.0).rae_loss(obs)[0].item()
        pen = model(seed=1, lambda_theta=1e-2).rae_loss(obs)[0].item()
        assert pen > base

    def test_update_returns_pre_step_errors_and_learns(self):
        m = model(lr=1e-3)
        obs = batch(8)
        before = m.srl_error(obs)
        first = m.update(obs)
        np.testing.assert_allclose(first, before, rtol=1e-6)
        for _ in range(30):
            m.update(obs)
        after = m.srl_error(obs)
        assert after.mean() < before.mean()


class TestContrastive:
    def test_zero_bilinear_gives_ln_batch(self):
        m = model(head="contrastive")
        m.bilinear.data[:] = 0.0
        b = batch(8)
        _, per_sample = m.infonce_loss(b, batch(8, seed=1))
        np.testing.assert_allclose(per_sample, np.log(8.0) * np.ones(8), atol=1e-6)

    def test_batch_of_one_rejected(self):
        m = model(head="contrastive")
        with pytest.raises(ValueError):
            m.infonce_loss(batch(1), batch(1, seed=1))

    def test_key_encoder_starts_as_copy_and_is_frozen(self):
        m = model(head="contrastive")
        np.testing.assert_array_equal(m.key.data, m.online.data)
        assert all(not p.requires_grad for p in m.key_encoder.params().values())

    def test_key_ema_tracks_online_encoder(self):
        m = model(head="contrastive", key_tau=0.5)
        for p in m.encoder.params().values():
            p.data += 0.1
        d0 = np.linalg.norm(m.key.data - m.online.data)
        m.ema_update_key()
        d1 = np.linalg.norm(m.key.data - m.online.data)
        assert 0 < d1 < d0
        np.testing.assert_allclose(d1, d0 * 0.5, rtol=1e-5)

    def test_update_reduces_loss_on_fixed_pair(self):
        m = model(head="contrastive", lr=1e-3)
        a, p = batch(8, seed=2), batch(8, seed=3)
        before = m.srl_error(a, p).mean()
        for _ in range(30):
            m.update(a, p)
        assert m.srl_error(a, p).mean() < before

    def test_keys_do_not_receive_gradients(self):
        m = model(head="contrastive")
        loss, _ = m.infonce_loss(batch(4), batch(4, seed=1))
        loss.backward()
        assert all(p.grad is None for p in m.key_encoder.params().values())


class TestSrlErrorApi:
    def test_unknown_head_rejected(self):
        with pytest.raises(ValueError, match="rae"):
            model(head="vae")

    def test_srl_error_is_pure(self):
        m = model()
        obs = batch(4)
        e1 = m.srl_error(obs)
        e2 = m.srl_error(obs)
        np.testing.assert_array_equal(e1, e2)
        assert all(p.grad is None for p in m.opt.params.values())

    @pytest.mark.parametrize("head", ["rae", "contrastive"])
    def test_nonfinite_batch_skips_the_step(self, head, caplog):
        m = model(head=head)
        m.update(*([batch(4)] if head == "rae" else [batch(4), batch(4, seed=1)]))
        bad = batch(4)
        bad[0, 0, 0, 0] = np.nan
        args = [bad] if head == "rae" else [bad, bad.copy()]
        def state():   # everything a step moves: t, group values, moments
            return [np.array(m.opt.t)] + [g.data.copy() for g in m.opt.groups] + \
                [a.copy() for st in m.opt.state.values() for a in (st.m, st.v)]

        before = state()
        assert np.isnan(m.srl_error(*args)[0])
        with caplog.at_level("WARNING", logger="cure_rl.srl"):
            errors = m.update(*args)
        assert np.isnan(errors[0]) and m.opt.t == 1
        for got, want in zip(state(), before, strict=True):
            np.testing.assert_array_equal(got, want)
        assert all(p.grad is None for p in m.opt.params.values())
        msgs = [r.getMessage() for r in caplog.records if r.name == "cure_rl.srl"]
        assert len(msgs) == 1 and "skipped" in msgs[0] and "critic target" not in msgs[0]
