"""Gradient-check suite covering every differentiable op and both SRL losses.

Each entry builds a small random problem, runs the backward pass, and
compares against 64-bit central finite differences (``autodiff.grad_check``).
Every public autodiff op has an entry named after it (``<op>`` or
``<op>_<case>``); composite entries run the real losses and modules. Used by
the `gradcheck` CLI subcommand and the test suite.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .config import ExperimentConfig, SrlConfig
from .layers import LAYER_NORM_EPS
from .sac import SacAgent
from .srl import SrlModel


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape).astype(np.float32),
                  requires_grad=True)


def gradient_suite(seed: int = 0) -> dict:
    """Run every check; returns {name: max relative error}."""
    rng = np.random.default_rng(seed)
    checks = {}

    def check(name, f, tensors, sample=None):
        checks[name] = grad_check(f, tensors, sample=sample, seed=seed)

    a, b = _t(rng, 3, 4), _t(rng, 3, 4)
    check("add", lambda: ad.reduce_sum(a + b), [a, b])
    check("sub", lambda: ad.reduce_sum(a - b), [a, b])
    check("mul", lambda: ad.reduce_sum(a * b), [a, b])
    c = Tensor(rng.uniform(0.5, 2.0, (3, 4)).astype(np.float32), requires_grad=True)
    check("div", lambda: ad.reduce_sum(a / c), [a, c])
    check("neg", lambda: ad.reduce_sum(-a), [a])
    row = _t(rng, 4)
    check("broadcast_add", lambda: ad.reduce_sum(a + row), [a, row])

    m, n = _t(rng, 3, 5), _t(rng, 5, 2)
    check("matmul", lambda: ad.reduce_sum(ad.square(ad.matmul(m, n))), [m, n])
    bias = _t(rng, 2)
    check("dense", lambda: ad.reduce_sum(ad.square(ad.dense(m, n, bias))), [m, n, bias])
    check("dense_relu", lambda: ad.reduce_sum(ad.square(ad.dense(m, n, bias, relu=True))),
          [m, n, bias])
    z_in, a_in = _t(rng, 4, 3), _t(rng, 4, 2)
    layers = [_t(rng, 5, 6), _t(rng, 6), _t(rng, 6, 6), _t(rng, 6), _t(rng, 6, 1), _t(rng, 1)]
    check("mlp", lambda: ad.reduce_sum(ad.square(ad.mlp([z_in, a_in], layers))),
          [z_in, a_in] + layers)
    check("reshape", lambda: ad.reduce_sum(ad.square(ad.reshape(m, (5, 3)))), [m])
    check("narrow", lambda: ad.reduce_sum(ad.square(ad.narrow(m, 1, 1, 3))), [m])
    check("concat", lambda: ad.reduce_sum(ad.square(ad.concat([a, b], axis=1))), [a, b])

    x = Tensor((rng.standard_normal((4, 6)) * 2).astype(np.float32),
               requires_grad=True)
    check("relu", lambda: ad.reduce_sum(ad.square(ad.relu(x + 0.05))), [x])
    check("tanh", lambda: ad.reduce_sum(ad.tanh(x)), [x])
    check("exp", lambda: ad.reduce_sum(ad.exp(0.3 * x)), [x])
    xp = Tensor(rng.uniform(0.5, 3.0, (4, 6)).astype(np.float32), requires_grad=True)
    check("softplus", lambda: ad.reduce_sum(ad.softplus(x)), [x])
    check("square", lambda: ad.reduce_sum(ad.square(x)), [x])
    check("sqrt", lambda: ad.reduce_sum(ad.sqrt(xp)), [xp])
    check("clip", lambda: ad.reduce_sum(ad.square(ad.clip(x, -1.0, 1.0))), [x])
    check("minimum", lambda: ad.reduce_sum(ad.minimum(a, b)), [a, b])
    check("reduce_mean", lambda: ad.reduce_sum(ad.square(ad.reduce_mean(x, axis=1))), [x])
    check("reduce_sum_axis", lambda: ad.reduce_sum(ad.square(ad.reduce_sum(x, axis=0))), [x])
    gain = Tensor(rng.uniform(0.5, 1.5, 6).astype(np.float32), requires_grad=True)
    shift = _t(rng, 6)
    weights = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
    flat_in, proj, proj_b = _t(rng, 4, 2, 2, 2), _t(rng, 8, 6), _t(rng, 6)
    check("dense_ln_tanh",
          lambda: ad.reduce_sum(ad.dense_ln_tanh(flat_in, proj, proj_b, gain, shift,
                                                 LAYER_NORM_EPS) * weights),
          [flat_in, proj, proj_b, gain, shift])
    # log-stds in (-1, 1): inside the clip range, so every probe is smooth
    policy = Tensor(np.concatenate([rng.standard_normal((4, 3)), rng.uniform(-1, 1, (4, 3))],
                                   axis=1).astype(np.float32), requires_grad=True)
    noise = rng.standard_normal((4, 3))
    mix = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
    check("squashed_gaussian",
          lambda: ad.reduce_sum(ad.squashed_gaussian(policy, noise, -10.0, 2.0) * mix),
          [policy])
    check("sum_squares", lambda: ad.sum_squares([a, row, x]), [a, row, x])
    recon, latent = _t(rng, 3, 2, 4, 4), _t(rng, 3, 5)
    target = Tensor(rng.uniform(0.0, 1.0, (3, 2, 4, 4)).astype(np.float32))
    check("rae_error", lambda: ad.reduce_sum(ad.rae_error(recon, target, latent, 0.1)),
          [recon, latent])

    img = _t(rng, 2, 3, 8, 8)
    k = Tensor((rng.standard_normal((4, 3, 3, 3)) * 0.3).astype(np.float32),
               requires_grad=True)
    kb = _t(rng, 4)
    check("conv2d_bias_relu",
          lambda: ad.reduce_sum(ad.square(ad.conv2d(img, k, 2, kb, relu=True))),
          [img, k, kb], sample=64)
    check("conv2d_s1", lambda: ad.reduce_sum(ad.square(ad.conv2d(img, k, 1))),
          [img, k], sample=64)
    check("conv2d_s2", lambda: ad.reduce_sum(ad.square(ad.conv2d(img, k, 2))),
          [img, k], sample=64)
    # non-square, odd-sized: a swapped H/W stride in the window view shows here
    odd = _t(rng, 2, 3, 9, 8)
    check("conv2d_s2_odd", lambda: ad.reduce_sum(ad.square(ad.conv2d(odd, k, 2))),
          [odd, k], sample=64)
    small = _t(rng, 2, 4, 4, 4)
    kt = Tensor((rng.standard_normal((4, 3, 3, 3)) * 0.3).astype(np.float32),
                requires_grad=True)
    check("conv_transpose2d_s1",
          lambda: ad.reduce_sum(ad.square(ad.conv_transpose2d(small, kt, 1))),
          [small, kt], sample=64)
    check("conv_transpose2d_s2",
          lambda: ad.reduce_sum(ad.square(ad.conv_transpose2d(small, kt, 2, 1))),
          [small, kt], sample=64)
    odd_small = _t(rng, 2, 4, 5, 4)
    check("conv_transpose2d_s2_odd",
          lambda: ad.reduce_sum(ad.square(ad.conv_transpose2d(odd_small, kt, 2, 1))),
          [odd_small, kt], sample=64)
    ktb = _t(rng, 3)
    check("conv_transpose2d_bias_relu",
          lambda: ad.reduce_sum(ad.square(ad.conv_transpose2d(small, kt, 1, 0, ktb, relu=True))),
          [small, kt, ktb], sample=64)
    check("conv_transpose2d_bias",
          lambda: ad.reduce_sum(ad.square(ad.conv_transpose2d(odd_small, kt, 2, 1, ktb))),
          [odd_small, kt, ktb], sample=64)

    logits = _t(rng, 4, 4)
    targets = np.arange(4)
    check("log_softmax_cross_entropy",
          lambda: ad.reduce_sum(ad.log_softmax_cross_entropy(logits, targets)), [logits])

    # composite modules, exercised through the real SRL losses
    crop = 16
    batch = rng.uniform(0.0, 1.0, (2, 3, crop, crop)).astype(np.float32)

    def srl_model(head, seed_offset):
        cfg = ExperimentConfig(frames=3, crop_size=crop, srl=SrlConfig(head=head, z_dim=8))
        return SrlModel(np.random.default_rng(seed + seed_offset), cfg)

    rae = srl_model("rae", 0)
    check("rae_loss", lambda: rae.rae_loss(batch)[0],
          [t for t in rae.all_param_tensors().values() if t.requires_grad], sample=8)

    con = srl_model("contrastive", 1)
    anchor = rng.uniform(0.0, 1.0, (3, 3, crop, crop)).astype(np.float32)
    positive = rng.uniform(0.0, 1.0, (3, 3, crop, crop)).astype(np.float32)
    check("infonce_loss", lambda: con.infonce_loss(anchor, positive)[0],
          [t for t in con.opt.params.values() if t.requires_grad], sample=8)

    encoder = srl_model("rae", 2)
    check("encoder_forward", lambda: ad.reduce_sum(ad.square(encoder.encoder(Tensor(batch)))),
          [t for t in encoder.encoder.params().values() if t.requires_grad], sample=8)

    # the SAC agent's losses, through its actor and critics
    agent_cfg = ExperimentConfig(hidden_dim=16, srl=SrlConfig(z_dim=8))
    agent = SacAgent(np.random.default_rng(seed + 3), agent_cfg, 2, "task", 0.99)
    z = Tensor(np.tanh(rng.standard_normal((5, 8))).astype(np.float32), requires_grad=True)
    noise = rng.standard_normal((5, 2))
    check("actor_log_prob", lambda: ad.reduce_sum(agent.actor.sample(z, noise)[1]),
          [z] + list(agent.actor.params().values()), sample=8)
    actions = rng.uniform(-1.0, 1.0, (5, 2)).astype(np.float32)
    # targets far from the fresh critics' outputs: a large, smooth gradient
    y = (3.0 + rng.standard_normal(5)).astype(np.float32)
    check("critic_loss", lambda: agent.critic_loss(z, actions, y),
          [z] + list(agent.critic.params.values()), sample=8)

    return checks


def run_gradient_suite(seed: int = 0, tol: float = 1e-4):
    """Print the suite results; returns (checks, worst_error)."""
    checks = gradient_suite(seed)
    worst = max(checks.values())
    width = max(map(len, checks))
    for name in sorted(checks):
        status = "ok" if checks[name] < tol else "FAIL"
        print(f"{name:{width}s} {checks[name]:.3e}  {status}")
    print(f"worst: {worst:.3e} (tolerance {tol:g})")
    return checks, worst
