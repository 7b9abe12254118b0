"""Gradient-check suite covering every differentiable op and both SRL losses.

Each entry builds a small random problem, runs the backward pass, and
compares against 64-bit central finite differences. Used by the `gradcheck`
CLI subcommand and the test suite.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .config import ExperimentConfig, SrlConfig
from .srl import SrlModel


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape).astype(np.float32),
                  requires_grad=True)


def grad_check_inplace(f, tensors, h: float = 1e-3, sample: int = 8,
                       seed: int = 0) -> float:
    """Finite-difference check for parameters owned by a model.

    Unlike ``autodiff.grad_check`` this perturbs the given tensors in place
    (temporarily promoted to float64), so ``f`` may be a closure over a whole
    module rather than a pure function of its arguments.

    Probes where the analytic gradient itself changes across the x-h..x+h
    interval sit on a relu kink, where the central-difference oracle is
    invalid; those elements are skipped. A wrong analytic gradient still
    fails because it is constant across the interval at smooth points.
    """
    originals = [t.data for t in tensors]
    for t in tensors:
        t.data = t.data.astype(np.float64)
        t.grad = None
    try:
        out = f()
        out.backward()
        analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                    for t in tensors]
        rng = np.random.default_rng(seed)
        worst = 0.0
        for t, an in zip(tensors, analytic):
            flat = t.data.reshape(-1)
            an_flat = an.reshape(-1)
            n = flat.size
            probe = rng.choice(n, size=min(sample, n), replace=False)
            fd = np.zeros(len(probe))
            smooth = np.ones(len(probe), dtype=bool)

            def grad_at(t_, i, value):
                orig_ = flat[i]
                flat[i] = value
                for u in tensors:
                    u.grad = None
                f().backward()
                g = float(t_.grad.reshape(-1)[i]) if t_.grad is not None else 0.0
                flat[i] = orig_
                for u in tensors:
                    u.grad = None
                return g

            for j, i in enumerate(probe):
                orig = flat[i]
                step = h * max(1.0, abs(orig))
                flat[i] = orig + step
                with ad.no_grad():
                    fp = float(f().data)
                flat[i] = orig - step
                with ad.no_grad():
                    fm = float(f().data)
                flat[i] = orig
                fd[j] = (fp - fm) / (2.0 * step)
                gp = grad_at(t, i, orig + step)
                gm = grad_at(t, i, orig - step)
                g0 = an_flat[i]
                jump = max(abs(gp - g0), abs(gm - g0))
                if jump > 1e-4 * max(abs(gp), abs(gm), abs(g0), 1e-8):
                    smooth[j] = False
            an_probe = an_flat[probe]
            fd, an_probe = fd[smooth], an_probe[smooth]
            scale = max(np.max(np.abs(fd), initial=0.0),
                        np.max(np.abs(an_probe), initial=0.0), 1e-8)
            worst = max(worst, float(np.max(np.abs(fd - an_probe), initial=0.0) / scale))
        return worst
    finally:
        for t, orig in zip(tensors, originals):
            t.data = orig
            t.grad = None


def gradient_suite(seed: int = 0) -> dict:
    """Run every check; returns {name: max relative error}."""
    rng = np.random.default_rng(seed)
    checks = {}

    def check(name, f, tensors, sample=None):
        checks[name] = grad_check(f, tensors, sample=sample, seed=seed)

    a, b = _t(rng, 3, 4), _t(rng, 3, 4)
    check("add", lambda x, y: ad.reduce_sum(x + y), [a, b])
    check("sub", lambda x, y: ad.reduce_sum(x - y), [a, b])
    check("mul", lambda x, y: ad.reduce_sum(x * y), [a, b])
    c = Tensor(rng.uniform(0.5, 2.0, (3, 4)).astype(np.float32), requires_grad=True)
    check("div", lambda x, y: ad.reduce_sum(x / y), [a, c])
    check("neg", lambda x: ad.reduce_sum(-x), [a])
    check("broadcast_add", lambda x, y: ad.reduce_sum(x + y), [a, _t(rng, 4)])

    m, n = _t(rng, 3, 5), _t(rng, 5, 2)
    check("matmul", lambda x, y: ad.reduce_sum(ad.square(ad.matmul(x, y))), [m, n])
    check("reshape", lambda x: ad.reduce_sum(ad.square(ad.reshape(x, (5, 3)))), [m])
    check("narrow", lambda x: ad.reduce_sum(ad.square(ad.narrow(x, 1, 1, 3))), [m])
    check("concat", lambda x, y: ad.reduce_sum(
        ad.square(ad.concat([x, y], axis=1))), [a, b])

    x = Tensor((rng.standard_normal((4, 6)) * 2).astype(np.float32),
               requires_grad=True)
    check("relu", lambda v: ad.reduce_sum(ad.square(ad.relu(v + 0.05))), [x])
    check("tanh", lambda v: ad.reduce_sum(ad.tanh(v)), [x])
    check("exp", lambda v: ad.reduce_sum(ad.exp(0.3 * v)), [x])
    xp = Tensor(rng.uniform(0.5, 3.0, (4, 6)).astype(np.float32), requires_grad=True)
    check("softplus", lambda v: ad.reduce_sum(ad.softplus(v)), [x])
    check("square", lambda v: ad.reduce_sum(ad.square(v)), [x])
    check("sqrt", lambda v: ad.reduce_sum(ad.sqrt(v)), [xp])
    check("clip", lambda v: ad.reduce_sum(ad.square(ad.clip(v, -1.0, 1.0))), [x])
    check("minimum", lambda u, v: ad.reduce_sum(ad.minimum(u, v)), [a, b])
    check("reduce_mean", lambda v: ad.reduce_sum(ad.square(ad.reduce_mean(v, axis=1))),
          [x])
    check("reduce_sum_axis", lambda v: ad.reduce_sum(
        ad.square(ad.reduce_sum(v, axis=0))), [x])

    img = _t(rng, 2, 3, 8, 8)
    k = Tensor((rng.standard_normal((4, 3, 3, 3)) * 0.3).astype(np.float32),
               requires_grad=True)
    check("conv2d_s1", lambda i, w: ad.reduce_sum(ad.square(ad.conv2d(i, w, 1))),
          [img, k], sample=64)
    check("conv2d_s2", lambda i, w: ad.reduce_sum(ad.square(ad.conv2d(i, w, 2))),
          [img, k], sample=64)
    # non-square, odd-sized: a swapped H/W stride in the window view shows here
    odd = _t(rng, 2, 3, 9, 8)
    check("conv2d_s2_odd", lambda i, w: ad.reduce_sum(ad.square(ad.conv2d(i, w, 2))),
          [odd, k], sample=64)
    small = _t(rng, 2, 4, 4, 4)
    kt = Tensor((rng.standard_normal((4, 3, 3, 3)) * 0.3).astype(np.float32),
                requires_grad=True)
    check("conv_transpose2d_s1",
          lambda i, w: ad.reduce_sum(ad.square(ad.conv_transpose2d(i, w, 1))),
          [small, kt], sample=64)
    check("conv_transpose2d_s2",
          lambda i, w: ad.reduce_sum(ad.square(ad.conv_transpose2d(i, w, 2, 1))),
          [small, kt], sample=64)
    odd_small = _t(rng, 2, 4, 5, 4)
    check("conv_transpose2d_s2_odd",
          lambda i, w: ad.reduce_sum(ad.square(ad.conv_transpose2d(i, w, 2, 1))),
          [odd_small, kt], sample=64)

    logits = _t(rng, 4, 4)
    targets = np.arange(4)
    check("cross_entropy",
          lambda l: ad.reduce_sum(ad.log_softmax_cross_entropy(l, targets)), [logits])

    # composite modules, exercised through the real SRL losses
    crop = 16
    batch = rng.uniform(0.0, 1.0, (2, 3, crop, crop)).astype(np.float32)

    def srl_model(head, seed_offset):
        cfg = ExperimentConfig(frames=3, crop_size=crop, srl=SrlConfig(head=head, z_dim=8))
        return SrlModel(np.random.default_rng(seed + seed_offset), cfg)

    rae = srl_model("rae", 0)
    rae_params = [t for t in rae.all_param_tensors().values() if t.requires_grad]
    checks["rae_loss"] = grad_check_inplace(
        lambda: rae.rae_loss(batch)[0], rae_params, h=1e-5, sample=8, seed=seed)

    con = srl_model("contrastive", 1)
    con_params = [t for t in con.opt.params.values() if t.requires_grad]
    anchor = rng.uniform(0.0, 1.0, (3, 3, crop, crop)).astype(np.float32)
    positive = rng.uniform(0.0, 1.0, (3, 3, crop, crop)).astype(np.float32)
    checks["infonce_loss"] = grad_check_inplace(
        lambda: con.infonce_loss(anchor, positive)[0], con_params, h=1e-5, sample=8,
        seed=seed)

    encoder = srl_model("rae", 2)
    checks["encoder_forward"] = grad_check_inplace(
        lambda: ad.reduce_sum(ad.square(encoder.encoder(Tensor(batch)))),
        [t for t in encoder.encoder.params().values() if t.requires_grad],
        h=1e-5, sample=8, seed=seed)

    return checks


def run_gradient_suite(seed: int = 0, tol: float = 1e-4, verbose: bool = True):
    """Print the suite results; returns (checks, worst_error)."""
    checks = gradient_suite(seed)
    worst = max(checks.values())
    if verbose:
        for name in sorted(checks):
            status = "ok" if checks[name] < tol else "FAIL"
            print(f"{name:24s} {checks[name]:.3e}  {status}")
        print(f"worst: {worst:.3e} (tolerance {tol:g})")
    return checks, worst
