"""Autodiff core: op gradients, adjoint identities, Adam, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cure_rl.autodiff as ad
from cure_rl.autodiff import Adam, NonFiniteGradientError, ParamGroup, Tensor, grad_check, no_grad


def t(arr, rg=True):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=rg)


class TestOps:
    def test_square_sum_matches_2x(self):
        x = t([[1.0, -2.0], [3.0, 0.5]])
        ad.reduce_sum(ad.square(x)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-6)

    def test_shared_subexpression_accumulates(self):
        x = t([3.0])
        (x + x).backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_matmul_gradcheck(self):
        rng = np.random.default_rng(0)
        a = t(rng.standard_normal((3, 4)))
        b = t(rng.standard_normal((4, 2)))
        err = grad_check(lambda x, y: ad.reduce_sum(ad.square(ad.matmul(x, y))), [a, b])
        assert err < 1e-6

    def test_broadcast_add_unbroadcasts_grad(self):
        a = t(np.ones((3, 4)))
        b = t(np.ones(4))
        ad.reduce_sum(a + b).backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))

    def test_scalar_constant_keeps_float32(self):
        x = t(np.ones((2, 2)))
        y = x * 0.5 + 1e-5
        assert y.data.dtype == np.float32

    def test_float64_preserved_for_oracles(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        assert (x * 0.5).data.dtype == np.float64

    def test_narrow_and_concat_roundtrip(self):
        x = t(np.arange(12, dtype=np.float32).reshape(3, 4))
        left = ad.narrow(x, 1, 0, 2)
        right = ad.narrow(x, 1, 2, 2)
        y = ad.concat([left, right], axis=1)
        np.testing.assert_array_equal(y.data, x.data)
        ad.reduce_sum(ad.square(y)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_clip_blocks_gradient_outside_range(self):
        x = t([-2.0, 0.0, 2.0])
        ad.reduce_sum(ad.clip(x, -1.0, 1.0)).backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_minimum_selects_branch(self):
        a = t([1.0, 5.0])
        b = t([2.0, 3.0])
        ad.reduce_sum(ad.minimum(a, b)).backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])

    def test_softmax_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = t([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        loss = ad.reduce_sum(ad.log_softmax_cross_entropy(logits, [0, 2]))
        loss.backward()
        e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1, keepdims=True)
        onehot = np.zeros((2, 3))
        onehot[0, 0] = onehot[1, 2] = 1.0
        np.testing.assert_allclose(logits.grad, soft - onehot, rtol=1e-5, atol=1e-7)

    def test_cross_entropy_rejects_bad_targets(self):
        logits = t(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ad.log_softmax_cross_entropy(logits, [0, 3])

    def test_uniform_logits_loss_is_ln_k(self):
        k = 7
        logits = t(np.zeros((4, k)))
        loss = ad.log_softmax_cross_entropy(logits, np.arange(4))
        np.testing.assert_allclose(loss.data, np.log(k) * np.ones(4), rtol=1e-6)

    def test_backward_requires_scalar_without_seed(self):
        x = t(np.ones((2, 2)))
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_no_grad_builds_no_tape(self):
        x = t(np.ones(3))
        with no_grad():
            y = ad.square(x)
        assert y.node is None and not y.requires_grad


class TestConv:
    def test_conv_shapes(self):
        x = t(np.zeros((2, 3, 9, 9)))
        k = t(np.zeros((5, 3, 3, 3)))
        assert ad.conv2d(x, k, 1).shape == (2, 5, 7, 7)
        assert ad.conv2d(x, k, 2).shape == (2, 5, 4, 4)

    def test_conv_transpose_inverts_shape(self):
        for h in (9, 10):
            x = t(np.zeros((1, 3, h, h)))
            k = t(np.zeros((4, 3, 3, 3)))
            y = ad.conv2d(x, k, 2)
            kt = t(np.zeros((4, 3, 3, 3)))
            back = ad.conv_transpose2d(y, kt, 2, output_padding=(h - 3) % 2)
            assert back.shape == (1, 3, h, h)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(1)
        for stride in (1, 2):
            a = rng.standard_normal((2, 3, 8, 8))
            k = rng.standard_normal((4, 3, 3, 3))
            fa = ad.conv2d(Tensor(a), Tensor(k), stride).data
            b = rng.standard_normal(fa.shape)
            ftb = ad.conv_transpose2d(Tensor(b), Tensor(k), stride,
                                      output_padding=(8 - 3) % 2 if stride == 2 else 0).data
            lhs = float(np.sum(fa * b))
            rhs = float(np.sum(a * ftb))
            assert abs(lhs - rhs) / max(abs(lhs), 1e-8) < 1e-5

    def test_conv_rejects_bad_kernel(self):
        x = t(np.zeros((1, 3, 8, 8)))
        with pytest.raises(ValueError):
            ad.conv2d(x, t(np.zeros((4, 3, 5, 5))), 1)

    def test_conv_gradcheck(self):
        rng = np.random.default_rng(2)
        x = t(rng.standard_normal((1, 2, 6, 6)))
        k = t(rng.standard_normal((3, 2, 3, 3)) * 0.4)
        err = grad_check(lambda a, b: ad.reduce_sum(ad.square(ad.conv2d(a, b, 2))),
                         [x, k], sample=32)
        assert err < 1e-6


def _conv2d_loop(x, k, g, stride):
    """Explicit-loop float64 conv2d: output, input gradient and kernel
    gradient for the seed gradient ``g``."""
    x, k, g = (np.asarray(a, dtype=np.float64) for a in (x, k, g))
    out, gx, gk = np.zeros(g.shape), np.zeros(x.shape), np.zeros(k.shape)
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            win = (slice(None), slice(None),
                   slice(i * stride, i * stride + 3), slice(j * stride, j * stride + 3))
            out[:, :, i, j] = np.einsum("ncuv,fcuv->nf", x[win], k)
            gx[win] += np.einsum("nf,fcuv->ncuv", g[:, :, i, j], k)
            gk += np.einsum("nf,ncuv->fcuv", g[:, :, i, j], x[win])
    return out, gx, gk


def _conv_transpose2d_loop(x, k, g, stride):
    """Explicit-loop float64 conv_transpose2d, as _conv2d_loop."""
    x, k, g = (np.asarray(a, dtype=np.float64) for a in (x, k, g))
    out, gx, gk = np.zeros(g.shape), np.zeros(x.shape), np.zeros(k.shape)
    for i in range(x.shape[2]):
        for j in range(x.shape[3]):
            win = (slice(None), slice(None),
                   slice(i * stride, i * stride + 3), slice(j * stride, j * stride + 3))
            out[win] += np.einsum("nf,fcuv->ncuv", x[:, :, i, j], k)
            gx[:, :, i, j] = np.einsum("ncuv,fcuv->nf", g[win], k)
            gk += np.einsum("nf,ncuv->fcuv", x[:, :, i, j], g[win])
    return out, gx, gk


def _input(rng, shape, dtype, view):
    """A random input; ``view`` makes it a strided, offset slice of a larger array."""
    if not view:
        return rng.standard_normal(shape).astype(dtype)
    n, c, h, w = shape
    return rng.standard_normal((n, 2 * c, h + 1, w)).astype(dtype)[:, ::2, 1:, :]


# (x shape, kernel shape, stride, output_padding): H != W, odd and even sizes,
# 3 and 32 channels
CONV_CASES = [((2, 3, 9, 8), (4, 3, 3, 3), 2, None),
              ((2, 3, 8, 9), (4, 3, 3, 3), 1, None),
              ((1, 32, 7, 10), (32, 32, 3, 3), 2, None),
              ((1, 32, 6, 5), (3, 32, 3, 3), 1, None)]
CONV_T_CASES = [((2, 4, 5, 4), (4, 3, 3, 3), 2, 1),
                ((2, 4, 4, 3), (4, 3, 3, 3), 2, 0),
                ((2, 4, 3, 4), (4, 3, 3, 3), 1, 0),
                ((1, 32, 4, 3), (32, 32, 3, 3), 2, 1),
                ((1, 3, 5, 6), (3, 32, 3, 3), 1, 0)]


def _case_id(case):
    x_shape, _, stride, output_padding = case
    op = "conv2d" if output_padding is None else f"conv_transpose2d_op{output_padding}"
    return f"{op}-{'x'.join(map(str, x_shape))}-s{stride}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("view", [False, True], ids=["contiguous", "view"])
@pytest.mark.parametrize("case", CONV_CASES + CONV_T_CASES, ids=_case_id)
def test_conv_matches_loop_oracle(case, view, dtype):
    x_shape, k_shape, stride, output_padding = case
    rng = np.random.default_rng(0)
    x = Tensor(_input(rng, x_shape, dtype, view), requires_grad=True)
    k = Tensor(rng.standard_normal(k_shape).astype(dtype), requires_grad=True)
    assert x.data.flags.c_contiguous != view
    if output_padding is None:
        out, oracle = ad.conv2d(x, k, stride), _conv2d_loop
    else:
        out, oracle = ad.conv_transpose2d(x, k, stride, output_padding), _conv_transpose2d_loop
    g = rng.standard_normal(out.shape).astype(dtype)
    out.backward(g)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for got, want in zip((out.data, x.grad, k.grad), oracle(x.data, k.data, g, stride)):
        assert got.dtype == dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


@pytest.mark.parametrize("case", [CONV_CASES[0], CONV_T_CASES[0]], ids=_case_id)
def test_conv_skips_input_gradient_nobody_needs(case):
    """An input without requires_grad gets None from the backward closure,
    and the kernel gradient is bitwise the same as when it is computed."""
    x_shape, k_shape, stride, output_padding = case
    rng = np.random.default_rng(1)
    x = rng.standard_normal(x_shape).astype(np.float32)
    k = Tensor(rng.standard_normal(k_shape).astype(np.float32), requires_grad=True)
    grads = []
    for needs in (False, True):
        xt = Tensor(x, requires_grad=needs)
        if output_padding is None:
            out = ad.conv2d(xt, k, stride)
        else:
            out = ad.conv_transpose2d(xt, k, stride, output_padding)
        g = np.random.default_rng(2).standard_normal(out.shape).astype(np.float32)
        grads.append(out.node.backward_fn(g))
    assert grads[0][0] is None and grads[1][0].shape == x_shape
    np.testing.assert_array_equal(grads[0][1], grads[1][1])


class TestAdam:
    def test_first_step_is_minus_lr(self):
        p = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        opt = Adam([ParamGroup("p", {"p": p})], lr=1e-3)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [-1e-3], rtol=1e-5)

    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.full(3, 7.0, dtype=np.float32), requires_grad=True)
        opt = Adam([ParamGroup("p", {"p": p})], lr=1e-2)
        p.grad = np.zeros(3, dtype=np.float32)
        opt.step()
        np.testing.assert_array_equal(p.data, np.full(3, 7.0, dtype=np.float32))

    def test_nonfinite_gradient_rejected_with_name(self):
        p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        opt = Adam([ParamGroup("layer", {"layer.w": p})], lr=1e-3)
        p.grad = np.array([1.0, np.nan], dtype=np.float32)
        with pytest.raises(NonFiniteGradientError, match="layer.w"):
            opt.step()
        np.testing.assert_array_equal(p.data, np.zeros(2, dtype=np.float32))

    def test_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(9)
            p = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
            opt = Adam([ParamGroup("p", {"p": p})], lr=1e-3)
            for _ in range(10):
                p.grad = (p.data * 2.0).astype(np.float32)
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_export_import_roundtrip(self):
        p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        opt = Adam([ParamGroup("p", {"p": p})], lr=1e-3)
        p.grad = np.ones(3, dtype=np.float32)
        opt.step()
        arrays = opt.export_arrays("opt")
        q = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        opt2 = Adam([ParamGroup("p", {"p": q})], lr=1e-3)
        opt2.import_arrays("opt", arrays, opt.t)
        q.data[...] = p.data
        p.grad = q.grad = np.full(3, 0.5, dtype=np.float32)
        opt.step()
        opt2.step()
        np.testing.assert_array_equal(p.data, q.data)

    def test_minimize_clears_every_gradient_it_wrote(self):
        p = t([1.0, -2.0])
        outside = t([3.0])        # reached by the loss, stepped by no optimizer
        opt = Adam([ParamGroup("p", {"p": p})], lr=1e-3)
        loss = ad.reduce_sum(ad.square(p * outside))
        assert {id(x) for x in loss.backward()} == {id(p), id(outside)}
        p.grad = outside.grad = None
        opt.minimize(loss)
        assert p.grad is None and outside.grad is None
        np.testing.assert_allclose(p.data, [1.0 - 1e-3, -2.0 + 1e-3], rtol=1e-5)
        np.testing.assert_array_equal(outside.data, [3.0])

    def test_minimize_skips_the_step_on_a_nonfinite_gradient(self):
        p = t([0.5, 1.0])
        w = t([np.nan, 2.0])
        opt = Adam([ParamGroup("p", {"p": p})], lr=1e-3)
        opt.minimize(ad.reduce_sum(ad.square(p)))
        state = opt.state["p"]
        before = (p.data.copy(), state.m.copy(), state.v.copy(), opt.t)
        with pytest.raises(NonFiniteGradientError, match="'p'"):
            opt.minimize(ad.reduce_sum(p * w))
        for got, want in zip((p.data, state.m, state.v), before):
            np.testing.assert_array_equal(got, want)
        assert opt.t == before[3]
        assert p.grad is None and w.grad is None


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5))
def test_add_grad_is_ones_any_shape(rows, cols):
    x = Tensor(np.zeros((rows, cols), dtype=np.float32), requires_grad=True)
    y = Tensor(np.zeros((rows, cols), dtype=np.float32), requires_grad=True)
    ad.reduce_sum(x + y).backward()
    np.testing.assert_array_equal(x.grad, np.ones((rows, cols)))
    np.testing.assert_array_equal(y.grad, np.ones((rows, cols)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dense_matmul_adjoint_identity(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    fa = a @ b
    probe = rng.standard_normal(fa.shape)
    lhs = float(np.sum(fa * probe))
    rhs = float(np.sum(a * (probe @ b.T)))
    assert abs(lhs - rhs) / max(abs(lhs), 1e-8) < 1e-5
