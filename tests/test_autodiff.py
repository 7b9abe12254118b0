"""Autodiff core: op gradients, adjoint identities, Adam, determinism, and
the module-level ops against the op chains they replace."""

import inspect
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cure_rl.autodiff as ad
from cure_rl import diagnostics
from cure_rl.autodiff import LN2, LOG_2PI, Adam, ParamGroup, Tensor, grad_check, no_grad
from cure_rl.config import load_config
from cure_rl.train import PHASES, Trainer


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
        err = grad_check(lambda: ad.reduce_sum(ad.square(ad.matmul(a, b))), [a, b])
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
        err = grad_check(lambda: ad.reduce_sum(ad.square(ad.conv2d(x, k, 2))),
                         [x, k], sample=32)
        assert err < 1e-6


def _scaled_backward(op, derivative, scale=1.1):
    """``op`` with its backward pass multiplied by ``scale``: a wrong gradient."""
    def wrong(a):
        return ad._make(op(a.data), [a], lambda g: [scale * g * derivative(a.data)])
    return wrong


class TestGradCheck:
    @pytest.mark.parametrize("op,derivative", [
        (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
        (lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(x.dtype)),
    ], ids=["tanh", "relu"])
    def test_wrong_backward_is_flagged(self, op, derivative):
        x = t(np.random.default_rng(3).standard_normal((4, 5)) * 2)
        right, wrong = _scaled_backward(op, derivative, 1.0), _scaled_backward(op, derivative)
        assert grad_check(lambda: ad.reduce_sum(ad.square(right(x))), [x]) < 1e-6
        assert grad_check(lambda: ad.reduce_sum(ad.square(wrong(x))), [x]) > 1e-4

    def test_restores_the_tensors(self):
        x = t([0.5, -1.5])
        before = x.data
        grad_check(lambda: ad.reduce_sum(ad.square(x)), [x])
        assert x.data is before and x.grad is None

    def test_all_probes_on_a_kink_raise(self):
        x = t(np.zeros(4))   # relu's gradient jumps at every element
        with pytest.raises(ValueError, match="kink"):
            grad_check(lambda: ad.reduce_sum(ad.relu(x)), [x])


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
        assert opt.step() is False
        np.testing.assert_array_equal(p.data, np.zeros(2, dtype=np.float32))
        assert opt.t == 0 and not opt.state["layer"].m.any() and not opt.state["layer"].v.any()
        p.grad = np.ones(2, dtype=np.float32)
        assert opt.step() is True and opt.t == 1

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
        state = opt.export_state()
        assert state["t"] == 1 and sorted(state["p"]) == ["m", "v"]
        q = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        opt2 = Adam([ParamGroup("p", {"p": q})], lr=1e-3)
        opt2.import_state(state)
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
        assert opt.minimize(ad.reduce_sum(ad.square(p))) is True
        state = opt.state["p"]
        before = (p.data.copy(), state.m.copy(), state.v.copy(), opt.t)
        assert opt.minimize(ad.reduce_sum(p * w)) is False
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


# -- module-level ops against the op chains they replace -------------------
# Each reference below is the composed chain the program ran before the op
# was fused. The fused op must give the same bits: forward and every input
# gradient, in float32, in float64, and for float32 data under a float64
# gradient (the contrastive head's float64 bilinear weight makes one).

DTYPES = [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)]
DTYPE_IDS = ["float32", "float64", "float32_data_float64_grad"]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _run(op, arrays, dtype, grad_dtype, loss=None):
    """Forward ``op`` on fresh tensors of ``arrays`` and backward ``loss``
    (default: a random weighting of the output); returns the output data and
    each input's gradient."""
    inputs = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    out = op(*inputs)
    if loss is None:
        weights = np.random.default_rng(99).standard_normal(out.shape).astype(grad_dtype)
        ad.reduce_sum(out * Tensor(weights)).backward()
    else:
        loss(out).backward()
    return [out.data] + [x.grad for x in inputs]


def assert_fused_matches(fused, composed, arrays, dtype, grad_dtype, loss=None):
    got = _run(fused, arrays, dtype, grad_dtype, loss)
    want = _run(composed, arrays, dtype, grad_dtype, loss)
    for g, w in zip(got, want, strict=True):
        assert_same_bits(g, w)


def _randn(rng, *shape, scale=1.0):
    return rng.standard_normal(shape) * scale


def _relu_chain(y, relu):
    return ad.relu(y) if relu else y


@pytest.mark.parametrize("dtype,grad_dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
@pytest.mark.parametrize("case", [CONV_CASES[0], CONV_CASES[1], CONV_T_CASES[0], CONV_T_CASES[4]],
                         ids=_case_id)
def test_conv_bias_relu_matches_chain(case, relu, dtype, grad_dtype):
    x_shape, k_shape, stride, output_padding = case
    rng = np.random.default_rng(4)
    f = k_shape[0] if output_padding is None else k_shape[1]
    arrays = [_randn(rng, *x_shape), _randn(rng, *k_shape, scale=0.3), _randn(rng, f)]
    if output_padding is None:
        def conv(x, k, b=None, relu=False):
            return ad.conv2d(x, k, stride, b, relu)
    else:
        def conv(x, k, b=None, relu=False):
            return ad.conv_transpose2d(x, k, stride, output_padding, b, relu)
    assert_fused_matches(
        lambda x, k, b: conv(x, k, b, relu),
        lambda x, k, b: _relu_chain(conv(x, k) + ad.reshape(b, (1, -1, 1, 1)), relu),
        arrays, dtype, grad_dtype)


@pytest.mark.parametrize("dtype,grad_dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
def test_dense_relu_matches_chain(relu, dtype, grad_dtype):
    rng = np.random.default_rng(5)
    arrays = [_randn(rng, 7, 5), _randn(rng, 5, 6), _randn(rng, 6)]
    assert_fused_matches(lambda x, w, b: ad.dense(x, w, b, relu),
                         lambda x, w, b: _relu_chain(ad.dense(x, w, b), relu),
                         arrays, dtype, grad_dtype)


def _mlp_chain(inputs, params):
    h = inputs[0] if len(inputs) == 1 else ad.concat(inputs, axis=1)
    layers = list(zip(params[0::2], params[1::2]))
    for i, (w, b) in enumerate(layers):
        h = ad.dense(h, w, b)
        if i < len(layers) - 1:
            h = ad.relu(h)
    return h


@pytest.mark.parametrize("dtype,grad_dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("widths", [(6,), (6, 2)], ids=["actor_trunk", "q_on_z_and_a"])
def test_mlp_matches_chain(widths, dtype, grad_dtype):
    rng = np.random.default_rng(6)
    n, hidden = 9, 16
    inputs = [_randn(rng, n, w) for w in widths]
    params = []
    for d_in, d_out in ((sum(widths), hidden), (hidden, hidden), (hidden, 1)):
        params += [_randn(rng, d_in, d_out, scale=0.5), _randn(rng, d_out, scale=0.5)]
    k = len(inputs)
    assert_fused_matches(lambda *ts: ad.mlp(ts[:k], ts[k:]),
                         lambda *ts: _mlp_chain(ts[:k], ts[k:]),
                         inputs + params, dtype, grad_dtype)


def test_mlp_skips_gradients_nobody_needs():
    rng = np.random.default_rng(7)
    z = Tensor(rng.standard_normal((4, 3)).astype(np.float32))           # a constant
    a = Tensor(rng.standard_normal((4, 2)).astype(np.float32), requires_grad=True)
    params = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=rg)
              for s, rg in (((5, 4), True), ((4,), True), ((4, 1), False), ((1,), False))]
    grads = ad.mlp([z, a], params).node.backward_fn(np.ones((4, 1), np.float32))
    assert grads[0] is None and grads[1].shape == (4, 2)
    assert grads[2].shape == (5, 4) and grads[3].shape == (4,)
    assert grads[4] is None and grads[5] is None


LN_EPS = 1e-5


def _layer_norm_chain(x, g, b):
    mu = ad.reduce_mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = ad.reduce_mean(ad.square(centered), axis=-1, keepdims=True)
    normed = centered / ad.sqrt(var + LN_EPS)
    return normed * g + b


@pytest.mark.parametrize("dtype,grad_dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("n", [1, 5])
def test_dense_ln_tanh_matches_chain(n, dtype, grad_dtype):
    rng = np.random.default_rng(9)
    arrays = [_randn(rng, n, 4, 3, 3), _randn(rng, 36, 8, scale=0.2), _randn(rng, 8, scale=0.2),
              1.0 + _randn(rng, 8, scale=0.1), _randn(rng, 8, scale=0.1)]
    # an NCHW view of NHWC memory, as a conv hands its output on
    arrays[0] = np.ascontiguousarray(arrays[0].transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert_fused_matches(
        lambda x, w, b, g, beta: ad.dense_ln_tanh(x, w, b, g, beta, LN_EPS),
        lambda x, w, b, g, beta: ad.tanh(_layer_norm_chain(
            ad.dense(ad.reshape(x, (x.shape[0], -1)), w, b), g, beta)),
        arrays, dtype, grad_dtype)


LOG_STD = (-10.0, 2.0)


def _squashed_chain(out, eps):
    """The composed actor sample: narrow, clip, exp, the reparameterized u,
    tanh, and the log-density with its tanh correction."""
    act = out.shape[1] // 2
    mu = ad.narrow(out, 1, 0, act)
    log_std = ad.clip(ad.narrow(out, 1, act, act), *LOG_STD)
    std = ad.exp(log_std)
    u = mu + std * Tensor(eps.astype(np.float32))
    a = ad.tanh(u)
    gauss = ad.reduce_sum(-0.5 * ad.square((u - mu) / std) - log_std - 0.5 * LOG_2PI, axis=1)
    correction = ad.reduce_sum(2.0 * (LN2 - u - ad.softplus(-2.0 * u)), axis=1)
    return a, gauss - correction


def _squashed_fused(out, eps):
    a, logp = ad.squashed_gaussian(out, eps, *LOG_STD).split([out.shape[1] // 2, 1])
    return a, ad.reshape(logp, (-1,))


@pytest.mark.parametrize("dtype,grad_dtype", DTYPES, ids=DTYPE_IDS)
def test_squashed_gaussian_matches_chain_in_an_actor_loss(dtype, grad_dtype):
    """The actor loss alpha * logp - min(Q1, Q2) reaches u through four terms;
    this pins the order in which the fused backward adds them."""
    rng = np.random.default_rng(10)
    n, act, z_dim, hidden = 64, 4, 6, 16
    out = np.concatenate([_randn(rng, n, act), _randn(rng, n, act, scale=3.0)], axis=1)
    assert (out[:, act:] > LOG_STD[1]).any()     # some log-stds are clipped
    eps = rng.standard_normal((n, act))
    z = _randn(rng, n, z_dim)
    qs = [[_randn(rng, z_dim + act, hidden, scale=0.5), _randn(rng, hidden, scale=0.5),
           _randn(rng, hidden, 1, scale=0.5), _randn(rng, 1)] for _ in range(2)]
    alpha = 0.1 * np.ones((), grad_dtype)

    def run(sample):
        ts = [Tensor(x.astype(dtype), requires_grad=True) for x in [out, z] + qs[0] + qs[1]]
        a, logp = sample(ts[0], eps)
        q1, q2 = (ad.reshape(_mlp_chain([ts[1], a], ts[i:i + 4]), (-1,)) for i in (2, 6))
        loss = ad.reduce_mean(Tensor(alpha) * logp - ad.minimum(q1, q2))
        loss.backward()
        return [loss.data, a.data, logp.data] + [x.grad for x in ts]

    for got, want in zip(run(_squashed_fused), run(_squashed_chain), strict=True):
        assert_same_bits(got, want)


def test_split_gathers_gradients_by_concatenation():
    x = t(np.arange(6, dtype=np.float32).reshape(2, 3))
    left, right = x.split([2, 1])
    np.testing.assert_array_equal(right.data, [[2.0], [5.0]])
    g = np.array([[-0.0, 1.0], [2.0, -0.0]], dtype=np.float32)
    left.backward(g)
    assert_same_bits(x.grad, np.array([[-0.0, 1.0, 0.0], [2.0, -0.0, 0.0]], np.float32))
    with pytest.raises(ValueError):
        x.split([2, 2])


@pytest.mark.parametrize("dtype,grad_dtype", DTYPES, ids=DTYPE_IDS)
def test_sum_squares_matches_chain(dtype, grad_dtype):
    rng = np.random.default_rng(11)
    arrays = [_randn(rng, 4, 3), _randn(rng, 3), _randn(rng, 2, 3, 3, 3)]

    def chain(*ts):
        total = None
        for p in ts:
            term = ad.reduce_sum(ad.square(p))
            total = term if total is None else total + term
        return total

    assert_fused_matches(lambda *ts: ad.sum_squares(ts), chain, arrays, dtype, grad_dtype,
                         loss=lambda out: out * Tensor(np.asarray(1e-7, grad_dtype)))


@pytest.mark.parametrize("dtype,grad_dtype", DTYPES, ids=DTYPE_IDS)
def test_rae_error_matches_chain(dtype, grad_dtype):
    rng = np.random.default_rng(13)
    recon = _randn(rng, 6, 16, 16, 3).transpose(0, 3, 1, 2)   # NHWC memory, as deconv4 gives
    target = rng.uniform(0.0, 1.0, (6, 3, 16, 16)).astype(np.float32)

    def chain(recon, z):
        mse = ad.reduce_mean(ad.square(recon - Tensor(target)), axis=(1, 2, 3))
        return mse + ad.reduce_sum(ad.square(z), axis=1) * 1e-3

    assert_fused_matches(lambda recon, z: ad.rae_error(recon, Tensor(target), z, 1e-3), chain,
                         [recon, _randn(rng, 6, 8)], dtype, grad_dtype)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "minimum", "matmul"])
def test_generic_ops_skip_gradients_of_constants(op):
    rng = np.random.default_rng(12)
    x = Tensor(rng.uniform(0.5, 2.0, (3, 3)).astype(np.float32), requires_grad=True)
    c = Tensor(rng.uniform(0.5, 2.0, (3, 3)).astype(np.float32))
    g = np.ones((3, 3), np.float32)
    for inputs, needs in (((x, c), 0), ((c, x), 1)):
        grads = getattr(ad, op)(*inputs).node.backward_fn(g)
        assert grads[1 - needs] is None and grads[needs].shape == (3, 3)


def _public_ops():
    return [name for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == ad.__name__ and name not in ("as_tensor", "grad_check")]


def test_every_public_op_has_a_gradient_suite_entry(monkeypatch):
    """Each public op has a gradient_suite entry named ``<op>`` or
    ``<op>_<case>`` whose checked function calls it."""
    called = []   # the ops each grad_check call of the suite ran

    def record(name, fn):
        def wrapper(*args, **kwargs):
            called[-1].add(name)
            return fn(*args, **kwargs)
        return wrapper

    ops = _public_ops()
    for name in ops:
        monkeypatch.setattr(ad, name, record(name, getattr(ad, name)))
    check = diagnostics.grad_check
    monkeypatch.setattr(diagnostics, "grad_check",
                        lambda *a, **kw: called.append(set()) or check(*a, **kw))
    entries = list(diagnostics.gradient_suite(seed=0))
    assert len(entries) == len(called)
    missing = [op for op in ops if not any(
        (entry == op or entry.startswith(op + "_")) and op in ran
        for entry, ran in zip(entries, called))]
    assert missing == []


def test_ops_per_update_step_are_bounded():
    """The desk rae_cure config (mixed mode, both agents) builds at most 150
    tape ops per collected update step, counted as ``autodiff._make`` calls
    and averaged over pairs of steps (the actor steps every second one). The
    composed op chains built 475 per step (412 and 538 in turn)."""
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                   "desk_reacher_hard.txt"))
    cfg.replay.capacity, cfg.init_steps, cfg.steps = 100, 40, 51
    cfg.eval.interval, cfg.eval.episodes = cfg.steps, 1
    made, marks = [0], []
    make = ad._make

    def counting(*args):
        made[0] += 1
        return make(*args)

    def hook(t, phase):
        if phase == PHASES[-1]:
            marks.append(made[0])

    with tempfile.TemporaryDirectory() as out:
        trainer = Trainer(cfg, out, phase_hook=hook)
        ad._make = counting
        try:
            trainer.run_main()
        finally:
            ad._make = make
    steps = np.diff(marks)
    assert len(steps) == 10
    assert steps.mean() <= 150, steps
