"""Minimal reverse-mode automatic differentiation over dense numpy tensors.

A dynamic tape: every op that touches a tensor requiring gradients records a
node with a backward closure. ``Tensor.backward()`` walks the tape once in
reverse topological order and accumulates gradients into leaf tensors.
``Adam.minimize`` turns a loss into one parameter step and clears those
gradients again, so no tensor holds a gradient between steps. It returns
whether it stepped: a step with any non-finite gradient changes nothing and
returns ``False``, and the caller says so.

Storage defaults to float32; float64 inputs are preserved so finite-difference
oracles can run at full precision.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

_FLOAT_TYPES = (np.float32, np.float64)

_grad_enabled = True


class no_grad:
    """Context manager that disables tape construction (pure evaluation)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class _Node:
    __slots__ = ("inputs", "backward_fn")

    def __init__(self, inputs, backward_fn):
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """Dense n-dimensional array with optional gradient accumulation."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.node: Optional[_Node] = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # -- autodiff ------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> list:
        """Accumulate gradients into the leaves; returns the leaves written."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"seed gradient shape {grad.shape} != output shape {self.data.shape}")

        # Iterative post-order DFS; each node enters the order exactly once.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            if t.node is not None:
                for parent in t.node.inputs:
                    if parent.requires_grad:
                        stack.append((parent, False))

        pending: dict[int, np.ndarray] = {id(self): grad}
        leaves: list[Tensor] = []
        for t in reversed(order):
            g = pending.pop(id(t), None)
            if g is None:
                continue
            if t.node is None:
                if t.requires_grad:
                    t.grad = g if t.grad is None else t.grad + g
                    leaves.append(t)
                continue
            parent_grads = t.node.backward_fn(g)
            for parent, pg in zip(t.node.inputs, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if id(parent) in pending:
                    pending[id(parent)] = pending[id(parent)] + pg
                else:
                    pending[id(parent)] = pg
        return leaves

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    # Python scalars stay float32 so constants never upcast a float32 graph;
    # float64 arrays are preserved for the finite-difference oracles.
    if isinstance(x, (int, float)):
        return Tensor(np.float32(x))
    return Tensor(x)


def _make(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in inputs):
        out.requires_grad = True
        out.node = _Node(tuple(inputs), backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic --------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    inv = 1.0 / b.data
    return _make(a.data * inv, (a, b),
                 lambda g: (_unbroadcast(g * inv, a.shape),
                            _unbroadcast(-g * a.data * inv * inv, b.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return _make(a.data @ b.data, (a, b),
                 lambda g: (g @ b.data.T, a.data.T @ g))


def dense(x, w, b) -> Tensor:
    """Affine map x @ w + b with broadcast bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"dense: incompatible shapes x={x.shape} w={w.shape}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"dense: bias shape {b.shape} != ({w.shape[1]},)")
    return _make(x.data @ w.data + b.data, (x, w, b),
                 lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)))


# -- shape manipulation ------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis (backward zero-pads)."""
    a = as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return _make(a.data[idx].copy(), (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        outs = []
        idx = [slice(None)] * g.ndim
        for i in range(len(tensors)):
            idx[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(idx)])
        return tuple(outs)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


# -- elementwise -------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: (g * (1.0 - y * y),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    return _make(y, (a,), lambda g: (g * y,))


def softplus(a) -> Tensor:
    a = as_tensor(a)
    y = np.logaddexp(0.0, a.data)

    def backward(g):
        # sigmoid(x), stable on both tails
        return (g * (0.5 * (1.0 + np.tanh(0.5 * a.data))),)

    return _make(y, (a,), backward)


def square(a) -> Tensor:
    a = as_tensor(a)
    return _make(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0):
        raise ValueError("sqrt: input must be nonnegative")
    y = np.sqrt(a.data)
    return _make(y, (a,), lambda g: (g / (2.0 * y),))


def clip(a, lo: float, hi: float) -> Tensor:
    """Hard clamp; gradient is 1 strictly inside (lo, hi), else 0."""
    a = as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)
    return _make(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    mask = a.data <= b.data
    return _make(np.minimum(a.data, b.data), (a, b),
                 lambda g: (_unbroadcast(g * mask, a.shape), _unbroadcast(g * ~mask, b.shape)))


# -- reductions --------------------------------------------------------

def _check_axis(axis, ndim):
    if axis is None:
        return None
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise ValueError(f"axis {ax} out of range for {ndim}-d tensor")
    return tuple(ax % ndim for ax in axes)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _check_axis(axis, a.ndim)
    shape = a.shape

    def backward(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axis=axes)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(a.data.sum(axis=axes, keepdims=keepdims), (a,), backward)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _check_axis(axis, a.ndim)
    shape = a.shape
    if axes is None:
        count = a.size
    else:
        count = int(np.prod([shape[ax] for ax in axes]))

    def backward(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axis=axes)
        return (np.broadcast_to(g / count, shape).copy(),)

    return _make(a.data.mean(axis=axes, keepdims=keepdims), (a,), backward)


# -- convolutions (3x3 kernels, valid padding) ---------------------------
# Tensors are NCHW at the op boundary and channels-last (NHWC) inside an op,
# so im2col rows and scattered taps are runs of contiguous channels; kernels
# (F, C, 3, 3) become (F, 9C) rows in the same (u, v, c) order. Results are
# NCHW views of NHWC arrays; the elementwise ops that follow keep that memory
# layout, so the next conv's transpose to NHWC copies nothing.

def _nhwc(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _im2col(xh: np.ndarray, stride: int, ho: int, wo: int) -> np.ndarray:
    """(N, H, W, C) -> (N*ho*wo, 9C) rows of 3x3 windows, channels fastest."""
    n, _, _, c = xh.shape
    s0, s1, s2, s3 = xh.strides
    win = np.lib.stride_tricks.as_strided(
        xh, (n, ho, wo, 3, 3, c), (s0, s1 * stride, s2 * stride, s1, s2, s3))
    return win.reshape(n * ho * wo, 9 * c)


def _scatter(xh: np.ndarray, kmat: np.ndarray, stride: int, ho: int, wo: int) -> np.ndarray:
    """(N, H, W, F) -> (N, ho, wo, C): adds xh @ tap (u, v) of kmat at its offset."""
    n, h, w, f = xh.shape
    taps = np.ascontiguousarray(kmat.reshape(f, 3, 3, -1).transpose(1, 2, 0, 3))
    rows = xh.reshape(n * h * w, f)
    acc = np.zeros((n, ho, wo, taps.shape[3]), dtype=np.result_type(xh, kmat))
    for u in range(3):
        for v in range(3):
            acc[:, u:u + stride * (h - 1) + 1:stride,
                v:v + stride * (w - 1) + 1:stride] += (rows @ taps[u, v]).reshape(n, h, w, -1)
    return acc


def conv2d(x, k, stride: int = 1) -> Tensor:
    """Valid (no-padding) cross-correlation with a 3x3 kernel."""
    x, k = as_tensor(x), as_tensor(k)
    if stride not in (1, 2):
        raise ValueError(f"conv2d: stride must be 1 or 2, got {stride}")
    if x.ndim != 4 or k.ndim != 4 or k.shape[2:] != (3, 3):
        raise ValueError(f"conv2d: expected x (N,C,H,W) and k (F,C,3,3), got {x.shape} and {k.shape}")
    n, c, h, w = x.shape
    f, ck = k.shape[0], k.shape[1]
    if ck != c:
        raise ValueError(f"conv2d: channel mismatch, input has {c}, kernel expects {ck}")
    if h < 3 or w < 3:
        raise ValueError(f"conv2d: input {h}x{w} smaller than 3x3 kernel")
    ho = (h - 3) // stride + 1
    wo = (w - 3) // stride + 1

    cols = _im2col(_nhwc(x.data), stride, ho, wo)
    kmat = k.data.transpose(0, 2, 3, 1).reshape(f, 9 * c)
    out = (cols @ kmat.T).reshape(n, ho, wo, f).transpose(0, 3, 1, 2)

    def backward(g):
        gh = _nhwc(g)
        gk = (gh.reshape(-1, f).T @ cols).reshape(f, 3, 3, c).transpose(0, 3, 1, 2)
        gx = _scatter(gh, kmat, stride, h, w).transpose(0, 3, 1, 2) if x.requires_grad else None
        return (gx, gk)

    return _make(out, (x, k), backward)


def conv_transpose2d(x, k, stride: int = 1, output_padding: int = 0) -> Tensor:
    """Adjoint of conv2d with the same stride.

    Forward equals conv2d's gradient wrt its input; ``output_padding`` picks
    the exact inverse shape for stride 2 (must be 0 for stride 1).
    """
    x, k = as_tensor(x), as_tensor(k)
    if stride not in (1, 2):
        raise ValueError(f"conv_transpose2d: stride must be 1 or 2, got {stride}")
    if output_padding not in (0, 1) or output_padding >= stride:
        raise ValueError(f"conv_transpose2d: output_padding {output_padding} invalid for stride {stride}")
    if x.ndim != 4 or k.ndim != 4 or k.shape[2:] != (3, 3):
        raise ValueError(f"conv_transpose2d: expected x (N,F,H,W) and k (F,C,3,3), got {x.shape} and {k.shape}")
    n, f, h, w = x.shape
    if k.shape[0] != f:
        raise ValueError(f"conv_transpose2d: channel mismatch, input has {f}, kernel expects {k.shape[0]}")
    c = k.shape[1]
    ho = (h - 1) * stride + 3 + output_padding
    wo = (w - 1) * stride + 3 + output_padding

    xh = _nhwc(x.data)
    kmat = k.data.transpose(0, 2, 3, 1).reshape(f, 9 * c)
    out = _scatter(xh, kmat, stride, ho, wo).transpose(0, 3, 1, 2)

    def backward(g):
        gcols = _im2col(_nhwc(g), stride, h, w)
        gk = (xh.reshape(-1, f).T @ gcols).reshape(f, 3, 3, c).transpose(0, 3, 1, 2)
        gx = (gcols @ kmat.T).reshape(n, h, w, f).transpose(0, 3, 1, 2) if x.requires_grad else None
        return (gx, gk)

    return _make(out, (x, k), backward)


# -- classification loss -------------------------------------------------

def log_softmax_cross_entropy(logits, target_index) -> Tensor:
    """Per-row cross-entropy: -logit[target] + logsumexp(row), max-stabilized."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError(f"log_softmax_cross_entropy: logits must be 2-d, got {logits.shape}")
    n, k = logits.shape
    idx = np.asarray(target_index, dtype=np.int64).reshape(-1)
    if idx.shape[0] != n:
        raise ValueError(f"log_softmax_cross_entropy: {idx.shape[0]} targets for {n} rows")
    if np.any(idx < 0) or np.any(idx >= k):
        raise ValueError(f"log_softmax_cross_entropy: target index out of range [0, {k})")

    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    expx = np.exp(shifted)
    sumexp = expx.sum(axis=1, keepdims=True)
    lse = np.log(sumexp) + m
    rows = np.arange(n)
    out = lse[:, 0] - logits.data[rows, idx]
    softmax = expx / sumexp

    def backward(g):
        gl = softmax * g[:, None]
        gl[rows, idx] -= g
        return (gl,)

    return _make(out, (logits,), backward)


# -- optimizer -----------------------------------------------------------

class ParamGroup:
    """Named parameter tensors whose values are views of one flat buffer.

    Parameter values change only through ``set``, which replaces the buffer
    and rebinds every tensor's ``.data`` to a view of the new one. Nothing is
    written into a buffer in place, so an update keeps the dtype its
    arithmetic gives (float64 when an operand is float64).
    """

    def __init__(self, name: str, params: dict, requires_grad: bool = True):
        self.name = name
        self.params = dict(params)
        for p in self.params.values():
            p.requires_grad = requires_grad
        self.data = np.concatenate([p.data.reshape(-1) for p in self.params.values()])
        self.set(self.data)

    def set(self, flat: np.ndarray):
        if flat.shape != self.data.shape:
            raise ValueError(f"group {self.name}: {flat.shape} values, expected {self.data.shape}")
        self.data = flat
        i = 0
        for p in self.params.values():
            p.data = flat[i:i + p.size].reshape(p.shape)
            i += p.size


class AdamState:
    """First/second moment buffers for one parameter group."""

    __slots__ = ("m", "v")

    def __init__(self, shape, dtype=np.float32):
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam over parameter groups; ``params`` maps every name to its tensor."""

    def __init__(self, groups, lr: float):
        self.groups = list(groups)
        self.params = {n: p for g in self.groups for n, p in g.params.items()}
        self.lr = lr
        self.t = 0
        self.state = {g.name: AdamState(g.data.shape, g.data.dtype) for g in self.groups}

    def minimize(self, loss: Tensor) -> bool:
        """One step down ``loss``: backward, then ``step``, whose result it
        returns. Every gradient the backward pass wrote is cleared afterwards,
        on leaves outside this optimizer too."""
        leaves = loss.backward()
        stepped = self.step()
        for p in leaves:
            p.grad = None
        return stepped

    def step(self) -> bool:
        """Apply one bias-corrected update from each parameter's .grad and
        return ``True``. If any gradient is not finite, change nothing (no
        parameter, moment or step count ``t``) and return ``False``."""
        grads = [np.concatenate([np.zeros(p.size, p.dtype) if p.grad is None else p.grad.reshape(-1)
                                 for p in group.params.values()]) for group in self.groups]
        if not all(np.all(np.isfinite(g)) for g in grads):
            return False
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for group, g in zip(self.groups, grads):
            st = self.state[group.name]
            st.m = ADAM_BETA1 * st.m + (1.0 - ADAM_BETA1) * g
            st.v = ADAM_BETA2 * st.v + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = st.m / c1
            v_hat = st.v / c2
            group.set(group.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        return True

    # checkpoint support: the step count and each group's moments
    def export_state(self) -> dict:
        return {"t": self.t, **{name: {"m": st.m, "v": st.v} for name, st in self.state.items()}}

    def import_state(self, state: dict):
        self.t = int(state["t"])
        for name, st in self.state.items():
            st.m = state[name]["m"].astype(st.m.dtype)
            st.v = state[name]["v"].astype(st.v.dtype)


# -- finite-difference oracle --------------------------------------------

def grad_check(f, tensors, h: float = 1e-5, sample: Optional[int] = None,
               seed: int = 0) -> float:
    """Compare backward-pass gradients against 64-bit central differences.

    ``f`` is a zero-argument closure returning a scalar Tensor, e.g. a loss
    over a whole module. The given tensors are promoted to float64, perturbed
    in place and restored afterwards. Returns the max relative error across
    them, each tensor's being ``max|fd - analytic| / max(max|fd|,
    max|analytic|, 1e-8)``. ``sample`` limits the probed elements per tensor
    (deterministic); ``None`` probes every element.

    A probe where the analytic gradient changes across x-h..x+h sits on a
    kink (relu, clip) where central differences are invalid, and is skipped;
    a wrong gradient still fails at the smooth probes. At ``h=1e-3`` mere
    curvature already looks like a kink, so keep ``h`` small. A tensor whose
    every probe is skipped raises.
    """
    originals = [t.data for t in tensors]
    for t in tensors:
        t.data = t.data.astype(np.float64)
        t.grad = None
    try:
        f().backward()
        analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                    for t in tensors]
        rng = np.random.default_rng(seed)
        worst = 0.0
        for k, (t, an) in enumerate(zip(tensors, analytic)):
            flat = t.data.reshape(-1)
            an_flat = an.reshape(-1)
            n = flat.size
            probe = np.arange(n) if sample is None else rng.choice(
                n, size=min(sample, n), replace=False)

            def at(i, value):
                """(f, d f / d flat[i]) with flat[i] set to ``value``."""
                orig = flat[i]
                flat[i] = value
                for u in tensors:
                    u.grad = None
                out = f()
                out.backward()
                g = float(t.grad.reshape(-1)[i]) if t.grad is not None else 0.0
                flat[i] = orig
                return float(out.data), g

            fd = np.zeros(len(probe))
            smooth = np.ones(len(probe), dtype=bool)
            for j, i in enumerate(probe):
                step = h * max(1.0, abs(flat[i]))
                (fp, gp), (fm, gm) = at(i, flat[i] + step), at(i, flat[i] - step)
                fd[j] = (fp - fm) / (2.0 * step)
                g0 = an_flat[i]
                jump = max(abs(gp - g0), abs(gm - g0))
                smooth[j] = jump <= 1e-4 * max(abs(gp), abs(gm), abs(g0), 1e-8)
            if not smooth.any():
                raise ValueError(f"grad_check: every probe of tensor {k} sits on a kink")
            fd, an_probe = fd[smooth], an_flat[probe][smooth]
            scale = max(np.max(np.abs(fd)), np.max(np.abs(an_probe)), 1e-8)
            worst = max(worst, float(np.max(np.abs(fd - an_probe)) / scale))
        return worst
    finally:
        for t, orig in zip(tensors, originals):
            t.data = orig
            t.grad = None
