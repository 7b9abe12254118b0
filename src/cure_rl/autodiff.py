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

The hot path writes into arrays it already owns: ``Adam.step`` updates its
moments in place, the Polyak and EMA averages their target buffers, and the
layer ops add their bias and apply their relu mask on the fresh GEMM or
scatter output. One rule
keeps the bits of the out-of-place expressions in every dtype combination
(``_into``): a buffer is scaled in its own dtype, widened exactly
(``astype``) only when the term added to it is wider, and then the term is
added in place.

Module-level ops make one tape node of a whole module: conv + bias + relu
(``conv2d``, ``conv_transpose2d``), dense + relu (``dense``), a relu MLP on
concatenated inputs (``mlp``), the encoder's dense + LayerNorm + tanh head
(``dense_ln_tanh``), the actor's squashed Gaussian sample with its
log-density (``squashed_gaussian``, split by ``Tensor.split``), the per-sample
autoencoder error (``rae_error``) and the weight penalty (``sum_squares``).
Each runs the numpy expressions of the op chain it replaced, with the same
dtypes and operand order, and the same memory layout wherever a reduction's
summation order depends on it, so results keep every bit. Where
that chain's tape summed three or more gradient terms into one tensor, the
fused backward adds them in the order the tape did: floating-point addition
commutes but does not associate. The generic ops stay for the losses, for
``grad_check`` and as the tests' reference chains. Every op computes a
gradient only for the inputs that require one.
"""

from __future__ import annotations

import math
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


class _Parts(tuple):
    """The gradients of the pieces of one ``Tensor.split``, by position
    (``None`` for a piece none reached); the tape adds two position by position."""

    __slots__ = ()

    def __add__(self, other):
        return _Parts(x if y is None else y if x is None else x + y
                      for x, y in zip(self, other))


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

    def split(self, sizes) -> tuple:
        """Cut the last axis into pieces of the given sizes, one tensor each.

        Their gradients come back as one concatenation, with zeros for a piece
        none reached. A sum of zero-padded ``narrow`` gradients would turn a
        -0.0 into 0.0; this keeps every bit.
        """
        ends = np.cumsum(sizes)
        if ends[-1] != self.shape[-1]:
            raise ValueError(f"split: sizes {list(sizes)} do not add up to {self.shape[-1]}")
        pieces = [self.data[..., end - size:end] for size, end in zip(sizes, ends)]

        def gather(parts):
            return (np.concatenate([np.zeros_like(p) if g is None else g
                                    for g, p in zip(parts, pieces)], axis=-1),)

        joint = _make(self.data, (self,), gather)

        def route(i):
            return lambda g: (_Parts(g if j == i else None for j in range(len(pieces))),)

        return tuple(_make(p, (joint,), route(i)) for i, p in enumerate(pieces))

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


def _into(buf: np.ndarray, term, op=np.add) -> np.ndarray:
    """``op(buf, term)`` with the bits numpy gives it out of place, written
    into ``buf``; returns the array holding it. ``buf`` is first widened
    exactly (``astype``) when ``term`` is wider, so that array is new only
    then."""
    wide = np.result_type(buf, term)
    if wide != buf.dtype:
        buf = buf.astype(wide)
    return op(buf, term, out=buf)


def _broadcast(x: np.ndarray, shape) -> np.ndarray:
    """A new array of ``shape`` filled from ``x`` by broadcasting."""
    out = np.empty(shape, x.dtype)
    out[...] = x
    return out


def _mean(x: np.ndarray, axes=None, keepdims: bool = False):
    """``x.mean(axes, keepdims)`` of a float array (``axes`` a tuple of
    non-negative axes, or ``None``): the method's own two numpy calls,
    without its Python-level wrapper."""
    total = np.add.reduce(x, axis=axes, keepdims=keepdims)
    # an np.intp count, as the method's: float32 sums are divided in float64
    count = np.intp(x.size if axes is None else math.prod(x.shape[ax] for ax in axes))
    if isinstance(total, np.ndarray):
        return np.true_divide(total, count, out=total, casting="unsafe")
    return total.dtype.type(total / count)


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
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(g, b.shape) if b.requires_grad else None))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(-g, b.shape) if b.requires_grad else None))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    inv = 1.0 / b.data
    return _make(a.data * inv, (a, b),
                 lambda g: (_unbroadcast(g * inv, a.shape) if a.requires_grad else None,
                            _unbroadcast(-g * a.data * inv * inv, b.shape)
                            if b.requires_grad else None))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return _make(a.data @ b.data, (a, b),
                 lambda g: (g @ b.data.T if a.requires_grad else None,
                            a.data.T @ g if b.requires_grad else None))


def _check_dense(op, x_shape, w, b):
    if len(x_shape) != 2 or w.ndim != 2 or x_shape[1] != w.shape[0]:
        raise ValueError(f"{op}: incompatible shapes x={x_shape} w={w.shape}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"{op}: bias shape {b.shape} != ({w.shape[1]},)")


def _epilogue(y: np.ndarray, b: Optional[np.ndarray], relu: bool):
    """``relu(y + b)`` (without the bias if ``b`` is ``None``, without the
    relu if not ``relu``) as the ``add`` and ``relu`` ops compute it, written
    into the fresh array ``y`` unless ``b`` is wider. ``b`` broadcasts against
    ``y``'s last axis. Returns the result and the relu mask (``None`` without
    relu)."""
    if b is not None:
        y = _into(y, b)
    if not relu:
        return y, None
    mask = y > 0
    return np.multiply(y, mask, out=y), mask


def dense(x, w, b, relu: bool = False) -> Tensor:
    """Affine map x @ w + b with broadcast bias, through a relu if ``relu``."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_dense("dense", x.shape, w, b)
    y, mask = _epilogue(x.data @ w.data, b.data, relu)

    def backward(g):
        if relu:
            g = g * mask
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _make(y, (x, w, b), backward)


def mlp(inputs, params) -> Tensor:
    """A stack of dense layers with a relu between each two, as one op.

    ``inputs`` are concatenated along axis 1 (the input gradient is split back
    into one view per input); ``params`` is ``[w1, b1, w2, b2, ...]``.
    """
    inputs = [as_tensor(t) for t in inputs]
    params = [as_tensor(p) for p in params]
    if not inputs or not params or len(params) % 2:
        raise ValueError("mlp: needs at least one input and (w, b) pairs of parameters")
    h = inputs[0].data if len(inputs) == 1 else \
        np.concatenate([t.data for t in inputs], axis=1)
    layers = list(zip(params[0::2], params[1::2]))
    acts, masks = [], []       # each layer's input; each hidden layer's relu mask
    for i, (w, b) in enumerate(layers):
        _check_dense("mlp", h.shape, w, b)
        acts.append(h)
        h, mask = _epilogue(h @ w.data, b.data, i < len(layers) - 1)
        masks.append(mask)

    def backward(g):
        grads = []
        for i in reversed(range(len(layers))):
            w, b = layers[i]
            if i < len(layers) - 1:
                g = g * masks[i]
            grads += [g.sum(axis=0) if b.requires_grad else None,
                      acts[i].T @ g if w.requires_grad else None]
            g = g @ w.data.T if i or any(t.requires_grad for t in inputs) else None
        ends = np.cumsum([t.shape[1] for t in inputs])
        gx = [None if g is None or not t.requires_grad else g[:, end - t.shape[1]:end]
              for t, end in zip(inputs, ends)]
        return tuple(gx) + tuple(reversed(grads))

    return _make(h, inputs + params, backward)


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
                 lambda g: (_unbroadcast(g * mask, a.shape) if a.requires_grad else None,
                            _unbroadcast(g * ~mask, b.shape) if b.requires_grad else None))


# -- reductions --------------------------------------------------------

def _check_axis(axis, ndim):
    if axis is None:
        return None
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise ValueError(f"axis {ax} out of range for {ndim}-d tensor")
    return tuple(ax % ndim for ax in axes)


def _kept(shape, axes) -> tuple:
    """``shape`` with each of ``axes`` (``None``: every axis) set to 1."""
    return tuple(1 if axes is None or i in axes else s for i, s in enumerate(shape))


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _check_axis(axis, a.ndim)
    shape = a.shape
    return _make(a.data.sum(axis=axes, keepdims=keepdims), (a,),
                 lambda g: (_broadcast(g.reshape(_kept(shape, axes)), shape),))


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _check_axis(axis, a.ndim)
    shape = a.shape
    count = a.size if axes is None else math.prod(shape[ax] for ax in axes)
    return _make(_mean(a.data, axes, keepdims), (a,),
                 lambda g: (_broadcast(g.reshape(_kept(shape, axes)) / count, shape),))


# -- convolutions (3x3 kernels, valid padding) ---------------------------
# Tensors are NCHW at the op boundary and channels-last (NHWC) inside an op,
# so im2col rows and scattered taps are runs of contiguous channels; kernels
# (F, C, 3, 3) become (F, 9C) rows in the same (u, v, c) order. Results are
# NCHW views of NHWC arrays; the elementwise ops that follow keep that memory
# layout, so the next conv's transpose to NHWC copies nothing.

def _nhwc(a: np.ndarray) -> np.ndarray:
    """``a``'s values as a C-contiguous NHWC array (``a`` itself underneath
    when it is an NCHW view of one)."""
    t = a.transpose(0, 2, 3, 1)
    if t.flags.c_contiguous or a.shape[1] > 4:
        return np.ascontiguousarray(t)
    # a whole-array transpose copy would run over the short channel axis;
    # one copy per channel (the frames, deconv4's gradient) is about 4x
    # faster for 3 channels
    out = np.empty(t.shape, a.dtype)
    for c in range(a.shape[1]):
        out[..., c] = a[:, c]
    return out


def _im2col(xh: np.ndarray, stride: int, ho: int, wo: int) -> np.ndarray:
    """(N, H, W, C) -> (N*ho*wo, 9C) rows of 3x3 windows, channels fastest.
    ``xh`` is C-contiguous (``_nhwc``); the ``ndarray`` constructor checks
    that the window view stays inside it."""
    n, _, _, c = xh.shape
    s0, s1, s2, s3 = xh.strides
    win = np.ndarray((n, ho, wo, 3, 3, c), xh.dtype, xh, 0,
                     (s0, s1 * stride, s2 * stride, s1, s2, s3))
    return win.reshape(n * ho * wo, 9 * c)


def _scatter(xh: np.ndarray, kmat: np.ndarray, stride: int, ho: int, wo: int) -> np.ndarray:
    """(N, H, W, F) -> (N, ho, wo, C): adds xh @ tap (u, v) of kmat at its offset."""
    n, h, w, f = xh.shape
    rows = xh.reshape(n * h * w, f)
    if h == w == 1 and ho == wo == 3:
        # the nine taps of a single input position never overlap: one GEMM
        # lays them out in (u, v, c) order. Adding 0.0, as the zero
        # accumulator below does, turns a -0.0 into 0.0.
        out = (rows @ kmat).reshape(n, 3, 3, -1)
        out += 0.0
        return out
    taps = np.ascontiguousarray(kmat.reshape(f, 3, 3, -1).transpose(1, 2, 0, 3))
    acc = np.zeros((n, ho, wo, taps.shape[3]), dtype=np.result_type(xh, kmat))
    for u in range(3):
        for v in range(3):
            acc[:, u:u + stride * (h - 1) + 1:stride,
                v:v + stride * (w - 1) + 1:stride] += (rows @ taps[u, v]).reshape(n, h, w, -1)
    return acc


def _conv_epilogue(op, yh: np.ndarray, b, relu: bool):
    """The NCHW result of a conv whose fresh NHWC output is ``yh``, plus the
    per-channel bias ``b`` (if given), through a relu (if ``relu``), as
    ``y + reshape(b, (1, -1, 1, 1))`` and ``relu`` compute it. Returns the
    result and the relu mask (``None`` without relu), both NCHW views."""
    n, ho, wo, f = yh.shape
    row = None
    if b is not None:
        if b.shape != (f,):
            raise ValueError(f"{op}: bias shape {b.shape} != ({f},)")
        # the bias of one image row, so the add runs over wo * f contiguous
        # values rather than over a short channel axis (3 in deconv4)
        row = np.empty((wo, f), b.dtype)
        row[...] = b.data
        row = row.reshape(-1)
    y, mask = _epilogue(yh.reshape(n * ho, wo * f), row, relu)
    return (y.reshape(n, ho, wo, f).transpose(0, 3, 1, 2),
            None if mask is None else mask.reshape(n, ho, wo, f).transpose(0, 3, 1, 2))


def _conv_epilogue_grad(g: np.ndarray, b, mask):
    """Backward of ``_conv_epilogue``: (gradient of ``y``, gradient of ``b``)."""
    if mask is not None:
        g = g * mask
    gb = None
    if b is not None and b.requires_grad:
        gb = _unbroadcast(g, (1, b.shape[0], 1, 1)).reshape(b.shape)
    return g, gb


def _conv_inputs(x, k, b):
    return (x, k) if b is None else (x, k, b)


def conv2d(x, k, stride: int = 1, b=None, relu: bool = False) -> Tensor:
    """Valid (no-padding) cross-correlation with a 3x3 kernel, plus a bias
    per output channel if ``b`` is given, through a relu if ``relu``."""
    x, k = as_tensor(x), as_tensor(k)
    b = None if b is None else as_tensor(b)
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
    out, mask = _conv_epilogue("conv2d", (cols @ kmat.T).reshape(n, ho, wo, f), b, relu)

    def backward(g):
        g, gb = _conv_epilogue_grad(g, b, mask)
        gh = _nhwc(g)
        gk = (gh.reshape(-1, f).T @ cols).reshape(f, 3, 3, c).transpose(0, 3, 1, 2) \
            if k.requires_grad else None
        gx = _scatter(gh, kmat, stride, h, w).transpose(0, 3, 1, 2) if x.requires_grad else None
        return (gx, gk, gb)

    return _make(out, _conv_inputs(x, k, b), backward)


def conv_transpose2d(x, k, stride: int = 1, output_padding: int = 0, b=None,
                     relu: bool = False) -> Tensor:
    """Adjoint of conv2d with the same stride, plus a bias per output channel
    if ``b`` is given, through a relu if ``relu``.

    Forward equals conv2d's gradient wrt its input; ``output_padding`` picks
    the exact inverse shape for stride 2 (must be 0 for stride 1).
    """
    x, k = as_tensor(x), as_tensor(k)
    b = None if b is None else as_tensor(b)
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
    out, mask = _conv_epilogue("conv_transpose2d", _scatter(xh, kmat, stride, ho, wo), b, relu)

    def backward(g):
        g, gb = _conv_epilogue_grad(g, b, mask)
        gcols = _im2col(_nhwc(g), stride, h, w)
        gk = (xh.reshape(-1, f).T @ gcols).reshape(f, 3, 3, c).transpose(0, 3, 1, 2) \
            if k.requires_grad else None
        gx = (gcols @ kmat.T).reshape(n, h, w, f).transpose(0, 3, 1, 2) if x.requires_grad else None
        return (gx, gk, gb)

    return _make(out, _conv_inputs(x, k, b), backward)


# -- module-level ops ----------------------------------------------------
# Each runs the numpy expressions of the op chain it replaces, with the same
# dtypes and operand order, so outputs and gradients keep every bit. Where the
# chain's tape summed three or more gradient terms into one tensor, the fused
# backward adds them in the order that tape did; two terms commute exactly.

def _layer_norm(x: np.ndarray, gain: Tensor, bias: Tensor, eps: float):
    """LayerNorm over the last axis of ``x`` as the composed chain computed it
    (reduce_mean, sub, square, reduce_mean, add, sqrt, div, mul, add). Returns
    the output and its backward, ``g -> (gx, ggain, gbias)``."""
    axes = (x.ndim - 1,)
    count = x.shape[-1]
    mu = _mean(x, axes, keepdims=True)
    centered = x - mu
    sd = np.sqrt(_mean(centered * centered, axes, keepdims=True) + np.float32(eps))
    inv = 1.0 / sd
    normed = centered * inv

    def backward(g):
        gn = g * gain.data
        gsd = _unbroadcast(-gn * centered * inv * inv, sd.shape)
        # broadcasting copies the (N, 1) terms along rows; each element
        # goes through the same roundings as from an expanded copy
        gvar = gsd / (2.0 * sd) / count
        gc = gn * inv + gvar * 2.0 * centered
        gx = gc + _unbroadcast(-gc, mu.shape) / count
        return (gx,
                _unbroadcast(g * normed, gain.shape) if gain.requires_grad else None,
                _unbroadcast(g, bias.shape) if bias.requires_grad else None)

    return normed * gain.data + bias.data, backward


def dense_ln_tanh(x, w, b, gain, bias, eps: float) -> Tensor:
    """tanh(layer_norm(x.reshape(N, -1) @ w + b)): the encoder's latent head."""
    x, w, b, gain, bias = (as_tensor(t) for t in (x, w, b, gain, bias))
    flat = x.data.reshape((x.shape[0], -1))
    _check_dense("dense_ln_tanh", flat.shape, w, b)
    if gain.shape != b.shape or bias.shape != b.shape:
        raise ValueError(f"dense_ln_tanh: gain {gain.shape} and bias {bias.shape} "
                         f"must be {b.shape}")
    normed, ln_backward = _layer_norm(flat @ w.data + b.data, gain, bias, eps)
    y = np.tanh(normed)

    def backward(g):
        gh, ggain, gbias = ln_backward(g * (1.0 - y * y))
        return ((gh @ w.data.T).reshape(x.shape) if x.requires_grad else None,
                flat.T @ gh if w.requires_grad else None,
                gh.sum(axis=0) if b.requires_grad else None,
                ggain, gbias)

    return _make(y, (x, w, b, gain, bias), backward)


LOG_2PI = math.log(2.0 * math.pi)
LN2 = math.log(2.0)


def squashed_gaussian(params, eps, log_std_min: float, log_std_max: float) -> Tensor:
    """Reparameterized tanh-Gaussian sample and its log-density, as one op.

    ``params`` is (N, 2A): the mean in its first A columns and the log standard
    deviation, clipped to [log_std_min, log_std_max], in its last A. With
    u = mean + std * eps, the result is (N, A + 1): the action tanh(u) in its
    first A columns, and in its last the log-density of the action, the
    Gaussian log-density of u minus sum_j 2 (ln 2 - u_j - softplus(-2 u_j)).
    ``Tensor.split`` takes the two apart.

    Four gradient terms reach u. The backward adds them in the order the tape
    of the composed chain added them in an actor loss: the Gaussian term
    (u - mean), then ln 2 - u, then -2 u, then the action's tanh.
    """
    params = as_tensor(params)
    n, width = params.shape
    act = width // 2
    eps = np.asarray(eps).astype(np.float32)
    if width != 2 * act or eps.shape != (n, act):
        raise ValueError(f"squashed_gaussian: params {params.shape} need an even width "
                         f"and eps of shape (N, width / 2), got {eps.shape}")
    mean, raw = params.data[:, :act], params.data[:, act:]
    inside = (raw > log_std_min) & (raw < log_std_max)
    log_std = np.minimum(np.maximum(raw, log_std_min), log_std_max)   # np.clip, unwrapped
    std = np.exp(log_std)
    u = mean + std * eps
    a = np.tanh(u)
    d = u - mean
    inv = 1.0 / std
    r = d * inv
    gauss = (np.float32(-0.5) * (r * r) - log_std - np.float32(0.5 * LOG_2PI)).sum(axis=(1,))
    m2u = np.float32(-2.0) * u
    correction = (np.float32(2.0) * (np.float32(LN2) - u - np.logaddexp(0.0, m2u))).sum(axis=(1,))
    logp = gauss - correction

    def backward(g):
        ga, gl = g[:, :act], g[:, act:]
        gr = gl * np.float32(-0.5) * 2.0 * r
        gd = gr * inv
        # of ln 2 - u - softplus(-2 u), and of -2 u; (N, 1) until gu
        gc = -gl * np.float32(2.0)
        gm2u = (-gc) * (0.5 * (1.0 + np.tanh(0.5 * m2u)))
        gu = gd + (-gc) + gm2u * np.float32(-2.0) + ga * (1.0 - a * a)
        gstd = gu * eps + (-gr * d * inv * inv)
        glog_std = (gstd * std + (-gl)) * inside
        # the chain summed the zero-padded gradients of its two narrows:
        # adding 0.0 turns a -0.0 into 0.0 as that sum did
        return (np.concatenate([gu + (-gd), glog_std], axis=1) + 0.0,)

    return _make(np.concatenate([a, logp[:, None]], axis=1), (params,), backward)


def rae_error(recon, target, z, lambda_z: float) -> Tensor:
    """Per-sample autoencoder error: the mean squared error of ``recon``
    against ``target`` over all but the first axis, plus ``lambda_z`` times the
    squared norm of each row of the latent ``z``."""
    recon, target, z = as_tensor(recon), as_tensor(target), as_tensor(z)
    if recon.shape != target.shape or z.ndim != 2 or z.shape[0] != recon.shape[0]:
        raise ValueError(f"rae_error: recon {recon.shape}, target {target.shape} and "
                         f"latent {z.shape} do not match")
    axes = tuple(range(1, recon.ndim))
    count = math.prod(recon.shape[1:])
    lam = np.float32(lambda_z)
    diff = recon.data - target.data
    errors = _mean(diff * diff, axes) + (z.data * z.data).sum(axis=(1,)) * lam
    kept = _kept(recon.shape, axes)

    def backward(g):
        grecon = g.reshape(kept) / count * 2.0 * diff
        gz = (g * lam).reshape(-1, 1) * 2.0 * z.data
        return (grecon if recon.requires_grad else None,
                -grecon if target.requires_grad else None,
                gz if z.requires_grad else None)

    return _make(errors, (recon, target, z), backward)


def sum_squares(tensors) -> Tensor:
    """Sum of the squares of every element of ``tensors``: the chain
    ``reduce_sum(square(t))`` per tensor, added left to right."""
    tensors = [as_tensor(t) for t in tensors]
    total = None
    for t in tensors:
        term = (t.data * t.data).sum(axis=None)
        total = term if total is None else total + term
    return _make(total, tensors, lambda g: tuple(
        g * 2.0 * t.data if t.requires_grad else None
        for t in tensors))


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

    ``set`` replaces the buffer and rebinds every tensor's ``.data`` to a
    view of the new one; ``Adam.step`` and loading use it. A Polyak or EMA
    average (``average``) writes into the buffer in place instead. It keeps
    the dtype its out-of-place arithmetic would give by one rule (``_into``):
    the buffer is scaled in its own dtype, widened exactly only when the term
    added to it is wider (float64 into float32), and the term is then added
    in place.
    """

    def __init__(self, name: str, params: dict, requires_grad: bool = True):
        self.name = name
        self.params = dict(params)
        for p in self.params.values():
            p.requires_grad = requires_grad
        self.data = np.concatenate([p.data.reshape(-1) for p in self.params.values()])
        self.set(self.data)

    def set(self, flat: np.ndarray):
        """Make ``flat`` the buffer and rebind every tensor to a view of it."""
        if flat.shape != self.data.shape:
            raise ValueError(f"group {self.name}: {flat.shape} values, expected {self.data.shape}")
        self.data = flat
        i = 0
        for p in self.params.values():
            p.data = flat[i:i + p.size].reshape(p.shape)
            i += p.size

    def average(self, keep: float, other: np.ndarray, weight: float):
        """Move the buffer to ``keep * buffer + weight * other`` in place (by
        the rule above), with the bits of that expression in either order."""
        self.data *= keep
        data = _into(self.data, weight * other)
        if data is not self.data:
            self.set(data)


class AdamState:
    """First/second moment buffers for one parameter group."""

    __slots__ = ("m", "v")

    def __init__(self, shape, dtype=np.float32):
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam over parameter groups; ``params`` maps every name to its tensor.

    ``step`` updates each group's moments ``m`` and ``v`` in place, with the
    bits of the out-of-place ``b1 * m + (1 - b1) * g`` by the widening rule
    of ``ParamGroup``: a float32 moment becomes float64 only when a float64
    gradient reaches it. The parameters go to a new buffer,
    ``data - lr * m_hat / (sqrt(v_hat) + eps)``. Written in place too, they
    would leave no array allocated in an update step that outlives it; glibc's
    malloc then returns the top of its heap to the system after each desk
    update step and faults it back in during the next (about 1,800 minor
    page faults per step against 70), which costs more than the allocation.
    """

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
            st.m *= ADAM_BETA1
            st.m = _into(st.m, (1.0 - ADAM_BETA1) * g)
            g *= g
            g *= 1.0 - ADAM_BETA2
            st.v *= ADAM_BETA2
            st.v = _into(st.v, g)
            step = st.m / c1                         # m_hat
            step *= self.lr
            den = st.v / c2                          # v_hat
            den = np.sqrt(den, out=den)
            den += ADAM_EPS
            group.set(group.data - _into(step, den, np.divide))
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

    A probe where the analytic gradient jumps within x-h..x+h sits on a kink
    (relu, clip) where central differences are invalid, and is skipped; a
    wrong gradient still fails at the smooth probes. The test is the
    symmetric second difference ``g(x+h) + g(x-h) - 2 g(x)``, relative to the
    largest of the three: it is O(h^2) on a smooth function, however small
    its gradient, and O(1) at a kink. Keep ``h`` small. A tensor whose every
    probe is skipped raises.
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
                # the symmetric second difference: O(h^2) where the function
                # is smooth, O(1) where its gradient jumps inside the step
                bend = abs(gp + gm - 2.0 * g0)
                smooth[j] = bend <= 1e-4 * max(abs(gp), abs(gm), abs(g0), 1e-8)
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
