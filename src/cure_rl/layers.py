"""Parameterized layers built on the autodiff core.

Every layer exposes ``params()`` returning a flat name -> Tensor dict, which
``autodiff.ParamGroup`` gathers into one flat buffer per module. A layer and
the relu after it run as one autodiff op.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Dense:
    def __init__(self, rng, d_in: int, d_out: int, name: str):
        self.name = name
        self.w = Tensor(uniform_init(rng, (d_in, d_out), d_in), requires_grad=True)
        self.b = Tensor(uniform_init(rng, (d_out,), d_in), requires_grad=True)

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return ad.dense(x, self.w, self.b, relu)

    def params(self):
        return {f"{self.name}.w": self.w, f"{self.name}.b": self.b}


class Conv3x3:
    def __init__(self, rng, c_in: int, c_out: int, stride: int, name: str):
        self.name = name
        self.stride = stride
        fan_in = c_in * 9
        self.k = Tensor(uniform_init(rng, (c_out, c_in, 3, 3), fan_in), requires_grad=True)
        self.b = Tensor(uniform_init(rng, (c_out,), fan_in), requires_grad=True)

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return ad.conv2d(x, self.k, self.stride, self.b, relu)

    def params(self):
        return {f"{self.name}.k": self.k, f"{self.name}.b": self.b}


class ConvTranspose3x3:
    def __init__(self, rng, c_in: int, c_out: int, stride: int, name: str, output_padding: int = 0):
        self.name = name
        self.stride = stride
        self.output_padding = output_padding
        fan_in = c_in * 9
        self.k = Tensor(uniform_init(rng, (c_in, c_out, 3, 3), fan_in), requires_grad=True)
        self.b = Tensor(uniform_init(rng, (c_out,), fan_in), requires_grad=True)

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return ad.conv_transpose2d(x, self.k, self.stride, self.output_padding, self.b, relu)

    def params(self):
        return {f"{self.name}.k": self.k, f"{self.name}.b": self.b}


LAYER_NORM_EPS = 1e-5


class LayerNorm:
    """The learned gain and bias of a normalization over the last axis, with
    variance epsilon ``LAYER_NORM_EPS``; ``autodiff.dense_ln_tanh`` applies it."""

    def __init__(self, dim: int, name: str):
        self.name = name
        self.g = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.b = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def params(self):
        return {f"{self.name}.g": self.g, f"{self.name}.b": self.b}


class MLP:
    """Three dense layers ``l1``-``l3`` with a relu after the first two, run
    as one op (``autodiff.mlp``) on its inputs concatenated along axis 1."""

    def __init__(self, rng, d_in: int, hidden: int, d_out: int, name: str):
        self.l1 = Dense(rng, d_in, hidden, f"{name}.l1")
        self.l2 = Dense(rng, hidden, hidden, f"{name}.l2")
        self.l3 = Dense(rng, hidden, d_out, f"{name}.l3")
        self.weights = [p for layer in (self.l1, self.l2, self.l3) for p in (layer.w, layer.b)]

    def __call__(self, *inputs: Tensor) -> Tensor:
        return ad.mlp(inputs, self.weights)

    def params(self):
        return merge_params(self.l1, self.l2, self.l3)


def merge_params(*modules) -> dict:
    out: dict = {}
    for m in modules:
        p = m.params()
        dup = set(out) & set(p)
        if dup:
            raise ValueError(f"duplicate parameter names: {sorted(dup)}")
        out.update(p)
    return out
