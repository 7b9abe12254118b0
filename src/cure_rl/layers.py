"""Parameterized layers built on the autodiff core.

Every layer exposes ``params()`` returning a flat name -> Tensor dict, which
``autodiff.ParamGroup`` gathers into one flat buffer per module.
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

    def __call__(self, x: Tensor) -> Tensor:
        return ad.dense(x, self.w, self.b)

    def params(self):
        return {f"{self.name}.w": self.w, f"{self.name}.b": self.b}


class Conv3x3:
    def __init__(self, rng, c_in: int, c_out: int, stride: int, name: str):
        self.name = name
        self.stride = stride
        fan_in = c_in * 9
        self.k = Tensor(uniform_init(rng, (c_out, c_in, 3, 3), fan_in), requires_grad=True)
        self.b = Tensor(uniform_init(rng, (c_out,), fan_in), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        y = ad.conv2d(x, self.k, self.stride)
        return y + ad.reshape(self.b, (1, -1, 1, 1))

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

    def __call__(self, x: Tensor) -> Tensor:
        y = ad.conv_transpose2d(x, self.k, self.stride, self.output_padding)
        return y + ad.reshape(self.b, (1, -1, 1, 1))

    def params(self):
        return {f"{self.name}.k": self.k, f"{self.name}.b": self.b}


LAYER_NORM_EPS = 1e-5


class LayerNorm:
    """Normalization over the last axis with learned gain and bias."""

    def __init__(self, dim: int, name: str):
        self.name = name
        self.g = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.b = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        mu = ad.reduce_mean(x, axis=-1, keepdims=True)
        centered = x - mu
        var = ad.reduce_mean(ad.square(centered), axis=-1, keepdims=True)
        normed = centered / ad.sqrt(var + LAYER_NORM_EPS)
        return normed * self.g + self.b

    def params(self):
        return {f"{self.name}.g": self.g, f"{self.name}.b": self.b}


def merge_params(*modules) -> dict:
    out: dict = {}
    for m in modules:
        p = m.params()
        dup = set(out) & set(p)
        if dup:
            raise ValueError(f"duplicate parameter names: {sorted(dup)}")
        out.update(p)
    return out
