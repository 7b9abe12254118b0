"""State-representation learning: shared conv encoder plus two heads.

The encoder maps stacked grayscale frames to a bounded latent vector. Two
interchangeable heads provide the representation loss and the per-sample
error used as the intrinsic exploration reward:

* ``rae``: deterministic autoencoder with latent-norm and decoder-weight
  penalties; per-sample error = pixel MSE + latent penalty.
* ``contrastive``: instance discrimination over bilinear similarities with a
  momentum key encoder; per-sample error = row-wise cross-entropy against the
  matching in-batch key.
"""

from __future__ import annotations

import contextlib
import logging

import numpy as np

from . import autodiff as ad
from .autodiff import ParamGroup, Tensor, no_grad
from .layers import Conv3x3, ConvTranspose3x3, Dense, LayerNorm, merge_params

log = logging.getLogger(__name__)

NUM_FILTERS = 32
HEADS = ("rae", "contrastive")


def conv_out_size(crop: int) -> int:
    """Spatial size after the four-conv stack (stride 2 then 1,1,1)."""
    h = (crop - 3) // 2 + 1
    h -= 6  # three stride-1 valid 3x3 convs
    if h < 1:
        raise ValueError(f"crop size {crop} too small for the four-conv encoder")
    return h


class Encoder:
    """Four 3x3 convs (stride 2,1,1,1) + dense projection + layer norm + tanh."""

    def __init__(self, rng, in_channels: int, crop: int, z_dim: int, name: str = "encoder"):
        self.crop = crop
        self.z_dim = z_dim
        self.convs = [
            Conv3x3(rng, in_channels, NUM_FILTERS, 2, f"{name}.conv1"),
            Conv3x3(rng, NUM_FILTERS, NUM_FILTERS, 1, f"{name}.conv2"),
            Conv3x3(rng, NUM_FILTERS, NUM_FILTERS, 1, f"{name}.conv3"),
            Conv3x3(rng, NUM_FILTERS, NUM_FILTERS, 1, f"{name}.conv4"),
        ]
        self.feat = conv_out_size(crop)
        self.fc = Dense(rng, NUM_FILTERS * self.feat * self.feat, z_dim, f"{name}.fc")
        self.ln = LayerNorm(z_dim, f"{name}.ln")

    def __call__(self, obs: Tensor, detach: bool = False) -> Tensor:
        # a detached latent needs no tape, so build none
        with no_grad() if detach else contextlib.nullcontext():
            h = obs
            for conv in self.convs:
                h = ad.relu(conv(h))
            h = ad.reshape(h, (h.shape[0], -1))
            return ad.tanh(self.ln(self.fc(h)))

    def params(self):
        return merge_params(*self.convs, self.fc, self.ln)


class Decoder:
    """Mirror of the encoder: dense + four transposed convs (stride 1,1,1,2)."""

    def __init__(self, rng, z_dim: int, out_channels: int, crop: int, name: str = "decoder"):
        self.feat = conv_out_size(crop)
        # (crop - 3) % 2 rows/cols are lost to the stride-2 conv; pad them back
        output_padding = (crop - 3) % 2
        self.fc = Dense(rng, z_dim, NUM_FILTERS * self.feat * self.feat, f"{name}.fc")
        self.convs = [
            ConvTranspose3x3(rng, NUM_FILTERS, NUM_FILTERS, 1, f"{name}.deconv1"),
            ConvTranspose3x3(rng, NUM_FILTERS, NUM_FILTERS, 1, f"{name}.deconv2"),
            ConvTranspose3x3(rng, NUM_FILTERS, NUM_FILTERS, 1, f"{name}.deconv3"),
            ConvTranspose3x3(rng, NUM_FILTERS, out_channels, 2, f"{name}.deconv4",
                             output_padding=output_padding),
        ]

    def __call__(self, z: Tensor) -> Tensor:
        h = ad.relu(self.fc(z))
        h = ad.reshape(h, (h.shape[0], NUM_FILTERS, self.feat, self.feat))
        for conv in self.convs[:-1]:
            h = ad.relu(conv(h))
        return self.convs[-1](h)

    def params(self):
        return merge_params(self.fc, *self.convs)


class SrlModel:
    """Encoder + active head + its optimizer + the per-sample error."""

    def __init__(self, rng, in_channels: int, crop: int, z_dim: int, head: str,
                 lr: float = 1e-3, lambda_z: float = 1e-6, lambda_theta: float = 1e-7,
                 key_tau: float = 0.05):
        if head not in HEADS:
            raise ValueError(f"unknown SRL head {head!r}; valid: {HEADS}")
        self.head = head
        self.lambda_z = lambda_z
        self.lambda_theta = lambda_theta
        self.key_tau = key_tau
        self.encoder = Encoder(rng, in_channels, crop, z_dim)
        self.online = ParamGroup("encoder", self.encoder.params())
        self.decoder = None
        self.bilinear = None
        self.key_encoder = None
        if head == "rae":
            self.decoder = Decoder(rng, z_dim, in_channels, crop)
            head_group = ParamGroup("decoder", self.decoder.params())
        else:
            self.bilinear = Tensor(
                rng.uniform(-1.0, 1.0, size=(z_dim, z_dim)).astype(np.float32) / np.sqrt(z_dim))
            self.key_encoder = Encoder(rng, in_channels, crop, z_dim, name="key_encoder")
            self.key = ParamGroup("key_encoder", self.key_encoder.params(), requires_grad=False)
            self.key.set(self.online.data.copy())
            head_group = ParamGroup("bilinear", {"bilinear.W": self.bilinear})
        self.opt = ad.Adam([self.online, head_group], lr=lr)
        self.groups = self.opt.groups + ([self.key] if self.key_encoder else [])

    # -- losses ----------------------------------------------------------
    def rae_loss(self, obs: np.ndarray, z: Tensor | None = None):
        """Returns (scalar loss Tensor, per-sample errors ndarray); ``z`` is the
        latent of ``obs`` at the current encoder parameters, if already encoded."""
        t = Tensor(obs)
        if z is None:
            z = self.encoder(t)
        recon = self.decoder(z)
        mse = ad.reduce_mean(ad.square(recon - t), axis=(1, 2, 3))
        z_pen = ad.reduce_sum(ad.square(z), axis=1) * self.lambda_z
        per_sample = mse + z_pen
        loss = ad.reduce_mean(per_sample)
        if self.lambda_theta > 0.0:
            wd = None
            for p in self.decoder.params().values():
                term = ad.reduce_sum(ad.square(p))
                wd = term if wd is None else wd + term
            loss = loss + wd * self.lambda_theta
        if not np.isfinite(loss.item()):
            raise FloatingPointError("non-finite RAE loss")
        return loss, per_sample.data.copy()

    def _key_encode(self, obs: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.key_encoder(Tensor(obs)).data

    def infonce_loss(self, anchor: np.ndarray, positive: np.ndarray):
        """Returns (scalar loss Tensor, per-sample errors ndarray)."""
        if anchor.shape[0] < 2:
            raise ValueError("contrastive loss needs a batch of at least 2 (no negatives)")
        q = self.encoder(anchor if isinstance(anchor, Tensor) else Tensor(anchor))
        keys = self._key_encode(positive)           # detached momentum keys
        logits = ad.matmul(ad.matmul(q, self.bilinear), Tensor(keys.T))
        per_sample = ad.log_softmax_cross_entropy(logits, np.arange(anchor.shape[0]))
        loss = ad.reduce_mean(per_sample)
        return loss, per_sample.data.copy()

    # -- public API --------------------------------------------------------
    def encode(self, obs: np.ndarray) -> Tensor:
        return self.encoder(Tensor(obs))

    def srl_error(self, obs=None, anchor=None, positive=None, z=None) -> np.ndarray:
        """Per-sample error of the active head; pure evaluation. The rae head
        reuses the latent ``z`` of ``obs`` when given."""
        with no_grad():
            if self.head == "rae":
                if obs is None:
                    raise ValueError("rae head needs obs")
                _, errors = self.rae_loss(obs, z)
            else:
                if anchor is None or positive is None:
                    raise ValueError("contrastive head needs (anchor, positive)")
                _, errors = self.infonce_loss(anchor, positive)
        return errors

    def update(self, obs=None, anchor=None, positive=None) -> np.ndarray:
        """One gradient step on the active loss; returns PRE-step errors."""
        if self.head == "rae":
            loss, errors = self.rae_loss(obs)
        else:
            loss, errors = self.infonce_loss(anchor, positive)
        try:
            self.opt.minimize(loss)
        except ad.NonFiniteGradientError as e:
            log.warning("SRL update skipped: %s", e)
        if self.head == "contrastive":
            self.ema_update_key()
        return errors

    def ema_update_key(self):
        tau = self.key_tau
        self.key.set((1.0 - tau) * self.key.data + tau * self.online.data)

    def key_distance(self) -> float:
        return float(np.sqrt(np.sum((self.key.data - self.online.data) ** 2)))

    def all_param_tensors(self) -> dict:
        return {n: p for g in self.groups for n, p in g.params.items()}
