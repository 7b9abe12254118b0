"""State-representation learning: shared conv encoder plus two heads.

The encoder maps stacked grayscale frames to a bounded latent vector. Two
interchangeable heads provide the representation loss and the per-sample
error used as the intrinsic exploration reward:

* ``rae``: deterministic autoencoder with latent-norm and decoder-weight
  penalties; per-sample error = pixel MSE + latent penalty.
* ``contrastive``: instance discrimination over bilinear similarities with a
  momentum key encoder; per-sample error = row-wise cross-entropy against the
  matching in-batch key.

``SrlModel`` takes every setting from the run's ``ExperimentConfig``:
``frames`` (input channels), ``crop`` and the ``srl`` section.

Both heads sit behind one loss entry, ``SrlModel.loss``: ``update(*args)``
and ``srl_error(*args)`` pass their arguments to it. ``rae`` takes
``(obs, z=None)``: the centre-cropped batch and an optional cache ``z`` of
its latent at the current encoder, which only this head uses. ``contrastive``
takes ``(anchor, positive)``: two augmented views of the batch.
"""

from __future__ import annotations

import contextlib
import logging

import numpy as np

from . import autodiff as ad
from .autodiff import ParamGroup, Tensor, no_grad
from .config import ExperimentConfig
from .layers import LAYER_NORM_EPS, Conv3x3, ConvTranspose3x3, Dense, LayerNorm, merge_params

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
                h = conv(h, relu=True)
            return ad.dense_ln_tanh(h, self.fc.w, self.fc.b, self.ln.g, self.ln.b,
                                    LAYER_NORM_EPS)

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
        h = self.fc(z, relu=True)
        h = ad.reshape(h, (h.shape[0], NUM_FILTERS, self.feat, self.feat))
        for conv in self.convs[:-1]:
            h = conv(h, relu=True)
        return self.convs[-1](h)

    def params(self):
        return merge_params(self.fc, *self.convs)


class SrlModel:
    """Encoder + active head + its optimizer + the per-sample error."""

    def __init__(self, rng, cfg: ExperimentConfig):
        head, z_dim, in_channels, crop = cfg.srl.head, cfg.srl.z_dim, cfg.frames, cfg.crop
        if head not in HEADS:
            raise ValueError(f"unknown SRL head {head!r}; valid: {HEADS}")
        self.head = head
        self.cfg = cfg.srl
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
        # the per-sample error needs no weight penalty, which only rae_loss adds
        self.loss, self._errors = (self.rae_loss, self._rae_errors) if head == "rae" \
            else (self.infonce_loss, self.infonce_loss)
        self.opt = ad.Adam([self.online, head_group], lr=self.cfg.lr)
        self.groups = self.opt.groups + ([self.key] if self.key_encoder else [])

    # -- losses ----------------------------------------------------------
    def rae_loss(self, obs: np.ndarray, z: Tensor | None = None):
        """Returns (scalar loss Tensor, per-sample errors ndarray): the mean
        error plus the decoder weight penalty. ``z`` is the latent of ``obs``
        at the current encoder parameters, if already encoded."""
        loss, errors = self._rae_errors(obs, z)
        if self.cfg.lambda_theta > 0.0:
            loss = loss + ad.sum_squares(self.decoder.params().values()) * self.cfg.lambda_theta
        return loss, errors

    def _rae_errors(self, obs: np.ndarray, z: Tensor | None = None):
        """``rae_loss`` without the weight penalty."""
        t = Tensor(obs)
        if z is None:
            z = self.encoder(t)
        per_sample = ad.rae_error(self.decoder(z), t, z, self.cfg.lambda_z)
        return ad.reduce_mean(per_sample), per_sample.data.copy()

    def infonce_loss(self, anchor: np.ndarray, positive: np.ndarray):
        """Returns (scalar loss Tensor, per-sample errors ndarray)."""
        if anchor.shape[0] < 2:
            raise ValueError("contrastive loss needs a batch of at least 2 (no negatives)")
        q = self.encoder(Tensor(anchor))
        keys = self.key_encoder(Tensor(positive), detach=True).data  # momentum keys
        logits = ad.matmul(ad.matmul(q, self.bilinear), Tensor(keys.T))
        per_sample = ad.log_softmax_cross_entropy(logits, np.arange(anchor.shape[0]))
        loss = ad.reduce_mean(per_sample)
        return loss, per_sample.data.copy()

    # -- public API --------------------------------------------------------
    def encode(self, obs: np.ndarray) -> Tensor:
        return self.encoder(Tensor(obs))

    def srl_error(self, *args) -> np.ndarray:
        """Per-sample error of the active head on its loss arguments; pure evaluation."""
        with no_grad():
            return self._errors(*args)[1]

    def update(self, *args) -> np.ndarray:
        """One gradient step on the active loss; returns PRE-step errors. A step
        with a non-finite gradient is skipped (``Adam.step``) with a warning."""
        loss, errors = self.loss(*args)
        if not self.opt.minimize(loss):
            log.warning("srl: %s update skipped: non-finite gradient", self.head)
        if self.key_encoder:
            self.ema_update_key()
        return errors

    def ema_update_key(self):
        tau = self.cfg.key_tau
        self.key.average(1.0 - tau, self.online.data, tau)

    def all_param_tensors(self) -> dict:
        return {n: p for g in self.groups for n, p in g.params.items()}
