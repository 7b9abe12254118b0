"""Soft actor-critic on encoder latents: squashed Gaussian actor, twin
critics with polyak-averaged targets, and a learned temperature.

The same agent class is instantiated twice in the full system: once for the
task reward and once for the intrinsic (representation-error) reward. The
agent never runs the encoder during its updates: the caller passes latents in.
Critic updates reach the encoder through the graph of the latent they are
given; actor and temperature updates take detached latents. Each of the three
optimizers skips a step whose gradient is not finite (``Adam.step``); the
agent then logs a warning naming itself and the update, and returns the loss
as computed.

Every setting comes from the run's ``ExperimentConfig``: ``hidden_dim``,
``srl.z_dim`` and the ``critic``, ``actor`` and ``alpha`` sections. Only the
discount is passed on its own, because the task agent uses ``gamma`` and the
curious agent ``cure.gamma``.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import autodiff as ad
from .autodiff import ParamGroup, Tensor, no_grad
from .config import ExperimentConfig
from .layers import MLP, merge_params

log = logging.getLogger(__name__)


class GaussianActor(MLP):
    """MLP trunk emitting (mu, log_std); actions tanh-squashed into (-1,1)."""

    def __init__(self, rng, cfg: ExperimentConfig, action_dim: int, name: str):
        super().__init__(rng, cfg.srl.z_dim, cfg.hidden_dim, 2 * action_dim, name)
        self.action_dim = action_dim
        self.log_std_min, self.log_std_max = cfg.actor.log_std

    def dist_params(self, z: Tensor):
        """(mu, log_std) as arrays; builds no graph."""
        with no_grad():
            out = self(z).data
        return (out[:, :self.action_dim],
                np.clip(out[:, self.action_dim:], self.log_std_min, self.log_std_max))

    def sample(self, z: Tensor, eps: np.ndarray):
        """Reparameterized sample; returns (action, per-sample log-prob).

        log pi = Gaussian log-density of the pre-squash sample minus the
        tanh correction sum_j 2*(ln 2 - u_j - softplus(-2 u_j)).
        """
        out = ad.squashed_gaussian(self(z), eps, self.log_std_min, self.log_std_max)
        a, logp = out.split([self.action_dim, 1])
        return a, ad.reshape(logp, (-1,))

    def act(self, z: Tensor, rng=None, deterministic: bool = False) -> np.ndarray:
        """Numpy action for environment interaction (no graph)."""
        mu, log_std = self.dist_params(z)
        if deterministic:
            return np.tanh(mu)
        eps = rng.standard_normal(mu.shape)
        return np.tanh(mu + np.exp(log_std) * eps)


class QFunction(MLP):
    """Q(z, a): an MLP on the concatenated latent and action."""

    def __init__(self, rng, z_dim: int, action_dim: int, hidden: int, name: str):
        super().__init__(rng, z_dim + action_dim, hidden, 1, name)

    def __call__(self, z: Tensor, a: Tensor, frozen: bool = False) -> Tensor:
        """Q(z, a) per sample; ``frozen`` takes the parameters as constants, so
        a backward pass computes no gradient for them."""
        weights = [Tensor(p.data) for p in self.weights] if frozen else self.weights
        return ad.reshape(ad.mlp([z, a], weights), (-1,))


class SacAgent:
    """One actor-critic-temperature bundle operating on encoder latents."""

    def __init__(self, rng, cfg: ExperimentConfig, action_dim: int, name: str,
                 gamma: float, encoder: ParamGroup | None = None):
        self.name = name
        self.gamma = gamma
        self.tau = cfg.critic.tau
        self.action_dim = action_dim
        self.target_entropy = -float(action_dim)
        self.actor = GaussianActor(rng, cfg, action_dim, f"{name}.actor")
        z_dim, hidden = cfg.srl.z_dim, cfg.hidden_dim
        self.q1 = QFunction(rng, z_dim, action_dim, hidden, f"{name}.q1")
        self.q2 = QFunction(rng, z_dim, action_dim, hidden, f"{name}.q2")
        self.tq1 = QFunction(rng, z_dim, action_dim, hidden, f"{name}.tq1")
        self.tq2 = QFunction(rng, z_dim, action_dim, hidden, f"{name}.tq2")
        self.log_alpha = Tensor(np.array(math.log(cfg.alpha.init), dtype=np.float32))
        self.critic = ParamGroup(f"{name}.critic", merge_params(self.q1, self.q2))
        self.target = ParamGroup(f"{name}.target", merge_params(self.tq1, self.tq2),
                                 requires_grad=False)
        self.target.set(self.critic.data.copy())
        actor = ParamGroup(f"{name}.actor", self.actor.params())
        alpha = ParamGroup(f"{name}.alpha", {f"{name}.log_alpha": self.log_alpha})
        self.groups = [self.critic, self.target, actor, alpha]

        self.critic_opt = ad.Adam([self.critic] + ([encoder] if encoder else []), lr=cfg.critic.lr)
        self.actor_opt = ad.Adam([actor], lr=cfg.actor.lr)
        self.alpha_opt = ad.Adam([alpha], lr=cfg.alpha.lr)

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha.data))

    # -- updates -----------------------------------------------------------
    def compute_target(self, z_next: Tensor, rewards: np.ndarray, dones: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
        """Bootstrapped twin-min soft target from next-state latents; no gradient flow."""
        n = z_next.shape[0]
        if rewards.shape[0] != n:
            raise ValueError(f"{rewards.shape[0]} rewards for {n} transitions")
        with no_grad():
            eps = rng.standard_normal((n, self.action_dim))
            a2, logp2 = self.actor.sample(z_next, eps)
            q = np.minimum(self.tq1(z_next, a2).data, self.tq2(z_next, a2).data)
            y = rewards + self.gamma * (1.0 - dones) * (q - self.alpha * logp2.data)
        return y

    def update_critic(self, z: Tensor, actions, rewards, dones, z_next: Tensor,
                      rng: np.random.Generator) -> float:
        """One critic step; gradients reach the encoder through the graph of ``z``,
        and the target bootstraps from the no-grad next-state latent ``z_next``."""
        loss = self.critic_loss(z, actions, self.compute_target(z_next, rewards, dones, rng))
        if not self.critic_opt.minimize(loss):
            log.warning("%s: critic update skipped: non-finite gradient", self.name)
        return loss.item()

    def critic_loss(self, z: Tensor, actions, y: np.ndarray) -> Tensor:
        """Both critics' mean squared error against the targets ``y``."""
        a = Tensor(actions)
        yt = Tensor(y.astype(np.float32))
        return ad.reduce_mean(ad.square(self.q1(z, a) - yt)) + \
            ad.reduce_mean(ad.square(self.q2(z, a) - yt))

    def update_actor_and_alpha(self, z_detached: np.ndarray,
                               rng: np.random.Generator) -> tuple[float, float]:
        """Actor and temperature steps on detached latents."""
        z = Tensor(z_detached)
        eps = rng.standard_normal((z_detached.shape[0], self.action_dim))
        a, logp = self.actor.sample(z, eps)
        # the critics are constants here: only the action's gradient is needed
        q = ad.minimum(self.q1(z, a, frozen=True), self.q2(z, a, frozen=True))
        actor_loss = ad.reduce_mean(self.alpha * logp - q)
        if not self.actor_opt.minimize(actor_loss):
            log.warning("%s: actor update skipped: non-finite gradient", self.name)

        logp_const = Tensor(logp.data.copy())
        alpha_loss = ad.reduce_mean(
            ad.exp(self.log_alpha) * (-logp_const - self.target_entropy))
        if not self.alpha_opt.minimize(alpha_loss):
            log.warning("%s: alpha update skipped: non-finite gradient", self.name)
        return actor_loss.item(), alpha_loss.item()

    def polyak(self):
        self.target.average(1.0 - self.tau, self.critic.data, self.tau)

    # -- acting --------------------------------------------------------------
    def act(self, encoder, obs: np.ndarray, rng=None, deterministic: bool = False) -> np.ndarray:
        with no_grad():
            z = encoder(Tensor(obs[None] if obs.ndim == 3 else obs))
        return self.actor.act(z, rng=rng, deterministic=deterministic)[0]

    def all_param_tensors(self) -> dict:
        return {n: p for g in self.groups for n, p in g.params.items()}
