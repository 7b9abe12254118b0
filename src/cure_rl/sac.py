"""Soft actor-critic on encoder latents: squashed Gaussian actor, twin
critics with polyak-averaged targets, and a learned temperature.

The same agent class is instantiated twice in the full system: once for the
task reward and once for the intrinsic (representation-error) reward. The
agent never runs the encoder during its updates: the caller passes latents in.
Critic updates reach the encoder through the graph of the latent they are
given; actor and temperature updates take detached latents.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamGroup, Tensor, no_grad
from .layers import Dense, merge_params

log = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)
LN2 = math.log(2.0)


@dataclass
class SacHyperparams:
    hidden_dim: int = 1024
    gamma: float = 0.99
    critic_lr: float = 1e-3
    critic_tau: float = 0.01
    actor_lr: float = 1e-3
    log_std_min: float = -10.0
    log_std_max: float = 2.0
    alpha_lr: float = 1e-4
    init_alpha: float = 0.1


class GaussianActor:
    """Dense trunk emitting (mu, log_std); actions tanh-squashed into (-1,1)."""

    def __init__(self, rng, z_dim: int, action_dim: int, hidden: int,
                 log_std_min: float, log_std_max: float, name: str):
        self.action_dim = action_dim
        self.log_std_min = log_std_min
        self.log_std_max = log_std_max
        self.l1 = Dense(rng, z_dim, hidden, f"{name}.l1")
        self.l2 = Dense(rng, hidden, hidden, f"{name}.l2")
        self.l3 = Dense(rng, hidden, 2 * action_dim, f"{name}.l3")

    def dist_params(self, z: Tensor):
        h = ad.relu(self.l1(z))
        h = ad.relu(self.l2(h))
        out = self.l3(h)
        mu = ad.narrow(out, 1, 0, self.action_dim)
        log_std = ad.clip(ad.narrow(out, 1, self.action_dim, self.action_dim),
                          self.log_std_min, self.log_std_max)
        return mu, log_std

    def sample(self, z: Tensor, eps: np.ndarray):
        """Reparameterized sample; returns (action, per-sample log-prob).

        log pi = Gaussian log-density of the pre-squash sample minus the
        tanh correction sum_j 2*(ln 2 - u_j - softplus(-2 u_j)).
        """
        mu, log_std = self.dist_params(z)
        std = ad.exp(log_std)
        u = mu + std * Tensor(eps.astype(np.float32))
        a = ad.tanh(u)
        gauss = ad.reduce_sum(
            -0.5 * ad.square((u - mu) / std) - log_std - 0.5 * LOG_2PI, axis=1)
        correction = ad.reduce_sum(
            2.0 * (LN2 - u - ad.softplus(-2.0 * u)), axis=1)
        return a, gauss - correction

    def act(self, z: Tensor, rng=None, deterministic: bool = False) -> np.ndarray:
        """Numpy action for environment interaction (no graph)."""
        with no_grad():
            mu, log_std = self.dist_params(z)
        if deterministic:
            return np.tanh(mu.data)
        eps = rng.standard_normal(mu.shape)
        return np.tanh(mu.data + np.exp(log_std.data) * eps)

    def params(self):
        return merge_params(self.l1, self.l2, self.l3)


class QFunction:
    def __init__(self, rng, z_dim: int, action_dim: int, hidden: int, name: str):
        self.l1 = Dense(rng, z_dim + action_dim, hidden, f"{name}.l1")
        self.l2 = Dense(rng, hidden, hidden, f"{name}.l2")
        self.l3 = Dense(rng, hidden, 1, f"{name}.l3")

    def __call__(self, z: Tensor, a: Tensor) -> Tensor:
        h = ad.relu(self.l1(ad.concat([z, a], axis=1)))
        h = ad.relu(self.l2(h))
        return ad.reshape(self.l3(h), (-1,))

    def params(self):
        return merge_params(self.l1, self.l2, self.l3)


class SacAgent:
    """One actor-critic-temperature bundle operating on encoder latents."""

    def __init__(self, rng, z_dim: int, action_dim: int, hp: SacHyperparams,
                 name: str, encoder: ParamGroup | None = None):
        self.name = name
        self.hp = hp
        self.action_dim = action_dim
        self.target_entropy = -float(action_dim)
        self.actor = GaussianActor(rng, z_dim, action_dim, hp.hidden_dim,
                                   hp.log_std_min, hp.log_std_max, f"{name}.actor")
        self.q1 = QFunction(rng, z_dim, action_dim, hp.hidden_dim, f"{name}.q1")
        self.q2 = QFunction(rng, z_dim, action_dim, hp.hidden_dim, f"{name}.q2")
        self.tq1 = QFunction(rng, z_dim, action_dim, hp.hidden_dim, f"{name}.tq1")
        self.tq2 = QFunction(rng, z_dim, action_dim, hp.hidden_dim, f"{name}.tq2")
        self.log_alpha = Tensor(np.array(math.log(hp.init_alpha), dtype=np.float32))
        self.critic = ParamGroup(f"{name}.critic", merge_params(self.q1, self.q2))
        self.target = ParamGroup(f"{name}.target", merge_params(self.tq1, self.tq2),
                                 requires_grad=False)
        self.target.set(self.critic.data.copy())
        actor = ParamGroup(f"{name}.actor", self.actor.params())
        alpha = ParamGroup(f"{name}.alpha", {f"{name}.log_alpha": self.log_alpha})
        self.groups = [self.critic, self.target, actor, alpha]

        self.critic_opt = ad.Adam([self.critic] + ([encoder] if encoder else []), lr=hp.critic_lr)
        self.actor_opt = ad.Adam([actor], lr=hp.actor_lr)
        self.alpha_opt = ad.Adam([alpha], lr=hp.alpha_lr)

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
            y = rewards + self.hp.gamma * (1.0 - dones) * (q - self.alpha * logp2.data)
        return y

    def update_critic(self, z: Tensor, actions, rewards, dones, z_next: Tensor,
                      rng: np.random.Generator) -> float | None:
        """One critic step; gradients reach the encoder through the graph of ``z``,
        and the target bootstraps from the no-grad next-state latent ``z_next``."""
        y = self.compute_target(z_next, rewards, dones, rng)
        if not np.all(np.isfinite(y)):
            log.warning("%s: non-finite critic target, update skipped", self.name)
            return None
        a = Tensor(actions)
        yt = Tensor(y.astype(np.float32))
        loss = ad.reduce_mean(ad.square(self.q1(z, a) - yt)) + \
            ad.reduce_mean(ad.square(self.q2(z, a) - yt))
        ad.zero_grads(self.critic_opt.params)
        loss.backward()
        try:
            self.critic_opt.step()
        except ad.NonFiniteGradientError as e:
            log.warning("%s: critic update skipped: %s", self.name, e)
        ad.zero_grads(self.critic_opt.params)
        return loss.item()

    def update_actor_and_alpha(self, z_detached: np.ndarray,
                               rng: np.random.Generator) -> tuple[float, float]:
        """Actor and temperature steps on detached latents."""
        z = Tensor(z_detached)
        eps = rng.standard_normal((z_detached.shape[0], self.action_dim))
        a, logp = self.actor.sample(z, eps)
        q = ad.minimum(self.q1(z, a), self.q2(z, a))
        actor_loss = ad.reduce_mean(self.alpha * logp - q)
        ad.zero_grads(self.actor_opt.params)
        ad.zero_grads(self.critic_opt.params)
        actor_loss.backward()
        try:
            self.actor_opt.step()
        except ad.NonFiniteGradientError as e:
            log.warning("%s: actor update skipped: %s", self.name, e)
        ad.zero_grads(self.actor_opt.params)
        ad.zero_grads(self.critic_opt.params)

        logp_const = Tensor(logp.data.copy())
        alpha_loss = ad.reduce_mean(
            ad.exp(self.log_alpha) * (-logp_const - self.target_entropy))
        self.log_alpha.grad = None
        alpha_loss.backward()
        try:
            self.alpha_opt.step()
        except ad.NonFiniteGradientError as e:
            log.warning("%s: alpha update skipped: %s", self.name, e)
        self.log_alpha.grad = None
        return actor_loss.item(), alpha_loss.item()

    def polyak(self, tau: float | None = None):
        tau = self.hp.critic_tau if tau is None else tau
        self.target.set(tau * self.critic.data + (1.0 - tau) * self.target.data)

    # -- acting --------------------------------------------------------------
    def act(self, encoder, obs: np.ndarray, rng=None, deterministic: bool = False) -> np.ndarray:
        with no_grad():
            z = encoder(Tensor(obs[None] if obs.ndim == 3 else obs))
        return self.actor.act(z, rng=rng, deterministic=deterministic)[0]

    def all_param_tensors(self) -> dict:
        return {n: p for g in self.groups for n, p in g.params.items()}
