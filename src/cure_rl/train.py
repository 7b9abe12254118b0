"""Training orchestration: the per-step collect/update loop, pretraining
modes, evaluation protocol, and checkpoint resume.

Every phase runs one loop in one of three modes, named like the values of
``pretrain.mode``. ``"random"`` acts at random and updates only the SRL model.
``"cure"`` seeds at random, then acts with the curious policy and updates the
SRL model and the curious agent (curious pretraining, cure-only runs).
``"mixed"`` seeds at random, then mixes task and curious actions, runs every
update and evaluates every ``eval.interval`` steps (the main phase).

Per collected step the loop runs, in order: select action, environment step,
buffer push, batch sample, SRL update (returning the intrinsic reward), task
agent update, curious agent update. Every random draw comes from a named
substream of the run seed, so (config, seed) fully determines all outputs and
disabling the curious policy leaves the remaining streams untouched.

An update step can move the shared encoder three times: in the SRL step,
the task critic step and the curious critic step. The trainer encodes each
batch once per encoder version and hands the latents down:

1. After the SRL step: the no-grad next-state latent, which the rae head
   scores for the intrinsic reward and the task critic bootstraps from; and
   the graph latent through which the task critic trains the encoder.
2. After the task critic step: the graph latent through which the curious
   critic trains the encoder, whose detached values the task actor reads
   (without a curious update the task actor encodes without a graph); and
   the next-state latent the curious critic bootstraps from. A step without
   a task update keeps version 1 and its next-state latent.
3. After the curious critic step: the detached latent of the curious actor.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from . import checkpoint as ckpt
from . import cure
from .autodiff import no_grad
from .config import ExperimentConfig, config_hash
from .cure import ActionSource
from .envs import make_task
from .metrics import LossAggregator, MetricsWriter
from .replay import ReplayBuffer, augmented_views, center_crop
from .sac import SacAgent, SacHyperparams
from .srl import SrlModel

log = logging.getLogger(__name__)

# Stable spawn-key indices for the named RNG substreams.
_STREAMS = ("init", "env", "explore", "task_actor", "task_update",
            "curious_actor", "curious_update", "mix", "replay", "crop")
_EVAL_KEY_BASE = 1000

PHASES = ("select", "env", "push", "sample", "srl", "task_ac", "curious_ac")


class RngStreams:
    def __init__(self, seed: int):
        self.seed = seed
        self.gen = {
            name: np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            for i, name in enumerate(_STREAMS)
        }

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.gen[name]

    def eval_rng(self, eval_index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(_EVAL_KEY_BASE + eval_index,)))

    def export_state(self) -> dict:
        return {name: g.bit_generator.state for name, g in self.gen.items()}

    def import_state(self, state: dict):
        for name, g in self.gen.items():
            g.bit_generator.state = state[name]


class Trainer:
    """Owns every mutable piece of one training run."""

    def __init__(self, cfg: ExperimentConfig, out_dir: str | None = None,
                 phase_hook=None):
        cfg.validate()
        self.cfg = cfg
        self.out_dir = out_dir or cfg.out
        os.makedirs(self.out_dir, exist_ok=True)
        self.phase_hook = phase_hook or (lambda t, phase: None)
        self.hash = config_hash(cfg)

        self.streams = RngStreams(cfg.seed)
        self.env = make_task(cfg.task, self.streams["env"], render_size=cfg.render_size,
                             frames=cfg.frames, action_repeat=cfg.action_repeat,
                             horizon=cfg.horizon)
        self.action_dim = self.env.spec.action_dim
        self.crop = cfg.crop

        init_rng = self.streams["init"]
        self.srl = SrlModel(init_rng, cfg.frames, self.crop, cfg.srl.z_dim,
                            head=cfg.srl.head, lr=cfg.srl.lr,
                            lambda_z=cfg.srl.lambda_z, lambda_theta=cfg.srl.lambda_theta,
                            key_tau=cfg.srl.key_tau)
        task_hp = self._hyperparams(cfg.gamma)
        self.task_agent = SacAgent(init_rng, cfg.srl.z_dim, self.action_dim, task_hp,
                                   "task", encoder=self.srl.online)
        self.curious_agent = None
        if cfg.cure.enabled:
            cure_hp = self._hyperparams(cfg.cure.gamma)
            self.curious_agent = SacAgent(init_rng, cfg.srl.z_dim, self.action_dim,
                                          cure_hp, "cure", encoder=self.srl.online)

        self.buffer = ReplayBuffer(cfg.replay.capacity)
        self.agg = LossAggregator()
        self.phase = "main"
        self.phase_t = 0
        self.mode = "mixed"
        self.episode = 0
        self.episode_reward = 0.0
        self.eval_count = 0
        self.obs = None

    def _hyperparams(self, gamma: float) -> SacHyperparams:
        c = self.cfg
        return SacHyperparams(
            hidden_dim=c.hidden_dim, gamma=gamma,
            critic_lr=c.critic.lr, critic_tau=c.critic.tau, actor_lr=c.actor.lr,
            log_std_min=c.actor.log_std[0], log_std_max=c.actor.log_std[1],
            alpha_lr=c.alpha.lr, init_alpha=c.alpha.init)

    # -- action selection ---------------------------------------------------
    def _select_action(self, t: int, mode: str):
        cfg = self.cfg
        if mode == "random" or t < cfg.init_steps:
            a = self.streams["explore"].uniform(-1.0, 1.0, size=self.action_dim)
            return a, ActionSource.RANDOM
        if mode == "cure":
            source = ActionSource.CURIOUS
        else:
            source = cure.choose_source(self.streams["mix"], cfg.cure.p_c,
                                        curious_available=self.curious_agent is not None)
        obs_c = center_crop(self.obs, self.crop)
        if source is ActionSource.CURIOUS:
            a = self.curious_agent.act(self.srl.encoder, obs_c,
                                       rng=self.streams["curious_actor"])
        else:
            a = self.task_agent.act(self.srl.encoder, obs_c,
                                    rng=self.streams["task_actor"])
        return a, source

    # -- one collected step ----------------------------------------------------
    def _step_once(self, t: int, mode: str, writer: MetricsWriter):
        cfg, hook = self.cfg, self.phase_hook

        action, source = self._select_action(t, mode)
        hook(t, "select")
        next_obs, reward, done = self.env.step(action)
        hook(t, "env")
        self.buffer.push(self.obs, action, reward, next_obs, done)
        hook(t, "push")
        self.obs = next_obs
        self.episode_reward += reward
        self.agg.add("curious_fraction", 1.0 if source is ActionSource.CURIOUS else 0.0)

        if t >= cfg.init_steps and len(self.buffer) >= cfg.batch_size:
            batch = self.buffer.sample(cfg.batch_size, self.streams["replay"])
            hook(t, "sample")
            self._update(t, batch, mode)

        if done:
            writer.write_row("train", t + 1, self.episode, self.episode_reward,
                             self.agg.flush())
            self.episode += 1
            self.episode_reward = 0.0
            self.obs = self.env.reset()

        if mode == "mixed" and (t + 1) % cfg.eval.interval == 0:
            mean_reward = self.evaluate()
            writer.write_row("eval", t + 1, self.episode, mean_reward, {})

    def _update(self, t: int, batch, mode: str):
        """SRL, task and curious updates on one batch; latents as in the module docstring."""
        cfg, hook, srl = self.cfg, self.phase_hook, self.srl
        rae = cfg.srl.head == "rae"
        update_task = mode == "mixed"
        curious = mode != "random" and self.curious_agent is not None
        actor_step = t % cfg.actor.freq == 0
        target_step = t % cfg.critic.target_freq == 0
        obs_c = center_crop(batch.obs, self.crop)
        next_c = center_crop(batch.next_obs, self.crop)

        if rae:
            errors = srl.update(obs=obs_c)
        else:
            anchor, positive = augmented_views(batch.obs, self.crop, self.streams["crop"])
            errors = srl.update(anchor=anchor, positive=positive)
        hook(t, "srl")
        self.agg.add("srl_loss", float(np.mean(errors)))

        # version 1: after the SRL step; random pretraining may have no reader
        z_next = None
        if update_task or curious or (cfg.cure.enabled and rae):
            with no_grad():
                z_next = srl.encode(next_c)
        r_int = None
        if cfg.cure.enabled:
            # reward the state an action leads to: score next_obs so the
            # curious critic sees a direct action -> novelty link
            if rae:
                next_errors = srl.srl_error(obs=next_c, z=z_next)
            else:
                na, np_ = augmented_views(batch.next_obs, self.crop, self.streams["crop"])
                next_errors = srl.srl_error(anchor=na, positive=np_)
            r_int = cure.intrinsic_reward(next_errors, cfg.cure.beta)
            self.agg.add("intrinsic_reward_mean", float(np.mean(r_int)))

        if update_task:
            closs = self.task_agent.update_critic(
                srl.encode(obs_c), batch.actions, batch.rewards, batch.dones, z_next,
                self.streams["task_update"])
            self.agg.add("critic_loss_task", closs)

        # version 2: after the task critic step
        if curious:
            z = srl.encode(obs_c)
        elif update_task and actor_step:
            with no_grad():
                z = srl.encode(obs_c)
        if update_task:
            if actor_step:
                aloss, alloss = self.task_agent.update_actor_and_alpha(
                    z.data, self.streams["task_update"])
                self.agg.add("actor_loss_task", aloss)
                self.agg.add("alpha_loss_task", alloss)
            if target_step:
                self.task_agent.polyak()
        hook(t, "task_ac")

        if curious:
            if update_task:
                with no_grad():
                    z_next = srl.encode(next_c)
            closs = self.curious_agent.update_critic(
                z, batch.actions, r_int, batch.dones, z_next, self.streams["curious_update"])
            self.agg.add("critic_loss_cure", closs)
            if actor_step:
                # version 3: after the curious critic step
                with no_grad():
                    z = srl.encode(obs_c)
                aloss, alloss = self.curious_agent.update_actor_and_alpha(
                    z.data, self.streams["curious_update"])
                self.agg.add("actor_loss_cure", aloss)
                self.agg.add("alpha_loss_cure", alloss)
            if target_step:
                self.curious_agent.polyak()
            hook(t, "curious_ac")

    # -- phases ----------------------------------------------------------------
    def _run(self, phase: str, mode: str, n_steps: int, filename: str,
             resume: bool = False) -> str:
        """The loop every phase runs: steps ``phase_t`` (when resuming, else 0)
        to ``n_steps`` in ``mode``, logging to ``filename`` in the run directory."""
        self.phase, self.mode = phase, mode
        self.phase_t = self.phase_t if resume else 0
        if self.phase_t == 0:
            self.obs = self.env.reset()
            self.episode = 0
            self.episode_reward = 0.0
        path = os.path.join(self.out_dir, filename)
        with MetricsWriter(path, append=resume) as writer:
            for t in range(self.phase_t, n_steps):
                try:
                    self._step_once(t, mode, writer)
                except Exception as e:
                    raise RuntimeError(f"training aborted at {phase} step {t}: {e}") from e
                self.phase_t = t + 1
        return path

    def run_pretrain(self) -> None:
        cfg = self.cfg
        if cfg.pretrain.mode == "none":
            return
        self._run("pretrain", cfg.pretrain.mode, cfg.pretrain.steps, "pretrain_metrics.csv")
        # main phase starts from the pretrained encoder/SRL with a fresh buffer,
        # at step 0 in mixed mode: a checkpoint saved here resumes into train()
        self.buffer = ReplayBuffer(cfg.replay.capacity)
        self.phase, self.phase_t, self.mode = "main", 0, "mixed"

    def run_main(self, *, resume: bool = False, cure_only: bool = False) -> str:
        return self._run("main", "cure" if cure_only else "mixed", self.cfg.steps,
                         "metrics.csv", resume)

    # -- evaluation: isolated env and RNG, deterministic task policy -------------
    def evaluate(self, episodes: int | None = None) -> float:
        cfg = self.cfg
        episodes = episodes or cfg.eval.episodes
        rng = self.streams.eval_rng(self.eval_count)
        self.eval_count += 1
        env = make_task(cfg.task, rng, render_size=cfg.render_size, frames=cfg.frames,
                        action_repeat=cfg.action_repeat, horizon=cfg.horizon)
        total = 0.0
        for _ in range(episodes):
            obs = env.reset()
            done = False
            while not done:
                a = self.task_agent.act(self.srl.encoder, center_crop(obs, self.crop),
                                        deterministic=True)
                obs, r, done = env.step(a)
                total += r
        return total / episodes

    # -- checkpointing -----------------------------------------------------------
    def param_groups(self) -> list:
        agents = [a for a in (self.task_agent, self.curious_agent) if a is not None]
        return self.srl.groups + [g for a in agents for g in a.groups]

    def _optimizers(self) -> dict:
        opts = {"opt/srl": self.srl.opt,
                "opt/task.critic": self.task_agent.critic_opt,
                "opt/task.actor": self.task_agent.actor_opt,
                "opt/task.alpha": self.task_agent.alpha_opt}
        if self.curious_agent is not None:
            opts.update({"opt/cure.critic": self.curious_agent.critic_opt,
                         "opt/cure.actor": self.curious_agent.actor_opt,
                         "opt/cure.alpha": self.curious_agent.alpha_opt})
        return opts

    def save_checkpoint(self, path: str | None = None) -> str:
        path = path or os.path.join(self.out_dir, "checkpoint.ckpt")
        arrays = {f"param/{g.name}": g.data for g in self.param_groups()}
        for prefix, opt in self._optimizers().items():
            arrays.update(opt.export_arrays(prefix))
        arrays.update(self.buffer.export_arrays())
        env_snap = self.env.snapshot()
        arrays["env/stack"] = env_snap["stack"]
        meta = {
            "phase": self.phase,
            "phase_t": self.phase_t,
            "mode": self.mode,
            "episode": self.episode,
            "episode_reward": self.episode_reward,
            "eval_count": self.eval_count,
            "agg": self.agg.export_state(),
            "buffer_cursor": self.buffer.cursor,
            "buffer_count": self.buffer.count,
            "rng": self.streams.export_state(),
            "opt_t": {name: opt.t for name, opt in self._optimizers().items()},
            "env_inner_step": env_snap["inner_step"],
            "env_state": {k: np.asarray(v).tolist() for k, v in env_snap["state"].items()},
            "env_rng_state": env_snap["rng_state"],
        }
        ckpt.save(path, self.hash, arrays, meta)
        return path

    def load_checkpoint(self, path: str):
        arrays, meta, _ = ckpt.load(path, expected_hash=self.hash)
        for g in self.param_groups():
            g.set(arrays[f"param/{g.name}"].astype(g.data.dtype))
        for prefix, opt in self._optimizers().items():
            opt.import_arrays(prefix, arrays, meta["opt_t"][prefix])
        self.buffer.import_arrays(arrays, meta["buffer_cursor"], meta["buffer_count"])
        self.streams.import_state(meta["rng"])
        self.phase = meta["phase"]
        self.phase_t = int(meta["phase_t"])
        self.mode = meta["mode"]
        self.episode = int(meta["episode"])
        self.episode_reward = float(meta["episode_reward"])
        self.eval_count = int(meta["eval_count"])
        self.agg.import_state(meta["agg"])
        env_state = {k: (np.asarray(v) if isinstance(v, list) else float(v))
                     for k, v in meta["env_state"].items()}
        self.env.restore({"inner_step": meta["env_inner_step"],
                          "stack": arrays["env/stack"],
                          "state": env_state,
                          "rng_state": meta["env_rng_state"]})
        self.obs = self.env.stack.copy()


def train(cfg: ExperimentConfig, out_dir: str | None = None,
          resume: str | None = None, phase_hook=None, cure_only: bool = False) -> Trainer:
    """Full protocol: optional pretraining phase, then the main loop. With
    ``cure_only`` the main loop trains only the SRL model and the curious agent
    (no task reward is consumed) and pretraining is skipped. ``resume`` takes a
    main-phase checkpoint saved in the same loop mode."""
    if cure_only and not cfg.cure.enabled:
        raise ValueError("cure-only training requires cure.enabled")
    trainer = Trainer(cfg, out_dir, phase_hook=phase_hook)
    if resume:
        trainer.load_checkpoint(resume)
        if trainer.phase != "main":
            raise ckpt.CheckpointError(
                f"can only resume a main-phase checkpoint, found {trainer.phase!r}")
        mode = "cure" if cure_only else "mixed"
        if trainer.mode != mode:
            raise ckpt.CheckpointError(
                f"{resume}: checkpoint was trained in {trainer.mode!r} mode, "
                f"cannot resume it in {mode!r} mode")
    elif not cure_only:
        trainer.run_pretrain()
    trainer.run_main(resume=bool(resume), cure_only=cure_only)
    trainer.save_checkpoint()
    return trainer
