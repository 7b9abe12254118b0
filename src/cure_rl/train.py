"""Training orchestration: the per-step collect/update loop, pretraining
modes, evaluation protocol, and checkpoint resume.

Every phase runs one loop in one of three modes, named like the values of
``pretrain.mode``. ``"random"`` acts at random and updates only the SRL model.
``"cure"`` seeds at random, then acts with the curious policy and updates the
SRL model and the curious agent. ``"mixed"`` seeds at random, then mixes task
and curious actions, runs every update and evaluates every ``eval.interval``
steps. The config sets each phase's mode: ``pretrain.mode``, then ``mode``.

Per collected step the loop runs, in order: select action, environment step,
buffer push, batch sample, SRL update (returning the intrinsic reward), task
agent update, curious agent update. Every random draw comes from a named
substream of the run seed, so (config, seed) fully determines all outputs and
disabling the curious policy leaves the remaining streams untouched.

The SRL step and the intrinsic reward (the SRL error of ``next_obs``) call
either head through ``srl.update``/``srl.srl_error`` with the arguments of
``Trainer._srl_args``, the trainer's one reader of ``srl.head``.

The SRL step and each agent's critic step move the shared encoder. Each
critic trains through the graph latent of the current encoder and
bootstraps from that version's no-grad next-state latent, which the rae head
also scores for the intrinsic reward. An agent re-encodes the batch only when
its actor (detached) or the next agent's critic (with a graph) needs the
moved encoder. Every update step marks all seven ``PHASES``, also for an
agent that its mode does not update or that the run does not have.

Evaluation runs the task agent's ``Trainer.policy`` through ``envs.rollout``,
the episode loop the visitation experiment also runs, on its own env and
stream. ``load_run`` reopens a finished run.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from . import checkpoint as ckpt
from . import cure
from .autodiff import no_grad
from .config import ExperimentConfig, config_hash, load_config, save_config
from .cure import ActionSource
from .envs import make_task, rollout
from .metrics import LossAggregator, MetricsWriter, check_rows
from .replay import ReplayBuffer, augmented_views, center_crop
from .sac import SacAgent
from .srl import SrlModel

log = logging.getLogger(__name__)

# Stable spawn-key indices for the named RNG substreams.
_STREAMS = ("init", "env", "explore", "task_actor", "task_update",
            "curious_actor", "curious_update", "mix", "replay", "crop")
_EVAL_KEY_BASE = 1000

PHASES = ("select", "env", "push", "sample", "srl", "task_ac", "curious_ac")
# the agent roles each loop mode updates; a role names the agent's
# "<role>_actor" and "<role>_update" streams and its "<role>_ac" phase
_UPDATED = {"random": (), "cure": ("curious",), "mixed": ("task", "curious")}
# the loop position a checkpoint's ``trainer`` entry holds; ``metrics_rows``
# counts the rows written to the phase's metrics file
_RESUMED = ("phase", "phase_t", "episode", "episode_reward", "eval_count", "metrics_rows")
# the files of a run directory
METRICS_FILE = {"pretrain": "pretrain_metrics.csv", "main": "metrics.csv"}
CHECKPOINT_FILE = "checkpoint.ckpt"
CONFIG_FILE = "config.txt"


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
        self.phase_hook = phase_hook or (lambda t, phase: None)
        self.hash = config_hash(cfg)

        self.streams = RngStreams(cfg.seed)
        self.env = make_task(cfg, self.streams["env"])
        self.action_dim = self.env.spec.action_dim
        self.crop = cfg.crop

        init_rng = self.streams["init"]
        self.srl = SrlModel(init_rng, cfg)
        self.task_agent = SacAgent(init_rng, cfg, self.action_dim, "task", cfg.gamma,
                                   encoder=self.srl.online)
        self.curious_agent = None
        if cfg.cure.enabled:
            self.curious_agent = SacAgent(init_rng, cfg, self.action_dim, "cure",
                                          cfg.cure.gamma, encoder=self.srl.online)

        self.buffer = ReplayBuffer(cfg.replay.capacity)
        self.agg = LossAggregator()
        self.phase = None   # set when a phase starts, or by a checkpoint
        self.phase_t = 0
        self.episode = 0
        self.episode_reward = 0.0
        self.eval_count = 0
        self.metrics_rows = 0
        self.obs = None
        # last, so a config the env or the models refuse leaves no directory
        os.makedirs(self.out_dir, exist_ok=True)

    def _agents(self) -> dict:
        """Each agent by its role, in update order (``None`` for a run without it)."""
        return {"task": self.task_agent, "curious": self.curious_agent}

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
        agent = self._agents()[source.value]
        a = agent.act(self.srl.encoder, center_crop(self.obs, self.crop),
                      rng=self.streams[f"{source.value}_actor"])
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

    def _srl_args(self, raw, centred, z=None) -> tuple:
        """Loss arguments of the active SRL head for one batch: the centre crop
        and its latent (if encoded) for rae, two augmented views for contrastive."""
        if self.cfg.srl.head == "rae":
            return centred, z
        return augmented_views(raw, self.crop, self.streams["crop"])

    def _update(self, t: int, batch, mode: str):
        """SRL update, then each agent this mode updates; latents as in the module docstring."""
        cfg, hook, srl = self.cfg, self.phase_hook, self.srl
        agents = self._agents()
        learners = [role for role in _UPDATED[mode] if agents[role] is not None]
        actor_step = t % cfg.actor.freq == 0
        obs_c = center_crop(batch.obs, self.crop)
        next_c = center_crop(batch.next_obs, self.crop)

        errors = srl.update(*self._srl_args(batch.obs, obs_c))
        hook(t, "srl")
        self.agg.add("srl_loss", float(np.mean(errors)))

        with no_grad():   # random pretraining has no critic to read z_next
            z_next = srl.encode(next_c) if learners else None
        rewards = {"task": batch.rewards}
        if cfg.cure.enabled:
            # reward the state an action leads to: score next_obs so the
            # curious critic sees a direct action -> novelty link
            next_errors = srl.srl_error(*self._srl_args(batch.next_obs, next_c, z_next))
            rewards["curious"] = cure.intrinsic_reward(next_errors, cfg.cure.beta)
            self.agg.add("intrinsic_reward_mean", float(np.mean(rewards["curious"])))

        z = srl.encode(obs_c) if learners else None
        for role, agent in agents.items():
            if role in learners:
                if role != learners[0]:  # the previous critic moved the encoder
                    with no_grad():
                        z_next = srl.encode(next_c)
                rng = self.streams[f"{role}_update"]
                self.agg.add(f"critic_loss_{agent.name}", agent.update_critic(
                    z, batch.actions, rewards[role], batch.dones, z_next, rng))
                if role != learners[-1]:
                    z = srl.encode(obs_c)
                elif actor_step:
                    with no_grad():
                        z = srl.encode(obs_c)
                if actor_step:
                    aloss, alloss = agent.update_actor_and_alpha(z.data, rng)
                    self.agg.add(f"actor_loss_{agent.name}", aloss)
                    self.agg.add(f"alpha_loss_{agent.name}", alloss)
                if t % cfg.critic.target_freq == 0:
                    agent.polyak()
            hook(t, f"{role}_ac")

    # -- phases ----------------------------------------------------------------
    def _run(self, phase: str, mode: str, n_steps: int, resume: bool = False) -> str:
        """The loop every phase runs: steps ``phase_t`` (when resuming, else 0)
        to ``n_steps`` in ``mode``, logging to the phase's metrics file and saving
        ``checkpoint.ckpt`` every ``eval.interval`` steps and after the last."""
        if not resume:
            self.phase, self.phase_t, self.metrics_rows = phase, 0, 0
            self.agg = LossAggregator()   # no losses pending from an earlier phase
            self.obs = self.env.reset()
            self.episode = 0
            self.episode_reward = 0.0
        path = os.path.join(self.out_dir, METRICS_FILE[phase])
        with MetricsWriter(path, self.metrics_rows) as writer:
            for t in range(self.phase_t, n_steps):
                try:
                    self._step_once(t, mode, writer)
                except Exception as e:
                    raise RuntimeError(f"training aborted at {phase} step {t}: {e}") from e
                self.phase_t, self.metrics_rows = t + 1, writer.rows
                if self.phase_t % self.cfg.eval.interval == 0 and self.phase_t < n_steps:
                    self.save_checkpoint()
        self.save_checkpoint()
        return path

    def run_pretrain(self, *, resume: bool = False) -> None:
        cfg = self.cfg
        if cfg.pretrain.mode != "none":
            self._run("pretrain", cfg.pretrain.mode, cfg.pretrain.steps, resume)
            # the main phase starts from the pretrained encoder/SRL with a fresh buffer
            self.buffer = ReplayBuffer(cfg.replay.capacity)

    def run_main(self, *, resume: bool = False) -> str:
        return self._run("main", self.cfg.mode, self.cfg.steps, resume)

    # -- evaluation: isolated env and RNG, deterministic task policy -------------
    def policy(self, role: str):
        """The ``role`` agent's tanh-mean action on a frame stack, as evaluation
        and the visitation experiment run it."""
        agent = self._agents()[role]
        return lambda obs: agent.act(self.srl.encoder, center_crop(obs, self.crop),
                                     deterministic=True)

    def evaluate(self, episodes: int | None = None) -> float:
        cfg = self.cfg
        episodes = cfg.eval.episodes if episodes is None else episodes
        if episodes < 1:
            raise ValueError(f"episodes must be at least 1, got {episodes}")
        rng = self.streams.eval_rng(self.eval_count)
        self.eval_count += 1
        return rollout(make_task(cfg, rng), self.policy("task"), episodes)

    # -- checkpointing -----------------------------------------------------------
    def param_groups(self) -> list:
        agents = filter(None, self._agents().values())
        return self.srl.groups + [g for a in agents for g in a.groups]

    def _optimizers(self) -> dict:
        opts = {"srl": self.srl.opt}
        for a in filter(None, self._agents().values()):
            opts.update({f"{a.name}.critic": a.critic_opt, f"{a.name}.actor": a.actor_opt,
                         f"{a.name}.alpha": a.alpha_opt})
        return opts

    def save_checkpoint(self, path: str | None = None) -> str:
        path = path or os.path.join(self.out_dir, CHECKPOINT_FILE)
        state = {
            "param": {g.name: g.data for g in self.param_groups()},
            "opt": {name: opt.export_state() for name, opt in self._optimizers().items()},
            "buffer": self.buffer.export_state(),
            "env": self.env.snapshot(),
            "rng": self.streams.export_state(),
            "agg": self.agg.export_state(),
            "trainer": {k: getattr(self, k) for k in _RESUMED},
        }
        ckpt.save(path, self.hash, *ckpt.split(state))
        return path

    def load_checkpoint(self, path: str):
        arrays, meta, _ = ckpt.load(path, expected_hash=self.hash)
        state = ckpt.join(arrays, meta)
        for g in self.param_groups():
            g.set(state["param"][g.name].astype(g.data.dtype))
        for name, opt in self._optimizers().items():
            opt.import_state(state["opt"][name])
        self.buffer.import_state(state["buffer"])
        self.env.restore(state["env"])
        self.streams.import_state(state["rng"])
        self.agg.import_state(state["agg"])
        for k in _RESUMED:
            setattr(self, k, state["trainer"][k])
        self.obs = self.env.stack.copy()


def train(cfg: ExperimentConfig, out_dir: str | None = None,
          resume: str | None = None, phase_hook=None) -> Trainer:
    """Full protocol: optional pretraining phase, then the main loop in the
    config's ``mode``. ``resume`` takes a checkpoint of the same config from
    either phase, whose metrics rows the run directory holds; the run's
    ``config.txt`` is written only once both are checked, so a refused resume
    changes no file."""
    trainer = Trainer(cfg, out_dir, phase_hook=phase_hook)
    if resume:
        trainer.load_checkpoint(resume)
        if trainer.metrics_rows:
            check_rows(os.path.join(trainer.out_dir, METRICS_FILE[trainer.phase]),
                       trainer.metrics_rows)
    save_config(cfg, os.path.join(trainer.out_dir, CONFIG_FILE))
    if trainer.phase != "main":
        trainer.run_pretrain(resume=bool(resume))
    trainer.run_main(resume=trainer.phase == "main")
    return trainer


def load_run(checkpoint: str) -> Trainer:
    """The run that saved ``checkpoint``, rebuilt from the ``CONFIG_FILE`` beside
    it and restored under that config's hash (``CheckpointError`` if the two
    disagree). Building it writes no file."""
    run_dir = os.path.dirname(os.path.abspath(checkpoint))
    trainer = Trainer(load_config(os.path.join(run_dir, CONFIG_FILE)), run_dir)
    trainer.load_checkpoint(checkpoint)
    return trainer
