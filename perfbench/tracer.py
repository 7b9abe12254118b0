"""Outside-in instrumentation for cure_rl: timing wrappers around its public
entry points, installed by replacing module and class attributes.

Nothing in the program knows about it. ``Probes`` are the few coarse
wrappers every run needs (update attempts, skipped updates, evaluation
time). ``Tracer`` wraps every layer boundary, records spans in memory and
aggregates inclusive and self time per (context, span name); it is
installed only in the traced part of a run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import logging
from collections import defaultdict
from time import perf_counter

import numpy as np

# Public autodiff functions that are helpers, not tape ops.
_NOT_OPS = {"as_tensor", "elementwise", "zero_grads", "grad_check"}


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class _SkipCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.skipped = 0
        self.target_skips = 0

    def emit(self, record):
        msg = record.getMessage()
        if "skipped" in msg:
            self.skipped += 1
            if "critic target" in msg:
                self.target_skips += 1


class Probes:
    """Always-on counters: update attempts, skips and evaluation timing.

    An update attempt is an ``Adam.step`` call or a critic update the SAC
    agent skipped before reaching its optimizer (non-finite target). A skip
    is a warning on the ``cure_rl.sac`` / ``cure_rl.srl`` loggers.
    """

    def __init__(self, cure_rl):
        self.mods = cure_rl
        self.adam_steps = 0
        self.evals = []            # (env steps, seconds) per evaluation episode
        self.on_eval_end = None    # callback after each evaluation
        self._skips = _SkipCounter()
        self._loggers = [logging.getLogger("cure_rl.sac"), logging.getLogger("cure_rl.srl")]
        self._patch = Patcher()

    @property
    def attempted(self) -> int:
        return self.adam_steps + self._skips.target_skips

    @property
    def skipped(self) -> int:
        return self._skips.skipped

    def install(self):
        m = self.mods

        def adam_step(orig):
            @functools.wraps(orig)
            def step(opt):
                self.adam_steps += 1
                return orig(opt)
            return step

        def evaluate(orig):
            # evaluate() builds its own env; mark each of its resets, so every
            # episode is one sample from its reset to the next or to the end
            make_task = m.train.make_task

            @functools.wraps(orig)
            def run(trainer, episodes=None):
                starts = []

                def marked(*args, **kwargs):
                    env = make_task(*args, **kwargs)
                    reset = env.reset

                    def timed_reset(*a, **kw):
                        starts.append(perf_counter())
                        return reset(*a, **kw)
                    env.reset = timed_reset
                    return env

                m.train.make_task = marked
                try:
                    out = orig(trainer, episodes)
                finally:
                    m.train.make_task = make_task
                ends = starts[1:] + [perf_counter()]
                n = trainer.env.spec.episode_len
                self.evals.extend((n, end - start) for start, end in zip(starts, ends))
                if self.on_eval_end is not None:
                    self.on_eval_end()
                return out
            return run

        self._patch.wrap(m.autodiff.Adam, "step", adam_step)
        self._patch.wrap(m.train.Trainer, "evaluate", evaluate)
        for lg in self._loggers:
            lg.addHandler(self._skips)

    def uninstall(self):
        for lg in self._loggers:
            lg.removeHandler(self._skips)
        self._patch.restore()


class Tracer:
    """Spans and counts at every cure_rl layer boundary.

    A span is ``(id, name, start, end, parent id, step id)``. Each span is
    aggregated under the tracer's current context: ``update`` or ``seed``
    for a collected step with or without gradient updates, ``warmup`` for
    the first step of a loop (whose start is unknown), ``eval`` and
    ``ckpt``. Root spans are adopted by the trainer phase (``train.*``)
    that closes after them.
    """

    def __init__(self, cure_rl):
        self.mods = cure_rl
        # spans are tuples of atoms so the garbage collector stops tracking them
        self.spans = []
        self.adopted = {}      # root span id -> id of its phase span
        self.agg = {}          # ctx -> name -> [calls, inclusive s, self s]
        self.counts = {}       # ctx -> name -> count
        self.steps = defaultdict(int)   # ctx -> completed collected steps
        self.step = -1
        self.init_steps = 0
        self._next = 0
        self._open = []        # [id, child seconds] of open spans, innermost last
        self._orphans = []     # (id, seconds) of root spans waiting for their phase
        self._mark = None      # time of the previous phase hook
        self._enc_seen = set()  # encoder forwards since the last parameter change
        self._patch = Patcher()
        self.set_ctx("setup")

    # -- spans -------------------------------------------------------------
    def _enter(self):
        self._open.append([self._next, 0.0])
        self._next += 1

    def _exit(self, name, t0, t1):
        sid, child = self._open.pop()
        dur = t1 - t0
        if self._open:
            parent = self._open[-1]
            parent[1] += dur
            self.spans.append((sid, name, t0, t1, parent[0], self.step))
        else:
            self.spans.append((sid, name, t0, t1, None, self.step))
            self._orphans.append((sid, dur))
        self._add(name, dur, dur - child)

    def _add(self, name, incl, self_s):
        a = self._agg.get(name)
        if a is None:
            a = self._agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += incl
        a[2] += self_s

    def count(self, name, n=1.0):
        self._counts[name] = self._counts.get(name, 0.0) + n

    def timed(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._enter()
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(name, t0, perf_counter())
            return wrapper
        return make

    # -- trainer phases and contexts ---------------------------------------
    def _switch(self, ctx):
        self.ctx = ctx
        self._agg = self.agg.setdefault(ctx, {})
        self._counts = self.counts.setdefault(ctx, {})

    def set_ctx(self, ctx):
        """Enter a context from outside the step loop."""
        self._switch(ctx)
        self._orphans.clear()
        self._enc_seen.clear()

    def begin_loop(self, init_steps):
        """Call before each ``run_main``: its first step has no known start."""
        self.init_steps = init_steps
        self._mark = None
        self.set_ctx("warmup")

    def phase(self, t, phase, now):
        """Phase hook body: the phase ran from the previous mark to ``now``."""
        if self._mark is not None:
            sid = self._next
            self._next += 1
            name = "train." + phase
            self.spans.append((sid, name, self._mark, now, None, self.step))
            child = 0.0
            for oid, dur in self._orphans:
                self.adopted[oid] = sid
                child += dur
            self._orphans.clear()
            self._add(name, now - self._mark, now - self._mark - child)
        self._mark = now
        if phase == final_phase(t, self.init_steps):
            self.steps[self.ctx] += 1
            self.step = t + 1
            self._switch("update" if t + 1 >= self.init_steps else "seed")

    # -- installation ------------------------------------------------------
    def install(self):
        m = self.mods
        ad, p = m.autodiff, self._patch
        for name, fn in list(vars(ad).items()):
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == ad.__name__ and name not in _NOT_OPS):
                p.wrap(ad, name, self._op(name))
        p.wrap(ad.Tensor, "backward", self.timed("autodiff.tape"))
        p.wrap(ad.Adam, "step", self._adam_step)
        p.wrap(m.srl.Encoder, "__call__", self._encoder_call)
        for cls, attr, name in (
                (m.srl.SrlModel, "update", "srl.update"),
                (m.srl.SrlModel, "srl_error", "srl.srl_error"),
                (m.srl.SrlModel, "encode", "srl.encode"),
                (m.sac.SacAgent, "update_critic", "sac.update_critic"),
                (m.sac.SacAgent, "compute_target", "sac.compute_target"),
                (m.sac.SacAgent, "update_actor_and_alpha", "sac.update_actor"),
                (m.sac.SacAgent, "polyak", "sac.polyak"),
                (m.sac.SacAgent, "act", "sac.act"),
                (m.replay.ReplayBuffer, "push", "replay.push"),
                (m.replay.ReplayBuffer, "sample", "replay.sample"),
                (m.envs.LiteEnv, "step", "envs.step"),
                (m.envs.LiteEnv, "reset", "envs.reset"),
                (m.checkpoint, "save", "checkpoint.save"),
                (m.checkpoint, "load", "checkpoint.load"),
                # train imported these by name, so patch its own references
                (m.train, "augmented_views", "replay.augmented_views"),
                (m.train, "center_crop", "replay.center_crop")):
            p.wrap(cls, attr, self.timed(name))
        p.wrap(m.srl.SrlModel, "ema_update_key", self._ema_update_key)
        p.wrap(m.train.Trainer, "evaluate", self._evaluate)

    def uninstall(self):
        self._patch.restore()

    def _evaluate(self, orig):
        timed = self.timed("train.evaluate")(orig)

        @functools.wraps(orig)
        def run(trainer, episodes=None):
            self.set_ctx("eval")
            try:
                return timed(trainer, episodes)
            finally:
                # the step after an evaluation starts at an unknown time
                self.begin_loop(self.init_steps)
        return run

    def _op(self, op):
        fwd, bwd = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"
        conv = op in ("conv2d", "conv_transpose2d")

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._enter()
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._exit(fwd, t0, perf_counter())
                macs = 0
                if conv:
                    # multiply-adds of the one im2col matmul: positions x kernel size
                    small = out.shape if op == "conv2d" else args[0].shape
                    macs = small[0] * small[2] * small[3] * int(np.prod(args[1].shape))
                    self.count(f"autodiff.{op}.macs", macs)
                if out.node is not None:
                    out.node.backward_fn = self._backward(
                        bwd, out.node.backward_fn, op, out.node.inputs[0], macs)
                return out
            return wrapper
        return make

    def _backward(self, name, fn, op, first_input, macs):
        # holds the first input, not the node, so no reference cycle forms
        def wrapper(g):
            self._enter()
            t0 = perf_counter()
            try:
                return fn(g)
            finally:
                self._exit(name, t0, perf_counter())
                if macs:
                    self.count(f"autodiff.{op}.bwd_calls")
                    self.count(f"autodiff.{op}.macs", 2 * macs)
                    if not first_input.requires_grad:
                        self.count(f"autodiff.{op}.discarded_input_grads")
        return wrapper

    def _adam_step(self, orig):
        timed = self.timed("autodiff.adam_step")(orig)

        @functools.wraps(orig)
        def step(opt):
            out = timed(opt)
            if any(n.startswith("encoder.") for n in opt.params):
                self._encoder_changed()
            return out
        return step

    def _ema_update_key(self, orig):
        timed = self.timed("srl.ema_key")(orig)

        @functools.wraps(orig)
        def update(model):
            out = timed(model)
            self._encoder_changed()
            return out
        return update

    def _encoder_changed(self):
        # a new encoder-parameter version: earlier forwards can no longer repeat
        self._enc_seen.clear()

    def _encoder_call(self, orig):
        timed = self.timed("srl.encoder")(orig)

        @functools.wraps(orig)
        def call(enc, obs, detach=False):
            data = np.ascontiguousarray(obs.data)
            key = (id(enc), data.shape, hashlib.sha1(data).digest())
            self.count("srl.encoder.calls")
            if key in self._enc_seen:
                self.count("srl.encoder.duplicate_calls")
            else:
                self._enc_seen.add(key)
            return timed(enc, obs, detach)
        return call

    # -- results -----------------------------------------------------------
    def total(self, name, ctx=None):
        """(calls, inclusive s, self s) of a span name, in one or all contexts."""
        out = [0, 0.0, 0.0]
        for c, names in self.agg.items():
            if (ctx is None or c == ctx) and name in names:
                out = [x + y for x, y in zip(out, names[name])]
        return out

    def counted(self, name, ctx=None):
        return sum(names.get(name, 0.0) for c, names in self.counts.items()
                   if ctx is None or c == ctx)

    def write(self, path, header: dict):
        """One JSON header line, then one JSON array per span."""
        with open(path, "w") as f:
            f.write(json.dumps(dict(header, span_fields=[
                "id", "name", "start_s", "end_s", "parent", "step"])) + "\n")
            for sid, name, t0, t1, parent, step in self.spans:
                if parent is None:
                    parent = self.adopted.get(sid)
                f.write(json.dumps((sid, name, t0, t1, parent, step)) + "\n")


def final_phase(t: int, init_steps: int) -> str:
    """Last phase hook of collected step ``t`` in a mixed-policy cure run."""
    return "curious_ac" if t >= init_steps else "push"
