"""Self-contained pixel-rendered continuous-control micro-environments.

Deterministic desk-scale stand-ins for the six control-suite tasks, plus a
``point_reacher`` arm used by the visitation protocol. Each environment
renders grayscale frames, stacks the most recent S frames as channels, and
applies every policy action ``action_repeat`` times while summing rewards.

All tasks run a fixed inner-step horizon T; episodes never terminate early.
``make_task`` builds the run's task from its ``ExperimentConfig`` (``task``,
``render_size``, ``frames``, ``action_repeat`` and ``horizon``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig

TWO_PI = 2.0 * np.pi


def wrap_angle(a):
    """Wrap to [-pi, pi)."""
    return (a + np.pi) % TWO_PI - np.pi


@dataclass
class EnvSpec:
    name: str
    action_dim: int
    render_size: int
    frames: int
    action_repeat: int
    horizon: int

    def __post_init__(self):
        if self.render_size < 16:
            raise ValueError(f"render size {self.render_size} < 16")
        if self.action_repeat < 1:
            raise ValueError("action repeat must be >= 1")
        if self.horizon % self.action_repeat != 0:
            raise ValueError("horizon must be a multiple of action repeat")

    @property
    def episode_len(self) -> int:
        return self.horizon // self.action_repeat


class Canvas:
    """Anti-aliased grayscale rasterizer over the arena [-1, 1]^2."""

    def __init__(self, size: int):
        self.size = size
        self.px = 2.0 / size
        centers = -1.0 + (np.arange(size) + 0.5) * self.px
        self.xs = centers[None, :].astype(np.float32)            # columns -> x
        self.ys = (-centers)[:, None].astype(np.float32)          # rows -> y, top = +1
        self.frame = np.zeros((size, size), dtype=np.float32)

    def clear(self):
        self.frame.fill(0.0)

    def _blend(self, alpha: np.ndarray, intensity: float):
        np.maximum(self.frame, alpha * intensity, out=self.frame)

    def disc(self, cx: float, cy: float, r: float, intensity: float = 1.0):
        d = np.sqrt((self.xs - cx) ** 2 + (self.ys - cy) ** 2)
        alpha = np.clip((r - d) / self.px + 0.5, 0.0, 1.0)
        self._blend(alpha, intensity)

    def segment(self, x1, y1, x2, y2, halfwidth: float, intensity: float = 1.0):
        dx, dy = x2 - x1, y2 - y1
        L2 = dx * dx + dy * dy
        if L2 < 1e-12:
            self.disc(x1, y1, halfwidth, intensity)
            return
        t = np.clip(((self.xs - x1) * dx + (self.ys - y1) * dy) / L2, 0.0, 1.0)
        px_, py_ = x1 + t * dx, y1 + t * dy
        d = np.sqrt((self.xs - px_) ** 2 + (self.ys - py_) ** 2)
        alpha = np.clip((halfwidth - d) / self.px + 0.5, 0.0, 1.0)
        self._blend(alpha, intensity)


class LiteEnv:
    """Base class: frame stacking, action repeat, fixed horizon, snapshots."""

    DT = 0.05

    def __init__(self, spec: EnvSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self.canvas = Canvas(spec.render_size)
        self.inner_step = 0
        self.stack = np.zeros((spec.frames, spec.render_size, spec.render_size), dtype=np.float32)
        self.state: dict = {}

    # -- task hooks ----------------------------------------------------
    def _reset_state(self):
        raise NotImplementedError

    def _step_inner(self, action: np.ndarray) -> float:
        raise NotImplementedError

    def _draw(self):
        raise NotImplementedError

    # -- public API ------------------------------------------------------
    def reset(self) -> np.ndarray:
        self.inner_step = 0
        self._reset_state()
        frame = self.render()
        self.stack[:] = frame[None]
        return self.stack.copy()

    def step(self, action):
        action = np.asarray(action, dtype=np.float64).reshape(-1)
        if action.shape[0] != self.spec.action_dim:
            raise ValueError(f"action dim {action.shape[0]} != {self.spec.action_dim}")
        if np.any(np.isnan(action)):
            raise ValueError("NaN action")
        action = np.clip(action, -1.0, 1.0)
        total = 0.0
        for _ in range(self.spec.action_repeat):
            total += float(self._step_inner(action))
            self.inner_step += 1
        frame = self.render()
        self.stack[:-1] = self.stack[1:]
        self.stack[-1] = frame
        done = self.inner_step >= self.spec.horizon
        return self.stack.copy(), total, done

    def render(self) -> np.ndarray:
        self.canvas.clear()
        self._draw()
        return self.canvas.frame.copy()

    # -- snapshot for checkpoint resume ---------------------------------
    def snapshot(self) -> dict:
        return {
            "inner_step": self.inner_step,
            "stack": self.stack.copy(),
            "state": copy.deepcopy(self.state),
            "rng_state": self.rng.bit_generator.state,
        }

    def restore(self, snap: dict):
        self.inner_step = int(snap["inner_step"])
        self.stack = np.array(snap["stack"], dtype=np.float32)
        self.state = copy.deepcopy(snap["state"])
        self.rng.bit_generator.state = snap["rng_state"]


class ReacherEnv(LiteEnv):
    """Two-link arm; torque-like angular accelerations, sparse target reward."""

    OMEGA_MAX = 4.0 * np.pi
    GAIN = 6.0
    DAMP = 1.5

    def __init__(self, spec, rng, radius, links=(0.5, 0.4), target_mode="disk",
                 reset_mode="uniform", gain=None, damp=None):
        super().__init__(spec, rng)
        self.radius = radius  # reward when the tip is within this of the target
        self.links = links
        self.target_mode = target_mode
        self.reset_mode = reset_mode
        self.gain = self.GAIN if gain is None else float(gain)
        self.damp = self.DAMP if damp is None else float(damp)

    def _reset_state(self):
        if self.reset_mode == "home":
            # fixed start pose: arm hanging straight down, small jitter.
            # Exploration must radiate outward from here instead of being
            # handed free coverage by uniform resets.
            th = np.array([-np.pi / 2, 0.0]) + self.rng.normal(0.0, 0.05, size=2)
        else:
            th = self.rng.uniform(-np.pi, np.pi, size=2)
        if self.target_mode == "arena":
            target = self.rng.uniform(-0.95, 0.95, size=2)
        else:
            reach = self.links[0] + self.links[1]
            r = self.rng.uniform(0.25 * reach, 0.95 * reach)
            phi = self.rng.uniform(-np.pi, np.pi)
            target = np.array([r * np.cos(phi), r * np.sin(phi)])
        self.state = {"th": th, "om": np.zeros(2), "target": target}

    def _tip(self):
        th = self.state["th"]
        a1 = th[0]
        a2 = th[0] + th[1]
        l1, l2 = self.links
        elbow = np.array([l1 * np.cos(a1), l1 * np.sin(a1)])
        tip = elbow + np.array([l2 * np.cos(a2), l2 * np.sin(a2)])
        return elbow, tip

    def _step_inner(self, a):
        s = self.state
        s["om"] = np.clip(s["om"] + self.DT * (self.gain * a - self.damp * s["om"]),
                          -self.OMEGA_MAX, self.OMEGA_MAX)
        s["th"] = wrap_angle(s["th"] + self.DT * s["om"])
        _, tip = self._tip()
        return 1.0 if np.linalg.norm(tip - s["target"]) < self.radius else 0.0

    def _draw(self):
        s = self.state
        elbow, tip = self._tip()
        tx, ty = s["target"]
        # target marker needs ~2.5 px on screen to survive small render sizes;
        # the reward radius itself stays at self.radius
        r_draw = max(self.radius, 2.5 * self.canvas.px)
        # arena targets land anywhere on the canvas; a bright marker would
        # dominate per-frame appearance regardless of the arm's pose, so keep
        # it dim there and bright for the near-origin disk tasks
        tint = 0.25 if self.target_mode == "arena" else 0.45
        self.canvas.disc(tx, ty, r_draw, tint)
        self.canvas.segment(0.0, 0.0, elbow[0], elbow[1], 0.035, 0.8)
        self.canvas.segment(elbow[0], elbow[1], tip[0], tip[1], 0.035, 0.8)
        self.canvas.disc(tip[0], tip[1], 0.06, 1.0)


class CartpoleSwingupEnv(LiteEnv):
    """Cart on a rail with a hinged pole; dense upright/centered reward."""

    G_L = 10.0
    COUPLE = 8.0
    CART_GAIN = 4.0
    DAMP = 0.08

    def _reset_state(self):
        self.state = {
            "x": float(self.rng.uniform(-0.1, 0.1)),
            "v": 0.0,
            "th": float(wrap_angle(np.pi + self.rng.uniform(-0.15, 0.15))),
            "om": float(self.rng.uniform(-0.1, 0.1)),
        }

    def _step_inner(self, a):
        s = self.state
        force = float(a[0])
        s["v"] += self.DT * (self.CART_GAIN * force - 0.5 * s["v"])
        s["x"] += self.DT * s["v"]
        if abs(s["x"]) > 1.0:          # rail ends: stop the cart
            s["x"] = float(np.clip(s["x"], -1.0, 1.0))
            s["v"] = 0.0
        # theta measured from upright; gravity destabilizes the top
        acc = self.G_L * np.sin(s["th"]) - self.COUPLE * force * np.cos(s["th"]) - self.DAMP * s["om"]
        s["om"] += self.DT * acc
        s["th"] = float(wrap_angle(s["th"] + self.DT * s["om"]))
        upright = 0.5 * (1.0 + np.cos(s["th"]))
        centered = 1.0 - 0.3 * min(abs(s["x"]), 1.0)
        return float(upright * centered)

    def _draw(self):
        s = self.state
        cx, cy = s["x"] * 0.8, -0.35
        pole_len = 0.55
        tipx = cx + pole_len * np.sin(s["th"])
        tipy = cy + pole_len * np.cos(s["th"])
        self.canvas.segment(-0.95, cy - 0.12, 0.95, cy - 0.12, 0.02, 0.3)
        self.canvas.segment(cx - 0.12, cy, cx + 0.12, cy, 0.06, 0.8)
        self.canvas.segment(cx, cy, tipx, tipy, 0.03, 0.7)
        self.canvas.disc(tipx, tipy, 0.07, 1.0)


class BallInCupEnv(LiteEnv):
    """Planar cup with a ball on a string; sparse reward while caught."""

    GRAV = 3.0
    STRING = 0.55
    CATCH_R = 0.09
    GAIN = 5.0

    def _reset_state(self):
        cup = np.array([self.rng.uniform(-0.1, 0.1), self.rng.uniform(0.15, 0.3)])
        phi = np.pi + self.rng.uniform(-0.2, 0.2)  # ball hangs below the cup
        ball = cup + self.STRING * np.array([np.sin(phi), np.cos(phi)])
        self.state = {"cup": cup, "cv": np.zeros(2), "ball": ball,
                      "bv": np.zeros(2), "caught": 0.0}

    def _step_inner(self, a):
        s = self.state
        s["cv"] = s["cv"] + self.DT * (self.GAIN * a - 1.0 * s["cv"])
        s["cup"] = s["cup"] + self.DT * s["cv"]
        lo = np.array([-0.7, -0.2])
        hi = np.array([0.7, 0.6])
        hit = (s["cup"] < lo) | (s["cup"] > hi)
        s["cup"] = np.clip(s["cup"], lo, hi)
        s["cv"] = np.where(hit, 0.0, s["cv"])
        if s["caught"]:
            s["ball"] = s["cup"].copy()
            s["bv"] = s["cv"].copy()
            return 1.0
        s["bv"] = s["bv"] + self.DT * np.array([0.0, -self.GRAV])
        s["ball"] = s["ball"] + self.DT * s["bv"]
        rel = s["ball"] - s["cup"]
        dist = np.linalg.norm(rel)
        if dist > self.STRING:
            # taut string: project back and remove outward radial velocity
            n = rel / dist
            s["ball"] = s["cup"] + n * self.STRING
            vr = float(np.dot(s["bv"] - s["cv"], n))
            if vr > 0:
                s["bv"] = s["bv"] - vr * n
        if np.linalg.norm(s["ball"] - s["cup"]) < self.CATCH_R:
            s["caught"] = 1.0
            return 1.0
        return 0.0

    def _draw(self):
        s = self.state
        cx, cy = s["cup"]
        bx, by = s["ball"]
        self.canvas.segment(cx, cy, bx, by, 0.012, 0.25)
        w, h = 0.1, 0.12
        self.canvas.segment(cx - w, cy - h, cx + w, cy - h, 0.03, 0.7)
        self.canvas.segment(cx - w, cy - h, cx - w, cy + h, 0.03, 0.7)
        self.canvas.segment(cx + w, cy - h, cx + w, cy + h, 0.03, 0.7)
        self.canvas.disc(bx, by, 0.06, 1.0)


class SpinnerEnv(LiteEnv):
    """Free-spinning bar driven by torque; shared by the two finger tasks."""

    def __init__(self, spec, rng, mode: str):
        super().__init__(spec, rng)
        self.mode = mode  # spin | turn
        self.gain = 6.0 if mode == "spin" else 4.0
        self.damp = 0.4 if mode == "spin" else 2.0
        self.omega_ref = 4.0
        self.align_tol = 0.3

    def _reset_state(self):
        self.state = {
            "psi": float(self.rng.uniform(-np.pi, np.pi)),
            "om": 0.0,
            "target": float(self.rng.uniform(-np.pi, np.pi)) if self.mode == "turn" else 0.0,
        }

    def _step_inner(self, a):
        s = self.state
        s["om"] += self.DT * (self.gain * float(a[0]) - self.damp * s["om"])
        s["psi"] = float(wrap_angle(s["psi"] + self.DT * s["om"]))
        if self.mode == "spin":
            return float(np.clip(abs(s["om"]) / self.omega_ref, 0.0, 1.0))
        return 1.0 if abs(wrap_angle(s["psi"] - s["target"])) < self.align_tol else 0.0

    def _draw(self):
        s = self.state
        r = 0.6
        tx = r * np.cos(s["psi"])
        ty = r * np.sin(s["psi"])
        if self.mode == "turn":
            gx = 0.85 * np.cos(s["target"])
            gy = 0.85 * np.sin(s["target"])
            self.canvas.disc(gx, gy, 0.07, 0.45)
        self.canvas.segment(-tx, -ty, tx, ty, 0.035, 0.7)
        self.canvas.disc(tx, ty, 0.08, 1.0)


_TASKS = {
    "reacher_easy": dict(cls=ReacherEnv, action_dim=2, action_repeat=4,
                         kwargs=dict(radius=0.14, links=(0.5, 0.4), target_mode="disk")),
    "reacher_hard": dict(cls=ReacherEnv, action_dim=2, action_repeat=4,
                         kwargs=dict(radius=0.08, links=(0.5, 0.4), target_mode="disk")),
    "point_reacher": dict(cls=ReacherEnv, action_dim=2, action_repeat=4,
                          kwargs=dict(radius=0.1, links=(0.72, 0.7), target_mode="arena",
                                      reset_mode="home", gain=1.5, damp=5.0)),
    "cartpole_swingup": dict(cls=CartpoleSwingupEnv, action_dim=1, action_repeat=4,
                             kwargs={}),
    "ball_in_cup": dict(cls=BallInCupEnv, action_dim=2, action_repeat=4, kwargs={}),
    "finger_spin_lite": dict(cls=SpinnerEnv, action_dim=1, action_repeat=2,
                             kwargs=dict(mode="spin")),
    "finger_turn_lite": dict(cls=SpinnerEnv, action_dim=1, action_repeat=2,
                             kwargs=dict(mode="turn")),
}

TASK_NAMES = tuple(sorted(_TASKS))


def make_task(cfg: ExperimentConfig, rng: np.random.Generator) -> LiteEnv:
    """Build the task ``cfg.task``; ``action_repeat=0`` keeps the task default."""
    if cfg.task not in _TASKS:
        raise ValueError(f"unknown task {cfg.task!r}; valid tasks: {', '.join(TASK_NAMES)}")
    info = _TASKS[cfg.task]
    spec = EnvSpec(
        name=cfg.task,
        action_dim=info["action_dim"],
        render_size=cfg.render_size,
        frames=cfg.frames,
        action_repeat=cfg.action_repeat or info["action_repeat"],
        horizon=cfg.horizon,
    )
    return info["cls"](spec, rng, **info["kwargs"])


def rollout(env: LiteEnv, act, episodes: int, visit=None) -> float:
    """Runs ``episodes`` episodes of ``env``, each from ``env.reset()``, with
    ``act(obs)`` choosing every action; the one episode loop outside training.
    ``visit(obs)`` sees each observation before the action chosen for it, so
    never an episode's final one. Returns the mean episode return."""
    total = 0.0
    for _ in range(episodes):
        obs = env.reset()
        done = False
        while not done:
            if visit is not None:
                visit(obs)
            obs, r, done = env.step(act(obs))
            total += r
    return total / episodes
