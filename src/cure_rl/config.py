"""Experiment configuration: dataclass tree, dotted-key files and overrides.

Config files are plain text, one ``dotted.key=value`` per line; ``#`` starts
a comment. The same dotted paths work as ``--set`` command-line overrides.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass, field, fields


@dataclass
class CriticConfig:
    lr: float = 1e-3
    tau: float = 0.01
    target_freq: int = 2


@dataclass
class ActorConfig:
    lr: float = 1e-3
    freq: int = 2
    log_std: tuple = (-10.0, 2.0)


@dataclass
class AlphaConfig:
    lr: float = 1e-4
    init: float = 0.1


@dataclass
class SrlConfig:
    head: str = "rae"          # rae | contrastive
    lr: float = 1e-3
    z_dim: int = 50
    lambda_z: float = 1e-6
    lambda_theta: float = 1e-7
    key_tau: float = 0.05


@dataclass
class CureConfig:
    enabled: bool = True
    beta: float = 1.0
    p_c: float = 0.2
    gamma: float = 0.99

    def validate(self):
        if not 0.0 <= self.p_c <= 1.0:
            raise ValueError(f"cure.p_c must be in [0,1], got {self.p_c}")
        if self.beta < 0.0:
            raise ValueError(f"cure.beta must be >= 0, got {self.beta}")


@dataclass
class ReplayConfig:
    capacity: int = 80000


@dataclass
class EvalConfig:
    interval: int = 10000
    episodes: int = 10


@dataclass
class PretrainConfig:
    mode: str = "none"         # none | random | cure
    steps: int = 20000


@dataclass
class ExperimentConfig:
    task: str = "reacher_easy"
    seed: int = 1
    steps: int = 100000
    batch_size: int = 128
    gamma: float = 0.99
    hidden_dim: int = 1024
    init_steps: int = 1000
    render_size: int = 36
    frames: int = 3
    action_repeat: int = 0     # 0 = task default
    horizon: int = 1000
    crop_size: int = 0         # 0 = render_size - 4
    out: str = "runs"
    critic: CriticConfig = field(default_factory=CriticConfig)
    actor: ActorConfig = field(default_factory=ActorConfig)
    alpha: AlphaConfig = field(default_factory=AlphaConfig)
    srl: SrlConfig = field(default_factory=SrlConfig)
    cure: CureConfig = field(default_factory=CureConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)

    @property
    def crop(self) -> int:
        return self.crop_size if self.crop_size > 0 else self.render_size - 4

    def validate(self):
        if self.eval.interval <= 0:
            raise ValueError("eval.interval must be positive")
        if self.eval.episodes <= 0:
            raise ValueError("eval.episodes must be positive")
        if self.srl.head not in ("rae", "contrastive"):
            raise ValueError(f"srl.head must be rae or contrastive, got {self.srl.head!r}")
        if self.pretrain.mode not in ("none", "random", "cure"):
            raise ValueError(f"pretrain.mode must be none|random|cure, got {self.pretrain.mode!r}")
        if self.pretrain.mode == "cure" and not self.cure.enabled:
            raise ValueError("pretrain.mode=cure requires cure.enabled")
        self.cure.validate()


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _coerce(value, target_type):
    """A field's value from text (a file line or a ``--set`` override) or from
    a Python value. Text is parsed as JSON, except that a str field keeps its
    text (a JSON string literal, as ``save_config`` writes it, is unquoted)."""
    if isinstance(value, str) and target_type is not bool:
        text = value.strip()
        if target_type is str:
            return json.loads(text) if text.startswith('"') else text
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
    if target_type is bool:
        word = str(value).strip().lower()
        if word in _BOOLS:
            return _BOOLS[word]
    elif isinstance(value, bool):
        pass  # a boolean is not a number
    elif target_type is int and (isinstance(value, numbers.Integral)
                                 or isinstance(value, float) and value.is_integer()):
        return int(value)
    elif target_type is float and isinstance(value, (numbers.Real, str)):
        return float(value)
    elif target_type is tuple and isinstance(value, (list, tuple)):
        return tuple(value)
    elif target_type is str:
        return str(value)
    raise ValueError(f"expected {target_type.__name__}, got {value!r}")


def set_by_path(cfg: ExperimentConfig, path: str, value):
    """Apply a dotted-path override like ``critic.lr=3e-4``; ``value`` is text
    or a Python value, converted to the field's type by ``_coerce``."""
    parts = path.split(".")
    obj = cfg
    for p in parts[:-1]:
        if not dataclasses.is_dataclass(obj) or p not in {f.name for f in fields(obj)}:
            raise KeyError(f"unknown config section {p!r} in {path!r}")
        obj = getattr(obj, p)
    leaf = parts[-1]
    matching = [f for f in fields(obj) if f.name == leaf]
    if not matching:
        raise KeyError(f"unknown config key {path!r}")
    f = matching[0]
    if dataclasses.is_dataclass(f.type) or dataclasses.is_dataclass(getattr(obj, leaf)):
        raise KeyError(f"{path!r} is a section, not a value")
    target_type = type(getattr(obj, leaf))
    setattr(obj, leaf, _coerce(value, target_type))


def load_config(path: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base if base is not None else ExperimentConfig()
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            try:
                set_by_path(cfg, key.strip(), val)
            except (KeyError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
    return cfg


def flatten(cfg, prefix: str = "") -> dict:
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        key = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(v):
            out.update(flatten(v, prefix=f"{key}."))
        elif isinstance(v, tuple):
            out[key] = list(v)
        else:
            out[key] = v
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    flat = flatten(cfg)
    flat.pop("out", None)    # output location does not alter the experiment
    flat.pop("steps", None)  # run length only truncates; resume may extend it
    canonical = "\n".join(f"{k}={json.dumps(flat[k])}" for k in sorted(flat))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_config(cfg: ExperimentConfig, path: str):
    flat = flatten(cfg)
    with open(path, "w") as f:
        for k in sorted(flat):
            f.write(f"{k}={json.dumps(flat[k])}\n")
