"""cure_rl: curiosity-driven representation learning for pixel-based RL.

A self-contained research stack: reverse-mode autodiff over numpy, pixel
micro-environments, SAC with a learned encoder, reconstruction/contrastive
SRL heads, and an intrinsic-reward curiosity layer, plus the experiment
harness that ties them together.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config  # noqa: F401
from .envs import make_task  # noqa: F401
from .train import Trainer  # noqa: F401
