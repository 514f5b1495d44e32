"""Plain-text run configuration: one `key = value` per line, `#` comments.

Unknown keys and out-of-range values are rejected. Defaults carry the
standard training recipe (tau 0.25, v_th 0, SGD momentum 0.9, initial
learning rate 0.1 with cosine decay to zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ParseError
from .network import MODES, parse_spec
from .neuron import NeuronParams
from .training import TrainConfig


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


@dataclass
class RunConfig:
    dataset: str = "two-gaussians"
    architecture: str = "mlp-small"
    timesteps: int = 2
    tau: float = 0.25
    v_th: float = 0.0
    mode: str = "reverb"
    epochs: int = 40
    batch: int = 128
    lr0: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    affine: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParseError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.timesteps < 1:
            raise ParseError(f"timesteps must be >= 1, got {self.timesteps!r}")
        parse_spec(self.architecture)
        # NeuronParams and TrainConfig check the other values, naming the key (batch_size: batch).
        try:
            NeuronParams(tau=self.tau, v_th=self.v_th)
            TrainConfig(epochs=self.epochs, batch_size=self.batch, lr0=self.lr0,
                        momentum=self.momentum, seed=self.seed)
        except ValueError as exc:
            raise ParseError(str(exc).replace("batch_size", "batch")) from None


_PARSERS = {k: _parse_bool if t is bool else t for k, t in get_type_hints(RunConfig).items()}


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ParseError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"{origin}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ParseError(f"{origin}:{lineno}: bad value for {key}: {exc}")
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text", offset=exc.start)
    return parse_config_text(text, origin=str(path))
