"""YAML-backed run configuration: scenario, windowing, training, sweep."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Optional, Tuple, get_type_hints

import yaml

from .harness import SweepSpec, TrainSettings
from .pipeline import WindowSpec
from .synth import Scenario


@dataclass(frozen=True)
class WindowingConfig:
    width_s: float = 2.0
    label_rate_hz: float = 30.0
    ssl_rate_hz: float = 160.0
    split_ratios: Tuple[float, float, float] = (7.0, 1.5, 1.5)

    def labeled_spec(self) -> WindowSpec:
        return WindowSpec(self.width_s, self.label_rate_hz)

    def unlabeled_spec(self) -> WindowSpec:
        return WindowSpec(self.width_s, self.ssl_rate_hz)


@dataclass
class RunConfig:
    scenario: Scenario = field(default_factory=Scenario)
    windowing: WindowingConfig = field(default_factory=WindowingConfig)
    training: TrainSettings = field(default_factory=TrainSettings)
    sweep: SweepSpec = field(default_factory=SweepSpec)


def desk_scenario() -> Scenario:
    """Small synthetic run sized for laptop-scale experiments."""
    return Scenario(duration_s=600.0)


def desk_windowing() -> WindowingConfig:
    return WindowingConfig(width_s=2.0, label_rate_hz=2.4, ssl_rate_hz=4.8)


def _from_yaml(value, hint):
    """`value` read as type `hint`: a mapping builds the dataclass `hint`
    names, field by field by its type hints, and every list becomes a tuple.
    An unknown key or a missing (null) mapping raises TypeError."""
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise TypeError(f"{hint.__name__} needs a mapping, got {value!r}")
        hints = get_type_hints(hint)
        return hint(**{k: _from_yaml(v, hints.get(k)) for k, v in value.items()})
    if isinstance(value, list):
        return tuple(_from_yaml(v, None) for v in value)
    return value


def config_from_dict(doc: Optional[dict]) -> RunConfig:
    return _from_yaml(doc or {}, RunConfig)


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path) as f:
        return config_from_dict(yaml.safe_load(f))


def config_to_dict(cfg: RunConfig) -> dict:
    doc = {
        "scenario": asdict(cfg.scenario),
        "windowing": asdict(cfg.windowing),
        "training": asdict(cfg.training),
        "sweep": asdict(cfg.sweep),
    }
    # YAML-safe plain types only
    return json.loads(json.dumps(doc))


def dump_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f, sort_keys=True)
