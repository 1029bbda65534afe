"""YAML-backed run configuration: scenario, windowing, training, sweep."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Optional, get_args, get_type_hints

import yaml

from .harness import SweepSpec, TrainSettings
from .pipeline import WindowingConfig
from .synth import Scenario


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
    An integer read as a float, or as an element of a tuple of floats,
    becomes a float, so `1` and `1.0` load alike; a bool stays a bool. An
    unknown key or a missing (null) mapping raises TypeError."""
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise TypeError(f"{hint.__name__} needs a mapping, got {value!r}")
        hints = get_type_hints(hint)
        return hint(**{k: _from_yaml(v, hints.get(k)) for k, v in value.items()})
    if isinstance(value, list):
        elements = set(get_args(hint)) - {Ellipsis}
        element = elements.pop() if len(elements) == 1 else None
        return tuple(_from_yaml(v, element) for v in value)
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def config_from_dict(doc: Optional[dict]) -> RunConfig:
    return _from_yaml(doc or {}, RunConfig)


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path) as f:
        return config_from_dict(yaml.safe_load(f))


def config_to_dict(cfg: RunConfig) -> dict:
    return json.loads(json.dumps(asdict(cfg)))  # YAML-safe plain types only


def dump_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f, sort_keys=True)
