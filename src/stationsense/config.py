"""YAML-backed run configuration: scenario, windowing, training, sweep."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

import yaml

from .crossl import VicregWeights
from .harness import SweepSpec, TrainSettings
from .nnkit import TrainConfig
from .pipeline import WindowSpec
from .synth import OutageSpec, Scenario


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


def config_from_dict(doc: dict) -> RunConfig:
    doc = dict(doc or {})
    scen_doc = dict(doc.get("scenario", {}))
    if "outage" in scen_doc:
        scen_doc["outage"] = OutageSpec(**scen_doc["outage"])
    if "room_extent" in scen_doc:
        scen_doc["room_extent"] = tuple(scen_doc["room_extent"])
    if "ap_position" in scen_doc:
        scen_doc["ap_position"] = tuple(scen_doc["ap_position"])
    if "station_positions" in scen_doc:
        scen_doc["station_positions"] = tuple(tuple(p) for p in scen_doc["station_positions"])
    scenario = Scenario(**scen_doc)

    win_doc = dict(doc.get("windowing", {}))
    if "split_ratios" in win_doc:
        win_doc["split_ratios"] = tuple(win_doc["split_ratios"])
    windowing = WindowingConfig(**win_doc)

    tr_doc = dict(doc.get("training", {}))
    for key, cls in (("pretrain", TrainConfig), ("downstream", TrainConfig), ("vicreg", VicregWeights)):
        if key in tr_doc:
            tr_doc[key] = cls(**tr_doc[key])
    if "aggregator_hidden" in tr_doc:
        tr_doc["aggregator_hidden"] = tuple(tr_doc["aggregator_hidden"])
    if tr_doc.get("encoder_widths") is not None:
        tr_doc["encoder_widths"] = tuple(tr_doc["encoder_widths"])
    training = TrainSettings(**tr_doc)

    sw_doc = dict(doc.get("sweep", {}))
    for key in ("available_station_counts", "label_ratios", "seeds"):
        if key in sw_doc:
            sw_doc[key] = tuple(sw_doc[key])
    sweep = SweepSpec(**sw_doc)
    return RunConfig(scenario=scenario, windowing=windowing, training=training, sweep=sweep)


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
