"""Run configuration: one JSON document describing the instance files,
horizon, market settings, scenario generation, and solver options.

Paths inside the document are resolved relative to the document's
directory. The sha256 of the document's bytes is embedded in every
artifact so downstream commands can refuse mismatched inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .devices import load_der_park
from .market import MarketConfig, MarketHorizon, expand_hourly_tariff
from .model import VppModel
from .network import load_network
from .scenarios import BaseForecast, DEFAULT_ERROR_SPECS, ErrorSpec, \
    error_specs_from_dict, load_base_forecast


class ConfigError(Exception):
    pass


RISK_ALIASES = {"neutral": "expectation", "expectation": "expectation",
                "cvar": "cvar"}


@dataclass
class RunConfig:
    path: str
    base_dir: str
    raw: dict
    config_hash: str
    horizon: MarketHorizon = field(init=False)

    def __post_init__(self):
        hz = self.raw.get("horizon")
        if not hz:
            raise ConfigError("missing horizon section")
        self.horizon = MarketHorizon(int(hz["step_count"]),
                                     float(hz["step_hours"]),
                                     float(hz["rcm_window_hours"]))
        risk = self.raw.get("risk", {})
        alpha = float(risk.get("alpha", 0.9))
        if not (0.0 < alpha < 1.0):
            raise ConfigError("risk alpha must lie in (0, 1)")
        for lvl in self.sweep_levels:
            if not (0.0 <= lvl <= 1.0):
                raise ConfigError(f"sweep level {lvl} outside [0, 1]")
        if self.raw.get("tariff_sweep", {}).get("method", "extensive") != "extensive":
            raise ConfigError("tariff_sweep method: the sweep solves only 'extensive'")

    def resolve(self, rel: str) -> str:
        return rel if os.path.isabs(rel) else os.path.join(self.base_dir, rel)

    def _file(self, rel: str, what: str) -> str:
        path = self.resolve(rel)
        if not os.path.exists(path):
            raise ConfigError(f"{what} file not found: {path}")
        return path

    # ---------------------------------------------------------- accessors

    @property
    def risk_kind(self) -> str:
        name = str(self.raw.get("risk", {}).get("measure", "expectation")).lower()
        if name not in RISK_ALIASES:
            raise ConfigError(f"unknown risk measure {name!r}")
        return RISK_ALIASES[name]

    @property
    def alpha(self) -> float:
        return float(self.raw.get("risk", {}).get("alpha", 0.9))

    @property
    def scenario_count(self) -> int:
        return int(self.raw.get("scenarios", {}).get("count", 0))

    @property
    def scenario_seed(self) -> int:
        return int(self.raw.get("scenarios", {}).get("seed", 0))

    @property
    def scenario_dir(self) -> str:
        return self.resolve(self.raw.get("scenarios", {}).get("dir", "scenarios"))

    @property
    def output_dir(self) -> str:
        return self.resolve(self.raw.get("output_dir", "runs"))

    @property
    def benders_options(self) -> dict:
        b = self.raw.get("benders", {})
        return {"tolerance": float(b.get("tolerance", 1e-6)),
                "max_iterations": int(b.get("max_iterations", 200)),
                "workers": int(b.get("workers", 1))}

    @property
    def extensive_max_variables(self) -> int:
        return int(self.raw.get("extensive", {}).get("max_variables", 400_000))

    @property
    def sweep_levels(self) -> list[float]:
        sw = self.raw.get("tariff_sweep", {})
        return [float(x) for x in sw.get("levels",
                                         [round(0.1 * k, 1) for k in range(11)])]

    @property
    def sweep_low_hours(self) -> tuple[float, float]:
        sw = self.raw.get("tariff_sweep", {})
        lo = sw.get("low_window_hours", [10, 14])
        return float(lo[0]), float(lo[1])

    @property
    def sweep_high_hours(self) -> tuple[float, float]:
        sw = self.raw.get("tariff_sweep", {})
        hi = sw.get("high_window_hours", [17, 21])
        return float(hi[0]), float(hi[1])

    def error_specs(self) -> dict[str, ErrorSpec]:
        raw = self.raw.get("scenarios", {}).get("error_specs")
        return error_specs_from_dict(raw) if raw else dict(DEFAULT_ERROR_SPECS)

    # ------------------------------------------------------------ builders

    def build_model(self) -> VppModel:
        net_cfg = self.raw["network"]
        network = load_network(self._file(net_cfg["buses"], "bus table"),
                               self._file(net_cfg["branches"], "branch table"),
                               float(net_cfg.get("base_mva", 0.4)))
        dev = self.raw.get("devices", {})
        opt = lambda key: self._file(dev[key], key) if key in dev else None
        park = load_der_park(opt("dg"), opt("hp"), opt("ev"), opt("bess"))
        mkt = self.raw.get("market", {})
        hourly = np.asarray(mkt.get("hourly_tariff_per_mwh", [0.0] * 24),
                            dtype=float)
        market = MarketConfig(float(mkt.get("prequalified_power_kw", 0.0)),
                              expand_hourly_tariff(hourly, self.horizon))
        model = VppModel(self.horizon, network, park, market,
                         int(self.raw.get("flow_segments", 8)))
        model.validate()
        return model

    def load_forecast(self) -> BaseForecast:
        path = self._file(self.raw["forecast"], "forecast")
        return load_base_forecast(path, self.horizon.step_hours,
                                  self.horizon.rcm_window_hours)

    def window_steps(self, hours: tuple[float, float]) -> list[int]:
        lo, hi = hours
        return [t for t in range(self.horizon.step_count)
                if lo <= self.horizon.hour_of(t) % 24.0 < hi]


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def load_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig(os.path.abspath(path),
                     os.path.dirname(os.path.abspath(path)), raw,
                     file_sha256(path))
