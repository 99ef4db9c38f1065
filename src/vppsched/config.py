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
from dataclasses import asdict, dataclass, field
from functools import partial

from .benders import BendersError, BendersOptions
from .devices import load_der_park
from .market import MarketConfig, MarketHorizon, expand_hourly_tariff
from .model import VppModel
from .network import load_network
from .scenarios import BaseForecast, ErrorSpec, error_specs_from_dict, \
    load_base_forecast
from .stochastic import EXPECTATION, RiskMeasure, StochasticError


class ConfigError(Exception):
    pass


#: the run settings a document may leave out; ``instance.write_instance``
#: writes them as they stand here. Read only.
RUN_DEFAULTS = {
    "risk": {"measure": EXPECTATION, "alpha": RiskMeasure(EXPECTATION).alpha},
    "benders": asdict(BendersOptions()),
    "extensive": {"max_variables": 400_000},
    "tariff_sweep": {"levels": [round(0.1 * k, 1) for k in range(11)],
                     "low_window_hours": [10, 14],
                     "high_window_hours": [17, 21],
                     "method": "extensive"},
    "output_dir": "runs",
}

#: other names of a risk measure (``solve --risk neutral``)
RISK_ALIASES = {"neutral": EXPECTATION}

_MISSING = object()


def _lookup(doc: dict, key: str):
    """The value at the dotted ``key`` of ``doc``, or _MISSING."""
    for part in key.split("."):
        if not isinstance(doc, dict):
            raise ConfigError(f"config key {key}: {doc!r} is not an object")
        doc = doc.get(part, _MISSING)
        if doc is _MISSING:
            break
    return doc


def _setting(doc: dict, key: str, convert, default=_MISSING):
    """``convert`` applied to the value at the dotted ``key`` of ``doc``;
    a key the document leaves out takes ``default`` when one is given, else
    its value in RUN_DEFAULTS. Raises ConfigError naming the key when it is
    missing or ``convert`` refuses its value."""
    value = _lookup(doc, key)
    if value is _MISSING:
        value = _lookup(RUN_DEFAULTS, key) if default is _MISSING else default
    if value is _MISSING:
        raise ConfigError(f"config key {key}: missing")
    try:
        return convert(value)
    except (ValueError, TypeError, AttributeError, KeyError, IndexError,
            OverflowError) as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def _floats(values) -> tuple[float, ...]:
    return tuple(float(x) for x in values)


@dataclass(frozen=True)
class RunConfig:
    """The run settings of one document, converted once. ``risk`` and
    ``benders`` are built from their fields and hold the range checks; a
    setting changed with ``dataclasses.replace`` passes the same checks.
    ``build_model``, ``load_forecast`` and ``error_specs`` read the
    instance keys of the document ``raw`` when called."""

    path: str
    config_hash: str
    raw: dict = field(repr=False)
    horizon: MarketHorizon
    risk_measure: str
    alpha: float
    tolerance: float
    max_iterations: int
    workers: int
    extensive_max_variables: int
    scenario_count: int
    scenario_seed: int
    scenario_dir: str
    output_dir: str
    sweep_levels: tuple[float, ...]
    sweep_low_hours: tuple[float, float]
    sweep_high_hours: tuple[float, float]
    risk: RiskMeasure = field(init=False)
    benders: BendersOptions = field(init=False)

    def __post_init__(self):
        try:
            risk = RiskMeasure(RISK_ALIASES.get(self.risk_measure,
                                                self.risk_measure), self.alpha)
            benders = BendersOptions(self.tolerance, self.max_iterations,
                                     self.workers)
        except (StochasticError, BendersError) as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "risk", risk)
        object.__setattr__(self, "benders", benders)

    def _file(self, what: str, rel: str | None) -> str | None:
        """The existing file at the path ``rel``, relative to the document."""
        if rel is None:
            return None
        path = os.path.join(os.path.dirname(self.path), rel)
        if not os.path.exists(path):
            raise ConfigError(f"{what} file not found: {path}")
        return path

    @property
    def benders_options(self) -> dict:
        """The keyword arguments of ``benders``."""
        return asdict(self.benders)

    def error_specs(self) -> dict[str, ErrorSpec]:
        return _setting(self.raw, "scenarios.error_specs",
                        error_specs_from_dict, {})

    # ------------------------------------------------------------ builders

    def build_model(self) -> VppModel:
        get = partial(_setting, self.raw)
        file = lambda what: partial(self._file, what)
        network = load_network(get("network.buses", file("bus table")),
                               get("network.branches", file("branch table")),
                               get("network.base_mva", float, 0.4))
        park = load_der_park(*(get(f"devices.{kind}", file(kind), None)
                               for kind in ("dg", "hp", "ev", "bess")))
        market = MarketConfig(
            get("market.prequalified_power_kw", float, 0.0),
            expand_hourly_tariff(get("market.hourly_tariff_per_mwh", _floats,
                                     [0.0] * 24), self.horizon))
        model = VppModel(self.horizon, network, park, market,
                         get("flow_segments", int, 8))
        model.validate()
        return model

    def load_forecast(self) -> BaseForecast:
        path = _setting(self.raw, "forecast", partial(self._file, "forecast"))
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
    get = partial(_setting, raw)
    in_dir = partial(os.path.join, os.path.dirname(os.path.abspath(path)))
    def window(hours) -> tuple[float, ...]:     # exactly [start, end]
        if len(hours) != 2:
            raise ValueError(f"a window is [start, end] hours, not {hours}")
        return _floats(hours)
    if get("tariff_sweep.method", str) != "extensive":
        raise ConfigError("tariff_sweep method: the sweep solves only 'extensive'")
    return RunConfig(
        path=os.path.abspath(path),
        config_hash=file_sha256(path),
        raw=raw,
        horizon=MarketHorizon(get("horizon.step_count", int),
                              get("horizon.step_hours", float),
                              get("horizon.rcm_window_hours", float)),
        risk_measure=get("risk.measure", str.lower),
        alpha=get("risk.alpha", float),
        tolerance=get("benders.tolerance", float),
        max_iterations=get("benders.max_iterations", int),
        workers=get("benders.workers", int),
        extensive_max_variables=get("extensive.max_variables", int),
        scenario_count=get("scenarios.count", int, 0),
        scenario_seed=get("scenarios.seed", int, 0),
        scenario_dir=get("scenarios.dir", in_dir, "scenarios"),
        output_dir=get("output_dir", in_dir),
        sweep_levels=get("tariff_sweep.levels", _floats),
        sweep_low_hours=get("tariff_sweep.low_window_hours", window),
        sweep_high_hours=get("tariff_sweep.high_window_hours", window))
