"""Forecast-error scenario generation for the scheduling problem.

Ten lumped error types perturb the base forecast: four operational
(load, generation, temperature, EV usage) and six price errors
(day-ahead, reserve capacity, secondary activation up/down, tertiary
activation up/down). One scalar draw per error type per scenario is
applied uniformly across all time steps and devices of the targeted
series; percent-style errors multiply, absolute errors add.

Sampling is Latin hypercube over the unit cube driven by numpy's Philox
counter-based 64-bit generator, so a seed fully determines the scenario
set on any platform.

Imbalance prices follow a dual-pricing construction derived from the
day-ahead and tertiary activation price series of each scenario:
short positions pay max(day-ahead, tertiary up), long positions receive
min(day-ahead, tertiary down). This rule is a documented substitution
for the settlement reference the source market design delegates to; it
guarantees short >= long in every scenario.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tables

#: canonical error-type ordering; Latin hypercube columns follow this order
ERROR_NAMES = (
    "load",
    "generation",
    "temperature",
    "ev",
    "dam_price",
    "rcm_price",
    "ram_up_price",
    "ram_dn_price",
    "mfrr_up_price",
    "mfrr_dn_price",
)

NORMAL = "normal"
UNIFORM = "uniform"


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class ErrorSpec:
    """One forecast-error distribution. ``relative`` errors scale the target
    series by (1 + draw); absolute errors add the draw in the series' units.
    A uniform spec stores mean/std and reconstructs its support as
    mean +/- std * sqrt(3)."""

    kind: str
    mean: float
    std_dev: float
    relative: bool

    def __post_init__(self):
        if self.kind not in (NORMAL, UNIFORM):
            raise ScenarioError(f"unknown error kind {self.kind!r}")
        if self.std_dev < 0:
            raise ScenarioError("std_dev must be nonnegative")


#: default error model (standard deviations from published forecast studies)
DEFAULT_ERROR_SPECS: dict[str, ErrorSpec] = {
    "load": ErrorSpec(NORMAL, 0.0, 0.1075, relative=True),
    "generation": ErrorSpec(NORMAL, 0.0, 0.0815, relative=True),
    "temperature": ErrorSpec(NORMAL, 0.0, 1.5, relative=False),       # kelvin
    "ev": ErrorSpec(UNIFORM, 0.10, 0.0577, relative=True),
    "dam_price": ErrorSpec(NORMAL, 0.0, 4.28, relative=False),        # per MWh
    "rcm_price": ErrorSpec(NORMAL, 0.0, 3.30, relative=False),        # per MW
    "ram_up_price": ErrorSpec(NORMAL, 0.0, 32.08, relative=False),
    "ram_dn_price": ErrorSpec(NORMAL, 0.0, 21.25, relative=False),
    "mfrr_up_price": ErrorSpec(NORMAL, 0.0, 63.6, relative=False),
    "mfrr_dn_price": ErrorSpec(NORMAL, 0.0, 42.91, relative=False),
}


def _within(x: np.ndarray, lo: float, hi: float = math.inf) -> bool:
    """Every entry of ``x`` lies in [lo, hi]; a NaN does not."""
    return bool(x.min(initial=math.inf) >= lo
                and x.max(initial=-math.inf) <= hi)


@dataclass
class BaseForecast:
    """Point forecast for one delivery day.

    Series lengths: all per-step vectors have length T; the reserve
    capacity price vectors have one entry per booking window. Loads are
    keyed by bus id (kW / kvar), capacity factors by generator name."""

    day_ahead_price: np.ndarray          # per MWh
    rcm_up_price: np.ndarray             # per MW per window
    rcm_dn_price: np.ndarray
    ram_up_price: np.ndarray             # secondary activation, per MWh
    ram_dn_price: np.ndarray
    mfrr_up_price: np.ndarray            # tertiary activation, per MWh
    mfrr_dn_price: np.ndarray
    ambient_temp: np.ndarray             # degC
    ev_availability: np.ndarray          # fraction of rated EV power available
    capacity_factor: dict[str, np.ndarray] = field(default_factory=dict)
    load_active: dict[int, np.ndarray] = field(default_factory=dict)
    load_reactive: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def step_count(self) -> int:
        return len(self.day_ahead_price)

    @property
    def window_count(self) -> int:
        return len(self.rcm_up_price)

    def validate(self) -> None:
        t = self.step_count
        for label in ("ram_up_price", "ram_dn_price", "mfrr_up_price",
                      "mfrr_dn_price", "ambient_temp", "ev_availability"):
            if len(getattr(self, label)) != t:
                raise ScenarioError(f"{label} length != {t}")
        if len(self.rcm_dn_price) != self.window_count:
            raise ScenarioError("reserve capacity price vectors differ in length")
        if not (_within(self.rcm_up_price, 0.0)
                and _within(self.rcm_dn_price, 0.0)):
            raise ScenarioError("reserve capacity prices must be nonnegative")
        for name, cf in self.capacity_factor.items():
            if len(cf) != t:
                raise ScenarioError(f"capacity factor {name!r} length != {t}")
            if not _within(cf, 0.0, 1.0):
                raise ScenarioError(f"capacity factor {name!r} outside [0, 1]")
        if not _within(self.ev_availability, 0.0, 1.0):
            raise ScenarioError("ev availability outside [0, 1]")
        for d in (self.load_active, self.load_reactive):
            for bus, series in d.items():
                if len(series) != t:
                    raise ScenarioError(f"load series at bus {bus} length != {t}")
        if set(self.load_active) != set(self.load_reactive):
            raise ScenarioError("active/reactive load bus sets differ")
        named = [(label, series) for label, value in vars(self).items()
                 for series in (value.values() if isinstance(value, dict)
                                else [value])]
        # one test over every series at once; a series at a time is slow
        if not np.isfinite(np.hstack([series for _, series in named])).all():
            raise ScenarioError("non-finite value in " + next(
                label for label, series in named
                if not np.isfinite(series).all()))


@dataclass(kw_only=True)
class Scenario(BaseForecast):
    """One joint realization: a perturbed forecast plus its imbalance
    settlement prices and its probability weight."""

    imbalance_short_price: np.ndarray    # per MWh, paid when under-delivering
    imbalance_long_price: np.ndarray     # per MWh, received when over-delivering
    probability: float

    def __post_init__(self):
        if self.probability <= 0:
            raise ScenarioError("scenario probability must be positive")
        if not np.all(self.imbalance_short_price
                      >= self.imbalance_long_price - 1e-12):
            raise ScenarioError("imbalance short price below long price")


@dataclass
class ScenarioSet:
    scenarios: list[Scenario]
    seed: int

    def __post_init__(self):
        total = sum(s.probability for s in self.scenarios)
        if self.scenarios and abs(total - 1.0) > 1e-12:
            raise ScenarioError(f"probabilities sum to {total}, expected 1")

    def __len__(self) -> int:
        return len(self.scenarios)

    def probabilities(self) -> np.ndarray:
        return np.array([s.probability for s in self.scenarios])


def lhs_sample(n: int, dims: int, seed: int) -> np.ndarray:
    """Latin hypercube sample: an (n, dims) matrix in [0, 1) with exactly one
    point per row-stratum [k/n, (k+1)/n) in every dimension. Stratum
    permutations are drawn independently per dimension from Philox(seed)."""
    if n < 1 or dims < 1:
        raise ScenarioError("lhs_sample requires n >= 1 and dims >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = np.empty((n, dims))
    for d in range(dims):
        perm = rng.permutation(n)
        jitter = rng.random(n)
        u[:, d] = (perm + jitter) / n
    return u


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile, Wichura's rational approximation
    (accurate to well below 1e-9 across (0, 1))."""
    p = min(max(p, 1e-15), 1.0 - 1e-15)
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                    + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
                  + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
                + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
        den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                    + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
                  + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
                + 4.2313330701600911252e1) * r + 1.0)
        return q * num / den
    r = p if q < 0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                    + 2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r
                  + 3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r
                + 4.63033784615654529590e0) * r + 1.42343711074968357734e0)
        den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                    + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                  + 6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r
                + 2.05319162663775882187e0) * r + 1.0)
    else:
        r -= 5.0
        num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                    + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                  + 2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r
                + 5.46378491116411436990e0) * r + 6.65790464350110377720e0)
        den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                    + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                  + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                + 5.99832206555887937690e-1) * r + 1.0)
    val = num / den
    return -val if q < 0 else val


def inverse_transform(u: float, spec: ErrorSpec) -> float:
    """Map a uniform [0, 1) sample through the spec's quantile function."""
    if spec.kind == NORMAL:
        return spec.mean + spec.std_dev * inverse_normal_cdf(u)
    half = spec.std_dev * math.sqrt(3.0)
    return (spec.mean - half) + u * 2.0 * half


def imbalance_prices(day_ahead: np.ndarray, mfrr_up: np.ndarray,
                     mfrr_dn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dual-pricing settlement: short pays the worse of day-ahead and
    tertiary-up, long receives the worse of day-ahead and tertiary-down.
    By construction short >= day-ahead >= long at every step."""
    short = np.maximum(day_ahead, mfrr_up)
    long = np.minimum(day_ahead, mfrr_dn)
    return short, long


def _apply_errors(base: BaseForecast, draws: dict[str, float],
                  probability: float) -> Scenario:
    def scaled(series, name):
        return series * (1.0 + draws[name])

    cf = {k: np.clip(scaled(v, "generation"), 0.0, 1.0)
          for k, v in base.capacity_factor.items()}
    # one lumped load error scales active and reactive power together
    load_p = {k: scaled(v, "load") for k, v in base.load_active.items()}
    load_q = {k: scaled(v, "load") for k, v in base.load_reactive.items()}
    ev = np.clip(scaled(base.ev_availability, "ev"), 0.0, 1.0)
    temp = base.ambient_temp + draws["temperature"]
    dam = base.day_ahead_price + draws["dam_price"]
    # capacity prices cannot go negative; energy/activation prices can
    rcm_up = np.maximum(base.rcm_up_price + draws["rcm_price"], 0.0)
    rcm_dn = np.maximum(base.rcm_dn_price + draws["rcm_price"], 0.0)
    ram_up = base.ram_up_price + draws["ram_up_price"]
    ram_dn = base.ram_dn_price + draws["ram_dn_price"]
    mfrr_up = base.mfrr_up_price + draws["mfrr_up_price"]
    mfrr_dn = base.mfrr_dn_price + draws["mfrr_dn_price"]
    short, long = imbalance_prices(dam, mfrr_up, mfrr_dn)
    return Scenario(
        day_ahead_price=dam, rcm_up_price=rcm_up, rcm_dn_price=rcm_dn,
        ram_up_price=ram_up, ram_dn_price=ram_dn,
        mfrr_up_price=mfrr_up, mfrr_dn_price=mfrr_dn,
        ambient_temp=temp, ev_availability=ev, capacity_factor=cf,
        load_active=load_p, load_reactive=load_q,
        imbalance_short_price=short, imbalance_long_price=long,
        probability=probability,
    )


def build_scenarios(base: BaseForecast, specs: dict[str, ErrorSpec],
                    n: int, seed: int) -> ScenarioSet:
    """Draw n equiprobable scenarios via Latin hypercube sampling over all
    ten error types and materialize the perturbed series."""
    if n < 1:
        raise ScenarioError("scenario count must be >= 1")
    missing = [name for name in ERROR_NAMES if name not in specs]
    if missing:
        raise ScenarioError(f"missing error specs: {missing}")
    base.validate()
    u = lhs_sample(n, len(ERROR_NAMES), seed)
    scenarios = []
    for s in range(n):
        draws = {name: inverse_transform(u[s, d], specs[name])
                 for d, name in enumerate(ERROR_NAMES)}
        scenarios.append(_apply_errors(base, draws, 1.0 / n))
    return ScenarioSet(scenarios, seed)


# ---------------------------------------------------------------------------
# persistence: the forecast and every scenario are tables of one layout, one
# row per step (t, the reserve capacity prices of its window, then the
# per-step series), plus a manifest for a scenario set
# ---------------------------------------------------------------------------

#: per-step columns and the fields they hold, in file order; the forecast
#: has no imbalance prices
_COLUMNS = (
    ("dam_price", "day_ahead_price"),
    ("ram_up_price", "ram_up_price"),
    ("ram_dn_price", "ram_dn_price"),
    ("mfrr_up_price", "mfrr_up_price"),
    ("mfrr_dn_price", "mfrr_dn_price"),
    ("imb_short_price", "imbalance_short_price"),
    ("imb_long_price", "imbalance_long_price"),
    ("ambient_temp", "ambient_temp"),
    ("ev_availability", "ev_availability"),
)


def _write_table(path: str, series, steps_per_window: int) -> None:
    """Write a ``BaseForecast`` or a ``Scenario`` as one table."""
    cols = {"t": range(series.step_count)}
    for name in ("rcm_up_price", "rcm_dn_price"):
        cols[name] = np.repeat(getattr(series, name), steps_per_window)
    cols.update((name, getattr(series, attr)) for name, attr in _COLUMNS
                if hasattr(series, attr))
    for name in sorted(series.capacity_factor):
        cols[f"cf_{name}"] = series.capacity_factor[name]
    for bus in sorted(series.load_active):
        cols[f"load_p_{bus}"] = series.load_active[bus]
        cols[f"load_q_{bus}"] = series.load_reactive[bus]
    tables.write_columns(path, cols)


def _read_table(path: str, steps_per_window: int, cls) -> dict:
    """The fields of ``cls`` (``BaseForecast``, or ``Scenario`` less its
    probability) that a table holds, as keywords."""
    data = tables.read_columns(path)
    fields = {attr: data[name] for name, attr in _COLUMNS
              if attr in cls.__dataclass_fields__}
    for name in ("rcm_up_price", "rcm_dn_price"):
        fields[name] = data[name][::steps_per_window].copy()
    fields["capacity_factor"] = {name[3:]: data[name] for name in data
                                 if name.startswith("cf_")}
    fields["load_active"] = {int(name[7:]): data[name] for name in data
                             if name.startswith("load_p_")}
    fields["load_reactive"] = {int(name[7:]): data[name] for name in data
                               if name.startswith("load_q_")}
    return fields


def save_scenario_set(sset: ScenarioSet, path: str, step_hours: float,
                      rcm_window_hours: float,
                      error_specs: dict[str, ErrorSpec] | None = None,
                      config_hash: str = "") -> None:
    os.makedirs(path, exist_ok=True)
    first = sset.scenarios[0]
    steps_per_window = int(round(rcm_window_hours / step_hours))
    manifest = {
        "format_version": 1,
        "seed": sset.seed,
        "count": len(sset),
        "step_count": first.step_count,
        "step_hours": step_hours,
        "rcm_window_hours": rcm_window_hours,
        "probabilities": [s.probability for s in sset.scenarios],
        "dg_names": sorted(first.capacity_factor),
        "load_buses": sorted(first.load_active),
        "config_hash": config_hash,
    }
    if error_specs is not None:
        manifest["error_specs"] = {
            name: {"kind": sp.kind, "mean": sp.mean, "std_dev": sp.std_dev,
                   "relative": sp.relative}
            for name, sp in error_specs.items()}
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    for i, scen in enumerate(sset.scenarios):
        _write_table(os.path.join(path, f"scenario_{i:04d}.csv"), scen,
                     steps_per_window)


def load_scenario_set(path: str) -> tuple[ScenarioSet, dict]:
    """Load a persisted scenario directory; returns the set and its manifest."""
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ScenarioError(f"no scenario manifest at {path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    steps_per_window = int(round(manifest["rcm_window_hours"] / manifest["step_hours"]))
    scenarios = []
    for i in range(manifest["count"]):
        table = os.path.join(path, f"scenario_{i:04d}.csv")
        fields = _read_table(table, steps_per_window, Scenario)
        _check_manifest(table, fields, manifest)
        try:
            scenario = Scenario(**fields,
                                probability=manifest["probabilities"][i])
            scenario.validate()
        except ScenarioError as exc:
            raise ScenarioError(f"{table}: {exc}") from exc
        scenarios.append(scenario)
    return ScenarioSet(scenarios, manifest["seed"]), manifest


def _check_manifest(table: str, fields: dict, manifest: dict) -> None:
    """Raise unless a scenario table has the generators, load buses and
    step count its manifest records."""
    found = (("dg_names", sorted(fields["capacity_factor"])),
             ("load_buses", sorted(fields["load_active"])),
             ("load_buses", sorted(fields["load_reactive"])),
             ("step_count", len(fields["day_ahead_price"])))
    for key, value in found:
        if value != manifest[key]:
            raise ScenarioError(f"{table}: {key} {value} differs from the "
                                f"manifest's {manifest[key]}")


def zero_error_specs() -> dict[str, ErrorSpec]:
    """Degenerate specs that reproduce the base forecast exactly."""
    return {name: ErrorSpec(NORMAL, 0.0, 0.0, relative=spec.relative)
            for name, spec in DEFAULT_ERROR_SPECS.items()}


def error_specs_from_dict(raw: dict) -> dict[str, ErrorSpec]:
    """Parse a {name: {kind, mean, std_dev, relative}} mapping, filling
    unmentioned error types from the defaults."""
    specs = dict(DEFAULT_ERROR_SPECS)
    for name, entry in raw.items():
        if name not in ERROR_NAMES:
            raise ScenarioError(f"unknown error type {name!r}")
        specs[name] = ErrorSpec(entry["kind"], float(entry["mean"]),
                                float(entry["std_dev"]), bool(entry["relative"]))
    return specs


def save_base_forecast(base: BaseForecast, path: str, step_hours: float,
                       rcm_window_hours: float) -> None:
    """Single-CSV forecast: reserve-capacity prices are expanded onto the
    dispatch grid (constant within each booking window)."""
    base.validate()
    _write_table(path, base, int(round(rcm_window_hours / step_hours)))


def load_base_forecast(path: str, step_hours: float,
                       rcm_window_hours: float) -> BaseForecast:
    base = BaseForecast(**_read_table(
        path, int(round(rcm_window_hours / step_hours)), BaseForecast))
    base.validate()
    return base
