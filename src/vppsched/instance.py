"""Synthetic study instances.

Real market and network data for the reference portfolio are not
redistributable, so shipped instances are generated: a random radial
feeder, sinusoid-plus-noise price forecasts, day-shaped load and solar
profiles, and a device park scaled to a residential low-voltage portfolio
(150 kWp of rooftop PV, 85 kW of heat pumps, 75 kWh of batteries, 40 EV
charging events at 70 kWh / 7 kW in the full preset).

Presets:
  desk  5 buses,  8 steps of 0.25 h, one device per class; small enough
        that the monolithic and decomposed solvers can be cross-checked.
  day   5 buses, 24 hourly steps; used for the dynamic-tariff sweep, with
        an evening load peak inside the high-tariff window.
  full  97 buses, 96 steps of 0.25 h, park scaled to the portfolio totals.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import RUN_DEFAULTS
from .devices import Bess, DerPark, DistributedGenerator, EvChargingEvent, \
    HeatPump, save_der_park
from .market import MarketConfig, MarketHorizon, expand_hourly_tariff
from .model import VppModel
from .network import RadialNetwork, make_synthetic_feeder, save_network
from .scenarios import BaseForecast, save_base_forecast

#: flat grid charge (currency per MWh) applied in every preset
DEFAULT_TARIFF = 206.5


@dataclass
class Instance:
    model: VppModel
    forecast: BaseForecast
    preset: str
    seed: int


def _day_profiles(horizon: MarketHorizon, rng, start_hour: float = 0.0):
    """Hour-of-day keyed price/weather shapes with small seeded noise."""
    T = horizon.step_count
    hours = np.array([(start_hour + horizon.hour_of(t)) % 24.0 for t in range(T)])
    noise = lambda scale: rng.normal(0.0, scale, size=T)
    dam = 55.0 + 18.0 * np.sin(2.0 * math.pi * (hours - 9.0) / 24.0) \
        + 12.0 * np.exp(-0.5 * ((hours - 19.0) / 1.8) ** 2) + noise(2.0)
    ram_up = dam + 22.0 + noise(4.0)
    ram_dn = dam - 22.0 + noise(4.0)
    mfrr_up = dam + 38.0 + np.abs(noise(6.0))
    mfrr_dn = dam - 38.0 - np.abs(noise(6.0))
    ambient = 6.0 + 4.0 * np.sin(2.0 * math.pi * (hours - 14.0) / 24.0) + noise(0.3)
    sun = np.maximum(0.0, np.sin(math.pi * (hours - 6.0) / 12.0))
    cf = np.clip(0.85 * sun ** 1.3 + noise(0.01), 0.0, 1.0)
    return hours, dam, ram_up, ram_dn, mfrr_up, mfrr_dn, ambient, cf


def _load_shape(hours: np.ndarray, base_kw: float, evening_boost: float,
                rng) -> np.ndarray:
    shape = 0.75 + 0.15 * np.sin(2.0 * math.pi * (hours - 7.0) / 24.0)
    shape += evening_boost * np.exp(-0.5 * ((hours - 19.0) / 1.6) ** 2)
    shape += 0.25 * np.exp(-0.5 * ((hours - 7.5) / 1.2) ** 2)
    shape *= 1.0 + rng.normal(0.0, 0.02, size=len(hours))
    return base_kw * np.maximum(shape, 0.05)


def _build_forecast(horizon: MarketHorizon, network: RadialNetwork,
                    dg_names: list[str], seed: int, start_hour: float,
                    base_load_kw: float, evening_boost: float) -> BaseForecast:
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    hours, dam, ram_up, ram_dn, mfrr_up, mfrr_dn, ambient, cf = \
        _day_profiles(horizon, rng, start_hour)
    W = horizon.window_count
    rcm_up = np.maximum(5.5 + rng.normal(0.0, 1.0, size=W), 0.0)
    rcm_dn = np.maximum(4.5 + rng.normal(0.0, 1.0, size=W), 0.0)
    load_buses = [b.id for b in network.buses if not b.is_root]
    load_p = {}
    load_q = {}
    for bus in load_buses:
        series = _load_shape(hours, base_load_kw, evening_boost, rng)
        load_p[bus] = series
        load_q[bus] = 0.3 * series
    return BaseForecast(
        day_ahead_price=dam, rcm_up_price=rcm_up, rcm_dn_price=rcm_dn,
        ram_up_price=ram_up, ram_dn_price=ram_dn,
        mfrr_up_price=mfrr_up, mfrr_dn_price=mfrr_dn,
        ambient_temp=ambient, ev_availability=np.ones(horizon.step_count),
        capacity_factor={name: cf.copy() for name in dg_names},
        load_active=load_p, load_reactive=load_q,
    )


def _spread(total: float, count: int) -> list[float]:
    base = total / count
    return [base] * count


def desk_instance(seed: int = 7) -> Instance:
    """5-bus feeder, 8 quarter-hour steps starting at 08:00, one device per
    class; prequalified reserve power 10 kW."""
    horizon = MarketHorizon(step_count=8, step_hours=0.25, rcm_window_hours=1.0)
    network = make_synthetic_feeder(5, seed=seed, s_max_kva=250.0)
    park = DerPark(
        dgs=[DistributedGenerator("pv1", 2, 10.0, 12.0, 0.02)],
        hps=[HeatPump("hp1", 3, 4.0, 3.0, 8.0, 6.0, 19.0, 23.0, 21.0)],
        evs=[EvChargingEvent("ev1", 4, 1, 7, 40.0, 15.0, 7.0, 5.0,
                             0.95, 0.95, 1.0, 0.05)],
        bess=[Bess("bat1", 1, 15.0, 10.0, 12.0, 0.95, 0.95, 7.5, 0.01)],
    )
    forecast = _build_forecast(horizon, network, ["pv1"], seed,
                               start_hour=8.0, base_load_kw=3.0,
                               evening_boost=0.6)
    market = MarketConfig(10.0, expand_hourly_tariff(
        np.full(24, DEFAULT_TARIFF), horizon))
    model = VppModel(horizon, network, park, market)
    return Instance(model, forecast, "desk", seed)


def day_instance(seed: int = 11) -> Instance:
    """5-bus feeder over 24 hourly steps; strong evening load peak for
    tariff-response studies."""
    horizon = MarketHorizon(step_count=24, step_hours=1.0, rcm_window_hours=4.0)
    network = make_synthetic_feeder(5, seed=seed, s_max_kva=400.0)
    park = DerPark(
        dgs=[DistributedGenerator("pv1", 2, 12.0, 14.0, 0.02)],
        hps=[HeatPump("hp1", 3, 5.0, 3.0, 8.0, 10.0, 19.0, 24.0, 21.0)],
        evs=[EvChargingEvent("ev1", 4, 8, 22, 70.0, 25.0, 7.0, 5.0,
                             0.95, 0.95, 0.5, 0.05)],
        bess=[Bess("bat1", 1, 25.0, 12.0, 14.0, 0.95, 0.95, 12.5, 0.01)],
    )
    forecast = _build_forecast(horizon, network, ["pv1"], seed,
                               start_hour=0.0, base_load_kw=6.0,
                               evening_boost=2.4)
    market = MarketConfig(12.0, expand_hourly_tariff(
        np.full(24, DEFAULT_TARIFF), horizon))
    model = VppModel(horizon, network, park, market)
    return Instance(model, forecast, "day", seed)


def full_instance(seed: int = 23) -> Instance:
    """97-bus feeder over 96 quarter-hour steps; park scaled to the
    portfolio totals. Generating it is cheap; solving it with a large
    scenario set is a cluster-sized job."""
    horizon = MarketHorizon(step_count=96, step_hours=0.25, rcm_window_hours=4.0)
    network = make_synthetic_feeder(97, seed=seed, s_max_kva=600.0)
    rng = np.random.Generator(np.random.Philox(key=seed + 2))
    nodes = [b.id for b in network.buses if not b.is_root]
    pick = lambda: int(rng.choice(nodes))
    dgs = [DistributedGenerator(f"pv{i}", pick(), kw, kw * 1.15, 0.02)
           for i, kw in enumerate(_spread(150.0, 10))]
    hps = [HeatPump(f"hp{i}", pick(), kw, 3.0, 8.0, 10.0, 19.0, 24.0, 21.0)
           for i, kw in enumerate(_spread(85.0, 8))]
    bess = [Bess(f"bat{i}", pick(), kwh, kwh * 0.6, kwh * 0.7, 0.95, 0.95,
                 kwh / 2.0, 0.01)
            for i, kwh in enumerate(_spread(75.0, 3))]
    evs = []
    for i in range(40):
        arrival = int(rng.integers(0, 64))
        length = int(rng.integers(12, 32))
        departure = min(arrival + length, 96)
        evs.append(EvChargingEvent(
            f"ev{i}", pick(), arrival, departure, 70.0,
            float(rng.uniform(15.0, 45.0)), 7.0, 5.0, 0.95, 0.95, 0.5, 0.05))
    park = DerPark(dgs, hps, evs, bess)
    forecast = _build_forecast(horizon, network, [d.name for d in dgs], seed,
                               start_hour=0.0, base_load_kw=1.2,
                               evening_boost=1.0)
    market = MarketConfig(50.0, expand_hourly_tariff(
        np.full(24, DEFAULT_TARIFF), horizon))
    model = VppModel(horizon, network, park, market)
    return Instance(model, forecast, "full", seed)


PRESETS = {"desk": desk_instance, "day": day_instance, "full": full_instance}


def write_instance(inst: Instance, out_dir: str,
                   scenario_count: int = 10, scenario_seed: int = 42) -> str:
    """Write the instance files plus a ready-to-run configuration document.
    Returns the config path."""
    os.makedirs(out_dir, exist_ok=True)
    hz = inst.model.horizon
    save_network(inst.model.network, os.path.join(out_dir, "buses.csv"),
                 os.path.join(out_dir, "branches.csv"))
    save_der_park(inst.model.park, os.path.join(out_dir, "dg.csv"),
                  os.path.join(out_dir, "hp.csv"),
                  os.path.join(out_dir, "ev.csv"),
                  os.path.join(out_dir, "bess.csv"))
    save_base_forecast(inst.forecast, os.path.join(out_dir, "forecast.csv"),
                       hz.step_hours, hz.rcm_window_hours)
    config = {
        "preset": inst.preset,
        "network": {"buses": "buses.csv", "branches": "branches.csv",
                    "base_mva": inst.model.network.base_mva},
        "devices": {"dg": "dg.csv", "hp": "hp.csv", "ev": "ev.csv",
                    "bess": "bess.csv"},
        "forecast": "forecast.csv",
        "horizon": {"step_count": hz.step_count, "step_hours": hz.step_hours,
                    "rcm_window_hours": hz.rcm_window_hours},
        "market": {"prequalified_power_kw": inst.model.market.prequalified_power_kw,
                   "hourly_tariff_per_mwh": [DEFAULT_TARIFF] * 24},
        "flow_segments": inst.model.flow_segments,
        "scenarios": {"count": scenario_count, "seed": scenario_seed,
                      "dir": "scenarios"},
        **RUN_DEFAULTS,
    }
    path = os.path.join(out_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    return path
