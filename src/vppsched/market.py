"""Financial model: market variables, revenue/cost expressions, and the
constraints tying reserve bids, activations, and imbalances together.

Conventions used throughout, asserted by tests:
  * costs are positive, profit is the negated total cost;
  * day-ahead volumes are export-positive and may be negative (buying);
  * grid exchange is import-positive at the coupling point, so the net
    delivery variable equals minus the coupling-point import;
  * device and market volumes are in kW, prices per MWh (per MW for
    capacity), so every energy expression converts with a factor 1/1000.

``bind_costs`` attaches each revenue and cost stream to its columns as
data slots (prices and tariffs are data); the ``*_value`` twins evaluate
the same formulas on plain numbers and are used for solver-independent
reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp

KW_PER_MW = 1000.0


class MarketError(Exception):
    pass


@dataclass(frozen=True)
class MarketHorizon:
    """Delivery-day discretization: dispatch steps of ``step_hours`` and
    reserve-capacity booking windows of ``rcm_window_hours``."""

    step_count: int
    step_hours: float
    rcm_window_hours: float

    def __post_init__(self):
        if not (self.step_count >= 1 and 0 < self.step_hours < np.inf):
            raise MarketError("horizon needs step_count >= 1 and step_hours > 0")
        ratio = self.rcm_window_hours / self.step_hours
        if not np.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 \
                or round(ratio) < 1:
            raise MarketError("window duration must be an integer multiple of the step")
        if self.step_count % int(round(ratio)) != 0:
            raise MarketError("steps must tile the booking windows exactly")

    @property
    def steps_per_window(self) -> int:
        return int(round(self.rcm_window_hours / self.step_hours))

    @property
    def window_count(self) -> int:
        return self.step_count // self.steps_per_window

    def window_of(self, t: int) -> int:
        return t // self.steps_per_window

    def hour_of(self, t: int) -> float:
        return t * self.step_hours


@dataclass(frozen=True)
class MarketConfig:
    prequalified_power_kw: float
    tariff_per_mwh: np.ndarray          # length step_count

    def __post_init__(self):
        if self.prequalified_power_kw < 0:
            raise MarketError("prequalified power must be nonnegative")


@dataclass
class FirstStageDecision:
    """Bid volumes: day-ahead per step (signed kW) and reserve capacity per
    window and direction (nonnegative kW)."""

    p_dam_kw: np.ndarray
    p_rcm_up_kw: np.ndarray
    p_rcm_dn_kw: np.ndarray

    def __post_init__(self):
        if np.any(self.p_rcm_up_kw < -1e-9) or np.any(self.p_rcm_dn_kw < -1e-9):
            raise MarketError("capacity bids must be nonnegative")


@dataclass
class CostBreakdown:
    """Per-scenario streams in currency units; revenues enter the total with a
    negative sign."""

    r_dam: float
    r_rcm: float
    r_ram: float
    c_ops: float
    c_tariff: float
    c_imb: float

    @property
    def total(self) -> float:
        return -(self.r_dam + self.r_rcm + self.r_ram) \
            + self.c_ops + self.c_tariff + self.c_imb


# ------------------------------------------------------------------ handles

@dataclass
class FirstStageVars:
    dam: list[int]          # per step, signed
    rcm_up: list[int]       # per window
    rcm_dn: list[int]

    def flat(self) -> list[int]:
        return list(self.dam) + list(self.rcm_up) + list(self.rcm_dn)


@dataclass
class SecondStageVars:
    ram_up: list[int]
    ram_dn: list[int]
    imb_short: list[int]
    imb_long: list[int]
    p_vpp: list[int]        # net delivery, export-positive


def emit_first_stage(program: lp.LinearProgram, horizon: MarketHorizon,
                     config: MarketConfig, dam_cap_kw: float) -> FirstStageVars:
    """Create the shared bid variables. Day-ahead bids are capped by the
    park's deliverable power; capacity bids by the prequalified power
    (offering beyond it could never be activated)."""
    dam = [program.add_variable(-dam_cap_kw, dam_cap_kw, f"dam[{t}]")
           for t in range(horizon.step_count)]
    pbar = config.prequalified_power_kw
    rcm_up = [program.add_variable(0.0, pbar, f"rcm_up[{w}]")
              for w in range(horizon.window_count)]
    rcm_dn = [program.add_variable(0.0, pbar, f"rcm_dn[{w}]")
              for w in range(horizon.window_count)]
    return FirstStageVars(dam, rcm_up, rcm_dn)


def emit_second_stage(program: lp.LinearProgram, horizon: MarketHorizon,
                      config: MarketConfig) -> SecondStageVars:
    """Per-scenario market recourse variables. Activations are bounded by the
    prequalified power; imbalance volumes are unbounded above, which makes
    every first-stage bid recoverable (complete recourse)."""
    T = horizon.step_count
    pbar = config.prequalified_power_kw
    mk = lambda name, lo, hi: [program.add_variable(lo, hi, f"{name}[{t}]")
                               for t in range(T)]
    return SecondStageVars(
        ram_up=mk("ram_up", 0.0, pbar),
        ram_dn=mk("ram_dn", 0.0, pbar),
        imb_short=mk("imb_short", 0.0, np.inf),
        imb_long=mk("imb_long", 0.0, np.inf),
        p_vpp=mk("p_vpp", -np.inf, np.inf),
    )


def emit_reserve_coupling(program: lp.LinearProgram, horizon: MarketHorizon,
                          fs: FirstStageVars, ss: SecondStageVars) -> list[int]:
    """Booked capacity must be offered for activation in every step of its
    window: activation >= capacity bid, per direction."""
    rows = []
    for t in range(horizon.step_count):
        w = horizon.window_of(t)
        rows.append(program.add_constraint(
            [(ss.ram_up[t], 1.0), (fs.rcm_up[w], -1.0)], lp.GE, 0.0,
            f"ram_cover_up[{t}]"))
        rows.append(program.add_constraint(
            [(ss.ram_dn[t], 1.0), (fs.rcm_dn[w], -1.0)], lp.GE, 0.0,
            f"ram_cover_dn[{t}]"))
    return rows


def emit_position_balance(program: lp.LinearProgram, horizon: MarketHorizon,
                          fs: FirstStageVars, ss: SecondStageVars,
                          pcc_vars: list[int]) -> list[int]:
    """Net delivery equals the sum of financial positions, and is tied to the
    grid as the negated coupling-point import."""
    rows = []
    for t in range(horizon.step_count):
        rows.append(program.add_constraint(
            [(ss.p_vpp[t], 1.0), (fs.dam[t], -1.0), (ss.ram_up[t], -1.0),
             (ss.ram_dn[t], 1.0), (ss.imb_short[t], 1.0), (ss.imb_long[t], -1.0)],
            lp.EQ, 0.0, f"position[{t}]"))
        rows.append(program.add_constraint(
            [(ss.p_vpp[t], 1.0), (pcc_vars[t], 1.0)], lp.EQ, 0.0,
            f"delivery_tie[{t}]"))
    return rows


# ------------------------------------------------------- revenue and cost

def _check_len(a, n, label):
    if len(a) != n:
        raise MarketError(f"{label}: expected length {n}, got {len(a)}")


def check_series_length(field: str, series, horizon: MarketHorizon) -> None:
    """Every data series spans the horizon; reserve capacity prices carry
    one value per booking window."""
    _check_len(series, horizon.window_count if field.startswith("rcm_")
               else horizon.step_count, field)


def bind_costs(program: lp.LinearProgram, horizon: MarketHorizon,
               fs: FirstStageVars, ss: SecondStageVars,
               wit_vars_by_bus: dict[int, list[int]]) -> None:
    """Attach every revenue and cost stream to its columns as data slots.
    Energy is priced per MWh of power times step duration; capacity is
    paid per window, not per hour; both activation directions are
    remunerated energy; short imbalance positions pay, long ones are
    remunerated (negative cost); grid charges apply to the energy withdrawn
    at every node."""
    f = horizon.step_hours / KW_PER_MW
    streams = [("r_dam", "day_ahead_price", fs.dam, f, 1.0),
               ("r_rcm", "rcm_up_price", fs.rcm_up, 1.0, KW_PER_MW),
               ("r_rcm", "rcm_dn_price", fs.rcm_dn, 1.0, KW_PER_MW),
               ("r_ram", "ram_up_price", ss.ram_up, f, 1.0),
               ("r_ram", "ram_dn_price", ss.ram_dn, f, 1.0),
               ("c_imb", "imbalance_short_price", ss.imb_short, f, 1.0),
               ("c_imb", "imbalance_long_price", ss.imb_long, -f, 1.0)]
    streams += [("c_tariff", "tariff_per_mwh", wit_vars_by_bus[bus], f, 1.0)
                for bus in sorted(wit_vars_by_bus)]
    for label, field, cols, scale, divisor in streams:
        program.add_slots(label, cols, field, None, range(len(cols)), scale,
                          divisor)


def dam_revenue_value(prices, dam_kw, step_hours) -> float:
    _check_len(prices, len(dam_kw), "day-ahead prices")
    return float(np.sum(np.asarray(prices) * np.asarray(dam_kw))) * step_hours / KW_PER_MW


def rcm_revenue_value(up_prices, dn_prices, up_kw, dn_kw) -> float:
    return float(np.sum(np.asarray(up_prices) * np.asarray(up_kw))
                 + np.sum(np.asarray(dn_prices) * np.asarray(dn_kw))) / KW_PER_MW


def ram_revenue_value(up_prices, dn_prices, up_kw, dn_kw, step_hours) -> float:
    return float(np.sum(np.asarray(up_prices) * np.asarray(up_kw))
                 + np.sum(np.asarray(dn_prices) * np.asarray(dn_kw))) \
        * step_hours / KW_PER_MW


def tariff_cost_value(tariff_per_mwh, wit_kw_by_bus, step_hours) -> float:
    total = 0.0
    for bus, series in wit_kw_by_bus.items():
        total += float(np.sum(np.asarray(tariff_per_mwh) * np.asarray(series)))
    return total * step_hours / KW_PER_MW


def imbalance_cost_value(short_prices, long_prices, short_kw, long_kw,
                         step_hours) -> float:
    return float(np.sum(np.asarray(short_prices) * np.asarray(short_kw))
                 - np.sum(np.asarray(long_prices) * np.asarray(long_kw))) \
        * step_hours / KW_PER_MW


def expand_hourly_tariff(hourly: np.ndarray, horizon: MarketHorizon) -> np.ndarray:
    """Expand a 24-value hourly tariff onto the dispatch grid (wrapping by
    hour of day for horizons other than 24 h)."""
    if len(hourly) != 24:
        raise MarketError("hourly tariff needs exactly 24 values")
    idx = [int(horizon.hour_of(t)) % 24 for t in range(horizon.step_count)]
    return np.asarray([float(hourly[i]) for i in idx])
