"""Device-level models for the four DER classes.

Each ``emit_*`` function declares the device's per-step variables in a
LinearProgram, adds its operating constraints, puts its linear operating
cost into the program's objective, and returns a handle carrying the
variable indices and its nodal consumption terms (consumption positive,
injection negative, in kW). Limits that depend on the scenario (capacity
factors, vehicle availability, ambient temperature) are data slots.

The thermal building model, the storage state recurrences, and the cost
structures are reconstructed standard forms: a first-order RC envelope
for heated buildings, efficiency-scaled energy balances for batteries
and vehicles, linear generation and cycling costs, and a per-discharged-
kWh compensation for vehicle owners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp, tables
from .market import MarketHorizon


class DeviceError(Exception):
    pass


@dataclass(frozen=True)
class DistributedGenerator:
    name: str
    node: int
    nominal_kw: float
    inverter_kva: float
    marginal_cost: float        # currency per kWh produced

    def __post_init__(self):
        if self.nominal_kw < 0 or self.nominal_kw > self.inverter_kva + 1e-12:
            raise DeviceError(f"{self.name}: nominal power exceeds inverter rating")
        if self.marginal_cost < 0:
            raise DeviceError(f"{self.name}: negative marginal cost")


@dataclass(frozen=True)
class HeatPump:
    name: str
    node: int
    max_elec_kw: float
    cop: float                   # thermal kW per electric kW
    thermal_resistance: float    # K per kW
    thermal_capacitance: float   # kWh per K
    comfort_min: float
    comfort_max: float
    initial_temp: float

    def __post_init__(self):
        if self.thermal_resistance <= 0 or self.thermal_capacitance <= 0:
            raise DeviceError(f"{self.name}: R and C must be positive")
        if not (self.comfort_min <= self.initial_temp <= self.comfort_max):
            raise DeviceError(f"{self.name}: initial temperature outside comfort band")
        if self.max_elec_kw < 0 or self.cop <= 0:
            raise DeviceError(f"{self.name}: bad power or COP")


@dataclass(frozen=True)
class EvChargingEvent:
    name: str
    node: int
    arrival: int                 # step index, inclusive
    departure: int               # step index, exclusive for power
    battery_kwh: float
    arrival_soc_kwh: float
    max_charge_kw: float
    max_discharge_kw: float
    charge_eff: float
    discharge_eff: float
    min_avg_charge_kw: float
    discharge_compensation: float = 0.0   # currency per kWh fed back

    def __post_init__(self):
        if self.arrival >= self.departure:
            raise DeviceError(f"{self.name}: empty charging window")
        if not (0.0 <= self.arrival_soc_kwh <= self.battery_kwh):
            raise DeviceError(f"{self.name}: arrival state of charge out of range")
        for eff in (self.charge_eff, self.discharge_eff):
            if not (0.0 < eff <= 1.0):
                raise DeviceError(f"{self.name}: efficiency outside (0, 1]")


@dataclass(frozen=True)
class Bess:
    name: str
    node: int
    energy_kwh: float
    max_power_kw: float
    inverter_kva: float
    charge_eff: float
    discharge_eff: float
    initial_soc_kwh: float
    cycle_cost: float            # currency per kWh of throughput

    def __post_init__(self):
        if not (0.0 <= self.initial_soc_kwh <= self.energy_kwh):
            raise DeviceError(f"{self.name}: initial state of charge out of range")
        for eff in (self.charge_eff, self.discharge_eff):
            if not (0.0 < eff <= 1.0):
                raise DeviceError(f"{self.name}: efficiency outside (0, 1]")
        if self.cycle_cost < 0:
            raise DeviceError(f"{self.name}: negative cycle cost")


@dataclass
class DerPark:
    dgs: list[DistributedGenerator] = field(default_factory=list)
    hps: list[HeatPump] = field(default_factory=list)
    evs: list[EvChargingEvent] = field(default_factory=list)
    bess: list[Bess] = field(default_factory=list)

    def all_nodes(self) -> set[int]:
        return {d.node for d in self.dgs} | {d.node for d in self.hps} \
            | {d.node for d in self.evs} | {d.node for d in self.bess}

    def validate_nodes(self, known: set[int]) -> None:
        unknown = self.all_nodes() - known
        if unknown:
            raise DeviceError(f"devices reference unknown buses: {sorted(unknown)}")

    def total_power_kw(self) -> float:
        """Aggregate deliverable power, used to cap day-ahead bids."""
        return (sum(d.nominal_kw for d in self.dgs)
                + sum(d.max_elec_kw for d in self.hps)
                + sum(max(d.max_charge_kw, d.max_discharge_kw) for d in self.evs)
                + sum(d.max_power_kw for d in self.bess))


def _reactive_halfwidth(rating_kva: float, active_kw: float) -> float:
    if rating_kva <= active_kw:
        return 0.0
    return math.sqrt(rating_kva ** 2 - active_kw ** 2)


@dataclass
class DeviceHandles:
    name: str
    node: int
    p: list[int] = field(default_factory=list)            # active power vars
    q: list[int] = field(default_factory=list)            # reactive power vars
    charge: list[int] = field(default_factory=list)
    discharge: list[int] = field(default_factory=list)
    soc: list[int] = field(default_factory=list)
    temp: list[int] = field(default_factory=list)
    cons_p: list[list[tuple[int, float]]] = field(default_factory=list)  # per t
    cons_q: list[list[tuple[int, float]]] = field(default_factory=list)
    window: tuple[int, int] | None = None      # charging-event step range


def emit_dg(program: lp.LinearProgram, dg: DistributedGenerator,
            horizon: MarketHorizon) -> DeviceHandles:
    """Curtailable generator: output between zero and nominal power scaled by
    the scenario capacity factor; reactive power within the inverter's
    remaining headroom (a conservative box, zero when rating equals nominal)."""
    h = DeviceHandles(dg.name, dg.node)
    q_lim = _reactive_halfwidth(dg.inverter_kva, dg.nominal_kw)
    for t in range(horizon.step_count):
        p = program.add_variable(0.0, math.inf, f"dg_{dg.name}[{t}]")
        q = program.add_variable(-q_lim, q_lim, f"dgq_{dg.name}[{t}]")
        h.p.append(p)
        h.q.append(q)
        program.add_objective_term(p, dg.marginal_cost * horizon.step_hours)
        h.cons_p.append([(p, -1.0)])
        h.cons_q.append([(q, -1.0)])
    program.add_slots(lp.UPPER, h.p, "capacity_factor", dg.name,
                      range(horizon.step_count), dg.nominal_kw)
    return h


def emit_hp(program: lp.LinearProgram, hp: HeatPump,
            horizon: MarketHorizon) -> DeviceHandles:
    """Heat pump on a first-order RC building:
    T[t+1] = T[t] + (dt/C) * ((Tamb[t] - T[t]) / R + cop * P[t]),
    with the indoor temperature held inside the comfort band and returned
    to its initial value at the end of the horizon."""
    h = DeviceHandles(hp.name, hp.node)
    T = horizon.step_count
    dt = horizon.step_hours
    h.temp.append(program.add_variable(hp.initial_temp, hp.initial_temp,
                                       f"hpT_{hp.name}[0]"))
    for t in range(1, T + 1):
        h.temp.append(program.add_variable(hp.comfort_min, hp.comfort_max,
                                           f"hpT_{hp.name}[{t}]"))
    leak = dt / (hp.thermal_capacitance * hp.thermal_resistance)
    gain = dt * hp.cop / hp.thermal_capacitance
    dyn = []
    for t in range(T):
        p = program.add_variable(0.0, hp.max_elec_kw, f"hp_{hp.name}[{t}]")
        h.p.append(p)
        dyn.append(program.add_constraint(
            [(h.temp[t + 1], 1.0), (h.temp[t], -(1.0 - leak)), (p, -gain)],
            lp.EQ, 0.0, f"hp_dyn_{hp.name}[{t}]"))
        h.cons_p.append([(p, 1.0)])
        h.cons_q.append([])
    program.add_slots(lp.RHS, dyn, "ambient_temp", None, range(T), leak)
    program.add_constraint([(h.temp[T], 1.0), (h.temp[0], -1.0)], lp.EQ, 0.0,
                           f"hp_tie_{hp.name}")
    return h


def emit_ev(program: lp.LinearProgram, ev: EvChargingEvent,
            horizon: MarketHorizon) -> DeviceHandles:
    """Charging event with vehicle-to-grid: state of charge follows
    soc[t+1] = soc[t] + (eff_c * Pch[t] - Pdis[t] / eff_d) * dt inside the
    window, power limits scale with the scenario availability factor, and
    the battery must gain at least min_avg_charge_kw * window hours."""
    if ev.arrival < 0 or ev.departure > horizon.step_count:
        raise DeviceError(f"{ev.name}: window outside the horizon")
    h = DeviceHandles(ev.name, ev.node, window=(ev.arrival, ev.departure))
    dt = horizon.step_hours
    h.cons_p = [[] for _ in range(horizon.step_count)]
    h.cons_q = [[] for _ in range(horizon.step_count)]
    h.soc.append(program.add_variable(ev.arrival_soc_kwh, ev.arrival_soc_kwh,
                                      f"evS_{ev.name}[{ev.arrival}]"))
    for t in range(ev.arrival, ev.departure):
        ch = program.add_variable(0.0, math.inf, f"evC_{ev.name}[{t}]")
        dis = program.add_variable(0.0, math.inf, f"evD_{ev.name}[{t}]")
        nxt = program.add_variable(0.0, ev.battery_kwh, f"evS_{ev.name}[{t + 1}]")
        h.charge.append(ch)
        h.discharge.append(dis)
        program.add_constraint(
            [(nxt, 1.0), (h.soc[-1], -1.0),
             (ch, -ev.charge_eff * dt), (dis, dt / ev.discharge_eff)],
            lp.EQ, 0.0, f"ev_dyn_{ev.name}[{t}]")
        h.soc.append(nxt)
        program.add_objective_term(dis, ev.discharge_compensation * dt)
        h.cons_p[t] = [(ch, 1.0), (dis, -1.0)]
    program.add_slots(lp.UPPER, np.transpose([h.charge, h.discharge]),
                      "ev_availability", None, np.c_[ev.arrival:ev.departure],
                      [ev.max_charge_kw, ev.max_discharge_kw])
    window_hours = (ev.departure - ev.arrival) * dt
    program.add_constraint(
        [(h.soc[-1], 1.0), (h.soc[0], -1.0)], lp.GE,
        ev.min_avg_charge_kw * window_hours, f"ev_min_{ev.name}")
    return h


def emit_bess(program: lp.LinearProgram, bess: Bess,
              horizon: MarketHorizon) -> DeviceHandles:
    """Stationary battery: same state recurrence as vehicles, state of charge
    restored to its initial value at the end of the horizon, reactive power
    within the inverter headroom box, linear cycling cost on throughput."""
    h = DeviceHandles(bess.name, bess.node)
    T = horizon.step_count
    dt = horizon.step_hours
    q_lim = _reactive_halfwidth(bess.inverter_kva, bess.max_power_kw)
    h.soc.append(program.add_variable(bess.initial_soc_kwh, bess.initial_soc_kwh,
                                      f"stS_{bess.name}[0]"))
    for t in range(T):
        ch = program.add_variable(0.0, bess.max_power_kw, f"stC_{bess.name}[{t}]")
        dis = program.add_variable(0.0, bess.max_power_kw, f"stD_{bess.name}[{t}]")
        q = program.add_variable(-q_lim, q_lim, f"stQ_{bess.name}[{t}]")
        nxt = program.add_variable(0.0, bess.energy_kwh, f"stS_{bess.name}[{t + 1}]")
        h.charge.append(ch)
        h.discharge.append(dis)
        h.q.append(q)
        program.add_constraint(
            [(nxt, 1.0), (h.soc[-1], -1.0),
             (ch, -bess.charge_eff * dt), (dis, dt / bess.discharge_eff)],
            lp.EQ, 0.0, f"st_dyn_{bess.name}[{t}]")
        h.soc.append(nxt)
        program.add_objective_term(ch, bess.cycle_cost * dt)
        program.add_objective_term(dis, bess.cycle_cost * dt)
        h.cons_p.append([(ch, 1.0), (dis, -1.0)])
        h.cons_q.append([(q, -1.0)])
    program.add_constraint([(h.soc[T], 1.0), (h.soc[0], -1.0)], lp.EQ, 0.0,
                           f"st_tie_{bess.name}")
    return h


# ----------------------------------------------------------------- file io

#: table columns of each device class, one per field in field order
DG_COLUMNS = ("name", "node", "nominal_kw", "inverter_kva",
              "marginal_cost_per_kwh")
HP_COLUMNS = ("name", "node", "max_elec_kw", "cop",
              "thermal_resistance_k_per_kw", "thermal_capacitance_kwh_per_k",
              "comfort_min_c", "comfort_max_c", "initial_temp_c")
EV_COLUMNS = ("name", "node", "arrival_step", "departure_step", "battery_kwh",
              "arrival_soc_kwh", "max_charge_kw", "max_discharge_kw",
              "charge_eff", "discharge_eff", "min_avg_charge_kw",
              "discharge_compensation_per_kwh")
BESS_COLUMNS = ("name", "node", "energy_kwh", "max_power_kw", "inverter_kva",
                "charge_eff", "discharge_eff", "initial_soc_kwh",
                "cycle_cost_per_kwh")

#: the class and the columns of each ``DerPark`` list, in field order
_SCHEMAS = ((DistributedGenerator, DG_COLUMNS), (HeatPump, HP_COLUMNS),
            (EvChargingEvent, EV_COLUMNS), (Bess, BESS_COLUMNS))


def load_der_park(dg_path=None, hp_path=None, ev_path=None,
                  bess_path=None) -> DerPark:
    """Assemble a park from per-class tables (any subset may be absent)."""
    paths = (dg_path, hp_path, ev_path, bess_path)
    return DerPark(*(tables.read_records(path, cls, columns) if path else []
                     for path, (cls, columns) in zip(paths, _SCHEMAS)))


def save_der_park(park: DerPark, dg_path, hp_path, ev_path, bess_path) -> None:
    for path, (_, columns), records in zip(
            (dg_path, hp_path, ev_path, bess_path), _SCHEMAS,
            (park.dgs, park.hps, park.evs, park.bess)):
        tables.write_records(path, columns, records)
