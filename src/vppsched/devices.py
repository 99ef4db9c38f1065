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

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .market import MarketHorizon
from .scenarios import Scenario


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
        cap = lp.Data("capacity_factor", dg.name, t, dg.nominal_kw)
        p = program.add_variable(0.0, cap, f"dg_{dg.name}[{t}]")
        q = program.add_variable(-q_lim, q_lim, f"dgq_{dg.name}[{t}]")
        h.p.append(p)
        h.q.append(q)
        program.add_objective_term(p, dg.marginal_cost * horizon.step_hours)
        h.cons_p.append([(p, -1.0)])
        h.cons_q.append([(q, -1.0)])
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
    for t in range(T):
        p = program.add_variable(0.0, hp.max_elec_kw, f"hp_{hp.name}[{t}]")
        h.p.append(p)
        program.add_constraint(
            [(h.temp[t + 1], 1.0), (h.temp[t], -(1.0 - leak)), (p, -gain)],
            lp.EQ, lp.Data("ambient_temp", None, t, leak),
            f"hp_dyn_{hp.name}[{t}]")
        h.cons_p.append([(p, 1.0)])
        h.cons_q.append([])
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
        ch = program.add_variable(
            0.0, lp.Data("ev_availability", None, t, ev.max_charge_kw),
            f"evC_{ev.name}[{t}]")
        dis = program.add_variable(
            0.0, lp.Data("ev_availability", None, t, ev.max_discharge_kw),
            f"evD_{ev.name}[{t}]")
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


# -------------------------------------------------------------- diagnostics

def hp_comfort_reachable(hp: HeatPump, ambient: np.ndarray,
                         horizon: MarketHorizon) -> bool:
    """Necessary condition for comfort feasibility: the zero-power and
    full-power temperature envelopes must bracket the comfort band at every
    step. The LP remains the final feasibility authority."""
    leak = horizon.step_hours / (hp.thermal_capacitance * hp.thermal_resistance)
    gain = horizon.step_hours * hp.cop / hp.thermal_capacitance
    t_lo = t_hi = hp.initial_temp
    for t in range(horizon.step_count):
        amb = float(ambient[t])
        t_lo = t_lo + leak * (amb - t_lo)
        t_hi = t_hi + leak * (amb - t_hi) + gain * hp.max_elec_kw
        t_hi = min(t_hi, hp.comfort_max)   # controller would back off
        if t_hi < hp.comfort_min - 1e-9 or t_lo > hp.comfort_max + 1e-9:
            return False
        t_lo = max(t_lo, hp.comfort_min)   # cannot dip below and recover freely
    return True


def ev_charge_reachable(ev: EvChargingEvent, availability: np.ndarray,
                        horizon: MarketHorizon) -> bool:
    """Necessary condition: required energy gain fits the battery and the
    available charging envelope."""
    dt = horizon.step_hours
    required = ev.min_avg_charge_kw * (ev.departure - ev.arrival) * dt
    if ev.arrival_soc_kwh + required > ev.battery_kwh + 1e-9:
        return False
    max_gain = sum(ev.charge_eff * ev.max_charge_kw * float(availability[t]) * dt
                   for t in range(ev.arrival, ev.departure))
    return max_gain + 1e-9 >= required


def infeasibility_suspects(park: DerPark, scenario: Scenario,
                           horizon: MarketHorizon) -> list[str]:
    """Names of devices whose necessary feasibility conditions fail under the
    given scenario; used to annotate LP infeasibility reports."""
    bad = []
    for hp in park.hps:
        if not hp_comfort_reachable(hp, scenario.ambient_temp, horizon):
            bad.append(hp.name)
    for ev in park.evs:
        if not ev_charge_reachable(ev, scenario.ev_availability, horizon):
            bad.append(ev.name)
    return bad


# ----------------------------------------------------------------- file io

def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_der_park(dg_path=None, hp_path=None, ev_path=None,
                  bess_path=None) -> DerPark:
    """Assemble a park from per-class CSV files (any subset may be absent).

    Column schemas (units in the names):
      dg:   name,node,nominal_kw,inverter_kva,marginal_cost_per_kwh
      hp:   name,node,max_elec_kw,cop,thermal_resistance_k_per_kw,
            thermal_capacitance_kwh_per_k,comfort_min_c,comfort_max_c,
            initial_temp_c
      ev:   name,node,arrival_step,departure_step,battery_kwh,
            arrival_soc_kwh,max_charge_kw,max_discharge_kw,charge_eff,
            discharge_eff,min_avg_charge_kw,discharge_compensation_per_kwh
      bess: name,node,energy_kwh,max_power_kw,inverter_kva,charge_eff,
            discharge_eff,initial_soc_kwh,cycle_cost_per_kwh
    """
    park = DerPark()
    if dg_path:
        for r in _read_rows(dg_path):
            park.dgs.append(DistributedGenerator(
                r["name"], int(r["node"]), float(r["nominal_kw"]),
                float(r["inverter_kva"]), float(r["marginal_cost_per_kwh"])))
    if hp_path:
        for r in _read_rows(hp_path):
            park.hps.append(HeatPump(
                r["name"], int(r["node"]), float(r["max_elec_kw"]),
                float(r["cop"]), float(r["thermal_resistance_k_per_kw"]),
                float(r["thermal_capacitance_kwh_per_k"]),
                float(r["comfort_min_c"]), float(r["comfort_max_c"]),
                float(r["initial_temp_c"])))
    if ev_path:
        for r in _read_rows(ev_path):
            park.evs.append(EvChargingEvent(
                r["name"], int(r["node"]), int(r["arrival_step"]),
                int(r["departure_step"]), float(r["battery_kwh"]),
                float(r["arrival_soc_kwh"]), float(r["max_charge_kw"]),
                float(r["max_discharge_kw"]), float(r["charge_eff"]),
                float(r["discharge_eff"]), float(r["min_avg_charge_kw"]),
                float(r.get("discharge_compensation_per_kwh", 0.0) or 0.0)))
    if bess_path:
        for r in _read_rows(bess_path):
            park.bess.append(Bess(
                r["name"], int(r["node"]), float(r["energy_kwh"]),
                float(r["max_power_kw"]), float(r["inverter_kva"]),
                float(r["charge_eff"]), float(r["discharge_eff"]),
                float(r["initial_soc_kwh"]), float(r["cycle_cost_per_kwh"])))
    return park


def save_der_park(park: DerPark, dg_path, hp_path, ev_path, bess_path) -> None:
    with open(dg_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "node", "nominal_kw", "inverter_kva",
                    "marginal_cost_per_kwh"])
        for d in park.dgs:
            w.writerow([d.name, d.node, repr(d.nominal_kw), repr(d.inverter_kva),
                        repr(d.marginal_cost)])
    with open(hp_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "node", "max_elec_kw", "cop",
                    "thermal_resistance_k_per_kw", "thermal_capacitance_kwh_per_k",
                    "comfort_min_c", "comfort_max_c", "initial_temp_c"])
        for d in park.hps:
            w.writerow([d.name, d.node, repr(d.max_elec_kw), repr(d.cop),
                        repr(d.thermal_resistance), repr(d.thermal_capacitance),
                        repr(d.comfort_min), repr(d.comfort_max),
                        repr(d.initial_temp)])
    with open(ev_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "node", "arrival_step", "departure_step",
                    "battery_kwh", "arrival_soc_kwh", "max_charge_kw",
                    "max_discharge_kw", "charge_eff", "discharge_eff",
                    "min_avg_charge_kw", "discharge_compensation_per_kwh"])
        for d in park.evs:
            w.writerow([d.name, d.node, d.arrival, d.departure,
                        repr(d.battery_kwh), repr(d.arrival_soc_kwh),
                        repr(d.max_charge_kw), repr(d.max_discharge_kw),
                        repr(d.charge_eff), repr(d.discharge_eff),
                        repr(d.min_avg_charge_kw), repr(d.discharge_compensation)])
    with open(bess_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "node", "energy_kwh", "max_power_kw", "inverter_kva",
                    "charge_eff", "discharge_eff", "initial_soc_kwh",
                    "cycle_cost_per_kwh"])
        for d in park.bess:
            w.writerow([d.name, d.node, repr(d.energy_kwh), repr(d.max_power_kw),
                        repr(d.inverter_kva), repr(d.charge_eff),
                        repr(d.discharge_eff), repr(d.initial_soc_kwh),
                        repr(d.cycle_cost)])
