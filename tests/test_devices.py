import dataclasses
import math

import numpy as np
import pytest

from vppsched import devices as dv
from vppsched import lp
from vppsched.market import MarketHorizon

from test_scenarios import make_base
from vppsched.model import BlockTemplate
from vppsched.scenarios import build_scenarios, zero_error_specs

H8 = MarketHorizon(8, 0.25, 1.0)
PV = dv.DistributedGenerator("pv1", 1, 5.0, 6.0, 0.1)


def plain_scenario(steps=8, **overrides):
    base = make_base(steps=steps, windows=steps // 4 or 1)
    for key, val in overrides.items():
        setattr(base, key, val)
    return build_scenarios(base, zero_error_specs(), 1, seed=0).scenarios[0]


def instantiate(program, scenario, horizon=H8):
    """The emitted program with the scenario's data in its slots (and a
    zero objective)."""
    template = BlockTemplate(program, horizon)
    return template.instantiate(template.data(scenario))


def bounds_of(program, idx):
    return program.lower[idx], program.upper[idx]


# ---------------------------------------------------------------------- DG

def test_dg_night_hours_pin_output_to_zero():
    scen = plain_scenario()
    scen.capacity_factor["pv1"] = np.zeros(8)
    program = lp.LinearProgram()
    h = dv.emit_dg(program, PV, H8)
    program = instantiate(program, scen)
    assert all(bounds_of(program, i) == (0.0, 0.0) for i in h.p)


def test_dg_upper_bound_scales_with_capacity_factor():
    scen = plain_scenario()
    scen.capacity_factor["pv1"] = np.full(8, 0.6)
    program = lp.LinearProgram()
    h = dv.emit_dg(program, PV, H8)
    program = instantiate(program, scen)
    assert bounds_of(program, h.p[0]) == (0.0, pytest.approx(3.0))


def test_dg_without_reactive_headroom():
    scen = plain_scenario()
    scen.capacity_factor["pv1"] = np.full(8, 1.0)
    program = lp.LinearProgram()
    h = dv.emit_dg(program, dv.DistributedGenerator("pv1", 1, 6.0, 6.0, 0.0),
                   H8)
    program = instantiate(program, scen)
    assert all(bounds_of(program, i) == (0.0, 0.0) for i in h.q)


def test_dg_validation():
    with pytest.raises(dv.DeviceError):
        dv.DistributedGenerator("bad", 1, 7.0, 6.0, 0.1)
    with pytest.raises(dv.DeviceError):
        dv.DistributedGenerator("bad", 1, 5.0, 6.0, -0.1)


# ---------------------------------------------------------------------- HP

def hp_fixture(max_kw=4.0, comfort=(19.0, 23.0), initial=21.0, cop=3.0,
               r=5.0, c=10.0):
    return dv.HeatPump("hp1", 1, max_kw, cop, r, c, comfort[0], comfort[1],
                       initial)


def test_hp_equilibrium_needs_no_power():
    scen = plain_scenario(ambient_temp=np.full(8, 21.0))
    program = lp.LinearProgram()
    h = dv.emit_hp(program, hp_fixture(), H8)
    program = instantiate(program, scen)
    for i in h.p:
        program.add_objective_term(i, 1.0)
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert all(sol.primal[i] == pytest.approx(21.0, abs=1e-9) for i in h.temp)


def test_hp_recurrence_matches_discrete_simulation():
    # one step at fixed power, checked against the simulated recurrence
    hp = hp_fixture(comfort=(-50.0, 80.0), initial=20.0, cop=3.0, r=5.0, c=10.0)
    scen = plain_scenario(ambient_temp=np.zeros(8))
    program = lp.LinearProgram()
    h = dv.emit_hp(program, hp, H8)
    program = instantiate(program, scen)
    program.add_constraint([(h.p[0], 1.0)], lp.EQ, 2.0, "pin_power")
    # leave later steps unconstrained but feasible: drop terminal tie effect
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    temp = 20.0
    dt = 0.25
    temp_next = temp + (dt / 10.0) * ((0.0 - temp) / 5.0 + 3.0 * 2.0)
    assert temp_next == pytest.approx(20.05)
    assert sol.primal[h.temp[1]] == pytest.approx(temp_next, abs=1e-9)


def test_hp_terminal_temperature_tie(desk, desk_scenarios, desk_neutral):
    ef, sol = desk_neutral
    for block in ef.blocks:
        x = sol.solution.primal[block.columns]
        for h in block.template.handles.devices:
            if h.temp:
                assert abs(x[h.temp[-1]] - x[h.temp[0]]) <= 1e-7


def test_undersized_heater_is_lp_infeasible():
    hp = hp_fixture(max_kw=0.05, comfort=(19.0, 23.0), initial=19.0)
    scen = plain_scenario(ambient_temp=np.full(8, -30.0))
    program = lp.LinearProgram()
    dv.emit_hp(program, hp, H8)
    assert lp.solve(instantiate(program, scen)).status == lp.INFEASIBLE


def test_hp_validation():
    with pytest.raises(dv.DeviceError):
        hp_fixture(initial=30.0)
    with pytest.raises(dv.DeviceError):
        dv.HeatPump("x", 1, 4.0, 3.0, 0.0, 10.0, 19.0, 23.0, 20.0)


# ---------------------------------------------------------------------- EV

def ev_fixture(**kw):
    args = dict(name="ev1", node=1, arrival=2, departure=6, battery_kwh=40.0,
                arrival_soc_kwh=15.0, max_charge_kw=7.0, max_discharge_kw=5.0,
                charge_eff=0.9, discharge_eff=0.9, min_avg_charge_kw=0.0)
    args.update(kw)
    return dv.EvChargingEvent(**args)


def test_full_battery_allows_idle():
    ev = ev_fixture(arrival_soc_kwh=40.0)
    scen = plain_scenario()
    program = lp.LinearProgram()
    h = dv.emit_ev(program, ev, H8)
    program = instantiate(program, scen)
    for i in h.charge + h.discharge:
        program.add_objective_term(i, 1.0)
    sol = lp.solve(program)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_minimum_average_charge_enforced():
    # 4-step window at 0.25 h and 7 kW minimum rate: at least 7 kWh gained
    ev = ev_fixture(min_avg_charge_kw=7.0, max_charge_kw=30.0)
    scen = plain_scenario(ev_availability=np.ones(8))
    program = lp.LinearProgram()
    h = dv.emit_ev(program, ev, H8)
    program = instantiate(program, scen)
    for i in h.charge:
        program.add_objective_term(i, 1.0)
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    gained = sol.primal[h.soc[-1]] - sol.primal[h.soc[0]]
    assert gained >= 7.0 - 1e-9


def test_single_step_charge_recurrence():
    ev = ev_fixture(arrival=0, departure=1, charge_eff=0.9, max_charge_kw=20.0)
    scen = plain_scenario(ev_availability=np.ones(8))
    program = lp.LinearProgram()
    h = dv.emit_ev(program, ev, H8)
    program = instantiate(program, scen)
    program.add_constraint([(h.charge[0], 1.0)], lp.EQ, 10.0, "pin")
    program.add_constraint([(h.discharge[0], 1.0)], lp.EQ, 0.0, "pin2")
    sol = lp.solve(program)
    assert sol.primal[h.soc[1]] - sol.primal[h.soc[0]] == pytest.approx(2.25,
                                                                        abs=1e-9)


def test_zero_availability_forces_idle():
    ev = ev_fixture()
    scen = plain_scenario(ev_availability=np.zeros(8))
    program = lp.LinearProgram()
    h = dv.emit_ev(program, ev, H8)
    program = instantiate(program, scen)
    assert all(bounds_of(program, i) == (0.0, 0.0) for i in h.charge + h.discharge)


def test_window_outside_horizon_rejected():
    ev = ev_fixture(departure=9)
    with pytest.raises(dv.DeviceError):
        dv.emit_ev(lp.LinearProgram(), ev, H8)


def test_ev_validation():
    with pytest.raises(dv.DeviceError):
        ev_fixture(arrival=5, departure=5)
    with pytest.raises(dv.DeviceError):
        ev_fixture(arrival_soc_kwh=50.0)
    with pytest.raises(dv.DeviceError):
        ev_fixture(charge_eff=0.0)


def test_ev_charge_beyond_the_charger_is_lp_infeasible():
    scen = plain_scenario()
    for min_avg_kw, status in ((50.0, lp.INFEASIBLE), (2.0, lp.OPTIMAL)):
        program = lp.LinearProgram()
        dv.emit_ev(program, ev_fixture(min_avg_charge_kw=min_avg_kw), H8)
        assert lp.solve(instantiate(program, scen)).status == status


# -------------------------------------------------------------------- BESS

def bess_fixture(**kw):
    args = dict(name="b1", node=1, energy_kwh=15.0, max_power_kw=10.0,
                inverter_kva=12.0, charge_eff=0.9, discharge_eff=0.9,
                initial_soc_kwh=7.5, cycle_cost=0.0)
    args.update(kw)
    return dv.Bess(**args)


def test_bess_terminal_state_restored():
    program = lp.LinearProgram()
    h = dv.emit_bess(program, bess_fixture(), H8)
    # force some cycling, then check the tie still holds
    program.add_constraint([(h.charge[1], 1.0)], lp.GE, 4.0, "force")
    for i in h.charge + h.discharge:
        program.add_objective_term(i, 0.001)
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    assert sol.primal[h.soc[-1]] == pytest.approx(sol.primal[h.soc[0]], abs=1e-7)


def test_bess_round_trip_energy_accounting():
    program = lp.LinearProgram()
    b = bess_fixture(initial_soc_kwh=0.0)
    h = dv.emit_bess(program, b, H8)
    program.add_constraint([(h.charge[0], 1.0)], lp.GE, 5.0, "force")
    for i in h.charge + h.discharge:
        program.add_objective_term(i, 0.001)
    sol = lp.solve(program)
    charged = sum(sol.primal[i] for i in h.charge) * 0.25
    discharged = sum(sol.primal[i] for i in h.discharge) * 0.25
    assert discharged <= b.charge_eff * b.discharge_eff * charged + 1e-7


def test_bess_reactive_box():
    program = lp.LinearProgram()
    h = dv.emit_bess(program, bess_fixture(), H8)
    lim = math.sqrt(12.0 ** 2 - 10.0 ** 2)
    lo, hi = bounds_of(program, h.q[0])
    assert lo == pytest.approx(-lim) and hi == pytest.approx(lim)


def test_bess_validation():
    with pytest.raises(dv.DeviceError):
        bess_fixture(initial_soc_kwh=20.0)
    with pytest.raises(dv.DeviceError):
        bess_fixture(discharge_eff=1.5)


# --------------------------------------------------------------- aggregates

def test_operating_cost_is_sum_of_device_terms():
    # each emitter puts its device's operating cost into the objective
    program = lp.LinearProgram()
    dv.emit_dg(program, PV, H8)
    dv.emit_bess(program, bess_fixture(cycle_cost=0.02), H8)
    alone = [lp.LinearProgram(), lp.LinearProgram()]
    dv.emit_dg(alone[0], PV, H8)
    dv.emit_bess(alone[1], bess_fixture(cycle_cost=0.02), H8)
    assert np.array_equal(program.cost,
                          np.concatenate([p.cost for p in alone]))
    rng = np.random.default_rng(3)
    primal = rng.uniform(0.0, 2.0, size=program.num_variables)
    n_dg = alone[0].num_variables
    assert program.cost @ primal == pytest.approx(
        alone[0].cost @ primal[:n_dg] + alone[1].cost @ primal[n_dg:])


def test_dg_operating_cost_value():
    # 2 kW for 4 quarter-hour steps at 0.1 per kWh costs 0.2
    program = lp.LinearProgram()
    h = dv.emit_dg(program, PV, H8)
    primal = np.zeros(program.num_variables)
    for i in h.p[:4]:
        primal[i] = 2.0
    assert program.cost @ primal == pytest.approx(0.2)


def test_missing_capacity_factor_rejected():
    program = lp.LinearProgram()
    dv.emit_dg(program, dv.DistributedGenerator("pv9", 1, 5.0, 6.0, 0.1), H8)
    with pytest.raises(dv.DeviceError):
        instantiate(program, plain_scenario())


def test_park_totals_match_portfolio_scale():
    from vppsched.instance import full_instance
    park = full_instance().model.park
    assert sum(d.nominal_kw for d in park.dgs) == pytest.approx(150.0)
    assert sum(d.max_elec_kw for d in park.hps) == pytest.approx(85.0)
    assert sum(d.energy_kwh for d in park.bess) == pytest.approx(75.0)
    assert len(park.evs) == 40
    assert all(ev.battery_kwh == 70.0 and ev.max_charge_kw == 7.0
               for ev in park.evs)


def test_der_park_csv_roundtrip(tmp_path):
    from vppsched.instance import desk_instance, full_instance
    paths = [tmp_path / n for n in ("dg.csv", "hp.csv", "ev.csv", "bess.csv")]
    for park in (desk_instance().model.park, full_instance().model.park):
        dv.save_der_park(park, *paths)
        assert dv.load_der_park(*paths) == park
        # CRLF tables, as shipped before, read to the same park
        for path in paths:
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert dv.load_der_park(*paths) == park
        # the vehicle owners' compensation column is optional
        lines = paths[2].read_text().splitlines()
        assert lines[0].endswith(",discharge_compensation_per_kwh")
        paths[2].write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                    for line in lines))
        assert dv.load_der_park(ev_path=paths[2]).evs == [
            dataclasses.replace(ev, discharge_compensation=0.0)
            for ev in park.evs]


def test_der_park_table_without_a_column_is_refused(tmp_path):
    from vppsched.instance import desk_instance
    from vppsched.tables import TableError
    paths = [tmp_path / n for n in ("dg.csv", "hp.csv", "ev.csv", "bess.csv")]
    dv.save_der_park(desk_instance().model.park, *paths)
    paths[0].write_text("name,node,inverter_kva,marginal_cost_per_kwh\n"
                        "pv1,2,12.0,0.02\n")
    with pytest.raises(TableError, match="dg.csv, line 1, column nominal_kw"):
        dv.load_der_park(*paths)
    paths[0].write_text("name,node,nominal_kw,inverter_kva,marginal_cost_per_kwh\n"
                        "pv1,2.5,10.0,12.0,0.02\n")
    with pytest.raises(TableError, match="dg.csv, line 2, column node"):
        dv.load_der_park(*paths)
