import math
from types import SimpleNamespace

import numpy as np
import pytest

from vppsched import lp
from vppsched import market as mk
from vppsched.model import BlockTemplate


# ----------------------------------------------------------------- horizon

def test_horizon_window_mapping():
    hz = mk.MarketHorizon(8, 0.25, 1.0)
    assert hz.steps_per_window == 4
    assert hz.window_count == 2
    assert [hz.window_of(t) for t in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_horizon_rejects_non_divisible_windows():
    with pytest.raises(mk.MarketError):
        mk.MarketHorizon(8, 0.25, 0.7)
    with pytest.raises(mk.MarketError):
        mk.MarketHorizon(10, 0.25, 1.0)   # 2.5 windows


def test_hourly_tariff_expansion():
    hz = mk.MarketHorizon(96, 0.25, 4.0)
    hourly = np.arange(24.0)
    tariff = mk.expand_hourly_tariff(hourly, hz)
    assert len(tariff) == 96
    assert list(tariff[:4]) == [0.0] * 4
    assert list(tariff[4:8]) == [1.0] * 4
    with pytest.raises(mk.MarketError):
        mk.expand_hourly_tariff(np.ones(23), hz)


# ---------------------------------------------------------------- revenues

def test_dam_revenue_zero_bids():
    assert mk.dam_revenue_value([50.0, 80.0], [0.0, 0.0], 0.25) == 0.0


def test_dam_revenue_signed_terms_cancel():
    val = mk.dam_revenue_value([50.0, 100.0], [2.0, -1.0], 0.25)
    assert val == pytest.approx(0.025 - 0.025)


def test_dam_revenue_unit_conversion():
    assert mk.dam_revenue_value([206.5], [1000.0], 1.0) == pytest.approx(206.5)


def test_rcm_revenue_per_window_no_duration_factor():
    assert mk.rcm_revenue_value([3.30], [0.0], [1000.0], [0.0]) == pytest.approx(3.30)


def test_rcm_revenue_sums_windows_and_directions():
    val = mk.rcm_revenue_value([2.0, 3.0], [1.0, 4.0],
                               [1000.0, 500.0], [2000.0, 250.0])
    assert val == pytest.approx(2.0 + 1.5 + 2.0 + 1.0)


def test_ram_revenue_both_directions_positive():
    val = mk.ram_revenue_value([32.08], [0.0], [1000.0], [0.0], 0.25)
    assert val == pytest.approx(8.02)
    both = mk.ram_revenue_value([30.0], [20.0], [1000.0], [1000.0], 0.25)
    assert both == pytest.approx(7.5 + 5.0)


def market_data(program, horizon, **series):
    """Stream costs the program's data slots take under the given series."""
    return BlockTemplate(program, horizon).data([SimpleNamespace(**series)],
                                                series.get("tariff_per_mwh"))[0]


def test_terms_match_value_twins():
    rng = np.random.default_rng(12)
    hz = mk.MarketHorizon(4, 0.25, 0.5)
    price = lambda: rng.uniform(-50, 150, size=4)
    series = dict(day_ahead_price=price(), ram_up_price=price(),
                  ram_dn_price=price(), imbalance_short_price=price(),
                  imbalance_long_price=price(), tariff_per_mwh=price(),
                  rcm_up_price=rng.uniform(0, 10, size=2),
                  rcm_dn_price=rng.uniform(0, 10, size=2))
    program = lp.LinearProgram()
    cols = lambda n: [program.add_variable(-100, 100) for _ in range(n)]
    fs = mk.FirstStageVars(cols(4), cols(2), cols(2))
    ss = mk.SecondStageVars(cols(4), cols(4), cols(4), cols(4), cols(4))
    wit = {1: cols(4), 2: cols(4)}
    mk.bind_costs(program, hz, fs, ss, wit)
    data = market_data(program, hz, **series)
    x = rng.uniform(-20, 20, size=program.num_variables)
    s = series
    value = {
        "r_dam": mk.dam_revenue_value(s["day_ahead_price"], x[fs.dam], 0.25),
        "r_rcm": mk.rcm_revenue_value(s["rcm_up_price"], s["rcm_dn_price"],
                                      x[fs.rcm_up], x[fs.rcm_dn]),
        "r_ram": mk.ram_revenue_value(s["ram_up_price"], s["ram_dn_price"],
                                      x[ss.ram_up], x[ss.ram_dn], 0.25),
        "c_imb": mk.imbalance_cost_value(s["imbalance_short_price"],
                                         s["imbalance_long_price"],
                                         x[ss.imb_short], x[ss.imb_long], 0.25),
        "c_tariff": mk.tariff_cost_value(s["tariff_per_mwh"],
                                         {b: x[c] for b, c in wit.items()}, 0.25),
    }
    for stream, expected in value.items():
        assert data.streams[stream] @ x == pytest.approx(expected)


def test_length_mismatch_raises():
    with pytest.raises(mk.MarketError):
        mk.dam_revenue_value([1.0, 2.0], [0.0], 0.25)
    hz = mk.MarketHorizon(4, 0.25, 0.5)
    for field, n in (("day_ahead_price", 2), ("ram_up_price", 5),
                     ("rcm_dn_price", 4)):
        with pytest.raises(mk.MarketError):
            mk.check_series_length(field, np.ones(n), hz)
    mk.check_series_length("rcm_dn_price", np.ones(2), hz)


# ------------------------------------------------------------------- costs

def test_tariff_cost_fixture():
    val = mk.tariff_cost_value([206.5], {1: [1000.0]}, 1.0)
    assert val == pytest.approx(206.5)


def test_tariff_export_only_node_contributes_nothing():
    assert mk.tariff_cost_value([206.5], {1: [0.0]}, 1.0) == 0.0


def test_imbalance_cost_short():
    val = mk.imbalance_cost_value([150.0], [0.0], [1000.0], [0.0], 0.25)
    assert val == pytest.approx(37.5)


def test_imbalance_long_is_revenue():
    val = mk.imbalance_cost_value([150.0], [40.0], [0.0], [1000.0], 0.25)
    assert val == pytest.approx(-10.0)


def test_cost_breakdown_reconciles():
    bd = mk.CostBreakdown(10.0, 2.0, 3.0, 4.0, 1.0, 2.0)
    assert bd.total == pytest.approx(-15.0 + 7.0)
    # the total is computed, never stored, so it cannot be passed in
    with pytest.raises(TypeError):
        mk.CostBreakdown(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0)


def test_cost_breakdown_random_recomputation():
    rng = np.random.default_rng(8)
    for _ in range(50):
        r = rng.uniform(-10, 10, size=6)
        bd = mk.CostBreakdown(*r)
        assert bd.total == pytest.approx(-(r[0] + r[1] + r[2]) + r[3] + r[4] + r[5])


# ------------------------------------------------- coupling constraint rows

def small_market(pbar=10.0, steps=4):
    hz = mk.MarketHorizon(steps, 0.25, 0.5)
    cfg = mk.MarketConfig(pbar, np.full(steps, 100.0))
    return hz, cfg


def test_reserve_coupling_forces_activation_above_bid():
    hz, cfg = small_market()
    program = lp.LinearProgram()
    fs = mk.emit_first_stage(program, hz, cfg, dam_cap_kw=50.0)
    ss = mk.emit_second_stage(program, hz, cfg)
    mk.emit_reserve_coupling(program, hz, fs, ss)
    program.add_constraint([(fs.rcm_up[0], 1.0)], lp.EQ, 5.0, "pin_bid")
    for i in ss.ram_up:
        program.add_objective_term(i, 1.0)
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    # window 0 covers the first two steps
    assert sol.primal[ss.ram_up[0]] == pytest.approx(5.0, abs=1e-9)
    assert sol.primal[ss.ram_up[1]] == pytest.approx(5.0, abs=1e-9)
    assert sol.primal[ss.ram_up[2]] == pytest.approx(0.0, abs=1e-9)


def test_zero_prequalified_power_kills_reserve_chain():
    hz, cfg = small_market(pbar=0.0)
    program = lp.LinearProgram()
    fs = mk.emit_first_stage(program, hz, cfg, dam_cap_kw=50.0)
    ss = mk.emit_second_stage(program, hz, cfg)
    mk.emit_reserve_coupling(program, hz, fs, ss)
    # maximize capacity revenue; everything is still pinned at zero
    for i in fs.rcm_up + fs.rcm_dn + ss.ram_up + ss.ram_dn:
        program.add_objective_term(i, -1.0)
    sol = lp.solve(program)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_bid_above_prequalified_power_infeasible():
    hz, cfg = small_market(pbar=10.0)
    program = lp.LinearProgram()
    # subproblem-style free bids pinned beyond the prequalified level
    dam = [program.add_variable(-math.inf, math.inf, f"dam[{t}]")
           for t in range(hz.step_count)]
    rcm_up = [program.add_variable(-math.inf, math.inf, f"up[{w}]")
              for w in range(hz.window_count)]
    rcm_dn = [program.add_variable(-math.inf, math.inf, f"dn[{w}]")
              for w in range(hz.window_count)]
    fs = mk.FirstStageVars(dam, rcm_up, rcm_dn)
    ss = mk.emit_second_stage(program, hz, cfg)
    mk.emit_reserve_coupling(program, hz, fs, ss)
    program.add_constraint([(fs.rcm_up[0], 1.0)], lp.EQ, 15.0, "too_big")
    assert lp.solve(program).status == lp.INFEASIBLE


def test_position_balance_chooses_cheapest_slack():
    hz, cfg = small_market(steps=2)
    program = lp.LinearProgram()
    fs = mk.emit_first_stage(program, hz, cfg, dam_cap_kw=50.0)
    ss = mk.emit_second_stage(program, hz, cfg)
    pcc = [program.add_variable(-math.inf, math.inf, f"pcc[{t}]")
           for t in range(2)]
    mk.emit_position_balance(program, hz, fs, ss, pcc)
    program.add_constraint([(fs.dam[0], 1.0)], lp.EQ, 10.0, "pin_dam")
    program.add_constraint([(pcc[0], 1.0)], lp.EQ, -8.0, "pin_delivery")
    program.add_constraint([(fs.dam[1], 1.0)], lp.EQ, 0.0, "pin_dam1")
    program.add_constraint([(pcc[1], 1.0)], lp.EQ, 0.0, "pin_delivery1")
    for t in range(2):
        program.add_constraint([(ss.ram_up[t], 1.0)], lp.EQ, 0.0, f"no_up{t}")
        program.add_constraint([(ss.ram_dn[t], 1.0)], lp.EQ, 0.0, f"no_dn{t}")
    # short positions pay 150 per MWh, long ones receive 40
    for t in range(2):
        program.add_objective_term(ss.imb_short[t], 150.0 * hz.step_hours / 1000)
        program.add_objective_term(ss.imb_long[t], -40.0 * hz.step_hours / 1000)
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    # delivering 8 against a 10 kW sale leaves a 2 kW short position
    assert sol.primal[ss.imb_short[0]] == pytest.approx(2.0, abs=1e-9)
    assert sol.primal[ss.imb_long[0]] == pytest.approx(0.0, abs=1e-9)
    # balanced step carries no imbalance at all
    assert sol.primal[ss.imb_short[1]] == pytest.approx(0.0, abs=1e-9)
    assert sol.primal[ss.imb_long[1]] == pytest.approx(0.0, abs=1e-9)


def test_no_simultaneous_short_and_long_under_price_spread(desk_neutral):
    ef, sol = desk_neutral
    for block in ef.blocks:
        scen = block.scenario
        for t in range(len(scen.day_ahead_price)):
            if scen.imbalance_short_price[t] > scen.imbalance_long_price[t] + 1e-9:
                short = sol.solution.primal[block.second_stage.imb_short[t]]
                long = sol.solution.primal[block.second_stage.imb_long[t]]
                assert min(short, long) <= 1e-7


def test_first_stage_decision_validation():
    with pytest.raises(mk.MarketError):
        mk.FirstStageDecision(np.zeros(2), np.array([-1.0]), np.zeros(1))
