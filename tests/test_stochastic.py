import numpy as np
import pytest

from vppsched import devices as dv
from vppsched import scenarios as sg
from vppsched import stochastic as st
from vppsched.market import MarketConfig
from vppsched.model import VppModel

from oracles import cvar_by_threshold_scan


# ------------------------------------------------------------ tail measure

def test_cvar_of_constant_costs():
    for alpha in (0.1, 0.5, 0.9):
        assert st.cvar_of_samples([3.0, 3.0, 3.0], [1 / 3] * 3, alpha) \
            == pytest.approx(3.0)


def test_cvar_two_point_distribution():
    assert st.cvar_of_samples([0.0, 10.0], [0.5, 0.5], 0.5) == pytest.approx(10.0)


def test_cvar_upper_decile_of_uniform_grid():
    costs = np.arange(1.0, 11.0)
    probs = np.full(10, 0.1)
    assert st.cvar_of_samples(costs, probs, 0.9) == pytest.approx(10.0)


def test_cvar_atom_splitting():
    # alpha = 0.8 over 10 equal atoms: tail mass 0.2 covers atoms 10 and 9
    costs = np.arange(1.0, 11.0)
    probs = np.full(10, 0.1)
    assert st.cvar_of_samples(costs, probs, 0.8) == pytest.approx(9.5)
    # non-uniform weights splitting one atom
    val = st.cvar_of_samples([1.0, 5.0], [0.7, 0.3], 0.5)
    assert val == pytest.approx((0.3 * 5.0 + 0.2 * 1.0) / 0.5)


def test_cvar_matches_threshold_scan_oracle():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        costs = rng.normal(0.0, 50.0, size=n)
        probs = rng.dirichlet(np.ones(n))
        alpha = float(rng.uniform(0.05, 0.95))
        ours = st.cvar_of_samples(costs, probs, alpha)
        oracle = cvar_by_threshold_scan(costs, probs, alpha)
        assert ours == pytest.approx(oracle, abs=1e-12, rel=1e-12)


def test_cvar_monotone_in_alpha_and_above_mean():
    rng = np.random.default_rng(55)
    costs = rng.normal(10.0, 5.0, size=40)
    probs = np.full(40, 1 / 40)
    mean = float(probs @ costs)
    prev = -np.inf
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        val = st.cvar_of_samples(costs, probs, alpha)
        assert val >= mean - 1e-12
        assert val >= prev - 1e-12
        prev = val


def test_cvar_input_validation():
    with pytest.raises(st.StochasticError):
        st.cvar_of_samples([], [], 0.5)
    with pytest.raises(st.StochasticError):
        st.cvar_of_samples([1.0], [0.5], 0.5)
    with pytest.raises(st.StochasticError):
        st.cvar_of_samples([1.0], [1.0], 1.0)


def test_risk_measure_validation():
    with pytest.raises(st.StochasticError):
        st.RiskMeasure("variance")
    with pytest.raises(st.StochasticError):
        st.RiskMeasure(st.CVAR, 1.5)


# -------------------------------------------------------- extensive builds

def single_scenario_set(desk):
    return sg.build_scenarios(desk.forecast, sg.zero_error_specs(), 1, seed=1)


def test_single_scenario_expectation_equals_cvar(desk):
    sset = single_scenario_set(desk)
    obj = {}
    for risk in (st.RiskMeasure(st.EXPECTATION), st.RiskMeasure(st.CVAR, 0.9),
                 st.RiskMeasure(st.CVAR, 0.5)):
        ef = st.build_extensive(desk.model, sset, risk)
        obj[risk] = st.solve_extensive(desk.model, ef, sset).objective
    values = list(obj.values())
    for v in values[1:]:
        assert v == pytest.approx(values[0], rel=1e-7, abs=1e-7)


def test_three_scenario_cvar_tracks_worst_case(desk):
    sset = sg.build_scenarios(desk.forecast, sg.DEFAULT_ERROR_SPECS, 3, seed=5)
    risk = st.RiskMeasure(st.CVAR, 2.0 / 3.0)
    ef = st.build_extensive(desk.model, sset, risk)
    sol = st.solve_extensive(desk.model, ef, sset)
    # tail mass 1/3 is exactly one equiprobable atom: the worst scenario
    assert sol.objective == pytest.approx(float(np.max(sol.scenario_costs)),
                                          rel=1e-6, abs=1e-6)


def test_empty_scenario_set_rejected(desk):
    with pytest.raises(st.StochasticError):
        st.build_extensive(desk.model, sg.ScenarioSet([], 0),
                           st.RiskMeasure(st.EXPECTATION))


def test_objective_reconstruction_expectation(desk_scenarios, desk_neutral):
    ef, sol = desk_neutral
    probs = desk_scenarios.probabilities()
    recomputed = float(probs @ sol.scenario_costs)
    assert sol.objective == pytest.approx(recomputed, rel=1e-6)


def test_objective_reconstruction_cvar(desk_scenarios, desk_cvar):
    ef, sol = desk_cvar
    recomputed = st.cvar_of_samples(sol.scenario_costs,
                                    desk_scenarios.probabilities(), 0.9)
    assert sol.objective == pytest.approx(recomputed, rel=1e-6)


def test_breakdown_components_reconcile(desk_neutral):
    ef, sol = desk_neutral
    for bd in sol.breakdowns:
        expected = -(bd.r_dam + bd.r_rcm + bd.r_ram) \
            + bd.c_ops + bd.c_tariff + bd.c_imb
        assert bd.total == pytest.approx(expected, abs=1e-9)


def test_first_stage_columns_shared_across_blocks(desk_neutral):
    ef, _ = desk_neutral
    bids = ef.first_stage.flat()
    for block in ef.blocks:
        assert list(block.columns[bids]) == bids
        dam_revenue = np.flatnonzero(block.streams["r_dam"])
        assert set(block.columns[dam_revenue]) == set(ef.first_stage.dam)


def test_risk_ordering_between_strategies(desk, desk_scenarios, desk_neutral,
                                          desk_cvar):
    _, neutral = desk_neutral
    _, averse = desk_cvar
    probs = desk_scenarios.probabilities()
    cvar = lambda s: st.cvar_of_samples(s.scenario_costs, probs, 0.9)
    mean = lambda s: float(probs @ s.scenario_costs)
    assert cvar(averse) <= cvar(neutral) + 1e-6
    assert mean(averse) >= mean(neutral) - 1e-6


def test_tighter_prequalification_weakly_worsens(desk, desk_scenarios,
                                                 desk_neutral):
    _, baseline = desk_neutral
    squeezed = VppModel(
        desk.model.horizon, desk.model.network, desk.model.park,
        MarketConfig(0.0, desk.model.market.tariff_per_mwh),
        desk.model.flow_segments)
    ef = st.build_extensive(squeezed, desk_scenarios,
                            st.RiskMeasure(st.EXPECTATION))
    sol = st.solve_extensive(squeezed, ef, desk_scenarios)
    assert sol.objective >= baseline.objective - 1e-9


def test_withdrawal_matches_positive_part_of_consumption(desk, desk_neutral):
    # with a strictly positive tariff the epigraph is tight at the optimum
    from vppsched.model import extract_block_series
    ef, sol = desk_neutral
    park = desk.model.park
    for block in ef.blocks:
        series = extract_block_series(block, sol.solution.primal)
        scen = block.scenario
        for bus in desk.model.network.bus_ids():
            cons = np.array(scen.load_active.get(bus, np.zeros(8)), dtype=float).copy()
            for h in block.template.handles.devices:
                if h.node != bus:
                    continue
                entry = series["devices"][h.name]
                if "charge_kw" in entry:
                    cons += entry["charge_kw"] - entry["discharge_kw"]
                elif h.name.startswith("hp"):
                    cons += entry["p_kw"]
                else:
                    cons -= entry["p_kw"]
            expected = np.maximum(cons, 0.0)
            assert np.allclose(series["wit_kw"][bus], expected, atol=1e-7)


def test_infeasible_model_names_block_and_device(desk):
    park = dv.DerPark(hps=[dv.HeatPump("hp_tiny", 3, 0.02, 3.0, 5.0, 4.0,
                                       19.0, 23.0, 19.0)])
    base = desk.forecast
    cold = sg.BaseForecast(
        day_ahead_price=base.day_ahead_price,
        rcm_up_price=base.rcm_up_price, rcm_dn_price=base.rcm_dn_price,
        ram_up_price=base.ram_up_price, ram_dn_price=base.ram_dn_price,
        mfrr_up_price=base.mfrr_up_price, mfrr_dn_price=base.mfrr_dn_price,
        ambient_temp=np.full(8, -40.0), ev_availability=base.ev_availability,
        capacity_factor={}, load_active=base.load_active,
        load_reactive=base.load_reactive)
    sset = sg.build_scenarios(cold, sg.zero_error_specs(), 2, seed=1)
    model = VppModel(desk.model.horizon, desk.model.network, park,
                     desk.model.market)
    ef = st.build_extensive(model, sset, st.RiskMeasure(st.EXPECTATION))
    with pytest.raises(st.ModelInfeasible) as exc:
        st.solve_extensive(model, ef, sset)
    assert exc.value.scenario_index == 0
    assert "hp_tiny" in exc.value.suspects
