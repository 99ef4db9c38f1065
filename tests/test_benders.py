import math

import numpy as np
import pytest

from vppsched import benders as bd
from vppsched import scenarios as sg
from vppsched import stochastic as st

EXPECT = st.RiskMeasure(st.EXPECTATION)
CVAR9 = st.RiskMeasure(st.CVAR, 0.9)


def test_subproblem_value_matches_extensive_blocks(desk, desk_scenarios,
                                                   desk_neutral):
    # at the extensive optimum the scenario blocks decouple, so re-solving a
    # scenario with the bids frozen must reproduce its breakdown total
    _, sol = desk_neutral
    x_star = np.concatenate([sol.first_stage.p_dam_kw,
                             sol.first_stage.p_rcm_up_kw,
                             sol.first_stage.p_rcm_dn_kw])
    for s in (0, 3, 7):
        cost, _ = bd.solve_subproblem(desk.model, desk_scenarios.scenarios[s],
                                      s, x_star)
        assert cost == pytest.approx(sol.breakdowns[s].total, rel=1e-6, abs=1e-6)


def test_subgradient_inequality_by_finite_differences(desk, desk_scenarios):
    scen = desk_scenarios.scenarios[0]
    n = desk.model.horizon.step_count + 2 * desk.model.horizon.window_count
    x_hat = np.zeros(n)
    x_hat[:desk.model.horizon.step_count] = 2.0
    f0, grad = bd.solve_subproblem(desk.model, scen, 0, x_hat)
    rng = np.random.default_rng(2)
    for j in rng.choice(n, size=4, replace=False):
        for delta in (0.5, -0.5):
            x_pert = x_hat.copy()
            x_pert[j] += delta
            if j >= desk.model.horizon.step_count and x_pert[j] < 0:
                continue   # capacity bids live in the nonnegative orthant
            f1, _ = bd.solve_subproblem(desk.model, scen, 0, x_pert)
            assert f1 >= f0 + grad[j] * delta - 1e-6 * (1 + abs(f0))


def test_cut_intercept_reproduces_value_at_origin_point(desk, desk_scenarios):
    scen = desk_scenarios.scenarios[1]
    n = desk.model.horizon.step_count + 2 * desk.model.horizon.window_count
    x_hat = np.full(n, 1.5)
    f, g = bd.solve_subproblem(desk.model, scen, 1, x_hat)
    intercept = f - float(g @ x_hat)
    assert intercept + float(g @ x_hat) == pytest.approx(f, abs=1e-9)


def test_master_cut_dedupe(desk, desk_scenarios):
    master = bd.MasterProblem(desk.model, len(desk_scenarios),
                              desk_scenarios.probabilities(), EXPECT)
    rows_before = master.program.num_constraints
    cut = bd.OptimalityCut(0, 5.0, np.ones(len(master.x_indices)))
    assert master.add_cuts([cut]) == 1
    assert master.add_cuts([bd.OptimalityCut(0, 5.0,
                                             np.ones(len(master.x_indices)))]) == 0
    assert master.program.num_constraints == rows_before + 1
    assert master.add_cuts([]) == 0
    # same coefficients for another scenario are a different cut
    assert master.add_cuts([bd.OptimalityCut(1, 5.0,
                                             np.ones(len(master.x_indices)))]) == 1


def test_single_scenario_convergence(desk):
    sset = sg.build_scenarios(desk.forecast, sg.zero_error_specs(), 1, seed=3)
    ef = st.build_extensive(desk.model, sset, EXPECT)
    ext = st.solve_extensive(desk.model, ef, sset)
    res = bd.iterate(desk.model, sset, EXPECT)
    assert res.report.converged
    assert res.objective == pytest.approx(ext.objective, rel=1e-6, abs=1e-6)


def test_ten_scenario_equivalence_expectation(desk, desk_scenarios,
                                              desk_neutral, desk_benders):
    _, ext = desk_neutral
    res = desk_benders
    assert res.report.converged
    assert res.report.iterations <= 200
    rel = abs(res.objective - ext.objective) / max(1.0, abs(ext.objective))
    assert rel <= 1e-4


def test_ten_scenario_equivalence_cvar(desk, desk_scenarios, desk_cvar):
    _, ext = desk_cvar
    res = bd.iterate(desk.model, desk_scenarios, CVAR9)
    assert res.report.converged
    rel = abs(res.objective - ext.objective) / max(1.0, abs(ext.objective))
    assert rel <= 1e-4


def test_bound_sandwich_and_monotone_bounds(desk, desk_scenarios, desk_neutral,
                                            desk_benders):
    _, ext = desk_neutral
    res = desk_benders
    lbs, ubs = res.report.lower_bounds, res.report.upper_bounds
    for i in range(1, len(lbs)):
        assert lbs[i] >= lbs[i - 1] - 1e-9
        assert ubs[i] <= ubs[i - 1] + 1e-9
    for lb, ub in zip(lbs, ubs):
        assert lb <= ext.objective + 1e-6 * (1 + abs(ext.objective))
        assert ub >= ext.objective - 1e-6 * (1 + abs(ext.objective))


def test_infinite_tolerance_returns_first_iterate(desk, desk_scenarios):
    res = bd.iterate(desk.model, desk_scenarios, EXPECT,
                     bd.BendersOptions(tolerance=math.inf))
    assert res.report.iterations == 1
    assert res.report.converged
    assert res.report.lower_bounds[0] <= res.report.upper_bounds[0] + 1e-9


def test_iteration_limit_flags_failure(desk, desk_scenarios):
    res = bd.iterate(desk.model, desk_scenarios, EXPECT,
                     bd.BendersOptions(tolerance=1e-12, max_iterations=2))
    assert not res.report.converged
    assert res.report.iterations == 2
    assert math.isfinite(res.objective)


def test_worker_count_does_not_change_result(desk, desk_scenarios,
                                             desk_benders):
    serial = desk_benders
    parallel = bd.iterate(desk.model, desk_scenarios, EXPECT,
                          bd.BendersOptions(workers=4))
    assert parallel.report.iterations == serial.report.iterations
    assert np.allclose(parallel.x, serial.x, atol=1e-9)
    assert parallel.objective == pytest.approx(serial.objective, abs=1e-9)


def test_subproblem_infeasibility_aborts_with_diagnostics(desk):
    from vppsched import devices as dv
    from vppsched.model import VppModel
    park = dv.DerPark(evs=[dv.EvChargingEvent(
        "ev_greedy", 4, 1, 3, 5.0, 0.0, 2.0, 0.0, 0.9, 0.9,
        min_avg_charge_kw=40.0)])
    model = VppModel(desk.model.horizon, desk.model.network, park,
                     desk.model.market)
    sset = sg.build_scenarios(desk.forecast, sg.zero_error_specs(), 1, seed=2)
    with pytest.raises(bd.SubproblemInfeasible) as exc:
        bd.iterate(model, sset, EXPECT)
    assert exc.value.scenario_index == 0
    assert "ev_greedy" in exc.value.suspects


def test_invalid_options_rejected(desk, desk_scenarios):
    with pytest.raises(bd.BendersError):
        bd.iterate(desk.model, desk_scenarios, EXPECT,
                   bd.BendersOptions(tolerance=0.0))
    with pytest.raises(bd.BendersError):
        bd.iterate(desk.model, sg.ScenarioSet([], 0), EXPECT)


def test_crossed_bounds_raise(desk, desk_scenarios, monkeypatch):
    # a lower bound above the realized upper bound can only come from an
    # invalid cut; it must not pass as a closed gap
    solve = bd.MasterProblem.solve

    def inflated(self):
        lower, x_hat = solve(self)
        return lower + 1e3, x_hat

    monkeypatch.setattr(bd.MasterProblem, "solve", inflated)
    with pytest.raises(bd.BendersError, match="exceeds upper bound"):
        bd.iterate(desk.model, desk_scenarios, EXPECT)
