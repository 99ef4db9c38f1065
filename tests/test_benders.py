import math
import sys
import threading

import numpy as np
import pytest

from vppsched import benders as bd
from vppsched import lp
from vppsched import reports as rp
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
    subs = bd.subproblems(desk.model, desk_scenarios.scenarios)
    for s in (0, 3, 7):
        cost, _ = bd.solve_subproblem(subs[s], x_star)
        assert cost == pytest.approx(sol.breakdowns[s].total, rel=1e-6, abs=1e-6)


def test_subgradient_inequality_by_finite_differences(desk, desk_scenarios):
    sub, = bd.subproblems(desk.model, desk_scenarios.scenarios[:1])
    n = desk.model.horizon.step_count + 2 * desk.model.horizon.window_count
    x_hat = np.zeros(n)
    x_hat[:desk.model.horizon.step_count] = 2.0
    f0, grad = bd.solve_subproblem(sub, x_hat)
    rng = np.random.default_rng(2)
    for j in rng.choice(n, size=4, replace=False):
        for delta in (0.5, -0.5):
            x_pert = x_hat.copy()
            x_pert[j] += delta
            if j >= desk.model.horizon.step_count and x_pert[j] < 0:
                continue   # capacity bids live in the nonnegative orthant
            f1, _ = bd.solve_subproblem(sub, x_pert)
            assert f1 >= f0 + grad[j] * delta - 1e-6 * (1 + abs(f0))


def test_cut_intercept_reproduces_value_at_origin_point(desk, desk_scenarios):
    sub = bd.subproblems(desk.model, desk_scenarios.scenarios)[1]
    n = desk.model.horizon.step_count + 2 * desk.model.horizon.window_count
    x_hat = np.full(n, 1.5)
    f, g = bd.solve_subproblem(sub, x_hat)
    intercept = f - float(g @ x_hat)
    assert intercept + float(g @ x_hat) == pytest.approx(f, abs=1e-9)


def test_master_cut_dedupe(desk, desk_scenarios):
    master = bd.MasterProblem(desk.model, len(desk_scenarios),
                              desk_scenarios.probabilities(), EXPECT)
    rows_before = master.form().matrix.shape[0]
    cut = bd.OptimalityCut(0, 5.0, np.ones(len(master.x_indices)))
    assert master.add_cuts([cut]) == 1
    assert master.add_cuts([bd.OptimalityCut(0, 5.0,
                                             np.ones(len(master.x_indices)))]) == 0
    assert master.form().matrix.shape[0] == rows_before + 1
    assert master.add_cuts([]) == 0
    # same coefficients for another scenario are a different cut
    assert master.add_cuts([bd.OptimalityCut(1, 5.0,
                                             np.ones(len(master.x_indices)))]) == 1


def _risk_layer(program, n, m, costs, probs, risk):
    """The part of ``program`` that states the risk measure, given that its
    first ``n`` columns and ``m`` rows come before it and that scenario s
    costs C_s = costs[s][1] . x[costs[s][0]]: the objective on the first
    columns must be sum_s pi_s C_s under expectation and nothing under the
    CVaR, and each later row must hold -C_s; returned are the later
    columns' costs and bounds and the later rows, with C_s taken out and
    columns counted from ``n``."""
    weighted = np.zeros(n)
    if risk.kind == st.EXPECTATION:
        for pi, (columns, coef) in zip(probs, costs):
            weighted[columns] += pi * coef
    assert np.array_equal(program.cost[:n], weighted)
    A = program.matrix
    rows = []
    for s in range(program.num_constraints - m):
        row = A[m + s]
        assert {int(j): v for j, v in zip(row.indices, row.data) if j < n} \
            == {int(j): -v for j, v in zip(*costs[s]) if v != 0.0}
        rows.append({int(j) - n: v for j, v in zip(row.indices, row.data)
                     if j >= n})
    return (program.cost[n:].tolist(), program.lower[n:].tolist(),
            program.upper[n:].tolist(), rows, program.sense[m:].tolist(),
            program.rhs[m:].tolist())


@pytest.mark.parametrize("risk", [EXPECT, CVAR9], ids=["neutral", "cvar"])
def test_master_and_extensive_share_the_risk_rows(desk, desk_scenarios, risk):
    # the master's head states over theta_s what the extensive form states
    # over the scenario net costs C_s: the same objective and tail rows
    probs = desk_scenarios.probabilities()
    S = len(probs)
    ef = st.build_extensive(desk.model, desk_scenarios, risk)
    master = bd.MasterProblem(desk.model, S, probs, risk)
    tpl = desk.model.template
    first_stage = lp.LinearProgram()
    desk.model.emit_first_stage(first_stage)
    ext = _risk_layer(ef.program, tpl.n_first + S * tpl.n_block,
                      S * tpl.program.num_constraints,
                      [(b.columns, b.net_cost()) for b in ef.blocks], probs,
                      risk)
    head = _risk_layer(master.head, len(master.x_indices) + S,
                       first_stage.num_constraints,
                       [(master.theta[s:s + 1], np.ones(1)) for s in range(S)],
                       probs, risk)
    assert ext == head
    assert len(ext[3]) == (0 if risk.kind == st.EXPECTATION else S)


def test_cut_dedupe_matches_pairwise_scan(desk):
    # the stacked per-scenario test accepts exactly what the pairwise
    # OptimalityCut.matches scan over all earlier cuts accepts
    master = bd.MasterProblem(desk.model, 3, np.full(3, 1.0 / 3.0), EXPECT)
    n = len(master.x_indices)
    tol = bd._CUT_DEDUPE_TOL
    rng = np.random.default_rng(11)
    cuts = []
    for _ in range(80):
        if cuts and rng.random() < 0.6:
            # a copy of an earlier cut, moved by a multiple of the tolerance,
            # sometimes filed under another scenario
            base = cuts[int(rng.integers(len(cuts)))]
            step = float(rng.choice([0.0, 0.5, 0.99, 1.01, 3.0]))
            scale = 1.0 + float(np.max(np.abs(base.gradient), initial=0.0))
            moved = rng.choice([-1.0, 1.0], n) * (rng.random(n) < 0.3)
            s = base.scenario if rng.random() < 0.8 else int(rng.integers(3))
            cuts.append(bd.OptimalityCut(
                s, base.intercept + step * tol * (1.0 + abs(base.intercept))
                * float(rng.choice([-1.0, 1.0])),
                base.gradient + step * tol * scale * moved))
        else:
            g = rng.normal(size=n) * float(rng.choice([1.0, 1e3]))
            g[rng.random(n) < 0.5] = 0.0
            cuts.append(bd.OptimalityCut(int(rng.integers(3)),
                                         float(rng.normal() * 100.0), g))
    accepted = []
    for cut in cuts:
        if not any(cut.matches(old) for old in accepted):
            accepted.append(cut)
    assert 0 < len(accepted) < len(cuts)
    rows = master.form().matrix.shape[0]
    assert master.add_cuts(cuts) == len(accepted) == master.num_cuts
    assert master.form().matrix.shape[0] == rows + len(accepted)
    for s in range(3):
        mine = [c for c in accepted if c.scenario == s]
        stored = master.scenarios == s
        assert np.array_equal(master.intercepts[stored],
                              [c.intercept for c in mine])
        assert np.array_equal(master.gradients[stored],
                              np.array([c.gradient for c in mine]).reshape(-1, n))


def test_warm_subproblems_match_cold_solves(desk, desk_scenarios, monkeypatch):
    # along the first master iterates, each subproblem re-solved from its
    # last basis has the value of a cold solve of the instantiated block
    warm = bd.solve_subproblem
    template = desk.model.template
    iterations = []

    def compared(sub, x_hat):
        cost, grad = warm(sub, x_hat)
        block = desk.model.scenario_data(sub.scenario)
        cold = lp.solve(template.instantiate(block, x_hat))
        assert cost == pytest.approx(cold.objective, rel=1e-9)
        iterations.append(sub.iterations)
        return cost, grad

    monkeypatch.setattr(bd, "solve_subproblem", compared)
    bd.iterate(desk.model, desk_scenarios, EXPECT,
               bd.BendersOptions(tolerance=1e-12, max_iterations=6))
    assert len(iterations) == 6 * len(desk_scenarios)


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
    lbs = [row.lower_bound for row in res.report.trace]
    ubs = [row.upper_bound for row in res.report.trace]
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
    first = res.report.trace[0]
    assert first.lower_bound <= first.upper_bound + 1e-9


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


def test_worker_count_bit_identical_under_thread_stress(desk, desk_scenarios,
                                                        desk_benders):
    # every scenario keeps its own basis, so its sequence of solves, and the
    # whole run, cannot depend on which worker takes it or when
    serial = desk_benders
    out = {}
    run = threading.Thread(target=lambda: out.setdefault("res", bd.iterate(
        desk.model, desk_scenarios, EXPECT, bd.BendersOptions(workers=8))),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run.start()
        run.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not run.is_alive() and "res" in out
    parallel = out["res"]
    assert parallel.report.iterations == serial.report.iterations
    assert np.array_equal(parallel.x, serial.x)
    assert parallel.objective == serial.objective


def test_trace_reports_solver_effort(desk, desk_scenarios, tmp_path,
                                     monkeypatch):
    masters = []
    init = bd.MasterProblem.__init__

    def recorded(self, *args):
        init(self, *args)
        masters.append(self)

    monkeypatch.setattr(bd.MasterProblem, "__init__", recorded)
    out = rp.solve_with_method(desk.model, desk_scenarios, EXPECT, "benders")
    rp.write_solution(str(tmp_path), desk.model, desk_scenarios, out,
                      "benders", EXPECT, "config", "manifest", 0.0)
    with open(tmp_path / "trace.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert header == ["iteration", "lower_bound", "upper_bound", "gap",
                      "wall_time_s", "simplex_iters", "cuts_added"]
    assert len(rows) == out.iterations
    simplex_iters = [int(r[5]) for r in rows]
    cuts_added = [int(r[6]) for r in rows]
    assert simplex_iters[0] > 0 and min(simplex_iters) >= 0
    assert sum(cuts_added) == masters[0].num_cuts > 0
    assert cuts_added[-1] == 0       # the converged iteration adds no cut


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
