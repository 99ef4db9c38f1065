import dataclasses
import math
import sys
import threading
import time
import types

import numpy as np
import pytest

from vppsched import benders as bd
from vppsched import instance
from vppsched import lp
from vppsched import reports as rp
from vppsched import scenarios as sg
from vppsched import stochastic as st

from oracles import cut_matches, master_form, unscreened
from test_stochastic import assert_certified
from test_network import (active_axis_day, breaks_a_flow_bound, narrowed_band,
                          random_feeder_model)

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


@pytest.mark.parametrize("preset", ["desk", "day"])
def test_subgradient_inequality_by_finite_differences(preset, request):
    # the reduced costs of the fixed bid columns are a subgradient: along
    # single bids and along one random direction over all bids
    if preset == "desk":
        model = request.getfixturevalue("desk").model
        scenario = request.getfixturevalue("desk_scenarios").scenarios[0]
    else:
        day = instance.day_instance()
        model = day.model
        scenario = sg.build_scenarios(day.forecast, sg.DEFAULT_ERROR_SPECS, 5,
                                      seed=42).scenarios[0]
    sub, = bd.subproblems(model, [scenario])
    T = model.horizon.step_count
    n = T + 2 * model.horizon.window_count
    x_hat = np.zeros(n)
    x_hat[:T] = 2.0
    f0, grad = bd.solve_subproblem(sub, x_hat)
    assert np.count_nonzero(grad) > 0
    rng = np.random.default_rng(2)
    for j in rng.choice(n, size=4, replace=False):
        for delta in (0.5, -0.5):
            x_pert = x_hat.copy()
            x_pert[j] += delta
            if j >= T and x_pert[j] < 0:
                continue   # capacity bids live in the nonnegative orthant
            f1, _ = bd.solve_subproblem(sub, x_pert)
            assert f1 >= f0 + grad[j] * delta - 1e-6 * (1 + abs(f0))
    direction = rng.normal(size=n)
    direction[T:] = np.abs(direction[T:])
    f1, _ = bd.solve_subproblem(sub, x_hat + 0.5 * direction)
    assert f1 >= f0 + 0.5 * grad @ direction - 1e-6 * (1 + abs(f0))


def test_cut_intercept_reproduces_value_at_origin_point(desk, desk_scenarios):
    sub = bd.subproblems(desk.model, desk_scenarios.scenarios)[1]
    n = desk.model.horizon.step_count + 2 * desk.model.horizon.window_count
    x_hat = np.full(n, 1.5)
    f, g = bd.solve_subproblem(sub, x_hat)
    intercept = f - float(g @ x_hat)
    assert intercept + float(g @ x_hat) == pytest.approx(f, abs=1e-9)


def test_master_cut_dedupe(desk, desk_scenarios):
    # cuts taken at x_hat = 0, so that each intercept is the value there
    master = bd.MasterProblem(desk.model, len(desk_scenarios),
                              desk_scenarios.probabilities(), EXPECT)
    n = len(master.x_indices)
    rows_before = master_form(master).matrix.shape[0]
    assert master.add_cuts([0], [5.0], [np.ones(n)]) == 1
    assert master.add_cuts([0], [5.0], [np.ones(n)]) == 0
    assert master_form(master).matrix.shape[0] == rows_before + 1
    assert master.add_cuts([], [], np.zeros((0, n))) == 0
    # same coefficients for another scenario are a different cut
    assert master.add_cuts([1], [5.0], [np.ones(n)]) == 1


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


def near_duplicate_cuts(n, rng, count=80):
    """``count`` random cuts over ``n`` bids and 3 scenarios, each a
    ``(scenario, intercept, gradient)`` triple; most copy an earlier cut
    moved by a multiple of the dedupe tolerance."""
    tol = bd._CUT_DEDUPE_TOL
    cuts = []
    for _ in range(count):
        if cuts and rng.random() < 0.6:
            # a copy of an earlier cut, moved by a multiple of the tolerance,
            # sometimes filed under another scenario
            base_s, base_b, base_g = cuts[int(rng.integers(len(cuts)))]
            step = float(rng.choice([0.0, 0.5, 0.99, 1.01, 3.0]))
            scale = 1.0 + float(np.max(np.abs(base_g), initial=0.0))
            moved = rng.choice([-1.0, 1.0], n) * (rng.random(n) < 0.3)
            s = base_s if rng.random() < 0.8 else int(rng.integers(3))
            cuts.append((
                s, base_b + step * tol * (1.0 + abs(base_b))
                * float(rng.choice([-1.0, 1.0])),
                base_g + step * tol * scale * moved))
        else:
            g = rng.normal(size=n) * float(rng.choice([1.0, 1e3]))
            g[rng.random(n) < 0.5] = 0.0
            cuts.append((int(rng.integers(3)), float(rng.normal() * 100.0), g))
    return cuts


def test_cut_dedupe_matches_pairwise_scan(desk):
    # the stacked per-scenario test accepts exactly what the pairwise
    # oracle scan over all earlier cuts accepts; cuts are taken at
    # x_hat = 0, so that each intercept is the value there
    master = bd.MasterProblem(desk.model, 3, np.full(3, 1.0 / 3.0), EXPECT)
    n = len(master.x_indices)
    tol = bd._CUT_DEDUPE_TOL
    cuts = near_duplicate_cuts(n, np.random.default_rng(11))
    accepted = []
    for cut in cuts:
        if not any(cut_matches(cut, old, tol) for old in accepted):
            accepted.append(cut)
    assert 0 < len(accepted) < len(cuts)
    rows = master_form(master).matrix.shape[0]
    scenarios, intercepts, gradients = zip(*cuts)
    assert master.add_cuts(scenarios, intercepts, gradients) \
        == len(accepted) == master.num_cuts
    assert master_form(master).matrix.shape[0] == rows + len(accepted)
    for s in range(3):
        mine = [c for c in accepted if c[0] == s]
        stored = master.scenarios == s
        assert np.array_equal(master.intercepts[stored],
                              [c[1] for c in mine])
        assert np.array_equal(master.gradients[stored],
                              np.array([c[2] for c in mine]).reshape(-1, n))


def test_cut_dedupe_across_calls_matches_pairwise_scan(desk):
    # the cuts offered over many calls, near-duplicates inside one call and
    # across calls: each call accepts exactly what the pairwise oracle scan
    # over every cut accepted before it accepts, in the same order
    tol = bd._CUT_DEDUPE_TOL
    for seed in range(4):
        master = bd.MasterProblem(desk.model, 3, np.full(3, 1.0 / 3.0), EXPECT)
        rng = np.random.default_rng(seed)
        cuts = near_duplicate_cuts(len(master.x_indices), rng, 120)
        ends = np.r_[0, np.sort(rng.choice(np.arange(1, 120), 15, replace=False)),
                     120]
        accepted, added = [], []
        for first, last in zip(ends[:-1], ends[1:]):
            call = cuts[first:last]
            before = len(accepted)
            for cut in call:
                if not any(cut_matches(cut, old, tol) for old in accepted):
                    accepted.append(cut)
            added.append(master.add_cuts(*zip(*call)) == len(accepted) - before)
        assert all(added) and 0 < len(accepted) < len(cuts)
        assert master.scenarios.tolist() == [c[0] for c in accepted]
        assert np.array_equal(master.intercepts, [c[1] for c in accepted])
        assert np.array_equal(master.gradients, np.array([c[2] for c in accepted]))


def test_cut_store_equals_one_at_a_time_appends(desk):
    # each call appends its accepted cuts together; the stored arrays are
    # bitwise those that appending each accepted cut on its own gives, on
    # batches repeating cuts of the same call and of earlier calls
    master = bd.MasterProblem(desk.model, 3, np.full(3, 1.0 / 3.0), EXPECT)
    n = len(master.x_indices)
    tol = bd._CUT_DEDUPE_TOL
    rng = np.random.default_rng(5)
    ref = [np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros((0, n))]
    seen = []
    for _ in range(5):
        batch = []
        for _ in range(30):
            pool = seen + batch
            if pool and rng.random() < 0.5:
                s, b, g = pool[int(rng.integers(len(pool)))]
                batch.append((s, b + float(rng.choice([0.0, 0.5, 3.0])) * tol
                              * (1.0 + abs(b)), g.copy()))
            else:
                batch.append((int(rng.integers(3)), float(rng.normal() * 10.0),
                              rng.normal(size=n)))
        seen += batch
        added = master.add_cuts(*zip(*batch))
        before = len(ref[1])
        for s, b, g in batch:
            mine = ref[0] == s
            scale = 1.0 + float(np.max(np.abs(g), initial=0.0))
            if np.any((np.abs(ref[1][mine] - b) <= tol * (1.0 + abs(b)))
                      & np.all(np.abs(ref[2][mine] - g) <= tol * scale, axis=1)):
                continue
            ref = [np.append(ref[0], s), np.append(ref[1], b),
                   np.vstack((ref[2], g))]
        assert 0 < added == len(ref[1]) - before < len(batch)
        for got, want in zip((master.scenarios, master.intercepts,
                              master.gradients), ref):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_held_master_matches_a_rebuilt_one(desk):
    # along a random cut sequence, with repeats, the held master, sent only
    # the cuts accepted since its last solve, has after every add_cuts the
    # optimum of its whole form solved cold
    master = bd.MasterProblem(desk.model, 3, np.full(3, 1.0 / 3.0), EXPECT)
    n = len(master.x_indices)
    rng = np.random.default_rng(7)
    seen = []
    for _ in range(12):
        batch = []
        for _ in range(6):
            if seen and rng.random() < 0.3:
                batch.append(seen[int(rng.integers(len(seen)))])
            else:
                g = rng.normal(size=n)
                g[rng.random(n) < 0.3] = 0.0
                batch.append((int(rng.integers(3)), float(rng.normal() * 10.0),
                              g))
        seen += batch
        master.add_cuts(*zip(*batch))
        lower, x = master.solve()
        cold = lp.HeldModel(master_form(master)).solve()
        assert cold.status == lp.OPTIMAL
        assert abs(lower - cold.objective) <= lp.OPT_TOL * (1.0 + abs(cold.objective))
        assert master.theta_hat == pytest.approx(cold.primal[master.theta],
                                                 rel=1e-7, abs=1e-7)
    assert 0 < master.num_cuts < len(seen)


@pytest.mark.parametrize("risk", [EXPECT, CVAR9], ids=["neutral", "cvar"])
def test_benders_runs_dual_simplex_only(desk, desk_scenarios, record_highs,
                                        risk):
    # subproblems re-bound their fixing rows and the master gains rows: their
    # warm bases are dual feasible, not primal, so every solve stays dual
    log = record_highs()
    res = bd.iterate(desk.model, desk_scenarios, risk)
    assert res.report.converged
    strategy = lp._highs.simplex_constants.SimplexStrategy
    assert len(log.strategies) == [e[0] for e in log].count("run") > 0
    assert set(log.strategies) == {int(strategy.kSimplexStrategyDual)}


def test_held_models_receive_only_new_bids_and_new_cuts(desk, desk_scenarios,
                                                        record_highs,
                                                        monkeypatch):
    # HiGHS gets each Benders LP once; between two solves a subproblem gets
    # only the bids, as the bounds of its n_first first-stage columns in one
    # changeColsBounds, and the master only the cuts accepted since its last
    # solve, in one addRows. Scenario 0's first solve starts cold, and every
    # other scenario's from scenario 0's optimal basis, so its first run
    # follows one setBasis
    solves = []
    solve = bd.MasterProblem.solve

    def recorded(self):
        start = len(log)
        out = solve(self)
        solves.append((self, self.num_cuts, [e[0] for e in log[start:]],
                       log[start:]))
        return out

    monkeypatch.setattr(bd.MasterProblem, "solve", recorded)
    log = record_highs()
    res = bd.iterate(desk.model, desk_scenarios, EXPECT,
                     bd.BendersOptions(max_iterations=8))
    n = desk.model.template.n_first
    master = solves[0][0]
    master_calls, *sub_calls = log.by_model.values()
    assert len(sub_calls) == len(desk_scenarios)
    for s, calls in enumerate(sub_calls):
        names = [e[0] for e in calls]
        runs = names.count("run")
        assert runs >= res.report.iterations
        assert names == ["passModel"] + ["setBasis"] * (s > 0) + [
            "run", "getBasis"] + (
            ["changeColsBounds", "run", "getBasis"]) * (runs - 1)
        bounds = [e[1:] for e in calls if e[0] == "changeColsBounds"]
        assert all(columns.tolist() == list(range(n)) for columns, _, _ in bounds)
        assert all(np.array_equal(lo, hi) for _, lo, hi in bounds)
    # the master: its head passed once, then per solve the new cuts
    assert [e[0] for e in master_calls].count("passModel") == 1
    assert len(solves) == res.report.iterations
    theta, x = master.theta, master.x_indices
    sent = 0
    for _, cuts, names, entries in solves:
        new = slice(sent, cuts)
        if cuts == sent:
            assert names == ["run", "getBasis"]
            continue
        assert names == ["addRows", "run", "getBasis"]
        _, rows, lo, hi = entries[0]
        want = np.zeros((cuts - sent, len(master.head.lower)))
        want[np.arange(cuts - sent), theta[master.scenarios[new]]] = 1.0
        want[:, x] = -master.gradients[new]
        assert np.array_equal(rows.toarray(), want)
        assert np.array_equal(lo, master.intercepts[new])
        assert np.all(hi == np.inf)
        sent = cuts
    assert sent > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_first_subproblem_solves_start_from_scenario_0s_basis(
        desk, desk_scenarios, record_highs, workers):
    # every scenario shares one matrix: scenario 0's first solve runs cold,
    # before any other, and every other scenario's first solve starts from a
    # copy of scenario 0's first optimal basis, one setBasis before its
    # first run, on any worker count
    log = record_highs()
    bd.iterate(desk.model, desk_scenarios, EXPECT,
               bd.BendersOptions(max_iterations=2, workers=workers))
    master, first, *others = log.by_model.values()
    assert len(others) == len(desk_scenarios) - 1
    names = [e[0] for e in first]
    assert names[:3] == ["passModel", "run", "getBasis"]
    assert "setBasis" not in names
    basis = first[2][1]
    for calls in others:
        names = [e[0] for e in calls]
        assert names[:4] == ["passModel", "setBasis", "run", "getBasis"]
        assert names.count("setBasis") == 1
        seed = calls[1][1]
        assert seed is not basis
        assert (list(seed.col_status), list(seed.row_status)) \
            == (list(basis.col_status), list(basis.row_status))


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


def _assert_bound_sandwich(res, ext):
    lbs = [row.lower_bound for row in res.report.trace]
    ubs = [row.upper_bound for row in res.report.trace]
    for i in range(1, len(lbs)):
        assert lbs[i] >= lbs[i - 1] - 1e-9
        assert ubs[i] <= ubs[i - 1] + 1e-9
    for lb, ub in zip(lbs, ubs):
        assert lb <= ext.objective + 1e-6 * (1 + abs(ext.objective))
        assert ub >= ext.objective - 1e-6 * (1 + abs(ext.objective))


def test_bound_sandwich_and_monotone_bounds(desk, desk_scenarios, desk_neutral,
                                            desk_benders):
    _assert_bound_sandwich(desk_benders, desk_neutral[1])


def test_bound_sandwich_and_monotone_bounds_cvar(desk, desk_scenarios,
                                                 desk_cvar):
    # in-out separation moves the point that is separated, not the bounds:
    # the lower bound is still the master optimum under either measure
    _assert_bound_sandwich(bd.iterate(desk.model, desk_scenarios, CVAR9),
                           desk_cvar[1])


@pytest.mark.parametrize("risk", [EXPECT, CVAR9], ids=["neutral", "cvar"])
def test_every_iteration_cuts_off_the_master_point(desk, desk_scenarios,
                                                   monkeypatch, risk):
    # some cut offered after each master solve that does not end the run
    # lifts a theta_s at the master optimum above its master value; the
    # Kelley fallback guarantees it when the in-out point's cuts do not
    solve, add_cuts = bd.MasterProblem.solve, bd.MasterProblem.add_cuts
    optima, lifted = [], {}

    def recorded_solve(self):
        lower, x_master = solve(self)
        optima.append((x_master, self.theta_hat.copy()))
        return lower, x_master

    def recorded_add_cuts(self, scenarios, intercepts, gradients):
        x_master, theta = optima[-1]
        it = len(optima)
        for s, b, g in zip(scenarios, intercepts, gradients):
            if b + float(g @ x_master) \
                    > theta[s] + 1e-9 * (1.0 + abs(theta[s])):
                lifted[it] = True
        lifted.setdefault(it, False)
        return add_cuts(self, scenarios, intercepts, gradients)

    monkeypatch.setattr(bd.MasterProblem, "solve", recorded_solve)
    monkeypatch.setattr(bd.MasterProblem, "add_cuts", recorded_add_cuts)
    res = bd.iterate(desk.model, desk_scenarios, risk)
    assert res.report.converged and res.report.iterations > 1
    assert lifted == dict.fromkeys(range(1, res.report.iterations), True)


def test_day_cvar_converges_within_the_budget():
    # day, 5 scenarios, seed 42, CVaR 0.9: plain Kelley cutting planes
    # stopped at 200 iterations with a gap of 1.16e-3
    day = instance.day_instance()
    sset = sg.build_scenarios(day.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    ext = st.solve_extensive(day.model, st.build_extensive(day.model, sset,
                                                           CVAR9), sset)
    res = bd.iterate(day.model, sset, CVAR9)
    assert res.report.converged
    assert res.report.iterations <= bd.BendersOptions().max_iterations
    assert res.objective == pytest.approx(ext.objective, rel=1e-6)


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
    with pytest.raises(st.ModelInfeasible) as exc:
        bd.iterate(model, sset, EXPECT)
    assert exc.value.scenario_index == 0
    assert exc.value.rows == ["ev_min_ev_greedy"]
    assert_certified(exc.value, model, sset)
    ef = st.build_extensive(model, sset, EXPECT)
    with pytest.raises(st.ModelInfeasible) as exc:
        st.solve_extensive(model, ef, sset)
    assert exc.value.rows == ["s0_ev_min_ev_greedy"]
    assert_certified(exc.value, model, sset, ef)


def test_invalid_options_rejected(desk, desk_scenarios):
    for bad in ({"tolerance": 0.0}, {"tolerance": math.nan},
                {"max_iterations": 0}, {"workers": 0}):
        with pytest.raises(bd.BendersError):
            bd.BendersOptions(**bad)
    with pytest.raises(bd.BendersError):
        bd.iterate(desk.model, sg.ScenarioSet([], 0), EXPECT)


@pytest.mark.parametrize("entry", ["cost", "subgradient"])
def test_non_finite_cut_is_refused(desk, desk_scenarios, monkeypatch, entry):
    # a NaN passes any tolerance comparison; the audit must refuse it before
    # the cut reaches the master
    solve = bd.solve_subproblem

    def nan_in_scenario_2(sub, x_hat):
        cost, grad = solve(sub, x_hat)
        if sub.index == 2:
            if entry == "cost":
                cost = math.nan
            else:
                grad[0] = math.nan
        return cost, grad

    monkeypatch.setattr(bd, "solve_subproblem", nan_in_scenario_2)
    with pytest.raises(bd.BendersError, match="invalid cut for scenario 2"):
        bd.iterate(desk.model, desk_scenarios, EXPECT)


def test_negative_gap_within_tolerance_is_recorded(desk, desk_scenarios,
                                                   desk_benders, tmp_path,
                                                   monkeypatch):
    # a lower bound above the upper bound by less than the tolerance is a
    # closed gap: the run converges and trace.csv keeps the signed gap
    last = desk_benders.report.trace[-1]
    tol = bd.BendersOptions().tolerance
    lift = last.upper_bound - last.lower_bound \
        + 0.5 * tol * max(1.0, abs(last.upper_bound))
    solve = bd.MasterProblem.solve
    calls = []

    def lifted(self):
        lower, x_hat = solve(self)
        calls.append(lower)
        return lower + (lift if len(calls) == last.iteration else 0.0), x_hat

    monkeypatch.setattr(bd.MasterProblem, "solve", lifted)
    out = rp.solve_with_method(desk.model, desk_scenarios, EXPECT, "benders")
    assert out.converged and out.iterations == last.iteration
    assert -tol <= out.trace[-1].gap < 0.0
    rp.write_solution(str(tmp_path), desk.model, desk_scenarios, out,
                      "benders", EXPECT, "config", "manifest", 0.0)
    with open(tmp_path / "trace.csv") as fh:
        final = fh.read().strip().splitlines()[-1].split(",")
    assert float(final[3]) == out.trace[-1].gap


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


def test_detail_resolves_do_not_depend_on_the_worker_count(desk,
                                                           desk_scenarios):
    # the detail re-solves run on the run's workers and merge by scenario;
    # the 8-worker run shares the compiled block under thread stress
    solve = lambda w: rp.solve_with_method(desk.model, desk_scenarios, EXPECT,
                                           "benders", bd.BendersOptions(workers=w))
    outs = [solve(w) for w in (1, 2, 4)]
    stressed = {}
    run = threading.Thread(target=lambda: stressed.setdefault("out", solve(8)),
                           daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run.start()
        run.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not run.is_alive() and "out" in stressed
    outs.append(stressed["out"])
    first = outs[0]
    for out in outs[1:]:
        assert out.objective == first.objective
        assert out.breakdowns == first.breakdowns
        assert out.iterations == first.iterations
        for mine, theirs in zip(out.series, first.series):
            assert list(mine) == list(theirs)
            assert all(mine[k].tobytes() == theirs[k].tobytes() for k in mine)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_failed_detail_resolve_names_the_first_scenario(desk, desk_scenarios,
                                                        monkeypatch, workers):
    # scenarios 1 and 3 fail; 1 is the slower, yet it is the one reported
    res = bd.iterate(desk.model, desk_scenarios, EXPECT,
                     bd.BendersOptions(tolerance=math.inf))
    solve = bd.solve_fixed_bids

    def failing(model, scenario, s, x):
        if s == 1:
            time.sleep(0.2)
        if s in (1, 3):
            raise st.ModelInfeasible(s)
        return solve(model, scenario, s, x)

    monkeypatch.setattr(bd, "iterate", lambda *args: res)
    monkeypatch.setattr(bd, "solve_fixed_bids", failing)
    with pytest.raises(st.ModelInfeasible) as exc:
        rp.solve_with_method(desk.model, desk_scenarios, EXPECT, "benders",
                             bd.BendersOptions(workers=workers))
    assert exc.value.scenario_index == 1


# ------------------------------------------------------- screened subproblems

def restate_run(subs):
    """``lp.Screen.restate`` over the subproblems of a run, each solved at
    least once, as ``bd.iterate`` calls it."""
    return subs[0].screen.restate([sub.primal for sub in subs],
                                  [sub.data for sub in subs],
                                  [sub.held for sub in subs])


def screened_run(model, sset, risk, workers=1):
    """Benders on ``model``, and the number of lazy rows its subproblems
    had stated at the end and whether they had stated the derived block.
    After a round that stated limits, the values the run realizes must be
    those of the subproblems with every limit stated (a cold screened solve
    each)."""
    grown, grew = [], []
    restate, realize = lp.Screen.restate, bd.risk_functional
    template = model.template

    def recorded(self, primals, programs, held=()):
        again = restate(self, primals, programs, held)
        if not held:        # a cold screen of a reference solve below
            return again
        grown.append((int(self.stated_rows.sum()), self.block_stated))
        if grown[-1] != (grown[-2:-1] or [(0, False)])[0]:
            grew[:] = [programs[0].lower[:template.n_first].copy()]
        return again

    def checked(costs, probs, risk):
        if grew:
            x = grew.pop()
            exact = [lp.solve(template.instantiate(
                model.scenario_data(scenario), x)).objective
                for scenario in sset.scenarios]
            assert costs == pytest.approx(exact, rel=1e-9, abs=1e-9)
        return realize(costs, probs, risk)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp.Screen, "restate", recorded)
        mp.setattr(bd, "risk_functional", checked)
        res = bd.iterate(model, sset, risk, bd.BendersOptions(workers=workers))
    return res, grown[-1]


def assert_all_stated_optimum(model, sset, risk, res):
    """``res`` converged inside the default budget to the extensive optimum
    with every lazy limit stated, within the default tolerance, and its
    bounds sandwiched that optimum at every iteration."""
    ext = lp.solve(unscreened(st.build_extensive(model, sset, risk).program))
    assert ext.status == lp.OPTIMAL
    assert res.report.converged
    assert res.report.iterations <= bd.BendersOptions().max_iterations
    assert abs(res.objective - ext.objective) \
        <= bd.BendersOptions().tolerance * max(1.0, abs(ext.objective))
    _assert_bound_sandwich(res, ext)


@pytest.fixture(scope="module")
def narrowed_day():
    """day with the squared voltage band of every bus but the root narrowed
    to +-0.2 %, 5 scenarios (seed 42), and its neutral Benders run."""
    day = instance.day_instance()
    model = narrowed_band(day.model, 0.998, 1.002)
    sset = sg.build_scenarios(day.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    return model, sset, screened_run(model, sset, EXPECT)


@pytest.mark.parametrize("risk", [EXPECT, CVAR9], ids=["neutral", "cvar"])
def test_subproblems_state_the_voltage_bands_they_break(narrowed_day, risk):
    # the completed subproblem primals leave the narrowed band: the derived
    # block, and with it the band, is stated for every scenario, and the run
    # still converges to the optimum with every limit stated
    model, sset, neutral = narrowed_day
    res, (rows, block) = neutral if risk is EXPECT \
        else screened_run(model, sset, risk)
    assert block
    assert_all_stated_optimum(model, sset, risk, res)


@pytest.mark.parametrize("risk", [EXPECT, CVAR9], ids=["neutral", "cvar"])
def test_subproblems_state_the_flow_bounds_they_break(risk, monkeypatch):
    # day with the branch to bus 4 rated below the flow its core optimum
    # draws: a completed subproblem primal takes a derived fp column past its
    # axis bound, the block is stated for every scenario, and the run still
    # converges to the optimum with every limit stated
    model, sset = active_axis_day()
    names = model.template.program.col_names
    broken = []
    violated = lp.Screen.violated

    def checked(self, x, program):
        found = violated(self, x, program)
        if found[1]:
            broken.append(breaks_a_flow_bound(names, program, x))
        return found

    monkeypatch.setattr(lp.Screen, "violated", checked)
    res, (_, block) = screened_run(model, sset, risk)
    assert block and any(broken)
    assert_all_stated_optimum(model, sset, risk, res)


@pytest.mark.parametrize("seed", [0, 1, 4, 5, 6])
def test_subproblems_state_the_flow_sides_they_break(seed):
    # random feeders rated just above their peak load, where a diagonal
    # side of the flow polygon binds at the optimum
    model, sset = random_feeder_model(seed)
    program = st.build_extensive(model, sset, EXPECT).program
    rows = np.unique(program.lazy_rows)
    _, hi = lp.row_bounds(program.sense[rows], program.rhs[rows])
    x = lp.solve(unscreened(program)).primal
    assert np.any(hi - program.matrix[rows] @ x <= 1e-7)
    res, (stated, _) = screened_run(model, sset, EXPECT)
    assert stated > 0
    assert_all_stated_optimum(model, sset, EXPECT, res)


def test_stated_limits_do_not_depend_on_the_worker_count(narrowed_day):
    # the set grows on the calling thread from all primals of a round, so a
    # run on 2 workers under thread stress is bit-identical to one on 1
    model, sset, (serial, grown) = narrowed_day
    out = {}
    run = threading.Thread(target=lambda: out.setdefault("run", screened_run(
        model, sset, EXPECT, workers=2)), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run.start()
        run.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not run.is_alive() and "run" in out
    parallel, grown_parallel = out["run"]
    assert grown_parallel == grown
    assert parallel.report.trace == [
        row._replace(wall_time_s=mine.wall_time_s)
        for row, mine in zip(serial.report.trace, parallel.report.trace)]
    assert parallel.x.tobytes() == serial.x.tobytes()
    assert parallel.objective == serial.objective


def test_no_worker_thread_settles_the_shared_screen(narrowed_day, monkeypatch,
                                                   splu_threads):
    # the worker threads only read the screen all subproblems share: its
    # layout and form matrix are made when the subproblems are built and
    # again whenever a limit is stated, and the block's factor by the
    # first screen of a fresh template, all on the calling thread
    model, sset, _ = narrowed_day
    model = dataclasses.replace(model)      # a template of its own
    settled = []
    layout = lp.Screen.layout

    def recorded(self):
        if self._layout is None or self._form is None:
            settled.append(threading.current_thread())
        return layout(self)

    monkeypatch.setattr(lp.Screen, "layout", recorded)
    res = bd.iterate(model, sset, EXPECT, bd.BendersOptions(workers=2))
    assert res.report.converged
    # once for the subproblems, then once per round that stated a limit
    assert len(settled) >= 2
    assert set(settled) == {threading.main_thread()}
    assert splu_threads == [threading.main_thread()]


def test_a_benders_solve_factors_the_block_once(splu_threads):
    # the subproblems, on 2 workers, and the detail re-solves of every
    # scenario share the template's marks: one sparse LU in the whole run,
    # made on the calling thread
    day = instance.day_instance()
    sset = sg.build_scenarios(day.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    out = rp.solve_with_method(day.model, sset, EXPECT, "benders",
                               bd.BendersOptions(workers=2))
    assert out.converged and len(out.series) == len(sset)
    assert splu_threads == [threading.main_thread()]


def test_held_subproblems_resolve_the_grown_form(narrowed_day, record_highs):
    # at the narrowed run's bids the completed primals leave the band: each
    # restate passes every held model the grown form, with its basis grown
    # to match, and once none violates a limit, each held subproblem
    # re-solves to the value of a cold solve of its instantiation
    model, sset, (res, _) = narrowed_day
    template = model.template
    subs = bd.subproblems(model, sset.scenarios)
    log = record_highs()
    for sub in subs:
        bd.solve_subproblem(sub, res.x)
    passed = log.count(("run",))
    rounds = 0
    while again := restate_run(subs):
        rounds += 1
        for s in again:
            bd.solve_subproblem(subs[s], res.x)
    assert rounds > 0 and subs[0].screen.block_stated
    assert log.count(("run",)) > passed
    for sub, calls in zip(subs, log.by_model.values()):
        cost, _ = bd.solve_subproblem(sub, res.x)
        cold = lp.solve(template.instantiate(
            model.scenario_data(sub.scenario), res.x))
        assert cost == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        names = [e[0] for e in calls]
        assert names.count("passModel") == 1 + rounds
        # the first run after each grown form starts from the grown basis
        assert all(names[names.index("run", k) - 1] == "setBasis"
                   for k, name in enumerate(names) if name == "passModel" and k)


@pytest.mark.parametrize("preset", ["desk", "day"])
def test_shipped_subproblems_state_no_lazy_limit(preset, record_highs):
    # no primal leaves the shipped limits, so each subproblem's HiGHS is
    # passed one model in the run, the template's core, neither lazy nor
    # derived nor in no row (the withdrawal of a bus without controllable
    # consumption, a bound since), and re-runs it at every iteration
    inst = instance.PRESETS[preset]()
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    log = record_highs()
    res, grown = screened_run(inst.model, sset, EXPECT)
    assert res.report.converged and grown == (0, False)
    p = inst.model.template.program
    assert len(p.lazy_rows) > 0 and len(p.derived_rows) > 0
    rowless = np.bincount(p.indices, minlength=p.num_variables) == 0
    assert rowless.sum() > 0
    core = p.num_variables - len(np.unique(p.derived_columns)) - rowless.sum()
    subs = [calls for calls in log.by_model.values()
            if calls[0][0] == "passModel" and calls[0][1] == core]
    assert len(subs) == len(sset)
    for calls in subs:
        passed = [e[1:] for e in calls if e[0] == "passModel"]
        assert passed == [(core, p.num_constraints
                           - len(np.unique(p.lazy_rows))
                           - len(np.unique(p.derived_rows)))]
    assert sum(e[0] == "run" for calls in subs for e in calls) \
        >= res.report.iterations * len(sset)


def test_unbounded_relaxation_states_every_limit():
    # min -y with the bid x fixed by its bounds, y <= 1 + x lazy and
    # z == y derived: the relaxation is unbounded, so every limit is stated
    # and the subproblem re-solves to the bounded optimum
    program = lp.LinearProgram()
    x = program.add_variable(-math.inf, math.inf, "x")
    y = program.add_variable(0.0, math.inf, "y")
    z = program.add_variable(0.0, 2.0, "z")
    program.add_constraint([(y, 1.0), (x, -1.0)], lp.LE, 1.0, "cap")
    program.add_constraint([(z, 1.0), (y, -1.0)], lp.EQ, 0.0, "link")
    program.add_objective_term(y, -1.0)
    program.mark_lazy(rows=[0])
    program.mark_derived([1], [z])
    screen = lp.Screen(program)
    model = types.SimpleNamespace(template=types.SimpleNamespace(n_first=1))
    sub = bd.Subproblem(model, 0, None, bd.Vectors._make(
        getattr(program, name) for name in bd.Vectors._fields), screen)
    assert screen.form_matrix.shape == (0, 2)
    cost, grad = bd.solve_subproblem(sub, np.array([0.5]))
    assert math.isnan(cost) and sub.primal is None
    assert sub.data.lower[x] == sub.data.upper[x] == 0.5
    assert restate_run([sub]) == [0] and screen.all_stated
    assert screen.form_matrix.shape == (2, 3)
    cost, grad = bd.solve_subproblem(sub, np.array([0.5]))
    # y <= 1.5 binds, and z = y keeps inside its stated bound 2
    assert cost == pytest.approx(-1.5) and grad == pytest.approx([-1.0])
    assert restate_run([sub]) == []
