"""The tariff sweep holds one HiGHS model of the extensive form's core
(no lazy row, no derived branch-flow block) and re-solves each level on it
with only the changed costs sent: every level must still equal its own
cold extensive solve, repeat bit for bit, restart from the last optimal
basis after a failed level, and pass its model to HiGHS once, or, where a
completed primal breaks a left-out limit, once more with the derived block
stated."""

import dataclasses
import json
import math

import numpy as np
import pytest

from vppsched import instance as im
from vppsched import lp
from vppsched import reports as rp
from vppsched import scenarios as sg
from vppsched import stochastic as st
from vppsched.config import load_config

from oracles import infeasibility
from test_network import breaks_a_flow_bound, narrowed_band, narrowed_rating

LEVELS = [round(0.1 * k, 1) for k in range(11)]
NEUTRAL = st.RiskMeasure(st.EXPECTATION)
REL = 1e-9
STRATEGY = lp._highs.simplex_constants.SimplexStrategy
DUAL = int(STRATEGY.kSimplexStrategyDual)
PRIMAL = int(STRATEGY.kSimplexStrategyPrimal)

#: tariff windows inside each preset's horizon; window hours count from the
#: horizon start, so the two desk hours are 0-2
WINDOWS = {"desk": ([0, 1], [1, 2]), "day": ([10, 14], [17, 21])}


def sweep_case(name, tmp_path_factory):
    """The config of preset ``name`` with the sweep windows of ``WINDOWS``,
    its model and 5 scenarios (seed 42)."""
    path = im.write_instance(im.PRESETS[name](),
                             str(tmp_path_factory.mktemp(name)),
                             scenario_count=5, scenario_seed=42)
    with open(path) as fh:
        raw = json.load(fh)
    raw["tariff_sweep"]["low_window_hours"], \
        raw["tariff_sweep"]["high_window_hours"] = WINDOWS[name]
    with open(path, "w") as fh:
        json.dump(raw, fh)
    cfg = load_config(path)
    assert cfg.window_steps(cfg.sweep_low_hours)
    assert cfg.window_steps(cfg.sweep_high_hours)
    sset = sg.build_scenarios(cfg.load_forecast(), cfg.error_specs(), 5, 42)
    return cfg, cfg.build_model(), sset


@pytest.fixture(scope="module", params=["desk", "day"])
def case(request, tmp_path_factory):
    return sweep_case(request.param, tmp_path_factory)


@pytest.fixture(scope="module")
def day_case(tmp_path_factory):
    return sweep_case("day", tmp_path_factory)


def level_tariff(cfg, model, level):
    tariff = model.market.tariff_per_mwh.copy()
    tariff[cfg.window_steps(cfg.sweep_low_hours)] *= 1.0 - level
    tariff[cfg.window_steps(cfg.sweep_high_hours)] *= 1.0 + level
    return tariff


def cold_level(cfg, model, sset, level):
    """Expected profit and low/high-window withdrawals of one level, from a
    cold extensive solve of the model under that level's tariff."""
    low = cfg.window_steps(cfg.sweep_low_hours)
    high = cfg.window_steps(cfg.sweep_high_hours)
    out = rp.solve_with_method(model.with_tariff(level_tariff(cfg, model, level)),
                               sset, NEUTRAL, "extensive")
    probs = sset.probabilities()
    profile = sum(pi * np.maximum(series["pcc_kw"], 0.0)
                  for pi, series in zip(probs, out.series))
    dt = model.horizon.step_hours
    return (-float(probs @ np.array([b.total for b in out.breakdowns])),
            float(np.sum(profile[low])) * dt, float(np.sum(profile[high])) * dt)


def assert_matches_cold(row, cold):
    for got, want in zip((row.expected_profit, row.low_withdrawal_kwh,
                          row.high_withdrawal_kwh), cold):
        assert got == pytest.approx(want, rel=REL, abs=REL)


def test_every_level_matches_its_cold_solve(case):
    cfg, model, sset = case
    rows, _ = rp.tariff_sweep(cfg, model, sset, LEVELS)
    assert [r.level for r in rows] == LEVELS and not any(r.failed for r in rows)
    for row in rows:
        assert_matches_cold(row, cold_level(cfg, model, sset, row.level))
    # both presets withdraw in both windows, so the tariff moves the optimum
    assert rows[-1].low_withdrawal_kwh > rows[0].low_withdrawal_kwh
    assert rows[-1].high_withdrawal_kwh < rows[0].high_withdrawal_kwh
    if cfg.raw["preset"] == "day":
        # day withdraws most in the high window, so its profit falls
        assert rows[-1].expected_profit < rows[0].expected_profit


def test_two_sweeps_are_bitwise_equal(case):
    cfg, model, sset = case
    rows_a, prof_a = rp.tariff_sweep(cfg, model, sset, LEVELS)
    rows_b, prof_b = rp.tariff_sweep(cfg, model, sset, LEVELS)
    assert rows_a == rows_b
    assert list(prof_a) == list(prof_b)
    for level in prof_a:
        assert np.array_equal(prof_a[level], prof_b[level])


def test_failed_level_keeps_the_last_optimal_basis(case, monkeypatch,
                                                  record_highs):
    cfg, model, sset = case
    log = record_highs(fail_run=4)
    rows, profiles = rp.tariff_sweep(cfg, model, sset, LEVELS[:6])
    monkeypatch.undo()
    assert [r.failed for r in rows] == [False, False, False, True, False,
                                        False]
    assert math.isnan(rows[3].expected_profit)
    assert np.isnan(profiles[LEVELS[3]]).all()
    # one model; only level 4 restarts, from level 2's basis, the last one
    # that solved, although HiGHS itself holds level 3's
    calls = [entry[0] for entry in log]
    assert calls.count("passModel") == 1 and calls.count("run") == 6
    runs = [k for k, name in enumerate(calls) if name == "run"]
    bases = [entry[1] for entry in log if entry[0] == "getBasis"]
    assert [entry for entry in log if entry[0] == "setBasis"] \
        == [("setBasis", bases[2])]
    assert calls.index("setBasis") == runs[4] - 1
    # the restart from the last optimal basis after a cost change is primal
    assert log.strategies == [DUAL] + [PRIMAL] * 5
    for row in rows[4:]:
        assert_matches_cold(row, cold_level(cfg, model, sset, row.level))


def test_extensive_sweep_runs_on_the_warm_seam_only(case, monkeypatch,
                                                   record_highs):
    cfg, model, sset = case
    linprog_calls = []
    linprog = lp.linprog

    def counted(*args, **kwargs):
        linprog_calls.append(args)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(lp, "linprog", counted)
    log = record_highs()
    rp.tariff_sweep(cfg, model, sset, LEVELS)
    calls = [entry[0] for entry in log]
    assert linprog_calls == []
    assert calls.count("passModel") == 1
    assert calls.count("run") == len(LEVELS)
    # level 0 solves cold with dual simplex; every later level changes only
    # costs, so the held basis stays primal feasible and primal simplex
    # re-solves from it
    assert log.strategies == [DUAL] + [PRIMAL] * (len(LEVELS) - 1)


def test_level_reports_equal_the_full_series(case, monkeypatch):
    # each level's profit and withdrawal profile, read from the scenario
    # costs and the coupling-point columns only, are bitwise those computed
    # from the full dispatch series of the same solution: the held core's,
    # completed
    cfg, model, sset = case
    solutions = []
    solve = lp.HeldModel.solve

    def kept(self, cost=None):
        solutions.append(solve(self, cost))
        return solutions[-1]

    monkeypatch.setattr(lp.HeldModel, "solve", kept)
    rows, profiles = rp.tariff_sweep(cfg, model, sset, LEVELS)
    monkeypatch.undo()
    low = cfg.window_steps(cfg.sweep_low_hours)
    high = cfg.window_steps(cfg.sweep_high_hours)
    probs = sset.probabilities()
    dt = model.horizon.step_hours
    ef = st.build_extensive(model, sset, NEUTRAL)
    screen = lp.Screen(ef.program)
    # no level states a limit, so each solved once on the core
    assert len(solutions) == len(rows)
    for row, sol in zip(rows, solutions):
        level, _ = rp.tariff_level(ef, model, probs,
                                   level_tariff(cfg, model, row.level))
        sol = dataclasses.replace(
            sol, primal=screen.complete(sol.primal, ef.program))
        out = rp._extensive_output(level, st.extensive_solution(model, level,
                                                                sset, sol))
        profile = np.zeros(model.horizon.step_count)
        for pi, series in zip(probs, out.series):
            profile += pi * np.maximum(series["pcc_kw"], 0.0)
        profit = -float(probs @ np.array([b.total for b in out.breakdowns]))
        assert profiles[row.level].tobytes() == profile.tobytes()
        assert row.expected_profit == profit
        assert (row.low_withdrawal_kwh, row.high_withdrawal_kwh) \
            == (float(np.sum(profile[low])) * dt,
                float(np.sum(profile[high])) * dt)


def test_levels_swap_only_the_tariff_costs(case, monkeypatch):
    # the sweep stacks the extensive form once; each level's cost vector and
    # breakdowns are bitwise those of a form built under the level's tariff,
    # and the held core gets that vector's restriction to its columns
    cfg, model, sset = case
    passed = []
    init, solve = lp.HeldModel.__init__, lp.HeldModel.solve

    def held(self, program, basis=None):
        passed.append(program.cost)        # the form's, level 0's restricted
        init(self, program, basis)

    def recorded(self, cost=None):
        if cost is not None:
            passed.append(cost)
        return solve(self, cost)

    monkeypatch.setattr(lp.HeldModel, "__init__", held)
    monkeypatch.setattr(lp.HeldModel, "solve", recorded)
    rp.tariff_sweep(cfg, model, sset, LEVELS)
    monkeypatch.undo()
    probs = sset.probabilities()
    ef = st.build_extensive(model, sset, NEUTRAL)
    columns = lp.Screen(ef.program).layout()[1]
    x = np.random.default_rng(3).normal(size=ef.program.num_variables)
    # the core's first costs, and then one vector per level
    assert len(passed) == len(LEVELS) + 1
    assert passed.pop(0).tobytes() == ef.program.cost[columns].tobytes()
    for level, cost in zip(LEVELS, passed):
        tariff = level_tariff(cfg, model, level)
        ref = st.build_extensive(model.with_tariff(tariff), sset, NEUTRAL)
        form, swapped = rp.tariff_level(ef, model, probs, tariff)
        assert np.asarray(cost).tobytes() \
            == ref.program.cost[columns].tobytes()
        assert swapped.tobytes() == ref.program.cost.tobytes()
        assert [b.breakdown(x) for b in form.blocks] \
            == [b.breakdown(x) for b in ref.blocks]
        for mine, theirs in zip(form.blocks, ref.blocks):
            for name in theirs.data.streams:
                assert mine.data.streams[name].tobytes() \
                    == theirs.data.streams[name].tobytes()


def test_sweep_holds_the_core_and_sends_only_changed_costs(case, record_highs):
    # one pass of the core: no lazy row, no derived row or column; level 0
    # sends no cost, each later level the core costs that differ from the
    # level before's (on day the tariff columns of the two windows)
    cfg, model, sset = case
    log = record_highs()
    rp.tariff_sweep(cfg, model, sset, LEVELS)
    ef = st.build_extensive(model, sset, NEUTRAL)
    p, screen = ef.program, lp.Screen(ef.program)
    rows, columns = screen.layout()
    # nor a column that no row holds: the withdrawal of a bus without
    # controllable consumption, bounded below by its load
    rowless = np.bincount(p.matrix.indices, minlength=p.num_variables) == 0
    assert rowless.sum() > 0
    assert len(columns) == p.num_variables - len(screen.block_columns) \
        - rowless.sum()
    assert len(rows) == p.num_constraints - len(np.unique(p.lazy_rows)) \
        - len(screen.block_rows)
    assert [entry for entry in log if entry[0] == "passModel"] \
        == [("passModel", len(columns), len(rows))]
    probs = sset.probabilities()
    costs = [rp.tariff_level(ef, model, probs, level_tariff(cfg, model, level))[1]
             [columns] for level in LEVELS]
    changed = [int(np.count_nonzero(b != a)) for a, b in zip(costs, costs[1:])]
    assert 0 < min(changed) and max(changed) < len(columns)
    assert [entry for entry in log if entry[0] == "changeColsCost"] \
        == [("changeColsCost", n) for n in changed if n]


def reactive_bound_model(model, sset, scale=12.0, margin=3.0):
    """``model`` and ``sset`` with the reactive load of bus 2 scaled by
    ``scale`` and the branch feeding it rated so that its reactive axis
    bound, |Q| <= s cos(pi/8), lies ``margin`` kvar above that load's peak:
    the reactive power of the PV unit on bus 2 is free in the core, and the
    flow it completes to can leave that bound."""
    scenarios = [dataclasses.replace(sc, load_reactive={
        **sc.load_reactive, 2: scale * sc.load_reactive[2]})
        for sc in sset.scenarios]
    peak = max(float(np.max(sc.load_reactive[2])) for sc in scenarios)
    net = model.network
    branches = [dataclasses.replace(br, s_max_kva=(peak + margin)
                                    / math.cos(math.pi / 8))
                if br.to_bus == 2 else br for br in net.branches]
    assert sum(br.to_bus == 2 for br in net.branches) == 1
    assert [dv.node for dv in model.park.dgs] == [2]
    return (dataclasses.replace(model, network=dataclasses.replace(
        net, branches=branches)),
        dataclasses.replace(sset, scenarios=scenarios))


@pytest.mark.parametrize("limit", ["voltage band", "reactive axis",
                                   "active axis"])
def test_sweep_states_the_block_its_completion_breaks(day_case, limit,
                                                     monkeypatch, record_highs):
    # day with the band narrowed to +-0.2 % (the bound of a derived v
    # column), with a reactive axis bound that the completed flow leaves
    # (the bound of a derived fq column), or with the branch to bus 4 rated
    # below the active flow the core draws (the bound of a derived fp
    # column): the sweep states the block once, by a second pass of the
    # grown form started from the extended basis, every level's primal is
    # feasible for the full program, and every level matches its cold solve
    cfg, model, sset = day_case
    if limit == "voltage band":
        model = narrowed_band(model, 0.998, 1.002)
    elif limit == "reactive axis":
        model, sset = reactive_bound_model(model, sset)
    else:
        model = narrowed_rating(model, 4, 20.0)
    found, solved, flows = [], [], []
    violated, solve_held = lp.Screen.violated, lp.solve_held

    def checked(self, x, program):
        found.append(violated(self, x, program))
        if found[-1][1].any():
            flows.append(breaks_a_flow_bound(program.col_names, program, x))
        return found[-1]

    def kept(held, screen, program, cost):
        solved.append((screen, program,
                       solve_held(held, screen, program, cost)))
        return solved[-1][2]

    monkeypatch.setattr(lp.Screen, "violated", checked)
    monkeypatch.setattr(lp, "solve_held", kept)
    log = record_highs()
    rows, _ = rp.tariff_sweep(cfg, model, sset, LEVELS)
    monkeypatch.undo()
    screen = solved[0][0]
    core_pass, grown_pass = [entry for entry in log if entry[0] == "passModel"]
    assert grown_pass[1] == core_pass[1] + len(screen.block_columns)
    assert grown_pass[2] >= core_pass[2] + len(screen.block_rows)
    # the grown form re-solves from the extended basis, not cold
    calls = [entry[0] for entry in log]
    grown_at = calls.index("passModel", 1)
    assert calls[grown_at + 1:grown_at + 3] == ["setBasis", "run"]
    rows_broken, block = next(f for f in found if f[0].any() or f[1].any())
    assert block.all()
    if limit == "reactive axis":
        assert not rows_broken.any()
    assert flows[0] == (limit == "active axis")
    assert len(solved) == len(LEVELS)
    for _, program, sol in solved:
        assert infeasibility(program, sol.primal) <= lp.FEAS_TOL
    for row in rows:
        assert not row.failed
        assert_matches_cold(row, cold_level(cfg, model, sset, row.level))
