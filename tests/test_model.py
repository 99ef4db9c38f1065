"""Fixed recourse: the scenario block is compiled once, and scenarios change
only its costs, right-hand sides and column bounds."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vppsched import benders as bd
from vppsched import instance as im
from vppsched import lp
from vppsched import market as mk
from vppsched import reports as rp
from vppsched import scenarios as sg
from vppsched import stochastic as st
from vppsched.model import VppModel

EXPECT = st.RiskMeasure(st.EXPECTATION)
CVAR9 = st.RiskMeasure(st.CVAR, 0.9)


@pytest.fixture(scope="module", params=["desk", "day"])
def case(request):
    inst = im.PRESETS[request.param]()
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 4, seed=42)
    return inst.model, sset


def structure(program):
    return [a.tobytes() for a in (program.indptr, program.indices,
                                  program.data, program.sense, program.lower)]


@pytest.mark.parametrize("bids", [False, True])
def test_scenarios_change_only_data(case, bids):
    model, sset = case
    tpl = model.template
    x = np.linspace(0.0, 1.0, tpl.n_first) if bids else None
    a, b = (tpl.instantiate(model.scenario_data(scen), x)
            for scen in sset.scenarios[:2])
    assert structure(a) == structure(b)
    assert a.col_names == b.col_names and a.row_names == b.row_names
    assert not np.array_equal(a.rhs, b.rhs)
    assert not np.array_equal(a.upper, b.upper)
    if bids:
        assert not np.array_equal(a.cost, b.cost)


def test_compiled_block_stores_no_vanishing_coefficients(case):
    # the flow polygon's axis sides put no cos/sin rounding residue or
    # explicit zero into the matrix
    model, _ = case
    assert np.all(np.abs(model.template.program.data) >= 1e-12)


@pytest.mark.parametrize("risk", [EXPECT, CVAR9])
def test_extensive_form_stacks_the_template(case, risk):
    model, sset = case
    tpl = model.template
    S = len(sset)
    ef = st.build_extensive(model, sset, risk)
    extra = 0 if risk.kind == st.EXPECTATION else 1 + S
    assert ef.program.num_variables == tpl.n_first + S * tpl.n_block + extra
    m = tpl.program.num_constraints
    assert ef.program.num_constraints == S * m + (extra and S)
    A = ef.program.matrix
    for k, block in enumerate(ef.blocks):
        rows = A[k * m:(k + 1) * m]
        assert np.array_equal(rows.indptr, tpl.program.indptr)
        assert np.array_equal(rows.indices, block.columns[tpl.program.indices])
        assert np.array_equal(rows.data, tpl.program.data)
        assert np.array_equal(ef.program.rhs[k * m:(k + 1) * m], block.rhs)
    names = ef.program.col_names + ef.program.row_names
    assert len(set(ef.program.col_names)) == ef.program.num_variables
    assert len(set(ef.program.row_names)) == ef.program.num_constraints
    assert all(names)


def test_block_compiles_once_per_model(case, monkeypatch):
    model, sset = case
    calls = []
    build = VppModel.build_block

    def counted(self, program, fs):
        calls.append(self)
        return build(self, program, fs)

    monkeypatch.setattr(VppModel, "build_block", counted)
    fresh = VppModel(model.horizon, model.network, model.park, model.market)
    fresh.validate()
    assert calls == []          # validating never compiles
    st.solve_extensive(fresh, st.build_extensive(fresh, sset, EXPECT), sset)
    res = bd.iterate(fresh, sset, EXPECT, bd.BendersOptions(max_iterations=3))
    rp.scenario_details(fresh, sset.scenarios[0], 0, res.x)
    swept = fresh.with_tariff(fresh.market.tariff_per_mwh * 2.0)
    st.build_extensive(swept, sset, EXPECT)
    assert calls == [fresh]
    assert fresh.template is swept.template


def test_scenario_data_is_checked_on_every_instantiation(desk):
    model = desk.model
    sset = sg.build_scenarios(desk.forecast, sg.zero_error_specs(), 1, seed=0)
    scen = sset.scenarios[0]
    bad = lambda **kw: model.scenario_data(type(scen)(**{**vars(scen), **kw}))
    dg = model.park.dgs[0].name
    for cf in (np.full(8, np.nan), np.full(8, -1.0)):
        with pytest.raises(lp.LpError):
            bad(capacity_factor={**scen.capacity_factor, dg: cf})
    with pytest.raises(lp.LpError):
        bad(ambient_temp=np.full(8, np.inf))
    with pytest.raises(lp.LpError):
        bad(day_ahead_price=np.full(8, np.nan))
    for short in ("ev_availability", "rcm_up_price", "day_ahead_price"):
        with pytest.raises(mk.MarketError):
            bad(**{short: np.ones(3)})
    model.scenario_data(scen)   # the template is left as it was


def test_threads_share_the_compiled_block(desk, desk_scenarios):
    # Benders workers solve subproblems on one shared matrix concurrently; a
    # data race on it would change a subproblem's value or subgradient
    model = VppModel(desk.model.horizon, desk.model.network, desk.model.park,
                     desk.model.market)
    scenarios = desk_scenarios.scenarios
    x = np.full(model.template.n_first, 1.0)
    serial = [bd.solve_subproblem(sub, x)
              for sub in bd.subproblems(model, scenarios)]
    subs = bd.subproblems(model, [scenarios[k % 10] for k in range(40)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(bd.solve_subproblem, sub, x) for sub in subs]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, (cost, grad) in enumerate(results):
        assert cost == serial[k % 10][0]
        assert np.array_equal(grad, serial[k % 10][1])
