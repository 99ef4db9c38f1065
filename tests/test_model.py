"""Fixed recourse: the scenario block is compiled once, and scenarios change
only its costs, right-hand sides and column bounds."""

import hashlib
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
from vppsched.model import BlockTemplate, VppModel

from oracles import unscreened

EXPECT = st.RiskMeasure(st.EXPECTATION)
CVAR9 = st.RiskMeasure(st.CVAR, 0.9)


@pytest.fixture(scope="module", params=["desk", "day"])
def case(request):
    inst = im.PRESETS[request.param]()
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 4, seed=42)
    return inst.model, sset


def structure(program):
    return [a.tobytes() for a in (program.indptr, program.indices,
                                  program.data, program.sense)]


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
    # the withdrawal at a bus without controllable consumption is bounded
    # below by the bus's load, which is data
    assert not np.array_equal(a.lower, b.lower)
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


def lower_slot_template(template_lower):
    """A block of two columns, both of lower bound ``template_lower``, whose
    lower bounds are slots of the series ``floor``."""
    program = lp.LinearProgram()
    program.add_variables(template_lower, np.inf, ["x", "y"])
    program.add_constraint([(0, 1.0), (1, 1.0)], lp.LE, 10.0, "cap")
    program.add_slots(lp.LOWER, [0, 1], "floor", None, [0, 1])
    return BlockTemplate(program, mk.MarketHorizon(2, 0.25, 0.25))


def test_lower_slots_only_raise_the_template_bound():
    # as for an upper slot, a NaN or infinite value is refused; a value
    # below the template's bound leaves it, so a negative load gives 0
    scen = lambda values: type("Scenario", (), {"floor": np.array(values)})()
    tpl = lower_slot_template(0.0)
    assert tpl.targets == [lp.LOWER]
    assert tpl.data(scen([2.5, -1.0])).lower.tolist() == [2.5, 0.0]
    assert lower_slot_template(-3.0).data(scen([-1.0, -4.0])).lower.tolist() \
        == [-1.0, -3.0]
    for bad in ([np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(lp.LpError, match="bad value"):
            tpl.data(scen(bad))
    # a lower bound raised above the upper one is refused too
    tpl.program.upper[1] = 1.0
    with pytest.raises(lp.LpError, match="floor.*step 1: bad value 2.0"):
        tpl.data(scen([0.0, 2.0]))
    tpl.program.upper[1] = np.inf
    assert tpl.program.lower.tolist() == [0.0, 0.0]


def test_instances_carry_each_scenarios_lower_bounds(case):
    # the withdrawal of a bus without controllable consumption is at least
    # the positive part of the bus's load: its scenario's, in every
    # instantiation and in its copy of the extensive form
    model, sset = case
    tpl = model.template
    nf = tpl.n_first
    blocks = [model.scenario_data(scen) for scen in sset.scenarios]
    p = tpl.program
    held = np.bincount(p.indices, minlength=p.num_variables) > 0
    floor = {j: (bus, t) for bus, columns in tpl.handles.grid.wit.items()
             for t, j in enumerate(columns) if not held[j]}
    assert floor
    for block, scen in zip(blocks, sset.scenarios):
        for j, (bus, t) in floor.items():
            load = scen.load_active.get(bus, np.zeros(t + 1))[t]
            assert block.lower[j] == max(0.0, load)
        for bids in (None, np.linspace(0.0, 1.0, nf)):
            sub = tpl.instantiate(block, bids)
            assert np.array_equal(sub.lower[nf:], block.lower[nf:])
    for risk in (EXPECT, CVAR9):
        ef = st.build_extensive(model, sset, risk)
        for k, block in enumerate(ef.blocks):
            assert np.array_equal(ef.program.lower[block.columns[nf:]],
                                  blocks[k].lower[nf:])


def test_unknown_slot_target_is_refused_when_compiled():
    # a cost label outside model.STREAMS would first fail in
    # BlockTemplate.data, so the template refuses it, naming it
    program = lp.LinearProgram()
    program.add_variable(0.0, 1.0, "x")
    program.add_slots("c_bogus", [0], "day_ahead_price")
    with pytest.raises(lp.LpError, match="'c_bogus'"):
        BlockTemplate(program, im.desk_instance().model.horizon)
    for target in (lp.UPPER, lp.LOWER, "r_dam"):
        program.slots[0] = (target, *program.slots[0][1:])
        assert BlockTemplate(program, im.desk_instance().model.horizon).targets \
            == [target]


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


#: sha256 of each preset's compiled template (see ``template_digest``),
#: pinned again when the root's balP row became the feeder-wide balance
#: (the sum of every bus's balP row, with every bus's load slot), which
#: moved the non-root balP rows and the fp columns into the derived block;
#: ``test_network.py`` checks that row against the sum of the paper-form
#: rows and every other row, column and slot against the paper form, as it
#: checks the polygon's axis sides as column bounds against the all-rows
#: polygon; and pinned again when the withdrawal row of a bus without
#: controllable consumption at a step (wit >= load, its only entry the wit
#: column) became that column's lower-bound slot (``lp.LOWER``), which
#: dropped those rows (6 739 of 76 242 on full) and moved their load slots
#: to the columns; ``test_network.py`` checks the emission against a
#: row-by-row reference, and ``test_instances_carry_each_scenarios_lower_
#: bounds`` the bounds each scenario fills in
TEMPLATE_DIGESTS = {
    "desk": "a8b203465467b7c8ecc2fbd6fe313fbe8a9de77058959aaca1460684153f9986",
    "day": "a8559911cad1d762f742a603b8daa743471a562556438ff71608fd5835f5e727",
    "full": "f1344a15e6f383adc7fd6c835da11b92eb5ad122608792e9a6aed9549adcd4bd",
}


def canonical_slots(template) -> list[tuple]:
    """The template's data slots one by one, as (target, index, field, key,
    step, scale, divisor), sorted by (target, index): the content of the
    slots, whatever runs they were stated in."""
    fields = [template.series[s] for s in template.source]
    return sorted(((target, index, *fields[k], step, scale, divisor)
                   for k, (target, index, step, scale, divisor) in enumerate(zip(
                       template.target.tolist(), template.index.tolist(),
                       template.step.tolist(), template.scale.tolist(),
                       template.divisor.tolist()))),
                  key=lambda slot: slot[:2])


def template_digest(model: VppModel) -> str:
    """Digest of everything HiGHS is given from the compiled block: its
    arrays with dtype and shape, row and column names, and data slots."""
    p = model.template.program
    h = hashlib.sha256()
    for key in ("lower", "upper", "cost", "indptr", "indices", "data",
                "sense", "rhs"):
        a = getattr(p, key)
        h.update(f"{key}:{a.dtype.str}:{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    for names in (p.col_names, p.row_names):
        h.update("\n".join(names).encode())
    h.update(repr(canonical_slots(model.template)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("preset", sorted(TEMPLATE_DIGESTS))
def test_compiled_template_is_pinned(preset):
    # the same arrays and names in the same order, and the same slots, so
    # every program stacked or instantiated from the template reaches HiGHS
    # unchanged
    assert template_digest(im.PRESETS[preset]().model) \
        == TEMPLATE_DIGESTS[preset]


#: the limits of the compiled block left out until violated: the diagonal
#: sides of the flow polygon (lazy rows) and the voltage bands below the
#: root (bounds of derived columns)
LAZY_COUNTS = {"desk": (128, 32), "day": (384, 96), "full": (36864, 9216)}


@pytest.mark.parametrize("preset", sorted(LAZY_COUNTS))
def test_lazy_limits_are_the_flow_sides_and_voltage_bands(preset):
    model = im.PRESETS[preset]().model
    p = model.template.program
    root = model.network.root_id()
    rows = [i for i, name in enumerate(p.row_names) if name.startswith("flow[")]
    cols = [j for j, name in enumerate(p.col_names)
            if name.startswith("v[") and not name.startswith(f"v[{root},")]
    assert sorted(p.lazy_rows.tolist()) == rows
    assert set(cols) <= set(p.derived_columns.tolist())
    assert (len(rows), len(cols)) == LAZY_COUNTS[preset]


def test_instances_carry_the_lazy_limits(case):
    # an instantiation shares the template's matrix, senses and marks, the
    # bids fixing the first-stage columns by their bounds; the extensive
    # form moves the marks, and the derived columns, to each block's own
    model, sset = case
    tpl = model.template
    p = tpl.program
    assert len(p.lazy_rows) > 0 and len(p.derived_rows) > 0
    bids = np.linspace(0.0, 1.0, tpl.n_first)
    for x in (None, bids):
        sub = tpl.instantiate(model.scenario_data(sset.scenarios[0]), x)
        assert sub.num_constraints == p.num_constraints
        assert sub.marks is p.marks
        for key in ("indptr", "indices", "data", "sense", "lazy_rows",
                    "derived_rows", "derived_columns"):
            assert np.array_equal(getattr(sub, key), getattr(p, key)) \
                and np.shares_memory(getattr(sub, key), getattr(p, key)), key
        for key in ("lazy_rows", "derived_rows"):
            assert [sub.row_names[i] for i in getattr(sub, key)] \
                == [p.row_names[i] for i in getattr(p, key)]
        first = slice(tpl.n_first)
        if x is None:
            assert np.array_equal(sub.lower[first], p.lower[first])
            assert np.array_equal(sub.upper[first], p.upper[first])
        else:
            assert np.array_equal(sub.lower[first], bids)
            assert np.array_equal(sub.upper[first], bids)
        assert not np.shares_memory(sub.lower, p.lower)
    ef = st.build_extensive(model, sset, CVAR9)
    S = len(sset)
    for key in ("lazy_rows", "derived_rows"):
        assert [ef.program.row_names[i] for i in getattr(ef.program, key)] \
            == [f"s{k}_{p.row_names[i]}" for k in range(S)
                for i in getattr(p, key)]
    assert [ef.program.col_names[j] for j in ef.program.derived_columns] \
        == [f"s{k}_{p.col_names[j]}" for k in range(S)
            for j in p.derived_columns]
    # the CVaR tail rows leave the block derived
    lp.Screen(ef.program)


@pytest.mark.parametrize("risk", [EXPECT, CVAR9])
def test_screened_extensive_optimum_is_the_full_one(case, risk):
    model, sset = case
    program = st.build_extensive(model, sset, risk).program
    sol, full = lp.solve(program), lp.solve(unscreened(program))
    assert sol.objective == pytest.approx(full.objective, rel=1e-9)
    assert lp.dual_objective(program, sol) == pytest.approx(
        sol.objective, abs=lp.OPT_TOL * (1.0 + abs(sol.objective)))
