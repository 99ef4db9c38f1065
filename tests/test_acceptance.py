"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured figures (run with -s to see them inline).

Criteria are property-based and trend-based on the shipped synthetic
instances; reference-portfolio headline figures are not reproducible
because the underlying market and network data are not redistributable.
"""

import time

import numpy as np

from vppsched import benders as bd
from vppsched import devices as dv
from vppsched import instance as im
from vppsched import lp
from vppsched import network as nw
from vppsched import reports as rp
from vppsched import scenarios as sg
from vppsched import stochastic as st
from vppsched.config import load_config
from vppsched.market import MarketConfig, MarketHorizon
from vppsched.model import VppModel

from oracles import cvar_by_threshold_scan, random_feasible_bounded_lp, \
    vertex_enumeration_optimum

EXPECT = st.RiskMeasure(st.EXPECTATION)
CVAR9 = st.RiskMeasure(st.CVAR, 0.9)


def _pass(num, msg):
    print(f"[criterion {num:2d}] PASS  {msg}")


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


# ---------------------------------------------------------------------------

def test_criterion_01_benders_extensive_equivalence_expectation(desk,
                                                                desk_scenarios):
    started = time.perf_counter()
    ef = st.build_extensive(desk.model, desk_scenarios, EXPECT)
    ext = st.solve_extensive(desk.model, ef, desk_scenarios)
    res = bd.iterate(desk.model, desk_scenarios, EXPECT)
    runtime = time.perf_counter() - started
    rel = _rel(res.objective, ext.objective)
    assert res.report.converged
    assert res.report.iterations <= 200
    assert rel <= 1e-4
    assert runtime < 60.0
    _pass(1, f"rel diff {rel:.2e}, {res.report.iterations} iterations, "
             f"{runtime:.1f}s total")


def test_criterion_02_benders_extensive_equivalence_cvar(desk, desk_scenarios):
    started = time.perf_counter()
    ef = st.build_extensive(desk.model, desk_scenarios, CVAR9)
    ext = st.solve_extensive(desk.model, ef, desk_scenarios)
    res = bd.iterate(desk.model, desk_scenarios, CVAR9)
    runtime = time.perf_counter() - started
    rel = _rel(res.objective, ext.objective)
    assert res.report.converged
    assert res.report.iterations <= 200
    assert rel <= 1e-4
    assert runtime < 60.0
    _pass(2, f"alpha 0.9, rel diff {rel:.2e}, "
             f"{res.report.iterations} iterations, {runtime:.1f}s total")


def test_criterion_03_risk_tradeoff_direction(desk):
    # inflate the tail of the tertiary activation errors so that short
    # imbalance prices occasionally spike
    specs = dict(sg.DEFAULT_ERROR_SPECS)
    specs["mfrr_up_price"] = sg.ErrorSpec(sg.NORMAL, 0.0, 250.0, relative=False)
    specs["ram_up_price"] = sg.ErrorSpec(sg.NORMAL, 0.0, 80.0, relative=False)
    sset = sg.build_scenarios(desk.forecast, specs, 20, seed=202)
    probs = sset.probabilities()
    neutral = st.solve_extensive(
        desk.model, st.build_extensive(desk.model, sset, EXPECT), sset)
    averse = st.solve_extensive(
        desk.model, st.build_extensive(desk.model, sset, CVAR9), sset)
    cvar = lambda s: st.cvar_of_samples(s.scenario_costs, probs, 0.9)
    mean = lambda s: float(probs @ s.scenario_costs)
    assert cvar(averse) <= cvar(neutral) + 1e-6
    assert mean(averse) >= mean(neutral) - 1e-6
    _pass(3, f"cost CVaR {cvar(neutral):.3f} -> {cvar(averse):.3f}, "
             f"expected cost {mean(neutral):.3f} -> {mean(averse):.3f}")


def test_criterion_04_cvar_evaluator_exactness():
    rng = np.random.default_rng(4040)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        costs = rng.normal(0.0, 100.0, size=n)
        if rng.random() < 0.3 and n > 2:
            costs[: n // 2] = costs[0]          # tied atoms
        probs = rng.dirichlet(np.ones(n))
        alpha = float(rng.uniform(0.02, 0.98))
        ours = st.cvar_of_samples(costs, probs, alpha)
        scan = cvar_by_threshold_scan(costs, probs, alpha)
        # brute-force sorted tail averaging with explicit atom splitting
        order = np.argsort(-costs, kind="stable")
        cum = np.cumsum(probs[order])
        tail = 1.0 - alpha
        weights = np.clip(np.minimum(cum, tail)
                          - np.concatenate(([0.0], cum[:-1])), 0.0, None)
        sorted_avg = float(weights @ costs[order]) / tail
        worst = max(worst, abs(ours - scan), abs(ours - sorted_avg))
    assert worst <= 1e-12
    _pass(4, f"1000 random distributions, max deviation {worst:.2e}")


def test_criterion_05_lp_solver_against_vertex_enumeration():
    rng = np.random.default_rng(5050)
    worst_gap = 0.0
    worst_duality = 0.0
    for _ in range(500):
        prog = random_feasible_bounded_lp(rng, max_vars=6, max_rows=8)
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        best = vertex_enumeration_optimum(prog)
        assert abs(sol.objective - best) <= 1e-7 * (1.0 + abs(best))
        dual = lp.dual_objective(prog, sol)
        assert abs(sol.objective - dual) <= 1e-7 * (1.0 + abs(sol.objective))
        worst_gap = max(worst_gap, abs(sol.objective - best))
        worst_duality = max(worst_duality, abs(sol.objective - dual))
    _pass(5, f"500 LPs, max enumeration gap {worst_gap:.2e}, "
             f"max duality gap {worst_duality:.2e}")


def test_criterion_06_lhs_stratification():
    for n in (4, 100, 1000):
        u = sg.lhs_sample(n, 10, seed=66)
        for d in range(10):
            occupancy = np.bincount(np.floor(u[:, d] * n).astype(int),
                                    minlength=n)
            assert occupancy.min() == 1 and occupancy.max() == 1
    _pass(6, "stratum occupancy exactly 1 for n in {4, 100, 1000}, dims = 10")


def _feeder_model(n_bus, seed):
    horizon = MarketHorizon(4, 0.25, 1.0)
    network = nw.make_synthetic_feeder(n_bus, seed=seed, s_max_kva=600.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    nodes = [b.id for b in network.buses if not b.is_root]
    park = dv.DerPark(
        dgs=[dv.DistributedGenerator("pv1", nodes[0], 8.0, 10.0, 0.02)],
        bess=[dv.Bess("bat1", nodes[-1], 10.0, 6.0, 8.0, 0.95, 0.95, 5.0, 0.01)])
    t = np.arange(4)
    base = sg.BaseForecast(
        day_ahead_price=60.0 + 5.0 * t,
        rcm_up_price=np.full(1, 5.0), rcm_dn_price=np.full(1, 4.0),
        ram_up_price=np.full(4, 85.0), ram_dn_price=np.full(4, 30.0),
        mfrr_up_price=np.full(4, 100.0), mfrr_dn_price=np.full(4, 25.0),
        ambient_temp=np.full(4, 10.0), ev_availability=np.ones(4),
        capacity_factor={"pv1": np.full(4, 0.7)},
        load_active={b: rng.uniform(0.3, 1.5, size=4) for b in nodes},
        load_reactive={b: rng.uniform(0.1, 0.4, size=4) for b in nodes})
    market = MarketConfig(5.0, np.full(4, 206.5))
    return VppModel(horizon, network, park, market), base


def test_criterion_07_distflow_conservation_and_polygon_soundness():
    worst_resid = 0.0
    for n_bus in (10, 50, 97):
        model, base = _feeder_model(n_bus, seed=n_bus + 1)
        sset = sg.build_scenarios(base, sg.DEFAULT_ERROR_SPECS, 2, seed=7)
        ef = st.build_extensive(model, sset, EXPECT)
        sol = st.solve_extensive(model, ef, sset)
        for block in ef.blocks:
            scen = block.scenario
            from vppsched.model import extract_block_series
            series = extract_block_series(block, sol.solution.primal)
            total_load = np.zeros(4)
            for bus, load in scen.load_active.items():
                total_load += load
            injections = -total_load.copy()
            for h in block.template.handles.devices:
                dev = f"dev_{h.name}_"
                if dev + "p_kw" in series and h.name.startswith("pv"):
                    injections += series[dev + "p_kw"]
                elif dev + "charge_kw" in series:
                    injections -= series[dev + "charge_kw"] \
                        - series[dev + "discharge_kw"]
            resid = np.abs(injections + series["pcc_kw"])
            scale = 1.0 + np.abs(total_load)
            assert np.all(resid <= 1e-9 * scale)
            worst_resid = max(worst_resid, float(np.max(resid / scale)))
    rng = np.random.default_rng(77)
    s_max = 5.0
    pts = rng.uniform(-1.3 * s_max, 1.3 * s_max, size=(10_000, 2))
    admitted = [(p, q) for p, q in pts if nw.polygon_admits(p, q, s_max, 8)]
    assert all(p * p + q * q <= s_max ** 2 + 1e-9 for p, q in admitted)
    _pass(7, f"feeders up to 97 buses, worst scaled residual {worst_resid:.2e}; "
             f"{len(admitted)} admitted points all inside the circle")


def test_criterion_08_financial_identities(desk, desk_scenarios, desk_neutral):
    ef, sol = desk_neutral
    primal = sol.solution.primal
    pbar = desk.model.market.prequalified_power_kw
    hz = desk.model.horizon
    worst_eq = 0.0
    for block in ef.blocks:
        ss = block.second_stage
        fs = ef.first_stage
        for t in range(hz.step_count):
            resid = (primal[ss.p_vpp[t]] - primal[fs.dam[t]]
                     - primal[ss.ram_up[t]] + primal[ss.ram_dn[t]]
                     + primal[ss.imb_short[t]] - primal[ss.imb_long[t]])
            assert abs(resid) <= 1e-7
            worst_eq = max(worst_eq, abs(resid))
            w = hz.window_of(t)
            assert primal[ss.ram_up[t]] <= pbar + 1e-7
            assert primal[ss.ram_dn[t]] <= pbar + 1e-7
            assert primal[ss.ram_up[t]] >= primal[fs.rcm_up[w]] - 1e-7
            assert primal[ss.ram_dn[t]] >= primal[fs.rcm_dn[w]] - 1e-7
    probs = desk_scenarios.probabilities()
    recomputed = float(probs @ np.array([b.total for b in sol.breakdowns]))
    assert _rel(recomputed, sol.objective) <= 1e-6
    _pass(8, f"position-balance residual <= {worst_eq:.2e}, reserve chain "
             f"holds, breakdown matches objective to {_rel(recomputed, sol.objective):.2e}")


def test_criterion_09_tariff_sweep_trends(tmp_path):
    inst = im.day_instance()
    cfg_path = im.write_instance(inst, str(tmp_path), scenario_count=5,
                                 scenario_seed=42)
    cfg = load_config(cfg_path)
    base = cfg.load_forecast()
    sset = sg.build_scenarios(base, cfg.error_specs(), 5, 42)
    model = cfg.build_model()
    levels = [round(0.1 * k, 1) for k in range(11)]
    rows, _ = rp.tariff_sweep(cfg, model, sset, levels)
    assert not any(r.failed for r in rows)
    assert rows[0].profit_change_pct == 0.0
    assert rows[0].low_change_pct == 0.0 and rows[0].high_change_pct == 0.0
    for a, b in zip(rows, rows[1:]):
        assert b.expected_profit <= a.expected_profit + 1e-5
        assert b.low_withdrawal_kwh >= a.low_withdrawal_kwh - 1e-5
        assert b.high_withdrawal_kwh <= a.high_withdrawal_kwh + 1e-5
    span = rows[-1].profit_change_pct
    _pass(9, f"11 levels, profit change at full swing {span:.1f}%, "
             f"low-window withdrawal +{rows[-1].low_change_pct:.1f}%, "
             f"high-window {rows[-1].high_change_pct:.1f}%")


def test_criterion_10_determinism(desk, desk_scenarios, desk_benders,
                                  tmp_path):
    sset_a = sg.build_scenarios(desk.forecast, sg.DEFAULT_ERROR_SPECS, 10, 42)
    sg.save_scenario_set(sset_a, str(tmp_path / "a"), 0.25, 1.0,
                         sg.DEFAULT_ERROR_SPECS)
    sset_b = sg.build_scenarios(desk.forecast, sg.DEFAULT_ERROR_SPECS, 10, 42)
    sg.save_scenario_set(sset_b, str(tmp_path / "b"), 0.25, 1.0,
                         sg.DEFAULT_ERROR_SPECS)
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    serial = desk_benders
    parallel = bd.iterate(desk.model, desk_scenarios, EXPECT,
                          bd.BendersOptions(workers=4))
    assert np.max(np.abs(parallel.x - serial.x)) <= 1e-9
    _pass(10, "scenario files byte-identical across runs; first-stage bids "
              "identical across worker counts")
