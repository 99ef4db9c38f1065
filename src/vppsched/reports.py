"""Solution artifacts, solver-independent profit evaluation, and the
dynamic-tariff sensitivity sweep.

Everything written here is CSV plus a small JSON summary; schemas carry
units in the column names. Reports are recomputable from the persisted
primal series without re-solving, and every artifact embeds the config
hash and the scenario-manifest hash it was produced from.

The sweep's levels differ only in tariff costs. The extensive form is
stacked once; a level recomputes only its tariff stream and cost vector.
The levels are solved in order on one held HiGHS model, which receives the
core of the extensive form once (the lazy limits and the derived
branch-flow block left out, as on every solve path) and then only the
costs each level changes; each level's primal is completed and checked
against what the core leaves out, and a level reads back only its
scenario costs and coupling-point columns; a one-shot extensive solve
stays a cold solve.
The detail re-solves of a Benders run go to the run's worker threads.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from itertools import repeat

import numpy as np
import scipy

from . import benders as bd
from . import lp
from . import market as mk
from . import stochastic as st
from . import tables
from .config import RunConfig, file_sha256
from .model import STREAMS, VppModel, extract_block_series
from .scenarios import Scenario, ScenarioSet


class ReportError(Exception):
    pass


def scenario_manifest_hash(scenario_dir: str) -> str:
    path = os.path.join(scenario_dir, "manifest.json")
    if not os.path.exists(path):
        raise ReportError(f"no scenario manifest under {scenario_dir}")
    return file_sha256(path)


# ------------------------------------------------------------ solution dump

def scenario_details(model: VppModel, scenario: Scenario, s_index: int,
                     x: np.ndarray):
    """Re-solve one scenario with the bids frozen and return its breakdown
    and dispatch series; used to materialize second-stage artifacts for
    decomposition runs, one per scenario on the run's worker threads."""
    sol, block = bd.solve_fixed_bids(model, scenario, s_index, x)
    return block.breakdown(sol.primal), extract_block_series(block, sol.primal)


@dataclass
class SolveOutput:
    objective: float
    first_stage: mk.FirstStageDecision
    breakdowns: list[mk.CostBreakdown]
    series: list[dict]
    converged: bool = True
    iterations: int | None = None
    trace: list[bd.TraceRow] = field(default_factory=list)


def solve_with_method(model: VppModel, sset: ScenarioSet, risk: st.RiskMeasure,
                      method: str, benders_opts: bd.BendersOptions | None = None,
                      max_variables: int | None = None,
                      lp_dump_path: str | None = None) -> SolveOutput:
    if method == "extensive":
        _check_extensive_size(model, sset, max_variables)
        ef = st.build_extensive(model, sset, risk)
        if lp_dump_path:
            lp.write_lp_file(ef.program, lp_dump_path)
        return _extensive_output(ef, st.solve_extensive(model, ef, sset))
    if method == "benders":
        if lp_dump_path:
            raise ReportError("LP export is only available for the extensive "
                              "method (the decomposition never materializes "
                              "one monolithic program)")
        benders_opts = benders_opts or bd.BendersOptions()
        res = bd.iterate(model, sset, risk, benders_opts)
        with bd.worker_map(benders_opts.workers) as parallel_map:
            details = list(parallel_map(scenario_details, repeat(model),
                                        sset.scenarios, range(len(sset)),
                                        repeat(res.x)))
        breakdowns, series = (list(part) for part in zip(*details))
        return SolveOutput(res.objective, res.first_stage, breakdowns, series,
                           converged=res.report.converged,
                           iterations=res.report.iterations,
                           trace=res.report.trace)
    raise ReportError(f"unknown solve method {method!r}")


def _check_extensive_size(model: VppModel, sset: ScenarioSet,
                          max_variables: int | None) -> None:
    if max_variables is None:
        return
    tpl = model.template
    size = tpl.n_first + len(sset) * tpl.n_block
    if size > max_variables:
        raise ReportError(
            f"extensive form would need {size} variables, above "
            f"the size guard of {max_variables}; use the benders method")


def _extensive_output(ef: st.ExtensiveForm,
                      sol: st.ExtensiveSolution) -> SolveOutput:
    series = [extract_block_series(block, sol.solution.primal)
              for block in ef.blocks]
    return SolveOutput(sol.objective, sol.first_stage, sol.breakdowns, series)


def write_solution(out_dir: str, model: VppModel, sset: ScenarioSet,
                   out: SolveOutput, method: str, risk: st.RiskMeasure,
                   config_hash: str, manifest_hash: str,
                   runtime_s: float) -> None:
    os.makedirs(out_dir, exist_ok=True)
    hz = model.horizon
    summary = {
        "method": method,
        "risk": risk.kind,
        "alpha": risk.alpha,
        "objective": out.objective,
        "expected_cost": float(sset.probabilities()
                               @ np.array([b.total for b in out.breakdowns])),
        "converged": out.converged,
        "iterations": out.iterations,
        "config_hash": config_hash,
        "scenario_manifest_hash": manifest_hash,
        "runtime_s": runtime_s,
        "scipy_version": scipy.__version__,
        "scenario_count": len(sset),
        "step_count": hz.step_count,
        "step_hours": hz.step_hours,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    fsd = out.first_stage
    window = [hz.window_of(t) for t in range(hz.step_count)]
    tables.write_columns(os.path.join(out_dir, "first_stage.csv"), {
        "t": range(hz.step_count), "p_dam_kw": fsd.p_dam_kw, "window": window,
        "p_rcm_up_kw": fsd.p_rcm_up_kw[window],
        "p_rcm_dn_kw": fsd.p_rcm_dn_kw[window]})

    probs = sset.probabilities()
    tables.write(os.path.join(out_dir, "breakdown.csv"),
                 ["scenario", "probability", "r_dam", "r_rcm", "r_ram",
                  "c_ops", "c_tariff", "c_imb", "total_cost", "profit"],
                 [(s, probs[s], b.r_dam, b.r_rcm, b.r_ram, b.c_ops, b.c_tariff,
                   b.c_imb, b.total, -b.total)
                  for s, b in enumerate(out.breakdowns)])

    for s, series in enumerate(out.series):
        tables.write_columns(os.path.join(out_dir, f"dispatch_{s:04d}.csv"),
                             {"t": range(hz.step_count), **series})

    if out.trace:
        tables.write(os.path.join(out_dir, "trace.csv"), bd.TraceRow._fields,
                     out.trace)


# --------------------------------------------------------------- evaluation

@dataclass
class ProfitReport:
    expected_profit: float
    profit_std: float
    cost_cvar: float
    alpha: float
    streams: dict[str, float]
    dam_sold_kwh: float
    dam_bought_kwh: float
    dam_net_scheduled_kwh: float
    expected_withdrawn_kwh: float
    profits: np.ndarray
    probabilities: np.ndarray


def evaluate_solution(cfg: RunConfig, solution_dir: str,
                      sset: ScenarioSet) -> ProfitReport:
    """Recompute every stream from the persisted dispatch series and the
    scenario data; no solver objective values are reused. The cost CVaR is
    taken at the alpha that the solution's summary records."""
    summary_path = os.path.join(solution_dir, "summary.json")
    if not os.path.exists(summary_path):
        raise ReportError(f"no solution summary under {solution_dir}")
    with open(summary_path) as fh:
        summary = json.load(fh)
    if summary["config_hash"] != cfg.config_hash:
        raise ReportError("solution was produced from a different config")
    actual_manifest = scenario_manifest_hash(cfg.scenario_dir)
    if summary["scenario_manifest_hash"] != actual_manifest:
        raise ReportError("solution was produced from a different scenario set")

    model = cfg.build_model()
    hz = model.horizon
    dt = hz.step_hours

    fs = tables.read_columns(os.path.join(solution_dir, "first_stage.csv"))
    p_dam = fs["p_dam_kw"]
    rcm_up = fs["p_rcm_up_kw"][::hz.steps_per_window]
    rcm_dn = fs["p_rcm_dn_kw"][::hz.steps_per_window]

    dg_cost = {d.name: d.marginal_cost for d in model.park.dgs}
    ev_comp = {d.name: d.discharge_compensation for d in model.park.evs}
    bess_cost = {d.name: d.cycle_cost for d in model.park.bess}

    probs = sset.probabilities()
    totals = np.zeros(len(sset))
    streams = dict.fromkeys(STREAMS, 0.0)
    withdrawn = 0.0
    for s, scen in enumerate(sset.scenarios):
        col = tables.read_columns(os.path.join(solution_dir,
                                               f"dispatch_{s:04d}.csv"))
        r_dam = mk.dam_revenue_value(scen.day_ahead_price, p_dam, dt)
        r_rcm = mk.rcm_revenue_value(scen.rcm_up_price, scen.rcm_dn_price,
                                     rcm_up, rcm_dn)
        r_ram = mk.ram_revenue_value(scen.ram_up_price, scen.ram_dn_price,
                                     col["ram_up_kw"], col["ram_dn_kw"], dt)
        wit = {int(name[4:-3]): col[name] for name in col
               if name.startswith("wit_")}
        c_tariff = mk.tariff_cost_value(model.market.tariff_per_mwh, wit, dt)
        c_imb = mk.imbalance_cost_value(scen.imbalance_short_price,
                                        scen.imbalance_long_price,
                                        col["imb_short_kw"],
                                        col["imb_long_kw"], dt)
        c_ops = 0.0
        for name, cost in dg_cost.items():
            c_ops += cost * float(np.sum(col[f"dev_{name}_p_kw"])) * dt
        for name, comp in ev_comp.items():
            c_ops += comp * float(np.sum(col[f"dev_{name}_discharge_kw"])) * dt
        for name, cost in bess_cost.items():
            c_ops += cost * float(np.sum(col[f"dev_{name}_charge_kw"]
                                         + col[f"dev_{name}_discharge_kw"])) * dt
        breakdown = mk.CostBreakdown(r_dam, r_rcm, r_ram, c_ops, c_tariff,
                                     c_imb)
        totals[s] = breakdown.total
        for key, val in vars(breakdown).items():
            streams[key] += probs[s] * val
        withdrawn += probs[s] * float(np.sum(np.maximum(col["pcc_kw"], 0.0))) * dt

    profits = -totals
    expected_profit = float(probs @ profits)
    variance = float(probs @ (profits - expected_profit) ** 2)
    report = ProfitReport(
        expected_profit=expected_profit,
        profit_std=math.sqrt(max(variance, 0.0)),
        cost_cvar=st.cvar_of_samples(totals, probs, summary["alpha"]),
        alpha=summary["alpha"],
        streams=streams,
        dam_sold_kwh=float(np.sum(np.maximum(p_dam, 0.0))) * dt,
        dam_bought_kwh=float(np.sum(np.maximum(-p_dam, 0.0))) * dt,
        dam_net_scheduled_kwh=float(np.sum(p_dam)) * dt,
        expected_withdrawn_kwh=withdrawn,
        profits=profits,
        probabilities=probs,
    )
    expected_cost = float(probs @ totals)
    if abs(report.expected_profit + expected_cost) > 1e-9 * (1 + abs(expected_cost)):
        raise ReportError("profit/cost reconciliation failed")
    stream_total = -(streams["r_dam"] + streams["r_rcm"] + streams["r_ram"]) \
        + streams["c_ops"] + streams["c_tariff"] + streams["c_imb"]
    if abs(stream_total - expected_cost) > 1e-6 * (1 + abs(expected_cost)):
        raise ReportError("stream decomposition does not reconcile")
    return report


def write_profit_report(report: ProfitReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "expected_profit": report.expected_profit,
        "profit_std": report.profit_std,
        "cost_cvar": report.cost_cvar,
        "alpha": report.alpha,
        "streams_expected": report.streams,
        "dam_sold_kwh": report.dam_sold_kwh,
        "dam_bought_kwh": report.dam_bought_kwh,
        "dam_net_scheduled_kwh": report.dam_net_scheduled_kwh,
        "expected_withdrawn_kwh": report.expected_withdrawn_kwh,
    }
    with open(os.path.join(out_dir, "profit_report.json"), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    tables.write(os.path.join(out_dir, "streams.csv"),
                 ["stream", "expected_value"],
                 sorted(report.streams.items()))
    tables.write_columns(os.path.join(out_dir, "profits.csv"), {
        "scenario": range(len(report.profits)),
        "probability": report.probabilities, "profit": report.profits})
    lo, hi = float(np.min(report.profits)), float(np.max(report.profits))
    if hi <= lo:
        hi = lo + 1.0
    bins = min(20, max(5, len(report.profits) // 2))
    counts, edges = np.histogram(report.profits, bins=bins, range=(lo, hi),
                                 weights=report.probabilities)
    tables.write(os.path.join(out_dir, "profit_histogram.csv"),
                 ["bin_left", "bin_right", "probability_mass"],
                 [(edges[i], edges[i + 1], counts[i]) for i in range(bins)])


# -------------------------------------------------------------- tariff sweep

@dataclass
class SweepRow:
    level: float
    expected_profit: float
    profit_change_pct: float
    low_withdrawal_kwh: float
    high_withdrawal_kwh: float
    low_change_pct: float
    high_change_pct: float
    failed: bool = False


def _pct(value: float, base: float) -> float:
    if abs(base) < 1e-12:
        return 0.0
    return 100.0 * (value - base) / abs(base)


def tariff_level(ef: st.ExtensiveForm, model: VppModel, probs: np.ndarray,
                 tariff: np.ndarray) -> tuple[st.ExtensiveForm, np.ndarray]:
    """The risk-neutral extensive form ``ef`` of ``model`` under another
    tariff, without re-stacking: its blocks with the tariff stream replaced
    and the program's cost vector under them. The tariff is not scenario
    data, so one stream serves every block; both are bitwise what
    ``st.build_extensive`` gives for ``model.with_tariff(tariff)``."""
    stream = model.template.tariff_stream(tariff)
    blocks = [replace(block, streams={**block.streams, "c_tariff": stream})
              for block in ef.blocks]
    cost = np.zeros(ef.program.num_variables)
    st.add_expected_cost(cost, probs,
                         [(block.columns, block.net_cost()) for block in blocks])
    return replace(ef, blocks=blocks), cost


def tariff_sweep(cfg: RunConfig, model: VppModel, sset: ScenarioSet,
                 levels: list[float] | None = None) -> tuple[list[SweepRow], dict]:
    """Scale the tariff down in the low window and up in the high window by
    the same fraction, re-solve the risk-neutral extensive form per level on
    the same scenario set, and report changes against the unmodified
    baseline. The tariff is data: the extensive form is stacked once, and a
    level recomputes only the tariff stream and the cost vector
    (``tariff_level``). One ``lp.HeldModel`` holds the form's relaxed core
    (``lp.Screen.relaxed``: no lazy row, no derived block); the first
    level solves cold, and each later level sends only the costs it
    changes and re-solves from the basis HiGHS holds, or, after a failed
    level, from the last optimal one.
    Levels differ only in tariff costs, so that basis stays primal feasible
    and primal simplex takes a few dozen iterations from it, or none.
    ``lp.solve_held`` completes each level's primal from the derived rows
    and, should it break a left-out limit, states the block with that limit
    and re-solves the level from the vertex HiGHS holds. A level's report
    reads only its scenario costs, from ``st.extensive_solution`` (which
    also checks the status), and the coupling-point columns of each block,
    not the full dispatch series. Level order affects only which optimal vertex a
    degenerate level returns. The levels lie in [0, 1] and the first is 0,
    the unmodified tariff."""
    levels = cfg.sweep_levels if levels is None else levels
    if not levels or levels[0] != 0.0:
        raise ReportError("sweep levels must start at 0, the unmodified "
                          "tariff the changes are reported against")
    for lvl in levels:
        if not (0.0 <= lvl <= 1.0):
            raise ReportError(f"sweep level {lvl} outside [0, 1]")
    _check_extensive_size(model, sset, cfg.extensive_max_variables)
    low_steps = cfg.window_steps(cfg.sweep_low_hours)
    high_steps = cfg.window_steps(cfg.sweep_high_hours)
    base_tariff = model.market.tariff_per_mwh.copy()
    dt = model.horizon.step_hours
    probs = sset.probabilities()
    ef = st.build_extensive(model, sset, st.RiskMeasure(st.EXPECTATION))
    pcc = np.asarray(model.template.handles.grid.pcc)
    screen = lp.Screen(ef.program)
    held = lp.HeldModel(screen.relaxed(ef.program))

    rows: list[SweepRow] = []
    profiles: dict[float, np.ndarray] = {}
    base_profit = base_low = base_high = None
    for lvl in levels:
        tariff = base_tariff.copy()
        for t in low_steps:
            tariff[t] *= (1.0 - lvl)
        for t in high_steps:
            tariff[t] *= (1.0 + lvl)
        level, cost = tariff_level(ef, model, probs, tariff)
        try:
            sol = lp.solve_held(held, screen, ef.program, cost)
            costs = st.extensive_solution(model, level, sset,
                                          sol).scenario_costs
        except st.StochasticError:
            rows.append(SweepRow(lvl, math.nan, math.nan, math.nan, math.nan,
                                 math.nan, math.nan, failed=True))
            profiles[lvl] = np.full(model.horizon.step_count, math.nan)
            continue
        profile = np.zeros(model.horizon.step_count)
        for pi, block in zip(probs, level.blocks):
            profile += pi * np.maximum(sol.primal[block.columns[pcc]], 0.0)
        low_kwh = float(np.sum(profile[low_steps])) * dt
        high_kwh = float(np.sum(profile[high_steps])) * dt
        profit = -float(probs @ costs)
        if base_profit is None:
            base_profit, base_low, base_high = profit, low_kwh, high_kwh
        rows.append(SweepRow(
            lvl, profit, _pct(profit, base_profit), low_kwh, high_kwh,
            _pct(low_kwh, base_low), _pct(high_kwh, base_high)))
        profiles[lvl] = profile
    return rows, profiles


def write_sweep_report(rows: list[SweepRow], profiles: dict,
                       out_dir: str, config_hash: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    tables.write_records(os.path.join(out_dir, "sweep.csv"),
                         [f.name for f in fields(SweepRow)], rows)
    tables.write(os.path.join(out_dir, "withdrawal_profiles.csv"),
                 ["level", "t", "expected_pcc_import_kw"],
                 [(lvl, t, val) for lvl in sorted(profiles)
                  for t, val in enumerate(profiles[lvl])])
    with open(os.path.join(out_dir, "sweep_summary.json"), "w") as fh:
        json.dump({"config_hash": config_hash,
                   "levels": [r.level for r in rows],
                   "failed_levels": [r.level for r in rows if r.failed]},
                  fh, indent=1, sort_keys=True)
