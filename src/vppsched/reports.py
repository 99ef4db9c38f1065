"""Solution artifacts, solver-independent profit evaluation, and the
dynamic-tariff sensitivity sweep.

Everything written here is CSV plus a small JSON summary; schemas carry
units in the column names. Reports are recomputable from the persisted
primal series without re-solving, and every artifact embeds the config
hash and the scenario-manifest hash it was produced from.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import benders as bd
from . import lp
from . import market as mk
from . import stochastic as st
from .config import RunConfig, file_sha256
from .model import VppModel, extract_block_series
from .scenarios import Scenario, ScenarioSet


class ReportError(Exception):
    pass


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) if isinstance(x, (int, str)) else repr(float(x))
                              for x in row) + "\n")


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


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
    decomposition runs."""
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
        if max_variables is not None:
            tpl = model.template
            size = tpl.n_first + len(sset) * tpl.n_block
            if size > max_variables:
                raise ReportError(
                    f"extensive form would need {size} variables, above "
                    f"the size guard of {max_variables}; use the benders method")
        ef = st.build_extensive(model, sset, risk)
        if lp_dump_path:
            lp.write_lp_file(ef.program, lp_dump_path)
        sol = st.solve_extensive(model, ef, sset)
        series = [extract_block_series(block, sol.solution.primal)
                  for block in ef.blocks]
        return SolveOutput(sol.objective, sol.first_stage, sol.breakdowns,
                           series)
    if method == "benders":
        if lp_dump_path:
            raise ReportError("LP export is only available for the extensive "
                              "method (the decomposition never materializes "
                              "one monolithic program)")
        res = bd.iterate(model, sset, risk, benders_opts)
        breakdowns = []
        series = []
        for s, scen in enumerate(sset.scenarios):
            b, ser = scenario_details(model, scen, s, res.x)
            breakdowns.append(b)
            series.append(ser)
        return SolveOutput(res.objective, res.first_stage, breakdowns, series,
                           converged=res.report.converged,
                           iterations=res.report.iterations,
                           trace=res.report.trace)
    raise ReportError(f"unknown solve method {method!r}")


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
    _write_csv(os.path.join(out_dir, "first_stage.csv"),
               ["t", "p_dam_kw", "window", "p_rcm_up_kw", "p_rcm_dn_kw"],
               [(t, fsd.p_dam_kw[t], hz.window_of(t),
                 fsd.p_rcm_up_kw[hz.window_of(t)],
                 fsd.p_rcm_dn_kw[hz.window_of(t)])
                for t in range(hz.step_count)])

    probs = sset.probabilities()
    _write_csv(os.path.join(out_dir, "breakdown.csv"),
               ["scenario", "probability", "r_dam", "r_rcm", "r_ram",
                "c_ops", "c_tariff", "c_imb", "total_cost", "profit"],
               [(s, probs[s], b.r_dam, b.r_rcm, b.r_ram, b.c_ops, b.c_tariff,
                 b.c_imb, b.total, -b.total)
                for s, b in enumerate(out.breakdowns)])

    for s, series in enumerate(out.series):
        header = ["t", "ram_up_kw", "ram_dn_kw", "imb_short_kw", "imb_long_kw",
                  "p_vpp_kw", "pcc_kw"]
        cols = [np.arange(hz.step_count), series["ram_up_kw"],
                series["ram_dn_kw"], series["imb_short_kw"],
                series["imb_long_kw"], series["p_vpp_kw"], series["pcc_kw"]]
        for bus in sorted(series["wit_kw"]):
            header.append(f"wit_{bus}_kw")
            cols.append(series["wit_kw"][bus])
        for name in sorted(series["devices"]):
            entry = series["devices"][name]
            if "p_kw" in entry:
                header.append(f"dev_{name}_p_kw")
                cols.append(entry["p_kw"])
            if "charge_kw" in entry:
                header.append(f"dev_{name}_charge_kw")
                cols.append(entry["charge_kw"])
                header.append(f"dev_{name}_discharge_kw")
                cols.append(entry["discharge_kw"])
        rows = [tuple(int(col[t]) if k == 0 else col[t]
                      for k, col in enumerate(cols))
                for t in range(hz.step_count)]
        _write_csv(os.path.join(out_dir, f"dispatch_{s:04d}.csv"), header, rows)

    if out.trace:
        _write_csv(os.path.join(out_dir, "trace.csv"), bd.TraceRow._fields,
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
    scenario data; no solver objective values are reused."""
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

    _, fs_rows = _read_csv(os.path.join(solution_dir, "first_stage.csv"))
    p_dam = np.array([float(r[1]) for r in fs_rows])
    rcm_up = np.array([float(fs_rows[w * hz.steps_per_window][3])
                       for w in range(hz.window_count)])
    rcm_dn = np.array([float(fs_rows[w * hz.steps_per_window][4])
                       for w in range(hz.window_count)])

    dg_cost = {d.name: d.marginal_cost for d in model.park.dgs}
    ev_comp = {d.name: d.discharge_compensation for d in model.park.evs}
    bess_cost = {d.name: d.cycle_cost for d in model.park.bess}

    probs = sset.probabilities()
    totals = np.zeros(len(sset))
    streams = {k: 0.0 for k in ("r_dam", "r_rcm", "r_ram", "c_ops",
                                "c_tariff", "c_imb")}
    withdrawn = 0.0
    for s, scen in enumerate(sset.scenarios):
        header, rows = _read_csv(os.path.join(solution_dir,
                                              f"dispatch_{s:04d}.csv"))
        col = {name: np.array([float(r[k]) for r in rows])
               for k, name in enumerate(header)}
        r_dam = mk.dam_revenue_value(scen.day_ahead_price, p_dam, dt)
        r_rcm = mk.rcm_revenue_value(scen.rcm_up_price, scen.rcm_dn_price,
                                     rcm_up, rcm_dn)
        r_ram = mk.ram_revenue_value(scen.ram_up_price, scen.ram_dn_price,
                                     col["ram_up_kw"], col["ram_dn_kw"], dt)
        wit = {int(name[4:-3]): col[name] for name in header
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
        breakdown = mk.CostBreakdown.from_components(r_dam, r_rcm, r_ram,
                                                     c_ops, c_tariff, c_imb)
        totals[s] = breakdown.total
        for key, val in (("r_dam", r_dam), ("r_rcm", r_rcm), ("r_ram", r_ram),
                         ("c_ops", c_ops), ("c_tariff", c_tariff),
                         ("c_imb", c_imb)):
            streams[key] += probs[s] * val
        withdrawn += probs[s] * float(np.sum(np.maximum(col["pcc_kw"], 0.0))) * dt

    profits = -totals
    expected_profit = float(probs @ profits)
    variance = float(probs @ (profits - expected_profit) ** 2)
    report = ProfitReport(
        expected_profit=expected_profit,
        profit_std=math.sqrt(max(variance, 0.0)),
        cost_cvar=st.cvar_of_samples(totals, probs, cfg.alpha),
        alpha=cfg.alpha,
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
    _write_csv(os.path.join(out_dir, "streams.csv"),
               ["stream", "expected_value"],
               sorted(report.streams.items()))
    _write_csv(os.path.join(out_dir, "profits.csv"),
               ["scenario", "probability", "profit"],
               [(s, report.probabilities[s], report.profits[s])
                for s in range(len(report.profits))])
    lo, hi = float(np.min(report.profits)), float(np.max(report.profits))
    if hi <= lo:
        hi = lo + 1.0
    bins = min(20, max(5, len(report.profits) // 2))
    counts, edges = np.histogram(report.profits, bins=bins, range=(lo, hi),
                                 weights=report.probabilities)
    _write_csv(os.path.join(out_dir, "profit_histogram.csv"),
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


def tariff_sweep(cfg: RunConfig, model: VppModel, sset: ScenarioSet,
                 levels: list[float] | None = None) -> tuple[list[SweepRow], dict]:
    """Scale the tariff down in the low window and up in the high window by
    the same fraction, re-solve the risk-neutral program per level on the
    same scenario set, and report changes against the unmodified baseline.
    The tariff is data: every level shares the model's compiled block."""
    levels = cfg.sweep_levels if levels is None else levels
    low_steps = cfg.window_steps(cfg.sweep_low_hours)
    high_steps = cfg.window_steps(cfg.sweep_high_hours)
    base_tariff = model.market.tariff_per_mwh.copy()
    dt = model.horizon.step_hours
    risk = st.RiskMeasure(st.EXPECTATION)
    probs = sset.probabilities()

    rows: list[SweepRow] = []
    profiles: dict[float, np.ndarray] = {}
    base_profit = base_low = base_high = None
    for lvl in levels:
        tariff = base_tariff.copy()
        for t in low_steps:
            tariff[t] *= (1.0 - lvl)
        for t in high_steps:
            tariff[t] *= (1.0 + lvl)
        try:
            out = solve_with_method(
                model.with_tariff(tariff), sset, risk, cfg.sweep_method,
                bd.BendersOptions(**cfg.benders_options),
                cfg.extensive_max_variables)
        except (st.StochasticError, bd.BendersError, ReportError) as exc:
            rows.append(SweepRow(lvl, math.nan, math.nan, math.nan, math.nan,
                                 math.nan, math.nan, failed=True))
            profiles[lvl] = np.full(model.horizon.step_count, math.nan)
            continue
        profile = np.zeros(model.horizon.step_count)
        for pi, series in zip(probs, out.series):
            profile += pi * np.maximum(series["pcc_kw"], 0.0)
        low_kwh = float(np.sum(profile[low_steps])) * dt if low_steps else 0.0
        high_kwh = float(np.sum(profile[high_steps])) * dt if high_steps else 0.0
        profit = -float(probs @ np.array([b.total for b in out.breakdowns]))
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
    _write_csv(os.path.join(out_dir, "sweep.csv"),
               ["level", "expected_profit", "profit_change_pct",
                "low_withdrawal_kwh", "high_withdrawal_kwh",
                "low_change_pct", "high_change_pct", "failed"],
               [(r.level, r.expected_profit, r.profit_change_pct,
                 r.low_withdrawal_kwh, r.high_withdrawal_kwh,
                 r.low_change_pct, r.high_change_pct, int(r.failed))
                for r in rows])
    prof_rows = []
    for lvl in sorted(profiles):
        for t, val in enumerate(profiles[lvl]):
            prof_rows.append((lvl, t, val))
    _write_csv(os.path.join(out_dir, "withdrawal_profiles.csv"),
               ["level", "t", "expected_pcc_import_kw"], prof_rows)
    with open(os.path.join(out_dir, "sweep_summary.json"), "w") as fh:
        json.dump({"config_hash": config_hash,
                   "levels": [r.level for r in rows],
                   "failed_levels": [r.level for r in rows if r.failed]},
                  fh, indent=1, sort_keys=True)
