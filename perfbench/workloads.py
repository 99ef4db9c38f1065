"""Workloads of the vppsched benchmark: pinned inputs, timed passes and
per-operation correctness checks.

An operation is one solve (with its artifact write), one evaluation or one
tariff level. It fails when it raises or fails its check; the checks use
fixed tolerances taken from the acceptance suite.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy

from vppsched import benders as bd
from vppsched import config as cf
from vppsched import instance as im
from vppsched import lp
from vppsched import reports as rp
from vppsched import scenarios as sg
from vppsched import stochastic as st
from vppsched.model import VppModel, extract_block_series

from spans import Tracer, self_times

NEUTRAL = st.RiskMeasure(st.EXPECTATION)
CVAR90 = st.RiskMeasure(st.CVAR, 0.9)

#: Benders objective against the extensive optimum (criteria 1 and 2)
BENDERS_REL_TOL = 1e-4
#: primal against dual objective of the extensive solve (criterion 5)
DUALITY_REL_TOL = 1e-7
#: evaluated expected profit against the solver objective (criterion 8)
PROFIT_REL_TOL = 1e-6
#: slack of the bound sandwich lower <= extensive optimum <= upper
BOUND_REL_TOL = 1e-6

#: set-ups timed per run; setup_s is their median
SETUP_REPEATS = 11


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    scenarios: int
    kind: str                       # "benders", "extensive" or "sweep"
    risks: tuple = (NEUTRAL,)
    workers: int = 1
    cap: int | None = None          # iteration cap that defines the workload
    artifacts: bool = False         # Benders: write and evaluate the solution
    levels: tuple = ()
    draws: int = 1                  # scenario sets a run cycles its passes over


def level_grid(n: int) -> tuple:
    return tuple(round(k / (n - 1), 10) for k in range(n))


WORKLOADS = {w.name: w for w in (
    # the scenario draw sets the work, and so run_s: the Benders iteration
    # counts on day (neutral 123 to 200) and the HiGHS path on full (up to
    # 40 %); the median over three draws damps that across seeds
    Workload("day-benders", "day", 5, "benders", risks=(NEUTRAL, CVAR90),
             draws=3),
    Workload("full-extensive", "full", 4, "extensive", draws=3),
    # three iterations: the upper bound is already frozen at the cap, and
    # the four workloads' runs fit the benchmark's time budget
    Workload("full-benders", "full", 4, "benders", workers=2, cap=3,
             artifacts=True),
    Workload("day-sweep", "day", 5, "sweep", levels=level_grid(51)),
)}


# ------------------------------------------------------------------ inputs

@dataclass
class Inputs:
    cfg: cf.RunConfig
    model: VppModel
    sset: sg.ScenarioSet
    manifest_hash: str


def draw_seed(seed: int, k: int) -> int:
    """Scenario seed of a run's k-th draw; draw 0 uses the seed itself."""
    return seed + 1000 * k


def prepare(wl: Workload, seed: int, out_dir: str) -> str:
    """Write the preset instance (default instance seed) and its scenario
    set drawn with the given seed, as ``make-instance`` and
    ``generate-scenarios`` do; returns the config path."""
    inst = im.PRESETS[wl.preset]()
    path = im.write_instance(inst, out_dir, scenario_count=wl.scenarios,
                             scenario_seed=seed)
    cfg = cf.load_config(path)
    specs = cfg.error_specs()
    sset = sg.build_scenarios(cfg.load_forecast(), specs, cfg.scenario_count,
                              cfg.scenario_seed)
    sg.save_scenario_set(sset, cfg.scenario_dir, cfg.horizon.step_hours,
                         cfg.horizon.rcm_window_hours, specs,
                         config_hash=cfg.config_hash)
    return path


def set_up(config_path: str) -> Inputs:
    """What a solve pays before it starts: load the config, build the
    model, load the scenario set and hash its manifest."""
    cfg = cf.load_config(config_path)
    model = cfg.build_model()
    sset, _ = sg.load_scenario_set(cfg.scenario_dir)
    return Inputs(cfg, model, sset,
                  rp.scenario_manifest_hash(cfg.scenario_dir))


# -------------------------------------------------------------- operations

@dataclass
class Op:
    name: str
    weight: int = 1                 # operations this call stands for
    failed: int = 0
    reasons: list = field(default_factory=list)
    record: dict = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed = min(self.weight, self.failed + count)
        self.reasons.append(reason)


@dataclass
class Pass:
    """One execution of a workload's operations."""

    tracer: Tracer | None = None
    ops: list = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0

    def run(self, name, fn, *args, weight=1):
        op = Op(name, weight)
        self.ops.append(op)
        scope = self.tracer.operation(name) if self.tracer else nullcontext()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with scope:
                out = fn(*args)
        except Exception as exc:  # a raising operation is a counted failure
            traceback.print_exc()
            op.fail(f"raised {type(exc).__name__}: {exc}")
            out = None
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - cpu0
        return op, out


def _solve_and_write(inp: Inputs, risk, opts, out_dir):
    started = time.perf_counter()
    out = rp.solve_with_method(inp.model, inp.sset, risk, "benders", opts)
    if out_dir:
        rp.write_solution(out_dir, inp.model, inp.sset, out, "benders", risk,
                          inp.cfg.config_hash, inp.manifest_hash,
                          time.perf_counter() - started)
    return out


def _extensive_and_write(inp: Inputs, out_dir):
    started = time.perf_counter()
    ef = st.build_extensive(inp.model, inp.sset, NEUTRAL)
    sol = st.solve_extensive(inp.model, ef, inp.sset)
    out = rp.SolveOutput(sol.objective, sol.first_stage, sol.breakdowns,
                         [extract_block_series(b, sol.solution.primal)
                          for b in ef.blocks])
    rp.write_solution(out_dir, inp.model, inp.sset, out, "extensive",
                      NEUTRAL, inp.cfg.config_hash, inp.manifest_hash,
                      time.perf_counter() - started)
    return ef, sol


def _benders_record(out: rp.SolveOutput, risk) -> dict:
    walls = [row[4] for row in out.trace]
    return {"kind": "benders", "risk": risk.kind, "objective": out.objective,
            "lower": out.trace[-1][1], "upper": out.trace[-1][2],
            "gap": out.trace[-1][3], "iterations": out.iterations,
            "converged": out.converged,
            "iter_s": list(np.diff([0.0] + walls))}


def _evaluate(p: Pass, inp: Inputs, solution_dir: str, objective: float):
    op, report = p.run("evaluate", rp.evaluate_solution, inp.cfg,
                       solution_dir, inp.sset)
    if report is not None and _rel(-report.expected_profit, objective) \
            > PROFIT_REL_TOL:
        op.fail(f"expected profit {report.expected_profit!r} is not "
                f"-objective {objective!r}")


def run_pass(wl: Workload, inp: Inputs, solution_dir: str,
             tracer: Tracer | None = None) -> Pass:
    """Run the workload's operations once; artifacts go to solution_dir,
    which must not exist yet."""
    p = Pass(tracer)
    if wl.kind == "benders":
        opts = bd.BendersOptions(**inp.cfg.benders_options)
        opts.workers = wl.workers
        if wl.cap is not None:
            opts.max_iterations = wl.cap
        for risk in wl.risks:
            target = solution_dir if wl.artifacts else None
            op, out = p.run(f"benders-{risk.kind}", _solve_and_write, inp,
                            risk, opts, target)
            if out is None:
                continue
            op.record = _benders_record(out, risk)
            if wl.artifacts:
                _evaluate(p, inp, solution_dir, out.objective)
    elif wl.kind == "extensive":
        op, res = p.run("extensive-expectation", _extensive_and_write, inp,
                        solution_dir)
        if res is not None:
            ef, sol = res
            dual = lp.dual_objective(ef.program, sol.solution)
            if abs(sol.objective - dual) > DUALITY_REL_TOL * (
                    1.0 + abs(sol.objective)):
                op.fail(f"strong duality: primal {sol.objective!r}, "
                        f"dual {dual!r}")
            op.record = {"kind": "extensive", "objective": sol.objective,
                         "variables": ef.program.num_variables,
                         "rows": ef.program.num_constraints}
            del ef, sol, res
            _evaluate(p, inp, solution_dir, op.record["objective"])
    elif wl.kind == "sweep":
        op, res = p.run("tariff-sweep", rp.tariff_sweep, inp.cfg, inp.model,
                        inp.sset, list(wl.levels), weight=len(wl.levels))
        if res is not None:
            rows, _ = res
            bad = [r.level for r in rows if r.failed]
            if bad:
                op.fail(f"levels failed: {bad}", count=len(bad))
            if len(rows) != len(wl.levels):
                op.fail(f"{len(rows)} rows for {len(wl.levels)} levels")
            op.record = {"kind": "sweep", "base_profit": rows[0].expected_profit}
    else:
        raise ValueError(f"unknown workload kind {wl.kind!r}")
    return p


# -------------------------------------------------------------- references

def references(wl: Workload, inp: Inputs) -> dict:
    """Extensive optima the decomposed and swept results are checked
    against; solved outside the timed passes. Also returns the size of the
    risk-neutral extensive form for the fingerprint."""
    refs = {}
    if wl.kind == "extensive":
        return refs
    for risk in wl.risks:
        ef = st.build_extensive(inp.model, inp.sset, risk)
        refs[risk.kind] = st.solve_extensive(inp.model, ef, inp.sset).objective
        if risk.kind == st.EXPECTATION:
            refs["variables"] = ef.program.num_variables
            refs["rows"] = ef.program.num_constraints
        del ef
    return refs


def check_against_references(p: Pass, refs: dict) -> None:
    for op in p.ops:
        rec = op.record
        if rec.get("kind") == "benders":
            ref = refs[rec["risk"]]
            if rec["converged"]:
                if _rel(rec["objective"], ref) > BENDERS_REL_TOL:
                    op.fail(f"objective {rec['objective']!r} vs extensive "
                            f"{ref!r}")
            else:
                slack = BOUND_REL_TOL * (1.0 + abs(ref))
                if not (rec["lower"] <= ref + slack
                        and ref <= rec["upper"] + slack):
                    op.fail(f"bounds [{rec['lower']!r}, {rec['upper']!r}] do "
                            f"not contain extensive {ref!r}")
        elif rec.get("kind") == "sweep":
            ref = refs[st.EXPECTATION]
            if _rel(-rec["base_profit"], ref) > PROFIT_REL_TOL:
                op.fail(f"level-0 profit {rec['base_profit']!r} vs extensive "
                        f"{-ref!r}")


# ----------------------------------------------------------------- metrics

def _spans_by_name(tracer: Tracer, op_ids: set) -> dict:
    out: dict[str, list] = {}
    for sp in tracer.spans:
        if sp.op in op_ids and not sp.name.startswith("op."):
            out.setdefault(sp.name, []).append(sp)
    return out


def layer_metrics(tracer: Tracer, setup_op: int, traced: Pass,
                  untraced: list) -> dict:
    ops = {sp.id for sp in tracer.spans
           if sp.name.startswith("op.") and sp.id != setup_op}
    run = _spans_by_name(tracer, ops)
    setup = _spans_by_name(tracer, {setup_op})
    total = lambda spans, name: sum(s.duration for s in spans.get(name, ()))
    calls = lambda name: len(run.get(name, ()))
    count = lambda name, key: sum(s.counts.get(key, 0)
                                  for s in run.get(name, ()))

    records = [op.record for op in traced.ops if op.record.get("kind")
               == "benders"]
    iter_s = [t for p in untraced for op in p.ops
              if op.record.get("kind") == "benders"
              for t in op.record["iter_s"]]
    offered = count("benders.add_cuts", "offered")
    added = count("benders.add_cuts", "added")
    selft = self_times(tracer.spans)
    root = [sp for sp in tracer.spans if sp.id in ops]
    covered = sum(sp.duration - selft[sp.id] for sp in root)
    base_run_s = statistics.median(p.wall for p in untraced)
    solve_s = total(run, "lp.solve")
    highs_s = total(run, "lp.linprog")

    return {
        "config.build_model_s": total(setup, "config.build_model"),
        "scenarios.load_s": total(setup, "scenarios.load_scenario_set"),
        "model.build_block_s": total(run, "model.build_block"),
        "model.build_block_calls": calls("model.build_block"),
        "lp.solve_s": solve_s,
        "lp.solve_calls": calls("lp.solve"),
        "lp.highs_s": highs_s,
        "lp.assembly_s": solve_s - highs_s,
        "lp.simplex_iters": count("lp.linprog", "nit"),
        "lp.rows_solved": count("lp.linprog", "rows"),
        "stochastic.build_extensive_s": total(run, "stochastic.build_extensive"),
        "stochastic.solve_extensive_s": total(run, "stochastic.solve_extensive"),
        "benders.iterations": sum(r["iterations"] for r in records),
        "benders.cuts_added": added,
        "benders.cut_accept_ratio": added / offered if offered else 0.0,
        "benders.iter_s": statistics.median(iter_s) if iter_s else 0.0,
        "benders.master_s": total(run, "benders.master_solve"),
        "benders.master_calls": calls("benders.master_solve"),
        "benders.subproblem_s": total(run, "benders.solve_subproblem"),
        "benders.subproblem_calls": calls("benders.solve_subproblem"),
        "benders.gap_final": max((r["gap"] for r in records), default=0.0),
        "benders.unconverged_solves": sum(not r["converged"] for r in records),
        "process.cpu_util": sum(p.cpu for p in untraced)
        / sum(p.wall for p in untraced),
        "reports.scenario_details_s": total(run, "reports.scenario_details"),
        "reports.write_solution_s": total(run, "reports.write_solution"),
        "reports.evaluate_solution_s": total(run, "reports.evaluate_solution"),
        "reports.tariff_sweep_s": total(run, "reports.tariff_sweep"),
        "trace.overhead_ratio": traced.wall / base_run_s,
        "trace.span_coverage": covered / traced.wall,
    }


# --------------------------------------------------------------------- run

@dataclass
class Result:
    workload: str
    seed: int
    attempted: int
    failed: int
    reasons: list
    metrics: dict
    summary: dict
    fingerprint: dict

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _fingerprint(inp: Inputs, refs: dict, first: Pass, seeds: list) -> dict:
    size = refs if "rows" in refs else next(
        (op.record for op in first.ops
         if op.record.get("kind") == "extensive"), {})
    return {
        "scenario_seeds": seeds,
        "config_hash": inp.cfg.config_hash,
        "scenario_manifest_hash": inp.manifest_hash,
        "extensive_variables": size.get("variables"),
        "extensive_rows": size.get("rows"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def execute(wl: Workload, seed: int, seconds: float, trace: bool,
            work_dir: str) -> Result:
    load_start = os.getloadavg()
    shutil.rmtree(work_dir, ignore_errors=True)
    # a traced run reads its layers from one pass of the first draw, so its
    # untraced passes, the base of trace.overhead_ratio, solve that draw too
    draws = 1 if trace else wl.draws
    seeds = [draw_seed(seed, k) for k in range(draws)]
    paths = [prepare(wl, s, os.path.join(work_dir, f"instance-{k}"))
             for k, s in enumerate(seeds)]
    # each pass writes into a new directory: rewriting files in place can
    # wait on the write-back of their previous contents
    solution_dir = lambda k: os.path.join(work_dir, f"solution-{k}")

    setup_times = []
    inputs = {}
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs[i % draws] = set_up(paths[i % draws])
        setup_times.append(time.perf_counter() - t0)

    passes = []                     # (draw, Pass)
    deadline = time.perf_counter() + seconds
    while len(passes) < draws or time.perf_counter() < deadline:
        k = len(passes) % draws
        passes.append((k, run_pass(wl, inputs[k], solution_dir(len(passes)))))
        if len(passes) == 1:
            # one command's peak: set-up plus a single pass, as on the CLI
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.collect()  # free the previous pass's programs before the next

    tracer = traced = None
    if trace:
        tracer = Tracer()
        with tracer.installed():
            with tracer.operation("setup") as setup_span:
                inp = set_up(paths[0])
            traced = run_pass(wl, inp, solution_dir("traced"), tracer)
            passes.append((0, traced))

    refs = {k: references(wl, inputs[k]) for k in range(draws)}
    for k, p in passes:
        check_against_references(p, refs[k])
    ops = [op for _, p in passes for op in p.ops]
    untraced = [p for _, p in passes if p is not traced]
    first = passes[0][1]

    if trace:
        metrics = layer_metrics(tracer, setup_span.id, traced, untraced)
        tracer.write(os.path.join(work_dir, "spans.jsonl"))
    else:
        metrics = {"setup_s": statistics.median(setup_times),
                   "run_s": statistics.median(p.wall for p in untraced),
                   "peak_rss_mb": peak_rss_mb}

    records = [op.record for op in first.ops
               if op.record.get("kind") == "benders"]
    attempted = sum(op.weight for op in ops)
    failed = sum(op.failed for op in ops)
    summary = {
        "passes": len(untraced),
        "pass_walls": [round(p.wall, 3) for p in untraced],
        "setups": len(setup_times),
        "failed_ops": failed / attempted,
        "objectives": {op.name: op.record["objective"] for op in first.ops
                       if "objective" in op.record},
        "references": {k: v for k, v in refs[0].items() if k in
                       (st.EXPECTATION, st.CVAR)},
    }
    if records:
        summary["gap_final"] = max(r["gap"] for r in records)
        summary["iterations"] = {r["risk"]: r["iterations"] for r in records}
        summary["upper_bounds"] = {r["risk"]: r["upper"] for r in records}
        summary["unconverged"] = sum(not r["converged"] for r in records)
        summary["benders_solves"] = len(records)
    fingerprint = _fingerprint(inputs[0], refs[0], first, seeds)
    fingerprint["loadavg_start"] = list(load_start)
    fingerprint["loadavg_end"] = list(os.getloadavg())
    return Result(wl.name, seed, attempted, failed,
                  [f"{op.name}: {r}" for op in ops for r in op.reasons],
                  metrics, summary, fingerprint)
