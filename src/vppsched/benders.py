"""Multi-cut Benders decomposition of the two-stage program.

The master optimizes the bid variables plus one recourse approximation
theta_s per scenario (and the tail variables when the risk measure is the
CVaR). Each iteration fixes the bids, solves every scenario subproblem
independently, reads the duals of the bid-fixing rows as subgradients of
the recourse value, and appends one optimality cut per scenario. Imbalance
volumes are unbounded, so every bid vector admits a feasible second stage
(complete recourse) and no feasibility cuts are needed; a subproblem that
still reports infeasibility indicates a physically inconsistent model and
aborts with diagnostics.

Subproblems may be solved on a thread pool; results are merged by scenario
index, so the outcome does not depend on the worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import lp
from . import market as mk
from .devices import infeasibility_suspects
from .model import ScenarioBlock, VppModel
from .scenarios import Scenario, ScenarioSet
from .stochastic import CVAR, EXPECTATION, RiskMeasure, cvar_of_samples

#: initial lower bound on each recourse approximation (currency units)
THETA_FLOOR = -1e7

#: duplicate-cut comparison tolerance
_CUT_DEDUPE_TOL = 1e-12


class BendersError(Exception):
    pass


class SubproblemInfeasible(BendersError):
    def __init__(self, scenario_index: int, suspects=()):
        msg = f"scenario subproblem {scenario_index} infeasible"
        if suspects:
            msg += f" (device suspects: {', '.join(suspects)})"
        super().__init__(msg)
        self.scenario_index = scenario_index
        self.suspects = list(suspects)


@dataclass
class BendersOptions:
    tolerance: float = 1e-6
    max_iterations: int = 200
    workers: int = 1


@dataclass
class OptimalityCut:
    scenario: int
    intercept: float
    gradient: np.ndarray          # over the flat first-stage ordering

    def matches(self, other: "OptimalityCut") -> bool:
        if self.scenario != other.scenario:
            return False
        if abs(self.intercept - other.intercept) > _CUT_DEDUPE_TOL * (
                1.0 + abs(self.intercept)):
            return False
        scale = 1.0 + float(np.max(np.abs(self.gradient), initial=0.0))
        return bool(np.all(np.abs(self.gradient - other.gradient)
                           <= _CUT_DEDUPE_TOL * scale))


@dataclass
class ConvergenceReport:
    iterations: int = 0
    lower_bounds: list[float] = field(default_factory=list)
    upper_bounds: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0
    subproblem_solves: int = 0
    converged: bool = False

    @property
    def final_gap(self) -> float:
        return self.gaps[-1] if self.gaps else math.inf


@dataclass
class BendersResult:
    first_stage: mk.FirstStageDecision
    x: np.ndarray                 # flat first-stage vector at the incumbent
    objective: float              # best realized risk value
    report: ConvergenceReport


class MasterProblem:
    """First-stage LP refined by accumulated optimality cuts."""

    def __init__(self, model: VppModel, n_scenarios: int, probs: np.ndarray,
                 risk: RiskMeasure):
        self.model = model
        self.risk = risk
        self.program = lp.LinearProgram("master")
        self.fs = model.emit_first_stage(self.program)
        self.x_indices = self.fs.flat()
        self.theta = [self.program.add_variable(THETA_FLOOR, math.inf,
                                                f"theta[{s}]")
                      for s in range(n_scenarios)]
        if risk.kind == EXPECTATION:
            for s in range(n_scenarios):
                self.program.add_objective_term(self.theta[s], float(probs[s]))
        else:
            self.gamma = self.program.add_variable(-math.inf, math.inf, "gamma")
            self.program.add_objective_term(self.gamma, 1.0)
            scale = 1.0 / (1.0 - risk.alpha)
            for s in range(n_scenarios):
                y = self.program.add_variable(0.0, math.inf, f"tail[{s}]")
                self.program.add_objective_term(y, float(probs[s]) * scale)
                self.program.add_constraint(
                    [(y, 1.0), (self.theta[s], -1.0), (self.gamma, 1.0)],
                    lp.GE, 0.0, f"tail[{s}]")
        self.cuts: list[OptimalityCut] = []

    def add_cuts(self, cuts: list[OptimalityCut]) -> int:
        """Append theta_s >= intercept + gradient . x rows, dropping cuts
        identical to one already present. Returns the number added."""
        added = 0
        for cut in cuts:
            if any(cut.matches(old) for old in self.cuts):
                continue
            terms = [(self.theta[cut.scenario], 1.0)]
            terms += [(xi, -g) for xi, g in zip(self.x_indices, cut.gradient)
                      if g != 0.0]
            self.program.add_constraint(terms, lp.GE, cut.intercept,
                                        f"cut[{cut.scenario},{len(self.cuts)}]")
            self.cuts.append(cut)
            added += 1
        return added

    def solve(self) -> tuple[float, np.ndarray]:
        sol = lp.solve(self.program)
        if sol.status != lp.OPTIMAL:
            raise BendersError(f"master problem ended with status {sol.status}")
        x_hat = sol.primal[self.x_indices]
        self._last = sol
        return sol.objective, x_hat


def solve_fixed_bids(model: VppModel, scenario: Scenario, scenario_index: int,
                     x_hat: np.ndarray) -> tuple[lp.LpSolution, ScenarioBlock]:
    """Solve one scenario's block with the bids pinned to ``x_hat``; serves
    the Benders subproblems and the detail re-solves alike."""
    template = model.template
    if template.n_first != len(x_hat):
        raise BendersError("first-stage vector length mismatch")
    block = model.scenario_data(scenario)
    sol = lp.solve(template.instantiate(block, x_hat, f"sub_{scenario_index}"))
    if sol.status == lp.INFEASIBLE:
        raise SubproblemInfeasible(
            scenario_index,
            infeasibility_suspects(model.park, scenario, model.horizon))
    if sol.status != lp.OPTIMAL:
        raise BendersError(
            f"subproblem {scenario_index} ended with status {sol.status}")
    return sol, block


def solve_subproblem(model: VppModel, scenario: Scenario, scenario_index: int,
                     x_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """Second-stage value and a subgradient at the given bids.

    The bids enter as free variables pinned by equality rows; the duals of
    those rows are exactly d(cost)/d(bid), so the returned affine function
    underestimates the recourse value everywhere (LP value functions of
    right-hand sides are convex)."""
    sol, _ = solve_fixed_bids(model, scenario, scenario_index, x_hat)
    return sol.objective, sol.duals[:len(x_hat)].copy()


def _solve_all_subproblems(model, scenarios, x_hat, workers):
    n = len(scenarios)
    costs = np.empty(n)
    grads: list[np.ndarray] = [None] * n
    if workers <= 1:
        for s in range(n):
            costs[s], grads[s] = solve_subproblem(model, scenarios[s], s, x_hat)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {s: pool.submit(solve_subproblem, model, scenarios[s],
                                      s, x_hat) for s in range(n)}
            for s in range(n):
                costs[s], grads[s] = futures[s].result()
    return costs, grads


def iterate(model: VppModel, sset: ScenarioSet, risk: RiskMeasure,
            options: BendersOptions | None = None,
            trace_cb=None) -> BendersResult:
    """Run the cut loop until the relative bound gap closes.

    Returns the incumbent decision with a convergence report; if the
    iteration limit is hit the report carries converged=False and the best
    incumbent so far."""
    options = options or BendersOptions()
    if options.tolerance <= 0:
        raise BendersError("tolerance must be positive")
    if len(sset) == 0:
        raise BendersError("empty scenario set")
    model.validate()
    model.template  # compile the block once, before the thread pool starts
    probs = sset.probabilities()
    master = MasterProblem(model, len(sset), probs, risk)
    report = ConvergenceReport()
    start = time.perf_counter()

    best_obj = math.inf
    best_x = None
    for it in range(1, options.max_iterations + 1):
        lower, x_hat = master.solve()
        costs, grads = _solve_all_subproblems(model, sset.scenarios, x_hat,
                                              options.workers)
        report.subproblem_solves += len(sset)
        realized = cvar_of_samples(costs, probs, risk.alpha) \
            if risk.kind == CVAR else float(probs @ costs)
        if realized < best_obj:
            best_obj = realized
            best_x = x_hat.copy()
        if lower - best_obj > options.tolerance * max(1.0, abs(best_obj)):
            raise BendersError(f"lower bound {lower!r} exceeds upper bound "
                               f"{best_obj!r} at iteration {it}: a cut is "
                               f"invalid")
        gap = max(best_obj - lower, 0.0) / max(1.0, abs(best_obj))
        report.iterations = it
        report.lower_bounds.append(lower)
        report.upper_bounds.append(best_obj)
        report.gaps.append(gap)
        if trace_cb is not None:
            trace_cb(it, lower, best_obj, gap, time.perf_counter() - start)
        if gap <= options.tolerance:
            report.converged = True
            break
        cuts = []
        for s in range(len(sset)):
            intercept = float(costs[s] - grads[s] @ x_hat)
            cut = OptimalityCut(s, intercept, grads[s])
            # audit: the cut must reproduce the subproblem value at x_hat
            resid = abs(intercept + float(grads[s] @ x_hat) - costs[s])
            if resid > 1e-6 * (1.0 + abs(costs[s])):
                raise BendersError(f"invalid cut for scenario {s}: "
                                   f"residual {resid:.3e}")
            cuts.append(cut)
        master.add_cuts(cuts)

    report.wall_time_s = time.perf_counter() - start
    return BendersResult(model.first_stage_decision(best_x), best_x, best_obj,
                         report)
