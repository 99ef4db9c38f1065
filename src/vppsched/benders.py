"""Multi-cut Benders decomposition of the two-stage program.

The master optimizes the bid variables plus one recourse approximation
theta_s per scenario under the risk objective of ``stochastic`` (and its
tail rows when the risk measure is the CVaR). Each iteration fixes the
bids, solves every scenario subproblem independently, reads the duals of
the bid-fixing rows as subgradients of the recourse value, and appends
one optimality cut per scenario. The report of a run is its iteration
trace, one row per iteration as ``trace.csv`` records it. Imbalance
volumes are unbounded, so every bid vector admits a feasible second stage
(complete recourse) and no feasibility cuts are needed; a subproblem that
still reports infeasibility indicates a physically inconsistent model and
aborts with diagnostics.

The recourse is fixed, so every subproblem is the same matrix with its own
costs, bounds and right-hand sides: the run builds that matrix once, keeps
per scenario only its data vectors and the basis of its last solve, and
each iteration changes only the bids on the fixing rows and re-solves from
that basis. The master likewise re-solves from its previous basis, the new
cut rows entering with basic slacks. Subproblems may be solved on a thread
pool opened once per run; results are merged by scenario index, and each
scenario's sequence of solves is its own, so the outcome does not depend on
the worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from . import lp
from . import market as mk
from .devices import infeasibility_suspects
from .model import ScenarioBlock, VppModel
from .scenarios import Scenario, ScenarioSet
from .stochastic import RiskMeasure, add_risk_objective, risk_functional

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


class TraceRow(NamedTuple):
    """One iteration: its bounds and gap, seconds since the start, simplex
    iterations of its master and subproblem solves, cuts it added."""

    iteration: int
    lower_bound: float
    upper_bound: float
    gap: float
    wall_time_s: float
    simplex_iters: int
    cuts_added: int


@dataclass
class ConvergenceReport:
    trace: list[TraceRow] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.trace)


@dataclass
class BendersResult:
    first_stage: mk.FirstStageDecision
    x: np.ndarray                 # flat first-stage vector at the incumbent
    objective: float              # best realized risk value
    report: ConvergenceReport


class MasterProblem:
    """First-stage LP refined by optimality cuts, re-solved from the basis
    of its previous solve: a head built once (the bids, theta_s and the
    risk objective over them) and the cuts, kept once as arrays in
    acceptance order, so that new cut rows come last."""

    def __init__(self, model: VppModel, n_scenarios: int, probs: np.ndarray,
                 risk: RiskMeasure):
        self.head = lp.LinearProgram("master")
        self.x_indices = np.array(model.emit_first_stage(self.head).flat())
        self.theta = np.array([self.head.add_variable(THETA_FLOOR, math.inf,
                                                      f"theta[{s}]")
                               for s in range(n_scenarios)])
        add_risk_objective(self.head, risk, probs,
                           [(self.theta[s:s + 1], np.ones(1))
                            for s in range(n_scenarios)])
        self.scenarios = np.zeros(0, dtype=np.int64)
        self.intercepts = np.zeros(0)
        self.gradients = np.zeros((0, len(self.x_indices)))
        self.basis = None
        #: simplex iterations of the last solve
        self.iterations = 0

    @property
    def num_cuts(self) -> int:
        return len(self.intercepts)

    def add_cuts(self, cuts: list[OptimalityCut]) -> int:
        """Append the cuts, dropping those that match
        (``OptimalityCut.matches``) one already present for their
        scenario. Returns the number added."""
        added = 0
        for cut in cuts:
            s, g, b = cut.scenario, cut.gradient, cut.intercept
            mine = self.scenarios == s
            scale = 1.0 + float(np.max(np.abs(g), initial=0.0))
            if np.any((np.abs(self.intercepts[mine] - b)
                       <= _CUT_DEDUPE_TOL * (1.0 + abs(b)))
                      & np.all(np.abs(self.gradients[mine] - g)
                               <= _CUT_DEDUPE_TOL * scale, axis=1)):
                continue
            self.scenarios = np.append(self.scenarios, s)
            self.intercepts = np.append(self.intercepts, b)
            self.gradients = np.vstack((self.gradients, g))
            added += 1
        return added

    def form(self) -> lp.ColumnForm:
        """The head's rows and then one row per cut,
        theta_s - gradient . x >= intercept, its zero gradient entries
        left out."""
        head, k = self.head, self.num_cuts
        columns = np.column_stack((
            self.theta[self.scenarios],
            np.broadcast_to(self.x_indices, self.gradients.shape)))
        coef = np.column_stack((np.ones(k), -self.gradients))
        keep = coef != 0.0
        matrix = csr_matrix(
            (np.r_[head.data, coef[keep]], np.r_[head.indices, columns[keep]],
             np.r_[head.indptr, head.indptr[-1] + np.cumsum(keep.sum(1))]),
            shape=(len(head.rhs) + k, len(head.lower)))
        row_lo, row_hi = lp.row_bounds(head.sense, head.rhs)
        return lp.ColumnForm(matrix.tocsc(), head.cost, head.lower, head.upper,
                             np.r_[row_lo, self.intercepts],
                             np.r_[row_hi, np.full(k, np.inf)])

    def solve(self) -> tuple[float, np.ndarray]:
        form = self.form()
        if self.basis is not None:
            lp.with_basic_rows(self.basis, len(form.row_lo)
                               - len(self.basis.row_status))
        sol, self.basis = lp.solve_warm(form, self.basis)
        self.iterations = sol.iterations
        if sol.status != lp.OPTIMAL:
            raise BendersError(f"master problem ended with status {sol.status}")
        return sol.objective, sol.primal[self.x_indices]


def _checked(sol: lp.LpSolution, model: VppModel, scenario: Scenario,
             scenario_index: int) -> lp.LpSolution:
    if sol.status == lp.INFEASIBLE:
        raise SubproblemInfeasible(
            scenario_index,
            infeasibility_suspects(model.park, scenario, model.horizon))
    if sol.status != lp.OPTIMAL:
        raise BendersError(
            f"subproblem {scenario_index} ended with status {sol.status}")
    return sol


def solve_fixed_bids(model: VppModel, scenario: Scenario, scenario_index: int,
                     x_hat: np.ndarray) -> tuple[lp.LpSolution, ScenarioBlock]:
    """Solve one scenario's block with the bids pinned to ``x_hat``, cold;
    serves the detail re-solves."""
    template = model.template
    if template.n_first != len(x_hat):
        raise BendersError("first-stage vector length mismatch")
    block = model.scenario_data(scenario)
    sol = lp.solve(template.instantiate(block, x_hat, f"sub_{scenario_index}"))
    return _checked(sol, model, scenario, scenario_index), block


@dataclass
class Subproblem:
    """One scenario's subproblem in a Benders run: its data on the matrix
    all scenarios share, and the basis of its last solve."""

    model: VppModel
    index: int
    scenario: Scenario
    form: lp.ColumnForm
    basis: object = None
    #: simplex iterations of the last solve
    iterations: int = 0


def subproblems(model: VppModel, scenarios: list[Scenario]) -> list[Subproblem]:
    """The subproblems of a run: the compiled block with the bid-fixing
    rows ``fix[j]`` in front, as ``BlockTemplate.instantiate`` lays it out,
    in column-wise form once; per scenario its costs, bounds and rows."""
    template = model.template
    matrix = None
    subs = []
    for s, scenario in enumerate(scenarios):
        program = template.instantiate(model.scenario_data(scenario),
                                       np.zeros(template.n_first))
        if matrix is None:
            matrix = program.matrix.tocsc()
        subs.append(Subproblem(model, s, scenario, lp.ColumnForm(
            matrix, program.cost, program.lower, program.upper,
            *lp.row_bounds(program.sense, program.rhs))))
    return subs


def solve_subproblem(sub: Subproblem,
                     x_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """Second-stage value and a subgradient at the given bids, solved from
    the subproblem's last basis.

    The bids enter as free variables pinned by equality rows; the duals of
    those rows are exactly d(cost)/d(bid), so the returned affine function
    underestimates the recourse value everywhere (LP value functions of
    right-hand sides are convex)."""
    n = len(x_hat)
    if sub.model.template.n_first != n:
        raise BendersError("first-stage vector length mismatch")
    sub.form.row_lo[:n] = sub.form.row_hi[:n] = x_hat
    sol, sub.basis = lp.solve_warm(sub.form, sub.basis)
    sub.iterations = sol.iterations
    _checked(sol, sub.model, sub.scenario, sub.index)
    return sol.objective, sol.duals[:n].copy()


def iterate(model: VppModel, sset: ScenarioSet, risk: RiskMeasure,
            options: BendersOptions | None = None) -> BendersResult:
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
    probs = sset.probabilities()
    master = MasterProblem(model, len(sset), probs, risk)
    subs = subproblems(model, sset.scenarios)
    report = ConvergenceReport()
    start = time.perf_counter()

    best_obj = math.inf
    best_x = None
    with ThreadPoolExecutor(options.workers) if options.workers > 1 \
            else nullcontext() as pool:
        for it in range(1, options.max_iterations + 1):
            lower, x_hat = master.solve()
            values = list((pool.map if pool else map)(solve_subproblem, subs,
                                                      repeat(x_hat)))
            realized = risk_functional([cost for cost, _ in values], probs,
                                       risk)
            if realized < best_obj:
                best_obj = realized
                best_x = x_hat.copy()
            if lower - best_obj > options.tolerance * max(1.0, abs(best_obj)):
                raise BendersError(f"lower bound {lower!r} exceeds upper bound "
                                   f"{best_obj!r} at iteration {it}: a cut is "
                                   f"invalid")
            gap = max(best_obj - lower, 0.0) / max(1.0, abs(best_obj))
            report.converged = gap <= options.tolerance
            added = 0 if report.converged else master.add_cuts(
                [_cut(s, cost, grad, x_hat)
                 for s, (cost, grad) in enumerate(values)])
            report.trace.append(TraceRow(
                it, lower, best_obj, gap, time.perf_counter() - start,
                master.iterations + sum(sub.iterations for sub in subs), added))
            if report.converged:
                break

    return BendersResult(model.first_stage_decision(best_x), best_x, best_obj,
                         report)


def _cut(s: int, cost: float, grad: np.ndarray, x_hat: np.ndarray) -> OptimalityCut:
    intercept = float(cost - grad @ x_hat)
    # audit: the cut must reproduce the subproblem value at x_hat
    resid = abs(intercept + float(grad @ x_hat) - cost)
    if resid > 1e-6 * (1.0 + abs(cost)):
        raise BendersError(f"invalid cut for scenario {s}: residual {resid:.3e}")
    return OptimalityCut(s, intercept, grad)
