"""Multi-cut Benders decomposition of the two-stage program.

The master optimizes the bid variables plus one recourse approximation
theta_s per scenario under the risk objective of ``stochastic`` (and its
tail rows when the risk measure is the CVaR). Each iteration fixes the
bids at a separation point, solves every scenario subproblem independently,
reads the reduced costs of the bid columns as subgradients of the recourse
value, and appends one optimality cut per scenario. The separation point is
the in-out point IN_OUT_ALPHA * core + (1 - IN_OUT_ALPHA) * x_master, with
IN_OUT_ALPHA = 0.8 (Ben-Ameur & Neto 2007; Fischetti, Ljubic & Sinnl 2017),
whose core is the incumbent (first the first master optimum x_master), and
also x_master itself (a Kelley step) when no cut from the in-out point
lifts a theta_s above its master value there; the master optimum stays the
lower bound. The report of a run is its iteration trace, one row per master
solve as ``trace.csv`` records it. Imbalance volumes are unbounded, so
every bid vector admits a feasible second stage (complete recourse) and no
feasibility cuts are needed; a subproblem that still reports infeasibility
indicates a physically inconsistent model and aborts with
``stochastic.ModelInfeasible``, naming the template rows of the Farkas ray
its held model keeps (``lp.certificate_rows``).

The recourse is fixed, so every subproblem is the compiled block under one
scenario's data, a row of the run's ``model.ScenarioData``, with each
separation point's bids written into every row at once as the bounds of
the first-stage columns (``Recourse``). Each scenario keeps one
``lp.HeldModel``, which HiGHS receives once and afterwards only the bids,
re-solving with dual simplex from the basis it holds. Only scenario 0's
first solve starts cold; every other one starts from a copy of its
optimal basis (the bunching of the L-shaped method, Birge & Louveaux
2011). The master is held the same way: its head is passed once and each
solve sends only the cut rows accepted since the last one, entering with
basic slacks. The held models live for the run, about 0.85 MB each on
``day``. The solves may run on a thread pool opened once per run
(``worker_map``), everything else on the calling thread, and each
scenario's sequence of solves is its own, so the outcome does not depend
on the worker count.

The subproblems are screened by one ``lp.Screen``: HiGHS sees a lazy
network limit, and the derived branch-flow block (see ``network``), only
once some scenario's completed primal violates one. A pass solves its
scenarios, then completes, settles and checks them all at once; the check
(``lp.Screen.restate``) states what any primal breaks, with the block, for
every scenario, and the violating ones re-solve at the same bids in the
next pass. A relaxed value and its cut underestimate the recourse value,
so every cut is valid; the values that set the incumbent are exact.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from . import lp
from . import market as mk
from .model import ScenarioBlock, VppModel
from .scenarios import Scenario, ScenarioSet
from .stochastic import ModelInfeasible, RiskMeasure, add_risk_objective, \
    risk_functional

#: initial lower bound on each recourse approximation (currency units)
THETA_FLOOR = -1e7

#: duplicate-cut comparison tolerance
_CUT_DEDUPE_TOL = 1e-12

#: weight of the core in the separation point of in-out separation
#: (Ben-Ameur & Neto 2007; Fischetti, Ljubic & Sinnl 2017)
IN_OUT_ALPHA = 0.8


class BendersError(Exception):
    pass


@dataclass
class BendersOptions:
    tolerance: float = 1e-6
    max_iterations: int = 200
    workers: int = 1

    def __post_init__(self):
        if not self.tolerance > 0:
            raise BendersError("tolerance must be positive")
        if self.max_iterations < 1:
            raise BendersError("max_iterations must be at least 1")
        if self.workers < 1:
            raise BendersError("workers must be at least 1")


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
    """First-stage LP refined by optimality cuts, held in one
    ``lp.HeldModel``: a head built once (the bids, theta_s and the risk
    objective over them) and passed to HiGHS once, and the cuts, kept once
    as arrays in acceptance order, each sent to HiGHS once, as a new row
    with a basic slack, before the solve after its acceptance."""

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
        self.held = lp.HeldModel(self.head)
        #: the number of cuts HiGHS holds
        self._sent = 0
        #: simplex iterations of the last solve
        self.iterations = 0
        #: theta_s at the optimum of the last solve
        self.theta_hat = np.zeros(n_scenarios)

    @property
    def num_cuts(self) -> int:
        return len(self.intercepts)

    def add_cuts(self, scenarios, intercepts, gradients) -> int:
        """Append cut k, theta_s >= intercepts[k] + gradients[k] . x for
        s = scenarios[k], unless a cut for s already held or accepted
        earlier in the call matches it: intercepts within
        _CUT_DEDUPE_TOL * (1 + |intercept|) and every gradient entry within
        _CUT_DEDUPE_TOL * (1 + max |gradient|). The accepted cuts are
        appended together. Returns the number added."""
        accepted = []
        for s, b, g in zip(scenarios, intercepts, gradients):
            tol_b = _CUT_DEDUPE_TOL * (1.0 + abs(b))
            tol_g = _CUT_DEDUPE_TOL * (1.0 + float(np.max(np.abs(g), initial=0.0)))
            # the held cuts of s are compared by intercept first, so only
            # those whose intercept matches have their gradients read
            near = np.flatnonzero((self.scenarios == s)
                                  & (np.abs(self.intercepts - b) <= tol_b))
            if not (np.all(np.abs(self.gradients[near] - g) <= tol_g, axis=1).any()
                    or any(s2 == s and abs(b2 - b) <= tol_b
                           and np.all(np.abs(g2 - g) <= tol_g)
                           for s2, b2, g2 in accepted)):
                accepted.append((s, b, g))
        if accepted:
            new_s, new_b, new_g = zip(*accepted)
            self.scenarios = np.append(self.scenarios, new_s)
            self.intercepts = np.append(self.intercepts, new_b)
            self.gradients = np.vstack((self.gradients, *new_g))
        return len(accepted)

    def _cut_rows(self, first: int = 0) -> csr_matrix:
        """The rows of the cuts from ``first`` on,
        theta_s - gradient . x >= intercept, its zero gradient entries
        left out."""
        gradients = self.gradients[first:]
        columns = np.column_stack((
            np.broadcast_to(self.x_indices, gradients.shape),
            self.theta[self.scenarios[first:]]))
        coef = np.column_stack((-gradients, np.ones(len(gradients))))
        keep = coef != 0.0
        return csr_matrix((coef[keep], columns[keep],
                           np.r_[0, np.cumsum(keep.sum(1))]),
                          shape=(len(gradients), len(self.head.lower)))

    def solve(self) -> tuple[float, np.ndarray]:
        if self.num_cuts > self._sent:
            self.held.add_rows(self._cut_rows(self._sent),
                               self.intercepts[self._sent:],
                               np.full(self.num_cuts - self._sent, np.inf))
            self._sent = self.num_cuts
        sol = self.held.solve()
        self.iterations = sol.iterations
        if sol.status != lp.OPTIMAL:
            raise BendersError(f"master problem ended with status {sol.status}")
        self.theta_hat = sol.primal[self.theta]
        return sol.objective, sol.primal[self.x_indices]


@contextmanager
def worker_map(workers: int):
    """A ``map`` that runs its calls on a pool of ``workers`` threads, open
    for the block, and returns their results in input order; on one worker,
    the built-in ``map`` and no pool. A call that raises re-raises when its
    result is reached, so the first failure in input order surfaces."""
    if workers == 1:
        yield map
        return
    with ThreadPoolExecutor(workers) as pool:
        yield pool.map


def _checked(sol: lp.LpSolution, scenario_index: int,
             run: Recourse | None = None) -> lp.LpSolution:
    """``sol``, the subproblem's solve, if optimal; if infeasible, raises
    ``ModelInfeasible`` naming the template rows of the ray the held model
    of a ``run`` kept (``lp.certificate_rows``), else BendersError."""
    if sol.status == lp.INFEASIBLE:
        rows = [] if run is None else [run.program.row_names[r] for r in
                                       lp.certificate_rows(sol, run.screen)]
        raise ModelInfeasible(scenario_index, rows)
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
    data = model.scenario_data([scenario])[0]
    sol = lp.solve(template.instantiate(data, x_hat, f"sub_{scenario_index}"))
    return _checked(sol, scenario_index), ScenarioBlock(
        scenario, template, data, np.arange(len(data.lower)))


@dataclass
class Subproblem:
    """Scenario ``index`` of a run (``Recourse``), an index into its rows
    of data and primals: the held model of its relaxed form, from its first
    solve on, and the basis that first solve starts from, if set."""

    index: int
    held: lp.HeldModel | None = None
    seed: object = None


class Recourse:
    """The subproblems of a Benders run over ``scenarios``, on ``model``'s
    compiled block: the scenarios' data, filled in once (row s scenario
    s's), and their net costs; the ``lp.Screen`` all share, its form
    matrix, and the block's factor if no screen made it yet, made here on
    the calling thread; a ``Subproblem`` per scenario; and the completed
    primals of their last solves, one row each (NaN if unbounded)."""

    def __init__(self, model: VppModel, scenarios: list[Scenario]):
        template = model.template
        self.program, self.n_first = template.program, template.n_first
        self.data = model.scenario_data(scenarios)
        self.cost = self.data.net_cost()
        self.screen = lp.Screen(self.program)
        self.screen.form_matrix
        self.subs = [Subproblem(s) for s in range(len(self.cost))]
        self.primal = np.full(self.cost.shape, np.nan)

    def solve(self, x: np.ndarray, parallel_map=map):
        """Each scenario's second-stage value and a subgradient at the bids
        ``x``, written into every row, of the relaxation the stated limits
        leave (NaN while unbounded), and the simplex iterations spent. A
        pass solves its scenarios (``solve_subproblem``) on
        ``parallel_map``, then completes, settles and checks
        (``lp.Screen.restate``) them all at once: first every scenario, a
        run's first from scenario 0's optimal basis, then those whose
        primal broke a limit the pass before stated, until none does.

        The reduced costs of the bid columns, fixed by their bounds, are
        d(cost)/d(bid) (0 for a degenerate basic one), a subgradient: each
        cut underestimates the relaxed recourse value (convex in the bounds)
        and so the recourse value, which it equals once no limit is broken."""
        n, screen, S = self.n_first, self.screen, len(self.subs)
        if len(x) != n:
            raise BendersError("first-stage vector length mismatch")
        self.data.lower[:, :n] = self.data.upper[:, :n] = x
        values, gradients = np.full(S, np.nan), np.full((S, n), np.nan)
        again, iterations = list(range(S)), 0
        while again:
            subs = [self.subs[s] for s in again]
            sols = []
            if subs[0].held is None:
                sols.append(solve_subproblem(self, subs[0]))
                for sub in subs[1:]:
                    sub.seed = subs[0].held.basis
            sols += parallel_map(solve_subproblem, repeat(self),
                                 subs[len(sols):])
            iterations += sum(sol.iterations for sol in sols)
            solved = [k for k, sol in enumerate(sols) if sol.status == lp.OPTIMAL]
            rows = slice(None) if len(solved) == S else np.array(again)[solved]
            settled = iter(solved and screen.settled(
                [sols[k] for k in solved], screen.complete(
                    [sols[k].primal for k in solved], self.data[rows],
                    self.cost[rows]), self.cost[rows]))
            for s, sol in zip(again, sols):
                self.primal[s] = np.nan
                if sol.status == lp.OPTIMAL:
                    sol = next(settled)
                elif sol.status == lp.UNBOUNDED and not screen.all_stated:
                    continue
                _checked(sol, s, self)
                self.primal[s], values[s] = sol.primal, sol.objective
                gradients[s] = sol.column_duals[:n]
            again = screen.restate(self.primal, self.data,
                                   [sub.held for sub in self.subs])
        return values, gradients, iterations


def solve_subproblem(run: Recourse, sub: Subproblem) -> lp.LpSolution:
    """The relaxed form of scenario ``sub.index`` at the bids in its row of
    the run's data, solved by the subproblem's held model: built on the
    first solve, from a copy of ``sub.seed`` if set, and afterwards sent
    only the bids, as the bounds of the first-stage columns."""
    n, s = run.n_first, sub.index
    if sub.held is None:
        sub.held = lp.HeldModel(run.screen.relaxed(run.data[s], run.cost[s]),
                                sub.seed)
    else:
        bids = run.data.lower[s, :n]
        sub.held.set_column_bounds(np.arange(n), bids, bids)
    return sub.held.solve()


def iterate(model: VppModel, sset: ScenarioSet, risk: RiskMeasure,
            options: BendersOptions | None = None) -> BendersResult:
    """Run the cut loop until the relative bound gap closes.

    Returns the incumbent decision with a convergence report; if the
    iteration limit is hit the report carries converged=False and the best
    incumbent so far."""
    options = options or BendersOptions()
    if len(sset) == 0:
        raise BendersError("empty scenario set")
    model.validate()
    probs = sset.probabilities()
    master = MasterProblem(model, len(sset), probs, risk)
    recourse = Recourse(model, sset.scenarios)
    report = ConvergenceReport()
    start = time.perf_counter()

    best_obj = math.inf
    best_x = None
    with worker_map(options.workers) as parallel_map:

        def separate(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
            """Solve every subproblem at ``x``, make ``x`` the incumbent
            (and so the core) if its realized risk value beats it, and
            return the audited cuts, one per scenario, with the simplex
            iterations spent."""
            nonlocal best_obj, best_x
            costs, gradients, iterations = recourse.solve(x, parallel_map)
            realized = risk_functional(costs, probs, risk)
            if realized < best_obj:
                best_obj = realized
                best_x = x.copy()
            # audit: each cut must be finite and reproduce the subproblem
            # value at x (a NaN fails the comparison)
            slopes = gradients @ x
            intercepts = costs - slopes
            resid = np.abs(intercepts + slopes - costs)
            bad = ~(np.isfinite(gradients).all(axis=1)
                    & (resid <= 1e-6 * (1.0 + np.abs(costs))))
            if bad.any():
                s = int(np.argmax(bad))
                raise BendersError(f"invalid cut for scenario {s}: "
                                   f"residual {resid[s]:.3e}")
            return intercepts, gradients, iterations

        for it in range(1, options.max_iterations + 1):
            lower, x_master = master.solve()
            theta = master.theta_hat
            # the core is the incumbent, so the first iteration has none;
            # the master optimum is separated only if the cuts before it
            # leave every theta_s at x_master where the master put it
            points = [x_master] if best_x is None else \
                [IN_OUT_ALPHA * best_x + (1.0 - IN_OUT_ALPHA) * x_master,
                 x_master]
            rounds = []
            for x in points:
                rounds.append(separate(x))
                intercepts, gradients, _ = rounds[-1]
                if np.any(intercepts + gradients @ x_master
                          > theta + 1e-9 * (1.0 + np.abs(theta))):
                    break
            if lower - best_obj > options.tolerance * max(1.0, abs(best_obj)):
                raise BendersError(f"lower bound {lower!r} exceeds upper bound "
                                   f"{best_obj!r} at iteration {it}: a cut is "
                                   f"invalid")
            gap = (best_obj - lower) / max(1.0, abs(best_obj))
            report.converged = gap <= options.tolerance
            added = 0
            if not report.converged:
                added = sum(master.add_cuts(range(len(sset)), intercepts,
                                            gradients)
                            for intercepts, gradients, _ in rounds)
            report.trace.append(TraceRow(
                it, lower, best_obj, gap, time.perf_counter() - start,
                master.iterations + sum(n for _, _, n in rounds), added))
            if report.converged:
                break

    return BendersResult(model.first_stage_decision(best_x), best_x, best_obj,
                         report)
