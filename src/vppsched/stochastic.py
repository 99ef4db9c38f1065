"""The risk layer of the two-stage program, its extensive form, and the
empirical tail-risk evaluator.

Risk handling: under expectation the objective is the probability-weighted
sum of scenario net costs. Under the tail measure the objective is
gamma + sum_s pi_s * y_s / (1 - alpha) with y_s >= C_s - gamma, y_s >= 0,
the standard linear certainty-equivalent of the expected cost in the worst
(1 - alpha) tail. Minimizing it penalizes adverse cost realizations.
``add_risk_objective`` writes this objective into a program once, for any
per-scenario cost terms: the extensive form passes each block's net cost,
the Benders master its recourse approximations theta_s.
``risk_functional`` evaluates the same measure on realized costs.

The extensive form stacks the compiled scenario block once per scenario:
the template's rows repeat with the block columns shifted by a per-scenario
offset, the first-stage columns are shared (so non-anticipativity holds by
construction), and each scenario supplies only its costs, right-hand sides
and column bounds. An infeasible extensive form is explained by one held
solve of its relaxed form: the rows of HiGHS's Farkas ray form an
infeasible subsystem (``lp.certificate_rows``), which ``ModelInfeasible``
names with the scenario block it lies in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from . import market as mk
from .model import ScenarioBlock, VppModel
from .scenarios import ScenarioSet

EXPECTATION = "expectation"
CVAR = "cvar"


class StochasticError(Exception):
    pass


class ModelInfeasible(StochasticError):
    """The model admits no solution. ``rows`` names the rows of the
    solver's Farkas certificate, which admit no point with the column
    bounds (none without one), and ``scenario_index`` the scenario block
    they lie in, None when they span blocks (first-stage coupling)."""

    def __init__(self, scenario_index=None, rows=()):
        self.scenario_index = scenario_index
        self.rows = list(rows)
        msg = "model infeasible" if scenario_index is None \
            else f"scenario block {scenario_index} is infeasible"
        if not self.rows:
            msg += " (the solver gave no certificate)"
        else:
            if scenario_index is None:
                msg += " through first-stage coupling"
            shown = self.rows[:10] + ["..."] * (len(self.rows) > 10)
            msg += (f"; the certificate names {len(self.rows)} rows: "
                    f"{', '.join(shown)}")
        super().__init__(msg)


@dataclass(frozen=True)
class RiskMeasure:
    kind: str
    alpha: float = 0.9

    def __post_init__(self):
        if self.kind not in (EXPECTATION, CVAR):
            raise StochasticError(f"unknown risk measure {self.kind!r}")
        # checked under both measures: the evaluator reports the cost CVaR
        # at alpha for every solution
        if not (0.0 < self.alpha < 1.0):
            raise StochasticError("alpha must lie in (0, 1)")


@dataclass
class ExtensiveForm:
    program: lp.LinearProgram
    first_stage: mk.FirstStageVars
    blocks: list[ScenarioBlock]


@dataclass
class ExtensiveSolution:
    objective: float
    first_stage: mk.FirstStageDecision
    breakdowns: list[mk.CostBreakdown]
    scenario_costs: np.ndarray
    solution: lp.LpSolution


def build_extensive(model: VppModel, sset: ScenarioSet,
                    risk: RiskMeasure) -> ExtensiveForm:
    """One LP over all scenarios: the compiled block stacked once per
    scenario, block columns shifted, around the shared bid columns (so
    non-anticipativity holds by construction). Each copy keeps the
    template's lazy rows and derived block, moved to its own rows and
    columns, and its block is completed on the template's factor
    (``lp.Marks.tiled``)."""
    if len(sset) == 0:
        raise StochasticError("empty scenario set")
    model.validate()
    tpl = model.template
    p, nf, nb, S = tpl.program, tpl.n_first, tpl.n_block, len(sset)
    blocks = [model.scenario_data(scen, k * nb)
              for k, scen in enumerate(sset.scenarios)]
    program = lp.LinearProgram(
        "extensive",
        lambda: p.col_names[:nf] + [f"s{k}_{name}" for k in range(S)
                                    for name in p.col_names[nf:]],
        lambda: [f"s{k}_{name}" for k in range(S) for name in p.row_names],
        lower=np.concatenate([p.lower[:nf]] + [b.lower[nf:] for b in blocks]),
        upper=np.concatenate([p.upper[:nf]] + [b.upper[nf:] for b in blocks]),
        cost=np.zeros(nf + S * nb),
        indptr=np.r_[0, np.cumsum(np.tile(np.diff(p.indptr), S))],
        indices=np.concatenate([b.columns[p.indices] for b in blocks]),
        data=np.tile(p.data, S), sense=np.tile(p.sense, S),
        rhs=np.concatenate([b.rhs for b in blocks]),
        marks=lp.Marks.tiled(p, [b.columns for b in blocks]))
    add_risk_objective(program, risk, sset.probabilities(),
                       [(block.columns, block.net_cost()) for block in blocks])
    return ExtensiveForm(program, tpl.first_stage, blocks)


def add_risk_objective(program: lp.LinearProgram, risk: RiskMeasure,
                       probs: np.ndarray, costs) -> None:
    """Add to ``program`` the objective of the risk measure over the
    scenario costs C_s = coefficients . x[columns], one
    ``(columns, coefficients)`` pair per scenario in ``costs``; under the
    CVaR with the columns ``gamma`` and ``tail[s]`` and the rows
    ``tail[s]``."""
    if risk.kind == EXPECTATION:
        add_expected_cost(program.cost, probs, costs)
        return
    gamma = program.add_variable(-math.inf, math.inf, "gamma")
    program.add_objective_term(gamma, 1.0)
    scale = 1.0 / (1.0 - risk.alpha)
    for k, (pi, (columns, coef)) in enumerate(zip(probs, costs)):
        y = program.add_variable(0.0, math.inf, f"tail[{k}]")
        program.add_objective_term(y, pi * scale)
        nz = np.flatnonzero(coef)
        program.add_constraint([(y, 1.0), (gamma, 1.0)]
                               + list(zip(columns[nz], -coef[nz])),
                               lp.GE, 0.0, f"tail[{k}]")


def add_expected_cost(cost: np.ndarray, probs: np.ndarray, costs) -> None:
    """Add to the cost vector ``cost`` the expectation of the scenario costs
    given as in ``add_risk_objective``: each scenario's coefficients on its
    columns, weighted by its probability, scenario after scenario."""
    for pi, (columns, coef) in zip(probs, costs):
        cost[columns] += pi * coef


def _diagnose_infeasible(model: VppModel, ef: ExtensiveForm) -> ModelInfeasible:
    """Name the rows of the Farkas certificate of one held solve of the
    extensive form's relaxed form (``lp.certificate_rows``), and the
    scenario block they lie in: row r of the stacked copies lies in block
    r // m, m the template's row count."""
    program = ef.program
    screen = lp.Screen(program)
    sol = lp.solve_held(lp.HeldModel(screen.relaxed(program)), screen,
                        program, program.cost)
    rows = lp.certificate_rows(sol, screen)
    blocks = np.unique(rows // model.template.program.num_constraints)
    names = program.row_names
    return ModelInfeasible(
        int(blocks[0]) if len(blocks) == 1 and blocks[0] < len(ef.blocks)
        else None, [names[r] for r in rows])


def solve_extensive(model: VppModel, ef: ExtensiveForm,
                    sset: ScenarioSet) -> ExtensiveSolution:
    """Solve the extensive form; if infeasible, raises the report of
    ``_diagnose_infeasible``."""
    sol = lp.solve(ef.program)
    if sol.status == lp.INFEASIBLE:
        raise _diagnose_infeasible(model, ef)
    return extensive_solution(model, ef, sset, sol)


def extensive_solution(model: VppModel, ef: ExtensiveForm, sset: ScenarioSet,
                       sol: lp.LpSolution) -> ExtensiveSolution:
    """The solution of the extensive form from the solver's report on its
    program: raises ``StochasticError`` unless the report is optimal."""
    if sol.status != lp.OPTIMAL:
        raise StochasticError(f"extensive form ended with status {sol.status}")
    breakdowns = [block.breakdown(sol.primal) for block in ef.blocks]
    costs = np.array([b.total for b in breakdowns])
    decision = model.first_stage_decision(sol.primal[ef.first_stage.flat()])
    return ExtensiveSolution(sol.objective, decision, breakdowns, costs, sol)


def cvar_of_samples(costs, probs, alpha: float) -> float:
    """Expected cost over the worst (1 - alpha) probability mass, computed
    exactly by sorting and splitting the atom that straddles the quantile."""
    costs = np.asarray(costs, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if costs.size == 0:
        raise StochasticError("empty sample")
    if costs.shape != probs.shape:
        raise StochasticError("costs and probabilities differ in length")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise StochasticError("probabilities must sum to one")
    if not (0.0 < alpha < 1.0):
        raise StochasticError("alpha must lie in (0, 1)")
    order = np.argsort(-costs, kind="stable")
    tail_mass = 1.0 - alpha
    remaining = tail_mass
    acc = 0.0
    for i in order:
        take = min(float(probs[i]), remaining)
        acc += take * float(costs[i])
        remaining -= take
        if remaining <= 1e-15:
            break
    return acc / tail_mass


def risk_functional(costs, probs, risk: RiskMeasure) -> float:
    """The risk measure of realized scenario costs."""
    if risk.kind == EXPECTATION:
        return float(np.asarray(probs) @ np.asarray(costs))
    return cvar_of_samples(costs, probs, risk.alpha)
