"""Sparse minimization LPs with primal solutions and constraint duals.

The container holds its program in arrays: column bounds and costs, and
the rows as a sparse matrix with a sense and a right-hand side each. It
grows through ``add_*`` or is built from arrays in one step. ``solve``
hands the program to HiGHS dual simplex (via scipy) and reports primal
values, per-constraint dual multipliers, and bound multipliers.

A column upper bound, a right-hand side or a labelled cost may be left to
data: ``Data`` names the series entry that supplies it, and the program
records each such slot for whoever fills it in.

Dual convention: every dual is the sensitivity of the optimal objective
to that constraint's right-hand side (d obj / d rhs). In a minimization
this means duals of ``>=`` rows are nonnegative, duals of ``<=`` rows are
nonpositive, and duals of ``==`` rows are free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

LE = "<="
GE = ">="
EQ = "=="

SENSES = (LE, GE, EQ)

#: slot targets besides cost labels: a column upper bound, a row rhs
UPPER = "upper"
RHS = "rhs"

#: feasibility / optimality tolerances the solution report is held to
FEAS_TOL = 1e-7
OPT_TOL = 1e-7

#: tolerances passed to the backend (two orders below the report contract)
_SOLVER_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(Exception):
    """Malformed program (bad bounds, unknown index, duplicate terms)."""


class LpSolveError(Exception):
    """Numerical breakdown or iteration limit inside the solver backend."""


class Data(NamedTuple):
    """A coefficient supplied by data: ``series[step] * scale / divisor``,
    where the series is data field ``field`` (its item ``key`` for keyed
    fields). The divisor keeps conversions that divide exact."""

    field: str
    key: object = None
    step: int = 0
    scale: float = 1.0
    divisor: float = 1.0


@dataclass
class LpSolution:
    """Solver report. ``duals`` has one entry per constraint, in the order
    constraints were added; ``lower_marginals``/``upper_marginals`` carry the
    bound multipliers needed to reconstruct the dual objective."""

    status: str
    objective: float
    primal: np.ndarray
    duals: np.ndarray
    lower_marginals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    upper_marginals: np.ndarray = field(default_factory=lambda: np.zeros(0))


#: the arrays of a program: columns, rows in CSR form, row sense and rhs
_ARRAYS = dict(lower=float, upper=float, cost=float, indptr=np.int64,
               indices=np.int64, data=float, sense="<U2", rhs=float)


class LinearProgram:
    """Minimization LP in arrays, given as keywords (see ``_ARRAYS``) or
    grown through ``add_*``, whose calls are buffered and merged into the
    arrays on the next read. Names may be given as a function, evaluated on
    first use."""

    def __init__(self, name: str = "", col_names=None, row_names=None,
                 **arrays):
        self.name = name
        arrays.setdefault("indptr", [0])
        self._arrays = {key: np.asarray(arrays.get(key, ()), dtype=dtype)
                        for key, dtype in _ARRAYS.items()}
        self._names = [col_names or [], row_names or []]
        self._cols, self._rows, self._costs = [], [], []
        #: data slots (target, index, Data); the target is UPPER, RHS or the
        #: label of a cost stream
        self.slots: list[tuple[str, int, Data]] = []

    def __getattr__(self, key):
        arrays = self.__dict__.get("_arrays", {})
        if key not in arrays:
            raise AttributeError(key)
        self._flush()
        return arrays[key]

    def _flush(self) -> None:
        a = self._arrays
        if self._cols:
            lo, hi = np.array(self._cols, dtype=float).reshape(-1, 2).T
            a["lower"], a["upper"] = np.r_[a["lower"], lo], np.r_[a["upper"], hi]
            a["cost"] = np.r_[a["cost"], np.zeros(len(lo))]
            self._cols = []
        if self._costs:
            idx, coef = zip(*self._costs)
            a["cost"] = a["cost"].copy()
            np.add.at(a["cost"], list(idx), coef)
            self._costs = []
        if self._rows:
            terms, sense, rhs = zip(*self._rows)
            new = dict(indptr=a["indptr"][-1] + np.cumsum([len(t) for t in terms]),
                       indices=[i for t in terms for i, _ in t],
                       data=[c for t in terms for _, c in t], sense=sense, rhs=rhs)
            for key, values in new.items():
                a[key] = np.concatenate((a[key], np.array(values, dtype=_ARRAYS[key])))
            self._rows = []

    @property
    def matrix(self) -> csr_matrix:
        return csr_matrix((self.data, self.indices, self.indptr),
                          shape=(len(self.rhs), len(self.lower)))

    def _named(self, k: int) -> list[str]:
        if callable(self._names[k]):
            self._names[k] = self._names[k]()
        return self._names[k]

    col_names = property(lambda self: self._named(0))
    row_names = property(lambda self: self._named(1))

    @property
    def num_variables(self) -> int:
        return len(self._arrays["lower"]) + len(self._cols)

    @property
    def num_constraints(self) -> int:
        return len(self._arrays["rhs"]) + len(self._rows)

    def add_variable(self, lower: float = 0.0, upper: float | Data = math.inf,
                     name: str = "") -> int:
        """Append a column and return its index. An upper bound given as
        ``Data`` is a slot (placeholder +inf)."""
        slot, upper = (upper, math.inf) if isinstance(upper, Data) else (None, upper)
        if math.isnan(lower) or math.isnan(upper):
            raise LpError(f"variable {name!r}: NaN bound")
        if lower > upper:
            raise LpError(f"variable {name!r}: inverted bounds [{lower}, {upper}]")
        if slot is not None:
            self.slots.append((UPPER, self.num_variables, slot))
        self._cols.append((float(lower), float(upper)))
        self.col_names.append(name)
        return self.num_variables - 1

    def add_constraint(self, terms, sense: str, rhs: float | Data,
                       name: str = "") -> int:
        """Append a constraint; ``terms`` is an iterable of (var index, coef).
        A right-hand side given as ``Data`` is a slot (placeholder 0).

        Returns the row index (position in the dual vector)."""
        slot, rhs = (rhs, 0.0) if isinstance(rhs, Data) else (None, rhs)
        if sense not in SENSES:
            raise LpError(f"constraint {name!r}: unknown sense {sense!r}")
        if not math.isfinite(rhs):
            raise LpError(f"constraint {name!r}: non-finite rhs {rhs}")
        seen = set()
        clean = []
        n = self.num_variables
        for idx, coef in terms:
            idx = int(idx)
            if idx < 0 or idx >= n:
                raise LpError(f"constraint {name!r}: unknown variable index {idx}")
            if idx in seen:
                raise LpError(f"constraint {name!r}: duplicate variable index {idx}")
            if not math.isfinite(coef):
                raise LpError(f"constraint {name!r}: non-finite coefficient on {idx}")
            seen.add(idx)
            clean.append((idx, float(coef)))
        if slot is not None:
            self.slots.append((RHS, self.num_constraints, slot))
        self._rows.append((clean, sense, float(rhs)))
        self.row_names.append(name)
        return self.num_constraints - 1

    def add_objective_term(self, index: int, coef: float) -> None:
        if index < 0 or index >= self.num_variables:
            raise LpError(f"objective: unknown variable index {index}")
        if not math.isfinite(coef):
            raise LpError(f"objective: non-finite coefficient on {index}")
        self._costs.append((index, float(coef)))


def _status_from_scipy(code: int) -> str:
    if code == 0:
        return OPTIMAL
    if code == 2:
        return INFEASIBLE
    if code == 3:
        return UNBOUNDED
    raise LpSolveError(f"solver reported failure (scipy status {code})")


def solve(program: LinearProgram, maxiter: int = 200_000) -> LpSolution:
    """Solve to optimality with HiGHS dual simplex; never fails silently.

    Raises LpSolveError on numerical breakdown or iteration exhaustion."""
    A, sense, rhs = program.matrix, program.sense, program.rhs
    eq_rows = np.flatnonzero(sense == EQ)
    ub_rows = np.flatnonzero(sense != EQ)
    # HiGHS via linprog takes A_ub x <= b_ub: >= rows enter negated
    sign = np.where(sense[ub_rows] == LE, 1.0, -1.0)
    A_ub = A[ub_rows]
    A_ub.data *= np.repeat(sign, np.diff(A_ub.indptr))

    res = linprog(program.cost, A_ub=A_ub, b_ub=sign * rhs[ub_rows],
                  A_eq=A[eq_rows], b_eq=rhs[eq_rows],
                  bounds=np.column_stack((program.lower, program.upper)),
                  method="highs-ds",
                  options={"maxiter": maxiter,
                           "primal_feasibility_tolerance": _SOLVER_TOL,
                           "dual_feasibility_tolerance": _SOLVER_TOL})
    status = _status_from_scipy(res.status)
    if status != OPTIMAL:
        return LpSolution(status, math.nan, np.zeros(0), np.zeros(0))

    duals = np.zeros(program.num_constraints)
    # marginal is d obj / d (sign * rhs); chain rule restores d obj / d rhs
    duals[ub_rows] = sign * np.asarray(res.ineqlin.marginals)
    duals[eq_rows] = np.asarray(res.eqlin.marginals)

    return LpSolution(OPTIMAL, float(res.fun), np.asarray(res.x), duals,
                      np.asarray(res.lower.marginals),
                      np.asarray(res.upper.marginals))


def dual_objective(program: LinearProgram, solution: LpSolution) -> float:
    """Objective of the dual solution: rhs-weighted duals plus the finite-bound
    multiplier contributions. Matches the primal objective within OPT_TOL for
    every optimal solve (strong duality)."""
    if solution.status != OPTIMAL:
        raise LpError("dual objective is only defined for optimal solutions")
    lo, hi = program.lower, program.upper
    fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
    return float(program.rhs @ solution.duals
                 + lo[fin_lo] @ solution.lower_marginals[fin_lo]
                 + hi[fin_hi] @ solution.upper_marginals[fin_hi])


def _fmt_coef(coef: float, name: str) -> str:
    sign = "-" if coef < 0 else "+"
    return f"{sign} {abs(coef):.17g} {name}"


def write_lp_text(program: LinearProgram) -> str:
    """Fixed-format LP text (Minimize / Subject To / Bounds / End) for
    cross-checking against external LP tooling."""
    names = [n if n else f"x{j}" for j, n in enumerate(program.col_names)]
    cost, lower, upper = program.cost, program.lower, program.upper
    indptr, indices, data = program.indptr, program.indices, program.data
    out = ["Minimize", " obj:"]
    parts = [_fmt_coef(cost[j], names[j]) for j in np.flatnonzero(cost)]
    out[1] += " " + " ".join(parts) if parts else " 0 " + (names[0] if names else "x0")
    out.append("Subject To")
    ops = {LE: "<=", GE: ">=", EQ: "="}
    for pos, (label, sense, rhs) in enumerate(zip(program.row_names,
                                                  program.sense, program.rhs)):
        span = range(indptr[pos], indptr[pos + 1])
        body = " ".join(_fmt_coef(data[k], names[indices[k]]) for k in span)
        if not body:
            body = "0 " + names[0]
        out.append(f" {label or f'c{pos}'}: {body} {ops[sense]} {rhs:.17g}")
    out.append("Bounds")
    for j, name in enumerate(names):
        lo = "-inf" if not math.isfinite(lower[j]) else f"{lower[j]:.17g}"
        hi = "+inf" if not math.isfinite(upper[j]) else f"{upper[j]:.17g}"
        out.append(f" {lo} <= {name} <= {hi}")
    out.append("End")
    return "\n".join(out) + "\n"


def write_lp_file(program: LinearProgram, path) -> None:
    with open(path, "w") as fh:
        fh.write(write_lp_text(program))
