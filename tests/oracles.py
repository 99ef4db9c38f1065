"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the code paths they check: LP optima come from
exhaustive vertex enumeration, tail risk from direct minimization of the
piecewise-linear certainty-equivalent over candidate thresholds, and the
normal quantile from bisection of the CDF, duplicate Benders cuts from
a pairwise comparison, the program a held Benders master holds from
its head and its cuts, row by row, and the infeasibility of the rows of a
Farkas certificate from a cold solve of those rows alone.
"""

import itertools
import math

import numpy as np
from scipy.sparse import csc_matrix, vstack

from vppsched import lp


def random_feasible_bounded_lp(rng, max_vars=6, max_rows=8):
    """Random LP with finite box bounds (hence bounded) and rhs shifted so a
    random interior point stays feasible (hence nonempty)."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    prog = lp.LinearProgram("random")
    lo = rng.uniform(-5.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 6.0, size=n)
    for j in range(n):
        prog.add_variable(lo[j], hi[j], f"x{j}")
    x0 = lo + rng.uniform(0.1, 0.9, size=n) * (hi - lo)
    for i in range(m):
        coefs = rng.uniform(-2.0, 2.0, size=n)
        # keep rows sparse-ish like real programs
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[rng.integers(0, n)] = True
        coefs = np.where(mask, coefs, 0.0)
        val = float(coefs @ x0)
        sense = rng.choice([lp.LE, lp.GE, lp.EQ], p=[0.45, 0.45, 0.1])
        if sense == lp.LE:
            rhs = val + float(rng.uniform(0.0, 2.0))
        elif sense == lp.GE:
            rhs = val - float(rng.uniform(0.0, 2.0))
        else:
            rhs = val
        prog.add_constraint([(j, c) for j, c in enumerate(coefs) if c != 0.0],
                            sense, rhs, f"r{i}")
    for j in range(n):
        prog.add_objective_term(j, float(rng.uniform(-3.0, 3.0)))
    return prog


def vertex_enumeration_optimum(prog, feas_tol=1e-8):
    """Minimum of the objective over all vertices of the feasible polytope.

    Enumerates every size-n subset of the constraint/bound hyperplanes,
    solves the square systems in a single batched call, and filters by
    feasibility of the full constraint set. Requires finite bounds."""
    n = prog.num_variables
    # constraint rows, then each variable's lower and upper bound plane
    A = np.vstack((prog.matrix.toarray(), np.repeat(np.eye(n), 2, axis=0)))
    b = np.concatenate((prog.rhs,
                        np.column_stack((prog.lower, prog.upper)).ravel()))

    combos = np.asarray(list(itertools.combinations(range(len(b)), n)))
    mats = A[combos]                      # (ncomb, n, n)
    rhss = b[combos]                      # (ncomb, n)
    dets = np.linalg.det(mats)
    keep = np.abs(dets) > 1e-9
    if not keep.any():
        return math.inf
    pts = np.linalg.solve(mats[keep], rhss[keep][:, :, None])[:, :, 0]

    feasible = np.ones(len(pts), dtype=bool)
    scale = 1.0 + np.abs(b)
    for pos, sense in enumerate(prog.sense):
        vals = pts @ A[pos]
        resid = vals - b[pos]
        tol = feas_tol * scale[pos]
        if sense == lp.LE:
            feasible &= resid <= tol
        elif sense == lp.GE:
            feasible &= resid >= -tol
        else:
            feasible &= np.abs(resid) <= tol
    feasible &= np.all(pts >= prog.lower - feas_tol, axis=1)
    feasible &= np.all(pts <= prog.upper + feas_tol, axis=1)
    if not feasible.any():
        return math.inf
    return float(np.min(pts[feasible] @ prog.cost))


def cvar_by_threshold_scan(costs, probs, alpha):
    """Tail expectation via direct minimization of
    gamma + E[(cost - gamma)_+] / (1 - alpha) over the cost atoms.

    The function is piecewise linear and convex with kinks only at the
    atoms, so scanning candidate gammas is exact."""
    costs = np.asarray(costs, dtype=float)
    probs = np.asarray(probs, dtype=float)
    best = math.inf
    for g in costs:
        val = g + float(probs @ np.maximum(costs - g, 0.0)) / (1.0 - alpha)
        best = min(best, val)
    return best


def normal_quantile_by_bisection(p, tol=1e-12):
    """Inverse standard normal CDF via bisection; erfc form keeps the lower
    tail accurate."""
    lo, hi = -40.0, 40.0
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cut_matches(cut, other, tol):
    """Whether Benders cut ``cut`` duplicates ``other``, each a
    ``(scenario, intercept, gradient)`` triple: the same scenario, the
    intercepts within tol * (1 + |intercept|) and every gradient entry
    within tol * (1 + max |gradient|), both scales taken from ``cut``."""
    (s, b, g), (s_old, b_old, g_old) = cut, other
    if s != s_old or abs(b - b_old) > tol * (1.0 + abs(b)):
        return False
    scale = 1.0 + float(np.max(np.abs(g), initial=0.0))
    return bool(np.all(np.abs(g - g_old) <= tol * scale))


def unscreened(program):
    """A copy of ``program`` without lazy rows or a derived block:
    ``lp.solve`` hands HiGHS every row and column in one run. The reference
    for screened solves."""
    return lp.LinearProgram(
        program.name, **{key: getattr(program, key).copy() for key in (
            "lower", "upper", "cost", "indptr", "indices", "data", "sense",
            "rhs")})


def infeasibility(program, x):
    """The largest violation by ``x`` of a row or a column bound of
    ``program``, each relative to its side as ``lp.FEAS_TOL`` is read:
    excess / (1 + |side|)."""
    row_lo, row_hi = lp.row_bounds(program.sense, program.rhs)
    act = program.matrix @ x
    worst = 0.0
    for side, excess in ((row_lo, row_lo - act), (row_hi, act - row_hi),
                         (program.lower, program.lower - x),
                         (program.upper, x - program.upper)):
        finite = np.isfinite(side)
        worst = max(worst, float(np.max(
            excess[finite] / (1.0 + np.abs(side[finite])), initial=0.0)))
    return worst


def master_form(master):
    """The program the held model of the Benders master ``master`` holds
    after its next solve: the head's rows, then per cut k the row
    theta_s - gradients[k] . x >= intercepts[k], s = scenarios[k]."""
    head = lp.column_form(master.head)
    cuts = np.zeros((master.num_cuts, head.matrix.shape[1]))
    cuts[:, master.x_indices] = -master.gradients
    cuts[np.arange(master.num_cuts), master.theta[master.scenarios]] = 1.0
    return head._replace(
        matrix=vstack((head.matrix, csc_matrix(cuts)), format="csc"),
        row_lo=np.r_[head.row_lo, master.intercepts],
        row_hi=np.r_[head.row_hi, np.full(master.num_cuts, np.inf)])


def names_infeasible_rows(program, rows):
    """Whether the rows of ``program`` named ``rows``, with every column
    bound and no other row, admit no point, as ``lp.solve`` finds: what the
    rows of a Farkas certificate must do."""
    index = {name: r for r, name in enumerate(program.row_names)}
    keep = np.array(sorted(index[name] for name in rows), dtype=np.int64)
    A = program.matrix[keep]
    subsystem = lp.LinearProgram(
        "subsystem", lower=program.lower, upper=program.upper,
        cost=np.zeros(program.num_variables), indptr=A.indptr,
        indices=A.indices, data=A.data, sense=program.sense[keep],
        rhs=program.rhs[keep])
    return len(keep) > 0 and lp.solve(subsystem).status == lp.INFEASIBLE
