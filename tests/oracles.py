"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the code paths they check: LP optima come from
exhaustive vertex enumeration, tail risk from direct minimization of the
piecewise-linear certainty-equivalent over candidate thresholds, and the
normal quantile from bisection of the CDF.
"""

import itertools
import math

import numpy as np

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
