import ast
import math
import os
import pickle
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from vppsched import instance as im
from vppsched import lp
from vppsched import scenarios as sg
from vppsched import stochastic as st

from oracles import (infeasibility, names_infeasible_rows,
                     random_feasible_bounded_lp, unscreened,
                     vertex_enumeration_optimum)
from test_network import narrowed_band


def test_add_variable_assigns_dense_indices():
    p = lp.LinearProgram()
    v0 = p.add_variable(0.0, math.inf, "Pdam_0")
    assert v0 == 0
    v1 = p.add_variable(-math.inf, math.inf, "gamma")
    assert v1 == 1 and not math.isfinite(p.lower[v1])


def test_add_variable_rejects_inverted_bounds():
    p = lp.LinearProgram()
    with pytest.raises(lp.LpError):
        p.add_variable(1.0, 0.0, "bad")


def test_add_constraint_rejects_duplicates_and_unknowns():
    p = lp.LinearProgram()
    x = p.add_variable(0.0, 1.0, "x")
    with pytest.raises(lp.LpError):
        p.add_constraint([(x, 1.0), (x, 2.0)], lp.LE, 1.0)
    with pytest.raises(lp.LpError):
        p.add_constraint([(5, 1.0)], lp.LE, 1.0)
    with pytest.raises(lp.LpError):
        p.add_constraint([(x, math.inf)], lp.LE, 1.0)
    with pytest.raises(lp.LpError):
        p.add_constraint([(x, 1.0)], "<", 1.0)


def csr_pieces(rows):
    """``add_rows`` arguments (but names) for rows given as
    ``add_constraint`` takes them: (terms, sense, rhs)."""
    terms = [t for t, _, _ in rows]
    return (np.cumsum([0] + [len(t) for t in terms]),
            [i for t in terms for i, _ in t], [c for t in terms for _, c in t],
            [sense for _, sense, _ in rows], [rhs for _, _, rhs in rows])


#: one bad row each, as ``add_constraint`` takes it, on two columns
BAD_ROWS = {
    "sense": ([(0, 1.0)], "<", 1.0),
    "rhs": ([(0, 1.0)], lp.LE, math.inf),
    "nan rhs": ([(0, 1.0)], lp.EQ, math.nan),
    "index": ([(0, 1.0), (2, 1.0)], lp.LE, 1.0),
    "negative index": ([(-1, 1.0)], lp.LE, 1.0),
    "duplicate": ([(1, 1.0), (0, 2.0), (1, 3.0)], lp.GE, 1.0),
    "coefficient": ([(0, math.nan)], lp.LE, 1.0),
    "infinite coefficient": ([(1, -math.inf)], lp.GE, 0.0),
}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
def test_bulk_rows_refuse_what_add_constraint_refuses(bad):
    # same message, naming the first bad row, and nothing is added
    rows = [([(0, 1.0), (1, 2.0)], lp.EQ, 0.0),
            BAD_ROWS[bad], ([(1, 1.0), (0, 1.0)], lp.GE, 0.0), BAD_ROWS[bad]]
    names = ["good", "bad", "fine", "worse"]
    single, bulk = lp.LinearProgram(), lp.LinearProgram()
    for p in (single, bulk):
        p.add_variable(0.0, 1.0, "x")
        p.add_variable(0.0, 1.0, "y")
    with pytest.raises(lp.LpError) as one:
        single.add_constraint(*rows[1], name="bad")
    with pytest.raises(lp.LpError) as many:
        bulk.add_rows(*csr_pieces(rows), names)
    assert str(many.value) == str(one.value) and "'bad'" in str(many.value)
    assert bulk.num_constraints == 0 and bulk.row_names == [] \
        and bulk.slots == []
    assert bulk.add_rows(*csr_pieces(rows[::2]), names[::2]).tolist() == [0, 1]


def test_bulk_rows_refuse_malformed_pieces():
    p = lp.LinearProgram()
    p.add_variable(0.0, 1.0, "x")
    for indptr, indices, data in (([0, 2], [0], [1.0]), ([1, 1], [0], [1.0]),
                                  ([0, 1], [0], [1.0, 2.0]), ([0], [], [])):
        with pytest.raises(lp.LpError):
            p.add_rows(indptr, indices, data, lp.LE, [1.0], ["r"])
    assert p.num_constraints == 0


@pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.nan),
                                          (2.0, 1.0)])
def test_bulk_columns_refuse_what_add_variable_refuses(lower, upper):
    single, bulk = lp.LinearProgram(), lp.LinearProgram()
    with pytest.raises(lp.LpError) as one:
        single.add_variable(lower, upper, "bad")
    with pytest.raises(lp.LpError) as many:
        bulk.add_variables([0.0, lower, lower], [1.0, upper, upper],
                           ["good", "bad", "worse"])
    assert str(many.value) == str(one.value) and "'bad'" in str(many.value)
    assert bulk.num_variables == 0 and bulk.col_names == []


@pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.nan),
                                          (2.0, 1.0)])
def test_tightened_bounds_refuse_what_add_variable_refuses(lower, upper):
    single, p = lp.LinearProgram(), lp.LinearProgram()
    with pytest.raises(lp.LpError) as one:
        single.add_variable(lower, upper, "bad")
    p.add_variables(0.0, 1.0, ["good", "bad", "worse"])
    with pytest.raises(lp.LpError) as many:
        p.tighten_bounds([0, 1, 2], [0.0, lower, lower], [1.0, upper, upper])
    assert str(many.value) == str(one.value) and "'bad'" in str(many.value)
    assert p.lower.tolist() == [0.0] * 3 and p.upper.tolist() == [1.0] * 3


def test_tightened_bounds_never_loosen():
    p = lp.LinearProgram()
    p.add_variables([-1.0, 0.0, -math.inf], [1.0, 2.0, math.inf], list("abc"))
    p.tighten_bounds([0, 1, 2, 2], [-2.0, 0.5, -3.0, -1.0],
                     [0.5, 3.0, 4.0, 2.0])
    assert p.lower.tolist() == [-1.0, 0.5, -1.0]
    assert p.upper.tolist() == [0.5, 2.0, 2.0]
    # unknown columns, and an upper bound that data fills in later
    p.add_variable(0.0, math.inf, "u")
    p.add_slots(lp.UPPER, [3], "cap")
    for columns in ([3], [4], [-1]):
        with pytest.raises(lp.LpError):
            p.tighten_bounds(columns, 0.0, 1.0)
    assert p.lower.tolist() == [-1.0, 0.5, -1.0, 0.0]
    assert p.upper.tolist() == [0.5, 2.0, 2.0, math.inf]


def test_bulk_appends_match_one_at_a_time():
    # interleaved with buffered single appends, the bulk ones give the same
    # arrays, names and slots
    rng = np.random.default_rng(11)
    single, bulk = lp.LinearProgram(), lp.LinearProgram()
    for p in (single, bulk):
        p.add_variable(0.0, math.inf, "u")
        p.add_slots(lp.UPPER, [0], "cap", "a")
    lower, upper = rng.uniform(-2, 0, 6), rng.uniform(0, 2, 6)
    names = [f"x{j}" for j in range(6)]
    for lo, hi, name in zip(lower, upper, names):
        single.add_variable(lo, hi, name)
    assert bulk.add_variables(lower, upper, names).tolist() == list(range(1, 7))
    rows = []
    for k in range(12):
        idx = rng.choice(7, rng.integers(0, 5), replace=False)
        rhs = 0.0 if k % 4 == 0 else float(rng.normal())
        rows.append(([(int(i), float(rng.normal())) for i in idx],
                     lp.SENSES[k % 3], rhs))
    # every fourth right-hand side is data, stated after its row
    load = lambda p, k: p.add_slots(lp.RHS, [k], "load", k % 3, k)
    for p in (single, bulk):
        p.add_constraint(*rows[0], name="r0")
        load(p, 0)
    for k, row in enumerate(rows[1:], 1):
        single.add_constraint(*row, name=f"r{k}")
        if k % 4 == 0:
            load(single, k)
    bulk.add_rows(*csr_pieces(rows[1:]), [f"r{k}" for k in range(1, 12)])
    for k in range(4, 12, 4):
        load(bulk, k)
    for p in (single, bulk):
        p.add_variable(-1.0, 1.0, "z")
        p.add_constraint([(7, 1.0)], lp.LE, 0.5, "last")
    for key in ("lower", "upper", "cost", "indptr", "indices", "data", "sense",
                "rhs"):
        a, b = getattr(single, key), getattr(bulk, key)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
    assert (single.col_names, single.row_names, repr(single.slots)) \
        == (bulk.col_names, bulk.row_names, repr(bulk.slots))


def test_slots_refuse_unknown_rows_and_columns():
    # as mark_lazy: an unknown index is refused and nothing is added
    p = lp.LinearProgram()
    p.add_variables(0.0, math.inf, ["x", "y"])
    p.add_constraint([(0, 1.0)], lp.LE, 0.0, "r")
    for target, index in ((lp.UPPER, [0, 2]), (lp.LOWER, [2]), (lp.RHS, [1]),
                          ("c_ops", [-1]), (lp.RHS, [[0], [3]])):
        with pytest.raises(lp.LpError, match="unknown index"):
            p.add_slots(target, index, "load")
    assert p.slots == []
    # step, scale and divisor broadcast against the index, row by row
    p.add_variables(0.0, math.inf, ["u0", "v0", "u1", "v1"])
    p.add_slots(lp.UPPER, [[2, 3], [4, 5]], "avail", None,
                np.arange(2)[:, None], [4.0, 5.0], 2.0)
    target, index, field, key, step, scale, divisor = p.slots[0]
    assert (target, field, key) == (lp.UPPER, "avail", None)
    assert index.tolist() == [2, 3, 4, 5] and step.tolist() == [0, 0, 1, 1]
    assert scale.tolist() == [4.0, 5.0] * 2 and divisor.tolist() == [2.0] * 4
    # a column whose upper bound is a slot keeps its bounds
    with pytest.raises(lp.LpError, match="'v0': upper bound is data"):
        p.tighten_bounds([0, 3], 0.0, 1.0)
    assert p.upper.tolist() == [math.inf] * 6


def other_modules():
    """(file name, syntax tree) of every package module but ``lp.py``."""
    package = os.path.dirname(lp.__file__)
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py") and fname != "lp.py":
            with open(os.path.join(package, fname)) as fh:
                yield fname, ast.parse(fh.read())


def test_only_lp_writes_slots():
    # slots go in through add_slots alone: no other module assigns,
    # augments or appends to a ``.slots`` attribute
    slots = lambda n: isinstance(n, ast.Attribute) and n.attr == "slots"
    offenders = []
    for fname, tree in other_modules():
        for node in ast.walk(tree):
            if (slots(node) and isinstance(node.ctx, ast.Store)) or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append", "extend", "insert")
                    and slots(node.func.value)):
                offenders.append(f"{fname}:{node.lineno}")
    assert offenders == []


def test_only_lp_touches_the_solver_backend():
    # one solver-backend seam: no other module imports scipy.optimize or
    # names linprog or the private HiGHS binding
    banned = {"linprog", "_highspy"}
    offenders = []
    for fname, tree in other_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if any(n.startswith("scipy.optimize") or banned & set(n.split("."))
                   for n in names):
                offenders.append(f"{fname}:{node.lineno}")
    assert offenders == []


def test_only_lp_restates_a_screen():
    # one re-statement step, ``Screen.restate``: no other module checks a
    # primal against a screen, grows one or passes a held model a program
    # again
    offenders = [f"{fname}:{node.lineno}" for fname, tree in other_modules()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("state", "violated", "reset")]
    assert offenders == []


def test_only_lp_reads_its_private_names():
    # the screening test, its tolerance and the binding stay behind the
    # seam: no other module reads a private name of lp (lp._outside,
    # lp._SOLVER_TOL, lp._highs, ...) or imports one from it
    offenders = []
    for fname, tree in other_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr] if ast.unparse(node.value) == "lp" else []
            elif isinstance(node, ast.ImportFrom) and node.module == "lp":
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.startswith("_") for n in names):
                offenders.append(f"{fname}:{node.lineno}")
    assert offenders == []


def test_single_variable_ge_dual_is_one():
    p = lp.LinearProgram()
    x = p.add_variable(0.0, math.inf, "x")
    row = p.add_constraint([(x, 1.0)], lp.GE, 1.0, "floor")
    p.add_objective_term(x, 1.0)
    sol = lp.solve(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.duals[row] == pytest.approx(1.0, abs=1e-9)
    assert lp.dual_objective(p, sol) == pytest.approx(1.0, abs=1e-9)


def test_box_maximization_vertex():
    # min -x - 2y with x <= 1, y <= 1 lands on (1, 1); oracle agrees
    p = lp.LinearProgram()
    x = p.add_variable(0.0, math.inf, "x")
    y = p.add_variable(0.0, math.inf, "y")
    p.add_constraint([(x, 1.0)], lp.LE, 1.0)
    p.add_constraint([(y, 1.0)], lp.LE, 1.0)
    p.add_objective_term(x, -1.0)
    p.add_objective_term(y, -2.0)
    sol = lp.solve(p)
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)
    assert sol.primal == pytest.approx([1.0, 1.0])
    assert lp.dual_objective(p, sol) == pytest.approx(-3.0, abs=1e-9)


def test_contradictory_bounds_infeasible():
    p = lp.LinearProgram()
    x = p.add_variable(0.0, math.inf, "x")
    p.add_constraint([(x, 1.0)], lp.GE, 1.0)
    p.add_constraint([(x, 1.0)], lp.LE, 0.0)
    p.add_objective_term(x, 1.0)
    assert lp.solve(p).status == lp.INFEASIBLE


def test_unbounded_reported():
    p = lp.LinearProgram()
    x = p.add_variable(0.0, math.inf, "x")
    p.add_objective_term(x, -1.0)
    assert lp.solve(p).status == lp.UNBOUNDED


def test_degenerate_zero_objective():
    p = lp.LinearProgram()
    p.add_variable(0.0, math.inf, "x")
    sol = lp.solve(p)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert lp.dual_objective(p, sol) == pytest.approx(0.0, abs=1e-12)


def test_dual_objective_requires_optimal():
    p = lp.LinearProgram()
    x = p.add_variable(0.0, math.inf, "x")
    p.add_constraint([(x, 1.0)], lp.GE, 1.0)
    p.add_constraint([(x, 1.0)], lp.LE, 0.0)
    sol = lp.solve(p)
    with pytest.raises(lp.LpError):
        lp.dual_objective(p, sol)


def test_dual_sign_conventions():
    # one binding constraint of each sense
    p = lp.LinearProgram()
    x = p.add_variable(-math.inf, math.inf, "x")
    y = p.add_variable(-math.inf, math.inf, "y")
    z = p.add_variable(-math.inf, math.inf, "z")
    rge = p.add_constraint([(x, 1.0)], lp.GE, 2.0)
    rle = p.add_constraint([(y, 1.0)], lp.LE, 3.0)
    req = p.add_constraint([(z, 1.0)], lp.EQ, 4.0)
    for idx, coef in [(x, 1.0), (y, -1.0), (z, -1.0)]:
        p.add_objective_term(idx, coef)
    sol = lp.solve(p)
    assert sol.status == lp.OPTIMAL
    assert sol.duals[rge] >= -1e-12
    assert sol.duals[rle] <= 1e-12
    assert sol.duals[req] == pytest.approx(-1.0, abs=1e-9)


def test_free_variable_handled_natively():
    p = lp.LinearProgram()
    x = p.add_variable(-math.inf, math.inf, "x")
    p.add_constraint([(x, 1.0)], lp.GE, -5.0)
    p.add_objective_term(x, 1.0)
    sol = lp.solve(p)
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    prog = random_feasible_bounded_lp(rng)
    a = lp.solve(prog)
    b = lp.solve(prog)
    assert a.status == b.status
    assert pickle.dumps((a.objective, a.primal.tobytes(), a.duals.tobytes())) == \
        pickle.dumps((b.objective, b.primal.tobytes(), b.duals.tobytes()))


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(20240313)
    for _ in range(120):
        prog = random_feasible_bounded_lp(rng)
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        best = vertex_enumeration_optimum(prog)
        assert sol.objective == pytest.approx(best, abs=1e-7, rel=1e-7)
        dual = lp.dual_objective(prog, sol)
        assert abs(sol.objective - dual) <= 1e-7 * (1.0 + abs(sol.objective))


def test_primal_feasibility_residuals():
    rng = np.random.default_rng(99)
    for _ in range(40):
        prog = random_feasible_bounded_lp(rng)
        sol = lp.solve(prog)
        values = prog.matrix @ sol.primal
        for val, sense, rhs in zip(values, prog.sense, prog.rhs):
            if sense == lp.LE:
                assert val <= rhs + lp.FEAS_TOL * (1 + abs(rhs))
            elif sense == lp.GE:
                assert val >= rhs - lp.FEAS_TOL * (1 + abs(rhs))
            else:
                assert val == pytest.approx(rhs, abs=lp.FEAS_TOL * (1 + abs(rhs)))


def screened_program():
    """min -x - 2y + z / 2 over x, y in [0, 2] and z >= 0 with z >= x - 0.5,
    the lazy rows x + y <= 3 (binding), x - y <= 5 and z >= 0.8 (binding),
    and w in [-1, 1] the derived block's column, fixed by its row
    w == y / 4. Relaxed, x = y = 2 breaks the first lazy row; with it
    stated, z = 0.5 breaks the last; with that stated, the optimum is
    (1, 2, 0.8, 0.5) at -4.6."""
    p = lp.LinearProgram("screened")
    x, y = p.add_variable(0.0, 2.0, "x"), p.add_variable(0.0, 2.0, "y")
    z, w = p.add_variable(0.0, 4.0, "z"), p.add_variable(-1.0, 1.0, "w")
    p.add_constraint([(z, 1.0), (x, -1.0)], lp.GE, -0.5, "zx")
    wy = p.add_constraint([(w, 1.0), (y, -0.25)], lp.EQ, 0.0, "wy")
    sum_row = p.add_constraint([(x, 1.0), (y, 1.0)], lp.LE, 3.0, "sum")
    p.add_constraint([(x, 1.0), (y, -1.0)], lp.LE, 5.0, "gap")
    p.add_constraint([(z, 1.0)], lp.GE, 0.8, "floor")
    for idx, coef in ((x, -1.0), (y, -2.0), (z, 0.5)):
        p.add_objective_term(idx, coef)
    p.mark_lazy(rows=[sum_row, sum_row + 1, sum_row + 2])
    p.mark_derived([wy], [w])
    return p


def test_screening_states_only_what_a_round_violates(linprog_rows):
    p = screened_program()
    sol = lp.solve(p)
    # round 1 leaves the lazy rows and the block out, round 2 states "sum"
    # with the block, round 3 "floor"; "gap" never reaches HiGHS
    assert linprog_rows == [1, 3, 4]
    assert sol.iterations == sum(linprog_rows.iterations) > 0
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(-4.6, abs=1e-9)
    assert sol.primal == pytest.approx([1.0, 2.0, 0.8, 0.5], abs=1e-9)
    assert sol.objective == pytest.approx(lp.solve(unscreened(p)).objective,
                                          abs=1e-12)
    # a left-out row has dual 0; the stated ones carry theirs, and the
    # bounds of w, inactive, multipliers 0, so the dual objective is the
    # primal one
    assert sol.duals[3] == 0.0 and sol.duals[2] == pytest.approx(-1.0, abs=1e-9)
    assert sol.lower_marginals[3] == sol.upper_marginals[3] == 0.0
    assert sol.duals[4] == pytest.approx(0.5, abs=1e-9)
    assert lp.dual_objective(p, sol) == pytest.approx(-4.6, abs=1e-9)
    assert infeasibility(p, sol.primal) <= lp.FEAS_TOL


def test_screening_restates_an_unbounded_relaxation(linprog_rows):
    # x unbounded above once the block (y == x, y in [0, 1]) is left out:
    # the program is bounded
    p = lp.LinearProgram()
    x, y = p.add_variable(0.0, math.inf, "x"), p.add_variable(0.0, 1.0, "y")
    p.add_constraint([(y, 1.0), (x, -1.0)], lp.EQ, 0.0, "link")
    p.add_objective_term(x, -1.0)
    p.mark_derived([0], [y])
    sol = lp.solve(p)
    assert len(linprog_rows) == 2
    assert sol.status == lp.OPTIMAL and sol.objective == pytest.approx(-1.0)
    assert sol.upper_marginals[y] == pytest.approx(-1.0)
    assert lp.dual_objective(p, sol) == pytest.approx(-1.0)
    # unbounded with everything stated stays unbounded
    p.add_variable(-math.inf, 0.0, "z")
    p.add_objective_term(2, 1.0)
    assert lp.solve(p).status == lp.UNBOUNDED


def test_screening_reports_an_infeasible_program(linprog_rows):
    # infeasible in the first round, or only once a lazy row is stated
    p = lp.LinearProgram()
    x = p.add_variable(0.0, math.inf, "x")
    p.add_constraint([(x, 1.0)], lp.GE, 2.0, "floor")
    p.add_constraint([(x, 1.0)], lp.LE, 1.0, "cap")
    p.add_objective_term(x, 1.0)
    p.mark_lazy(rows=[1])
    assert lp.solve(p).status == lp.INFEASIBLE
    assert len(linprog_rows) == 2
    p.add_constraint([(x, 1.0)], lp.LE, 0.5, "lower cap")
    assert lp.solve(p).status == lp.INFEASIBLE
    assert len(linprog_rows) == 3


def test_certificate_rows_of_random_infeasible_lps_admit_no_point():
    # a random feasible LP, half of them with lazy rows, made infeasible by
    # a row c . x >= max c . x + delta: the held solve, screened, keeps
    # HiGHS's Farkas ray y as its row duals, signed as duals are, with
    # y . rhs above the largest (A^T y) . x over the column bounds; the rows
    # it names and the column bounds admit no point
    rng = np.random.default_rng(20261020)
    for k in range(120):
        prog = random_feasible_bounded_lp(rng)
        c = rng.uniform(-2.0, 2.0, size=prog.num_variables)
        top = unscreened(prog)
        top.cost[:] = -c
        top = float(c @ lp.solve(top).primal)
        prog.add_constraint(list(enumerate(c)), lp.GE,
                            top + float(rng.uniform(0.1, 1.0)), "cut")
        if k % 2:
            prog.mark_lazy(rows=np.flatnonzero(
                rng.random(prog.num_constraints) < 0.5))
        screen = lp.Screen(prog)
        sol = lp.solve_held(lp.HeldModel(screen.relaxed(prog)), screen, prog,
                            prog.cost)
        assert sol.status == lp.INFEASIBLE
        y = np.zeros(prog.num_constraints)
        y[screen.layout()[0]] = sol.duals
        assert np.all(y[prog.sense == lp.GE] >= 0.0)
        assert np.all(y[prog.sense == lp.LE] <= 0.0)
        d = prog.matrix.T @ y
        assert y @ prog.rhs > np.where(d > 0.0, prog.upper, prog.lower) @ d
        rows = lp.certificate_rows(sol, screen)
        assert names_infeasible_rows(prog, [prog.row_names[r] for r in rows])


def test_a_solve_without_a_ray_names_no_rows(record_highs):
    # HiGHS reports a feasible program infeasible (forced), so it gives no
    # ray; the module's cold solve keeps none: no rows, and the report says
    # that it has no certificate
    p = lp.LinearProgram()
    x = p.add_variable(0.0, 1.0, "x")
    p.add_constraint([(x, 1.0)], lp.GE, 0.5, "floor")
    record_highs(fail_run=1)
    sol = lp.HeldModel(p).solve()
    assert sol.status == lp.INFEASIBLE and len(sol.duals) == 0
    assert len(lp.certificate_rows(sol, lp.Screen(p))) == 0
    p.add_constraint([(x, 1.0)], lp.LE, 0.25, "cap")
    sol = lp.solve(p)
    assert sol.status == lp.INFEASIBLE
    assert len(lp.certificate_rows(sol, lp.Screen(p))) == 0
    for exc in (st.ModelInfeasible(), st.ModelInfeasible(1)):
        assert exc.rows == [] and "no certificate" in str(exc)


def with_derived_column(prog, rng):
    """``prog`` with a derived column d = a . x, its row the block, and the
    lazy row d + x_0 <= r: d bounded, and r set, around their values at a
    point between the optima of ``prog`` under its cost and under the
    opposite one, which stays feasible, so that the bounds of d may cut
    the optimum off."""
    flipped = unscreened(prog)
    flipped.cost[:] = -flipped.cost
    low, high = lp.solve(prog).primal, lp.solve(flipped).primal
    x = low + rng.uniform(0.2, 0.8) * (high - low)
    n = prog.num_variables
    a = rng.uniform(-2.0, 2.0, size=n)
    value = float(a @ x)
    margin = rng.uniform(0.0, 0.5, size=2)
    d = prog.add_variable(value - margin[0], value + margin[1], "d")
    row = prog.add_constraint([(d, 1.0)] + [(j, -a[j]) for j in range(n)],
                              lp.EQ, 0.0, "derive")
    cap = prog.add_constraint([(d, 1.0), (0, 1.0)], lp.LE,
                              value + x[0] + float(rng.uniform(0.0, 1.0)), "cap")
    prog.mark_lazy(rows=[cap])
    prog.mark_derived([row], [d])
    return prog


def with_rowless_columns(prog, rng):
    """``prog`` with columns that no row holds, one per cost sign (-, 0, +)
    and kind of bound (both finite, lower or upper only, none) that leaves
    the program bounded; returns their indices and the value each takes at
    an optimum: the bound its cost prefers, or, costing nothing, the lower
    bound, else 0 within its bounds."""
    columns, values = [], []
    for sign in (-1.0, 0.0, 1.0):
        for finite in ((True, True), (True, False), (False, True),
                       (False, False)):
            if (sign > 0 and not finite[0]) or (sign < 0 and not finite[1]):
                continue
            lo = float(rng.uniform(-3.0, 1.0))
            hi = lo + float(rng.uniform(0.5, 3.0))
            lo, hi = (lo if finite[0] else -math.inf), (hi if finite[1] else math.inf)
            j = prog.add_variable(lo, hi, f"free{len(columns)}")
            prog.add_objective_term(j, sign * float(rng.uniform(0.5, 2.0)))
            columns.append(j)
            values.append(hi if sign < 0 else lo if finite[0]
                          else float(np.clip(0.0, lo, hi)))
    return np.array(columns), np.array(values)


def test_random_screened_lps_match_vertex_enumeration():
    # a random half of the rows lazy, half the programs with a derived
    # column held by a lazy row, its bounds binding in some, and a third
    # with columns that no row holds, under every cost sign and kind of
    # bound: the same optimum, a feasible primal and strong duality on the
    # full program; a row-less column at the bound its cost prefers, its
    # cost the multiplier of that bound and its reduced cost
    rng = np.random.default_rng(20261018)
    for k in range(120):
        prog = random_feasible_bounded_lp(rng)
        prog.mark_lazy(rows=np.flatnonzero(rng.random(prog.num_constraints) < 0.5))
        if k % 2:
            prog = with_derived_column(prog, rng)
        best = vertex_enumeration_optimum(prog)
        rowless, values = np.zeros(0, np.int64), np.zeros(0)
        if k % 3 == 0:
            rowless, values = with_rowless_columns(prog, rng)
            best += float(prog.cost[rowless] @ values)
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(best, abs=1e-7, rel=1e-7)
        assert infeasibility(prog, sol.primal) <= lp.FEAS_TOL
        dual = lp.dual_objective(prog, sol)
        assert abs(sol.objective - dual) <= lp.OPT_TOL * (1.0 + abs(sol.objective))
        cost = prog.cost[rowless]
        assert sol.primal[rowless].tolist() == values.tolist()
        assert sol.lower_marginals[rowless].tolist() \
            == np.maximum(cost, 0.0).tolist()
        assert sol.upper_marginals[rowless].tolist() \
            == np.minimum(cost, 0.0).tolist()
        assert sol.column_duals[rowless].tolist() == cost.tolist()


def rowless_program(lower, upper, cost):
    """min x + cost z over x in [0, 1] with x >= 0.5 and z in
    [lower, upper], a column that no row holds."""
    p = lp.LinearProgram("rowless")
    x = p.add_variable(0.0, 1.0, "x")
    z = p.add_variable(lower, upper, "z")
    p.add_constraint([(x, 1.0)], lp.GE, 0.5, "floor")
    p.add_objective_term(x, 1.0)
    p.add_objective_term(z, cost)
    return p


def held_solve(p):
    screen = lp.Screen(p)
    return lp.solve_held(lp.HeldModel(screen.relaxed(p)), screen, p, p.cost)


def test_rowless_column_pulled_to_an_infinite_bound_is_unbounded(record_highs):
    # HiGHS never sees the column; the solve reports the program unbounded
    for lower, upper, cost in ((-math.inf, 1.0, 2.0), (-1.0, math.inf, -2.0)):
        p = rowless_program(lower, upper, cost)
        log = record_highs()
        assert held_solve(p).status == lp.UNBOUNDED
        assert [e[1:] for e in log if e[0] == "passModel"] == [(1, 1)]
        assert lp.solve(p).status == lp.UNBOUNDED


def test_rowless_column_without_cost_takes_its_lower_bound():
    for solve in (lp.solve, held_solve):
        p = rowless_program(-2.0, 3.0, 0.0)
        sol = solve(p)
        assert sol.status == lp.OPTIMAL
        assert sol.primal.tolist() == [pytest.approx(0.5, abs=1e-9), -2.0]
        assert sol.objective == pytest.approx(0.5, abs=1e-9)
        # a row-less column that costs something counts in the objective
        p.cost[1] = 1.5
        sol = solve(p)
        assert sol.primal[1] == -2.0
        assert sol.objective == pytest.approx(0.5 - 3.0, abs=1e-9)


def day_extensive(band=None):
    """The neutral extensive form of day over 5 scenarios (seed 42), with
    the squared voltage band below the root set to ``band`` if given."""
    inst = im.day_instance()
    model = inst.model if band is None else narrowed_band(inst.model, *band)
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    return st.build_extensive(model, sset, st.RiskMeasure(st.EXPECTATION)).program


@pytest.mark.parametrize("preset", ["desk", "day"])
def test_tiled_basis_of_one_copy_is_the_copy_basis(preset):
    # the extensive form of one scenario is its block: the tiled basis is
    # the block's optimal basis, from which the form takes no iteration
    inst = getattr(im, f"{preset}_instance")()
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 1, seed=42)
    ef = st.build_extensive(inst.model, sset, st.RiskMeasure(st.EXPECTATION))
    block = lp.HeldModel(lp.Screen(inst.model.template.program).relaxed(
        ef.data[0], ef.data.net_cost()[0]))
    assert block.solve().status == lp.OPTIMAL
    screen = lp.Screen(ef.program)
    basis = screen.tiled_basis([block.basis])
    assert basis.alien
    assert basis.col_status == block.basis.col_status
    assert basis.row_status == block.basis.row_status
    sol = lp.solve_held(lp.HeldModel(screen.relaxed(ef.program), basis),
                        screen, ef.program, ef.program.cost)
    assert sol.status == lp.OPTIMAL and sol.iterations == 0
    cvar = st.build_extensive(inst.model, sset, st.RiskMeasure(st.CVAR))
    with pytest.raises(lp.LpError, match="outside every copy"):
        lp.Screen(cvar.program).tiled_basis([block.basis])


def test_one_shot_solve_hands_highs_only_the_core(linprog_rows):
    # day's optimum leaves no lazy row and no bound of a derived column, so
    # one linprog run gets every row but the lazy and the derived ones
    program = day_extensive()
    sol = lp.solve(program)
    assert len(program.lazy_rows) > 0 and len(program.derived_rows) > 0
    assert linprog_rows == [program.num_constraints
                            - len(np.unique(program.lazy_rows))
                            - len(np.unique(program.derived_rows))]
    assert sol.status == lp.OPTIMAL
    assert infeasibility(program, sol.primal) <= lp.FEAS_TOL


def test_one_shot_solve_states_the_block_a_binding_band_needs(linprog_rows):
    # with the band narrowed to +-0.2 % (squared) a voltage bound binds: the
    # completed primal of the core leaves it, so the next run states the
    # block, and the result is the optimum with everything stated
    program = day_extensive((0.998, 1.002))
    sol = lp.solve(program)
    assert len(linprog_rows) >= 2
    assert linprog_rows[1] >= linprog_rows[0] + len(np.unique(program.derived_rows))
    v = [j for j in program.derived_columns if "_v[" in program.col_names[j]]
    slack = np.minimum(sol.primal - program.lower, program.upper - sol.primal)
    assert np.min(slack[v]) <= 1e-9
    reference = lp.solve(unscreened(program))
    assert abs(sol.objective - reference.objective) \
        <= lp.OPT_TOL * (1.0 + abs(reference.objective))
    assert abs(lp.dual_objective(program, sol) - sol.objective) \
        <= lp.OPT_TOL * (1.0 + abs(sol.objective))
    assert infeasibility(program, sol.primal) <= lp.FEAS_TOL


@pytest.mark.parametrize("preset", ["desk", "day"])
def test_programs_complete_and_check_at_once_as_one_at_a_time(preset):
    # the rows of one scenario data set, completed, settled and checked in
    # one call each: bitwise what each row gives alone, the primals large
    # enough that some leave lazy rows, and not the same ones
    inst = im.PRESETS[preset]()
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 6, seed=42)
    data = inst.model.scenario_data(sset.scenarios)
    cost = data.net_cost()
    screen = lp.Screen(inst.model.template.program)
    xs = np.random.default_rng(5).normal(
        scale=100.0, size=(len(sset), len(screen.layout()[1])))
    full = screen.complete(xs, data, cost)
    rows, block = screen.violated(full, data)
    sols = [lp.LpSolution(lp.OPTIMAL, float(k), x, np.zeros(0))
            for k, x in enumerate(xs)]
    settled = screen.settled(sols, full, cost)
    assert block.any() and len({r.tobytes() for r in rows}) > 1
    for k in range(len(sset)):
        one = screen.complete(xs[k], data[k], cost[k])
        assert full[k].tobytes() == one.tobytes()
        one_rows, one_block = screen.violated(one, data[k])
        assert (rows[k] == one_rows).all() and block[k] == one_block
        assert settled[k].objective \
            == k + float(cost[k][screen.rowless] @ one[screen.rowless])
        assert settled[k].primal.tobytes() == one.tobytes()


def test_completion_on_many_threads_matches_one():
    # the Benders worker threads complete their primals on the one factor
    # their shared screen holds: under thread stress, on more threads than
    # cores, every completion is bitwise the one made on a single thread
    program = day_extensive()
    screen = lp.Screen(program)
    screen.form_matrix
    rng = np.random.default_rng(7)
    xs = [rng.normal(size=len(screen.layout()[1])) for _ in range(64)]
    serial = [screen.complete(x, program).tobytes() for x in xs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2 * (os.cpu_count() or 1)) as pool:
            futures = [pool.submit(screen.complete, x, program) for x in xs]
            parallel = [f.result(timeout=60).tobytes() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


def test_screens_on_many_threads_share_one_derivation(splu_threads):
    # programs on the marks of a fresh extensive form, screened at once on
    # more threads than cores: one derivation, on one factor of the
    # template's block, serves every screen
    program = day_extensive()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2 * (os.cpu_count() or 1)) as pool:
            futures = [pool.submit(lp.Screen, on_marks_of(program))
                       for _ in range(16)]
            screens = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(splu_threads) == 1
    assert all(screen.block is screens[0].block for screen in screens)


def test_sorted_uniqueness_matches_np_unique():
    # the screen's index sets: random, empty, all one entry, and runs of
    # repeats in any order
    rng = np.random.default_rng(7)
    cases = [rng.integers(0, 50, 200), rng.integers(-5, 5, 1000),
             np.zeros(0, np.int64), np.full(30, 4), np.arange(40)[::-1],
             np.repeat(rng.permutation(25), rng.integers(1, 4, 25)),
             rng.integers(0, 10**9, 5000)]
    for a in cases:
        unique = lp._unique(a)
        assert unique.dtype == np.int64
        assert np.array_equal(unique, np.unique(a))


def test_mark_lazy_refuses_an_unknown_index():
    p = screened_program()
    with pytest.raises(lp.LpError, match="lazy_rows: unknown index 5"):
        p.mark_lazy(rows=[0, 5])
    with pytest.raises(lp.LpError, match="lazy_rows: unknown index -1"):
        p.mark_lazy(rows=[-1])
    assert p.lazy_rows.tolist() == [2, 3, 4]


def derived_program(derived=True):
    """min cost . (a, b, c, e) over a in [-3, 3], b >= -5, c in [-2, 2] and
    e >= 0, with -1 <= b - a <= 1, the row c - a == 0, which fixes c, and
    the lazy rows c <= 1, b <= 1 and e <= 1; given ``derived``, the row and
    c are the derived block."""
    p = lp.LinearProgram("derived")
    a, b = p.add_variable(-3.0, 3.0, "a"), p.add_variable(-5.0, math.inf, "b")
    c, e = p.add_variable(-2.0, 2.0, "c"), p.add_variable(0.0, math.inf, "e")
    p.add_constraint([(b, 1.0), (a, -1.0)], lp.LE, 1.0, "up")
    p.add_constraint([(b, 1.0), (a, -1.0)], lp.GE, -1.0, "down")
    link = p.add_constraint([(c, 1.0), (a, -1.0)], lp.EQ, 0.0, "link")
    cap = p.add_constraint([(c, 1.0)], lp.LE, 1.0, "cap")
    p.add_constraint([(b, 1.0)], lp.LE, 1.0, "b cap")
    p.add_constraint([(e, 1.0)], lp.LE, 1.0, "e cap")
    p.mark_lazy(rows=[cap, cap + 1, cap + 2])
    if derived:
        p.mark_derived([link], [c])
    return p


def test_mark_derived_refuses_what_is_not_a_block():
    p = derived_program(derived=False)
    refused = {"derived_rows: unknown index 9": ([9], [2]),
               "derived_columns: unknown index 4": ([2], [4]),
               "1 rows for 2 columns": ([2], [2, 0]),
               "row 'up' is not an equality": ([0], [2]),
               "column 'a' in row 'up'": ([2], [0])}
    for message, (rows, columns) in refused.items():
        with pytest.raises(lp.LpError, match=message):
            p.mark_derived(rows, columns)
    assert len(p.derived_rows) == len(p.derived_columns) == 0
    # the block is marked once: its row or column twice is refused
    p.mark_derived([2], [2])
    with pytest.raises(lp.LpError, match="or one twice"):
        p.mark_derived([2], [2])
    costly = derived_program()
    costly.add_objective_term(2, 1.0)
    with pytest.raises(lp.LpError, match="column 'c' has a cost"):
        lp.Screen(costly)
    # a row that does not hold its column fixes nothing
    q = lp.LinearProgram()
    x, y = q.add_variable(0.0, 1.0, "x"), q.add_variable(0.0, 1.0, "y")
    q.add_constraint([(x, 1.0)], lp.EQ, 0.5, "pin")
    with pytest.raises(lp.LpError, match="empty"):
        q.mark_derived([0], [y])
    # a column held by a lazy row only is still missing from the block
    q.add_constraint([(y, 1.0)], lp.LE, 0.5, "cap")
    q.mark_lazy(rows=[1])
    with pytest.raises(lp.LpError, match="empty"):
        q.mark_derived([0], [y])
    assert p.derived_rows.tolist() == [2] and p.derived_columns.tolist() == [2]
    assert len(q.derived_rows) == len(q.derived_columns) == 0
    # nor do two rows that hold both columns alike: marked, the block is
    # refused by the screen that factors it, and without the marks there
    # is no block to leave out
    t = lp.LinearProgram()
    x, y, z = (t.add_variable(0.0, 1.0, name) for name in "xyz")
    t.add_constraint([(x, 1.0), (y, 1.0), (z, -1.0)], lp.EQ, 0.0, "sum")
    t.add_constraint([(x, 2.0), (y, 2.0), (z, -2.0)], lp.EQ, 0.0, "twice")
    t.mark_derived([0, 1], [x, y])
    with pytest.raises(lp.LpError, match="singular"):
        lp.Screen(t)
    # the refusal is not kept as a factor: every later screen refuses too
    with pytest.raises(lp.LpError, match="singular"):
        lp.Screen(t)
    assert lp.Screen(unscreened(t)).block_stated


def on_marks_of(p, **vectors):
    """A program on the matrix and the marks of ``p``, with ``vectors``
    in place of its own."""
    arrays = {key: getattr(p, key) for key in ("lower", "upper", "cost", "indptr",
                                               "indices", "data", "sense", "rhs")}
    return lp.LinearProgram(p.name, p.col_names, p.row_names, marks=p.marks,
                            **{**arrays, **vectors})


def test_screens_on_shared_marks_check_their_own_vectors(splu_threads):
    # a program that shares the marks of a screened one shares its factor,
    # but its own screen still refuses a cost on a derived column and a
    # derived row that is not an equality
    p = derived_program()
    lp.Screen(p)
    assert lp.Screen(on_marks_of(p, cost=np.array([1.0, 0.0, 0.0, 0.0]))) \
        .block_columns.tolist() == [2]
    assert len(splu_threads) == 1
    with pytest.raises(lp.LpError, match="column 'c' has a cost"):
        lp.Screen(on_marks_of(p, cost=np.array([0.0, 0.0, 1.0, 0.0])))
    sense = p.sense.copy()
    sense[2] = lp.GE
    with pytest.raises(lp.LpError, match="row 'link' is not an equality"):
        lp.Screen(on_marks_of(p, sense=sense))
    # a program whose matrix grows gets marks of its own
    q = on_marks_of(p)
    q.add_constraint([(0, 1.0)], lp.LE, 2.0, "a cap")
    assert q.marks is not p.marks and lp.Screen(q).shape == (7, 4)
    assert len(splu_threads) == 2


def test_relaxed_form_leaves_out_the_lazy_limits_and_the_block():
    # nothing stated: the lazy rows and the block's row and column are
    # left out, and every bound of the other columns kept; everything
    # stated: the program itself, in the order of the layout
    p = derived_program()
    for column, coef in ((0, 2.0), (1, -1.0), (3, 0.5)):
        p.add_objective_term(column, coef)
    full = lp.column_form(p)
    screen = lp.Screen(p)

    def assert_restricted(form, rows, columns):
        assert form.matrix.toarray().tolist() \
            == full.matrix.toarray()[np.ix_(rows, columns)].tolist()
        for key in ("row_lo", "row_hi"):
            assert getattr(form, key).tolist() == getattr(full, key)[rows].tolist()
        assert form.cost.tolist() == full.cost[columns].tolist()
        assert form.lower.tolist() == full.lower[columns].tolist()
        assert form.upper.tolist() == full.upper[columns].tolist()

    form = screen.relaxed(p)
    rows, columns = screen.layout()
    assert rows.tolist() == [0, 1] and columns.tolist() == [0, 1, 3]
    assert_restricted(form, rows, columns)
    assert form.lower.tolist() == [-3.0, -5.0, 0.0]
    assert form.upper.tolist() == [3.0, math.inf, math.inf]
    assert screen.restate(np.full(p.num_variables, np.nan), p) == [0]
    form = screen.relaxed(p)
    rows, columns = screen.layout()
    assert sorted(rows) == list(range(6)) and sorted(columns) == [0, 1, 2, 3]
    assert_restricted(form, rows, columns)


def test_held_core_grows_by_what_its_completion_breaks(record_highs,
                                                      monkeypatch):
    # one held relaxed form, four costs: the completed c leaves its bound
    # (the block is stated), then breaks the lazy row c <= 1, then b the
    # lazy row b <= 1, each time by the grown form passed again and
    # re-solved from the held vertex extended to a basis of it; last the
    # relaxation is unbounded in e (everything stated, cold). Each matches
    # a cold solve and reports the iterations of all its held runs
    p = derived_program()
    screen = lp.Screen(p)
    form = screen.relaxed(p)
    assert form.matrix.shape == (2, 3) and list(screen.layout()[1]) == [0, 1, 3]
    log = record_highs()
    held = lp.HeldModel(form)
    runs = []
    solve = lp.HeldModel.solve

    def counted(self, cost=None):
        sol = solve(self, cost)
        runs.append(sol.iterations)
        return sol

    monkeypatch.setattr(lp.HeldModel, "solve", counted)
    for cost, stated, start in (
            ([1.0, 0.0, 0.0, 0.0], [False, False, False], "setBasis"),
            ([-1.0, 0.5, 0.0, 0.0], [True, False, False], "setBasis"),
            ([0.0, -1.0, 0.0, 0.0], [True, True, False], "setBasis"),
            ([0.0, 0.0, 0.0, -1.0], [True, True, True], "run")):
        del log[:], runs[:]
        sol = lp.solve_held(held, screen, p, np.array(cost))
        assert screen.block_stated
        assert screen.stated_rows.tolist() == stated
        calls = [entry[0] for entry in log]
        assert calls.count("passModel") == 1
        assert len(runs) == 2 and sol.iterations == sum(runs)
        assert calls[calls.index("passModel") + 1] == start
        p.cost[:] = cost
        assert sol.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(lp.solve(unscreened(p)).objective,
                                              abs=1e-9)
        assert sol.primal @ p.cost == pytest.approx(sol.objective, abs=1e-9)
        assert infeasibility(p, sol.primal) <= lp.FEAS_TOL
        p.cost[:] = 0.0
    assert screen.all_stated and held.basis is not None
    assert len(held.cost) == 4 and screen.form_matrix.shape == (6, 4)


def test_held_model_sends_only_the_costs_that_change(record_highs):
    p = screened_program()
    log = record_highs()
    held = lp.HeldModel(p)
    held.solve(p.cost)
    cost = p.cost.copy()
    cost[[0, 3]] = [-3.0, 0.25]
    held.solve(cost)
    held.solve(cost.copy())
    assert [entry for entry in log if entry[0] == "changeColsCost"] \
        == [("changeColsCost", 2)]
    assert held.cost.tobytes() == cost.tobytes()


def test_lp_text_export_roundtrip_structure():
    p = lp.LinearProgram("demo")
    x = p.add_variable(0.0, 2.0, "x")
    y = p.add_variable(-1.0, math.inf, "y")
    p.add_constraint([(x, 1.0), (y, -2.0)], lp.GE, 0.5, "link")
    p.add_objective_term(x, 1.0)
    p.add_objective_term(y, 0.25)
    text = lp.write_lp_text(p)
    assert text.startswith("Minimize")
    assert "Subject To" in text and "Bounds" in text and text.rstrip().endswith("End")
    assert "link:" in text and ">= 0.5" in text
    assert "-1 <= y <= +inf" in text



def test_warm_solve_matches_vertex_enumeration():
    rng = np.random.default_rng(20261018)
    for _ in range(120):
        prog = random_feasible_bounded_lp(rng)
        held = lp.HeldModel(prog)
        sol = held.solve()
        assert sol.status == lp.OPTIMAL
        best = vertex_enumeration_optimum(prog)
        assert sol.objective == pytest.approx(best, abs=1e-7, rel=1e-7)
        dual = lp.dual_objective(prog, sol)
        assert abs(sol.objective - dual) <= lp.OPT_TOL * (1.0 + abs(sol.objective))
        # the same data from its own basis is already optimal
        again = lp.HeldModel(prog, held.basis).solve()
        assert again.iterations == 0
        assert again.objective == pytest.approx(sol.objective, abs=1e-9)


def test_warm_solve_reports_status_like_solve():
    p = lp.LinearProgram()
    x = p.add_variable(0.0, math.inf, "x")
    p.add_constraint([(x, 1.0)], lp.GE, 1.0)
    p.add_constraint([(x, 1.0)], lp.LE, 0.0)
    p.add_objective_term(x, 1.0)
    held = lp.HeldModel(p)
    sol = held.solve()
    assert sol.status == lp.solve(p).status == lp.INFEASIBLE
    assert held.basis is None
    q = lp.LinearProgram()
    y = q.add_variable(0.0, math.inf, "y")
    q.add_objective_term(y, -1.0)
    assert lp.HeldModel(q).solve().status == lp.solve(q).status == lp.UNBOUNDED


def test_warm_solve_after_appended_rows():
    # a program grown by rows and passed again, as ``Screen.restate``
    # does: a held model started from the old basis with
    # basic slacks for the new rows; a row the optimum satisfies costs no
    # iteration
    rng = np.random.default_rng(3)
    for _ in range(40):
        prog = random_feasible_bounded_lp(rng)
        held = lp.HeldModel(prog)
        x = held.solve().primal
        coefs = rng.uniform(-2.0, 2.0, size=prog.num_variables)
        slack = float(rng.uniform(-1.0, 1.0))
        prog.add_constraint(list(enumerate(coefs)), lp.LE, float(coefs @ x) + slack)
        warm = lp.HeldModel(prog, lp.with_basic_rows(held.basis, 1)).solve()
        cold = lp.solve(prog)
        assert warm.status == cold.status
        if cold.status == lp.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7,
                                                   rel=1e-7)
        if slack >= 0:
            assert warm.iterations == 0


def test_warm_bound_multipliers_do_not_depend_on_later_use_of_the_basis():
    # the multipliers are split by basis status when first read; appending
    # rows to the returned basis and re-solving from it must not move them
    rng = np.random.default_rng(11)
    for _ in range(20):
        prog = random_feasible_bounded_lp(rng)
        early = lp.HeldModel(prog).solve()
        expected = (early.lower_marginals, early.upper_marginals)
        held = lp.HeldModel(prog)
        late = held.solve()
        prog.add_constraint([(0, 1.0)], lp.LE, 1e9)
        lp.HeldModel(prog, lp.with_basic_rows(held.basis, 1)).solve()
        assert np.array_equal(late.lower_marginals, expected[0])
        assert np.array_equal(late.upper_marginals, expected[1])


def test_held_model_after_appended_rows_matches_cold_solves(record_highs):
    # the Benders master: rows sent to a held model (addRows) enter with
    # basic slacks, in HiGHS and in its basis, and re-solve with dual
    # simplex; rows the optimum satisfies cost no iteration
    dual = int(lp._highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    rng = np.random.default_rng(5)
    log = record_highs()
    for _ in range(40):
        prog = random_feasible_bounded_lp(rng)
        held = lp.HeldModel(prog)
        x = held.solve().primal
        k = int(rng.integers(1, 3))
        coefs = rng.uniform(-2.0, 2.0, size=(k, prog.num_variables))
        rhs = coefs @ x + rng.uniform(-1.0, 1.0, size=k)
        held.add_rows(csr_matrix(coefs), np.full(k, -np.inf), rhs)
        for row, side in zip(coefs, rhs):
            prog.add_constraint(list(enumerate(row)), lp.LE, float(side))
        assert len(held.basis.row_status) == prog.num_constraints
        warm, cold = held.solve(prog.cost), lp.solve(prog)
        assert warm.status == cold.status
        if cold.status == lp.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7,
                                                   rel=1e-7)
        if np.all(rhs >= coefs @ x):
            assert warm.iterations == 0
    assert [e[0] for e in log].count("addRows") == 40
    assert set(log.strategies) == {dual}
    with pytest.raises(lp.LpError):
        held.add_rows(csr_matrix((1, prog.num_variables + 1)), [0.0], [1.0])


def test_held_model_after_new_column_bounds_matches_cold_solves(record_highs):
    # the Benders subproblems: new bounds of held columns, some fixed as a
    # bid is, sent in one changeColsBounds, re-solve with dual simplex from
    # the held basis, also when the costs change with them; a fixed
    # column's reduced cost is its bound multiplier
    dual = int(lp._highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    rng = np.random.default_rng(6)
    log = record_highs()
    calls = 0
    for _ in range(60):
        prog = random_feasible_bounded_lp(rng)
        held = lp.HeldModel(prog)
        assert held.solve().status == lp.OPTIMAL
        columns = np.flatnonzero(rng.random(prog.num_variables) < 0.5)
        lo, hi = prog.lower[columns], prog.upper[columns]
        at = lo + rng.uniform(0.0, 1.0, size=len(columns)) * (hi - lo)
        fixed = rng.random(len(columns)) < 0.5
        prog.lower[columns] = np.where(fixed, at, lo - rng.uniform(0.0, 0.5))
        prog.upper[columns] = np.where(fixed, at, at + rng.uniform(0.0, 0.5))
        held.set_column_bounds(columns, prog.lower[columns],
                               prog.upper[columns])
        calls += 1
        if rng.random() < 0.5:
            prog.cost[:] = rng.uniform(-3.0, 3.0, size=prog.num_variables)
        sol, cold = held.solve(prog.cost), lp.solve(prog)
        assert sol.status == cold.status
        if cold.status == lp.OPTIMAL:
            assert sol.objective == pytest.approx(cold.objective, abs=1e-7,
                                                  rel=1e-7)
            assert abs(sol.objective - lp.dual_objective(prog, sol)) \
                <= lp.OPT_TOL * (1.0 + abs(sol.objective))
            assert np.array_equal(sol.column_duals, sol.lower_marginals
                                  + sol.upper_marginals)
    bounds = [e for e in log if e[0] == "changeColsBounds"]
    assert len(bounds) == calls == 60
    assert set(log.strategies) == {dual}
    with pytest.raises(lp.LpError):
        held.set_column_bounds([prog.num_variables], [0.0], [1.0])


def test_held_model_after_a_cost_change_matches_vertex_enumeration():
    # the tariff sweep: one held model, each re-solve with only new costs
    rng = np.random.default_rng(20261019)
    for _ in range(120):
        prog = random_feasible_bounded_lp(rng)
        held = lp.HeldModel(prog)
        assert held.solve().status == lp.OPTIMAL
        prog.cost[:] = rng.uniform(-3.0, 3.0, size=prog.num_variables)
        sol = held.solve(prog.cost)
        assert sol.status == lp.OPTIMAL
        best = vertex_enumeration_optimum(prog)
        assert sol.objective == pytest.approx(best, abs=1e-7, rel=1e-7)
        dual = lp.dual_objective(prog, sol)
        assert abs(sol.objective - dual) <= lp.OPT_TOL * (1.0 + abs(sol.objective))
        # unchanged costs: HiGHS's own basis is already optimal
        for cost in (None, prog.cost):
            again = held.solve(cost)
            assert again.iterations == 0
            assert again.objective == pytest.approx(sol.objective, abs=1e-9)


def test_held_solutions_do_not_depend_on_later_solves():
    # a solution's duals and bound multipliers, the latter split by basis
    # status when first read, must not move as the model re-solves
    rng = np.random.default_rng(12)
    for _ in range(20):
        prog = random_feasible_bounded_lp(rng)
        expected = lp.HeldModel(prog).solve()
        held = lp.HeldModel(prog)
        early = held.solve()
        for _ in range(3):
            held.solve(rng.uniform(-3.0, 3.0, size=prog.num_variables))
        for got, want in [(early.primal, expected.primal),
                          (early.duals, expected.duals),
                          (early.lower_marginals, expected.lower_marginals),
                          (early.upper_marginals, expected.upper_marginals)]:
            assert np.array_equal(got, want)


def test_held_row_duals_are_converted_on_first_read():
    # the tariff sweep never reads them: they stay HiGHS's list until read,
    # and then are bitwise the array converted at once, however many solves
    # came in between
    rng = np.random.default_rng(31)
    for _ in range(20):
        prog = random_feasible_bounded_lp(rng)
        held = lp.HeldModel(prog)
        sol = held.solve()
        eager = np.asarray(held._highs.getSolution().row_dual)
        assert callable(sol.row_duals)
        held.solve(rng.uniform(-3.0, 3.0, size=prog.num_variables))
        assert sol.duals.dtype == eager.dtype
        assert sol.duals.tobytes() == eager.tobytes()
        assert sol.duals is sol.duals


def test_held_model_restarts_after_a_solve_that_is_not_optimal(record_highs):
    # min c . (x, y), x >= 0, 0 <= y <= 3, x + y >= 1: unbounded once c_x < 0;
    # the next solve starts from the last optimal basis, or cold before one
    p = lp.LinearProgram()
    x = p.add_variable(0.0, math.inf, "x")
    y = p.add_variable(0.0, 3.0, "y")
    p.add_constraint([(x, 1.0), (y, 1.0)], lp.GE, 1.0)
    p.add_objective_term(x, 1.0)
    p.add_objective_term(y, 2.0)
    log = record_highs()
    held = lp.HeldModel(p)
    assert held.solve().objective == pytest.approx(1.0, abs=1e-9)
    optimal = held.basis
    assert held.solve([-1.0, 1.0]).status == lp.UNBOUNDED
    assert held.basis is optimal
    assert held.solve([2.0, 1.0]).objective == pytest.approx(1.0, abs=1e-9)
    assert log[-3:-1] == [("setBasis", optimal), ("run",)]
    cold = lp.HeldModel(p)
    assert cold.solve([-1.0, 1.0]).status == lp.UNBOUNDED
    assert cold.basis is None
    assert cold.solve([3.0, 4.0]).objective == pytest.approx(3.0, abs=1e-9)
    assert log[-3:-1] == [("clearSolver",), ("run",)]
    assert [entry[0] for entry in log].count("setBasis") == 1
    with pytest.raises(lp.LpError):
        cold.solve([1.0])


def test_held_model_runs_primal_only_after_a_cost_change(record_highs):
    # a cost change leaves a held basis primal feasible, so primal simplex
    # re-solves from it, also when restarting from the last optimal basis;
    # the first solve, a restart without a basis and a solve from a given
    # basis without new costs run dual
    strategy = lp._highs.simplex_constants.SimplexStrategy
    dual, primal = int(strategy.kSimplexStrategyDual), \
        int(strategy.kSimplexStrategyPrimal)
    assert "_Highs.setOptionValue" in lp._BINDING
    p = lp.LinearProgram()
    x = p.add_variable(0.0, math.inf, "x")
    y = p.add_variable(0.0, 3.0, "y")
    p.add_constraint([(x, 1.0), (y, 1.0)], lp.GE, 1.0)
    p.add_objective_term(x, 1.0)
    p.add_objective_term(y, 2.0)
    log = record_highs()
    held = lp.HeldModel(p)
    assert [held.solve().objective, held.solve([2.0, 1.0]).objective,
            held.solve([-1.0, 1.0]).status, held.solve([2.0, 3.0]).objective,
            held.solve().objective] == [1.0, 1.0, lp.UNBOUNDED, 2.0, 2.0]
    cold = lp.HeldModel(p)
    assert cold.solve([-1.0, 1.0]).status == lp.UNBOUNDED
    assert cold.solve([3.0, 4.0]).objective == pytest.approx(3.0, abs=1e-9)
    warm = lp.HeldModel(p)
    sol = warm.solve()
    assert lp.HeldModel(p, warm.basis).solve().objective == sol.objective == 1.0
    assert [entry[0] for entry in log].count("setBasis") == 2
    assert log.strategies == [dual, primal, primal, primal, dual,
                              dual, dual, dual, dual]


def test_binding_names_exactly_the_highs_methods_lp_calls():
    # the import guard names what the held models use: every method lp
    # reads off a HiGHS instance (``self._highs``, or a name bound to it)
    # is a ``_Highs.*`` entry of _BINDING, and every such entry is read
    with open(lp.__file__) as fh:
        tree = ast.parse(fh.read())
    instance = lambda n: isinstance(n, ast.Attribute) and n.attr == "_highs" \
        and isinstance(n.value, ast.Name) and n.value.id == "self"
    aliases = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and instance(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    called = {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and (
                  instance(node.value) or isinstance(node.value, ast.Name)
                  and node.value.id in aliases)}
    listed = {name.split(".", 1)[1] for name in lp._BINDING
              if name.startswith("_Highs.")}
    assert aliases and called == listed
    assert "changeColsBounds" in listed and "changeRowBounds" not in listed


def test_import_names_a_missing_binding():
    # a scipy whose HiGHS binding lacks a name the held model uses is refused
    # at import, naming what is missing and the scipy that has it
    code = textwrap.dedent("""
        import types
        import scipy.optimize._highspy as pkg
        fake = types.ModuleType("fake")
        fake.__dict__.update({k: v for k, v in vars(pkg._core).items()
                              if k != "HighsBasis"})
        pkg._core = fake
        try:
            import vppsched.lp
        except ImportError as exc:
            print(exc)
    """)
    src = os.path.dirname(os.path.dirname(lp.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert "scipy>=1.15" in out.stdout
    assert out.stdout.strip().endswith("lacks HighsBasis")
