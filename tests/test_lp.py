import math
import pickle

import numpy as np
import pytest

from vppsched import lp

from oracles import random_feasible_bounded_lp, vertex_enumeration_optimum


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

