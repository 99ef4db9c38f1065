import ast
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from vppsched import benders as bd
from vppsched import instance as im
from vppsched import lp
from vppsched import network as nw
from vppsched import scenarios as sg
from vppsched import stochastic as st
from vppsched.devices import Bess, DerPark
from vppsched.market import MarketHorizon
from vppsched.model import BlockTemplate, VppModel

from oracles import infeasibility, unscreened
from test_devices import instantiate
from test_model import canonical_slots
from test_stochastic import assert_certified

H1 = MarketHorizon(1, 0.25, 0.25)


def with_loads(program, load_p, load_q=None, horizon=H1):
    """The emitted grid program with the given fixed loads (kW, kvar)."""
    loads = SimpleNamespace(load_active=load_p, load_reactive=load_q or {})
    return instantiate(program, loads, horizon)


def chain_network(n, r=0.01, x=0.0, s_max=250.0):
    buses = [nw.Bus(0, is_root=True)] + [nw.Bus(i) for i in range(1, n)]
    branches = [nw.Branch(i, i + 1, r, x, s_max) for i in range(n - 1)]
    return nw.RadialNetwork(buses, branches)


# ------------------------------------------------------------- validation

def test_two_bus_feeder_is_valid():
    net = chain_network(2)
    topo = nw.validate_radial(net)
    assert topo.order == [0, 1]
    assert topo.parent_branch[1] == 0


def test_cycle_detected():
    buses = [nw.Bus(0, is_root=True), nw.Bus(1), nw.Bus(2)]
    branches = [nw.Branch(0, 1, 0.01, 0.01, 100.0),
                nw.Branch(1, 2, 0.01, 0.01, 100.0),
                nw.Branch(2, 0, 0.01, 0.01, 100.0)]
    with pytest.raises(nw.NetworkError):
        nw.validate_radial(nw.RadialNetwork(buses, branches))


def test_disconnected_bus_detected():
    buses = [nw.Bus(0, is_root=True), nw.Bus(1), nw.Bus(2), nw.Bus(3)]
    branches = [nw.Branch(0, 1, 0.01, 0.01, 100.0),
                nw.Branch(2, 3, 0.01, 0.01, 100.0),
                nw.Branch(0, 1, 0.02, 0.01, 100.0)]   # parallel edge, count ok
    with pytest.raises(nw.NetworkError):
        nw.validate_radial(nw.RadialNetwork(buses, branches))


def test_root_count_enforced():
    with pytest.raises(nw.NetworkError):
        nw.validate_radial(nw.RadialNetwork([nw.Bus(0), nw.Bus(1)],
                                            [nw.Branch(0, 1, 0.01, 0, 100.0)]))
    buses = [nw.Bus(0, is_root=True), nw.Bus(1, is_root=True)]
    with pytest.raises(nw.NetworkError):
        nw.validate_radial(nw.RadialNetwork(buses, [nw.Branch(0, 1, 0.01, 0, 100.0)]))


def test_synthetic_97_bus_feeder_is_valid():
    net = nw.make_synthetic_feeder(97, seed=3)
    topo = nw.validate_radial(net)
    assert len(net.buses) == 97 and len(net.branches) == 96
    assert len(topo.order) == 97


def test_unknown_bus_reference():
    net = nw.RadialNetwork([nw.Bus(0, is_root=True), nw.Bus(1)],
                           [nw.Branch(0, 9, 0.01, 0.0, 100.0)])
    with pytest.raises(nw.NetworkError):
        nw.validate_radial(net)


# ------------------------------------------------------------ flow physics

def solve_flows(net, load_p, load_q=None, cons_p=None, cons_q=None,
                horizon=H1, wit_weight=1.0):
    """Emit and solve a pure grid block, minimizing total withdrawal so the
    epigraph is tight."""
    topo = nw.validate_radial(net)
    program = lp.LinearProgram()
    handles = nw.emit_distflow(program, net, topo, horizon,
                               cons_p or {}, cons_q or {})
    program = with_loads(program, load_p, load_q, horizon)
    for bus, idxs in handles.wit.items():
        for i in idxs:
            program.add_objective_term(i, wit_weight)
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    return program, handles, sol


def test_single_branch_lossless_conservation():
    net = chain_network(2)
    _, handles, sol = solve_flows(net, {1: np.array([1.0])}, {1: np.array([0.0])})
    assert sol.primal[handles.pcc[0]] == pytest.approx(1.0, abs=1e-9)
    flow_kw = sol.primal[handles.branch_p[0][0]] * net.s_base_kw
    assert flow_kw == pytest.approx(1.0, abs=1e-9)


def test_voltage_drop_hand_value():
    # r = 0.01 pu and a 0.02 pu active load with no reactive part
    net = chain_network(2, r=0.01, x=0.0)
    load_kw = 0.02 * net.s_base_kw
    _, handles, sol = solve_flows(net, {1: np.array([load_kw])},
                                  {1: np.array([0.0])})
    v_leaf = sol.primal[handles.bus_v[1][0]]
    assert v_leaf == pytest.approx(1.0 - 2.0 * 0.01 * 0.02, abs=1e-12)


def test_exporting_leaf_has_zero_withdrawal():
    net = chain_network(2)
    program = lp.LinearProgram()
    topo = nw.validate_radial(net)
    pv = program.add_variable(1.0, 1.0, "pv")        # 1 kW injection, pinned
    cons_p = {1: [[(pv, -1.0)]]}
    handles = nw.emit_distflow(program, net, topo, H1, cons_p, {})
    program = with_loads(program, {1: np.array([0.0])}, {1: np.array([0.0])})
    for idxs in handles.wit.values():
        program.add_objective_term(idxs[0], 1.0)
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    assert sol.primal[handles.wit[1][0]] == pytest.approx(0.0, abs=1e-9)
    assert sol.primal[handles.pcc[0]] == pytest.approx(-1.0, abs=1e-9)


def test_withdrawal_epigraph_tight_under_positive_weight():
    net = chain_network(3)
    load = {1: np.array([2.5]), 2: np.array([0.0])}
    _, handles, sol = solve_flows(net, load, {1: np.array([0.0]),
                                              2: np.array([0.0])})
    assert sol.primal[handles.wit[1][0]] == pytest.approx(2.5, abs=1e-9)
    assert sol.primal[handles.wit[2][0]] == pytest.approx(0.0, abs=1e-9)


def test_conservation_on_random_feeders():
    rng = np.random.default_rng(5)
    for n_bus in (10, 50, 97):
        net = nw.make_synthetic_feeder(n_bus, seed=n_bus)
        load_p = {b.id: rng.uniform(0.5, 3.0, size=1) for b in net.buses
                  if not b.is_root}
        load_q = {bus: 0.3 * series for bus, series in load_p.items()}
        _, handles, sol = solve_flows(net, load_p, load_q)
        total_load = sum(v[0] for v in load_p.values())
        pcc = sol.primal[handles.pcc[0]]
        # net injections are -loads here, so the balance reduces to this
        assert abs(pcc - total_load) <= 1e-9 * (1.0 + total_load)


def test_voltage_monotone_on_uniform_loaded_chain():
    net = chain_network(6, r=0.008, x=0.004)
    load_p = {i: np.array([2.0]) for i in range(1, 6)}
    load_q = {i: np.array([0.6]) for i in range(1, 6)}
    _, handles, sol = solve_flows(net, load_p, load_q)
    voltages = [sol.primal[handles.bus_v[i][0]] for i in range(6)]
    assert all(voltages[i + 1] <= voltages[i] + 1e-12 for i in range(5))


# ------------------------------------------------------------- flow limits

def test_polygon_is_inner_approximation():
    rng = np.random.default_rng(17)
    s_max = 3.0
    for segments in (4, 8, 16):
        pts = rng.uniform(-1.2 * s_max, 1.2 * s_max, size=(10_000, 2))
        admitted = np.array([nw.polygon_admits(p, q, s_max, segments)
                             for p, q in pts])
        inside = pts[admitted]
        assert np.all(inside[:, 0] ** 2 + inside[:, 1] ** 2 <= s_max ** 2 + 1e-9)


def test_polygon_axis_cut_k4():
    s_max = 2.0
    # the circle point on the axis is cut off, the polygon's own axis cut is kept
    assert not nw.polygon_admits(s_max, 0.0, s_max, 4)
    assert nw.polygon_admits(s_max * math.cos(math.pi / 4), 0.0, s_max, 4)


def test_polygon_axis_cut_converges_to_circle():
    s_max = 1.0
    for segments in (8, 32, 128):
        cut = s_max * math.cos(math.pi / segments)
        assert nw.polygon_admits(cut - 1e-9, 0.0, s_max, segments)
        assert not nw.polygon_admits(cut + 1e-6, 0.0, s_max, segments)


def test_flow_limit_rows_bind_in_lp():
    net = chain_network(2, r=0.0, x=0.0, s_max=100.0)
    program = lp.LinearProgram()
    topo = nw.validate_radial(net)
    # a 500 kW load cannot fit through a 100 kVA branch
    handles = nw.emit_distflow(program, net, topo, H1, {}, {})
    nw.emit_flow_limits(program, net, handles, H1, segments=8)
    program = with_loads(program, {1: np.array([500.0])}, {1: np.array([0.0])})
    assert lp.solve(program).status == lp.INFEASIBLE


def test_flow_limits_reject_small_k():
    net = chain_network(2)
    program = lp.LinearProgram()
    topo = nw.validate_radial(net)
    handles = nw.emit_distflow(program, net, topo, H1, {}, {})
    with pytest.raises(nw.NetworkError):
        nw.emit_flow_limits(program, net, handles, H1, segments=3)


# --------------------------------------------------------------- round trip

def test_network_csv_roundtrip(tmp_path):
    net = nw.make_synthetic_feeder(12, seed=9)
    paths = (tmp_path / "buses.csv", tmp_path / "branches.csv")
    nw.save_network(net, *paths)
    back = nw.load_network(*paths, net.base_mva)
    assert back == net
    assert [b.is_root for b in back.buses] == [True] + [False] * 11
    nw.validate_radial(back)
    # CRLF tables, as shipped before, read to the same network
    for path in paths:
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert nw.load_network(*paths, net.base_mva) == net


def test_grid_block_is_emitted_in_bulk():
    # the grid is most of the block: network.py appends its rows through
    # ``add_rows`` only, never one ``add_constraint`` call per row
    with open(nw.__file__) as fh:
        tree = ast.parse(fh.read())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_constraint"]
    assert calls == []


def row_by_row_grid(program, network, topo, horizon, cons_p, cons_q,
                    segments, paper=False):
    """Reference for the bulk emitters: the grid block one ``add_variable``
    and one ``add_constraint`` at a time, in the documented order, the flow
    polygon's axis sides as bounds of the flow columns. The root's ``balP``
    row is the feeder-wide balance: every bus's consumption terms added up
    by column, in bus order and then in column order, then the import, and
    every bus's load; given ``paper``, it is the root's own balance, as the
    paper states it."""
    T, K = horizon.step_count, len(network.branches)
    root = network.root_id()
    scale = 1.0 / network.s_base_kw
    free = lambda name: program.add_variable(-math.inf, math.inf, name)
    sides = nw.polygon_sides(segments)
    rating = [br.s_max_kva / network.s_base_kw * math.cos(math.pi / segments)
              for br in network.branches]

    def flow(k, axis, name):
        # the polygon sides on this flow's axis bound its column
        lo, hi = -math.inf, math.inf
        for side in sides:
            c = side[axis]
            if side[1 - axis] == 0.0:
                lo, hi = (lo, min(hi, rating[k] / c)) if c > 0 \
                    else (max(lo, rating[k] / c), hi)
        return program.add_variable(lo, hi, name)

    fp = {k: [flow(k, 0, f"fp[{k},{t}]") for t in range(T)] for k in range(K)}
    fq = {k: [flow(k, 1, f"fq[{k},{t}]") for t in range(T)] for k in range(K)}
    v = {b.id: [program.add_variable(*((1.0, 1.0) if b.id == root
                                       else (b.v_min, b.v_max)),
                                     f"v[{b.id},{t}]") for t in range(T)]
         for b in network.buses}
    pcc = [free(f"pcc[{t}]") for t in range(T)]
    wit = {b.id: [program.add_variable(0.0, math.inf, f"wit[{b.id},{t}]")
                  for t in range(T)] for b in network.buses}
    for t in range(T):
        for b in network.buses:
            i = b.id
            own_p = cons_p[i][t] if i in cons_p else []
            own_q = cons_q[i][t] if i in cons_q else []
            if i == root and not paper:
                terms = {}
                for bus in network.buses:
                    for j, c in cons_p[bus.id][t] if bus.id in cons_p else []:
                        terms[j] = terms.get(j, 0.0) + c * scale
                row = program.add_constraint(
                    sorted(terms.items()) + [(pcc[t], -scale)],
                    lp.EQ, 0.0, f"balP[{i},{t}]")
                for bus in network.buses:
                    program.add_slots(lp.RHS, [row], "load_active", bus.id, t,
                                      -scale)
            else:
                up = [(pcc[t], -scale)] if i == root \
                    else [(fp[topo.parent_branch[i]][t], -1.0)]
                row = program.add_constraint(
                    [(j, c * scale) for j, c in own_p] + up
                    + [(fp[k][t], 1.0) for k in topo.child_branches[i]],
                    lp.EQ, 0.0, f"balP[{i},{t}]")
                program.add_slots(lp.RHS, [row], "load_active", i, t, -scale)
            if i != root:
                row = program.add_constraint(
                    [(j, c * scale) for j, c in own_q]
                    + [(fq[topo.parent_branch[i]][t], -1.0)]
                    + [(fq[k][t], 1.0) for k in topo.child_branches[i]],
                    lp.EQ, 0.0, f"balQ[{i},{t}]")
                program.add_slots(lp.RHS, [row], "load_reactive", i, t, -scale)
            # the withdrawal epigraph is a row only where the bus has
            # controllable consumption; elsewhere the load bounds wit below
            if own_p:
                row = program.add_constraint([(wit[i][t], 1.0)]
                                             + [(j, -c) for j, c in own_p],
                                             lp.GE, 0.0, f"wit[{i},{t}]")
                program.add_slots(lp.RHS, [row], "load_active", i, t)
            else:
                program.add_slots(lp.LOWER, [wit[i][t]], "load_active", i, t)
        for k, br in enumerate(network.branches):
            up, dn = nw.branch_endpoints(network, topo, k)
            program.add_constraint(
                [(v[dn][t], 1.0), (v[up][t], -1.0), (fp[k][t], 2.0 * br.r_pu),
                 (fq[k][t], 2.0 * br.x_pu)], lp.EQ, 0.0, f"vdrop[{k},{t}]")
    for k in range(K):
        for t in range(T):
            for seg, (c, s) in enumerate(sides):
                if c and s:
                    program.add_constraint([(fp[k][t], c), (fq[k][t], s)],
                                           lp.LE, rating[k], f"flow[{k},{t},{seg}]")
    return nw.GridHandles(fp, fq, v, pcc, wit)


@pytest.mark.parametrize("seed", range(12))
def test_bulk_grid_matches_row_by_row_emission(seed):
    # random feeders in shuffled bus order, devices on any bus (the root
    # too) and zero impedances: the same arrays, names, slots and handles
    rng = np.random.default_rng(seed)
    net = nw.make_synthetic_feeder(int(rng.integers(2, 9)), seed=seed)
    buses = [net.buses[n] for n in rng.permutation(len(net.buses))]
    branches = [nw.Branch(br.from_bus, br.to_bus, br.r_pu * (seed % 3 > 0),
                          br.x_pu, br.s_max_kva) for br in net.branches]
    net = nw.RadialNetwork(buses, branches)
    horizon = MarketHorizon(int(rng.integers(1, 5)), 0.25, 0.25)
    T = horizon.step_count
    topo = nw.validate_radial(net)
    terms = lambda: {b.id: [[(int(j), float(rng.normal()))
                             for j in rng.choice(5, rng.integers(0, 4),
                                                 replace=False)]
                            for _ in range(T)]
                     for b in buses if rng.random() < 0.7}
    cons_p, cons_q = terms(), terms()
    segments = int(rng.integers(4, 11))
    programs, handles = [], []
    for emit in ("bulk", "row by row"):
        p = lp.LinearProgram()
        for j in range(5):
            p.add_variable(0.0, 1.0, f"d{j}")
        if emit == "bulk":
            h = nw.emit_distflow(p, net, topo, horizon, cons_p, cons_q)
            nw.emit_flow_limits(p, net, h, horizon, segments)
        else:
            h = row_by_row_grid(p, net, topo, horizon, cons_p, cons_q,
                                segments)
        p.add_constraint([(0, 1.0)], lp.LE, 1.0, "after")
        programs.append(p)
        handles.append(h)
    bulk, ref = programs
    for key in ("lower", "upper", "cost", "indptr", "indices", "data",
                "sense", "rhs"):
        a, b = getattr(bulk, key), getattr(ref, key)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
    slots = [canonical_slots(BlockTemplate(p, horizon)) for p in programs]
    assert (bulk.col_names, bulk.row_names, slots[0]) \
        == (ref.col_names, ref.row_names, slots[1])
    assert repr(handles[0]) == repr(handles[1])


def polygon_rows_reference(program, network, handles, horizon, segments=8):
    """The flow polygon as it was emitted before its axis sides became
    column bounds: every side a row cos(a_k) P + sin(a_k) Q <= s_max
    cos(pi/K), zero coefficients left out. The oracle for the new layout."""
    for k, br in enumerate(network.branches):
        rhs = br.s_max_kva / network.s_base_kw * math.cos(math.pi / segments)
        for t in range(horizon.step_count):
            p, q = handles.branch_p[k][t], handles.branch_q[k][t]
            for seg, (c, s) in enumerate(nw.polygon_sides(segments)):
                program.add_constraint([(j, a) for j, a in ((p, c), (q, s)) if a],
                                       lp.LE, rhs, f"flow[{k},{t},{seg}]")
    # every side is stated, so the flow columns leave no block to derive
    program.derived_rows = program.derived_columns = np.zeros(0, np.int64)


def flow_program(net, points, segments, emit):
    """One branch's flow columns, a step per point, limited by ``emit``;
    returns the program and the points as its primal vector."""
    T = len(points)
    program = lp.LinearProgram()
    fp = program.add_variables(-math.inf, math.inf, [f"fp[0,{t}]" for t in range(T)])
    fq = program.add_variables(-math.inf, math.inf, [f"fq[0,{t}]" for t in range(T)])
    handles = nw.GridHandles({0: fp.tolist()}, {0: fq.tolist()}, {}, [], {})
    emit(program, net, handles, MarketHorizon(T, 0.25, 0.25), segments)
    return program, np.concatenate([points[:, 0], points[:, 1]])


def admitted(program, x, T):
    """Per step, whether its point keeps every column bound and every row
    within the slack ``polygon_admits`` allows."""
    ok = (x >= program.lower - 1e-12) & (x <= program.upper + 1e-12)
    ok = ok[:T] & ok[T:]
    over = program.matrix @ x > program.rhs + 1e-12
    ok[np.unique(program.matrix[over].indices % T)] = False
    return ok


@pytest.mark.parametrize("segments", [4, 6, 8, 12])
def test_axis_bounds_and_rows_admit_the_polygon(segments):
    # the new layout (axis sides as bounds, the rest as rows) and the old
    # one (every side a row) admit exactly the points polygon_admits
    # admits: random points, the vertices, and points 1e-9 in and out
    net = chain_network(2, s_max=250.0)
    s = 250.0 / net.s_base_kw
    r = s * math.cos(math.pi / segments)
    angles = 2.0 * math.pi * np.arange(segments) / segments
    normals = np.column_stack((np.cos(angles), np.sin(angles)))
    vertices = s * np.column_stack((np.cos(angles + math.pi / segments),
                                    np.sin(angles + math.pi / segments)))
    radial = vertices / s
    points = np.concatenate(
        [np.random.default_rng(segments).uniform(-1.2 * s, 1.2 * s, (2000, 2)),
         vertices, vertices + 1e-9 * radial, vertices - 1e-9 * radial,
         (r + 1e-9) * normals, (r - 1e-9) * normals])
    want = np.array([nw.polygon_admits(p, q, s, segments) for p, q in points])
    assert want.any() and not want.all()
    rows = []
    for emit in (nw.emit_flow_limits, polygon_rows_reference):
        program, x = flow_program(net, points, segments, emit)
        assert np.array_equal(admitted(program, x, len(points)), want)
        rows.append(program.num_constraints)
    # only the sides on an axis left the rows (for 8 sides, 4 of them)
    on_axis = sum(1 for c, q in nw.polygon_sides(segments) if not (c and q))
    assert rows == [(segments - on_axis) * len(points), segments * len(points)]


def random_feeder_model(seed):
    """The desk park on feeder ``seed`` of the bulk-emission test (devices
    moved onto its buses), with each branch rated just above the peak load
    of the buses it feeds, so that the flow polygon binds."""
    desk = im.desk_instance()
    rng = np.random.default_rng(seed)
    net = nw.make_synthetic_feeder(int(rng.integers(2, 9)), seed=seed)
    n, segments = len(net.buses), int(rng.integers(4, 13))
    park = desk.model.park
    park = DerPark(*([dataclasses.replace(d, node=d.node % n) for d in devs]
                     for devs in (park.dgs, park.hps, park.evs, park.bess)))
    sset = sg.build_scenarios(desk.forecast, sg.DEFAULT_ERROR_SPECS, 3, seed)
    below = np.zeros(n)
    for b in range(1, n):
        if b in sset.scenarios[0].load_active:
            below[b] = max(np.max(np.hypot(sc.load_active[b], sc.load_reactive[b]))
                           for sc in sset.scenarios)
    for hp in park.hps:
        below[hp.node] += hp.max_elec_kw
    for br in reversed(net.branches):          # children come after parents
        below[br.from_bus] += below[br.to_bus]
    branches = [dataclasses.replace(
        br, s_max_kva=(below[br.to_bus] + float(rng.uniform(0.5, 6.0)))
        / math.cos(math.pi / segments)) for br in net.branches]
    return VppModel(desk.model.horizon, nw.RadialNetwork(net.buses, branches),
                    park, desk.model.market, segments), sset


def test_extensive_optimum_matches_the_all_rows_polygon(monkeypatch):
    # on the 12 random feeders, the extensive optimum with the axis sides as
    # bounds equals the optimum with every side a row, within 1e-9 relative
    neutral = st.RiskMeasure(st.EXPECTATION)
    binding = 0
    for seed in range(12):
        results = []
        for emit in (nw.emit_flow_limits, polygon_rows_reference):
            monkeypatch.setattr(nw, "emit_flow_limits", emit)
            model, sset = random_feeder_model(seed)
            ef = st.build_extensive(model, sset, neutral)
            results.append((ef, lp.solve(ef.program)))
        monkeypatch.undo()
        (ef, new), (old_ef, old) = results
        assert ef.program.num_constraints < old_ef.program.num_constraints
        assert new.status == old.status == lp.OPTIMAL
        assert new.objective == pytest.approx(old.objective, rel=1e-9, abs=1e-9)
        # the polygon binds where a flow sits on its bound or on a side row
        p, x = ef.program, new.primal
        flows = np.array(["_fp[" in name or "_fq[" in name for name in p.col_names])
        sides = np.array(["_flow[" in name for name in p.row_names])
        binding += bool(np.any(np.minimum(x - p.lower, p.upper - x)[flows] <= 1e-9)
                        or np.any((p.rhs - p.matrix @ x)[sides] <= 1e-9))
    assert binding >= 6


# --------------------------------------------------------------- screening

def narrowed_band(model, v_min, v_max):
    """``model`` with the squared voltage band of every bus but the root
    set to [v_min, v_max]."""
    net = model.network
    buses = [b if b.is_root else dataclasses.replace(b, v_min=v_min, v_max=v_max)
             for b in net.buses]
    return dataclasses.replace(model, network=dataclasses.replace(net, buses=buses))


def narrowed_rating(model, bus, s_max_kva):
    """``model`` with the branch that feeds ``bus`` rated ``s_max_kva``."""
    net = model.network
    k = nw.validate_radial(net).parent_branch[bus]
    branches = list(net.branches)
    branches[k] = dataclasses.replace(branches[k], s_max_kva=s_max_kva)
    return dataclasses.replace(model, network=dataclasses.replace(
        net, branches=branches))


def active_axis_day():
    """day with the branch feeding the EV's bus 4 rated 20 kVA, so that its
    active axis bound, |P| <= 20 cos(pi/8) = 18.5 kW, lies below the flow
    the core's optimum draws through it (21.1 kW); and 5 scenarios (seed
    42)."""
    inst = im.day_instance()
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    return narrowed_rating(inst.model, 4, 20.0), sset


def breaks_a_flow_bound(names, program, x) -> bool:
    """Whether ``x``, a primal or one per row, takes an active flow column,
    by the column ``names``, out of the bounds that ``program`` (its row)
    gives it by more than the screening tolerance."""
    fp = np.flatnonzero(np.char.find(np.array(names), "fp[") >= 0)
    return bool(np.any(lp._outside(x[..., fp], program.lower[..., fp],
                                   program.upper[..., fp])))


def assert_screened_is_full_optimum(program, sol, rows, reference):
    """``sol`` of ``program``, solved in the ``linprog`` runs ``rows``, is
    the optimum of the program solved with every limit stated."""
    assert len(rows) > 1
    assert sol.status == reference.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(reference.objective, rel=1e-9)
    assert infeasibility(program, sol.primal) <= lp.FEAS_TOL
    assert lp.dual_objective(program, sol) == pytest.approx(sol.objective,
                                                            abs=1e-7)


@pytest.mark.parametrize("risk", [st.RiskMeasure(st.EXPECTATION),
                                  st.RiskMeasure(st.CVAR, 0.9)])
def test_screening_reaches_binding_voltage_bands(risk, linprog_rows):
    # day with the band narrowed to +-0.2 % (squared): the relaxed optimum
    # leaves it, so a later round states the bounds it breaks, and the
    # result is the optimum with every limit stated
    inst = im.day_instance()
    model = narrowed_band(inst.model, 0.998, 1.002)
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    program = st.build_extensive(model, sset, risk).program
    sol = lp.solve(program)
    rounds = list(linprog_rows)
    reference = lp.solve(unscreened(program))
    assert_screened_is_full_optimum(program, sol, rounds, reference)
    # the band binds: the optimum is dearer than with the shipped band
    wide = st.build_extensive(inst.model, sset, risk).program
    assert sol.objective > lp.solve(wide).objective + 1e-3


@pytest.mark.parametrize("risk", [st.RiskMeasure(st.EXPECTATION),
                                  st.RiskMeasure(st.CVAR, 0.9)])
def test_screening_reaches_a_binding_active_axis_bound(risk, linprog_rows):
    # the completed core optimum takes a derived fp column past its axis
    # bound: a later round states the block, and the result is the optimum
    # with every limit stated, dearer than with the shipped rating
    model, sset = active_axis_day()
    program = st.build_extensive(model, sset, risk).program
    screen = lp.Screen(program)
    core = lp.HeldModel(screen.relaxed(program)).solve()
    assert breaks_a_flow_bound(program.col_names, program,
                               screen.complete(core.primal, program))
    sol = lp.solve(program)
    rounds = list(linprog_rows)
    assert rounds[1] >= rounds[0] + len(program.derived_rows)
    assert_screened_is_full_optimum(program, sol, rounds,
                                    lp.solve(unscreened(program)))
    inst = im.day_instance()
    wide = st.build_extensive(inst.model, sset, risk).program
    assert sol.objective > lp.solve(wide).objective + 1e-3


def test_screening_reaches_a_binding_diagonal_side(linprog_rows):
    # a 100 kVA branch feeding 60 kvar and as much controllable load as it
    # carries: the diagonal side binds (P = sqrt(2) s cos(pi/8) - Q), which
    # the relaxation, with only the axis bound P <= s cos(pi/8), breaks
    net = chain_network(2, r=0.0, x=0.0, s_max=100.0)
    program = lp.LinearProgram()
    load = program.add_variable(0.0, 1000.0, "load")
    handles = nw.emit_distflow(program, net, nw.validate_radial(net), H1,
                               {1: [[(load, 1.0)]]}, {})
    rows = nw.emit_flow_limits(program, net, handles, H1, segments=8)
    program = with_loads(program, {1: np.array([0.0])}, {1: np.array([60.0])})
    program.add_objective_term(load, -1.0)
    sol = lp.solve(program)
    rounds = list(linprog_rows)
    assert_screened_is_full_optimum(program, sol, rounds,
                                    lp.solve(unscreened(program)))
    cut = 100.0 * math.cos(math.pi / 8)
    assert sol.primal[load] == pytest.approx(math.sqrt(2.0) * cut - 60.0)
    assert np.count_nonzero(sol.duals[rows]) == 1


def test_limits_infeasible_only_when_stated_name_the_block():
    # a band from 5 % above the root voltage needs an export far beyond the
    # park's: the relaxation is feasible, the program is not, and the
    # diagnosis still names the first block
    desk = im.desk_instance()
    model = narrowed_band(desk.model, 1.05 ** 2, 1.1 ** 2)
    sset = sg.build_scenarios(desk.forecast, sg.DEFAULT_ERROR_SPECS, 2, seed=42)
    ef = st.build_extensive(model, sset, st.RiskMeasure(st.EXPECTATION))
    relaxed = unscreened(ef.program)
    relaxed.lower[ef.program.derived_columns] = -math.inf
    relaxed.upper[ef.program.derived_columns] = math.inf
    assert lp.solve(relaxed).status == lp.OPTIMAL
    assert lp.solve(ef.program).status == lp.INFEASIBLE
    with pytest.raises(st.ModelInfeasible) as exc:
        st.solve_extensive(model, ef, sset)
    assert exc.value.scenario_index == 0


@pytest.mark.parametrize("risk", [st.EXPECTATION, st.CVAR])
@pytest.mark.parametrize("limit", ["band", "rating"])
def test_infeasible_limits_name_certified_rows(limit, risk):
    # a voltage band the park cannot reach, or the branch to the EV's bus 4
    # rated 1 VA: both methods name rows that admit no point on their own
    desk = im.desk_instance()
    model = narrowed_band(desk.model, 1.05 ** 2, 1.1 ** 2) if limit == "band" \
        else narrowed_rating(desk.model, 4, 1e-3)
    sset = sg.build_scenarios(desk.forecast, sg.DEFAULT_ERROR_SPECS, 2, seed=42)
    measure = st.RiskMeasure(risk)
    ef = st.build_extensive(model, sset, measure)
    with pytest.raises(st.ModelInfeasible) as exc:
        st.solve_extensive(model, ef, sset)
    assert_certified(exc.value, model, sset, ef)
    with pytest.raises(st.ModelInfeasible) as exc:
        bd.iterate(model, sset, measure)
    assert_certified(exc.value, model, sset)


@pytest.mark.parametrize("risk", [st.EXPECTATION, st.CVAR])
def test_battery_alone_with_a_load_names_its_rows_and_its_bus(risk):
    # a battery and the load of desk's leaf bus 2 alone there, the branch
    # feeding the bus rated 1 kVA, below the load at every step: st_tie
    # returns the battery to its initial charge, so no dispatch serves the
    # load, and both methods name the battery's st_dyn and st_tie rows and
    # the bus's balance rows, which admit no point on their own
    desk = im.desk_instance()
    park = dataclasses.replace(desk.model.park, dgs=[], bess=[
        Bess("bat2", 2, 15.0, 10.0, 12.0, 0.95, 0.95, 7.5, 0.01)])
    model = narrowed_rating(dataclasses.replace(desk.model, park=park), 2, 1.0)
    sset = sg.build_scenarios(desk.forecast, sg.DEFAULT_ERROR_SPECS, 2, seed=42)
    steps = range(model.horizon.step_count)
    expected = {"st_tie_bat2", *(f"st_dyn_bat2[{t}]" for t in steps),
                *(f"balP[2,{t}]" for t in steps)}
    measure = st.RiskMeasure(risk)
    ef = st.build_extensive(model, sset, measure)
    with pytest.raises(st.ModelInfeasible) as exc:
        st.solve_extensive(model, ef, sset)
    assert_certified(exc.value, model, sset, ef)
    assert set(exc.value.rows) == {f"s0_{name}" for name in expected}
    with pytest.raises(st.ModelInfeasible) as exc:
        bd.iterate(model, sset, measure)
    assert_certified(exc.value, model, sset)
    assert set(exc.value.rows) == expected


# ------------------------------------------------------------ derived block

def assert_derived_block(model):
    """The derived block of ``model``'s compiled block: the non-root balP,
    the balQ and the vdrop rows and the fp, fq and non-root v columns, as
    many rows as columns, a block A[R, C] that factors, no cost on C, and
    no nonzero of C outside R and the lazy rows."""
    p = model.template.program
    root = model.network.root_id()
    rows = [i for i, name in enumerate(p.row_names)
            if name.startswith(("balP[", "balQ[", "vdrop["))
            and not name.startswith(f"balP[{root},")]
    cols = [j for j, name in enumerate(p.col_names)
            if name.startswith(("fp[", "fq["))
            or name.startswith("v[") and not name.startswith(f"v[{root},")]
    assert sorted(p.derived_rows.tolist()) == rows
    assert sorted(p.derived_columns.tolist()) == cols
    assert len(rows) == len(cols) > 0
    assert (p.sense[rows] == lp.EQ).all()
    A = p.matrix.tocsc()
    factor = splu(A[rows][:, cols].tocsc())
    assert np.isfinite(factor.solve(np.ones(len(rows)))).all()
    assert not p.cost[cols].any()
    block = A[:, cols]
    hit = np.unique(block.indices[block.data != 0.0])
    assert set(hit.tolist()) <= set(rows) | set(p.lazy_rows.tolist())


@pytest.mark.parametrize("preset", ["desk", "day", "full"])
def test_presets_mark_the_reactive_voltage_block(preset):
    assert_derived_block(im.PRESETS[preset]().model)


@pytest.mark.parametrize("seed", range(12))
def test_random_feeders_mark_the_reactive_voltage_block(seed):
    assert_derived_block(random_feeder_model(seed)[0])


def paper_form(model):
    """``model`` compiled with its grid emitted row by row in the paper's
    form (``row_by_row_grid`` given ``paper``): the root's balP row its own
    balance, no limit lazy, no block derived."""
    emit = lambda program, net, topo, hz, cons_p, cons_q: row_by_row_grid(
        program, net, topo, hz, cons_p, cons_q, model.flow_segments, paper=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nw, "emit_distflow", emit)
        mp.setattr(nw, "emit_flow_limits", lambda *args: None)
        twin = dataclasses.replace(model)
        twin.template
    return twin


def assert_root_row_sums_the_paper_rows(model):
    """Each root balP row of ``model``'s compiled block is the sum of the
    balP rows of its step in the paper's form, in its coefficients and its
    right-hand-side slots; every other row, column and slot is the paper
    form's own."""
    feeder, paper = model.template, paper_form(model).template
    p, q = feeder.program, paper.program
    root = model.network.root_id()
    assert (p.col_names, p.row_names) == (q.col_names, q.row_names)
    for key in ("lower", "upper", "cost", "sense", "rhs"):
        assert np.array_equal(getattr(p, key), getattr(q, key)), key
    names = np.array(p.row_names)
    roots = np.flatnonzero(np.char.startswith(names, f"balP[{root},"))
    assert len(roots) == model.horizon.step_count
    others = np.setdiff1d(np.arange(len(names)), roots)
    A, B = p.matrix, q.matrix
    assert (A[others] != B[others]).nnz == 0
    slots = [canonical_slots(tpl) for tpl in (feeder, paper)]
    on = lambda k, rows: sorted(slot[2:] for slot in slots[k]
                                if slot[0] == lp.RHS and slot[1] in rows)
    off_root = set(others.tolist())
    assert [s for s in slots[0] if s[0] != lp.RHS or s[1] in off_root] \
        == [s for s in slots[1] if s[0] != lp.RHS or s[1] in off_root]
    for t, row in enumerate(roots):
        step = np.flatnonzero(np.char.startswith(names, "balP[")
                              & np.char.endswith(names, f",{t}]"))
        assert np.array_equal(A[row].toarray(), B[step].sum(axis=0).A)
        assert on(0, {row}) == on(1, set(step.tolist()))


@pytest.mark.parametrize("preset", ["desk", "day", "full"])
def test_preset_root_row_is_the_feeder_wide_balance(preset):
    assert_root_row_sums_the_paper_rows(im.PRESETS[preset]().model)


@pytest.mark.parametrize("seed", range(12))
def test_random_feeder_root_row_is_the_feeder_wide_balance(seed):
    assert_root_row_sums_the_paper_rows(random_feeder_model(seed)[0])


@pytest.mark.parametrize("preset", ["desk", "day"])
@pytest.mark.parametrize("risk", [st.RiskMeasure(st.EXPECTATION),
                                  st.RiskMeasure(st.CVAR, 0.9)])
def test_feeder_wide_balance_keeps_the_optimum(preset, risk):
    # the unscreened extensive optimum is the same in either form
    inst = im.PRESETS[preset]()
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    new, old = (lp.solve(unscreened(st.build_extensive(m, sset, risk).program))
                for m in (inst.model, paper_form(inst.model)))
    assert new.status == old.status == lp.OPTIMAL
    assert new.objective == pytest.approx(old.objective, rel=1e-9)


@pytest.mark.parametrize("preset, count", [("desk", 5), ("day", 5), ("full", 4)])
@pytest.mark.parametrize("risk", [st.RiskMeasure(st.EXPECTATION),
                                  st.RiskMeasure(st.CVAR, 0.9)])
def test_preset_optimum_leaves_every_derived_bound_slack(preset, count, risk,
                                                          linprog_rows):
    # every solve path leaves the derived block out because at a shipped
    # optimum no bound of a derived column binds: one run of the core, and
    # every fp, fq and v column well inside its bounds
    inst = im.PRESETS[preset]()
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, count,
                              seed=42)
    program = st.build_extensive(inst.model, sset, risk).program
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL and len(linprog_rows) == 1
    block = program.derived_columns
    x, lo, hi = sol.primal[block], program.lower[block], program.upper[block]
    assert np.all(x - lo > 1e-6 * (1.0 + np.abs(lo)))
    assert np.all(hi - x > 1e-6 * (1.0 + np.abs(hi)))


@pytest.mark.parametrize("preset", ["desk", "day"])
def test_completed_core_optimum_is_feasible_and_optimal(preset):
    # the core, without the lazy limits and the derived block, solved once:
    # its primal completed from the derived rows meets every row and bound
    # of the full program, at the full program's optimum
    inst = im.PRESETS[preset]()
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    ef = st.build_extensive(inst.model, sset, st.RiskMeasure(st.EXPECTATION))
    program = ef.program
    screen = lp.Screen(program)
    form = screen.relaxed(program)
    # the withdrawal of a bus without controllable consumption is a bound,
    # so no row holds its column, and the core leaves that column out too
    rowless = np.bincount(program.matrix.indices,
                          minlength=program.num_variables) == 0
    assert rowless.sum() > 0
    assert form.matrix.shape == (
        program.num_constraints - len(program.lazy_rows)
        - len(program.derived_rows),
        program.num_variables - len(program.derived_columns) - rowless.sum())
    sol = lp.HeldModel(form).solve()
    x = screen.complete(sol.primal, program)
    assert infeasibility(program, x) <= lp.FEAS_TOL
    assert not screen.violated(x, program)[1]
    full = lp.solve(unscreened(program))
    assert x @ program.cost == pytest.approx(full.objective, rel=1e-9)


def extensive_case(case):
    """The neutral extensive form of a preset over 5 scenarios (seed 42),
    or of random feeder ``case``."""
    if isinstance(case, int):
        model, sset = random_feeder_model(case)
    else:
        inst = im.PRESETS[case]()
        model = inst.model
        sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 5,
                                  seed=42)
    return st.build_extensive(model, sset, st.RiskMeasure(st.EXPECTATION))


@pytest.mark.parametrize("case", ["desk", "day", *range(12)])
def test_extensive_completion_matches_a_factor_of_its_own_block(case):
    # the extensive form completes its block, the template's once per
    # scenario, on the template's factor, one right-hand side a scenario:
    # the same derived columns as a sparse LU of the extensive block itself
    program = extensive_case(case).program
    screen = lp.Screen(program)
    x = lp.HeldModel(screen.relaxed(program)).solve().primal
    rows, cols = screen.block_rows, screen.block_columns
    A = program.matrix[rows]
    own = splu(A[:, cols].tocsc()).solve(
        program.rhs[rows] - A[:, screen.layout()[1]] @ x)
    got = screen.complete(x, program)[cols]
    assert np.max(np.abs(got - own)) <= 1e-12 * np.max(np.abs(own))


@pytest.mark.parametrize("risk", [st.RiskMeasure(st.EXPECTATION),
                                  st.RiskMeasure(st.CVAR, 0.9)])
def test_extensive_solve_factors_no_block_of_its_own(risk, splu_threads):
    # once a screen of the template has factored its block, a screened
    # solve of the extensive form, the CVaR's tail rows and columns
    # appended, makes no sparse LU
    inst = im.day_instance()
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    lp.Screen(inst.model.template.program)
    assert len(splu_threads) == 1
    sol = lp.solve(st.build_extensive(inst.model, sset, risk).program)
    assert sol.status == lp.OPTIMAL and len(splu_threads) == 1
