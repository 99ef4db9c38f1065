import math
from types import SimpleNamespace

import numpy as np
import pytest

from vppsched import lp
from vppsched import network as nw
from vppsched.market import MarketHorizon

from test_devices import instantiate

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
    nw.save_network(net, tmp_path / "buses.csv", tmp_path / "branches.csv")
    back = nw.load_network(tmp_path / "buses.csv", tmp_path / "branches.csv",
                           net.base_mva, net.base_kv)
    assert [b.id for b in back.buses] == [b.id for b in net.buses]
    assert all(a == b for a, b in zip(back.branches, net.branches))
    nw.validate_radial(back)
