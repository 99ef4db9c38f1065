"""Radial distribution network and linearized branch-flow emission.

The grid is a tree rooted at the coupling point. Power flow uses the
lossless linear branch-flow form: each branch carries the net consumption
of the subtree below it, squared voltages drop along a branch by
2*(r*P + x*Q), and the root voltage is pinned to 1 p.u.^2. Apparent-power
branch limits are enforced by a regular inscribed polygon, which is
conservative with respect to the true circular limit.

All network quantities inside the LP are per-unit; device and load
quantities stay in kW/kvar and are scaled at the nodal-balance boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .market import MarketHorizon


class NetworkError(Exception):
    pass


@dataclass(frozen=True)
class Bus:
    id: int
    v_min: float = 0.9025      # squared p.u., -5 percent band
    v_max: float = 1.1025
    is_root: bool = False

    def __post_init__(self):
        if not (0.0 < self.v_min <= self.v_max):
            raise NetworkError(f"bus {self.id}: bad voltage band")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    s_max_kva: float

    def __post_init__(self):
        if self.r_pu < 0 or self.x_pu < 0:
            raise NetworkError("branch impedance must be nonnegative")
        if self.s_max_kva <= 0:
            raise NetworkError("branch rating must be positive")
        if self.from_bus == self.to_bus:
            raise NetworkError("self-loop branch")


@dataclass
class RadialNetwork:
    buses: list[Bus]
    branches: list[Branch]
    base_mva: float = 0.4
    base_kv: float = 0.4

    @property
    def s_base_kw(self) -> float:
        return self.base_mva * 1000.0

    def bus_ids(self) -> list[int]:
        return [b.id for b in self.buses]

    def root_id(self) -> int:
        roots = [b.id for b in self.buses if b.is_root]
        if len(roots) != 1:
            raise NetworkError(f"expected exactly one root bus, found {len(roots)}")
        return roots[0]


@dataclass
class Topology:
    """Orientation of the tree away from the root."""

    order: list[int]                       # buses in breadth-first order
    parent_branch: dict[int, int]          # bus -> branch index feeding it
    child_branches: dict[int, list[int]]   # bus -> branch indices leaving it
    direction: dict[int, int]              # branch index -> +1 if stored
                                           # from->to points away from root
    depth: dict[int, int] = field(default_factory=dict)


def validate_radial(network: RadialNetwork) -> Topology:
    """Confirm the branch set forms a tree rooted at the coupling point and
    return its orientation. Raises on cycles, disconnection, bad bus refs,
    or a root count other than one."""
    ids = network.bus_ids()
    if len(set(ids)) != len(ids):
        raise NetworkError("duplicate bus ids")
    id_set = set(ids)
    root = network.root_id()
    for br in network.branches:
        if br.from_bus not in id_set or br.to_bus not in id_set:
            raise NetworkError(f"branch {br.from_bus}-{br.to_bus}: unknown bus")
    if len(network.branches) != len(ids) - 1:
        raise NetworkError(
            f"{len(network.branches)} branches for {len(ids)} buses: "
            "not a tree (cycle or disconnected bus)")

    adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in ids}
    for k, br in enumerate(network.branches):
        adjacency[br.from_bus].append((br.to_bus, k))
        adjacency[br.to_bus].append((br.from_bus, k))

    topo = Topology([root], {}, {i: [] for i in ids}, {}, {root: 0})
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for bus in frontier:
            for other, k in adjacency[bus]:
                if other in seen:
                    continue
                seen.add(other)
                topo.order.append(other)
                topo.parent_branch[other] = k
                topo.child_branches[bus].append(k)
                topo.direction[k] = 1 if network.branches[k].from_bus == bus else -1
                topo.depth[other] = topo.depth[bus] + 1
                nxt.append(other)
        frontier = nxt
    if len(seen) != len(ids):
        missing = sorted(id_set - seen)
        raise NetworkError(f"buses disconnected from the root: {missing}")
    return topo


def branch_endpoints(network: RadialNetwork, topo: Topology, k: int) -> tuple[int, int]:
    """(upstream bus, downstream bus) of branch k under the root orientation."""
    br = network.branches[k]
    if topo.direction[k] == 1:
        return br.from_bus, br.to_bus
    return br.to_bus, br.from_bus


@dataclass
class GridHandles:
    """Variable indices created by the flow emission, keyed per step."""

    branch_p: dict[int, list[int]]      # branch index -> per-step flow (p.u.)
    branch_q: dict[int, list[int]]
    bus_v: dict[int, list[int]]         # bus -> per-step squared voltage
    pcc: list[int]                      # coupling-point import (kW)
    wit: dict[int, list[int]]           # bus -> per-step withdrawal (kW)


def emit_distflow(program: lp.LinearProgram, network: RadialNetwork,
                  topo: Topology, horizon: MarketHorizon,
                  cons_p_terms: dict[int, list[list[tuple[int, float]]]],
                  cons_q_terms: dict[int, list[list[tuple[int, float]]]]
                  ) -> GridHandles:
    """Emit nodal balances, voltage recursion, coupling-point definition, and
    withdrawal epigraphs.

    ``cons_*_terms[bus][t]`` lists (variable, coefficient) pairs whose sum is
    the bus's controllable consumption in kW at step t (device injections
    enter with negative coefficients). The fixed loads of every bus are data
    (``load_active``, ``load_reactive``) in the right-hand sides."""
    T = horizon.step_count
    root = network.root_id()
    scale = 1.0 / network.s_base_kw

    branch_p = {k: [program.add_variable(-math.inf, math.inf, f"fp[{k},{t}]")
                    for t in range(T)] for k in range(len(network.branches))}
    branch_q = {k: [program.add_variable(-math.inf, math.inf, f"fq[{k},{t}]")
                    for t in range(T)] for k in range(len(network.branches))}
    bus_v = {}
    for bus in network.buses:
        if bus.id == root:
            bus_v[bus.id] = [program.add_variable(1.0, 1.0, f"v[{bus.id},{t}]")
                             for t in range(T)]
        else:
            bus_v[bus.id] = [program.add_variable(bus.v_min, bus.v_max,
                                                  f"v[{bus.id},{t}]")
                             for t in range(T)]
    pcc = [program.add_variable(-math.inf, math.inf, f"pcc[{t}]")
           for t in range(T)]
    wit = {b.id: [program.add_variable(0.0, math.inf, f"wit[{b.id},{t}]")
                  for t in range(T)] for b in network.buses}

    def var_terms(table, bus, t):
        per_bus = table.get(bus)
        return list(per_bus[t]) if per_bus is not None else []

    for t in range(T):
        for bus in network.buses:
            i = bus.id
            cons_p = var_terms(cons_p_terms, i, t)
            cons_q = var_terms(cons_q_terms, i, t)
            # power balance: inflow - outflow = local consumption
            terms_p = [(idx, coef * scale) for idx, coef in cons_p]
            terms_q = [(idx, coef * scale) for idx, coef in cons_q]
            if i == root:
                terms_p.append((pcc[t], -scale))
            else:
                terms_p.append((branch_p[topo.parent_branch[i]][t], -1.0))
                terms_q.append((branch_q[topo.parent_branch[i]][t], -1.0))
            for k in topo.child_branches[i]:
                terms_p.append((branch_p[k][t], 1.0))
                terms_q.append((branch_q[k][t], 1.0))
            program.add_constraint(terms_p, lp.EQ,
                                   lp.Data("load_active", i, t, -scale),
                                   f"balP[{i},{t}]")
            if i != root:
                program.add_constraint(terms_q, lp.EQ,
                                       lp.Data("load_reactive", i, t, -scale),
                                       f"balQ[{i},{t}]")

            # withdrawal epigraph: wit >= local consumption, wit >= 0
            wit_terms = [(wit[i][t], 1.0)] + [(idx, -coef) for idx, coef in cons_p]
            program.add_constraint(wit_terms, lp.GE, lp.Data("load_active", i, t),
                                   f"wit[{i},{t}]")

        for k in range(len(network.branches)):
            up, dn = branch_endpoints(network, topo, k)
            br = network.branches[k]
            program.add_constraint(
                [(bus_v[dn][t], 1.0), (bus_v[up][t], -1.0),
                 (branch_p[k][t], 2.0 * br.r_pu), (branch_q[k][t], 2.0 * br.x_pu)],
                lp.EQ, 0.0, f"vdrop[{k},{t}]")

    return GridHandles(branch_p, branch_q, bus_v, pcc, wit)


def polygon_sides(segments: int) -> list[tuple[float, float]]:
    """(cos a_k, sin a_k) for a_k = 2 pi k / K: the side normals of the
    flow polygon, with the components that vanish on the axes (a_k a
    multiple of pi/2) exactly zero rather than rounding residue."""
    return [tuple(0.0 if abs(v) < 1e-12 else v
                  for v in (math.cos(ang), math.sin(ang)))
            for ang in (2.0 * math.pi * seg / segments
                        for seg in range(segments))]


def emit_flow_limits(program: lp.LinearProgram, network: RadialNetwork,
                     handles: GridHandles, horizon: MarketHorizon,
                     segments: int = 8) -> list[int]:
    """Inscribed regular polygon for P^2 + Q^2 <= s_max^2 on every branch:
    cos(a_k) P + sin(a_k) Q <= s_max cos(pi/K) for a_k = 2 pi k / K; only
    nonzero coefficients are stored."""
    if segments < 4:
        raise NetworkError("flow polygon needs at least 4 segments")
    rows = []
    sides = polygon_sides(segments)
    offset_factor = math.cos(math.pi / segments)
    for k, br in enumerate(network.branches):
        s_max_pu = br.s_max_kva / network.s_base_kw
        rhs = s_max_pu * offset_factor
        for t in range(horizon.step_count):
            p, q = handles.branch_p[k][t], handles.branch_q[k][t]
            for seg, (c, s) in enumerate(sides):
                rows.append(program.add_constraint(
                    [(idx, coef) for idx, coef in ((p, c), (q, s)) if coef],
                    lp.LE, rhs, f"flow[{k},{t},{seg}]"))
    return rows


def polygon_admits(p: float, q: float, s_max: float, segments: int) -> bool:
    """Membership test mirroring emit_flow_limits, for checks and tooling."""
    rhs = s_max * math.cos(math.pi / segments)
    return all(c * p + s * q <= rhs + 1e-12 for c, s in polygon_sides(segments))


# ----------------------------------------------------------------- file io

def load_network(bus_path: str, branch_path: str, base_mva: float,
                 base_kv: float) -> RadialNetwork:
    """Bus table columns: bus,v_min_pu2,v_max_pu2,is_root.
    Branch table columns: from_bus,to_bus,r_pu,x_pu,s_max_kva."""
    buses = []
    with open(bus_path, newline="") as fh:
        for row in csv.DictReader(fh):
            buses.append(Bus(int(row["bus"]), float(row["v_min_pu2"]),
                             float(row["v_max_pu2"]),
                             row["is_root"].strip().lower() in ("1", "true")))
    branches = []
    with open(branch_path, newline="") as fh:
        for row in csv.DictReader(fh):
            branches.append(Branch(int(row["from_bus"]), int(row["to_bus"]),
                                   float(row["r_pu"]), float(row["x_pu"]),
                                   float(row["s_max_kva"])))
    return RadialNetwork(buses, branches, base_mva, base_kv)


def save_network(network: RadialNetwork, bus_path: str, branch_path: str) -> None:
    with open(bus_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bus", "v_min_pu2", "v_max_pu2", "is_root"])
        for b in network.buses:
            w.writerow([b.id, repr(b.v_min), repr(b.v_max), int(b.is_root)])
    with open(branch_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["from_bus", "to_bus", "r_pu", "x_pu", "s_max_kva"])
        for br in network.branches:
            w.writerow([br.from_bus, br.to_bus, repr(br.r_pu), repr(br.x_pu),
                        repr(br.s_max_kva)])


def make_synthetic_feeder(bus_count: int, seed: int, base_mva: float = 0.4,
                          base_kv: float = 0.4, s_max_kva: float = 400.0,
                          v_band: float = 0.05) -> RadialNetwork:
    """Random radial feeder: bus 0 is the coupling point, each further bus
    attaches to a uniformly chosen existing bus."""
    if bus_count < 2:
        raise NetworkError("a feeder needs at least 2 buses")
    rng = np.random.Generator(np.random.Philox(key=seed))
    v_min = (1.0 - v_band) ** 2
    v_max = (1.0 + v_band) ** 2
    buses = [Bus(0, v_min, v_max, is_root=True)]
    branches = []
    for i in range(1, bus_count):
        buses.append(Bus(i, v_min, v_max))
        parent = int(rng.integers(0, i))
        r = float(rng.uniform(0.002, 0.01))
        x = float(rng.uniform(0.5, 1.0)) * r
        branches.append(Branch(parent, i, r, x, s_max_kva))
    return RadialNetwork(buses, branches, base_mva, base_kv)
