"""Radial distribution network and linearized branch-flow emission.

The grid is a tree rooted at the coupling point. Power flow uses the
lossless linear branch-flow form: each branch carries the net consumption
of the subtree below it, squared voltages drop along a branch by
2*(r*P + x*Q), and the root voltage is pinned to 1 p.u.^2. Apparent-power
branch limits are enforced by a regular inscribed polygon, which is
conservative with respect to the true circular limit; its sides on an
axis are bounds on the flow columns, the others rows.

The root's active balance is stated feeder-wide: the sum of every bus's
active balance, in which each branch flow cancels, so the row holds every
bus's consumption, the import and every bus's load. The polygon's diagonal
sides are marked lazy (``lp.LinearProgram.mark_lazy``), and the rest of
the branch flow (the non-root ``balP``, the ``balQ`` and the ``vdrop``
rows, the ``fp``, ``fq`` and non-root ``v`` columns) is marked as the
derived block (``lp.LinearProgram.mark_derived``): given the injections,
the tree fixes the flows from the leaves up and the voltages from the root
down (Baran & Wu 1989). On the shipped instances no diagonal side, no axis
bound of a flow and no voltage band is active at the optimum, so every
solve path holds the program without them (``lp.Screen``), fills the block
in after each solve, and states them to HiGHS only once a solution
violates one.

All network quantities inside the LP are per-unit; device and load
quantities stay in kW/kvar and are scaled at the nodal-balance boundary.

The grid is most of a compiled block, so its emitters build their columns
and rows as arrays and append each kind in one bulk call, in the order a
row-by-row emission would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp, tables
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

    topo = Topology([root], {}, {i: [] for i in ids}, {})
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
    (``load_active``, ``load_reactive``) in the right-hand sides.

    The withdrawal ``wit`` is at least the bus's consumption and at least 0.
    Where the bus has controllable consumption at the step, that is a row,
    ``wit`` >= consumption with the load as its right-hand side; elsewhere
    the consumption is the load alone, and its positive part is the lower
    bound of the ``wit`` column (an ``lp.LOWER`` slot), so no row holds the
    column.

    The columns and the rows each go in as one bulk append. Rows run step by
    step: per bus ``balP``, ``balQ`` (none at the root) and ``wit`` (where
    stated), then ``vdrop`` per branch; within a row the device terms come
    first in ``balP``/``balQ`` and last in ``wit``. The root's ``balP`` row
    is the feeder-wide balance, the sum of every bus's: every bus's consumption
    terms, one per column (a column's coefficients added up in the order of
    ``cons_p_terms``) in column order, then the import, and in the
    right-hand side every bus's load, one slot each, which
    ``model.BlockTemplate.data`` adds up. The non-root ``balP``, the
    ``balQ`` and the ``vdrop`` rows with the ``fp``, ``fq`` and non-root
    ``v`` columns are the derived block, so the axis bounds of the flows and
    the voltage bands below the root reach HiGHS only with the block."""
    T, K = horizon.step_count, len(network.branches)
    root = network.root_id()
    scale = 1.0 / network.s_base_kw
    ids = network.bus_ids()
    steps = range(T)

    v_lo = [1.0 if b.id == root else b.v_min for b in network.buses]
    v_hi = [1.0 if b.id == root else b.v_max for b in network.buses]
    fp, fq, v, pcc, wit = (
        program.add_variables(lo, hi, names).reshape(-1, T)
        for lo, hi, names in (
            (-math.inf, math.inf, [f"fp[{k},{t}]" for k in range(K) for t in steps]),
            (-math.inf, math.inf, [f"fq[{k},{t}]" for k in range(K) for t in steps]),
            (np.repeat(v_lo, T), np.repeat(v_hi, T),
             [f"v[{i},{t}]" for i in ids for t in steps]),
            (-math.inf, math.inf, [f"pcc[{t}]" for t in steps]),
            (0.0, math.inf, [f"wit[{i},{t}]" for i in ids for t in steps])))

    # the rows of one step, by bus position n: bal_p[n], bal_p[n] + 1
    # (balQ, off the root) and wit_row[n]; vdrop[k] after every bus row
    at = {i: n for n, i in enumerate(ids)}
    per_bus = np.array([2 if i == root else 3 for i in ids])
    bal_p = np.cumsum(per_bus) - per_bus
    wit_row = bal_p + per_bus - 1
    width = int(per_bus.sum()) + K
    rest = [n for n, i in enumerate(ids) if i != root]
    parent = [topo.parent_branch[ids[n]] for n in rest]
    # (bus position, branch) of the branches leaving each bus off the root
    child = np.array([(at[i], k) for i in ids if i != root
                      for k in topo.child_branches[i]],
                     dtype=np.int64).reshape(-1, 2)
    ends = np.array([[at[b] for b in branch_endpoints(network, topo, k)]
                     for k in range(K)], dtype=np.int64).reshape(-1, 2)

    # whether a bus has controllable consumption at a step, (T, buses): only
    # then is its withdrawal a row
    controlled = np.array([[bool(cons_p_terms.get(i) and cons_p_terms[i][t])
                            for i in ids] for t in steps],
                          dtype=bool).reshape(T, -1)
    kept = np.ones((T, width), dtype=bool)
    kept[:, wit_row] = controlled

    # terms as (row, column, coefficient), chunk after chunk; a stable sort
    # by row keeps each row's terms in chunk order
    rows, cols, coefs = [], [], []

    def grid(row, col, coef):
        """Terms on the step rows ``row`` of every step, columns (n, T)."""
        rows.append(np.add.outer(np.asarray(row), width * np.arange(T)).ravel())
        cols.append(col.ravel())
        coefs.append(np.broadcast_to(np.reshape(coef, (-1, 1)), col.shape).ravel())

    def devices(table, row_of, factor, merge=False):
        """The device terms of ``table`` on the rows ``row_of[bus]``, their
        coefficients times ``factor``; given ``merge``, the terms of one
        column on one row add up, in the order of ``table``, to one term,
        and a row's terms run in column order."""
        terms = np.array([(width * t + row_of[at[bus]], idx, coef)
                          for bus, per_step in table.items() if bus in at
                          for t, step_terms in zip(steps, per_step)
                          for idx, coef in step_terms], dtype=float).reshape(-1, 3)
        row, col = terms[:, :2].astype(np.int64).T
        coef = terms[:, 2] * factor
        if merge:
            key, term = np.unique(np.c_[row, col], axis=0, return_inverse=True)
            (row, col), coef = key.T, np.bincount(term.ravel(), coef, len(key))
        rows.append(row)
        cols.append(col)
        coefs.append(coef)

    # balP: consumption, then the parent branch, then children; the root's
    # row is the feeder-wide balance, the sum of every bus's, in which each
    # branch flow cancels: every bus's consumption, then the import
    devices({i: terms for i, terms in cons_p_terms.items() if i != root},
            bal_p, scale)
    devices(cons_p_terms, np.full(len(ids), bal_p[at[root]]), scale,
            merge=True)
    grid([bal_p[at[root]]], pcc, -scale)
    grid(bal_p[rest], fp[parent], -1.0)
    grid(bal_p[child[:, 0]], fp[child[:, 1]], 1.0)
    # balQ likewise, without the import
    devices({i: terms for i, terms in cons_q_terms.items() if i != root},
            bal_p + 1, scale)
    grid(bal_p[rest] + 1, fq[parent], -1.0)
    grid(bal_p[child[:, 0]] + 1, fq[child[:, 1]], 1.0)
    # withdrawal epigraph: wit >= local consumption, wit >= 0, a row only
    # where the bus has controllable consumption (``controlled``)
    grid(wit_row, wit, 1.0)
    devices(cons_p_terms, wit_row, -1.0)
    # voltage drop along each branch, downstream minus upstream
    vdrop = width - K + np.arange(K)
    grid(vdrop, v[ends[:, 1]], 1.0)
    grid(vdrop, v[ends[:, 0]], -1.0)
    grid(vdrop, fp, [2.0 * br.r_pu for br in network.branches])
    grid(vdrop, fq, [2.0 * br.x_pu for br in network.branches])

    # the rows not stated go, and so does the wit term of each
    row, kept = np.concatenate(rows), kept.ravel()
    on = kept[row]
    row = (np.cumsum(kept) - 1)[row[on]]
    order = np.argsort(row, kind="stable")
    sense = np.full((T, width), lp.EQ)
    sense[:, wit_row] = lp.GE
    label = [f"{kind}[{i}" for i in ids for kind in ("balP", "balQ", "wit")
             if kind != "balQ" or i != root] + [f"vdrop[{k}" for k in range(K)]
    names = [f"{name},{t}]" for t in steps for name in label]
    grid_rows = np.full(width * T, -1)
    grid_rows[kept] = program.add_rows(
        np.r_[0, np.cumsum(np.bincount(row, minlength=int(kept.sum())))],
        np.concatenate(cols)[on][order], np.concatenate(coefs)[on][order],
        sense.ravel()[kept], np.zeros(int(kept.sum())),
        [name for name, k in zip(names, kept) if k])
    grid_rows = grid_rows.reshape(T, width)
    # the loads are data: minus the load in balP and balQ, the load in wit
    # or, without a row, the withdrawal's lower bound; a non-root bus's load
    # enters the root's row too, which adds them up
    for n, i in enumerate(ids):
        stated = np.flatnonzero(controlled[:, n])
        free = np.flatnonzero(~controlled[:, n])
        program.add_slots(lp.RHS, grid_rows[:, bal_p[n]], "load_active", i,
                          steps, -scale)
        program.add_slots(lp.RHS, grid_rows[stated, wit_row[n]], "load_active",
                          i, stated)
        program.add_slots(lp.LOWER, wit[n, free], "load_active", i, free)
        if i != root:
            program.add_slots(lp.RHS, grid_rows[:, bal_p[at[root]]],
                              "load_active", i, steps, -scale)
            program.add_slots(lp.RHS, grid_rows[:, bal_p[n] + 1],
                              "load_reactive", i, steps, -scale)
    program.mark_derived(
        np.sort(grid_rows[:, np.r_[bal_p[rest], bal_p[rest] + 1, vdrop]].ravel()),
        np.r_[fp.ravel(), fq.ravel(), v[rest].ravel()])

    return GridHandles(dict(enumerate(fp.tolist())), dict(enumerate(fq.tolist())),
                       dict(zip(ids, v.tolist())), pcc[0].tolist(),
                       dict(zip(ids, wit.tolist())))


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
                     segments: int = 8) -> np.ndarray:
    """Inscribed regular polygon for P^2 + Q^2 <= s_max^2 on every branch:
    cos(a_k) P + sin(a_k) Q <= s_max cos(pi/K) for a_k = 2 pi k / K. A side
    on an axis has one nonzero component and is a bound on that flow
    column (for K = 8, |P| and |Q| <= s_max cos(pi/8)); the other sides are
    rows, with both coefficients, appended in bulk by branch, step and side,
    and marked lazy. Returns the row indices."""
    if segments < 4:
        raise NetworkError("flow polygon needs at least 4 segments")
    T, K = horizon.step_count, len(network.branches)
    pq = np.stack([np.array([flows[k] for k in range(K)], dtype=np.int64)
                   .reshape(K, T) for flows in (handles.branch_p, handles.branch_q)],
                  axis=-1)
    sides = np.array(polygon_sides(segments))
    on_axis = np.any(sides == 0.0, axis=1)
    rhs = np.array([br.s_max_kva for br in network.branches]) \
        / network.s_base_kw * math.cos(math.pi / segments)
    # a side on an axis, c x <= rhs, bounds its one column x: x <= rhs / c
    # for c > 0, x >= rhs / c for c < 0
    for side in sides[on_axis]:
        axis = int(side[0] == 0.0)
        bound = np.repeat(rhs / side[axis], T)
        program.tighten_bounds(pq[:, :, axis].ravel(),
                               bound if side[axis] < 0 else -math.inf,
                               bound if side[axis] > 0 else math.inf)
    diagonal = np.flatnonzero(~on_axis)
    cols = np.broadcast_to(pq[:, :, None, :], (K, T, len(diagonal), 2))
    rows = program.add_rows(
        np.arange(0, 2 * K * T * len(diagonal) + 1, 2), cols.ravel(),
        np.broadcast_to(sides[diagonal], cols.shape).ravel(), lp.LE,
        np.repeat(rhs, T * len(diagonal)),
        [f"flow[{k},{t},{seg}]" for k in range(K) for t in range(T)
         for seg in diagonal])
    program.mark_lazy(rows=rows)
    return rows


def polygon_admits(p: float, q: float, s_max: float, segments: int) -> bool:
    """Membership test of the polygon that emit_flow_limits states, its axis
    sides as column bounds and the rest as rows: every side checked here,
    for checks and tooling."""
    rhs = s_max * math.cos(math.pi / segments)
    return all(c * p + s * q <= rhs + 1e-12 for c, s in polygon_sides(segments))


# ----------------------------------------------------------------- file io

#: table columns of ``Bus`` and ``Branch``, one per field in field order
BUS_COLUMNS = ("bus", "v_min_pu2", "v_max_pu2", "is_root")
BRANCH_COLUMNS = ("from_bus", "to_bus", "r_pu", "x_pu", "s_max_kva")


def load_network(bus_path: str, branch_path: str,
                 base_mva: float) -> RadialNetwork:
    return RadialNetwork(tables.read_records(bus_path, Bus, BUS_COLUMNS),
                         tables.read_records(branch_path, Branch,
                                             BRANCH_COLUMNS),
                         base_mva)


def save_network(network: RadialNetwork, bus_path: str, branch_path: str) -> None:
    tables.write_records(bus_path, BUS_COLUMNS, network.buses)
    tables.write_records(branch_path, BRANCH_COLUMNS, network.branches)


def make_synthetic_feeder(bus_count: int, seed: int, base_mva: float = 0.4,
                          s_max_kva: float = 400.0,
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
    return RadialNetwork(buses, branches, base_mva)
