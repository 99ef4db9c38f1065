"""Model assembly: one shared first stage plus a scenario block compiled once.

The two-stage program has fixed recourse: the recourse matrix W and the
technology matrix T are the same in every scenario. A scenario changes
only data: costs (the six prices), right-hand sides (loads, ambient
temperature) and column bounds (PV capacity factors, EV availability, the
withdrawal at a bus without controllable consumption).
``VppModel.build_block`` emits the block once into a template program,
the emitters leaving every scenario-dependent entry to data in runs of
slots (``lp.LinearProgram.add_slots``, one call per device, stream or bus
and series); ``BlockTemplate`` joins the runs into arrays once, and
``BlockTemplate.data`` fills the slots for one scenario, vectorized, as
six per-stream cost vectors, right-hand sides and bounds. Every solve path
stacks or instantiates that one template; the tariff is data too, the
same for every scenario, so ``BlockTemplate.tariff_stream`` fills its
stream once for all blocks. The grid, most of the block, is emitted in
bulk (see ``network``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import devices as dv
from . import lp
from . import market as mk
from . import network as nw
from .scenarios import Scenario

#: cost streams in CostBreakdown order; the first three are revenues
STREAMS = tuple(f.name for f in fields(mk.CostBreakdown))


class ModelError(Exception):
    pass


@dataclass
class BlockHandles:
    """Column indices of everything ``build_block`` emits."""

    devices: list[dv.DeviceHandles]
    grid: nw.GridHandles
    second_stage: mk.SecondStageVars


class BlockTemplate:
    """A block compiled once: the program holds W, T and every
    scenario-independent coefficient, its data slots the rest. The first
    ``n_first`` columns are the first stage; the block's own columns
    follow. Instantiating never changes the template."""

    def __init__(self, program: lp.LinearProgram, horizon: mk.MarketHorizon,
                 first_stage: mk.FirstStageVars | None = None,
                 handles: BlockHandles | None = None):
        self.program = program
        self.horizon = horizon
        self.first_stage = first_stage
        self.handles = handles
        self.n_first = len(first_stage.flat()) if first_stage else 0
        self.n_block = program.num_variables - self.n_first
        # the runs of slots as arrays; each slot reads one entry of one series
        target, index, name, key, step, scale, divisor = \
            zip(*program.slots) if program.slots else [()] * 7
        runs, series = [len(i) for i in index], {}
        source = [series.setdefault(s, len(series)) for s in zip(name, key)]
        self.source = np.repeat(np.array(source, dtype=np.int64), runs)
        self.series = list(series)
        join = lambda parts, dtype: np.concatenate([np.zeros(0, dtype), *parts])
        self.step, self.index = join(step, np.int64), join(index, np.int64)
        self.scale, self.divisor = join(scale, float), join(divisor, float)
        self.target, self.targets = np.repeat(target, runs), sorted(set(target))
        unknown = set(self.targets) - {lp.UPPER, lp.LOWER, lp.RHS, *STREAMS}
        if unknown:
            raise lp.LpError(f"slots: unknown target {min(unknown)!r}")
        program.matrix     # settle the arrays before instantiations share them

    def data(self, scenario, tariff=None, offset: int = 0) -> "ScenarioBlock":
        """Fill every data slot from one scenario (and the grid tariff), for
        a copy of the block whose own columns start ``offset`` further on;
        the slots of one right-hand side add up onto the template's (the
        feeder-wide balance holds every bus's load), and a lower-bound slot
        only raises the template's bound (a withdrawal is at least the
        positive part of its bus's load). Every series must span the
        horizon; buses without a load series carry none. Bad values, a
        bound below the other one included, raise LpError as ``add_*``
        would."""
        arrays = []
        for name, key in self.series:
            values = tariff if name == "tariff_per_mwh" else getattr(scenario, name)
            if isinstance(values, dict):
                if key not in values and name == "capacity_factor":
                    raise dv.DeviceError(
                        f"scenario has no capacity factors for {key!r}")
                values = values.get(key, np.zeros(self.horizon.step_count))
            mk.check_series_length(name, values, self.horizon)
            arrays.append(np.asarray(values, dtype=float))
        offsets = np.cumsum([0] + [len(a) for a in arrays])
        values = np.concatenate(arrays or [np.zeros(0)])[
            offsets[self.source] + self.step] * self.scale / self.divisor

        p = self.program
        lower, upper, rhs = p.lower.copy(), p.upper.copy(), p.rhs.copy()
        streams = {name: np.zeros(p.num_variables) for name in STREAMS}
        streams["c_ops"] = p.cost.copy()
        for target in self.targets:
            at = self.target == target
            if target == lp.RHS:
                np.add.at(rhs, self.index[at], values[at])
            elif target == lp.LOWER:
                with np.errstate(invalid="ignore"):  # a NaN is refused below
                    np.maximum.at(lower, self.index[at], values[at])
            else:
                (upper if target == lp.UPPER
                 else streams[target])[self.index[at]] = values[at]
        # an upper bound may be +inf but not below its lower bound; a lower
        # bound, a right-hand side or a cost must be finite
        up = self.target == lp.UPPER
        bound = up | (self.target == lp.LOWER)
        bad = np.isnan(values) | ~up & np.isinf(values)
        bad[bound] |= lower[self.index[bound]] > upper[self.index[bound]]
        if bad.any():
            k = np.flatnonzero(bad)[0]
            raise lp.LpError(f"scenario data {self.series[self.source[k]]} "
                             f"step {self.step[k]}: bad value {values[k]}")
        columns = np.arange(p.num_variables)
        columns[self.n_first:] += offset
        return ScenarioBlock(scenario, self, lower, upper, rhs, streams, columns)

    def tariff_stream(self, tariff) -> np.ndarray:
        """The ``c_tariff`` stream that ``data`` fills in under ``tariff``,
        by the same arithmetic; the tariff is not scenario data, so it is
        the stream of every scenario's block."""
        at = self.target == "c_tariff"
        stream = np.zeros(self.program.num_variables)
        stream[self.index[at]] = np.asarray(tariff, dtype=float)[self.step[at]] \
            * self.scale[at] / self.divisor[at]
        return stream

    def instantiate(self, block: "ScenarioBlock", bids=None,
                    name: str = "") -> lp.LinearProgram:
        """The block for one scenario as a program of its own, sharing the
        template's matrix, senses and marks (``lp.Marks``), and so what
        screens derive from them.

        Given bids, the first-stage columns are fixed to them by their
        bounds, so their reduced costs are d(cost)/d(bid), and the program
        minimizes the scenario's net cost. Without bids the first stage
        keeps its bounds and the objective is zero: a feasibility probe of
        the block."""
        p = self.program
        lower, upper = block.lower.copy(), block.upper.copy()
        if bids is not None:
            lower[:self.n_first] = upper[:self.n_first] = bids
        return lp.LinearProgram(
            name, lambda: list(p.col_names), lambda: list(p.row_names),
            lower=lower, upper=upper,
            cost=np.zeros(len(lower)) if bids is None else block.net_cost(),
            indptr=p.indptr, indices=p.indices, data=p.data, sense=p.sense,
            rhs=block.rhs, marks=p.marks)


@dataclass
class ScenarioBlock:
    """One scenario's data in the compiled block: column bounds, row
    right-hand sides and, per stream, the cost of every column (revenues
    counted positive). Inside a larger program, template column j is the
    program's column ``columns[j]``."""

    scenario: Scenario
    template: BlockTemplate
    lower: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray
    streams: dict[str, np.ndarray]
    columns: np.ndarray

    def net_cost(self) -> np.ndarray:
        """Each column's cost: the breakdown total of its stream costs."""
        return mk.CostBreakdown(**self.streams).total

    def breakdown(self, primal: np.ndarray) -> mk.CostBreakdown:
        x = primal[self.columns]
        return mk.CostBreakdown(*(float(self.streams[name] @ x)
                                  for name in STREAMS))

    @property
    def second_stage(self) -> mk.SecondStageVars:
        """The market recourse columns, as columns of the program."""
        ss = self.template.handles.second_stage
        return mk.SecondStageVars(**{name: self.columns[idxs].tolist()
                                     for name, idxs in vars(ss).items()})


@dataclass
class VppModel:
    horizon: mk.MarketHorizon
    network: nw.RadialNetwork
    park: dv.DerPark
    market: mk.MarketConfig
    flow_segments: int = 8
    _topo: nw.Topology | None = field(default=None, repr=False)
    _template: BlockTemplate | None = field(default=None, init=False,
                                            repr=False, compare=False)

    def validate(self) -> nw.Topology:
        if self._topo is None:
            topo = nw.validate_radial(self.network)
            self.park.validate_nodes(set(self.network.bus_ids()))
            if len(self.market.tariff_per_mwh) != self.horizon.step_count:
                raise ModelError("tariff schedule length != step count")
            self._topo = topo
        return self._topo

    @property
    def dam_cap_kw(self) -> float:
        """Cap on day-ahead bid magnitude; bounds the first stage before any
        recourse information exists. Applied identically in every solve path."""
        return self.park.total_power_kw() + self.market.prequalified_power_kw

    def emit_first_stage(self, program: lp.LinearProgram) -> mk.FirstStageVars:
        return mk.emit_first_stage(program, self.horizon, self.market,
                                   self.dam_cap_kw)

    @property
    def template(self) -> BlockTemplate:
        """The scenario block, compiled on first use."""
        if self._template is None:
            self.validate()
            program = lp.LinearProgram("block")
            fs = self.emit_first_stage(program)
            self._template = BlockTemplate(program, self.horizon, fs,
                                           self.build_block(program, fs))
        return self._template

    def scenario_data(self, scenario: Scenario, offset: int = 0) -> ScenarioBlock:
        return self.template.data(scenario, self.market.tariff_per_mwh, offset)

    def with_tariff(self, tariff: np.ndarray) -> "VppModel":
        """This model under another grid tariff. The tariff is data, so the
        twin shares the compiled block."""
        twin = replace(self, market=mk.MarketConfig(
            self.market.prequalified_power_kw, tariff))
        twin._template = self.template
        return twin

    def build_block(self, program: lp.LinearProgram,
                    fs: mk.FirstStageVars) -> BlockHandles:
        """Emit the scenario block: device, grid and market rows, with every
        scenario-dependent bound, right-hand side and cost left to a data
        slot. ``template`` calls it once per model."""
        topo = self.validate()
        hz = self.horizon
        handles = [dv.emit_dg(program, d, hz) for d in self.park.dgs] \
            + [dv.emit_hp(program, d, hz) for d in self.park.hps] \
            + [dv.emit_ev(program, d, hz) for d in self.park.evs] \
            + [dv.emit_bess(program, d, hz) for d in self.park.bess]

        cons_p: dict[int, list[list[tuple[int, float]]]] = {}
        cons_q: dict[int, list[list[tuple[int, float]]]] = {}
        for h in handles:
            tp = cons_p.setdefault(h.node, [[] for _ in range(hz.step_count)])
            tq = cons_q.setdefault(h.node, [[] for _ in range(hz.step_count)])
            for t in range(hz.step_count):
                if t < len(h.cons_p):
                    tp[t].extend(h.cons_p[t])
                if t < len(h.cons_q):
                    tq[t].extend(h.cons_q[t])

        grid = nw.emit_distflow(program, self.network, topo, hz, cons_p, cons_q)
        nw.emit_flow_limits(program, self.network, grid, hz, self.flow_segments)

        ss = mk.emit_second_stage(program, hz, self.market)
        mk.emit_reserve_coupling(program, hz, fs, ss)
        mk.emit_position_balance(program, hz, fs, ss, grid.pcc)

        mk.bind_costs(program, hz, fs, ss, grid.wit)
        return BlockHandles(handles, grid, ss)

    def first_stage_decision(self, x: np.ndarray) -> mk.FirstStageDecision:
        """Bids from the flat first-stage vector (day-ahead per step, then
        capacity up and down per window)."""
        T, W = self.horizon.step_count, self.horizon.window_count
        clip0 = lambda a: np.where(np.abs(a) < 1e-12, 0.0, a)
        return mk.FirstStageDecision(np.array(x[:T]), clip0(x[T:T + W]),
                                     clip0(x[T + W:T + 2 * W]))


def extract_block_series(block: ScenarioBlock, primal: np.ndarray) -> dict:
    """The second-stage series as the columns of ``dispatch_NNNN.csv``
    after ``t``, by name in file order; device series are zero outside a
    charging event's window."""
    x = primal[block.columns]
    handles = block.template.handles
    ss = handles.second_stage
    out = {"ram_up_kw": x[ss.ram_up], "ram_dn_kw": x[ss.ram_dn],
           "imb_short_kw": x[ss.imb_short], "imb_long_kw": x[ss.imb_long],
           "p_vpp_kw": x[ss.p_vpp], "pcc_kw": x[handles.grid.pcc]}
    for bus in sorted(handles.grid.wit):
        out[f"wit_{bus}_kw"] = x[handles.grid.wit[bus]]
    for h in sorted(handles.devices, key=lambda h: h.name):
        start = h.window[0] if h.window else 0
        for key, idxs in (("p", h.p), ("charge", h.charge),
                          ("discharge", h.discharge)):
            if idxs:
                series = np.zeros(len(ss.ram_up))
                series[start:start + len(idxs)] = x[idxs]
                out[f"dev_{h.name}_{key}_kw"] = series
    return out
