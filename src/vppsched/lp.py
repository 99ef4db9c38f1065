"""Sparse minimization LPs with primal solutions and constraint duals.

The container holds its program in arrays: column bounds and costs, and
the rows as a sparse matrix with a sense and a right-hand side each. It
grows one row or column at a time through ``add_*``, many at once through
``add_rows`` (CSR pieces) and ``add_variables`` under the same checks, or
is built from arrays in one step; ``tighten_bounds`` narrows the bounds
of columns it holds, ``mark_lazy`` marks rows that are rarely active, and
``mark_derived`` a derived block: equality rows that fix as many
zero-cost columns, given the others. ``solve`` hands the program to HiGHS
dual simplex through ``scipy.optimize.linprog`` and reports primal
values, per-constraint dual multipliers, and bound multipliers. Every
solve path screens its program through one ``Screen``: the lazy rows and
the derived block reach HiGHS only once a solution violates a lazy row or
a bound of a derived column, and the block, while left out, is completed
from its rows by one sparse solve; a column that no row holds never
reaches HiGHS, and sits at the bound its cost prefers. A program's marks
(``Marks``) are shared by every program on its matrix, an instantiation
of a compiled block or, copy by copy, an extensive form, and so is what a
screen derives from them and the matrix: the check of the matrix, the
lazy and derived rows, the row-less columns and the block's sparse LU,
made once by the first screen, on its calling thread. ``Screen`` holds
which lazy rows are stated and whether the block is; its ``violated`` is the one screening
test, and it reads the limits left out from the program's own vectors
when it runs; its ``restate`` is the one step that acts on a violation:
it states what the completed primals break and passes the held models the
grown form. ``solve`` screens in rounds of cold solves, and its report
is that of the full program. ``HeldModel`` solves on scipy's bundled
HiGHS binding directly: it passes a program to HiGHS once, with the rows
and bounds it is given, and afterwards sends only what changes, so HiGHS
re-solves from the basis and factorization it holds. The calls it makes
after the first are ``changeColsCost`` (new costs, the tariff-sweep
levels), after which primal simplex re-solves, since a cost change leaves
the basis primal feasible, and ``changeColsBounds`` (new bids, the bounds
of the first-stage columns of a Benders subproblem) and ``addRows`` (new
cuts of the Benders master, entering with basic slacks), after which dual
simplex re-solves, since a bound or row change leaves the basis dual
feasible. The sweep holds the relaxed form; ``solve_held`` grows it by
what a completed primal violates (``Screen.restate``) and re-solves from
the held vertex extended to a basis of the grown form. Row duals and
reduced costs are converted and bound multipliers split by basis status
only when first read. No other module touches the solver backend.

Column bounds, right-hand sides or labelled costs may be left to data, the
template's bound, 0 or +inf in their place: ``add_slots`` records a run of
such slots and the series entries that supply them, for whoever fills them
in; a lower-bound slot only ever raises the bound it is given.

Dual convention: every dual is the sensitivity of the optimal objective
to that constraint's right-hand side (d obj / d rhs). In a minimization
this means duals of ``>=`` rows are nonnegative, duals of ``<=`` rows are
nonpositive, and duals of ``==`` rows are free. The row duals of an
infeasible ``HeldModel`` solve are HiGHS's Farkas ray y under the same
signs: y . rhs exceeds the largest (A^T y) . x over the column bounds, so
no point within them meets the rows where y is nonzero, which
``certificate_rows`` names.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy
from scipy.optimize import linprog
from scipy.sparse import csc_matrix, csr_matrix, hstack, vstack
from scipy.sparse.linalg import splu

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # scipy older than 1.15 has no bundled binding
    _highs = None

#: the names of scipy's private HiGHS binding that ``HeldModel`` uses
_BINDING = ("_Highs", "_Highs.passOptions", "_Highs.passModel",
            "_Highs.changeColsCost", "_Highs.changeColsBounds",
            "_Highs.addRows", "_Highs.setOptionValue",
            "_Highs.clearSolver", "_Highs.setBasis",
            "_Highs.run", "_Highs.getInfo", "_Highs.getModelStatus",
            "_Highs.modelStatusToString", "_Highs.getSolution",
            "_Highs.getBasis", "_Highs.getDualRay", "HighsBasis",
            "HighsBasisStatus", "HighsModelStatus", "HighsOptions",
            "HighsStatus", "MatrixFormat", "ObjSense", "simplex_constants")


def _binding(name: str):
    obj = _highs
    for part in name.split("."):
        obj = getattr(obj, part, None)
    return obj


_MISSING = [name for name in _BINDING if _binding(name) is None]
if _MISSING:
    raise ImportError(
        "vppsched needs scipy>=1.15, whose bundled HiGHS binding "
        "scipy.optimize._highspy._core provides "
        f"{', '.join(_BINDING)}; scipy {scipy.__version__} lacks "
        f"{', '.join(_MISSING)}")

LE = "<="
GE = ">="
EQ = "=="

SENSES = (LE, GE, EQ)

#: slot targets besides cost labels: a column upper bound, a column lower
#: bound (data only ever raises it), a row rhs
UPPER = "upper"
LOWER = "lower"
RHS = "rhs"

#: feasibility / optimality tolerances the solution report is held to
FEAS_TOL = 1e-7
OPT_TOL = 1e-7

#: tolerances passed to the backend (two orders below the report contract)
_SOLVER_TOL = 1e-9
#: simplex iteration limit of a solve
_MAX_ITERATIONS = 200_000
#: an entry of a Farkas ray names its row above this share of the largest
_RAY_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(Exception):
    """Malformed program (bad bounds, unknown index, duplicate terms)."""


class LpSolveError(Exception):
    """Numerical breakdown or iteration limit inside the solver backend."""


@dataclass
class LpSolution:
    """Solver report. ``duals`` has one entry per constraint, in the order
    constraints were added, and ``column_duals`` one per column, its
    reduced cost; ``lower_marginals``/``upper_marginals`` carry the bound
    multipliers needed to reconstruct the dual objective."""

    status: str
    objective: float
    primal: np.ndarray
    #: the row duals, or a function computing them, called on first read
    row_duals: object
    #: simplex iterations the solve took
    iterations: int = 0
    #: the bound multipliers (lower, upper), or a function computing them,
    #: called on first read
    bound_marginals: object = (np.zeros(0), np.zeros(0))
    #: the reduced costs, or a function computing them, called on first read
    reduced_costs: object = partial(np.zeros, 0)

    def _read(self, key: str):
        """Field ``key``, computed and kept on first read if a function."""
        if callable(getattr(self, key)):
            setattr(self, key, getattr(self, key)())
        return getattr(self, key)

    duals = property(lambda self: self._read("row_duals"))
    column_duals = property(lambda self: self._read("reduced_costs"))
    lower_marginals = property(lambda self: self._read("bound_marginals")[0])
    upper_marginals = property(lambda self: self._read("bound_marginals")[1])


#: the arrays of a program: columns, rows in CSR form, row sense and rhs
_ARRAYS = dict(lower=float, upper=float, cost=float, indptr=np.int64,
               indices=np.int64, data=float, sense="<U2", rhs=float)


class LinearProgram:
    """Minimization LP in arrays, given as keywords (see ``_ARRAYS``) or
    grown through ``add_*``, whose calls are buffered and merged into the
    arrays on the next read. Names may be given as a function, evaluated on
    first use. ``lazy_rows`` index the rows that a ``Screen`` leaves out
    until violated, and ``derived_rows`` and ``derived_columns`` the rows
    and columns of its derived block, if one is marked
    (``mark_derived``); they belong to the program as fully as any other
    row or column. A program on another's matrix may be given that one's
    ``marks`` instead, and shares them."""

    def __init__(self, name: str = "", col_names=None, row_names=None,
                 lazy_rows=(), derived_rows=(), derived_columns=(),
                 marks: Marks | None = None, **arrays):
        self.name = name
        arrays.setdefault("indptr", [0])
        self._arrays = {key: np.asarray(arrays.get(key, ()), dtype=dtype)
                        for key, dtype in _ARRAYS.items()}
        self._names = [col_names or [], row_names or []]
        self._cols, self._rows, self._costs = [], [], []
        #: runs of data slots, one per ``add_slots`` call: (target, index,
        #: field, key, step, scale, divisor), the index and the last three arrays
        self.slots: list[tuple] = []
        self._marks = marks or Marks(lazy_rows, derived_rows, derived_columns)

    @property
    def marks(self) -> Marks:
        """The lazy rows and the derived block, shared with every program
        given them (``marks``) on the same matrix; a program whose matrix
        grows gets marks of its own."""
        self._flush()
        return self._marks

    def _marked(key: str):
        """The mark array ``key``; setting it gives the program marks of
        its own."""
        def mark(self, value):
            arrays = {k: getattr(self.marks, k) for k in Marks.KEYS}
            self._marks = Marks(**{**arrays, key: value})
        return property(lambda self: getattr(self.marks, key), mark)

    lazy_rows = _marked("lazy_rows")
    derived_rows = _marked("derived_rows")
    derived_columns = _marked("derived_columns")
    del _marked

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
            self._extend(lower=lo, upper=hi, cost=np.zeros(len(lo)))
            self._cols = []
        if self._costs:
            idx, coef = zip(*self._costs)
            a["cost"] = a["cost"].copy()
            np.add.at(a["cost"], list(idx), coef)
            self._costs = []
        if self._rows:
            terms, sense, rhs = zip(*self._rows)
            self._extend(indptr=a["indptr"][-1] + np.cumsum([len(t) for t in terms]),
                         indices=[i for t in terms for i, _ in t],
                         data=[c for t in terms for _, c in t], sense=sense, rhs=rhs)
            self._rows = []

    def _extend(self, **arrays) -> None:
        """Append to the program's arrays, which no longer shares its marks;
        the caller flushes first."""
        for key, values in arrays.items():
            self._arrays[key] = np.concatenate(
                (self._arrays[key], np.asarray(values, dtype=_ARRAYS[key])))
        m = self._marks
        self._marks = Marks(m.lazy_rows, m.derived_rows, m.derived_columns,
                            m.copies)

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

    def add_variable(self, lower: float = 0.0, upper: float = math.inf,
                     name: str = "") -> int:
        """Append a column and return its index."""
        _check_bounds(lower, upper, name)
        self._cols.append((float(lower), float(upper)))
        self.col_names.append(name)
        return self.num_variables - 1

    def add_variables(self, lower, upper, names: list[str]) -> np.ndarray:
        """Append one column per name, in bulk: bounds are arrays or
        scalars. Refuses what ``add_variable`` refuses, naming the first bad
        column. Returns the column indices."""
        n = len(names)
        lower = np.broadcast_to(np.asarray(lower, dtype=float), n)
        upper = np.broadcast_to(np.asarray(upper, dtype=float), n)
        bad = np.isnan(lower) | np.isnan(upper) | (lower > upper)
        if bad.any():
            k = int(np.argmax(bad))
            _check_bounds(lower[k], upper[k], names[k])
        self._flush()
        first = self.num_variables
        self._extend(lower=lower, upper=upper, cost=np.zeros(n))
        self.col_names.extend(names)
        return np.arange(first, first + n)

    def tighten_bounds(self, columns, lower, upper) -> None:
        """Raise the lower bounds of ``columns`` to ``lower`` and lower their
        upper bounds to ``upper`` (arrays or scalars; -inf and +inf leave a
        side as it is), never loosening one. Refuses an unknown column, a
        column whose upper bound is a data slot, and what ``add_variables``
        refuses of the bounds that result, naming the first bad column, and
        then changes nothing."""
        self._flush()
        columns = np.asarray(columns, dtype=np.int64)
        unknown = (columns < 0) | (columns >= self.num_variables)
        if unknown.any():
            raise LpError(f"bounds: unknown variable index "
                          f"{columns[np.argmax(unknown)]}")
        slotted = np.isin(columns, [i for target, index, *_ in self.slots
                                    if target == UPPER for i in index])
        if slotted.any():
            raise LpError(f"variable {self.col_names[columns[np.argmax(slotted)]]!r}"
                          f": upper bound is data")
        lo, hi = self._arrays["lower"].copy(), self._arrays["upper"].copy()
        with np.errstate(invalid="ignore"):     # a NaN bound is refused below
            np.maximum.at(lo, columns, np.broadcast_to(lower, columns.shape))
            np.minimum.at(hi, columns, np.broadcast_to(upper, columns.shape))
        bad = np.isnan(lo) | np.isnan(hi) | (lo > hi)
        if bad.any():
            k = int(np.argmax(bad))
            _check_bounds(lo[k], hi[k], self.col_names[k])
        self._arrays.update(lower=lo, upper=hi)

    def mark_lazy(self, rows) -> None:
        """Mark ``rows`` as lazy: limits that are rarely active, which every
        solve path states to HiGHS only once a solution violates them.
        Refuses an unknown index."""
        self.lazy_rows = np.r_[self.lazy_rows, _indices(
            "lazy_rows", rows, self.num_constraints)]

    def mark_derived(self, rows, columns) -> None:
        """Mark equality ``rows`` and as many ``columns`` as the derived
        block: given the other columns, the rows fix the block's columns
        (``A[rows, columns]`` is square and nonsingular), which cost
        nothing and appear in no row outside the block and the lazy rows.
        A screen leaves the block out of the program HiGHS gets until a
        limit is stated, and completes a primal from it
        (``Screen.complete``); a program built from this one (an
        instantiation, an extensive form) carries the marks, and what the
        screens derive from them (``Marks``), moved to its own rows and
        columns. Refuses anything else, an unknown index included, and
        then marks nothing; only a block that is singular with no row or
        column empty passes, to be refused by the first screen, which
        factors it. (A sparse LU at marking time, on every compiled block,
        raised the peak memory of later solves: its freed work arrays lift
        the C allocator's mmap threshold.)"""
        rows = np.r_[self.derived_rows,
                     _indices("derived_rows", rows, self.num_constraints)]
        columns = np.r_[self.derived_columns,
                        _indices("derived_columns", columns, self.num_variables)]
        _check_pairs(rows, columns)
        _check_vectors(self, rows, columns)
        _check_matrix(self, rows, columns)
        self._marks = Marks(self.lazy_rows, rows, columns)

    def add_constraint(self, terms, sense: str, rhs: float,
                       name: str = "") -> int:
        """Append a constraint; ``terms`` is an iterable of (var index, coef).

        Returns the row index (position in the dual vector)."""
        clean = self._checked_row(terms, sense, rhs, name)
        self._rows.append((clean, sense, float(rhs)))
        self.row_names.append(name)
        return self.num_constraints - 1

    def _checked_row(self, terms, sense, rhs, name) -> list[tuple[int, float]]:
        """The (index, coef) pairs of a row that passes every check of an
        added constraint; raises LpError naming the row otherwise."""
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
        return clean

    def add_rows(self, indptr, indices, data, sense, rhs,
                 names: list[str]) -> np.ndarray:
        """Append one constraint per name, in bulk, as CSR pieces: row k has
        the terms ``indices[indptr[k]:indptr[k + 1]]`` with the coefficients
        ``data`` at the same positions, the sense ``sense`` (one for every
        row, or one per row) and the right-hand side ``rhs[k]``. Refuses
        exactly what ``add_constraint`` refuses, naming the first bad row,
        and then adds nothing. Returns the row indices."""
        m = len(names)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=float)
        sense = np.broadcast_to(np.asarray(sense), m)
        values = np.asarray(rhs, dtype=float)
        if (len(indptr) != m + 1 or indptr[0] != 0 or np.any(np.diff(indptr) < 0)
                or indptr[-1] != len(indices) or len(data) != len(indices)
                or len(values) != m):
            raise LpError(f"{m} rows: malformed CSR pieces")
        # a row is bad if it has a bad sense or rhs, a bad term, or an index
        # twice (equal neighbours once the terms are sorted by row and index)
        row = np.repeat(np.arange(m), np.diff(indptr))
        bad = ~np.isin(sense, SENSES) | ~np.isfinite(values)
        bad[row[(indices < 0) | (indices >= self.num_variables)
                | ~np.isfinite(data)]] = True
        order = np.lexsort((indices, row))
        twice = np.diff(row[order]) == 0
        twice &= np.diff(indices[order]) == 0
        bad[row[order][1:][twice]] = True
        if bad.any():
            k = int(np.argmax(bad))
            span = slice(indptr[k], indptr[k + 1])
            self._checked_row(zip(indices[span], data[span]), str(sense[k]),
                              float(values[k]), names[k])
        self._flush()
        first = self.num_constraints
        self._extend(indptr=self._arrays["indptr"][-1] + indptr[1:],
                     indices=indices, data=data, sense=sense, rhs=values)
        self.row_names.extend(names)
        return np.arange(first, first + m)

    def add_slots(self, target: str, index, field: str, key=None, step=0,
                  scale=1.0, divisor=1.0) -> None:
        """Leave the upper bounds (target UPPER), lower bounds (LOWER, data
        raising the bound the program holds, never lowering it) or
        right-hand sides (RHS) of the columns or rows ``index``, or their
        costs in the stream labelled ``target``, to data:
        ``series[step] * scale / divisor``, the series
        being data field ``field`` (its item ``key`` if keyed), the last
        three broadcast against ``index``; the divisor keeps conversions
        that divide exact. Refuses an unknown index, and then adds nothing."""
        index = np.asarray(index, dtype=np.int64)
        n = self.num_constraints if target == RHS else self.num_variables
        unknown = (index < 0) | (index >= n)
        if unknown.any():
            raise LpError(f"slots {target} of {field!r}: unknown index "
                          f"{index[np.argmax(unknown)]}")
        self.slots.append((target, index.ravel(), field, key, *(
            np.broadcast_to(np.asarray(a, dtype=dtype), index.shape).ravel()
            for a, dtype in ((step, np.int64), (scale, float), (divisor, float)))))

    def add_objective_term(self, index: int, coef: float) -> None:
        if index < 0 or index >= self.num_variables:
            raise LpError(f"objective: unknown variable index {index}")
        if not math.isfinite(coef):
            raise LpError(f"objective: non-finite coefficient on {index}")
        self._costs.append((index, float(coef)))


def _check_bounds(lower: float, upper: float, name: str) -> None:
    if math.isnan(lower) or math.isnan(upper):
        raise LpError(f"variable {name!r}: NaN bound")
    if lower > upper:
        raise LpError(f"variable {name!r}: inverted bounds [{lower}, {upper}]")


def _indices(key: str, idx, n: int) -> np.ndarray:
    """``idx`` as an index array; refuses an index outside [0, n)."""
    idx = np.asarray(idx, dtype=np.int64)
    unknown = (idx < 0) | (idx >= n)
    if unknown.any():
        raise LpError(f"{key}: unknown index {idx[np.argmax(unknown)]}")
    return idx


def _unique(a) -> np.ndarray:
    """The distinct entries of the index array ``a``, sorted, as
    ``np.unique`` gives them: a sort, keeping the first of each run of
    equal entries. (``np.unique`` hashes integers, which on the block's
    index arrays takes some 40 times as long.)"""
    a = np.sort(np.asarray(a, dtype=np.int64).ravel())
    return a[np.r_[True, a[1:] != a[:-1]]] if len(a) else a


def _check_pairs(rows, columns) -> None:
    """Raise LpError unless the derived ``rows`` and ``columns`` pair up,
    each once."""
    if len(rows) != len(columns) or len(_unique(rows)) != len(rows) \
            or len(_unique(columns)) != len(columns):
        raise LpError(f"derived block: {len(rows)} rows for "
                      f"{len(columns)} columns, or one twice")


def _check_vectors(program: LinearProgram, rows, columns) -> None:
    """Raise LpError unless the derived ``rows`` are equalities and the
    derived ``columns`` cost nothing in ``program``."""
    unequal = program.sense[rows] != EQ
    if unequal.any():
        raise LpError(f"derived block: row "
                      f"{program.row_names[rows[np.argmax(unequal)]]!r} is not "
                      f"an equality")
    costly = program.cost[columns] != 0.0
    if costly.any():
        raise LpError(f"derived block: column "
                      f"{program.col_names[columns[np.argmax(costly)]]!r} has a cost")


def _check_matrix(program: LinearProgram, rows, columns, start: int = 0) -> None:
    """Raise LpError unless, in the rows of ``program``'s matrix from
    ``start`` on, the derived ``columns`` appear only in the derived
    ``rows`` and the lazy rows and, from row 0 on, fill every row and
    column of the block; short of the numerical test that the block is
    nonsingular, which its factor makes (see ``mark_derived``)."""
    if not len(rows):
        return
    # the nonzero entries in the block's columns, by row and column
    mine = np.zeros(program.num_variables, dtype=bool)
    mine[columns] = True
    at = program.indptr[start] + np.flatnonzero(
        mine[program.indices[program.indptr[start]:]]
        & (program.data[program.indptr[start]:] != 0.0))
    row = np.searchsorted(program.indptr, at, side="right") - 1
    column = program.indices[at]
    in_block = np.zeros(program.num_constraints, dtype=bool)
    in_block[rows] = True
    inside = in_block.copy()
    inside[program.lazy_rows] = True
    stray = ~inside[row]
    if stray.any():
        k = int(np.argmax(stray))
        raise LpError(f"derived block: column {program.col_names[column[k]]!r}"
                      f" in row {program.row_names[row[k]]!r}")
    held = in_block[row]
    if not start and (len(_unique(row[held])) < len(rows)
                      or len(_unique(column[held])) < len(columns)):
        raise LpError("derived block: a row or a column of it is empty "
                      "(the block is singular)")


class Block(NamedTuple):
    """What a screen derives from a program's matrix and marks alone (see
    ``Marks.block``)."""

    #: the lazy rows, sorted, and those rows of the matrix
    rows: np.ndarray
    matrix: csr_matrix
    #: the derived rows and columns, sorted; empty without a block
    block_rows: np.ndarray
    block_columns: np.ndarray
    #: the derived rows of the matrix
    block_matrix: csr_matrix
    #: the columns that no row holds, sorted; none if no other column is
    #: left to the relaxed form
    rowless: np.ndarray
    #: the rows and columns of the relaxed form with nothing stated
    layout: tuple
    #: x_C = A[R, C]^-1 b for the derived rows R and columns C
    solve: object


class Marks:
    """The lazy rows and the derived block of a program (``mark_lazy``,
    ``mark_derived``), shared by reference by every program built on the
    same matrix: an instantiation carries its template's. ``block``
    derives what a screen needs of the matrix and the marks alone, the
    sparse LU of the block included, once, on the first screen, on its
    calling thread, for every program that carries the marks; screens on
    other threads meanwhile wait for it.

    An extensive form's marks are ``tiled``: its first rows are copies of
    the rows of a template program, each on its own columns, and its block
    is the template's block once per copy, so its completion solves one
    right-hand side per copy on the template's factor, and the check of
    its matrix reads only the rows after the copies."""

    KEYS = ("lazy_rows", "derived_rows", "derived_columns")

    def __init__(self, lazy_rows=(), derived_rows=(), derived_columns=(),
                 copies=None):
        self.lazy_rows = np.asarray(lazy_rows, dtype=np.int64)
        self.derived_rows = np.asarray(derived_rows, dtype=np.int64)
        self.derived_columns = np.asarray(derived_columns, dtype=np.int64)
        #: (template program, column map) of tiled marks, else None
        self.copies = copies
        self._block = None
        self._lock = threading.Lock()

    @classmethod
    def tiled(cls, template: LinearProgram, columns) -> Marks:
        """The marks of a program whose first ``S * m`` rows are the ``m``
        rows of ``template``, once per row of ``columns`` (S by the
        template's column count): copy k's column j is the program's column
        ``columns[k, j]``, each map increasing on the derived columns."""
        columns = np.asarray(columns, dtype=np.int64)
        shift = template.num_constraints * np.arange(len(columns))[:, None]
        t = template.marks
        return cls((shift + t.lazy_rows).ravel(), (shift + t.derived_rows).ravel(),
                   columns[:, t.derived_columns].ravel(), (template, columns))

    def block(self, program: LinearProgram) -> Block:
        """What a screen derives from the matrix of ``program``, which
        carries these marks, and the marks, made on the first call. Refuses
        with LpError what ``mark_derived`` refuses of the marks and the
        matrix, and a numerically singular block."""
        with self._lock:
            if self._block is None:
                self._block = self._derive(program)
        return self._block

    def _derive(self, program: LinearProgram) -> Block:
        A = program.matrix
        rows = _unique(self.lazy_rows)
        block_rows = _unique(self.derived_rows)
        block_columns = _unique(self.derived_columns)
        _check_pairs(self.derived_rows, self.derived_columns)
        layout_rows = np.ones(A.shape[0], dtype=bool)
        layout_rows[rows] = layout_rows[block_rows] = False
        rowless = np.flatnonzero(
            np.bincount(A.indices, minlength=A.shape[1]) == 0)
        if len(rowless) + len(block_columns) == A.shape[1]:
            rowless = rowless[:0]       # HiGHS takes no form without columns
        layout_columns = np.ones(A.shape[1], dtype=bool)
        layout_columns[block_columns] = layout_columns[rowless] = False
        solve = None
        if self.copies is not None:
            template, columns = self.copies
            _check_matrix(program, block_rows, block_columns,
                          len(columns) * template.num_constraints)
            tile = template.marks.block(template)
            size = len(tile.block_rows)
            solve = lambda b: tile.solve(b.reshape(-1, size).T).T.ravel()
        elif len(block_rows):
            _check_matrix(program, block_rows, block_columns)
            try:
                solve = splu(A[block_rows][:, block_columns].tocsc()).solve
            except RuntimeError:
                raise LpError("derived block: its rows do not fix its "
                              "columns (the block is singular)") from None
        return Block(rows, A[rows], block_rows, block_columns, A[block_rows],
                     rowless,
                     (np.flatnonzero(layout_rows), np.flatnonzero(layout_columns)),
                     solve)


def _status_from_scipy(code: int) -> str:
    if code == 0:
        return OPTIMAL
    if code == 2:
        return INFEASIBLE
    if code == 3:
        return UNBOUNDED
    raise LpSolveError(f"solver reported failure (scipy status {code})")


def _outside(value, lo, hi) -> np.ndarray:
    """Where ``value`` leaves ``[lo, hi]`` by more than the screening
    tolerance, ``_SOLVER_TOL`` relative to the side it crosses."""
    return (lo - value > _SOLVER_TOL * (1.0 + np.abs(lo))) \
        | (value - hi > _SOLVER_TOL * (1.0 + np.abs(hi)))


class Screen:
    """The lazy rows and the derived block of a program (see
    ``LinearProgram.mark_lazy`` and ``mark_derived``), and which of them
    are stated to HiGHS so far: a set that only grows. The block is left
    out until the first limit is stated, and then stated whole.
    ``violated`` is the one screening test and ``restate`` the one step
    that acts on it; ``solve`` runs it on the completed primal of each
    round, the Benders subproblems on those of all scenarios, and
    ``solve_held`` on that of a held relaxed form.

    What the screen derives from the matrix and the marks alone, the
    block's factor included, is the marks' (``Marks.block``): made by the
    first screen of any program that carries them, and shared by every
    later one. A screen keeps its stated set, the program's matrix until
    the relaxed form's is made, and the senses of its rows; it checks the
    program's own vectors, refusing a derived row that is not an equality
    or a derived column with a cost.

    The screen holds no limit itself: ``relaxed``, ``violated`` and
    ``complete`` read them, when they run, from the vectors (``cost``,
    ``lower``, ``upper``, ``rhs``) of the program they are given, which
    may be any of the screened one's matrix and senses, such as another
    scenario's instantiation.

    The relaxed form of a program (``relaxed``) holds, in this order, the
    rows neither lazy nor derived, the derived rows once stated, and the
    stated lazy rows in the order they were stated; its columns are those
    neither derived nor row-less, then the derived ones once stated. So
    stating more only appends rows and columns, to the matrix too: the
    block's columns appear in no row before its own. A column that no row
    of the program holds is in no form at all: its optimum is the bound its
    cost prefers, which ``complete`` sets, and ``settled`` adds what it
    costs there to the objective of the relaxed form. ``state`` settles the
    layout, and the form matrix once made, on its calling thread, so
    threads that only read the screen (``relaxed``, ``complete``,
    ``violated``) compute neither."""

    def __init__(self, program: LinearProgram):
        self.block = block = program.marks.block(program)
        #: the program's matrix, kept until the relaxed form's is made
        self.program_matrix = program.matrix
        self.shape = self.program_matrix.shape
        self.rows, self.matrix = block.rows, block.matrix
        #: which of ``rows`` are stated; the stated ones as positions in
        #: ``rows``, in the order they were stated
        self.stated_rows = np.zeros(len(self.rows), dtype=bool)
        self.order = np.zeros(0, dtype=np.int64)
        self.block_rows, self.block_columns = block.block_rows, block.block_columns
        self.rowless = block.rowless
        self.block_stated = not len(self.block_columns)
        if not self.block_stated:
            _check_vectors(program, self.block_rows, self.block_columns)
        self._layout, self._form = block.layout, None
        #: the rows whose range is open below (``<=``) and above (``>=``)
        self._le, self._ge = program.sense == LE, program.sense == GE

    @property
    def all_stated(self) -> bool:
        return bool(self.block_stated and self.stated_rows.all())

    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The program's rows and columns in the relaxed form, in its order."""
        if self._layout is None:
            rows, columns = self.block.layout
            self._layout = (np.r_[rows, self.block_rows, self.rows[self.order]],
                            np.r_[columns, self.block_columns])
        return self._layout

    @property
    def form_matrix(self) -> csc_matrix:
        """The matrix of the relaxed form, column-wise; the same for every
        program of the screened one's matrix."""
        if self._form is None:
            rows, columns = self.layout()
            self._form = self.program_matrix[rows][:, columns].tocsc()
            self.program_matrix = None
        return self._form

    def _ranges(self, rows, program):
        """The ranges ``(row_lo, row_hi)`` of ``rows`` of ``program``."""
        rhs = program.rhs[rows]
        return (np.where(self._le[rows], -np.inf, rhs),
                np.where(self._ge[rows], np.inf, rhs))

    def relaxed(self, program) -> ColumnForm:
        """``program``, of the screened one's matrix, as its relaxed form:
        the unstated lazy rows and, until stated, the derived block left
        out."""
        rows, columns = self.layout()
        return ColumnForm(self.form_matrix, program.cost[columns],
                          program.lower[columns], program.upper[columns],
                          *self._ranges(rows, program))

    def complete(self, x, program, cost=None) -> np.ndarray:
        """The primal of ``program`` from the primal ``x`` of its relaxed
        form: each column in its place; each row-less column at the bound
        its cost (``cost``, else the program's) prefers, the lower one when
        the cost is >= 0, and at 0 within its bounds when it costs nothing
        and that bound is infinite; and the derived columns, while the
        block is not stated, from the derived rows:
        x_C = A[R, C]^-1 (b_R - A[R, not C] x), on the marks' factor."""
        full = np.zeros(self.shape[1])
        full[self.layout()[1]] = x
        if len(self.rowless):
            at = self.rowless
            c = (program.cost if cost is None else cost)[at]
            lo, hi = program.lower[at], program.upper[at]
            value = np.where(c >= 0.0, lo, hi)
            free = (c == 0.0) & np.isinf(value)
            value[free] = np.clip(0.0, lo[free], hi[free])
            full[at] = value
        if not self.block_stated:
            # the derived columns are still 0 in ``full``
            full[self.block_columns] = self.block.solve(
                program.rhs[self.block_rows] - self.block.block_matrix @ full)
        return full

    def settled(self, sol: LpSolution, x, cost) -> LpSolution:
        """``sol``, an optimum of the relaxed form, as the program's: its
        primal the completed ``x``, and its objective plus what the
        row-less columns cost (``cost``) at ``x``; unbounded if a bound
        their costs prefer is infinite. Its duals stay the relaxed form's."""
        objective = sol.objective + float(cost[self.rowless] @ x[self.rowless])
        if objective == -math.inf:
            return LpSolution(UNBOUNDED, math.nan, np.zeros(0), np.zeros(0),
                              iterations=sol.iterations)
        return replace(sol, objective=objective, primal=x)

    def violated(self, x, program):
        """The unstated lazy rows of ``program`` that its primal ``x``
        leaves by more than ``_SOLVER_TOL * (1 + |side|)``, as positions in
        ``rows``, and whether, the block not stated, a derived column leaves
        its bounds so."""
        block = self.block_columns
        return (np.flatnonzero(~self.stated_rows & _outside(
                    self.matrix @ x, *self._ranges(self.rows, program))),
                not self.block_stated and bool(np.any(_outside(
                    x[block], program.lower[block], program.upper[block]))))

    def state(self, rows=(), bases=()) -> None:
        """State the lazy rows at these positions, each once in ascending
        order, after those stated before, and the derived block with them.
        Each of ``bases``, a basis of the relaxed form so far, grows in
        place to one of the grown form: should the block enter, its columns
        basic and its rows at their right-hand side (A[R, C] is
        nonsingular), then the new rows with basic slacks; so its vertex and
        reduced costs stay as they are."""
        rows = _unique(rows)
        new = rows[~self.stated_rows[rows]]
        first = not self.block_stated
        for basis in bases:
            if first:
                basis.col_status = basis.col_status + [
                    _highs.HighsBasisStatus.kBasic] * len(self.block_columns)
                basis.row_status = basis.row_status + [
                    _highs.HighsBasisStatus.kLower] * len(self.block_rows)
            with_basic_rows(basis, len(new))
        self.order = np.r_[self.order, new]
        self.stated_rows[rows] = True
        self.block_stated = True
        self._layout = None
        columns = self.layout()[1]
        if self._form is None:
            return
        grown, form = [self.matrix[new]], self._form
        if first:
            grown.insert(0, self.block.block_matrix)
            form = hstack((form, csc_matrix((form.shape[0],
                                             len(self.block_columns)))))
        self._form = vstack([form, *(part[:, columns] for part in grown)],
                            format="csc")

    def restate(self, primals, programs, held=()) -> list[int]:
        """Check each completed primal against the unstated limits of its
        program (``violated``); a primal of None, from an unbounded
        relaxation, breaks every limit. State whatever any primal breaks,
        with the block, on the calling thread, growing the bases of the
        ``held`` models (``state``), and pass each of them, paired with
        ``programs``, the grown relaxed form under the costs it holds: the
        block's columns are appended and cost nothing. After an unbounded
        relaxation every held model restarts cold. Returns the positions of
        the primals to solve again."""
        rows, again = [], []
        for k, (x, program) in enumerate(zip(primals, programs)):
            r, block = self.violated(x, program) if x is not None else (
                np.flatnonzero(~self.stated_rows), not self.block_stated)
            if len(r) or block:
                again.append(k)
                rows.append(r)
        if not again:
            return again
        cold = any(x is None for x in primals)
        self.state(np.concatenate(rows), [] if cold else [
            h.basis for h in held if h.basis is not None])
        for h, program in zip(held, programs):
            form = self.relaxed(program)
            h.reset(form._replace(cost=np.r_[h.cost, np.zeros(
                len(form.cost) - len(h.cost))]), None if cold else h.basis)
        return again


def solve(program: LinearProgram) -> LpSolution:
    """Solve to optimality with HiGHS dual simplex; never fails silently.

    The program is screened (``Screen``), in rounds: the first solves its
    relaxed form, without the lazy rows and the derived block; each later
    one states the rows the last completed primal violates, and the block
    with them (``Screen.restate``), and solves cold again, until none is.
    An optimum of a relaxation that is feasible for the program is optimal
    for it, so the report is the full program's: a left-out row has dual 0
    and a left-out derived column multipliers 0 (the block's columns cost
    nothing and no stated row but the block's holds them, so the duals stay
    feasible and ``dual_objective`` equals the primal), a row-less column,
    at the bound its cost prefers, its cost as that bound's multiplier and
    as its reduced cost, and the iterations and the iteration limit count
    over all rounds. An infeasible relaxation means an infeasible program;
    an unbounded one is solved again with every row and the block stated.

    Raises LpSolveError on numerical breakdown or iteration exhaustion."""
    screen = Screen(program)
    iterations = 0
    while True:
        form = screen.relaxed(program)
        eq = np.flatnonzero(form.row_lo == form.row_hi)
        ub = np.flatnonzero(form.row_lo != form.row_hi)
        # HiGHS via linprog takes A_ub x <= b_ub: >= rows enter negated
        at_most = np.isfinite(form.row_hi[ub])
        sign = np.where(at_most, 1.0, -1.0)
        A_ub = form.matrix[ub]
        A_ub.data *= sign[A_ub.indices]
        res = linprog(form.cost, A_ub=A_ub,
                      b_ub=np.where(at_most, form.row_hi[ub], -form.row_lo[ub]),
                      A_eq=form.matrix[eq], b_eq=form.row_lo[eq],
                      bounds=np.column_stack((form.lower, form.upper)),
                      method="highs-ds",
                      options={"maxiter": _MAX_ITERATIONS - iterations,
                               "primal_feasibility_tolerance": _SOLVER_TOL,
                               "dual_feasibility_tolerance": _SOLVER_TOL})
        iterations += int(res.nit)
        status = _status_from_scipy(res.status)
        if status not in (OPTIMAL, UNBOUNDED):
            break
        x = screen.complete(np.asarray(res.x), program) \
            if status == OPTIMAL else None
        if not screen.restate([x], [program]):
            break
    if status != OPTIMAL:
        return LpSolution(status, math.nan, np.zeros(0), np.zeros(0),
                          iterations=iterations)

    rows, columns = screen.layout()
    duals = np.zeros(program.num_constraints)
    # marginal is d obj / d (sign * rhs); chain rule restores d obj / d rhs
    duals[rows[ub]] = sign * np.asarray(res.ineqlin.marginals)
    duals[rows[eq]] = np.asarray(res.eqlin.marginals)
    lower, upper = np.zeros((2, program.num_variables))
    lower[columns] = res.lower.marginals
    upper[columns] = res.upper.marginals
    cost = program.cost[screen.rowless]
    lower[screen.rowless] = np.maximum(cost, 0.0)
    upper[screen.rowless] = np.minimum(cost, 0.0)
    return screen.settled(LpSolution(OPTIMAL, float(res.fun), x, duals,
                                     iterations, (lower, upper), lower + upper),
                          x, program.cost)


class ColumnForm(NamedTuple):
    """A program as HiGHS takes it: ``row_lo <= matrix @ x <= row_hi`` and
    ``lower <= x <= upper``, the matrix column-wise. Programs that differ
    only in data may share one matrix."""

    matrix: csc_matrix
    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_lo: np.ndarray
    row_hi: np.ndarray


def row_bounds(sense: np.ndarray, rhs: np.ndarray):
    """Row ranges ``(row_lo, row_hi)`` of rows given by sense and rhs."""
    return np.where(sense == LE, -np.inf, rhs), np.where(sense == GE, np.inf, rhs)


def column_form(program: LinearProgram) -> ColumnForm:
    return ColumnForm(program.matrix.tocsc(), program.cost, program.lower,
                      program.upper, *row_bounds(program.sense, program.rhs))


def _warm_options():
    opts = _highs.HighsOptions()
    opts.output_flag = False
    opts.log_to_console = False
    opts.solver = "simplex"
    opts.simplex_strategy = \
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.primal_feasibility_tolerance = _SOLVER_TOL
    opts.dual_feasibility_tolerance = _SOLVER_TOL
    opts.simplex_iteration_limit = _MAX_ITERATIONS
    return opts


_WARM_OPTIONS = _warm_options()
_DUAL = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_PRIMAL = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
_AT_LOWER = int(_highs.HighsBasisStatus.kLower)
_AT_UPPER = int(_highs.HighsBasisStatus.kUpper)
_HS = _highs.HighsModelStatus
#: HiGHS model status to report status, as ``linprog`` maps it
_HIGHS_STATUS = {_HS.kOptimal: OPTIMAL, _HS.kInfeasible: INFEASIBLE,
                 _HS.kModelError: INFEASIBLE, _HS.kUnbounded: UNBOUNDED}


class HeldModel:
    """A program held in one HiGHS instance, which receives it once
    (``passModel``); afterwards HiGHS is sent only what changes: new costs
    (``changeColsCost``, through ``solve``), new column bounds
    (``changeColsBounds``, through ``set_column_bounds``) and new rows
    (``addRows``, through ``add_rows``). HiGHS keeps its own basis and
    factorization between solves, so programs that differ only in costs
    (the tariff-sweep levels), in column bounds (a Benders subproblem at
    new bids) or by a few rows (the Benders master after new cuts)
    re-solve in a few simplex iterations. A cost change leaves the held
    basis primal feasible, so a solve whose costs are the only change
    since the last optimum runs primal simplex from it; a bound or row
    change leaves it dual feasible, so every other solve (the first, a
    restart without a basis, and one after a ``reset``,
    ``set_column_bounds`` or ``add_rows``) runs dual simplex. ``basis`` is
    the last optimal basis, or the starting one: a basis of a program of
    the same shape, which the model copies, since ``Screen.state`` and
    ``with_basic_rows`` grow the basis it holds in place (presolve is
    skipped then). After a solve that ends not optimal, the next one
    restarts from ``basis``, or cold without one. HiGHS is given the rows
    and bounds of ``program`` as they are: a held model screens nothing
    itself, so a caller that screens passes the relaxed form, and
    ``Screen.restate`` passes the grown form again through ``reset``."""

    def __init__(self, program: LinearProgram | ColumnForm, basis=None):
        self._highs = _highs._Highs()
        self._highs.passOptions(_WARM_OPTIONS)
        self._strategy = _DUAL
        self.reset(program if isinstance(program, ColumnForm)
                   else column_form(program),
                   None if basis is None else _copied(basis))

    def reset(self, form: ColumnForm, basis=None) -> None:
        """Hold ``form`` instead, and start its next solve from ``basis``."""
        A = form.matrix
        m, n = A.shape
        if self._highs.passModel(n, m, A.nnz, _COLWISE, _MINIMIZE, 0.0,
                                 form.cost, form.lower, form.upper, form.row_lo,
                                 form.row_hi, A.indptr, A.indices, A.data,
                                 np.zeros(n, np.int32)) == _highs.HighsStatus.kError:
            raise LpSolveError("HiGHS rejected the program")
        #: the costs HiGHS holds
        self.cost = np.array(form.cost, dtype=float)
        self.basis = basis
        #: whether HiGHS must restart from ``basis`` before the next run
        self._restart = basis is not None
        #: whether bounds or rows changed since the last optimum (run dual)
        self._rows_changed = True

    def set_column_bounds(self, columns, lower, upper) -> None:
        """Change the bounds of the held ``columns`` to ``[lower, upper]``,
        in one ``changeColsBounds`` call."""
        columns = np.asarray(columns, dtype=np.int32)
        if self._highs.changeColsBounds(
                len(columns), columns, np.asarray(lower, dtype=float),
                np.asarray(upper, dtype=float)) == _highs.HighsStatus.kError:
            raise LpError(f"HiGHS refused the bounds of columns {columns}")
        self._rows_changed = True

    def add_rows(self, matrix: csr_matrix, row_lo, row_hi) -> None:
        """Append the rows of ``matrix`` (one column per held column) with
        the ranges ``[row_lo, row_hi]``; they enter the held basis, and
        ``basis``, with basic slacks (``with_basic_rows``)."""
        m, n = matrix.shape
        if n != len(self.cost):
            raise LpError(f"rows over {n} columns for {len(self.cost)} columns")
        if self._highs.addRows(m, np.asarray(row_lo, dtype=float),
                               np.asarray(row_hi, dtype=float), matrix.nnz,
                               matrix.indptr.astype(np.int32),
                               matrix.indices.astype(np.int32),
                               matrix.data) == _highs.HighsStatus.kError:
            raise LpSolveError("HiGHS rejected the rows")
        if self.basis is not None:
            with_basic_rows(self.basis, m)
        self._rows_changed = True

    def solve(self, cost=None) -> LpSolution:
        """Solve like the module's ``solve``, with the same dual convention
        and status mapping, after replacing the costs by ``cost`` if given.
        An infeasible solve reports as its row duals HiGHS's Farkas ray
        (``certificate_rows``), or none if HiGHS gives none.

        Raises LpSolveError on numerical breakdown or iteration exhaustion."""
        highs = self._highs
        if cost is not None:
            cost = np.array(cost, dtype=float)
            if cost.shape != self.cost.shape:
                raise LpError(f"{cost.shape} costs for {len(self.cost)} columns")
            changed = np.flatnonzero(cost != self.cost)
            if len(changed):
                highs.changeColsCost(len(changed), changed.astype(np.int32),
                                     cost[changed])
            self.cost = cost
        if self._restart:
            if self.basis is None:
                highs.clearSolver()
            elif highs.setBasis(self.basis) == _highs.HighsStatus.kError:
                raise LpSolveError("HiGHS rejected the starting basis")
        strategy = _DUAL if cost is None or self.basis is None \
            or self._rows_changed else _PRIMAL
        if strategy != self._strategy:
            highs.setOptionValue("simplex_strategy", strategy)
            self._strategy = strategy
        self._restart = True
        highs.run()
        info = highs.getInfo()
        iterations = int(info.simplex_iteration_count)
        code = highs.getModelStatus()
        if code not in _HIGHS_STATUS:
            raise LpSolveError(f"solver reported failure (HiGHS model status "
                               f"{highs.modelStatusToString(code)})")
        status = _HIGHS_STATUS[code]
        if status != OPTIMAL:
            ray = np.zeros(0)
            if status == INFEASIBLE:
                # read now: the next run replaces it
                _, has, values = highs.getDualRay()
                ray = np.asarray(values) if has else ray
            return LpSolution(status, math.nan, np.zeros(0), ray,
                              iterations=iterations)
        sol, self.basis = highs.getSolution(), highs.getBasis()
        self._restart = self._rows_changed = False
        return LpSolution(OPTIMAL, float(info.objective_function_value),
                          np.asarray(sol.col_value),
                          lambda: np.asarray(sol.row_dual), iterations,
                          partial(_bound_marginals, sol, self.basis),
                          lambda: np.asarray(sol.col_dual))


def solve_held(held: HeldModel, screen: Screen, program: LinearProgram,
               cost) -> LpSolution:
    """Solve ``held``, which holds the relaxed form of ``program`` under
    ``screen``, under ``cost`` (one per column of ``program``), complete its
    primal and check it: while it breaks a left-out limit, or the
    relaxation is unbounded, ``Screen.restate`` states the limit with the
    block and passes ``held`` the grown form, and ``held`` re-solves, from
    the held vertex extended to a basis of the grown form, so the reduced
    costs stay as they are, or cold after an unbounded relaxation. Returns
    the solution with the completed primal, the objective with what the
    row-less columns cost (``Screen.settled``) and the simplex iterations
    of every round; its row duals and bound multipliers stay those of the
    relaxed form, and so does the Farkas ray of an infeasible one.

    Raises LpSolveError on numerical breakdown or iteration exhaustion."""
    sol = held.solve(cost[screen.layout()[1]])
    iterations = sol.iterations
    while sol.status in (OPTIMAL, UNBOUNDED):
        x = screen.complete(sol.primal, program, cost) \
            if sol.status == OPTIMAL else None
        if not screen.restate([x], [program], [held]):
            break
        sol = held.solve()
        iterations += sol.iterations
    if sol.status == OPTIMAL:
        sol = screen.settled(sol, x, cost)
    return replace(sol, iterations=iterations)


def certificate_rows(sol: LpSolution, screen: Screen) -> np.ndarray:
    """The program rows, ascending, of the entries above ``_RAY_TOL`` times
    the largest in the Farkas ray of ``sol``, a ``HeldModel`` solve of
    ``screen``'s relaxed form: with the column bounds alone they admit no
    point (Chinneck 2008). None if ``sol`` carries no ray."""
    y = np.abs(sol.duals) if sol.status == INFEASIBLE else np.zeros(0)
    if not len(y):
        return np.zeros(0, dtype=np.int64)
    return np.sort(screen.layout()[0][y > _RAY_TOL * y.max()])


def _bound_marginals(sol, basis) -> tuple[np.ndarray, np.ndarray]:
    """The bound multipliers of a warm solve: a column's dual is a lower or
    an upper bound multiplier by its basis status. Only the column statuses
    are read, which ``with_basic_rows`` leaves alone."""
    col_dual = np.asarray(sol.col_dual)
    col_status = np.fromiter(map(int, basis.col_status), np.int8, len(col_dual))
    return (np.where(col_status == _AT_LOWER, col_dual, 0.0),
            np.where(col_status == _AT_UPPER, col_dual, 0.0))


def _copied(basis):
    """A copy of the HiGHS basis ``basis`` (the binding's basis has no
    copy of its own)."""
    copy = _highs.HighsBasis()
    for key in ("valid", "alien", "was_alien", "col_status", "row_status"):
        setattr(copy, key, getattr(basis, key))
    return copy


def with_basic_rows(basis, count: int):
    """``basis`` for its program with ``count`` rows appended: the new rows
    enter basic (their slacks), so the old vertex stays a basis."""
    basis.row_status = basis.row_status \
        + [_highs.HighsBasisStatus.kBasic] * count
    return basis


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
