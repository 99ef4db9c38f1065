import threading
import types

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from vppsched import benders as bd
from vppsched import instance
from vppsched import lp
from vppsched import scenarios as sg
from vppsched import stochastic as st


@pytest.fixture(scope="session")
def desk():
    return instance.desk_instance()


@pytest.fixture(scope="session")
def desk_scenarios(desk):
    return sg.build_scenarios(desk.forecast, sg.DEFAULT_ERROR_SPECS, 10, seed=42)


@pytest.fixture(scope="session")
def desk_neutral(desk, desk_scenarios):
    """Solved extensive form, expectation risk; reused across read-only tests."""
    risk = st.RiskMeasure(st.EXPECTATION)
    ef = st.build_extensive(desk.model, desk_scenarios, risk)
    sol = st.solve_extensive(desk.model, ef, desk_scenarios)
    return ef, sol


@pytest.fixture(scope="session")
def desk_cvar(desk, desk_scenarios):
    risk = st.RiskMeasure(st.CVAR, 0.9)
    ef = st.build_extensive(desk.model, desk_scenarios, risk)
    sol = st.solve_extensive(desk.model, ef, desk_scenarios)
    return ef, sol


@pytest.fixture(scope="session")
def desk_benders(desk, desk_scenarios):
    return bd.iterate(desk.model, desk_scenarios, st.RiskMeasure(st.EXPECTATION))


@pytest.fixture
def splu_threads(monkeypatch):
    """Logs the thread of every sparse LU that ``lp`` makes, in call
    order."""
    log = []
    factor = lp.splu

    def recorded(*args, **kwargs):
        log.append(threading.current_thread())
        return factor(*args, **kwargs)

    monkeypatch.setattr(lp, "splu", recorded)
    return log


class LinprogLog(list):
    """The rows each ``linprog`` run was given, in run order, and in
    ``iterations`` the simplex iterations each took."""

    def __init__(self):
        super().__init__()
        self.iterations = []


@pytest.fixture
def linprog_rows(monkeypatch):
    """Logs the ``linprog`` runs of ``lp.solve``, one per screening round,
    as a ``LinprogLog``."""
    log = LinprogLog()
    run = lp.linprog

    def counted(*args, **kwargs):
        log.append(kwargs["A_ub"].shape[0] + kwargs["A_eq"].shape[0])
        res = run(*args, **kwargs)
        log.iterations.append(int(res.nit))
        return res

    monkeypatch.setattr(lp, "linprog", counted)
    return log


class HighsLog(list):
    """The calls a recording HiGHS class received, in order, and in
    ``by_model`` the calls of each instance, by instance, in the order
    the instances got their first logged call."""

    def __init__(self):
        super().__init__()
        self.strategies = []
        self.by_model = {}

    def note(self, model, entry) -> None:
        self.append(entry)
        self.by_model.setdefault(model, []).append(entry)


@pytest.fixture
def record_highs(monkeypatch):
    """``record(fail_run=None)`` gives ``lp`` a HiGHS class that logs the
    calls its instances receive (``passModel`` with the column and row
    counts it is given, ``changeColsCost`` with its entry count,
    ``changeColsBounds`` with its columns and bounds, ``addRows`` with the
    rows it is given as a CSR matrix and their ranges, ``clearSolver``,
    ``setBasis`` with its basis, ``run``, and ``getBasis`` with the basis
    it returns), and reports run number
    ``fail_run`` (from 1) infeasible, and returns the log;
    ``log.strategies`` lists the simplex strategy in force at each
    ``run``, as HiGHS reports it, and ``log.by_model`` the calls of each
    instance. ``linprog`` keeps scipy's own class."""

    def record(fail_run=None):
        log = HighsLog()

        class Recording(lp._highs._Highs):
            def passModel(self, *args):
                log.note(self, ("passModel", args[0], args[1]))
                return super().passModel(*args)

            def changeColsCost(self, *args):
                log.note(self, ("changeColsCost", args[0]))
                return super().changeColsCost(*args)

            def changeColsBounds(self, n, columns, lower, upper):
                log.note(self, ("changeColsBounds", np.array(columns),
                                np.array(lower), np.array(upper)))
                return super().changeColsBounds(n, columns, lower, upper)

            def addRows(self, m, lower, upper, nnz, starts, indices, values):
                log.note(self, ("addRows", csr_matrix(
                    (np.array(values), np.array(indices),
                     np.r_[starts[:m], nnz]), shape=(m, self.getNumCol())),
                    np.array(lower), np.array(upper)))
                return super().addRows(m, lower, upper, nnz, starts, indices,
                                       values)

            def clearSolver(self):
                log.note(self, ("clearSolver",))
                return super().clearSolver()

            def setBasis(self, basis):
                log.note(self, ("setBasis", basis))
                return super().setBasis(basis)

            def run(self):
                log.note(self, ("run",))
                log.strategies.append(
                    self.getOptionValue("simplex_strategy")[1])
                return super().run()

            def getModelStatus(self):
                if log.count(("run",)) == fail_run:
                    return lp._highs.HighsModelStatus.kInfeasible
                return super().getModelStatus()

            def getBasis(self):
                basis = super().getBasis()
                log.note(self, ("getBasis", basis))
                return basis

        binding = types.SimpleNamespace(**vars(lp._highs))
        binding._Highs = Recording
        monkeypatch.setattr(lp, "_highs", binding)
        return log

    return record
