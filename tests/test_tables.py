"""The table codec: one writer and one reader for every CSV the package
touches, exact float round trips, and malformed tables refused with the
file, the line and the column named."""

import ast
import os

import numpy as np
import pytest

from vppsched import instance as im
from vppsched import reports as rp
from vppsched import scenarios as sg
from vppsched import stochastic as st
from vppsched import tables
from vppsched.model import extract_block_series


def test_only_tables_speaks_csv():
    # one codec: no other module imports csv or joins or splits on ","
    package = os.path.dirname(tables.__file__)
    offenders = []
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py") or fname == "tables.py":
            continue
        with open(os.path.join(package, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bad = any(a.name.split(".")[0] == "csv" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = (node.module or "").split(".")[0] == "csv"
            elif isinstance(node, ast.Call) and isinstance(node.func,
                                                           ast.Attribute):
                comma = lambda n: isinstance(n, ast.Constant) and n.value == ","
                func = node.func
                bad = (func.attr == "join" and comma(func.value)) or (
                    func.attr in ("split", "rsplit")
                    and any(map(comma, node.args)))
            else:
                continue
            if bad:
                offenders.append(f"{fname}:{node.lineno}")
    assert offenders == []


@pytest.fixture(scope="module")
def preset_tables(tmp_path_factory):
    """The forecast and one scenario table of each preset."""
    paths = []
    for name in ("desk", "day", "full"):
        inst = im.PRESETS[name]()
        out = tmp_path_factory.mktemp(name)
        hz = inst.model.horizon
        im.write_instance(inst, str(out), scenario_count=1)
        sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 1, 42)
        sg.save_scenario_set(sset, str(out / "scenarios"), hz.step_hours,
                             hz.rcm_window_hours)
        paths += [out / "forecast.csv", out / "scenarios" / "scenario_0000.csv"]
    return paths


def test_column_reader_is_bitwise_per_cell_float(preset_tables):
    for path in preset_tables:
        header, rows = tables.read(path)
        columns = tables.read_columns(path)
        assert list(columns) == header
        for k, name in enumerate(header):
            want = np.array([float(r[k]) for r in rows])
            assert columns[name].tobytes() == want.tobytes()
            assert columns[name].flags.c_contiguous


def test_crlf_tables_read_the_same(preset_tables, tmp_path):
    path = preset_tables[0]
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert tables.read(crlf) == tables.read(path)
    lf, cr = tables.read_columns(path), tables.read_columns(crlf)
    assert all(np.array_equal(lf[name], cr[name]) for name in lf)


def test_writer_round_trips_doubles_and_refuses_unsafe_strings(tmp_path):
    path = tmp_path / "t.csv"
    values = [0.1, 1 / 3, -2.5e-300, np.float64(7.0), 1e17]
    tables.write(path, ["i", "name", "x"],
                 [(i, f"r{i}", v) for i, v in enumerate(values)] + [(9, "b", True)])
    assert path.read_bytes().count(b"\r") == 0
    header, rows = tables.read(path)
    assert header == ["i", "name", "x"]
    assert [float(r[2]) for r in rows[:-1]] == [float(v) for v in values]
    assert rows[-1] == ["9", "b", "1"]
    for bad in ("a,b", 'say "hi"', "two\nlines", "cr\r"):
        with pytest.raises(tables.TableError, match="u.csv"):
            tables.write(tmp_path / "u.csv", ["name"], [(bad,)])
        assert not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("text, where", [
    ("a,b\n1,2\n3\n", "line 3, column b"),           # cut-off row
    ("a,b\n1,2\n3,4,5\n", "line 3, column 3"),       # long row
    ("a,b\n1,2\n3,x\n", "line 3, column b"),         # non-numeric cell
])
def test_malformed_numeric_table_names_file_line_column(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(tables.TableError, match=where) as exc:
        tables.read_columns(path)
    assert str(path) in str(exc.value)


def test_missing_column_names_file_and_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n")
    with pytest.raises(tables.TableError, match="line 1, column b"):
        tables.read_columns(path)["b"]


def per_cell_columns(path, columns):
    """The column writer as it was: one ``_cell`` call per cell."""
    tables.write(path, list(columns), zip(*columns.values(), strict=True))


@pytest.mark.parametrize("preset", ["desk", "day", "full"])
def test_solution_tables_equal_the_per_cell_ones(preset, tmp_path, monkeypatch):
    # write_solution formats each column at once, to the bytes the per-cell
    # writer gives: float, -0.0, integer-valued, int, bool and Python int
    # cells alike
    inst = im.PRESETS[preset]()
    model, T = inst.model, inst.model.horizon.step_count
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 2, 42)
    tpl = model.template
    blocks = [model.scenario_data(sc, k * tpl.n_block)
              for k, sc in enumerate(sset.scenarios)]
    x = np.random.default_rng(7).normal(
        scale=100.0, size=tpl.n_first + len(blocks) * tpl.n_block)
    x[::5], x[1::7], x[2::11] = -0.0, 0.0, np.round(x[2::11])
    series = [extract_block_series(block, x) for block in blocks]
    series[0].update(count=np.arange(T) - 3, flag=np.arange(T) % 3 == 0,
                     listed=list(range(T)), small=np.arange(T, dtype=np.int8))
    bids = x[:tpl.n_first].copy()
    bids[T:] = np.abs(bids[T:])           # capacity bids are nonnegative
    out = rp.SolveOutput(1.5, model.first_stage_decision(bids),
                         [block.breakdown(x) for block in blocks], series)
    written = []
    for writer in (tables.write_columns, per_cell_columns):
        monkeypatch.setattr(tables, "write_columns", writer)
        out_dir = tmp_path / writer.__name__
        rp.write_solution(str(out_dir), model, sset, out, "extensive",
                          st.RiskMeasure(st.EXPECTATION), "cfg", "manifest", 0.0)
        written.append({name: (out_dir / name).read_bytes()
                        for name in sorted(os.listdir(out_dir))})
    assert written[0] == written[1]
    assert len(written[0]) == 2 + len(blocks) + 1
    dispatch = written[0]["dispatch_0000.csv"].decode()
    assert ",-0.0" in dispatch and ",1.0," in dispatch and ",-3.0," in dispatch
