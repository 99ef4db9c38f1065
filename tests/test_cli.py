import csv
import json
import math
import pathlib
import shutil

import numpy as np
import pytest

from vppsched import benders as bd
from vppsched import cli
from vppsched import config as cf
from vppsched import market as mk
from vppsched import reports as rp
from vppsched import scenarios as sg
from vppsched import stochastic as st
from vppsched import tables
from vppsched import instance as inst_mod
from vppsched.instance import desk_instance, write_instance


@pytest.fixture(scope="module")
def desk_dir(tmp_path_factory):
    """Desk instance with generated scenarios, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli_desk")
    cfg = write_instance(desk_instance(), str(root), scenario_count=6,
                         scenario_seed=9)
    assert cli.main(["generate-scenarios", "--config", cfg]) == 0
    return root, cfg


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_make_instance_writes_all_files(tmp_path):
    rc = cli.main(["make-instance", "--preset", "desk",
                   "--out", str(tmp_path / "inst")])
    assert rc == 0
    for name in ("config.json", "buses.csv", "branches.csv", "dg.csv",
                 "hp.csv", "ev.csv", "bess.csv", "forecast.csv"):
        assert (tmp_path / "inst" / name).exists()


def test_make_instance_unknown_preset(tmp_path):
    assert cli.main(["make-instance", "--preset", "galaxy",
                     "--out", str(tmp_path / "x")]) == 2


def test_usage_error_without_subcommand():
    assert cli.main([]) == 2
    assert cli.main(["solve", "--config", "nope.json"]) == 2  # missing --method


def test_missing_config_is_usage_error():
    assert cli.main(["generate-scenarios", "--config", "/nope/cfg.json"]) == 2


def test_generate_is_idempotent(desk_dir):
    root, cfg = desk_dir
    scen_dir = root / "scenarios"
    before = {p.name: p.read_bytes() for p in scen_dir.iterdir()}
    assert cli.main(["generate-scenarios", "--config", cfg]) == 0
    after = {p.name: p.read_bytes() for p in scen_dir.iterdir()}
    assert before == after


def test_generate_rejects_zero_count(tmp_path):
    cfg_path = write_instance(desk_instance(), str(tmp_path), scenario_count=0)
    assert cli.main(["generate-scenarios", "--config", cfg_path]) == 2


def test_solve_requires_scenarios(tmp_path):
    cfg_path = write_instance(desk_instance(), str(tmp_path))
    assert cli.main(["solve", "--config", cfg_path, "--method",
                     "extensive"]) == 2


def test_solve_methods_agree_and_artifacts_land(desk_dir):
    root, cfg = desk_dir
    rc = cli.main(["solve", "--config", cfg, "--method", "extensive",
                   "--out", str(root / "ext")])
    assert rc == 0
    rc = cli.main(["solve", "--config", cfg, "--method", "benders",
                   "--out", str(root / "bnd")])
    assert rc == 0
    ext = read_json(root / "ext" / "summary.json")
    bnd = read_json(root / "bnd" / "summary.json")
    rel = abs(ext["objective"] - bnd["objective"]) / max(1, abs(ext["objective"]))
    assert rel <= 1e-4
    assert (root / "bnd" / "trace.csv").exists()
    assert (root / "ext" / "dispatch_0005.csv").exists()


def test_solve_cvar_flag(desk_dir):
    root, cfg = desk_dir
    rc = cli.main(["solve", "--config", cfg, "--method", "extensive",
                   "--risk", "cvar", "--alpha", "0.8",
                   "--out", str(root / "cvar")])
    assert rc == 0
    summary = read_json(root / "cvar" / "summary.json")
    assert summary["risk"] == "cvar" and summary["alpha"] == 0.8


def test_extensive_size_guard(desk_dir):
    root, cfg = desk_dir
    raw = read_json(cfg)
    raw["extensive"]["max_variables"] = 10
    guarded = root / "guarded.json"
    guarded.write_text(json.dumps(raw))
    rc = cli.main(["solve", "--config", str(guarded), "--method", "extensive"])
    assert rc == 2


def test_evaluate_matches_solver_objective(desk_dir):
    root, cfg = desk_dir
    assert cli.main(["evaluate", "--config", cfg,
                     "--solution", str(root / "ext")]) == 0
    summary = read_json(root / "ext" / "summary.json")
    report = read_json(root / "ext" / "evaluation" / "profit_report.json")
    assert report["expected_profit"] == pytest.approx(
        -summary["expected_cost"], rel=1e-6, abs=1e-9)
    # expectation risk: solver objective is the expected cost
    assert summary["objective"] == pytest.approx(summary["expected_cost"],
                                                 rel=1e-6)
    assert (root / "ext" / "evaluation" / "profit_histogram.csv").exists()


def test_evaluate_takes_the_cvar_at_the_solution_alpha(desk_dir):
    # the config says alpha 0.9; the solution was solved at 0.5
    root, cfg = desk_dir
    assert cli.main(["solve", "--config", cfg, "--method", "extensive",
                     "--risk", "cvar", "--alpha", "0.5",
                     "--out", str(root / "cvar05")]) == 0
    assert cli.main(["evaluate", "--config", cfg,
                     "--solution", str(root / "cvar05")]) == 0
    report = read_json(root / "cvar05" / "evaluation" / "profit_report.json")
    profits = tables.read_columns(str(root / "cvar05" / "evaluation"
                                      / "profits.csv"))
    assert report["alpha"] == 0.5
    assert report["cost_cvar"] == st.cvar_of_samples(
        -profits["profit"], profits["probability"], 0.5)


def test_evaluate_refuses_foreign_scenarios(desk_dir, tmp_path):
    root, cfg = desk_dir
    raw = read_json(cfg)
    raw["scenarios"]["seed"] = 777
    other = root / "other.json"
    other.write_text(json.dumps(raw))
    assert cli.main(["generate-scenarios", "--config", str(other)]) == 0
    # the solution under ext/ was produced from the old scenario set
    assert cli.main(["evaluate", "--config", str(other),
                     "--solution", str(root / "ext")]) == 2
    # restore the original set for any later test
    assert cli.main(["generate-scenarios", "--config", cfg]) == 0


def test_infeasible_model_exit_code(tmp_path, capsys):
    bad = desk_instance()
    bad.model.park.hps[0] = type(bad.model.park.hps[0])(
        "hp1", 3, 0.01, 3.0, 8.0, 6.0, 19.0, 23.0, 21.0)
    bad.forecast.ambient_temp = np.full(8, -40.0)
    cfg_path = write_instance(bad, str(tmp_path), scenario_count=2)
    assert cli.main(["generate-scenarios", "--config", cfg_path]) == 0
    for method in ("extensive", "benders"):
        capsys.readouterr()
        assert cli.main(["solve", "--config", cfg_path, "--method",
                         method]) == 3
        # the rows of the certificate, the heat pump's dynamics among them
        assert "hp_dyn_hp1[" in capsys.readouterr().err


def test_convergence_failure_exit_code(desk_dir):
    root, cfg = desk_dir
    raw = read_json(cfg)
    raw["benders"] = {"tolerance": 1e-15, "max_iterations": 1, "workers": 1}
    hard = root / "hard.json"
    hard.write_text(json.dumps(raw))
    rc = cli.main(["solve", "--config", str(hard), "--method", "benders",
                   "--out", str(root / "failed")])
    assert rc == 4
    summary = read_json(root / "failed" / "summary.json")
    assert summary["converged"] is False


def malformed_solve(tmp_path, capsys, table, edit):
    """Exit code and stderr of a desk solve after ``edit`` rewrote the lines
    of one of its tables."""
    cfg = write_instance(desk_instance(), str(tmp_path), scenario_count=2)
    assert cli.main(["generate-scenarios", "--config", cfg]) == 0
    path = tmp_path / table
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    rc = cli.main(["solve", "--config", cfg, "--method", "extensive"])
    return rc, capsys.readouterr().err, str(path)


def test_table_without_a_column_is_usage_error(tmp_path, capsys):
    def drop_nominal_kw(lines):
        k = lines[0].split(",").index("nominal_kw")
        return [",".join(c for j, c in enumerate(line.split(",")) if j != k)
                for line in lines]
    rc, err, path = malformed_solve(tmp_path, capsys, "dg.csv", drop_nominal_kw)
    assert rc == 2
    assert f"{path}, line 1, column nominal_kw" in err


def test_cut_off_scenario_row_is_usage_error(tmp_path, capsys):
    def cut_row_3(lines):
        lines[3] = ",".join(lines[3].split(",")[:-2])
        return lines
    rc, err, path = malformed_solve(tmp_path, capsys,
                                    "scenarios/scenario_0001.csv", cut_row_3)
    assert rc == 2
    assert f"{path}, line 4, column load_p_" in err


def set_cell(column, value):
    """An edit that writes ``value`` into the first data row of the first
    column whose name starts with ``column``."""
    def edit(lines):
        k = next(j for j, name in enumerate(lines[0].split(","))
                 if name.startswith(column))
        cells = lines[1].split(",")
        cells[k] = value
        lines[1] = ",".join(cells)
        return lines
    return edit


@pytest.mark.parametrize("column,value,message", [
    ("cf_", "1.5", "capacity factor 'pv1' outside [0, 1]"),
    ("cf_", "nan", "capacity factor 'pv1' outside [0, 1]"),
    ("ev_availability", "2.0", "ev availability outside [0, 1]"),
    ("rcm_up_price", "-5.0", "reserve capacity prices must be nonnegative"),
    ("dam_price", "nan", "non-finite value in day_ahead_price"),
    ("ambient_temp", "nan", "non-finite value in ambient_temp"),
    ("load_p_1", "nan", "non-finite value in load_active"),
    ("imb_short_price", "nan", "imbalance short price below long price")],
    ids=["cf-1.5", "cf-nan", "ev-2.0", "rcm-price-minus-5", "dam-price-nan",
         "ambient-temp-nan", "load-nan", "imb-short-price-nan"])
def test_out_of_range_scenario_value_is_usage_error(tmp_path, capsys, column,
                                                    value, message):
    # a scenario table is held to the range checks of the forecast
    rc, err, path = malformed_solve(tmp_path, capsys,
                                    "scenarios/scenario_0000.csv",
                                    set_cell(column, value))
    assert rc == 2
    assert f"error: {path}: {message}" in err


def edit_config(change):
    """An edit of config.json that applies ``change`` to the document."""
    def edit(lines):
        raw = json.loads("\n".join(lines))
        change(raw)
        return json.dumps(raw, indent=1).splitlines()
    return edit


def _set_tariff_hours(raw):
    raw["market"]["hourly_tariff_per_mwh"] = [206.5] * 23


def _set_window(raw):
    raw["horizon"]["rcm_window_hours"] = 0.3


@pytest.mark.parametrize("table,edit,message", [
    ("dg.csv", set_cell("marginal_cost_per_kwh", "-0.02"),
     "pv1: negative marginal cost"),
    ("config.json", edit_config(_set_tariff_hours),
     "hourly tariff needs exactly 24 values"),
    ("config.json", edit_config(_set_window),
     "window duration must be an integer multiple of the step")],
    ids=["negative-dg-cost", "23-tariff-hours", "window-0.3-h"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, table, edit,
                                         message):
    rc, err, _ = malformed_solve(tmp_path, capsys, table, edit)
    assert rc == 2
    assert f"error: {message}" in err
    assert "Traceback" not in err


#: a config edit that deletes its key
DROP = object()
SOLVE = ["solve", "--method", "extensive"]


@pytest.mark.parametrize("command,edits,message", [
    (SOLVE, {"scenarios.count": "ten"}, "config key scenarios.count: "),
    (SOLVE, {"benders.workers": "two"}, "config key benders.workers: "),
    (SOLVE, {"benders.tolerance": None}, "config key benders.tolerance: "),
    (SOLVE, {"risk.alpha": "x"}, "config key risk.alpha: "),
    (SOLVE, {"horizon.step_count": "x"}, "config key horizon.step_count: "),
    (SOLVE, {"extensive.max_variables": "big"},
     "config key extensive.max_variables: "),
    (SOLVE, {"tariff_sweep.levels": [0, "a"]},
     "config key tariff_sweep.levels: "),
    (SOLVE, {"flow_segments": "x"}, "config key flow_segments: "),
    (SOLVE, {"network.base_mva": "x"}, "config key network.base_mva: "),
    (SOLVE, {"market.prequalified_power_kw": "x"},
     "config key market.prequalified_power_kw: "),
    (SOLVE, {"risk": 5}, "config key risk.measure: 5 is not an object"),
    (SOLVE, {"horizon.step_hours": DROP},
     "config key horizon.step_hours: missing"),
    (SOLVE, {"horizon.rcm_window_hours": DROP},
     "config key horizon.rcm_window_hours: missing"),
    (SOLVE, {"horizon.step_hours": math.nan},
     "horizon needs step_count >= 1 and step_hours > 0"),
    (SOLVE, {"horizon.rcm_window_hours": math.nan},
     "window duration must be an integer multiple of the step"),
    (["generate-scenarios"], {"risk.measure": "bogus"},
     "unknown risk measure 'bogus'"),
    (SOLVE, {"risk.measure": "expectation", "risk.alpha": 1.5},
     "alpha must lie in (0, 1)"),
    (SOLVE, {"benders.max_iterations": 0},
     "max_iterations must be at least 1"),
    (SOLVE, {"benders.tolerance": 0}, "tolerance must be positive"),
    (SOLVE + ["--alpha", "1.5"], {}, "alpha must lie in (0, 1)"),
    (SOLVE + ["--workers", "0"], {}, "workers must be at least 1"),
    (["tariff-sweep", "--levels", "0:2:0.5"], {},
     "sweep level 1.5 outside [0, 1]"),
    # listing stops at the first level outside [0, 1], so a wide range
    # fails at once
    (["tariff-sweep", "--levels", "0:1e9:1"], {},
     "sweep level 2.0 outside [0, 1]"),
    (["tariff-sweep", "--levels", "0.5:1:0.5"], {},
     "sweep levels must start at 0"),
    # a non-finite start, stop or step would list levels without end
    *((["tariff-sweep", "--levels", spec], {},
       f"argument --levels: bad range {spec!r}")
      for spec in ("nan:1:0.1", "0:inf:0.1", "0:1:nan")),
    (["tariff-sweep"], {"extensive.max_variables": 10},
     "extensive form would need "),
    (SOLVE, {"tariff_sweep.low_window_hours": [10, 14, 18]},
     "config key tariff_sweep.low_window_hours: ")],
    ids=["count-ten", "workers-two", "tolerance-null", "alpha-x",
         "step-count-x", "max-variables-big", "levels-a", "flow-segments-x",
         "base-mva-x", "prequalified-x", "risk-5", "no-step-hours",
         "no-window-hours", "step-hours-nan", "window-hours-nan",
         "measure-bogus", "expectation-alpha-1.5", "max-iterations-0",
         "tolerance-0", "flag-alpha-1.5", "flag-workers-0", "flag-levels-to-2",
         "flag-levels-to-1e9", "flag-levels-from-0.5", "flag-levels-nan-start", "flag-levels-inf-stop",
         "flag-levels-nan-step", "sweep-size-guard", "window-three-hours"])
def test_bad_setting_is_usage_error(desk_dir, capsys, command, edits,
                                    message):
    # a setting from the config or from a flag is held to one check, which
    # names the key or the range
    root, cfg = desk_dir
    raw = read_json(cfg)
    for key, value in edits.items():
        *path, last = key.split(".")
        node = raw
        for part in path:
            node = node[part]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    edited = root / "edited.json"
    edited.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = cli.main(command + ["--config", str(edited)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_run_settings_fall_back_on_run_defaults(tmp_path):
    import copy
    from dataclasses import fields
    from vppsched.config import RUN_DEFAULTS, load_config
    written = copy.deepcopy(RUN_DEFAULTS)
    full = load_config(write_instance(desk_instance(), str(tmp_path)))
    raw = read_json(full.path)
    for key in RUN_DEFAULTS:
        del raw[key]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(raw))
    cfg = load_config(str(bare))
    settings = lambda c: {f.name: getattr(c, f.name) for f in fields(c)
                          if f.name not in ("path", "config_hash", "raw")}
    assert settings(cfg) == settings(full)
    assert RUN_DEFAULTS == written


def test_solver_failure_exits_4(desk_dir, capsys, monkeypatch):
    from vppsched import lp

    def rejected(program):
        raise lp.LpSolveError("HiGHS rejected the program")

    root, cfg = desk_dir
    monkeypatch.setattr(lp, "solve", rejected)
    capsys.readouterr()
    assert cli.main(SOLVE + ["--config", cfg,
                             "--out", str(root / "rejected")]) == 4
    assert "solver failure: HiGHS rejected the program" in \
        capsys.readouterr().err


def test_sweep_method_other_than_extensive_is_refused(desk_dir):
    root, cfg = desk_dir
    raw = read_json(cfg)
    raw["tariff_sweep"]["method"] = "benders"
    other = root / "benders_sweep.json"
    other.write_text(json.dumps(raw))
    assert cli.main(["tariff-sweep", "--config", str(other)]) == 2


def test_tariff_sweep_level_parsing_and_output(desk_dir, capsys):
    root, cfg = desk_dir
    rc = cli.main(["tariff-sweep", "--config", cfg, "--levels", "0:0.2:0.1",
                   "--out", str(root / "sweep")])
    assert rc == 0
    # the preset windows (10-14 h, 17-21 h) miss the two-hour desk horizon
    err = capsys.readouterr().err
    assert "low tariff window [10.0, 14.0] h selects no step" in err
    assert "high tariff window [17.0, 21.0] h selects no step" in err
    with open(root / "sweep" / "sweep.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 4      # header + 3 levels
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == 0.0   # baseline profit change is exactly zero
    assert (root / "sweep" / "withdrawal_profiles.csv").exists()


def test_bad_levels_spec(desk_dir):
    root, cfg = desk_dir
    assert cli.main(["tariff-sweep", "--config", cfg,
                     "--levels", "nope"]) == 2


def test_solve_twice_identical_artifacts(desk_dir):
    root, cfg = desk_dir
    for d in ("rep1", "rep2"):
        assert cli.main(["solve", "--config", cfg, "--method", "benders",
                         "--out", str(root / d)]) == 0
    a = (root / "rep1" / "first_stage.csv").read_bytes()
    b = (root / "rep2" / "first_stage.csv").read_bytes()
    assert a == b


def test_lp_dump_flag(desk_dir):
    root, cfg = desk_dir
    rc = cli.main(["solve", "--config", cfg, "--method", "extensive",
                   "--out", str(root / "dump"),
                   "--dump-lp", str(root / "model.lp")])
    assert rc == 0
    text = (root / "model.lp").read_text()
    assert text.startswith("Minimize") and text.rstrip().endswith("End")
    # decomposition never materializes one monolithic program
    assert cli.main(["solve", "--config", cfg, "--method", "benders",
                     "--dump-lp", str(root / "nope.lp")]) == 2


@pytest.mark.parametrize("risk", ["neutral", "cvar"])
def test_lp_dump_names_every_column_and_row(desk_dir, risk):
    from vppsched.config import load_config
    root, cfg = desk_dir
    path = root / f"model_{risk}.lp"
    assert cli.main(["solve", "--config", cfg, "--method", "extensive",
                     "--risk", risk, "--out", str(root / f"dump_{risk}"),
                     "--dump-lp", str(path)]) == 0
    lines = path.read_text().splitlines()
    rows = lines[lines.index("Subject To") + 1:lines.index("Bounds")]
    bounds = lines[lines.index("Bounds") + 1:lines.index("End")]
    tpl = load_config(cfg).build_model().template
    S = 6
    extra = 0 if risk == "neutral" else S
    assert len(bounds) == tpl.n_first + S * tpl.n_block + extra + bool(extra)
    assert len(rows) == S * tpl.program.num_constraints + extra
    row_names = [line.split(":")[0].strip() for line in rows]
    col_names = [line.split(" <= ")[1] for line in bounds]
    assert len(set(row_names)) == len(rows)
    assert len(set(col_names)) == len(bounds)


def test_shipped_instances_match_generator(tmp_path):
    """The checked-in instance directories must be exactly reproducible."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    for preset, count in (("desk", 10), ("day", 5)):
        shipped = repo / "instances" / preset
        if not shipped.exists():
            pytest.skip("instances not shipped in this checkout")
        regen = tmp_path / preset
        write_instance(getattr(inst_mod, f"{preset}_instance")(), str(regen),
                       scenario_count=count, scenario_seed=42)
        for path in sorted(shipped.iterdir()):
            if path.is_file():
                assert (regen / path.name).read_bytes() == path.read_bytes(), \
                    f"{preset}/{path.name} drifted from the generator"


def test_shipped_desk_runs_match_the_readme_commands(tmp_path):
    # the README's commands, run on a copy of instances/desk, give the
    # shipped runs' objective, expected cost and scenario totals: within
    # 1e-9 relative for the extensive run, within the Benders tolerance for
    # the Benders one
    shipped = pathlib.Path(__file__).resolve().parents[1] / "instances" / "desk"
    if not shipped.exists():
        pytest.skip("instances not shipped in this checkout")
    root = tmp_path / "desk"
    shutil.copytree(shipped, root,
                    ignore=shutil.ignore_patterns("runs", "scenarios"))
    cfg = str(root / "config.json")
    assert cli.main(["generate-scenarios", "--config", cfg]) == 0
    assert cli.main(["solve", "--config", cfg, "--method", "extensive"]) == 0
    assert cli.main(["solve", "--config", cfg, "--method", "benders",
                     "--workers", "4"]) == 0
    for method, rel in (("extensive", 1e-9),
                        ("benders", bd.BendersOptions().tolerance)):
        mine, theirs = (path / "runs" / f"solution_{method}_expectation"
                        for path in (root, shipped))
        summaries = [read_json(run / "summary.json") for run in (mine, theirs)]
        for key in ("objective", "expected_cost"):
            assert summaries[0][key] == pytest.approx(summaries[1][key],
                                                      rel=rel), (method, key)
        totals = []
        for run in (mine, theirs):
            with open(run / "breakdown.csv", newline="") as fh:
                totals.append([float(row["total_cost"])
                               for row in csv.DictReader(fh)])
        assert len(totals[0]) == 10
        assert totals[0] == pytest.approx(totals[1], rel=rel), method


def consumption_floor(model, scenario, series):
    """Per bus, the positive part of its active consumption at each step:
    its load plus its devices' consumption terms, read from the dispatch
    ``series`` of ``scenario``."""
    handles = model.template.handles
    T = model.horizon.step_count
    value = {}
    for h in handles.devices:
        start = h.window[0] if h.window else 0
        for key, idxs in (("p", h.p), ("charge", h.charge),
                          ("discharge", h.discharge)):
            for k, j in enumerate(idxs or []):
                value[j] = series[f"dev_{h.name}_{key}_kw"][start + k]
    floor = {bus: np.array(scenario.load_active.get(bus, np.zeros(T)),
                           dtype=float) for bus in handles.grid.wit}
    for h in handles.devices:
        for t, terms in enumerate(h.cons_p):
            floor[h.node][t] += sum(c * value[j] for j, c in terms)
    return {bus: np.maximum(v, 0.0) for bus, v in floor.items()}


@pytest.mark.parametrize("method", ["extensive", "benders"])
@pytest.mark.parametrize("preset", ["desk", "day"])
def test_withdrawal_is_the_positive_part_of_consumption(preset, method):
    # the tariff is positive at every step, so at an optimum every bus
    # withdraws the positive part of its consumption, whether a row states
    # it (controllable consumption at the step) or the withdrawal's lower
    # bound (the load alone): the dispatch series and the evaluator's
    # tariff stream, within 1e-9, on the shipped desk scenarios against the
    # shipped runs too
    inst = inst_mod.PRESETS[preset]()
    model = inst.model
    assert np.all(model.market.tariff_per_mwh > 0.0)
    sset = sg.build_scenarios(inst.forecast, sg.DEFAULT_ERROR_SPECS, 5, seed=42)
    shipped = pathlib.Path(__file__).resolve().parents[1] / "instances" / "desk"
    runs = [(model, sset, None)]
    if preset == "desk" and shipped.exists():
        cfg = cf.load_config(str(shipped / "config.json"))
        runs.append((cfg.build_model(), sg.load_scenario_set(cfg.scenario_dir)[0],
                     shipped / "runs" / f"solution_{method}_expectation"))
    dt = model.horizon.step_hours
    for model, sset, reference in runs:
        out = rp.solve_with_method(model, sset, st.RiskMeasure(st.EXPECTATION),
                                   method)
        for s, (scen, series) in enumerate(zip(sset.scenarios, out.series)):
            floor = consumption_floor(model, scen, series)
            wit = {bus: series[f"wit_{bus}_kw"] for bus in floor}
            if reference is not None:
                col = tables.read_columns(str(reference / f"dispatch_{s:04d}.csv"))
                for bus in floor:
                    assert wit[bus] == pytest.approx(col[f"wit_{bus}_kw"],
                                                     rel=1e-9, abs=1e-9)
            for bus in floor:
                assert wit[bus] == pytest.approx(floor[bus], rel=1e-9, abs=1e-9)
            tariff = model.market.tariff_per_mwh
            assert mk.tariff_cost_value(tariff, wit, dt) == pytest.approx(
                mk.tariff_cost_value(tariff, floor, dt), rel=1e-9, abs=1e-9)
