import json

import numpy as np
import pytest

from vppsched import cli
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


def test_infeasible_model_exit_code(tmp_path):
    bad = desk_instance()
    bad.model.park.hps[0] = type(bad.model.park.hps[0])(
        "hp1", 3, 0.01, 3.0, 8.0, 6.0, 19.0, 23.0, 21.0)
    bad.forecast.ambient_temp = np.full(8, -40.0)
    cfg_path = write_instance(bad, str(tmp_path), scenario_count=2)
    assert cli.main(["generate-scenarios", "--config", cfg_path]) == 0
    assert cli.main(["solve", "--config", cfg_path, "--method",
                     "extensive"]) == 3
    assert cli.main(["solve", "--config", cfg_path, "--method",
                     "benders"]) == 3


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


def test_tariff_sweep_level_parsing_and_output(desk_dir):
    root, cfg = desk_dir
    rc = cli.main(["tariff-sweep", "--config", cfg, "--levels", "0:0.2:0.1",
                   "--out", str(root / "sweep")])
    assert rc == 0
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
    import pathlib
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
