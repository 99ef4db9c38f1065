import math

import numpy as np
import pytest

from vppsched import scenarios as sg

from oracles import normal_quantile_by_bisection


def make_base(steps=8, windows=2, buses=(1, 2), dgs=("pv1",)):
    t = np.arange(steps)
    return sg.BaseForecast(
        day_ahead_price=60.0 + 10.0 * np.sin(t),
        rcm_up_price=np.full(windows, 5.0),
        rcm_dn_price=np.full(windows, 4.0),
        ram_up_price=np.full(steps, 80.0),
        ram_dn_price=np.full(steps, 30.0),
        mfrr_up_price=np.full(steps, 95.0),
        mfrr_dn_price=np.full(steps, 20.0),
        ambient_temp=np.full(steps, 8.0),
        ev_availability=np.full(steps, 0.8),
        capacity_factor={name: np.clip(0.5 + 0.1 * np.sin(t), 0, 1) for name in dgs},
        load_active={b: np.full(steps, 3.0 + b) for b in buses},
        load_reactive={b: np.full(steps, 1.0) for b in buses},
    )


# ---------------------------------------------------------------- sampling

def test_lhs_stratification_small():
    u = sg.lhs_sample(4, 1, seed=3)
    strata = np.floor(u[:, 0] * 4).astype(int)
    assert sorted(strata) == [0, 1, 2, 3]


@pytest.mark.parametrize("n,dims", [(4, 10), (100, 10), (1000, 10)])
def test_lhs_stratum_occupancy_exactly_one(n, dims):
    u = sg.lhs_sample(n, dims, seed=42)
    assert u.shape == (n, dims)
    for d in range(dims):
        counts = np.bincount(np.floor(u[:, d] * n).astype(int), minlength=n)
        assert counts.max() == 1 and counts.min() == 1


def test_lhs_deterministic_per_seed():
    a = sg.lhs_sample(50, 10, seed=11)
    b = sg.lhs_sample(50, 10, seed=11)
    c = sg.lhs_sample(50, 10, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_lhs_rejects_degenerate_sizes():
    with pytest.raises(sg.ScenarioError):
        sg.lhs_sample(0, 3, seed=1)
    with pytest.raises(sg.ScenarioError):
        sg.lhs_sample(3, 0, seed=1)


# ------------------------------------------------------- inverse transforms

def test_normal_median_is_mean():
    spec = sg.ErrorSpec(sg.NORMAL, 0.0, 4.28, relative=False)
    assert sg.inverse_transform(0.5, spec) == pytest.approx(0.0, abs=1e-12)


def test_uniform_midpoint_is_mean():
    spec = sg.ErrorSpec(sg.UNIFORM, 0.10, 0.0577, relative=True)
    assert sg.inverse_transform(0.5, spec) == pytest.approx(0.10, abs=1e-12)


def test_normal_one_sigma_quantile():
    spec = sg.ErrorSpec(sg.NORMAL, 0.0, 1.0, relative=False)
    assert sg.inverse_transform(0.8413, spec) == pytest.approx(1.0, abs=1e-3)


def test_normal_quantile_matches_bisection_oracle():
    for p in (1e-9, 1e-4, 0.023, 0.31, 0.5, 0.77, 0.975, 1 - 1e-6):
        assert sg.inverse_normal_cdf(p) == pytest.approx(
            normal_quantile_by_bisection(p), abs=1e-9)


def test_u_zero_clips_rather_than_diverges():
    val = sg.inverse_normal_cdf(0.0)
    assert math.isfinite(val)
    assert val == pytest.approx(normal_quantile_by_bisection(1e-15), abs=1e-7)


def test_uniform_support_reconstruction():
    spec = sg.ErrorSpec(sg.UNIFORM, 0.10, 0.0577, relative=True)
    lo = sg.inverse_transform(0.0, spec)
    hi = sg.inverse_transform(1.0 - 1e-16, spec)
    assert lo == pytest.approx(0.10 - 0.0577 * math.sqrt(3), abs=1e-12)
    assert hi == pytest.approx(0.10 + 0.0577 * math.sqrt(3), abs=1e-9)


# -------------------------------------------------------- imbalance pricing

def test_imbalance_dual_pricing_spread():
    short, long = sg.imbalance_prices(np.array([100.0]), np.array([150.0]),
                                      np.array([60.0]))
    assert short[0] == 150.0 and long[0] == 60.0


def test_imbalance_degenerate_equality():
    short, long = sg.imbalance_prices(np.array([100.0]), np.array([100.0]),
                                      np.array([100.0]))
    assert short[0] == long[0] == 100.0


def test_imbalance_guard_keeps_short_above_long():
    short, long = sg.imbalance_prices(np.array([100.0]), np.array([80.0]),
                                      np.array([120.0]))
    assert short[0] == 100.0 and long[0] == 100.0


# ----------------------------------------------------------- scenario build

def test_build_requires_all_specs():
    base = make_base()
    specs = dict(sg.DEFAULT_ERROR_SPECS)
    del specs["ev"]
    with pytest.raises(sg.ScenarioError):
        sg.build_scenarios(base, specs, 4, seed=1)


def test_zero_error_passthrough_bit_exact():
    base = make_base()
    sset = sg.build_scenarios(base, sg.zero_error_specs(), 3, seed=5)
    for scen in sset.scenarios:
        assert np.array_equal(scen.day_ahead_price, base.day_ahead_price)
        assert np.array_equal(scen.rcm_up_price, base.rcm_up_price)
        assert np.array_equal(scen.ambient_temp, base.ambient_temp)
        assert np.array_equal(scen.ev_availability, base.ev_availability)
        for k in base.capacity_factor:
            assert np.array_equal(scen.capacity_factor[k], base.capacity_factor[k])
        for b in base.load_active:
            assert np.array_equal(scen.load_active[b], base.load_active[b])
        assert scen.probability == pytest.approx(1.0 / 3.0)


def test_generation_error_scales_and_clamps():
    base = make_base()
    base.capacity_factor["pv1"] = np.full(8, 0.97)
    specs = sg.zero_error_specs()
    # uniform with zero std pins the draw at its mean
    specs["generation"] = sg.ErrorSpec(sg.UNIFORM, 0.0815, 0.0, relative=True)
    sset = sg.build_scenarios(base, specs, 2, seed=9)
    expected = np.minimum(0.97 * 1.0815, 1.0)
    for scen in sset.scenarios:
        assert scen.capacity_factor["pv1"] == pytest.approx(np.full(8, expected))


def test_temperature_error_is_additive():
    base = make_base()
    specs = sg.zero_error_specs()
    specs["temperature"] = sg.ErrorSpec(sg.UNIFORM, 1.5, 0.0, relative=False)
    sset = sg.build_scenarios(base, specs, 1, seed=9)
    assert sset.scenarios[0].ambient_temp == pytest.approx(base.ambient_temp + 1.5)


def test_equal_probabilities():
    base = make_base()
    sset = sg.build_scenarios(base, sg.DEFAULT_ERROR_SPECS, 2, seed=1)
    assert [s.probability for s in sset.scenarios] == [0.5, 0.5]


def test_short_always_at_least_long():
    base = make_base()
    sset = sg.build_scenarios(base, sg.DEFAULT_ERROR_SPECS, 200, seed=77)
    for scen in sset.scenarios:
        assert np.all(scen.imbalance_short_price >= scen.imbalance_long_price)


def test_rcm_prices_floored_at_zero():
    base = make_base()
    specs = dict(sg.DEFAULT_ERROR_SPECS)
    specs["rcm_price"] = sg.ErrorSpec(sg.NORMAL, 0.0, 50.0, relative=False)
    sset = sg.build_scenarios(base, specs, 100, seed=3)
    for scen in sset.scenarios:
        assert np.all(scen.rcm_up_price >= 0.0)
        assert np.all(scen.rcm_dn_price >= 0.0)


def test_sample_moments_track_specs():
    base = make_base()
    n = 1000
    u = sg.lhs_sample(n, len(sg.ERROR_NAMES), seed=42)
    for d, name in enumerate(sg.ERROR_NAMES):
        spec = sg.DEFAULT_ERROR_SPECS[name]
        draws = np.array([sg.inverse_transform(u[s, d], spec) for s in range(n)])
        assert abs(draws.mean() - spec.mean) <= 0.05 * spec.std_dev
        assert abs(draws.std(ddof=1) - spec.std_dev) <= 0.05 * spec.std_dev


# ------------------------------------------------------------- persistence

def test_roundtrip_is_lossless(tmp_path):
    base = make_base()
    sset = sg.build_scenarios(base, sg.DEFAULT_ERROR_SPECS, 5, seed=123)
    sg.save_scenario_set(sset, str(tmp_path / "scen"), step_hours=0.25,
                         rcm_window_hours=1.0,
                         error_specs=sg.DEFAULT_ERROR_SPECS, config_hash="abc")
    loaded, manifest = sg.load_scenario_set(str(tmp_path / "scen"))
    assert manifest["seed"] == 123 and manifest["config_hash"] == "abc"
    assert len(loaded) == 5
    for a, b in zip(sset.scenarios, loaded.scenarios):
        assert np.array_equal(a.day_ahead_price, b.day_ahead_price)
        assert np.array_equal(a.rcm_up_price, b.rcm_up_price)
        assert np.array_equal(a.rcm_dn_price, b.rcm_dn_price)
        assert np.array_equal(a.imbalance_short_price, b.imbalance_short_price)
        assert np.array_equal(a.imbalance_long_price, b.imbalance_long_price)
        for k in a.capacity_factor:
            assert np.array_equal(a.capacity_factor[k], b.capacity_factor[k])
        for bus in a.load_active:
            assert np.array_equal(a.load_active[bus], b.load_active[bus])
            assert np.array_equal(a.load_reactive[bus], b.load_reactive[bus])
        assert a.probability == b.probability


def test_save_twice_byte_identical(tmp_path):
    base = make_base()
    sset = sg.build_scenarios(base, sg.DEFAULT_ERROR_SPECS, 3, seed=7)
    for d in ("one", "two"):
        sg.save_scenario_set(sset, str(tmp_path / d), 0.25, 1.0,
                             sg.DEFAULT_ERROR_SPECS)
    for fname in ("manifest.json", "scenario_0000.csv", "scenario_0002.csv"):
        a = (tmp_path / "one" / fname).read_bytes()
        b = (tmp_path / "two" / fname).read_bytes()
        assert a == b


def _rename_column(path, old, new):
    header, rest = path.read_text().split("\n", 1)
    assert old in header.split(",")
    path.write_text(header.replace(old, new) + "\n" + rest)


def _drop_last_row(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


@pytest.mark.parametrize("table,edit,field", [
    ("scenario_0001.csv", lambda p: _rename_column(p, "cf_pv1", "cf_pv9"),
     "dg_names"),
    ("scenario_0001.csv", lambda p: _rename_column(p, "load_q_2", "load_q_7"),
     "load_buses"),
    ("scenario_0002.csv", _drop_last_row, "step_count"),
])
def test_tables_must_match_the_manifest(tmp_path, table, edit, field):
    # the manifest records the generators, load buses and step count; a
    # table that disagrees is refused by name
    sset = sg.build_scenarios(make_base(), sg.DEFAULT_ERROR_SPECS, 3, seed=7)
    sg.save_scenario_set(sset, str(tmp_path), 0.25, 1.0)
    sg.load_scenario_set(str(tmp_path))
    edit(tmp_path / table)
    with pytest.raises(sg.ScenarioError, match=f"{table}: {field}"):
        sg.load_scenario_set(str(tmp_path))


def test_missing_manifest_is_explicit(tmp_path):
    with pytest.raises(sg.ScenarioError):
        sg.load_scenario_set(str(tmp_path / "nope"))
