"""Tests of the benchmark itself on desk-sized inputs. Timing is never
asserted: only that every metric is reported, that a wrong result becomes
a counted failure, that the spans account for the run, and that counts
repeat exactly."""

import filecmp
import json
import os
import sys
from dataclasses import replace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads as wk  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

COUNTS = ("benders.iterations", "benders.cuts_added", "benders.master_calls",
          "benders.subproblem_calls", "lp.solve_calls", "lp.simplex_iters",
          "lp.rows_solved", "model.build_block_calls")


def desk(name: str) -> wk.Workload:
    """The named workload moved onto the desk preset with 3 scenarios."""
    wl = replace(wk.WORKLOADS[name], preset="desk", scenarios=3)
    return replace(wl, levels=wk.level_grid(3)) if wl.levels else wl


def execute(name, tmp_path, trace, seed=42):
    return wk.execute(desk(name), seed, 0.0, trace,
                      str(tmp_path / f"{name}-{int(trace)}"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    base = tmp_path_factory.mktemp("traced")
    return {name: execute(name, base, True) for name in wk.WORKLOADS}


def _printed(result, capsys):
    run.report(result)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("name", list(wk.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(name, tmp_path, capsys):
    text, last = _printed(execute(name, tmp_path, False), capsys)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[2] == m["unit"] for line in text)
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", list(wk.WORKLOADS))
def test_traced_run_prints_every_layer_metric(name, traced, capsys):
    text, last = _printed(traced[name], capsys)
    assert last["correct"]
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] for line in text)


@pytest.mark.parametrize("name", list(wk.WORKLOADS))
def test_spans_cover_the_traced_run(name, traced):
    assert traced[name].metrics["trace.span_coverage"] >= 0.95


def test_corrupted_reference_is_a_counted_failure(tmp_path, monkeypatch,
                                                  capsys):
    original = wk.references

    def corrupted(wl, inp):
        refs = original(wl, inp)
        refs[wk.st.EXPECTATION] *= 1.01
        return refs

    monkeypatch.setattr(wk, "references", corrupted)
    result = execute("day-benders", tmp_path, False)
    draws = wk.WORKLOADS["day-benders"].draws
    # each draw's risk-neutral solve fails; its CVaR solve still passes
    assert (result.attempted, result.failed) == (2 * draws, draws)
    assert result.reasons and "benders-expectation" in result.reasons[0]
    _, last = _printed(result, capsys)
    assert last["correct"] is False and last["failed"] == draws


@pytest.mark.parametrize("name", ["day-benders", "full-benders"])
def test_counts_repeat_exactly(name, traced, tmp_path):
    again = execute(name, tmp_path, True)
    for key in COUNTS:
        assert again.metrics[key] == traced[name].metrics[key], key
    assert traced[name].metrics["benders.iterations"] > 0
    assert traced[name].metrics["lp.simplex_iters"] > 0


def test_day_inputs_match_the_shipped_instance(tmp_path):
    wl = wk.WORKLOADS["day-benders"]
    wk.prepare(wl, 42, str(tmp_path))
    shipped = os.path.join(ROOT, "instances", "day")
    names = sorted(os.listdir(shipped))
    match, _, _ = filecmp.cmpfiles(shipped, str(tmp_path), names,
                                   shallow=False)
    assert sorted(match) == names


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "day-benders"]) != 0
    assert capsys.readouterr().out == ""
