"""Tests of the benchmark's own code: failure accounting, metric names, tracing.

Run from the checkout root: python3 -m pytest bench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import run
import tracing
import workloads
from convexiwave import fixtures, solver
from convexiwave.grid import Signal
from convexiwave.transform import BoundaryData

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def field_data():
    return workloads.FieldData(seed=3)


def bound_names():
    names = {}
    for module in tracing.package_modules():
        for _, name in tracing.LAYERS:
            if name in vars(module):
                names[(module.__name__, name)] = vars(module)[name]
    return names


def test_bad_input_is_one_failed_op_and_the_run_goes_on():
    wl = workloads.SimInvert(seed=0)
    good = wl.cases[0]
    short = BoundaryData(
        Signal(0.0, good.data.g0.dt, good.data.g0.samples[:100]),
        Signal(0.0, good.data.g1.dt, good.data.g1.samples[:100]),
    )
    wl.cases = [workloads.Case(good.label, short, good.ref), good]
    before = bound_names()
    ledger = run.Ledger()
    run.run_plain(wl, 0.0, ledger)
    assert [r["ok"] for r in ledger.records] == [False, True]
    assert ledger.failed == 1
    assert ledger.records[0]["problems"][0].startswith("raised HorizonTooShort")
    assert len(ledger.records[1]["fingerprint"]["legs"]) == 2  # descent, then re-descent
    assert bound_names() == before


@pytest.mark.parametrize("label", list(fixtures.SIMULATED_TESTS))
def test_band_check_fails_a_flat_profile_and_passes_the_true_one(label):
    x = workloads.INV_GRID.x_nodes()
    c_true = fixtures.fixture_medium(label).sample(x)
    assert workloads.band_errors(label, x, c_true)[1:] == ([], [])
    _, misses, _ = workloads.band_errors(label, x, np.ones_like(x))
    assert misses


def test_qr_residual_is_recomputed_from_the_solve_inputs():
    rng = np.random.default_rng(0)
    n = 30
    terms = [(sparse.random(40, n, density=0.3, random_state=1, format="csr"),
              rng.uniform(0.5, 2.0, 40), rng.normal(size=40)),
             (sparse.identity(n, format="csr"), np.ones(n), None)]
    reg_ops = (sparse.identity(n, format="csr"),)
    args = (terms, reg_ops, np.ones(n), 1e-3, n)
    sol, reported = solver.solve_quadratic(*args)
    assert workloads.qr_residual((args, sol)) < 1e-10
    assert reported < 1e-10
    assert workloads.qr_residual((args, sol + 1e-3)) > workloads.QR_RESIDUAL_TOL


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == tracing.per_layer_units()
    for name, unit in {**e2e, **layers}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_traced_run_restores_every_name_and_matches_untraced(field_data):
    before = bound_names()
    ledger = run.Ledger()
    metrics = run.run_traced(field_data, 0.0, ledger)
    assert bound_names() == before
    assert not any(hasattr(fn, "__wrapped__") for fn in before.values())
    assert [r["mode"] for r in ledger.records] == ["plain", "traced"]
    plain, traced = ledger.records
    assert plain["ok"] and plain["fingerprint"] == traced["fingerprint"]
    assert set(metrics) == set(tracing.per_layer_units())
    assert metrics["forward.simulate.calls"] == 1
    assert metrics["forward.tikhonov_differentiate.calls"] == 1
    # the transform's self time excludes the differentiation it calls
    assert 0 < metrics["transform.boundary_traces_from_data.self_s"] < (
        metrics["transform.boundary_traces_from_data.s"])


def test_fingerprints_repeat_for_a_seed_and_follow_it(field_data):
    def fingerprints(wl):
        ledger = run.Ledger()
        run.run_plain(wl, 0.0, ledger)
        assert ledger.failed == 0
        return [r["fingerprint"] for r in ledger.records]

    first = fingerprints(field_data)
    assert fingerprints(workloads.FieldData(seed=3)) == first
    other = fingerprints(workloads.FieldData(seed=4))
    simulated = len(fixtures.SIMULATED_TESTS)
    assert all(a != b for a, b in zip(first[:simulated], other[:simulated]))
    assert first[simulated:] == other[simulated:]  # experimental traces carry no noise


def test_result_line_has_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "field-data", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(fixtures.FIXTURE_NAMES)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "field-data", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
