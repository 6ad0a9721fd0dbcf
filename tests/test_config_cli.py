"""Run-configuration serialization and CLI smoke tests."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import convexiwave
from convexiwave.cli import main
from convexiwave.config import (
    GridConfig,
    InversionConfig,
    NoiseConfig,
    PreprocessConfig,
    RunConfig,
    load_config,
)
from convexiwave.fixtures import FIXTURE_NAMES, synthesize_raw_trace
from convexiwave.forward import CorrectionBox, SourceModel
from convexiwave.grid import Signal, signal_from_csv, signal_to_csv
from convexiwave.solver import DescentConfig, QRConfig


def _write_config(cfg, path):
    path.write_text(json.dumps(dataclasses.asdict(cfg)))


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_runconfig_json_roundtrip():
    cfg = RunConfig()
    cfg.forward.medium = [{"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": 10.0}]
    cfg.inversion.nx = 40
    cfg.descent = dataclasses.replace(cfg.descent, max_iters=7)
    back = RunConfig.from_json(json.dumps(dataclasses.asdict(cfg)))
    assert dataclasses.asdict(back) == dataclasses.asdict(cfg)


def test_runconfig_defaults_match_production_values():
    cfg = RunConfig()
    assert cfg.inversion.M == 3.0 and cfg.inversion.T == 6.0
    assert cfg.inversion.nx == 60 and cfg.inversion.nt == 60
    assert cfg.inversion.c_upper == 15.0
    assert cfg.convex.lam == 2.0
    assert cfg.convex.alpha == 0.3
    assert cfg.convex.beta == 1e-9
    assert cfg.forward.grid.nx == 3000 and cfg.forward.grid.nt == 300
    assert cfg.forward.source.k == 30.0


def test_runconfig_partial_dict_fills_defaults():
    cfg = RunConfig.from_dict({"inversion": {"nx": 20, "nt": 20}})
    assert cfg.inversion.nx == 20
    assert cfg.inversion.M == 3.0
    assert cfg.descent.max_iters == RunConfig().descent.max_iters


def test_load_save_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = RunConfig()
    cfg.inversion.nt = 30
    _write_config(cfg, path)
    assert dataclasses.asdict(load_config(str(path))) == dataclasses.asdict(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        GridConfig(a=-1.0)
    with pytest.raises(ValueError):
        InversionConfig(eps=4.0, M=3.0)
    with pytest.raises(ValueError):
        InversionConfig(c_upper=0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "section, key",
    [
        (DescentConfig, "grad_tol"),
        (QRConfig, "reg_eta"),
        (InversionConfig, "M"),
        (InversionConfig, "T"),
        (InversionConfig, "c_upper"),
        (InversionConfig, "diff_reg"),
        (GridConfig, "a"),
        (GridConfig, "T"),
        (NoiseConfig, "delta"),
        (PreprocessConfig, "diff_reg"),
        (SourceModel, "k"),
        (CorrectionBox, "x_hi"),
        (CorrectionBox, "t_hi"),
    ],
)
def test_config_sections_reject_non_finite_values(section, key, value):
    with pytest.raises(ValueError):
        section(**{key: value})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _small_cfg(tmp_path):
    cfg = RunConfig()
    cfg.forward.grid = GridConfig(a=5.0, T=6.0, nx=600, nt=150)
    cfg.forward.medium = [{"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": 10.0}]
    cfg.inversion.nx = 20
    cfg.inversion.nt = 20
    cfg.descent = dataclasses.replace(cfg.descent, max_iters=5, redescent_iters=5)
    path = tmp_path / "cfg.json"
    _write_config(cfg, path)
    return path


def test_cli_forward_then_invert(tmp_path):
    cfg_path = _small_cfg(tmp_path)
    g0 = tmp_path / "g0.csv"
    g1 = tmp_path / "g1.csv"
    rc = main(["forward", "--config", str(cfg_path), "--g0", str(g0), "--g1", str(g1)])
    assert rc == 0
    s = signal_from_csv(g0.read_text())
    assert s.samples.size == 151
    assert s.samples[-1] != 0.0  # total wave, background 1/2 baked in

    out = tmp_path / "c.csv"
    diag = tmp_path / "diag.csv"
    rc = main([
        "invert", "--g0", str(g0), "--g1", str(g1),
        "--config", str(cfg_path), "--out", str(out), "--diag", str(diag),
    ])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,c"
    c = np.array([float(r.split(",")[1]) for r in rows[1:]])
    # a 5-iteration smoke inversion is rough, but stays physical
    assert np.all(np.isfinite(c))
    assert np.all(c > 0.0) and np.all(c <= 15.0 + 1e-9)
    diag_rows = diag.read_text().strip().splitlines()
    assert diag_rows[0] == "iteration,J,grad_norm,correction_count"
    assert len(diag_rows) > 1


def test_cli_preprocess(tmp_path):
    raw, cal, _ = synthesize_raw_trace("bush")
    raw_path = tmp_path / "raw.csv"
    raw_path.write_text(signal_to_csv(raw.signal))
    cal_path = tmp_path / "cal.json"
    cal_path.write_text(json.dumps({"mu": cal.mu}))
    out = tmp_path / "g0.csv"
    g1 = tmp_path / "g1.csv"
    rc = main([
        "preprocess", "--raw", str(raw_path), "--mode", "air",
        "--cal", str(cal_path), "--out", str(out), "--g1", str(g1),
    ])
    assert rc == 0
    g0 = signal_from_csv(out.read_text())
    assert g0.samples[0] == pytest.approx(0.5)
    assert np.min(g0.samples) < 0.5


def test_cli_gradient_check_passes(tmp_path):
    report = tmp_path / "grad.csv"
    rc = main(["gradient-check", "--nx", "10", "--nt", "10", "--trials", "3",
               "--out", str(report)])
    assert rc == 0
    assert report.read_text().splitlines()[0] == "trial,max_rel_error"


def test_cli_convexity_check_small(tmp_path):
    report = tmp_path / "conv.csv"
    rc = main(["convexity-check", "--lambdas", "0,2", "--pairs", "3",
               "--nx", "10", "--nt", "10", "--out", str(report)])
    assert rc == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "lambda,min_bregman"
    assert len(lines) == 4
    assert lines[-1].startswith("# lambda_emp = ")


def test_cli_missing_file_exit_code(tmp_path):
    rc = main(["invert", "--g0", str(tmp_path / "nope.csv"),
               "--g1", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "c.csv")])
    assert rc == 3


def test_cli_import_leaves_unused_scipy_subpackages_unloaded():
    """Every command starts a fresh process; none of them needs these."""
    code = "import sys, convexiwave.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(convexiwave.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    unused = {"scipy.integrate", "scipy.optimize", "scipy.sparse.linalg", "scipy.special"}
    assert not unused & set(proc.stdout.split())


NAN, INF = float("nan"), float("inf")

# Each bad config, with the subcommand that reads it.
BAD_CONFIGS = {
    "inversion_nx_1": ("invert", {"inversion": {"nx": 1}}),
    "convex_eta_step": ("invert", {"convex": {"eta_step": 0.5}}),
    "redescent_iters_null": ("invert", {"descent": {"redescent_iters": None}}),
    "medium_unknown_kind": ("forward", {"forward": {"medium": [{"kind": "blob"}]}}),
    "medium_piece_lacks_key": (
        "forward", {"forward": {"medium": [{"kind": "bump", "center": 0.5, "halfwidth": 0.2}]}}
    ),
    "inversion_c_upper_at_most_1": ("invert", {"inversion": {"c_upper": 1.0}}),
    "medium_piece_nan": (
        "forward", {"forward": {"medium": [{"kind": "bump", "center": NAN, "halfwidth": 0.2,
                                           "amplitude": 10.0}]}}
    ),
    "medium_table_inf": (
        "forward", {"forward": {"medium": [{"kind": "table", "x": [0.0, 1.0], "c": [1.0, INF]}]}}
    ),
    "grad_tol_nan": ("invert", {"descent": {"grad_tol": NAN}}),
    "inversion_diff_reg_nan": ("invert", {"inversion": {"diff_reg": NAN}}),
    "inversion_c_upper_nan": ("invert", {"inversion": {"c_upper": NAN}}),
    "noise_delta_nan": ("forward", {"forward": {"noise": {"delta": NAN}}}),
    "source_k_nan": ("forward", {"forward": {"source": {"k": NAN}}}),
    "correction_x_hi_inf": ("forward", {"forward": {"correction": {"x_hi": INF}}}),
    "correction_t_hi_nan": ("forward", {"forward": {"correction": {"t_hi": NAN}}}),
    "noise_seed_negative": ("forward", {"forward": {"noise": {"delta": 0.05, "seed": -1}}}),
    "max_iters_fractional": ("invert", {"descent": {"max_iters": 2.5}}),
    "forward_grid_nx_fractional": ("forward", {"forward": {"grid": {"nx": 300.5}}}),
    "inversion_nx_fractional": ("invert", {"inversion": {"nx": 20.5}}),
    "max_iters_bool": ("invert", {"descent": {"max_iters": True}}),
    "freeze_time_derivative_text": ("invert", {"inversion": {"freeze_time_derivative": "no"}}),
    # descent settings that became solver constants, each at its old default
    "eta_step_removed": ("invert", {"descent": {"eta_step": 0.1}}),
    "armijo_c1_removed": ("invert", {"descent": {"armijo_c1": 1e-4}}),
    "backtrack_removed": ("invert", {"descent": {"backtrack": 0.5}}),
    "stop_linf_removed": ("invert", {"descent": {"stop_linf": 1e-3}}),
    "max_corrections_removed": ("invert", {"descent": {"max_corrections": 1}}),
}

# Finite medium pieces outside the ranges that keep c > 0 (or, for a table,
# with x not strictly increasing), and the piece key the error must name.
OUT_OF_RANGE_PIECES = {
    "medium_bump_halfwidth_negative": (
        "halfwidth", {"kind": "bump", "center": 0.5, "halfwidth": -0.2, "amplitude": 10.0}
    ),
    "medium_step_halfwidth_zero": (
        "halfwidth", {"kind": "step", "center": 0.5, "halfwidth": 0.0, "value": 2.0}
    ),
    "medium_step_value_negative": (
        "value", {"kind": "step", "center": 0.5, "halfwidth": 0.2, "value": -1.0}
    ),
    "medium_bump_amplitude_minus_5": (
        "amplitude", {"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": -5.0}
    ),
    "medium_bump_amplitude_minus_1": (
        "amplitude", {"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": -1.0}
    ),
    "medium_sine_base_below_amplitude": (
        "base", {"kind": "sine", "center": 0.8, "halfwidth": 0.6, "base": 0.2, "amplitude": -0.3}
    ),
    "medium_table_c_zero": ("c", {"kind": "table", "x": [0.0, 1.0], "c": [1.0, 0.0]}),
    "medium_table_x_decreasing": (
        "x", {"kind": "table", "x": [1.0, 0.5, 0.2], "c": [2.0, 2.0, 2.0]}
    ),
    "medium_table_x_repeated": ("x", {"kind": "table", "x": [0.0, 0.5, 0.5], "c": [2.0, 2.0, 2.0]}),
}
BAD_CONFIGS.update(
    (case, ("forward", {"forward": {"medium": [piece]}}))
    for case, (_, piece) in OUT_OF_RANGE_PIECES.items()
)


# Signal CSVs that np.loadtxt cannot read as a two-column table of floats.
MALFORMED_G0_CSV = {
    "non_numeric_sample": "t,value\n0.0,0.5\n0.5,abc\n1.0,0.5\n1.5,0.5\n",
    "header_only": "t,value\n",
    "ragged_row": "t,value\n0.0,0.5\n0.5,0.5,0.1\n1.0,0.5\n1.5,0.5\n",
    "one_column": "t,value\n0.0\n0.5\n1.0\n1.5\n",
}


@pytest.mark.parametrize(
    "case",
    [
        "nan_sample",
        "non_uniform_times",
        "g1_shorter",
        "g1_other_dt",
        "config_not_json",
        *MALFORMED_G0_CSV,
        *BAD_CONFIGS,
    ],
)
def test_cli_rejects_bad_input_with_exit_2(tmp_path, capsys, case):
    times = [0.0, 0.5, 1.0, 1.5]
    g0_vals = [0.5, 0.5, 0.5, 0.5]
    if case == "nan_sample":
        g0_vals[2] = float("nan")
    elif case == "non_uniform_times":
        times = [0.0, 0.1, 0.5, 0.55]
    command, cfg = BAD_CONFIGS.get(case, ("invert", {}))
    g1_times = {"g1_shorter": times[:-1], "g1_other_dt": [0.0, 0.6, 1.2, 1.8]}.get(case, times)
    g0 = tmp_path / "g0.csv"
    g1 = tmp_path / "g1.csv"
    cfg_path = tmp_path / "cfg.json"
    g0.write_text(MALFORMED_G0_CSV.get(
        case, "t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(times, g0_vals))
    ))
    g1.write_text("t,value\n" + "".join(f"{t!r},0.0\n" for t in g1_times))
    cfg_path.write_text('{"inversion": ' if case == "config_not_json" else json.dumps(cfg))
    if command == "forward":
        argv = ["forward", "--config", str(cfg_path), "--g0", str(g0), "--g1", str(g1)]
    else:
        argv = ["invert", "--g0", str(g0), "--g1", str(g1), "--config", str(cfg_path),
                "--out", str(tmp_path / "c.csv")]
    rc = main(argv)
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidInput" and err["message"]
    if case == "one_column":
        assert "needs two columns (t, value), found 1" in err["message"]
    if case in BAD_CONFIGS:
        section, fields = next(iter(cfg.items()))
        key = next(iter(fields))
        assert section in err["message"] and key in err["message"]
    if case.endswith("_removed"):
        assert f"unknown config key descent.{key}" in err["message"]
    if case in OUT_OF_RANGE_PIECES:
        assert f"piece {OUT_OF_RANGE_PIECES[case][0]} must" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["convexity-check", "--lambdas=-1"],
        ["convexity-check", "--lambdas=1,x"],
        ["convexity-check", "--pairs", "0"],
        ["convexity-check", "--radius", "0"],
        ["convexity-check", "--radius", "inf"],
        ["convexity-check", "--seed", "-1"],
        ["gradient-check", "--nx", "1"],
        ["gradient-check", "--trials", "0"],
        ["gradient-check", "--seed", "-1"],
    ],
    ids=["negative_lambda", "text_lambda", "no_pairs", "zero_radius", "infinite_radius",
         "convexity_negative_seed", "nx_1", "no_trials", "gradient_negative_seed"],
)
def test_cli_audit_rejects_bad_arguments_with_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "report.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidInput" and err["message"]


@pytest.mark.parametrize(
    "cal",
    ["{}", '{"mu": -1}', '{"mu": "abc"}', '{"mu": ', '{"mu": true}', '{"mu": 1e400}'],
    ids=["no_mu", "negative_mu", "text_mu", "not_json", "boolean_mu", "infinite_mu"],
)
def test_cli_preprocess_rejects_bad_calibration_with_exit_2(tmp_path, capsys, cal):
    raw = tmp_path / "raw.csv"
    cal_path = tmp_path / "cal.json"
    raw.write_text("t,value\n0.0,0.0\n0.1,-1.0\n0.2,0.0\n")
    cal_path.write_text(cal)
    rc = main(["preprocess", "--raw", str(raw), "--mode", "air", "--cal", str(cal_path),
               "--out", str(tmp_path / "g0.csv"), "--g1", str(tmp_path / "g1.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidInput" and err["message"]


@pytest.mark.parametrize(
    "names, bad",
    [(["test1", "nope"], "'nope'"), ([""], "''")],
    ids=["unknown_name", "empty_name"],
)
def test_run_fixture_rejects_unknown_fixture_with_exit_2(
    tmp_path, capsys, monkeypatch, names, bad
):
    """An unknown or empty fixture name is rejected before --out is created
    or any fixture runs."""
    ran = []
    monkeypatch.setattr("convexiwave.runner.run_fixture", lambda name, out_dir: ran.append(name))
    out = tmp_path / "runs"
    assert main(["run-fixture", *names, "--out", str(out)]) == 2
    assert not out.exists() and not ran
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "FixtureMissing"
    assert f"unknown fixture(s) {bad};" in err["message"] and "known: test1," in err["message"]


def test_run_fixture_runs_named_fixtures_and_writes_the_report(tmp_path, capsys, monkeypatch):
    """No name runs all ten fixtures in order; stdout is the report.json
    list; one failed fixture makes the exit code 1."""
    ran = []
    failing = set()

    def fake_run_fixture(name, out_dir=None):
        ran.append(name)
        return {"fixture": name, "passed": name not in failing}

    monkeypatch.setattr("convexiwave.runner.run_fixture", fake_run_fixture)
    out = tmp_path / "runs"
    out.mkdir()  # the real run_fixture creates it
    assert main(["run-fixture", "--out", str(out)]) == 0
    assert ran == list(FIXTURE_NAMES)
    printed = capsys.readouterr().out
    assert printed == (out / "report.json").read_text()
    reports = json.loads(printed)
    assert [r["fixture"] for r in reports] == list(FIXTURE_NAMES)
    assert all(r["passed"] and r["seconds"] >= 0 for r in reports)

    ran.clear()
    failing.add("wood")
    assert main(["run-fixture", "wood", "test3"]) == 1
    assert ran == ["wood", "test3"]
    assert [r["passed"] for r in json.loads(capsys.readouterr().out)] == [False, True]


@given(n=st.integers(2, 60))
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_cli_domain_error_exit_code(tmp_path, capsys, n):
    """Boundary data that end before T + eps (t = 6 by default) exit 2 with
    HorizonTooShort, whatever their length."""
    g0 = tmp_path / "g0.csv"
    g1 = tmp_path / "g1.csv"
    g0.write_text(signal_to_csv(Signal(0.0, 0.1, np.full(n, 0.5))))  # ends at t <= 5.9
    g1.write_text(signal_to_csv(Signal(0.0, 0.1, np.zeros(n))))
    rc = main(["invert", "--g0", str(g0), "--g1", str(g1),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "HorizonTooShort"
