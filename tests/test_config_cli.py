"""Run-configuration serialization and CLI smoke tests."""

import dataclasses
import json

import numpy as np
import pytest

from convexiwave.cli import main
from convexiwave.config import (
    GridConfig,
    InversionConfig,
    RunConfig,
    load_config,
    save_config,
)
from convexiwave.fixtures import synthesize_raw_trace
from convexiwave.grid import signal_from_csv, signal_to_csv


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_runconfig_json_roundtrip():
    cfg = RunConfig()
    cfg.forward.medium = [{"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": 10.0}]
    cfg.inversion.nx = 40
    cfg.descent = dataclasses.replace(cfg.descent, max_iters=7)
    back = RunConfig.from_json(cfg.to_json())
    assert back.to_dict() == cfg.to_dict()


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
    save_config(cfg, str(path))
    assert load_config(str(path)).to_dict() == cfg.to_dict()


def test_config_validation():
    with pytest.raises(ValueError):
        GridConfig(a=-1.0)
    with pytest.raises(ValueError):
        InversionConfig(eps=4.0, M=3.0)
    with pytest.raises(ValueError):
        InversionConfig(c_upper=0.5)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _small_cfg(tmp_path):
    cfg = RunConfig()
    cfg.forward.grid = GridConfig(a=5.0, T=6.0, nx=600, nt=150)
    cfg.forward.medium = [{"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": 10.0}]
    cfg.inversion.nx = 20
    cfg.inversion.nt = 20
    cfg.descent = dataclasses.replace(
        cfg.descent, max_iters=5, redescent_iters=5, max_corrections=0
    )
    path = tmp_path / "cfg.json"
    save_config(cfg, str(path))
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
    cal_path.write_text(json.dumps({"mu": cal.mu, "reference_name": cal.reference_name}))
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


@pytest.mark.parametrize(
    "case",
    [
        "nan_sample",
        "non_uniform_times",
        "inversion_nx_1",
        "convex_eta_step",
        "g1_shorter",
        "g1_other_dt",
        "redescent_iters_null",
        "config_not_json",
        "medium_unknown_kind",
        "medium_piece_lacks_key",
    ],
)
def test_cli_rejects_bad_input_with_exit_2(tmp_path, capsys, case):
    times = [0.0, 0.5, 1.0, 1.5]
    g0_vals = [0.5, 0.5, 0.5, 0.5]
    cfg = {}
    if case == "nan_sample":
        g0_vals[2] = float("nan")
    elif case == "non_uniform_times":
        times = [0.0, 0.1, 0.5, 0.55]
    elif case == "inversion_nx_1":
        cfg = {"inversion": {"nx": 1}}
    elif case == "convex_eta_step":
        cfg = {"convex": {"eta_step": 0.5}}
    elif case == "redescent_iters_null":
        cfg = {"descent": {"redescent_iters": None}}
    elif case == "medium_unknown_kind":
        cfg = {"forward": {"medium": [{"kind": "blob"}]}}
    elif case == "medium_piece_lacks_key":
        cfg = {"forward": {"medium": [{"kind": "bump", "center": 0.5, "halfwidth": 0.2}]}}
    g1_times = {"g1_shorter": times[:-1], "g1_other_dt": [0.0, 0.6, 1.2, 1.8]}.get(case, times)
    g0 = tmp_path / "g0.csv"
    g1 = tmp_path / "g1.csv"
    cfg_path = tmp_path / "cfg.json"
    g0.write_text("t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(times, g0_vals)))
    g1.write_text("t,value\n" + "".join(f"{t!r},0.0\n" for t in g1_times))
    cfg_path.write_text('{"inversion": ' if case == "config_not_json" else json.dumps(cfg))
    if case.startswith("medium"):
        argv = ["forward", "--config", str(cfg_path), "--g0", str(g0), "--g1", str(g1)]
    else:
        argv = ["invert", "--g0", str(g0), "--g1", str(g1), "--config", str(cfg_path),
                "--out", str(tmp_path / "c.csv")]
    rc = main(argv)
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidInput" and err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["convexity-check", "--lambdas=-1"],
        ["convexity-check", "--lambdas=1,x"],
        ["convexity-check", "--pairs", "0"],
        ["convexity-check", "--radius", "0"],
        ["gradient-check", "--nx", "1"],
        ["gradient-check", "--trials", "0"],
    ],
    ids=["negative_lambda", "text_lambda", "no_pairs", "zero_radius", "nx_1", "no_trials"],
)
def test_cli_audit_rejects_bad_arguments_with_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "report.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidInput" and err["message"]


@pytest.mark.parametrize(
    "cal",
    ["{}", '{"mu": -1}', '{"mu": "abc"}', '{"mu": '],
    ids=["no_mu", "negative_mu", "text_mu", "not_json"],
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


def test_cli_domain_error_exit_code(tmp_path):
    # boundary data shorter than the required horizon -> domain error (exit 2)
    from convexiwave.grid import Signal

    short = Signal(0.0, 0.1, np.full(11, 0.5))  # ends at t = 1 < T + eps
    g0 = tmp_path / "g0.csv"
    g1 = tmp_path / "g1.csv"
    g0.write_text(signal_to_csv(short))
    g1.write_text(signal_to_csv(Signal(0.0, 0.1, np.zeros(11))))
    rc = main(["invert", "--g0", str(g0), "--g1", str(g1),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2
