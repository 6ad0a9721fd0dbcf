"""Run-configuration serialization and CLI smoke tests."""

import dataclasses
import inspect
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
from convexiwave import convexify, fixtures, forward, preprocess, solver, transform
from convexiwave.cli import main
from convexiwave.config import (
    InversionConfig,
    NoiseConfig,
    PreprocessConfig,
    RunConfig,
    invert_from_config,
    load_config,
)
from convexiwave.fixtures import FIXTURE_NAMES, medium_from_pieces, synthesize_raw_trace
from convexiwave.forward import BoundaryData, simulate
from convexiwave.grid import (
    Signal,
    field_to_csv,
    signal_from_csv,
    signal_to_csv,
)
from convexiwave.solver import QRConfig


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
    assert dataclasses.asdict(cfg.inversion) == {
        "eps": 0.0, "M": 3.0, "T": 6.0, "nx": 60, "nt": 60,
        "c_upper": 15.0, "diff_reg": 1e-6, "freeze_time_derivative": True,
    }
    assert dataclasses.asdict(cfg.preprocess) == {"half_width_steps": 10, "diff_reg": 1e-6}
    assert dataclasses.asdict(cfg.descent) == {"max_iters": 300, "redescent_iters": 2000}
    assert dataclasses.asdict(cfg.convex) == {"lam": 2.0}
    assert (convexify.ALPHA, convexify.BETA) == (0.3, 1e-9)
    assert list(dataclasses.asdict(cfg.forward)) == ["medium", "noise"]
    assert (forward.FORWARD_GRID.nx, forward.FORWARD_GRID.nt) == (3000, 300)
    assert forward.SOURCE_K == 30.0 and forward.FRONT_WINDOW == 0.26

    def settable(section):
        values = (getattr(section, f.name) for f in dataclasses.fields(section))
        return sum(settable(v) if dataclasses.is_dataclass(v) else 1 for v in values)

    assert settable(cfg) == 17


# Each library stage takes these settings from RunConfig, or the fixtures' noise level
# from runner.NOISE_DELTA, and states no default for them.
SETTINGS_WITHOUT_DEFAULTS = [
    (solver.invert,
     ("params", "qr_cfg", "descent_cfg", "diff_reg", "c_upper", "freeze_time_derivative")),
    (transform.boundary_traces_from_data, ("diff_reg",)),
    (solver.initial_guess, ("c_upper",)),
    (convexify.make_context, ("c_upper",)),
    (solver.correction_step, ("freeze_time_derivative",)),
    (preprocess.preprocess_pipeline, ("half_width_steps", "diff_reg")),
    (preprocess.truncate_window, ("half_width_steps",)),
    (forward.boundary_data, ("eps", "delta", "seed")),
    (fixtures.simulated_boundary_data, ("delta",)),
    (preprocess.RawTrace, ("medium_mode",)),
]


@pytest.mark.parametrize(
    "fn, names", SETTINGS_WITHOUT_DEFAULTS, ids=[fn.__name__ for fn, _ in SETTINGS_WITHOUT_DEFAULTS]
)
def test_library_stages_have_no_setting_defaults(fn, names):
    params = inspect.signature(fn).parameters
    assert [n for n in names if params[n].default is not inspect.Parameter.empty] == []


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
        InversionConfig(eps=4.0, M=3.0)
    with pytest.raises(ValueError):
        InversionConfig(c_upper=0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "section, key",
    [
        (QRConfig, "reg_eta"),
        (InversionConfig, "M"),
        (InversionConfig, "T"),
        (InversionConfig, "c_upper"),
        (InversionConfig, "diff_reg"),
        (NoiseConfig, "delta"),
        (PreprocessConfig, "diff_reg"),
    ],
)
def test_config_sections_reject_non_finite_values(section, key, value):
    with pytest.raises(ValueError):
        section(**{key: value})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _small_cfg(tmp_path, **inversion):
    """A config for a forward run and a quick 5 + 5 step inversion on 20x20;
    ``inversion`` overrides fields of its inversion section."""
    cfg = RunConfig()
    cfg.forward.medium = [{"kind": "bump", "center": 0.5, "halfwidth": 0.2, "amplitude": 10.0}]
    cfg.inversion = dataclasses.replace(cfg.inversion, nx=20, nt=20, **inversion)
    cfg.descent = dataclasses.replace(cfg.descent, max_iters=5, redescent_iters=5)
    path = tmp_path / "cfg.json"
    _write_config(cfg, path)
    return path


def _forward(tmp_path, cfg_path):
    """Run ``convexiwave forward`` on the config; returns the g0 and g1 CSV paths."""
    g0 = tmp_path / "g0.csv"
    g1 = tmp_path / "g1.csv"
    assert main(["forward", "--config", str(cfg_path), "--g0", str(g0), "--g1", str(g1)]) == 0
    return g0, g1


def test_cli_forward_then_invert(tmp_path):
    cfg_path = _small_cfg(tmp_path)
    g0, g1 = _forward(tmp_path, cfg_path)
    s = signal_from_csv(g0.read_text())
    assert s.samples.size == 301
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


def test_cli_invert_json_log_repeats_the_diag_rows(tmp_path, capsys):
    """--json-log prints one object per --diag data row, with that row's
    values, and J does not increase within a correction count."""
    cfg_path = _small_cfg(tmp_path)
    g0, g1 = _forward(tmp_path, cfg_path)
    capsys.readouterr()
    diag = tmp_path / "diag.csv"
    rc = main([
        "invert", "--g0", str(g0), "--g1", str(g1), "--config", str(cfg_path),
        "--out", str(tmp_path / "c.csv"), "--diag", str(diag), "--json-log",
    ])
    assert rc == 0
    header, *rows = diag.read_text().strip().splitlines()
    logged = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(logged) == len(rows) > 0
    keys = ["iteration", "J", "grad_norm", "correction_count"]
    assert header == ",".join(keys)
    for n, (obj, row) in enumerate(zip(logged, rows)):
        i, J, grad_norm, leg = row.split(",")
        assert list(obj) == keys
        assert [obj[k] for k in keys] == [int(i), float(J), float(grad_norm), int(leg)]
        assert obj["iteration"] == n
    for prev, obj in zip(logged, logged[1:]):
        if obj["correction_count"] == prev["correction_count"]:
            assert obj["J"] <= prev["J"]


def test_cli_invert_matches_invert_from_config_off_the_origin(tmp_path):
    """With inversion.eps = 0.1, the CLI and the library read the traces at
    the same observation point and return the same c, bit for bit."""
    cfg_path = _small_cfg(tmp_path, eps=0.1, T=5.9)
    g0, g1 = _forward(tmp_path, cfg_path)
    out = tmp_path / "c.csv"
    rc = main(["invert", "--g0", str(g0), "--g1", str(g1), "--config", str(cfg_path),
               "--out", str(out)])
    assert rc == 0
    c_cli = np.array([float(r.split(",")[1]) for r in out.read_text().strip().splitlines()[1:]])
    data = BoundaryData(signal_from_csv(g0.read_text()), signal_from_csv(g1.read_text()))
    result = invert_from_config(data, load_config(str(cfg_path)))
    assert result.c_comp.x[0] == 0.1
    assert np.array_equal(c_cli, result.c_comp.c)


def test_cli_forward_then_invert_records_at_the_observation_point(tmp_path):
    """With inversion.eps = 0.1, ``forward`` writes u(0.1, t) as g0 and the
    one-sided u_x(0.1, t) as g1, exactly as ``simulate`` gives them, except
    for t <= 0.1 + 0.26, where they are 1/2 and 0; ``--out`` writes the
    simulated field itself, and ``invert`` runs on those traces."""
    cfg_path = _small_cfg(tmp_path, eps=0.1, T=5.9)
    field_path = tmp_path / "u.csv"
    g0, g1 = tmp_path / "g0.csv", tmp_path / "g1.csv"
    assert main(["forward", "--config", str(cfg_path), "--out", str(field_path),
                 "--g0", str(g0), "--g1", str(g1)]) == 0
    fwd = load_config(str(cfg_path)).forward
    grid = forward.FORWARD_GRID
    u = simulate(medium_from_pieces(fwd.medium, grid), grid)
    assert field_path.read_text() == field_to_csv(u)
    u = u.values
    i = 1530  # x = -5 + 1530 * 10 / 3000 = 0.1
    assert grid.x_nodes()[i] == pytest.approx(0.1, abs=1e-12)
    front = grid.t_nodes() <= 0.1 + 0.26
    assert front.sum() == 19  # t = 0, 0.02, ..., 0.36
    g0_vals = signal_from_csv(g0.read_text()).samples
    g1_vals = signal_from_csv(g1.read_text()).samples
    assert np.all(g0_vals[front] == 0.5) and np.all(g1_vals[front] == 0.0)
    assert np.array_equal(g0_vals[~front], u[i, ~front])
    ux = (-3.0 * u[i] + 4.0 * u[i + 1] - u[i + 2]) / (2.0 * grid.dx)
    assert np.array_equal(g1_vals[~front], ux[~front])
    rc = main(["invert", "--g0", str(g0), "--g1", str(g1), "--config", str(cfg_path),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 0


def test_cli_forward_rejects_an_observation_point_off_the_grid(tmp_path, capsys):
    """An inversion.eps that is not a node of the forward grid (dx = 1/300)
    exits 2 with OffGridObservation and writes no traces."""
    cfg_path = _small_cfg(tmp_path, eps=0.105)
    g0, g1 = tmp_path / "g0.csv", tmp_path / "g1.csv"
    assert main(["forward", "--config", str(cfg_path), "--g0", str(g0), "--g1", str(g1)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OffGridObservation" and "x = 0.105" in err["message"]
    assert not g0.exists() and not g1.exists()


def test_cli_invert_rejects_a_record_that_starts_late(tmp_path, capsys):
    """A forward record without its first 2 time units exits 2 with
    HorizonTooShort instead of inverting a first sample held over [0, 2)."""
    cfg_path = _small_cfg(tmp_path)
    g0, g1 = _forward(tmp_path, cfg_path)
    for path in (g0, g1):
        s = signal_from_csv(path.read_text())
        path.write_text(signal_to_csv(Signal(s.t0 + 100 * s.dt, s.dt, s.samples[100:])))
    rc = main(["invert", "--g0", str(g0), "--g1", str(g1), "--config", str(cfg_path),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "HorizonTooShort" and "data cover t in [2.0" in err["message"]


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
    # a sampled table is not a medium piece kind, however valid its values
    "medium_table_unknown_kind": (
        "forward", {"forward": {"medium": [{"kind": "table", "x": [0.0, 1.0], "c": [1.0, 2.0]}]}}
    ),
    "grad_tol_nan": ("invert", {"descent": {"grad_tol": NAN}}),
    "inversion_diff_reg_nan": ("invert", {"inversion": {"diff_reg": NAN}}),
    "inversion_c_upper_nan": ("invert", {"inversion": {"c_upper": NAN}}),
    "noise_delta_nan": ("forward", {"forward": {"noise": {"delta": NAN}}}),
    "noise_seed_negative": ("forward", {"forward": {"noise": {"delta": 0.05, "seed": -1}}}),
    "max_iters_fractional": ("invert", {"descent": {"max_iters": 2.5}}),
    "inversion_nx_fractional": ("invert", {"inversion": {"nx": 20.5}}),
    "max_iters_bool": ("invert", {"descent": {"max_iters": True}}),
    "freeze_time_derivative_text": ("invert", {"inversion": {"freeze_time_derivative": "no"}}),
    # a finite lam whose Carleman weight overflows on the inversion grid
    "convex_lam_overflows_weight": ("invert", {"convex": {"lam": 1e308}}),
    # a finite lam whose Carleman weight underflows to 0 off the origin
    "convex_lam_underflows_weight": ("invert", {"convex": {"lam": 1e300}}),
    # a grid so long that the default Carleman weight underflows to 0 at its far end
    "inversion_M_underflows_weight": ("invert", {"inversion": {"M": 1e6}}),
    # descent settings that became solver constants, each at its old default
    "eta_step_removed": ("invert", {"descent": {"eta_step": 0.1}}),
    "armijo_c1_removed": ("invert", {"descent": {"armijo_c1": 1e-4}}),
    "backtrack_removed": ("invert", {"descent": {"backtrack": 0.5}}),
    "stop_linf_removed": ("invert", {"descent": {"stop_linf": 1e-3}}),
    "max_corrections_removed": ("invert", {"descent": {"max_corrections": 1}}),
    "grad_tol_removed": ("invert", {"descent": {"grad_tol": 1e-7}}),
    # objective settings that became convexify constants, each at its old default
    "alpha_removed": ("invert", {"convex": {"alpha": 0.3}}),
    "beta_removed": ("invert", {"convex": {"beta": 1e-9}}),
    # forward settings that became forward constants: unknown keys, whatever their value
    "source_k_nan": ("forward", {"forward": {"source": {"k": NAN}}}),
    "correction_x_hi_inf": ("forward", {"forward": {"correction": {"x_hi": INF}}}),
    "correction_t_hi_nan": ("forward", {"forward": {"correction": {"t_hi": NAN}}}),
    "forward_grid_removed": ("forward", {"forward": {"grid": {"nx": 3000}}}),
}

# Finite medium pieces outside the ranges that keep c > 0, and the piece key
# the error must name.
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


# Finite traces g0 = 0.5 + amplitude * sin t that cover the window, but lie so
# far off the unit source's scale that c = 1/(16 q(x,0)^4) underflows to 0
# (1e100) or that the norm of the initial guess's right-hand side overflows.
OFF_SCALE_AMPLITUDES = {"c_underflows": 1e100, "rhs_norm_overflows": 1e200,
                        "rhs_norm_overflows_near_max": 1e300}


@pytest.mark.parametrize(
    "case",
    [
        "nan_sample",
        "non_uniform_times",
        "g1_shorter",
        "g1_other_dt",
        "config_not_json",
        *OFF_SCALE_AMPLITUDES,
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
    elif case in OFF_SCALE_AMPLITUDES:
        times = [k / 100 for k in range(701)]
        g0_vals = [0.5 + OFF_SCALE_AMPLITUDES[case] * float(np.sin(t)) for t in times]
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
        if case.endswith("_removed") or key in ("source", "correction"):
            assert f"unknown config key {section}.{key}" in err["message"]
    if case in OUT_OF_RANGE_PIECES:
        assert f"piece {OUT_OF_RANGE_PIECES[case][0]} must" in err["message"]
    if case == "medium_table_unknown_kind":
        assert "unknown medium piece kind 'table'" in err["message"]


@pytest.mark.parametrize(
    "text, where",
    [("null", "top level"), ('{"inversion": null}', "inversion"),
     ('{"forward": {"noise": null}}', "forward.noise")],
    ids=["top_level", "inversion", "forward_noise"],
)
def test_cli_rejects_a_null_config_section_with_exit_2(tmp_path, capsys, text, where):
    """A config, or a section of one, that is null exits 2 with InvalidInput
    naming the section, as ``[]`` does, instead of taking the defaults."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    g0, g1 = tmp_path / "g0.csv", tmp_path / "g1.csv"
    assert main(["forward", "--config", str(cfg_path), "--g0", str(g0), "--g1", str(g1)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidInput"
    assert f"config {where} must be a JSON object" in err["message"]
    assert not g0.exists() and not g1.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["convexity-check", "--lambdas=-1"],
        ["convexity-check", "--lambdas=1,x"],
        ["convexity-check", "--pairs", "0"],
        ["convexity-check", "--seed", "-1"],
        ["gradient-check", "--nx", "1"],
        ["gradient-check", "--trials", "0"],
        ["gradient-check", "--seed", "-1"],
        # lambdas whose Carleman weight on the audit grid is NaN at the origin,
        # 0 everywhere off it, or 0 only near the far corner
        ["convexity-check", "--lambdas", "1e308", "--pairs", "1", "--nx", "8", "--nt", "8"],
        ["convexity-check", "--lambdas", "1e300", "--pairs", "1", "--nx", "8", "--nt", "8"],
        ["convexity-check", "--lambdas", "2,100", "--pairs", "1", "--nx", "8", "--nt", "8"],
    ],
    ids=["negative_lambda", "text_lambda", "no_pairs",
         "convexity_negative_seed", "nx_1", "no_trials", "gradient_negative_seed",
         "lambda_weight_not_finite", "lambda_weight_zero", "lambda_weight_underflows_at_corner"],
)
def test_cli_audit_rejects_bad_arguments_with_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "report.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidInput" and err["message"]


def test_cli_convexity_check_has_no_radius_option(capsys):
    """The audit ball's radius is the constant ``convexify.AUDIT_RADIUS``:
    ``--radius`` is an unknown option, which argparse rejects with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["convexity-check", "--radius", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --radius" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cal, peak",
    [("{}", 1.0), ('{"mu": -1}', 1.0), ('{"mu": "abc"}', 1.0), ('{"mu": ', 1.0),
     ('{"mu": true}', 1.0), ('{"mu": 1e400}', 1.0), ('{"mu": 1e308}', 2.0),
     ('{"mu": 1e308}', 1.0)],
    ids=["no_mu", "negative_mu", "text_mu", "not_json", "boolean_mu", "infinite_mu",
         "mu_overflows_trace", "mu_overflows_derivative"],
)
def test_cli_preprocess_rejects_bad_calibration_with_exit_2(tmp_path, capsys, cal, peak):
    raw = tmp_path / "raw.csv"
    cal_path = tmp_path / "cal.json"
    raw.write_text(f"t,value\n0.0,0.0\n0.1,{-peak!r}\n0.2,0.0\n")
    cal_path.write_text(cal)
    rc = main(["preprocess", "--raw", str(raw), "--mode", "air", "--cal", str(cal_path),
               "--out", str(tmp_path / "g0.csv"), "--g1", str(tmp_path / "g1.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidInput" and err["message"]
    if cal == '{"mu": 1e308}':
        assert "mu=1e+308" in err["message"]


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
