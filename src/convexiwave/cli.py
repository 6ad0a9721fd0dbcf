"""Command-line front end: forward runs, inversion, preprocessing, checks, fixtures."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fixtures
from .config import RunConfig, invert_from_config, load_config
from .convexify import ConvexParams, convexity_scan, gradient_J, make_context, evaluate_J
from .convexify import sample_admissible_pair
from .errors import ConvexiwaveError, InvalidInput
from .forward import add_noise, correct_near_origin, extract_boundary, simulate
from .grid import (
    Field2D,
    SpaceTimeGrid,
    field_to_csv,
    profile_to_csv,
    signal_from_csv,
    signal_to_csv,
)
from .preprocess import CalibrationResult, MediumMode, RawTrace, preprocess_pipeline
from .transform import BoundaryData, QField, q_floor_from_c_upper


def _apply_thread_cap():
    cap = os.environ.get("CONVEXIWAVE_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


def _read(path) -> str:
    with open(path) as f:
        return f.read()


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


def cmd_forward(args) -> int:
    cfg = load_config(args.config)
    g = cfg.forward.grid
    grid = SpaceTimeGrid(-g.a, g.a, g.T, g.nx, g.nt)
    medium = fixtures.medium_from_pieces(cfg.forward.medium, -g.a, g.a, g.nx)
    u = simulate(medium, grid, cfg.forward.source)
    u = correct_near_origin(u, cfg.forward.correction)
    d = extract_boundary(u, 0.0, g.T)
    g0, g1 = d.g0, d.g1
    if cfg.forward.noise.delta > 0:
        g0 = add_noise(g0, cfg.forward.noise.delta, cfg.forward.noise.seed)
        g1 = add_noise(g1, cfg.forward.noise.delta, cfg.forward.noise.seed + 1)
    if args.out:
        _write(args.out, field_to_csv(u))
    _write(args.g0, signal_to_csv(g0))
    _write(args.g1, signal_to_csv(g1))
    return 0


def cmd_invert(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    g0 = signal_from_csv(_read(args.g0))
    g1 = signal_from_csv(_read(args.g1))
    result = invert_from_config(BoundaryData(g0=g0, g1=g1, eps=cfg.inversion.eps), cfg)
    _write(args.out, profile_to_csv(result.c_comp.x, result.c_comp.c))
    if args.diag:
        lines = ["iteration,J,grad_norm,correction_count"]
        lines += [
            f"{row['iteration']},{float(row['J'])!r},{float(row['grad_norm'])!r},{row['correction_count']}"
            for row in result.diagnostics
        ]
        _write(args.diag, "\n".join(lines) + "\n")
    if args.json_log:
        for row in result.diagnostics:
            print(json.dumps(row))
    return 0


def cmd_preprocess(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    raw_signal = signal_from_csv(_read(args.raw))
    mode = MediumMode(args.mode)
    try:
        cal_data = json.loads(_read(args.cal))
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"calibration file {args.cal} is not valid JSON: {exc}") from exc
    if not isinstance(cal_data, dict) or not isinstance(cal_data.get("mu"), (int, float)):
        raise InvalidInput(f"calibration file {args.cal} has no numeric 'mu' entry")
    cal = CalibrationResult(mu=cal_data["mu"], reference_name=cal_data.get("reference_name", ""))
    data = preprocess_pipeline(
        RawTrace(raw_signal, mode),
        cal,
        half_width_steps=cfg.preprocess.half_width_steps,
        diff_reg=cfg.preprocess.diff_reg,
    )
    _write(args.out, signal_to_csv(data.g0))
    _write(args.g1, signal_to_csv(data.g1))
    return 0


def _audit_grid(args) -> SpaceTimeGrid:
    """The [0, 3] x [0, 6] grid of the audit subcommands, sized by --nx/--nt."""
    try:
        return SpaceTimeGrid(0.0, 3.0, 6.0, args.nx, args.nt)
    except ValueError as exc:
        raise InvalidInput(f"--nx/--nt: {exc}") from exc


def cmd_gradient_check(args) -> int:
    if args.trials < 1:
        raise InvalidInput("--trials must be at least 1")
    grid = _audit_grid(args)
    rng = np.random.Generator(np.random.Philox(args.seed))
    floor = q_floor_from_c_upper(15.0)
    params = ConvexParams()
    q_eps = np.full(grid.nt + 1, 0.5)
    qx_eps = np.zeros(grid.nt + 1)
    ctx = make_context(grid, q_eps, qx_eps, params)
    s = 1e-6
    rows = ["trial,max_rel_error"]
    worst = 0.0
    for trial in range(args.trials):
        q_field, h = sample_admissible_pair(grid, rng, 5.0, floor)
        q = QField(grid, q_field, floor)
        g = gradient_J(q, ctx)
        analytic = float(np.sum(g.values * h.values))
        qp = QField(grid, Field2D(grid, q_field.values + s * h.values), floor)
        qm = QField(grid, Field2D(grid, q_field.values - s * h.values), floor)
        fd = (evaluate_J(qp, ctx) - evaluate_J(qm, ctx)) / (2.0 * s)
        rel = abs(analytic - fd) / max(abs(fd), 1e-300)
        worst = max(worst, rel)
        rows.append(f"{trial},{rel!r}")
    report = "\n".join(rows) + f"\nworst,{worst!r}\n"
    if args.out:
        _write(args.out, report)
    else:
        print(report, end="")
    return 0 if worst <= 1e-5 else 1


def cmd_convexity_check(args) -> int:
    try:
        lambdas = [float(s) for s in args.lambdas.split(",")]
        for lam in lambdas:
            ConvexParams(lam=lam)
    except ValueError as exc:
        raise InvalidInput(f"--lambdas={args.lambdas}: {exc}") from exc
    if args.pairs < 1:
        raise InvalidInput("--pairs must be at least 1")
    if not args.radius > 0:
        raise InvalidInput("--radius must be positive")
    grid = _audit_grid(args)
    table = convexity_scan(grid, lambdas, args.pairs, args.radius, seed=args.seed)
    rows = ["lambda,min_bregman"]
    rows += [f"{lam!r},{val!r}" for lam, val in table.items()]
    nonneg = [lam for lam, val in table.items() if val >= 0.0]
    rows.append(f"# lambda_emp = {max(nonneg) if nonneg else None}")
    report = "\n".join(rows) + "\n"
    if args.out:
        _write(args.out, report)
    else:
        print(report, end="")
    return 0


def cmd_run_fixture(args) -> int:
    from .runner import run_fixture

    report = run_fixture(args.name, out_dir=args.out)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="convexiwave")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("forward", help="simulate a medium and emit boundary data")
    f.add_argument("--config", required=True)
    f.add_argument("--out", default=None)
    f.add_argument("--g0", required=True)
    f.add_argument("--g1", required=True)
    f.set_defaults(fn=cmd_forward)

    i = sub.add_parser("invert", help="reconstruct a profile from boundary data")
    i.add_argument("--g0", required=True)
    i.add_argument("--g1", required=True)
    i.add_argument("--config", default=None)
    i.add_argument("--out", required=True)
    i.add_argument("--diag", default=None)
    i.add_argument("--json-log", action="store_true")
    i.set_defaults(fn=cmd_invert)

    pp = sub.add_parser("preprocess", help="turn a raw trace into boundary data")
    pp.add_argument("--raw", required=True)
    pp.add_argument("--mode", choices=["air", "ground"], required=True)
    pp.add_argument("--cal", required=True)
    pp.add_argument("--config", default=None)
    pp.add_argument("--out", required=True)
    pp.add_argument("--g1", required=True)
    pp.set_defaults(fn=cmd_preprocess)

    gc = sub.add_parser("gradient-check", help="finite-difference gradient audit")
    gc.add_argument("--nx", type=int, default=20)
    gc.add_argument("--nt", type=int, default=20)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--trials", type=int, default=50)
    gc.add_argument("--out", default=None)
    gc.set_defaults(fn=cmd_gradient_check)

    cc = sub.add_parser("convexity-check", help="Bregman-divergence sampling report")
    cc.add_argument("--lambdas", default="0,1,2,4,8")
    cc.add_argument("--pairs", type=int, default=100)
    cc.add_argument("--radius", type=float, default=5.0)
    cc.add_argument("--nx", type=int, default=20)
    cc.add_argument("--nt", type=int, default=20)
    cc.add_argument("--seed", type=int, default=0)
    cc.add_argument("--out", default=None)
    cc.set_defaults(fn=cmd_convexity_check)

    rf = sub.add_parser("run-fixture", help="run a golden fixture end to end")
    rf.add_argument("name", choices=list(fixtures.FIXTURE_NAMES))
    rf.add_argument("--out", default=None)
    rf.set_defaults(fn=cmd_run_fixture)
    return p


def main(argv=None) -> int:
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConvexiwaveError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "IOError", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
