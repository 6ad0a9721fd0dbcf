"""Command-line front end: forward runs, inversion, preprocessing, checks, fixtures."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import fixtures, runner
from .config import RunConfig, invert_from_config, load_config
from .convexify import ConvexParams, convexity_scan, gradient_audit
from .errors import ConvexiwaveError, FixtureMissing, InvalidInput
from .forward import BoundaryData, boundary_data
from .grid import SpaceTimeGrid, field_to_csv, profile_to_csv, signal_from_csv, signal_to_csv
from .preprocess import CalibrationResult, MediumMode, RawTrace, preprocess_pipeline


def _read(path) -> str:
    with open(path) as f:
        return f.read()


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


def cmd_forward(args) -> int:
    cfg = load_config(args.config).forward
    g = cfg.grid
    grid = SpaceTimeGrid(-g.a, g.a, g.T, g.nx, g.nt)
    medium = fixtures.medium_from_pieces(cfg.medium, grid)
    u, d = boundary_data(medium, grid, cfg.source, cfg.correction, cfg.noise.delta, cfg.noise.seed)
    if args.out:
        _write(args.out, field_to_csv(u))
    _write(args.g0, signal_to_csv(d.g0))
    _write(args.g1, signal_to_csv(d.g1))
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
    if not isinstance(cal_data, dict) or not fixtures.is_finite_number(cal_data.get("mu")):
        raise InvalidInput(f"calibration file {args.cal} has no finite numeric 'mu' entry")
    cal = CalibrationResult(mu=cal_data["mu"])
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
    """The [0, 3] x [0, 6] grid of the audit subcommands, sized by --nx/--nt.

    Also rejects a negative --seed, which both audit subcommands take.
    """
    if args.seed < 0:
        raise InvalidInput("--seed must be nonnegative")
    try:
        return SpaceTimeGrid(0.0, 3.0, 6.0, args.nx, args.nt)
    except ValueError as exc:
        raise InvalidInput(f"--nx/--nt: {exc}") from exc


def cmd_gradient_check(args) -> int:
    if args.trials < 1:
        raise InvalidInput("--trials must be at least 1")
    errors = gradient_audit(_audit_grid(args), args.trials, args.seed)
    worst = max(errors)
    rows = ["trial,max_rel_error"] + [f"{trial},{rel!r}" for trial, rel in enumerate(errors)]
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
    if not 0 < args.radius < math.inf:
        raise InvalidInput("--radius must be positive and finite")
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
    names = args.names or list(fixtures.FIXTURE_NAMES)
    if unknown := [n for n in names if n not in fixtures.FIXTURE_NAMES]:
        raise FixtureMissing(
            f"unknown fixture(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(fixtures.FIXTURE_NAMES)}"
        )
    reports = []
    for name in names:
        t0 = time.perf_counter()
        report = runner.run_fixture(name, out_dir=args.out)
        report["seconds"] = round(time.perf_counter() - t0, 2)
        reports.append(report)
    text = json.dumps(reports, indent=2)
    print(text)
    if args.out:
        _write(os.path.join(args.out, "report.json"), text + "\n")
    return 0 if all(r["passed"] for r in reports) else 1


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

    rf = sub.add_parser("run-fixture", help="run golden fixtures end to end (default: all ten)")
    rf.add_argument("names", nargs="*", metavar="NAME")
    rf.add_argument("--out", default=None)
    rf.set_defaults(fn=cmd_run_fixture)
    return p


def main(argv=None) -> int:
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
