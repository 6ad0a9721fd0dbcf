"""The benchmark's three workloads: inputs from a seed, one op, output checks.

Each workload stresses a different set of layers, so that an optimisation of
one layer shows on one workload and is predicted to change nothing on another:

- ``sim-invert-60``: a full ``solver.invert`` on the production 60x60 grid,
  which is what users run most; descent (``convexify`` and
  ``solver.descend``) takes almost all of the time.
- ``qr-200``: the two quasi-reversibility stages of ``invert`` on the 200x200
  grid of the QR acceptance gate; sparse normal-equation assembly and a
  direct solve with fill, and no descent.
- ``field-data``: turning one fixture into inversion-ready traces; the only
  workload where ``forward``, ``preprocess`` and ``transform`` do the work.

Layer functions are always called through their module (``solver.invert``,
never a name imported from it), so the tracer's rebinding takes effect.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from convexiwave import convexify, fixtures, preprocess, runner, solver, transform
from convexiwave.config import RunConfig
from convexiwave.grid import SpaceTimeGrid

CONFIG = RunConfig()  # production defaults, as the CLI and run-fixture use them
INV = CONFIG.inversion
INV_GRID = SpaceTimeGrid(INV.eps, INV.M, INV.T, INV.nx, INV.nt)
QR_GRID = SpaceTimeGrid(INV.eps, INV.M, INV.T, 200, 200)  # the QR acceptance gate's grid
NOISE = 0.05  # relative noise level delta of the simulated data
MU_REL_TOL = 1e-3  # calibration must recover the stored scale factor this closely

# Deep bands of runner.SIMULATED_BANDS that noise at this delta can push out
# of tolerance: over seeds 0-20, test4 [1.2, 1.9] and test5 [1.6, 2.4] were
# missed on 3 and 7 seeds, and test2 [1.0, 1.9] used up to 94 % of its
# tolerance. A miss there is reported, not failed. Every other band used at
# most 79 % of its tolerance, and a miss of one of them fails the op.
NOISE_LIMITED_BANDS = {("test2", 1.0, 1.9), ("test4", 1.2, 1.9), ("test5", 1.6, 2.4)}


def noise_seed(seed: int, index: int) -> int:
    """Noise seed of the index-th simulated medium; g0 uses it and g1 the next one."""
    return 1000 * seed + 2 * index


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


def rel_l2(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def band_l2(label: str, x: np.ndarray, c: np.ndarray, c_true: np.ndarray) -> float:
    """Relative L2 error of c inside the union of the medium's band windows.

    Outside the windows the reconstruction carries large artifacts, so the
    error over all nodes scores a flat background c = 1 better than any
    reconstruction; inside them a flat background scores worse.
    """
    inside = np.zeros(x.shape, dtype=bool)
    for lo, hi, _, _ in runner.SIMULATED_BANDS[label]:
        inside |= (x >= lo) & (x <= hi)
    return rel_l2(c[inside], c_true[inside])


# Largest relative normal-equation residual accepted from a QR solve.
QR_RESIDUAL_TOL = 1e-6


def qr_residual(system) -> float:
    """Relative normal-equation residual of one ``solver.solve_quadratic`` solution.

    Recomputed from the solve's inputs by matrix-vector products, without the
    normal matrix the solver assembled, so a wrong assembly or solve shows.
    """
    (terms, reg_ops, reg_weight_vec, reg_eta, _), sol = system
    grad = sum(reg_eta * (R.T @ (reg_weight_vec * (R @ sol))) for R in reg_ops)
    rhs = np.zeros_like(sol)
    for L, w, b in terms:
        misfit = L @ sol
        if b is not None:
            misfit = misfit - b
            rhs = rhs + L.T @ (w * b)
        grad = grad + L.T @ (w * misfit)
    return float(np.linalg.norm(grad) / max(np.linalg.norm(rhs), 1e-300))


def qr_problems(tracer) -> list:
    residuals = [qr_residual(system) for system in tracer.qr_systems]
    return [f"QR residual {r:.3g} > {QR_RESIDUAL_TOL:g}" for r in residuals
            if not r <= QR_RESIDUAL_TOL]


@dataclass
class Case:
    """One input of a workload: a label, the op's input, and what its check needs."""

    label: str
    data: object
    ref: dict = field(default_factory=dict)


@dataclass
class Checked:
    """The verdict on one op's output."""

    problems: list  # failed correctness checks; empty means the op passed
    quality: tuple  # (peak_rel_err, l2_rel_err) of this output
    fingerprint: dict  # values that must repeat exactly for the same seed and code
    notes: dict = field(default_factory=dict)  # reported, never checked


def band_errors(label: str, x: np.ndarray, c: np.ndarray):
    """Relative error of the in-window maximum of c for each band of a simulated medium.

    Returns (errors, misses, noise_misses). A miss is a band whose tolerance
    the maximum exceeds, by the rule ``runner.run_fixture`` applies; misses of
    ``NOISE_LIMITED_BANDS`` go to the last list.
    """
    errors, misses, noise_misses = [], [], []
    for lo, hi, target, tol in runner.SIMULATED_BANDS[label]:
        got = float(np.max(c[(x >= lo) & (x <= hi)]))
        errors.append(abs(got - target) / target)
        if not abs(got - target) <= tol * target:
            miss = f"[{lo}, {hi}] max {got:.6g} vs {target} +- {tol:.0%}"
            (noise_misses if (label, lo, hi) in NOISE_LIMITED_BANDS else misses).append(miss)
    return errors, misses, noise_misses


def profile_fingerprint(x: np.ndarray, c: np.ndarray) -> dict:
    k = int(np.argmax(c))
    return {"c_peak": float(c[k]), "x_peak": float(x[k]), "c_sha": digest(c)}


class SimInvert:
    """One op: ``solver.invert`` of noisy simulated data on the 60x60 grid."""

    name = "sim-invert-60"

    def __init__(self, seed: int):
        self.cases = [
            Case(label, fixtures.simulated_boundary_data(label, NOISE, noise_seed(seed, k)),
                 {"c_true": fixtures.fixture_medium(label).sample(INV_GRID.x_nodes())})
            for k, label in enumerate(fixtures.SIMULATED_TESTS)
        ]
        self.cold_s = timed_cold_operators(INV_GRID)

    def op(self, case: Case):
        return solver.invert(
            case.data, INV_GRID, CONFIG.convex, CONFIG.qr, CONFIG.descent,
            diff_reg=INV.diff_reg, c_upper=INV.c_upper,
            freeze_time_derivative=INV.freeze_time_derivative,
        )

    def check(self, case: Case, result, tracer) -> Checked:
        x, c = result.c_comp.x, result.c_comp.c
        problems = [] if np.all(np.isfinite(c)) else ["non-finite c"]
        errors, misses, noise_misses = band_errors(case.label, x, c)
        problems += [f"band {m}" for m in misses] + qr_problems(tracer)
        # J and its gradient at the returned iterate, outside the timed op
        q_eps, qx_eps = transform.boundary_traces_from_data(case.data, INV_GRID, INV.diff_reg)
        ctx = convexify.make_context(INV_GRID, q_eps, qx_eps, CONFIG.convex, INV.c_upper)
        fingerprint = {
            "J": convexify.evaluate_J(result.q, ctx),
            "grad_norm": float(np.linalg.norm(convexify.gradient_J(result.q, ctx).values)),
            **profile_fingerprint(x, c),
            "legs": [[d["iters"], d["reason"]] for d in tracer.descents],
            "corrections": result.corrections,
            "qr_residuals": list(tracer.qr_residuals),
        }
        quality = (float(np.mean(errors)), band_l2(case.label, x, c, case.ref["c_true"]))
        return Checked(problems, quality, fingerprint,
                       {"band_errors": errors, "band_misses": noise_misses})


class QR200:
    """One op: ``solver.initial_guess`` then ``solver.correction_step`` on the 200x200 grid."""

    name = "qr-200"

    def __init__(self, seed: int):
        self.cases = []
        for k, label in enumerate(fixtures.SIMULATED_TESTS):
            data = fixtures.simulated_boundary_data(label, NOISE, noise_seed(seed, k))
            traces = transform.boundary_traces_from_data(data, QR_GRID, INV.diff_reg)
            c_true = fixtures.fixture_medium(label).sample(QR_GRID.x_nodes())
            self.cases.append(Case(label, traces, {"c_true": c_true}))
        self.cold_s = timed_cold_operators(QR_GRID)

    def op(self, case: Case):
        q_eps, qx_eps = case.data
        q0, _ = solver.initial_guess(q_eps, qx_eps, QR_GRID, CONFIG.qr, INV.c_upper)
        return q0, solver.correction_step(q0, q_eps, qx_eps, CONFIG.qr, INV.freeze_time_derivative)

    def check(self, case: Case, out, tracer) -> Checked:
        q0, q1 = out
        x = QR_GRID.x_nodes()
        c = transform.c_from_q(q1).c
        problems = [] if np.all(np.isfinite(c)) else ["non-finite c"]
        if len(tracer.qr_residuals) != 2:
            problems.append(f"expected 2 QR solves, saw {len(tracer.qr_residuals)}")
        problems += qr_problems(tracer)
        errors, _, _ = band_errors(case.label, x, c)
        fingerprint = {
            "q_init_sha": digest(q0.values.values),
            **profile_fingerprint(x, c),
            "qr_residuals": list(tracer.qr_residuals),
        }
        quality = (float(np.mean(errors)), band_l2(case.label, x, c, case.ref["c_true"]))
        return Checked(problems, quality, fingerprint)


class FieldData:
    """One op: one fixture turned into the q-system boundary traces.

    Simulated media: ``forward.simulate`` on 3000x300, boundary extraction and
    noise. Experimental-style fixtures (raw trace made at set-up):
    ``preprocess.calibrate`` and ``preprocess.preprocess_pipeline``. Every op
    ends with ``transform.boundary_traces_from_data``. The reference is the
    same traces made from the fixture's noiseless simulated data.
    """

    name = "field-data"

    def __init__(self, seed: int):
        self.cases = []
        for k, label in enumerate(fixtures.FIXTURE_NAMES):
            ref = {"traces": self.traces(fixtures.simulated_boundary_data(label, 0.0))}
            if label in fixtures.SIMULATED_TESTS:
                data = noise_seed(seed, k)
            else:
                raw, cal, sim_ref = fixtures.synthesize_raw_trace(label)
                data = (raw, sim_ref)
                ref["mu"] = cal.mu
            self.cases.append(Case(label, data, ref))
        self.cold_s = 0.0  # no operator matrices are built on this workload

    @staticmethod
    def traces(data):
        return transform.boundary_traces_from_data(data, INV_GRID, INV.diff_reg)

    def op(self, case: Case):
        if case.label in fixtures.SIMULATED_TESTS:
            return None, self.traces(fixtures.simulated_boundary_data(case.label, NOISE, case.data))
        raw, sim_ref = case.data
        cal = preprocess.calibrate(raw, sim_ref)
        pp = CONFIG.preprocess
        data = preprocess.preprocess_pipeline(
            raw, cal, half_width_steps=pp.half_width_steps, diff_reg=pp.diff_reg
        )
        return cal, self.traces(data)

    def check(self, case: Case, out, tracer) -> Checked:
        cal, (q_eps, qx_eps) = out
        q, qx = q_eps.samples, qx_eps.samples
        q_ref, qx_ref = (s.samples for s in case.ref["traces"])
        problems = [] if np.all(np.isfinite(q)) and np.all(np.isfinite(qx)) else ["non-finite traces"]
        fingerprint = {"q_sha": digest(q), "qx_sha": digest(qx), "qx_peak": float(np.max(np.abs(qx)))}
        if cal is not None:
            fingerprint["mu"] = cal.mu
            if not abs(cal.mu - case.ref["mu"]) <= MU_REL_TOL * case.ref["mu"]:
                problems.append(f"calibration mu {cal.mu:.9g} vs stored {case.ref['mu']:.9g}")
        peak_ref = float(np.max(np.abs(qx_ref)))
        quality = (
            abs(fingerprint["qx_peak"] - peak_ref) / peak_ref,
            0.5 * (rel_l2(q, q_ref) + rel_l2(qx, qx_ref)),
        )
        return Checked(problems, quality, fingerprint)


def timed_cold_operators(grid: SpaceTimeGrid) -> float:
    """Build the grid's operator matrices once, as the first op would, and time it."""
    t0 = time.perf_counter()
    convexify.operators_for(grid)
    return time.perf_counter() - t0


WORKLOADS = {cls.name: cls for cls in (SimInvert, QR200, FieldData)}
