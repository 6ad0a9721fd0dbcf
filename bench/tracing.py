"""Timing spans around calls into convexiwave's layers, installed from outside.

A traced layer function is wrapped, and the wrapper is bound in place of the
original under every module-level name in the package that refers to it,
because callers look those names up at call time: ``solver`` imports
``evaluate_J``, ``gradient_J`` and ``operators_for`` by name, ``convexify``
imports ``h2_norm_sq``, and so on. The package source is never touched, and
``Tracer.installed`` restores every name it rebound when it exits.

Each span records its name, start, end and parent span. Return values of
``solver.descend`` and ``solver.solve_quadratic`` are read at the same
boundary, because ``invert`` drops the descent stop reasons and the QR
normal-equation residuals that the quality fingerprint needs; the inputs and
solution of each QR solve are kept so the check can recompute its residual.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (module, function) of every traced layer; metric names are "<module>.<function>.<stat>".
LAYERS = (
    ("convexify", "evaluate_J"),
    ("convexify", "gradient_J"),
    ("convexify", "operators_for"),
    ("grid", "h2_norm_sq"),
    ("solver", "descend"),
    ("solver", "initial_guess"),
    ("solver", "correction_step"),
    ("solver", "solve_quadratic"),
    ("forward", "simulate"),
    ("forward", "tikhonov_differentiate"),
    ("preprocess", "calibrate"),
    ("preprocess", "preprocess_pipeline"),
    ("transform", "boundary_traces_from_data"),
)

# The untraced run wraps only these two (four calls per inversion) to fill the
# fingerprint; every end-to-end timing is taken with just these installed.
PROBES = (("solver", "descend"), ("solver", "solve_quadratic"))

SPAN_STATS = (("calls", "count"), ("s", "s"), ("self_s", "s"), ("s_per_call", "s"))

EXTRA_METRICS = (
    ("convexify.operators_for.cold_s", "s"),
    ("solver.descend.leg0.s", "s"),
    ("solver.descend.leg1.s", "s"),
    ("solver.descend.iters", "count"),
    ("solver.descend.grad_norm_final", "1"),
    ("solver.descend.accept_ratio", "1"),
    ("solver.solve_quadratic.rel_residual_max", "1"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "1"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, in order, with its unit."""
    units = {
        f"{module}.{name}.{stat}": unit
        for module, name in LAYERS
        for stat, unit in SPAN_STATS
    }
    units.update(EXTRA_METRICS)
    return units


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the op's span list, -1 for a top-level call


@dataclass
class Tracer:
    """Records spans and probe readings for one op at a time."""

    layers: tuple = LAYERS
    spans: list = field(default_factory=list)
    descents: list = field(default_factory=list)
    qr_residuals: list = field(default_factory=list)
    qr_systems: list = field(default_factory=list)  # (solve_quadratic args, solution)
    _stack: list = field(default_factory=list)

    def begin_op(self) -> None:
        self.spans = []
        self.descents = []
        self.qr_residuals = []
        self.qr_systems = []
        self._stack = []

    def _observe(self, name: str, args, out) -> None:
        if name == "solver.descend":
            info = out[1]
            self.descents.append({
                "iters": len(info["grad_norm"]),
                "accepted": len(info["steps"]),
                "reason": info["reason"],
                "grad_norm_final": info["grad_norm"][-1] if info["grad_norm"] else 0.0,
            })
        elif name == "solver.solve_quadratic":
            self.qr_residuals.append(out[1])
            self.qr_systems.append((args, out[0].copy()))  # callers clamp it in place

    def _wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(Span(name, clock(), 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                spans[idx].end = clock()
            self._observe(name, args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block, then restore the originals."""
        bound = []
        try:
            for module_name, name in self.layers:
                original = getattr(importlib.import_module(f"convexiwave.{module_name}"), name)
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in package_modules():
                    if vars(module).get(name) is original:
                        setattr(module, name, wrapper)
                        bound.append((module, name, original))
            yield self
        finally:
            for module, name, original in reversed(bound):
                setattr(module, name, original)


def package_modules():
    return [
        module for key, module in list(sys.modules.items())
        if module is not None and (key == "convexiwave" or key.startswith("convexiwave."))
    ]


@dataclass
class OpProfile:
    """Per-layer totals of one traced op, reduced from its spans."""

    calls: dict
    total_s: dict
    self_s: dict
    legs_s: list
    descents: list
    qr_residuals: list
    j_trials: int  # evaluate_J calls made by descend, minus each leg's initial evaluation

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "OpProfile":
        spans = tracer.spans
        child_s = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        calls, total_s, self_s = {}, {}, {}
        legs_s = []
        j_in_descent = 0
        for i, span in enumerate(spans):
            dur = span.end - span.start
            calls[span.name] = calls.get(span.name, 0) + 1
            total_s[span.name] = total_s.get(span.name, 0.0) + dur
            self_s[span.name] = self_s.get(span.name, 0.0) + dur - child_s[i]
            if span.name == "solver.descend":
                legs_s.append(dur)
            elif (span.name == "convexify.evaluate_J" and span.parent >= 0
                  and spans[span.parent].name == "solver.descend"):
                j_in_descent += 1
        return cls(calls, total_s, self_s, legs_s, list(tracer.descents),
                   list(tracer.qr_residuals), j_in_descent - len(legs_s))


def layer_metrics(profiles: list, cold_s: float, overheads_s: list, plain_s: list) -> dict:
    """Per-layer metrics, as means per traced op, keyed as in ``per_layer_units``."""
    n = max(len(profiles), 1)
    out = {}
    for module, name in LAYERS:
        key = f"{module}.{name}"
        calls = sum(p.calls.get(key, 0) for p in profiles)
        total = sum(p.total_s.get(key, 0.0) for p in profiles)
        out[f"{key}.calls"] = calls / n
        out[f"{key}.s"] = total / n
        out[f"{key}.self_s"] = sum(p.self_s.get(key, 0.0) for p in profiles) / n
        out[f"{key}.s_per_call"] = total / calls if calls else 0.0
    descents = [d for p in profiles for d in p.descents]
    trials = sum(p.j_trials for p in profiles)
    finals = [p.descents[-1]["grad_norm_final"] for p in profiles if p.descents]
    residuals = [r for p in profiles for r in p.qr_residuals]
    out.update({
        "convexify.operators_for.cold_s": cold_s,
        "solver.descend.leg0.s": sum(p.legs_s[0] for p in profiles if len(p.legs_s) > 0) / n,
        "solver.descend.leg1.s": sum(p.legs_s[1] for p in profiles if len(p.legs_s) > 1) / n,
        "solver.descend.iters": sum(d["iters"] for d in descents) / n,
        "solver.descend.grad_norm_final": sum(finals) / len(finals) if finals else 0.0,
        "solver.descend.accept_ratio": sum(d["accepted"] for d in descents) / trials if trials else 0.0,
        "solver.solve_quadratic.rel_residual_max": max(residuals, default=0.0),
        "trace.overhead_s": sum(overheads_s) / max(len(overheads_s), 1),
        "trace.overhead_frac": sum(overheads_s) / sum(plain_s) if sum(plain_s) > 0 else 0.0,
    })
    return out
