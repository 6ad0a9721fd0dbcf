"""Radar-style trace preprocessing: calibration, envelopes, truncation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexiwave.config import PreprocessConfig
from convexiwave.errors import AmbiguousExtrema, InvalidInput, ZeroSignal
from convexiwave.fixtures import EXPERIMENTAL_TESTS, synthesize_raw_trace
from convexiwave.grid import Signal
from convexiwave.preprocess import (
    CalibrationResult,
    ContrastSign,
    MediumMode,
    RawTrace,
    _local_extrema,
    calibrate,
    detect_contrast_sign,
    envelope,
    preprocess_pipeline,
    truncate_window,
)


PP = PreprocessConfig()


def _sig(vals, dt=0.1):
    return Signal(0.0, dt, np.asarray(vals, dtype=float))


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_simple_ratio():
    raw = RawTrace(_sig([0.0, 2.0, -1.0]), MediumMode.AIR)
    sim = _sig([0.5, -1.0, 0.25])
    assert calibrate(raw, sim).mu == pytest.approx(0.5)


def test_calibrate_zero_signal():
    raw = RawTrace(_sig([0.0, 0.0]), MediumMode.AIR)
    with pytest.raises(ZeroSignal):
        calibrate(raw, _sig([1.0, 2.0]))


@pytest.mark.parametrize("name", list(EXPERIMENTAL_TESTS))
def test_calibrate_reproduces_stored_mu(name):
    raw, cal, sim_ref = synthesize_raw_trace(name)
    got = calibrate(raw, sim_ref)
    assert abs(got.mu - cal.mu) <= 1e-3 * cal.mu


def test_calibration_result_validation():
    with pytest.raises(ValueError):
        CalibrationResult(mu=0.0)


@pytest.mark.parametrize("mu", [float("inf"), float("nan")])
def test_calibration_result_rejects_a_non_finite_mu(mu):
    with pytest.raises(InvalidInput, match="positive and finite"):
        CalibrationResult(mu=mu)


# ---------------------------------------------------------------------------
# detect_contrast_sign
# ---------------------------------------------------------------------------

def _three_extremum_signal(middle_sign):
    t = np.linspace(0, 4, 200)
    s = (
        1.0 * np.exp(-((t - 1.0) ** 2) / 0.02)
        + 3.0 * middle_sign * np.exp(-((t - 2.0) ** 2) / 0.02)
        + 1.0 * np.exp(-((t - 3.0) ** 2) / 0.02)
    )
    return Signal(0.0, t[1] - t[0], s)


def test_contrast_sign_high():
    assert detect_contrast_sign(_three_extremum_signal(-1.0)) is ContrastSign.HIGH


def test_contrast_sign_low():
    s = _three_extremum_signal(-1.0)
    mirrored = Signal(s.t0, s.dt, -s.samples)
    assert detect_contrast_sign(mirrored) is ContrastSign.LOW


def test_contrast_sign_ambiguous():
    with pytest.raises(AmbiguousExtrema):
        detect_contrast_sign(_sig(np.linspace(0, 1, 50)))


# ---------------------------------------------------------------------------
# _local_extrema
# ---------------------------------------------------------------------------

def _loop_local_extrema(samples):
    """Reference: carry the last nonzero slope across plateaus, then walk back
    from each turn to the plateau's left end."""
    d = np.diff(samples)
    carried = np.sign(d)
    for i in range(1, carried.size):
        if carried[i] == 0:
            carried[i] = carried[i - 1]
    minima, maxima = [], []
    prev = carried[0]
    for i in range(1, carried.size):
        cur = carried[i]
        if cur == prev or cur == 0:
            continue
        j = i
        while j > 0 and d[j - 1] == 0:
            j -= 1
        if prev < 0 < cur:
            minima.append(j)
        elif prev > 0 > cur:
            maxima.append(j)
        prev = cur
    return np.array(minima, dtype=int), np.array(maxima, dtype=int)


@given(
    st.one_of(
        st.lists(st.integers(-2, 2), min_size=2, max_size=39),  # plateau-heavy
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=39),
    )
)
@settings(max_examples=300, deadline=None)
def test_local_extrema_matches_loop_reference(vals):
    v = np.asarray(vals, dtype=float)
    got_min, got_max = _local_extrema(v)
    ref_min, ref_max = _loop_local_extrema(v)
    assert np.array_equal(got_min, ref_min) and got_min.dtype == ref_min.dtype
    assert np.array_equal(got_max, ref_max) and got_max.dtype == ref_max.dtype


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def _brute_force_lower_envelope(v):
    """Per-segment reference: linear hull through local minima and endpoints."""
    n = v.size
    knots = [0]
    for i in range(1, n - 1):
        if v[i] <= v[i - 1] and v[i] <= v[i + 1] and (v[i] < v[i - 1] or v[i] < v[i + 1]):
            knots.append(i)
    knots.append(n - 1)
    knots = sorted(set(knots))
    interp = np.interp(np.arange(n), knots, v[np.array(knots)])
    return np.minimum(interp, v)


def test_lower_envelope_of_sine():
    t = np.linspace(0, 6 * np.pi, 600)
    s = Signal(0.0, t[1] - t[0], np.sin(t))
    env = envelope(s, ContrastSign.HIGH).samples
    between = (t > 1.6 * np.pi) & (t < 3.4 * np.pi)
    assert np.all(env[between] < -0.9)


def test_envelope_monotone_signal_identity():
    s = _sig(np.linspace(3.0, 0.0, 40))
    assert np.allclose(envelope(s, ContrastSign.HIGH).samples, s.samples)


def test_envelope_constant_identity():
    s = _sig(np.full(25, 2.0))
    assert np.allclose(envelope(s, ContrastSign.HIGH).samples, s.samples)
    assert np.allclose(envelope(s, ContrastSign.LOW).samples, s.samples)


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=60))
@settings(max_examples=50, deadline=None)
def test_envelope_properties(vals):
    s = _sig(vals)
    lo = envelope(s, ContrastSign.HIGH).samples
    hi = envelope(s, ContrastSign.LOW).samples
    assert np.all(lo <= s.samples + 1e-12)
    assert np.all(hi >= s.samples - 1e-12)
    # endpoints are always knots
    assert lo[0] == s.samples[0] and lo[-1] == s.samples[-1]


def test_lower_envelope_matches_brute_force():
    rng = np.random.Generator(np.random.Philox(4))
    v = rng.normal(size=80)
    got = envelope(_sig(v), ContrastSign.HIGH).samples
    ref = _brute_force_lower_envelope(v)
    assert np.allclose(got, ref)


# ---------------------------------------------------------------------------
# truncate_window
# ---------------------------------------------------------------------------

def test_truncate_zero_signal():
    s = _sig(np.zeros(30))
    assert np.array_equal(truncate_window(s, half_width_steps=10).samples, s.samples)


def test_truncate_spike_preserved():
    v = np.zeros(60)
    v[30] = -2.0
    out = truncate_window(_sig(v), half_width_steps=10).samples
    assert out[30] == -2.0
    assert np.all(out[:20] == 0.0) and np.all(out[41:] == 0.0)


@given(st.integers(0, 59))
@settings(max_examples=30, deadline=None)
def test_truncate_support_and_idempotence(k):
    v = np.zeros(60)
    v[k] = 1.0
    s = _sig(v)
    out = truncate_window(s, half_width_steps=5)
    nz = np.nonzero(out.samples)[0]
    assert np.all(np.abs(nz - k) <= 5)
    again = truncate_window(out, half_width_steps=5)
    assert np.array_equal(again.samples, out.samples)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_scale_equivariance():
    raw, cal, _ = synthesize_raw_trace("bush")
    k = 7.0
    scaled_raw = RawTrace(
        Signal(raw.signal.t0, raw.signal.dt, k * raw.signal.samples), raw.medium_mode
    )
    scaled_cal = CalibrationResult(mu=cal.mu / k)
    d1 = preprocess_pipeline(raw, cal, PP.half_width_steps, PP.diff_reg)
    d2 = preprocess_pipeline(scaled_raw, scaled_cal, PP.half_width_steps, PP.diff_reg)
    assert np.allclose(d1.g0.samples, d2.g0.samples)
    assert np.allclose(d1.g1.samples, d2.g1.samples)


def test_pipeline_outputs_total_wave():
    raw, cal, _ = synthesize_raw_trace("wood")
    d = preprocess_pipeline(raw, cal, PP.half_width_steps, PP.diff_reg)
    # away from the event the total wave is the 1/2 background
    assert d.g0.samples[0] == pytest.approx(0.5, abs=1e-9)
    assert d.g0.samples[-1] == pytest.approx(0.5, abs=1e-9)
    assert np.min(d.g0.samples) < 0.5  # denser-than-background reflection


def test_pipeline_ground_mode_uses_detection():
    raw, cal, _ = synthesize_raw_trace("plastic")
    d = preprocess_pipeline(raw, cal, PP.half_width_steps, PP.diff_reg)
    # low-contrast target: upper envelope, positive excursion
    assert np.max(d.g0.samples) > 0.5
