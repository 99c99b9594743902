"""Velocity checks. scipy.signal is the independent oracle for the in-module
Butterworth filter (coefficients and the zero-phase application); the
integration identities come from closed-form calculus."""

import numpy as np
import pytest
import scipy.signal

from repseg.metrics import Segment
from repseg.synth import AX, DEFAULT_PLAN, generate_recording
from repseg.velocity import (
    RepetitionKinematics,
    StillWindowError,
    VelocityParams,
    butter2_lowpass,
    chair_rising_velocity,
    estimate_gravity,
    find_still_window,
    integrate_velocity,
    lowpass,
    per_repetition_kinematics,
)
from oracles import sts_peak_velocity
from test_synth import flat_profile


def test_coefficients_match_scipy():
    b, a = butter2_lowpass(20.0, 100.0)
    b_ref, a_ref = scipy.signal.butter(2, 20.0, fs=100.0)
    assert np.allclose(b, b_ref, atol=1e-14)
    assert np.allclose(a, a_ref, atol=1e-14)


def test_zero_phase_filter_matches_scipy_filtfilt():
    rng = np.random.default_rng(0)
    t = np.arange(600) / 100.0
    x = 9.6 + np.sin(2 * np.pi * 1.3 * t) + 0.3 * np.sin(2 * np.pi * 11 * t) \
        + 0.05 * rng.standard_normal(t.size)
    got = lowpass(x, 20.0, fs=100.0)
    b, a = scipy.signal.butter(2, 20.0, fs=100.0)
    want = scipy.signal.filtfilt(b, a, x)  # default: odd padding, padlen 9
    assert np.abs(got - want).max() < 1e-10


def test_filter_dc_gain_is_unity():
    x = np.full(400, 5.0)
    y = lowpass(x)
    assert np.abs(y - 5.0).max() < 5.0 * 1e-6


@pytest.mark.parametrize("freq,bound,mode", [
    (40.0, 0.1, "below"),   # >= 20 dB attenuation in the stopband
    (2.0, 0.02, "within"),  # passband amplitude preserved within 2%
])
def test_filter_frequency_response(freq, bound, mode):
    t = np.arange(2000) / 100.0
    x = np.sin(2 * np.pi * freq * t)
    y = lowpass(x)
    mid = slice(500, 1500)  # steady section away from the edges
    ratio = np.abs(y[mid]).max() / np.abs(x[mid]).max()
    if mode == "below":
        assert ratio <= bound
    else:
        assert abs(ratio - 1.0) <= bound


def test_filter_is_zero_phase_on_symmetric_pulse():
    t = np.arange(800)
    x = np.exp(-0.5 * ((t - 400) / 25.0) ** 2)
    y = lowpass(x)
    assert abs(int(np.argmax(y)) - 400) <= 1


def test_estimate_gravity():
    const = np.full(120, 9.6)
    assert estimate_gravity(const, (0, 120)) == pytest.approx(9.6, abs=1e-12)

    rng = np.random.default_rng(1)
    noisy = 9.6 + rng.normal(0, 0.05, size=200)
    assert abs(estimate_gravity(noisy, (0, 200)) - 9.6) < 0.01

    rec = generate_recording(flat_profile(g_prime=9.3), DEFAULT_PLAN, seed=2)
    g = estimate_gravity(rec.signal[:, AX], (0, 250))
    assert abs(g - 9.3) < 0.05


def test_still_window_rejection():
    rng = np.random.default_rng(2)
    active = 9.6 + 2.0 * np.sin(np.linspace(0, 20, 300)) \
        + rng.normal(0, 0.3, 300)
    with pytest.raises(StillWindowError) as exc:
        estimate_gravity(active, (0, 300))
    assert exc.value.variance is not None
    assert exc.value.variance >= 0.5

    with pytest.raises(StillWindowError):
        estimate_gravity(np.full(300, 9.6), (0, 30))  # too short
    with pytest.raises(StillWindowError):
        estimate_gravity(np.full(300, 9.6), (250, 310))  # out of bounds


def test_find_still_window():
    rng = np.random.default_rng(3)
    x = np.concatenate([
        9.6 + rng.normal(0, 0.30, 200),
        9.6 + rng.normal(0, 0.02, 200),   # the quietest stretch
        9.6 + 3.0 * np.sin(np.linspace(0, 30, 300)),
    ])
    s0, s1 = find_still_window(x, before=400)
    assert s1 - s0 == 100
    assert 150 <= s0 <= 300

    with pytest.raises(StillWindowError):
        find_still_window(x, before=50)  # no room
    with pytest.raises(StillWindowError):
        find_still_window(3.0 * np.sin(np.linspace(0, 60, 600)))


def test_integrate_constant_acceleration():
    g = 9.6
    a = np.full(150, g)
    a[50:] = g + 1.0  # a' = 1 m/s^2 after the still window
    params = VelocityParams(g_prime=g, still_window=(0, 50))
    v = integrate_velocity(a, params)
    assert np.all(v[:50] == 0.0)
    assert abs(v[-1] - 1.0) < 1e-9  # 100 samples * 1 m/s^2 * 0.01 s
    assert abs(integrate_velocity(np.full(150, g), params)).max() == 0.0


def test_integration_starts_at_still_window():
    g = 9.6
    a = np.full(300, g)
    a[:100] = g + 5.0  # junk before the still region must not integrate
    params = VelocityParams(g_prime=g, still_window=(100, 200))
    v = integrate_velocity(a, params)
    assert np.all(v[:100] == 0.0)
    assert np.abs(v[100:]).max() == 0.0


def test_gravity_error_drifts_linearly():
    g, eps = 9.6, 0.05
    a = np.full(500, g)
    params = VelocityParams(g_prime=g - eps, still_window=(0, 100))
    v = integrate_velocity(a, params)
    t = np.arange(1, 501) * 0.01
    assert np.abs(v - eps * t).max() < 1e-12


def test_integrate_then_differentiate_recovers_acceleration():
    rng = np.random.default_rng(4)
    a_prime = np.concatenate([np.zeros(100), rng.standard_normal(400)])
    g = 9.5
    params = VelocityParams(g_prime=g, still_window=(0, 100))
    v = integrate_velocity(a_prime + g, params)
    recovered = np.diff(v) / 0.01
    assert np.abs(recovered - a_prime[1:]).max() < 1e-9


def test_velocity_params_validation():
    with pytest.raises(ValueError):
        VelocityParams(9.6, (0, 100), dt=0.0)
    with pytest.raises(ValueError):
        VelocityParams(9.6, (100, 100))


def test_per_repetition_kinematics():
    v = np.zeros(600)
    v[100:300] = np.concatenate([np.linspace(0, 1.2, 100),
                                 np.linspace(1.2, 0, 100)])
    segs = [Segment(100, 300, 4)]
    kin = per_repetition_kinematics(v, segs)
    assert len(kin) == 1
    k = kin[0]
    assert k.duration_s == pytest.approx(2.0)
    assert k.peak_speed == pytest.approx(1.2)
    assert k.velocity.shape == (200,)

    assert per_repetition_kinematics(v, []) == []
    with pytest.raises(ValueError):
        per_repetition_kinematics(v, [Segment(0, 10, 2)])  # not a chair class
    with pytest.raises(ValueError):
        per_repetition_kinematics(v, [Segment(550, 700, 4)])  # out of bounds


def test_chair_rising_pipeline_recovers_analytic_peak():
    profile = flat_profile(noise_sigma=0.05, drift_amplitude=0.0, g_prime=9.6)
    rec = generate_recording(profile, [(4, 1)], seed=5)
    result = chair_rising_velocity(rec.signal[:, AX], rec.segments,
                                   sample_rate=rec.sample_rate)

    assert abs(result.g_prime - 9.6) < 0.02
    chair = [s for s in rec.segments if s.class_id in (4, 5)]
    assert result.still_window[0] < chair[0].start
    assert len(result.kinematics) == 2

    first = result.kinematics[0]
    expect = sts_peak_velocity(1.8, first.duration_s)
    assert first.peak_speed == pytest.approx(expect, rel=0.05)
    second = result.kinematics[1]
    expect2 = sts_peak_velocity(1.8, second.duration_s)
    assert second.peak_speed == pytest.approx(expect2, rel=0.08)


def test_chair_rising_manual_still_window_override():
    profile = flat_profile(noise_sigma=0.05, drift_amplitude=0.0)
    rec = generate_recording(profile, [(4, 1)], seed=6)
    result = chair_rising_velocity(rec.signal[:, AX], rec.segments,
                                   still_window=(10, 150))
    assert result.still_window == (10, 150)

    report = result.to_dict()
    assert set(report) == {"g_prime", "still_window", "repetitions"}
    assert len(report["repetitions"]) == 2
