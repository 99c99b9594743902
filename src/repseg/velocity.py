"""Chair-rising velocity from the vertical accelerometer channel.

Pipeline: estimate the gravity projection g' over a still window, zero-phase
low-pass the channel at 20 Hz, subtract g', and integrate with a cumulative
sum from the still start (v0 = 0). Velocity is NOT re-zeroed between
repetitions of one bout; per-repetition duration and peak |v| are read off
the trace over each chair segment's span.

The filter is a second-order Butterworth built here from the analog
prototype via the prewarped bilinear transform and applied forward-backward
with odd-reflection padding and steady-state initial conditions, so constant
inputs pass through with DC gain 1 and symmetric pulses keep their peak
location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import Segment

__all__ = [
    "VelocityParams",
    "RepetitionKinematics",
    "VelocityResult",
    "StillWindowError",
    "butter2_lowpass",
    "lowpass",
    "estimate_gravity",
    "find_still_window",
    "integrate_velocity",
    "per_repetition_kinematics",
    "chair_rising_velocity",
    "CHAIR_CLASSES",
]

CHAIR_CLASSES = (4, 5)  # sit-to-stand, stand-to-sit

CUTOFF_HZ = 20.0  # low-pass cutoff
PAD_LEN = 9  # odd-reflection samples added at each end before filtering
STILL_VAR_THRESHOLD = 0.5  # (m/s^2)^2
MIN_STILL_SAMPLES = 50
STILL_WIN_LEN = 100  # samples in an auto-selected still window


class StillWindowError(ValueError):
    """The proposed still window is too short or too dynamic."""

    def __init__(self, message: str, variance: float | None = None):
        super().__init__(message)
        self.variance = variance


@dataclass
class VelocityParams:
    g_prime: float
    still_window: tuple[int, int]
    dt: float = 0.01

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        s0, s1 = self.still_window
        if s1 <= s0 or s0 < 0:
            raise ValueError(f"bad still window {self.still_window}")


@dataclass
class RepetitionKinematics:
    class_id: int
    start: int
    end: int
    duration_s: float
    peak_speed: float  # max |v| within [start, end)
    velocity: np.ndarray  # trace slice over the span

    def to_dict(self) -> dict:
        return {
            "class_id": self.class_id, "start": self.start, "end": self.end,
            "duration_s": self.duration_s, "peak_speed": self.peak_speed,
        }


@dataclass
class VelocityResult:
    velocity: np.ndarray
    g_prime: float
    still_window: tuple[int, int]
    kinematics: list[RepetitionKinematics]

    def to_dict(self, include_trace: bool = False) -> dict:
        out = {
            "g_prime": self.g_prime,
            "still_window": list(self.still_window),
            "repetitions": [k.to_dict() for k in self.kinematics],
        }
        if include_trace:
            out["velocity"] = self.velocity.tolist()
        return out


def butter2_lowpass(cutoff_hz: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital (b, a) for the 2nd-order Butterworth low-pass: analog
    prototype s^2 + sqrt(2) s + 1, cutoff prewarped so the -3 dB point
    lands exactly at cutoff_hz after the bilinear transform."""
    if not 0.0 < cutoff_hz < 0.5 * fs:
        raise ValueError(f"cutoff {cutoff_hz} Hz outside (0, {fs / 2}) Hz")
    k = 2.0 * fs
    w = k * np.tan(np.pi * cutoff_hz / fs)  # prewarped analog cutoff
    norm = k * k + np.sqrt(2.0) * w * k + w * w
    b = np.array([w * w, 2.0 * w * w, w * w]) / norm
    a = np.array([
        1.0,
        (2.0 * w * w - 2.0 * k * k) / norm,
        (k * k - np.sqrt(2.0) * w * k + w * w) / norm,
    ])
    return b, a


def _lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray,
             zi: np.ndarray) -> np.ndarray:
    """Direct-form II transposed second-order filter, given initial state."""
    y = np.empty_like(x)
    z1, z2 = zi
    for i, xi in enumerate(x):
        yi = b[0] * xi + z1
        z1 = b[1] * xi - a[1] * yi + z2
        z2 = b[2] * xi - a[2] * yi
        y[i] = yi
    return y


def _steady_state_zi(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """State for which a unit-step input yields a constant (DC) output."""
    g_dc = b.sum() / a.sum()
    z2 = b[2] - a[2] * g_dc
    z1 = b[1] - a[1] * g_dc + z2
    return np.array([z1, z2])


def lowpass(x: np.ndarray, cutoff_hz: float = CUTOFF_HZ,
            fs: float = 100.0) -> np.ndarray:
    """Zero-phase low-pass: filter forward, then backward, over an
    odd-reflection extension with steady-state initial conditions."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expects a 1-D channel, got shape {x.shape}")
    b, a = butter2_lowpass(cutoff_hz, fs)
    if x.size <= PAD_LEN:
        raise ValueError(f"signal too short to filter ({x.size} samples)")
    zi = _steady_state_zi(b, a)

    head = 2.0 * x[0] - x[PAD_LEN:0:-1]
    tail = 2.0 * x[-1] - x[-2:-PAD_LEN - 2:-1]
    ext = np.concatenate([head, x, tail])

    fwd = _lfilter(b, a, ext, zi * ext[0])
    rev = _lfilter(b, a, fwd[::-1], zi * fwd[-1])
    return rev[::-1][PAD_LEN:PAD_LEN + x.size]


def _validate_still(a_x: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    s0, s1 = window
    if s0 < 0 or s1 > a_x.size or s1 - s0 < MIN_STILL_SAMPLES:
        raise StillWindowError(
            f"still window {window} shorter than {MIN_STILL_SAMPLES} samples "
            f"or out of bounds for length {a_x.size}")
    segment = a_x[s0:s1]
    variance = float(segment.var())
    if variance >= STILL_VAR_THRESHOLD:
        raise StillWindowError(
            f"window {window} too dynamic: variance {variance:.4f} >= "
            f"{STILL_VAR_THRESHOLD}", variance=variance)
    return segment


def estimate_gravity(a_x: np.ndarray, still_window: tuple[int, int]) -> float:
    """g' = mean of the vertical channel over a validated still window."""
    a_x = np.asarray(a_x, dtype=np.float64)
    return float(_validate_still(a_x, still_window).mean())


def find_still_window(a_x: np.ndarray,
                      before: int | None = None) -> tuple[int, int]:
    """Lowest-variance stretch of STILL_WIN_LEN samples in a_x[:before].

    Automates the manual initial-point selection; pass an explicit window
    to the callers instead to override."""
    a_x = np.asarray(a_x, dtype=np.float64)
    limit = a_x.size if before is None else min(before, a_x.size)
    if limit < STILL_WIN_LEN:
        raise StillWindowError(f"no room for a {STILL_WIN_LEN}-sample still "
                               f"window before {limit}")
    step = STILL_WIN_LEN // 4
    best_var, best_start = np.inf, None
    for start in range(0, limit - STILL_WIN_LEN + 1, step):
        v = float(a_x[start:start + STILL_WIN_LEN].var())
        if v < best_var:
            best_var, best_start = v, start
    if best_var >= STILL_VAR_THRESHOLD:
        raise StillWindowError(
            f"no still window found: best variance {best_var:.4f} >= "
            f"{STILL_VAR_THRESHOLD}", variance=best_var)
    return (best_start, best_start + STILL_WIN_LEN)


def integrate_velocity(a_x: np.ndarray, params: VelocityParams) -> np.ndarray:
    """v_t = sum_{tau <= t} (a_x - g') * dt from the still-window start.

    Samples before the still start stay 0. The input is expected to be
    filtered already; the still window is re-validated on it."""
    a_x = np.asarray(a_x, dtype=np.float64)
    _validate_still(a_x, params.still_window)
    s0 = params.still_window[0]
    v = np.zeros_like(a_x)
    v[s0:] = np.cumsum(a_x[s0:] - params.g_prime) * params.dt
    return v


def per_repetition_kinematics(velocity: np.ndarray, segments: list[Segment],
                              dt: float = 0.01) -> list[RepetitionKinematics]:
    """Duration and peak |v| for each chair-rising segment."""
    out = []
    for s in segments:
        if s.class_id not in CHAIR_CLASSES:
            raise ValueError(
                f"segment class {s.class_id} is not a chair-rising class")
        if s.end > velocity.size:
            raise ValueError(f"segment {s} outside trace of {velocity.size}")
        trace = velocity[s.start:s.end].copy()
        out.append(RepetitionKinematics(
            class_id=s.class_id, start=s.start, end=s.end,
            duration_s=(s.end - s.start) * dt,
            peak_speed=float(np.abs(trace).max()), velocity=trace))
    return out


def chair_rising_velocity(vertical: np.ndarray, segments: list[Segment],
                          sample_rate: float = 100.0,
                          still_window: tuple[int, int] | None = None
                          ) -> VelocityResult:
    """Full pipeline over one recording's vertical channel.

    Chair segments are taken from `segments` (other classes are ignored);
    the still window is auto-selected before the first chair segment unless
    given explicitly."""
    vertical = np.asarray(vertical, dtype=np.float64)
    chair = [s for s in segments if s.class_id in CHAIR_CLASSES]
    if still_window is None:
        before = chair[0].start if chair else None
        still_window = find_still_window(vertical, before=before)

    g_prime = estimate_gravity(vertical, still_window)
    filtered = lowpass(vertical, fs=sample_rate)
    params = VelocityParams(g_prime=g_prime, still_window=still_window,
                            dt=1.0 / sample_rate)
    v = integrate_velocity(filtered, params)
    kin = per_repetition_kinematics(v, chair, dt=params.dt)
    return VelocityResult(velocity=v, g_prime=g_prime,
                          still_window=still_window, kinematics=kin)
