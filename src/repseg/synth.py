"""Synthetic labeled 6-channel inertial recordings.

Stands in for recorded exercise data: each foreground class is a short
template waveform (half-sine bumps or biphasic full-sine pulses routed to
characteristic channels) placed between unlabeled background gaps, riding on
a per-subject gravity offset on the vertical accelerometer axis plus sensor
noise and a slow drift. Channel order: ax (vertical), ay, az, gx, gy, gz;
accelerometers in m/s^2, gyroscopes in deg/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import Segment, labels_to_segments
from .model import SignalWindow

__all__ = [
    "CLASS_NAMES",
    "N_CLASSES",
    "DEFAULT_PLAN",
    "WaveComponent",
    "ActivityTemplate",
    "SubjectProfile",
    "Recording",
    "default_templates",
    "make_profile",
    "generate_recording",
    "make_cohort",
    "windowize",
]

CLASS_NAMES = {
    0: "background",
    1: "heels_up_down",
    2: "knees_flexion_extension",
    3: "trunk_flexion_extension",
    4: "sit_to_stand",
    5: "stand_to_sit",
}
N_CLASSES = 6

# bouts of (class_id, repetitions); class 4 bouts emit sit-to-stand and
# stand-to-sit repetitions in pairs, so both chair classes stay balanced
DEFAULT_PLAN = [(1, 4), (2, 4), (3, 3), (4, 3)]

SAMPLE_RATE = 100.0  # Hz
LEAD_IN_S = 3.0  # background before the first bout
REST_S = 2.0  # background after each bout

AX, AY, AZ, GX, GY, GZ = range(6)


@dataclass(frozen=True)
class WaveComponent:
    """One additive waveform on one channel, parameterized over the
    repetition's unit interval u in [0, 1]."""

    channel: int
    shape: str  # "half_sine" (single bump) or "full_sine" (biphasic)
    amplitude: float

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        if self.shape == "half_sine":
            return self.amplitude * np.sin(np.pi * u)
        if self.shape == "full_sine":
            return self.amplitude * np.sin(2.0 * np.pi * u)
        raise ValueError(f"unknown waveform shape {self.shape!r}")


@dataclass(frozen=True)
class ActivityTemplate:
    class_id: int
    name: str
    duration_range: tuple[float, float]  # seconds
    components: tuple[WaveComponent, ...]
    noise_sigma: float = 0.02  # extra in-activity jitter

    def __post_init__(self):
        lo, hi = self.duration_range
        if not 0.0 < lo <= hi:
            raise ValueError(f"bad duration range {self.duration_range}")
        if hi > 8.0:
            raise ValueError("repetitions must fit one 8 s window")


def default_templates() -> list[ActivityTemplate]:
    """Six templates: background plus the five exercise repetition shapes.

    Channel routing keeps classes separable: heels ride the vertical
    accelerometer, knees the sagittal accelerometer + gyro, trunk is
    gyro-dominant, and the chair transitions are biphasic vertical pulses
    with opposite signs.
    """
    return [
        ActivityTemplate(0, CLASS_NAMES[0], (1.0, 8.0), (), noise_sigma=0.0),
        ActivityTemplate(1, CLASS_NAMES[1], (1.0, 2.0), (
            WaveComponent(AX, "half_sine", 1.5),
            WaveComponent(GY, "half_sine", 15.0),
        )),
        ActivityTemplate(2, CLASS_NAMES[2], (1.5, 3.0), (
            WaveComponent(AZ, "half_sine", 1.2),
            WaveComponent(GX, "half_sine", 30.0),
        )),
        ActivityTemplate(3, CLASS_NAMES[3], (2.0, 4.0), (
            WaveComponent(GY, "full_sine", 60.0),
            WaveComponent(AY, "half_sine", 0.8),
        )),
        ActivityTemplate(4, CLASS_NAMES[4], (1.0, 3.0), (
            WaveComponent(AX, "full_sine", 1.8),
            WaveComponent(GY, "half_sine", 25.0),
        )),
        ActivityTemplate(5, CLASS_NAMES[5], (1.0, 3.0), (
            WaveComponent(AX, "full_sine", -1.8),
            WaveComponent(GY, "half_sine", -25.0),
        )),
    ]


@dataclass
class SubjectProfile:
    subject_id: str
    amp_scale: dict[int, float]
    tempo_scale: dict[int, float]
    gap_range_s: tuple[float, float] = (0.8, 1.6)
    g_prime: float = 9.6
    noise_sigma: float = 0.08
    drift_amplitude: float = 0.02

    def __post_init__(self):
        for scales in (self.amp_scale, self.tempo_scale):
            for c, v in scales.items():
                if not 0.5 <= v <= 1.5:
                    raise ValueError(f"scale {v} for class {c} outside [0.5, 1.5]")
        if not 9.0 <= self.g_prime <= 9.8:
            raise ValueError(f"g_prime {self.g_prime} outside [9.0, 9.8]")

    def to_dict(self) -> dict:
        return {
            "subject_id": self.subject_id,
            "amp_scale": {str(c): v for c, v in self.amp_scale.items()},
            "tempo_scale": {str(c): v for c, v in self.tempo_scale.items()},
            "gap_range_s": list(self.gap_range_s),
            "g_prime": self.g_prime,
            "noise_sigma": self.noise_sigma,
            "drift_amplitude": self.drift_amplitude,
        }


@dataclass
class Recording:
    subject_id: str
    signal: np.ndarray  # (L, 6)
    labels: np.ndarray  # (L,)
    segments: list[Segment] = field(init=False)  # runs of `labels`
    sample_rate: float = 100.0

    def __post_init__(self):
        if self.signal.ndim != 2 or self.signal.shape[1] != 6:
            raise ValueError(f"signal must be (L, 6), got {self.signal.shape}")
        if self.labels.shape != (self.signal.shape[0],):
            raise ValueError("labels and signal lengths differ")
        self.segments = labels_to_segments(self.labels)


def make_profile(subject_id: str, rng: np.random.Generator) -> SubjectProfile:
    """Random subject within the allowed variation bounds."""
    classes = range(1, N_CLASSES)
    return SubjectProfile(
        subject_id=subject_id,
        amp_scale={c: float(rng.uniform(0.7, 1.3)) for c in classes},
        tempo_scale={c: float(rng.uniform(0.7, 1.3)) for c in classes},
        gap_range_s=(0.8, 1.6),
        g_prime=float(rng.uniform(9.1, 9.75)),
        noise_sigma=float(rng.uniform(0.05, 0.12)),
        drift_amplitude=float(rng.uniform(0.01, 0.03)),
    )


def generate_recording(profile: SubjectProfile, plan: list[tuple[int, int]],
                       seed: int) -> Recording:
    """Deterministic labeled recording for one subject.

    The plan lists (class_id, repetitions) bouts. A class-4 bout alternates
    sit-to-stand and stand-to-sit so the chair classes come in equal counts.
    Repetition spans carry their class label; gaps, the lead-in, and the
    rests between bouts stay background.
    """
    if not plan:
        raise ValueError("plan is empty")
    rng = np.random.default_rng(seed)
    by_class = {t.class_id: t for t in default_templates()}

    reps: list[int] = []  # class sequence, chair bouts expanded into pairs
    bouts: list[list[int]] = []
    for class_id, count in plan:
        if class_id not in by_class or class_id == 0:
            raise ValueError(f"plan references unknown class {class_id}")
        if count < 1:
            raise ValueError(f"bout repetition count must be >= 1")
        if class_id == 4:
            bouts.append([4, 5] * count)
        else:
            bouts.append([class_id] * count)

    fs = SAMPLE_RATE
    chunks: list[np.ndarray] = []
    label_chunks: list[np.ndarray] = []

    def background(n: int):
        block = rng.normal(0.0, profile.noise_sigma, size=(n, 6))
        chunks.append(block)
        label_chunks.append(np.zeros(n, dtype=np.int64))

    background(int(round(LEAD_IN_S * fs)))
    for bout in bouts:
        for class_id in bout:
            tpl = by_class[class_id]
            gap = rng.uniform(*profile.gap_range_s)
            background(int(round(gap * fs)))

            dur = rng.uniform(*tpl.duration_range) * \
                profile.tempo_scale.get(class_id, 1.0)
            n = max(int(round(dur * fs)), 2)
            u = (np.arange(n) + 0.5) / n
            block = rng.normal(0.0, profile.noise_sigma, size=(n, 6))
            if tpl.noise_sigma:
                block += rng.normal(0.0, tpl.noise_sigma, size=(n, 6))
            for comp in tpl.components:
                block[:, comp.channel] += \
                    profile.amp_scale.get(class_id, 1.0) * comp.evaluate(u)
            chunks.append(block)
            label_chunks.append(np.full(n, class_id, dtype=np.int64))
        background(int(round(REST_S * fs)))

    signal = np.concatenate(chunks)
    labels = np.concatenate(label_chunks)

    # gravity on the vertical axis plus a slow accelerometer drift
    length = signal.shape[0]
    t = np.arange(length) / fs
    signal[:, AX] += profile.g_prime
    for ch in (AX, AY, AZ):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        signal[:, ch] += profile.drift_amplitude * \
            np.sin(2.0 * np.pi * 0.05 * t + phase)

    return Recording(profile.subject_id, signal, labels, sample_rate=fs)


def make_cohort(n_subjects: int, plan: list[tuple[int, int]] | None = None,
                seed: int = 0) -> tuple[list[Recording], list[SubjectProfile]]:
    """Independent subjects from one master seed (stable per-subject seeds)."""
    if n_subjects < 1:
        raise ValueError(f"need at least 1 subject, got {n_subjects}")
    plan = plan if plan is not None else DEFAULT_PLAN
    recordings, profiles = [], []
    children = np.random.SeedSequence(seed).spawn(n_subjects)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        profile = make_profile(f"s{i:02d}", rng)
        rec_seed = int(rng.integers(0, 2 ** 31))
        recordings.append(generate_recording(profile, plan, rec_seed))
        profiles.append(profile)
    return recordings, profiles


def windowize(rec: Recording,
              window_len: int) -> list[tuple[SignalWindow, np.ndarray]]:
    """Non-overlapping windows; a tail shorter than one window is dropped."""
    if window_len < 1:
        raise ValueError("window_len must be positive")
    length = rec.signal.shape[0]
    if length < window_len:
        raise ValueError(
            f"recording of {length} samples is shorter than one window "
            f"({window_len})")
    out = []
    for start in range(0, length - window_len + 1, window_len):
        sl = slice(start, start + window_len)
        out.append((SignalWindow(rec.signal[sl].copy(), rec.sample_rate),
                    rec.labels[sl].copy()))
    return out
