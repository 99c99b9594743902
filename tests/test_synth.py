"""Generator checks: determinism, label placement, chair pairing, duration
bounds, amplitude scaling between profiles, gravity baseline, windowing."""

import numpy as np
import pytest

from repseg.metrics import labels_to_segments
from repseg.synth import (
    AX,
    AY,
    AZ,
    CLASS_NAMES,
    DEFAULT_PLAN,
    N_CLASSES,
    ActivityTemplate,
    Recording,
    SubjectProfile,
    WaveComponent,
    default_templates,
    generate_recording,
    make_cohort,
    make_profile,
    windowize,
)
from oracles import sts_peak_velocity


def flat_profile(subject_id="s00", **over):
    base = dict(
        amp_scale={c: 1.0 for c in range(1, 6)},
        tempo_scale={c: 1.0 for c in range(1, 6)},
        g_prime=9.6, noise_sigma=0.08, drift_amplitude=0.02,
    )
    base.update(over)
    return SubjectProfile(subject_id=subject_id, **base)


def test_default_templates_cover_all_classes():
    templates = default_templates()
    assert [t.class_id for t in templates] == list(range(6))
    assert [t.name for t in templates] == [CLASS_NAMES[c] for c in range(6)]
    assert templates[0].components == ()  # background is unlabeled noise
    for t in templates[1:]:
        assert t.components
        assert t.duration_range[1] <= 8.0


def test_template_validation():
    with pytest.raises(ValueError):
        ActivityTemplate(1, "x", (0.0, 1.0), ())
    with pytest.raises(ValueError):
        ActivityTemplate(1, "x", (1.0, 9.0), ())
    with pytest.raises(ValueError):
        WaveComponent(0, "triangle", 1.0).evaluate(np.linspace(0, 1, 5))


def test_profile_validation():
    with pytest.raises(ValueError):
        flat_profile(amp_scale={1: 1.7})
    with pytest.raises(ValueError):
        flat_profile(g_prime=8.5)


def test_same_seed_bit_identical():
    p = flat_profile()
    a = generate_recording(p, DEFAULT_PLAN, seed=42)
    b = generate_recording(p, DEFAULT_PLAN, seed=42)
    assert np.array_equal(a.signal, b.signal)
    assert np.array_equal(a.labels, b.labels)
    assert a.segments == b.segments
    c = generate_recording(p, DEFAULT_PLAN, seed=43)
    assert not np.array_equal(a.signal, c.signal)


def test_labels_only_on_repetition_spans():
    rec = generate_recording(flat_profile(), DEFAULT_PLAN, seed=1)
    assert labels_to_segments(rec.labels) == rec.segments
    # the lead-in stays background
    assert np.all(rec.labels[:300] == 0)
    assert rec.labels.min() == 0
    # every gap between consecutive segments is background by construction
    for prev, cur in zip(rec.segments, rec.segments[1:]):
        assert prev.end < cur.start
        assert np.all(rec.labels[prev.end:cur.start] == 0)


def test_chair_classes_come_in_pairs():
    rec = generate_recording(flat_profile(), [(4, 5)], seed=2)
    counts = {c: sum(1 for s in rec.segments if s.class_id == c)
              for c in range(1, 6)}
    assert counts[4] == 5
    assert counts[5] == 5
    # alternating order: each sit-to-stand is followed by a stand-to-sit
    chair = [s.class_id for s in rec.segments]
    assert chair == [4, 5] * 5


def test_plan_counts_and_validation():
    rec = generate_recording(flat_profile(), DEFAULT_PLAN, seed=3)
    counts = {c: sum(1 for s in rec.segments if s.class_id == c)
              for c in range(1, 6)}
    assert counts == {1: 4, 2: 4, 3: 3, 4: 3, 5: 3}
    with pytest.raises(ValueError):
        generate_recording(flat_profile(), [], seed=0)
    with pytest.raises(ValueError):
        generate_recording(flat_profile(), [(0, 3)], seed=0)
    with pytest.raises(ValueError):
        generate_recording(flat_profile(), [(7, 3)], seed=0)


def test_durations_respect_template_and_tempo():
    templates = {t.class_id: t for t in default_templates()}
    for tempo in (0.7, 1.3):
        profile = flat_profile(tempo_scale={c: tempo for c in range(1, 6)})
        rec = generate_recording(profile, DEFAULT_PLAN, seed=4)
        for s in rec.segments:
            lo, hi = templates[s.class_id].duration_range
            dur = s.length / rec.sample_rate
            assert lo * tempo - 0.02 <= dur <= hi * tempo + 0.02


def test_amplitude_scales_between_profiles():
    # same seed, zero noise/drift: per-class peak amplitudes scale exactly
    low = flat_profile(amp_scale={c: 0.6 for c in range(1, 6)},
                       noise_sigma=0.0, drift_amplitude=0.0)
    high = flat_profile(amp_scale={c: 1.2 for c in range(1, 6)},
                        noise_sigma=0.0, drift_amplitude=0.0)
    rec_low = generate_recording(low, DEFAULT_PLAN, seed=5)
    rec_high = generate_recording(high, DEFAULT_PLAN, seed=5)
    assert rec_low.segments == rec_high.segments

    baseline = np.zeros(6)
    baseline[AX] = 9.6
    for c in range(1, 6):
        spans = [s for s in rec_low.segments if s.class_id == c]
        peaks_low = np.mean([
            np.abs(rec_low.signal[s.start:s.end] - baseline).max()
            for s in spans])
        peaks_high = np.mean([
            np.abs(rec_high.signal[s.start:s.end] - baseline).max()
            for s in spans])
        assert peaks_high / peaks_low == pytest.approx(2.0, rel=0.10)


def test_gravity_baseline_in_still_lead_in():
    profile = flat_profile(g_prime=9.3)
    rec = generate_recording(profile, DEFAULT_PLAN, seed=6)
    still = rec.signal[:250]
    assert abs(still[:, AX].mean() - 9.3) < 0.05
    for ch in (AY, AZ):
        assert abs(still[:, ch].mean()) < 0.05
    assert still[:, AX].var() < 0.5


def test_sts_peak_velocity_formula():
    assert sts_peak_velocity(1.8, 2.0) == pytest.approx(3.6 / np.pi)
    assert sts_peak_velocity(-1.8, 2.0) == pytest.approx(3.6 / np.pi)


def test_windowize_counts_and_roundtrip():
    rec = generate_recording(flat_profile(), DEFAULT_PLAN, seed=7)
    length = rec.signal.shape[0]

    windows = windowize(rec, 800)
    assert len(windows) == length // 800
    rebuilt = np.concatenate([w.samples for w, _ in windows])
    labels = np.concatenate([lab for _, lab in windows])
    n = len(windows) * 800
    assert np.array_equal(rebuilt, rec.signal[:n])
    assert np.array_equal(labels, rec.labels[:n])

    with pytest.raises(ValueError):
        windowize(rec, length + 1)


def test_default_plan_covers_all_classes_in_windows():
    rec = generate_recording(flat_profile(), DEFAULT_PLAN, seed=8)
    windows = windowize(rec, 800)
    seen = set()
    for _, labels in windows:
        seen |= set(np.unique(labels).tolist())
    assert seen == set(range(N_CLASSES))


def test_make_cohort_deterministic_distinct_profiles():
    recs_a, profs_a = make_cohort(4, seed=9)
    recs_b, profs_b = make_cohort(4, seed=9)
    assert [p.subject_id for p in profs_a] == ["s00", "s01", "s02", "s03"]
    assert len({p.g_prime for p in profs_a}) == 4
    for ra, rb in zip(recs_a, recs_b):
        assert np.array_equal(ra.signal, rb.signal)
        assert np.array_equal(ra.labels, rb.labels)


def test_recording_derives_its_segments_from_its_labels():
    rec = generate_recording(flat_profile(), DEFAULT_PLAN, seed=10)
    assert rec.segments == labels_to_segments(rec.labels)
    with pytest.raises(TypeError):
        Recording(rec.subject_id, rec.signal, rec.labels,
                  segments=rec.segments)
