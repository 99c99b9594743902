"""Metric checks: hand-counted cases, brute-force oracles (per-sample loops,
rescan matching, exhaustive matching enumeration), and the stated edge rules
for sub-threshold pairs, absent classes, and count agreement."""

import numpy as np
import pytest

import oracles
from repseg.metrics import (
    ClassScore,
    Segment,
    confusion_matrix,
    count_loa,
    count_segments,
    iou,
    labels_to_segments,
    match_segments,
    sample_f1,
    segmental_iou_f1,
    validate_segments,
)


def seg(*triples):
    return [Segment(*t) for t in triples]


def test_labels_to_segments_examples():
    assert labels_to_segments(np.array([0, 0, 1, 1, 1, 0, 2])) == \
        seg((2, 5, 1), (6, 7, 2))
    assert labels_to_segments(np.zeros(10, dtype=int)) == []
    assert labels_to_segments(np.array([3, 3, 3])) == seg((0, 3, 3))


def test_segment_roundtrip_property():
    rng = np.random.default_rng(0)
    for _ in range(25):
        truth, _ = oracles.random_label_case(rng)
        labels = np.array(truth)
        segs = labels_to_segments(labels)
        validate_segments(segs)
        back = oracles.segments_to_labels(segs, len(labels))
        assert np.array_equal(back, labels)
        assert labels_to_segments(back) == segs


def test_validate_segments_rejects_bad_lists():
    with pytest.raises(ValueError):
        Segment(5, 5, 1)  # empty span
    with pytest.raises(ValueError):
        validate_segments(seg((0, 10, 1), (5, 15, 2)))  # overlap
    with pytest.raises(ValueError):
        validate_segments(seg((10, 20, 1), (0, 5, 2)))  # unsorted
    with pytest.raises(ValueError):
        validate_segments(seg((0, 10, 1), (10, 20, 1)))  # touching same class
    validate_segments(seg((0, 10, 1), (10, 20, 2)))  # touching, new class: ok


def test_iou_values():
    assert iou(Segment(10, 20, 1), Segment(10, 20, 1)) == 1.0
    assert iou(Segment(0, 8, 1), Segment(4, 12, 1)) == pytest.approx(4 / 12)
    assert iou(Segment(0, 5, 1), Segment(5, 10, 1)) == 0.0


def test_sample_f1_hand_case():
    rep = sample_f1(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 0]), 6)
    c1 = rep.per_class[1]
    assert (c1.precision, c1.recall) == (1.0, 0.5)
    assert c1.f1 == pytest.approx(2 / 3)
    assert rep.per_class[2] is None  # absent from both sides
    assert {c for c, s in rep.per_class.items() if s is not None} \
        == {0, 1}

    y = np.array([0, 1, 2, 3])
    perfect = sample_f1(y, y, 6)
    assert all(perfect.per_class[c].f1 == 1.0 for c in range(4))
    assert perfect.macro_f1 == 1.0


def test_sample_f1_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        truth, pred = oracles.random_label_case(rng, length=200, max_per_class=None)
        rep = sample_f1(np.array(truth), np.array(pred), 4)
        ref = oracles.sample_counts_ref(truth, pred, 4)
        for c, (tp, fp, fn) in ref.items():
            if tp + fp + fn == 0:
                assert rep.per_class[c] is None
                continue
            score = rep.per_class[c]
            assert (score.tp, score.fp, score.fn) == (tp, fp, fn)
            assert (score.precision, score.recall, score.f1) == \
                oracles.prf_ref(tp, fp, fn)


def test_segmental_identical_lists_perfect():
    truth = seg((2, 30, 1), (40, 70, 2), (80, 95, 1))
    rep = segmental_iou_f1(truth, list(truth))
    assert rep.per_class[1].f1 == 1.0
    assert rep.per_class[2].f1 == 1.0
    assert rep.macro_f1 == 1.0


def test_segmental_subthreshold_tie_is_fn():
    # IoU 1/3 < 0.75, equal lengths: one FN, no FP
    rep = segmental_iou_f1(seg((0, 8, 1)), seg((4, 12, 1)))
    score = rep.per_class[1]
    assert (score.tp, score.fp, score.fn) == (0, 0, 1)

    # strictly shorter truth: the error lands on the FP side
    rep = segmental_iou_f1(seg((0, 6, 1)), seg((2, 12, 1)))
    score = rep.per_class[1]
    assert (score.tp, score.fp, score.fn) == (0, 1, 0)


def test_segmental_matching_is_global_not_in_order():
    # the early truth segment barely overlaps the prediction; the later one
    # is an excellent match and must win it
    truth = seg((0, 50, 1), (52, 100, 1))
    pred = seg((46, 100, 1))
    pairs = match_segments(truth, pred)
    assert pairs == [(1, 0, pytest.approx(48 / 54))]
    rep = segmental_iou_f1(truth, pred, threshold=0.75)
    assert (rep.per_class[1].tp, rep.per_class[1].fn) == (1, 1)


def test_segmental_classes_never_cross_match():
    rep = segmental_iou_f1(seg((0, 10, 1)), seg((0, 10, 2)))
    assert (rep.per_class[1].tp, rep.per_class[1].fn) == (0, 1)
    assert (rep.per_class[2].tp, rep.per_class[2].fp) == (0, 1)


def test_segmental_report_matches_rescan_and_exhaustive_oracles():
    rng = np.random.default_rng(2)
    for _ in range(40):
        truth_l, pred_l = oracles.random_label_case(rng)
        truth = labels_to_segments(np.array(truth_l))
        pred = labels_to_segments(np.array(pred_l))

        rep = segmental_iou_f1(truth, pred, threshold=0.75)
        ref = oracles.segmental_report_ref(truth, pred, 0.75)
        for c, entry in ref.items():
            if entry is None:
                assert rep.per_class[c] is None
                continue
            s = rep.per_class[c]
            assert (s.tp, s.fp, s.fn, s.precision, s.recall, s.f1) == entry

        got_tp = sum(s.tp for s in rep.per_class.values() if s)
        assert got_tp == oracles.max_tp_exhaustive(truth, pred, 0.75)


def test_segmental_tp_monotone_in_threshold():
    rng = np.random.default_rng(3)
    for _ in range(20):
        truth_l, pred_l = oracles.random_label_case(rng)
        truth = labels_to_segments(np.array(truth_l))
        pred = labels_to_segments(np.array(pred_l))
        tps = []
        for thr in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
            rep = segmental_iou_f1(truth, pred, threshold=thr)
            tps.append(sum(s.tp for s in rep.per_class.values() if s))
        assert all(a >= b for a, b in zip(tps, tps[1:]))


def test_confusion_matrix_properties():
    rng = np.random.default_rng(4)
    truth, pred = oracles.random_label_case(rng, length=150, max_per_class=None)
    truth_a, pred_a = np.array(truth), np.array(pred)

    counts = confusion_matrix(truth_a, pred_a, 4, normalize=False)
    ref_counts, ref_norm = oracles.confusion_ref(truth, pred, 4)
    assert np.array_equal(counts, np.array(ref_counts, dtype=float))
    assert counts.sum() == len(truth)

    norm = confusion_matrix(truth_a, pred_a, 4)
    assert np.allclose(norm, ref_norm, atol=0)
    supported = counts.sum(axis=1) > 0
    assert np.abs(norm[supported].sum(axis=1) - 1.0).max() < 1e-12
    assert np.all(norm[~supported] == 0.0)

    # diagonal of the normalized matrix is exactly per-class recall
    rep = sample_f1(truth_a, pred_a, 4)
    for c in range(4):
        if rep.per_class[c] is not None and (truth_a == c).any():
            assert norm[c, c] == rep.per_class[c].recall

    y = np.array([0, 1, 2, 2])
    ident = confusion_matrix(y, y, 4)
    assert np.array_equal(ident[:3, :3], np.eye(3))


def test_count_loa_hand_cases():
    subj = [(seg((0, 10, 1)), seg((0, 10, 1))),
            (seg((0, 12, 1)), seg((0, 12, 1)))]
    rep = count_loa(subj, n_classes=2)
    entry = rep.per_class[1]
    assert (entry.mean_diff, entry.std_diff) == (0.0, 0.0)
    assert (entry.lower, entry.upper) == (0.0, 0.0)

    # diffs {-1, 0, +1}: population std sqrt(2/3), interval 0 +/- 1.633
    subj = [
        (seg((0, 10, 1)), seg((0, 10, 1), (20, 30, 1))),   # 1 - 2 = -1
        (seg((0, 10, 1)), seg((0, 10, 1))),                # 0
        (seg((0, 10, 1), (20, 30, 1)), seg((0, 10, 1))),   # +1
    ]
    rep = count_loa(subj, n_classes=2)
    entry = rep.per_class[1]
    assert entry.mean_diff == 0.0
    assert entry.std_diff == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
    assert entry.upper == pytest.approx(1.632993, abs=1e-6)
    assert entry.pairs == ((1, 2), (1, 1), (2, 1))
    assert rep.to_dict()["ddof"] == 0


def test_count_loa_order_invariant_and_validation():
    subj = [
        (seg((0, 10, 1)), seg((0, 10, 1), (20, 30, 1))),
        (seg((0, 10, 1)), []),
        (seg((0, 10, 1), (20, 30, 1)), seg((0, 10, 1))),
    ]
    a = count_loa(subj, n_classes=2).per_class[1]
    b = count_loa(subj[::-1], n_classes=2).per_class[1]
    assert (a.mean_diff, a.std_diff) == (b.mean_diff, b.std_diff)

    with pytest.raises(ValueError):
        count_loa(subj[:1], n_classes=2)


def test_count_segments_counts_every_fragment():
    segs = seg((0, 3, 1), (10, 40, 1), (50, 52, 1))
    assert count_segments(segs, 1) == 3
    subj = [(seg((0, 30, 1)), segs), (seg((0, 30, 1)), seg((0, 30, 1)))]
    assert count_loa(subj, n_classes=2).per_class[1].pairs[0] == (1, 3)


def test_class_score_zero_division_conventions():
    s = ClassScore.from_counts(0, 0, 3)
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
    s = ClassScore.from_counts(0, 2, 0)
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
