"""Evaluation metrics for per-sample activity predictions.

Three layers: sample-wise one-vs-rest F1, segment-wise F1 where a predicted
segment must overlap a true segment with IoU above a threshold to count, and
repetition-count agreement across subjects (mean +/- 2 std of count
differences). Plus a row-normalized confusion matrix.

Segment matching is one-to-one and greedy by descending IoU over all
same-class candidate pairs (ties: earlier truth start, then earlier
prediction start). The matching is computed once, independent of the
threshold, so raising the threshold never increases the matched-pair count
that clears it; at thresholds >= 0.5 the greedy set provably attains the
maximum achievable number of supra-threshold pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Segment",
    "ClassScore",
    "ClassF1Report",
    "LoaEntry",
    "LoaReport",
    "labels_to_segments",
    "validate_segments",
    "iou",
    "match_segments",
    "sample_f1",
    "segmental_iou_f1",
    "confusion_matrix",
    "count_segments",
    "count_loa",
]


@dataclass(frozen=True)
class Segment:
    """Half-open sample span [start, end) carrying one foreground class."""

    start: int
    end: int
    class_id: int

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError(f"segment end must exceed start: {self}")

    @property
    def length(self) -> int:
        return self.end - self.start


def validate_segments(segments: list[Segment]) -> None:
    """Sorted, non-overlapping, maximal runs (touching same-class is invalid)."""
    for prev, cur in zip(segments, segments[1:]):
        if cur.start < prev.end:
            raise ValueError(f"segments overlap or are unsorted: {prev} {cur}")
        if cur.start == prev.end and cur.class_id == prev.class_id:
            raise ValueError(
                f"adjacent same-class segments must be merged: {prev} {cur}")


def labels_to_segments(labels: np.ndarray, background: int = 0) -> list[Segment]:
    """Maximal constant-class runs, background excluded."""
    labels = np.asarray(labels)
    segments = []
    start = None
    current = background
    for i, lab in enumerate(labels):
        if lab != current:
            if current != background:
                segments.append(Segment(start, i, int(current)))
            start, current = i, lab
    if current != background:
        segments.append(Segment(start, len(labels), int(current)))
    return segments


def iou(a: Segment, b: Segment) -> float:
    inter = max(0, min(a.end, b.end) - max(a.start, b.start))
    union = a.length + b.length - inter
    return inter / union


def match_segments(truth: list[Segment],
                   pred: list[Segment]) -> list[tuple[int, int, float]]:
    """One-to-one pairs (truth_idx, pred_idx, iou), same class, IoU > 0.

    Greedy by descending IoU over all candidates; ties broken by truth
    start, then prediction start. Returned sorted by truth index.
    """
    candidates = []
    for ti, t in enumerate(truth):
        for pi, p in enumerate(pred):
            if t.class_id != p.class_id:
                continue
            ov = iou(t, p)
            if ov > 0.0:
                candidates.append((-ov, t.start, p.start, ti, pi))
    candidates.sort()
    used_t, used_p = set(), set()
    pairs = []
    for neg_ov, _ts, _ps, ti, pi in candidates:
        if ti in used_t or pi in used_p:
            continue
        used_t.add(ti)
        used_p.add(pi)
        pairs.append((ti, pi, -neg_ov))
    pairs.sort()
    return pairs


@dataclass(frozen=True)
class ClassScore:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "ClassScore":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2.0 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        return cls(tp, fp, fn, precision, recall, f1)


@dataclass
class ClassF1Report:
    """Per-class scores; classes absent from truth AND prediction are None
    and excluded from the macro average."""

    per_class: dict[int, ClassScore | None]
    macro_f1: float | None = field(init=False)

    def __post_init__(self):
        scores = [s.f1 for s in self.per_class.values() if s is not None]
        self.macro_f1 = float(np.mean(scores)) if scores else None

    def to_dict(self) -> dict:
        return {
            "per_class": {
                str(c): None if s is None else {
                    "tp": s.tp, "fp": s.fp, "fn": s.fn,
                    "precision": s.precision, "recall": s.recall, "f1": s.f1,
                } for c, s in self.per_class.items()
            },
            "macro_f1": self.macro_f1,
        }


def sample_f1(truth: np.ndarray, pred: np.ndarray,
              n_classes: int) -> ClassF1Report:
    """One-vs-rest per-sample counts for every class id in [0, n_classes)."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError(
            f"label sequences must be equal-length 1-D, got "
            f"{truth.shape} and {pred.shape}")
    per_class: dict[int, ClassScore | None] = {}
    for c in range(n_classes):
        t, p = truth == c, pred == c
        tp = int(np.sum(t & p))
        fp = int(np.sum(~t & p))
        fn = int(np.sum(t & ~p))
        per_class[c] = ClassScore.from_counts(tp, fp, fn) if tp + fp + fn \
            else None
    return ClassF1Report(per_class)


def segmental_iou_f1(truth_segs: list[Segment], pred_segs: list[Segment],
                     threshold: float = 0.75,
                     n_classes: int | None = None) -> ClassF1Report:
    """Segment-level F1 at an IoU threshold.

    Matched pairs at or above the threshold are true positives. A matched
    pair below it counts once: as a false positive if the true segment is
    strictly shorter than the predicted one, else as a false negative
    (equal lengths fall on the false-negative side). Unmatched predictions
    are false positives; unmatched true segments are false negatives.
    """
    validate_segments(truth_segs)
    validate_segments(pred_segs)
    pairs = match_segments(truth_segs, pred_segs)
    matched_t = {ti for ti, _, _ in pairs}
    matched_p = {pi for _, pi, _ in pairs}

    classes = {s.class_id for s in truth_segs} | {s.class_id for s in pred_segs}
    if n_classes is not None:
        classes |= set(range(1, n_classes))
    counts = {c: [0, 0, 0] for c in sorted(classes)}  # tp, fp, fn

    for ti, pi, ov in pairs:
        c = truth_segs[ti].class_id
        if ov >= threshold:
            counts[c][0] += 1
        elif truth_segs[ti].length < pred_segs[pi].length:
            counts[c][1] += 1
        else:
            counts[c][2] += 1
    for pi, p in enumerate(pred_segs):
        if pi not in matched_p:
            counts[p.class_id][1] += 1
    for ti, t in enumerate(truth_segs):
        if ti not in matched_t:
            counts[t.class_id][2] += 1

    per_class = {
        c: ClassScore.from_counts(*cnt) if sum(cnt) else None
        for c, cnt in counts.items()
    }
    return ClassF1Report(per_class)


def confusion_matrix(truth: np.ndarray, pred: np.ndarray, n_classes: int,
                     normalize: bool = True) -> np.ndarray:
    """Rows are true classes. Normalized rows sum to 1; empty rows stay 0."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError("label sequences must be equal-length 1-D")
    counts = np.zeros((n_classes, n_classes))
    np.add.at(counts, (truth, pred), 1.0)
    if not normalize:
        return counts
    row_sum = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, row_sum, out=np.zeros_like(counts),
                     where=row_sum > 0)


def count_segments(segments: list[Segment], class_id: int) -> int:
    """Repetition count for a class: its segments, however short."""
    return sum(1 for s in segments if s.class_id == class_id)


@dataclass(frozen=True)
class LoaEntry:
    mean_diff: float
    std_diff: float
    lower: float
    upper: float
    pairs: tuple  # per-subject (true_count, predicted_count)


@dataclass
class LoaReport:
    per_class: dict[int, LoaEntry]

    def to_dict(self) -> dict:
        return {
            "ddof": 0,  # population std
            "per_class": {
                str(c): {
                    "mean_diff": e.mean_diff, "std_diff": e.std_diff,
                    "lower": e.lower, "upper": e.upper,
                    "pairs": [list(p) for p in e.pairs],
                } for c, e in self.per_class.items()
            },
        }


def count_loa(per_subject: list[tuple[list[Segment], list[Segment]]],
              n_classes: int) -> LoaReport:
    """Limits of agreement on per-subject repetition counts.

    For each foreground class, difference = true - predicted per subject;
    the interval is mean +/- 2 std (population std). Needs at least two
    subjects.
    """
    if len(per_subject) < 2:
        raise ValueError("count_loa needs >= 2 subjects")
    report: dict[int, LoaEntry] = {}
    for c in range(1, n_classes):
        pairs = []
        for truth_segs, pred_segs in per_subject:
            pairs.append((count_segments(truth_segs, c),
                          count_segments(pred_segs, c)))
        diffs = np.array([t - p for t, p in pairs], dtype=np.float64)
        mean = float(diffs.mean())
        std = float(diffs.std())
        report[c] = LoaEntry(mean, std, mean - 2.0 * std, mean + 2.0 * std,
                             tuple(pairs))
    return LoaReport(report)
