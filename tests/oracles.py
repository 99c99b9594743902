"""Brute-force reference implementations for the metric suite and the
dataset CSV format.

Everything here recomputes results from first principles with plain loops,
structured differently from the package code: per-sample counting for F1 and
the confusion matrix, a repeated-argmax rescan over an explicit IoU matrix
for segment matching, a bitmask DP that enumerates every one-to-one matching
for the maximum achievable true-positive count, direct sum arithmetic for
the limits of agreement, a row-by-row `csv.writer` for a subject's CSV, and
a one-shot SHA-256 of a checkpoint payload's whole canonical JSON text.

Also helpers only the tests use: labels painted from segments (the inverse
of `labels_to_segments`), the closed-form peak of a sit-to-stand velocity,
a checked read of a run report, and a model's sample accuracy on windows.
"""

from functools import lru_cache
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from repseg.dataio import check_report_structure
from repseg.metrics import Segment, validate_segments
from repseg.train import predict


def iou_ref(t: Segment, p: Segment) -> float:
    inter = max(0, min(t.end, p.end) - max(t.start, p.start))
    if inter == 0:
        return 0.0
    return inter / (t.length + p.length - inter)


def sample_counts_ref(truth, pred, n_classes):
    """Per-class (tp, fp, fn) by explicit per-sample loops."""
    out = {}
    for c in range(n_classes):
        tp = fp = fn = 0
        for t, p in zip(truth, pred):
            if t == c and p == c:
                tp += 1
            elif t != c and p == c:
                fp += 1
            elif t == c and p != c:
                fn += 1
        out[c] = (tp, fp, fn)
    return out


def prf_ref(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def confusion_ref(truth, pred, n_classes):
    counts = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(truth, pred):
        counts[t][p] += 1
    norm = []
    for row in counts:
        s = sum(row)
        norm.append([v / s if s else 0.0 for v in row])
    return counts, norm


def match_rescan_ref(truth, pred):
    """Repeated global argmax over the candidate IoU matrix; same pairing
    rule as the package (descending IoU, ties by truth then pred start) via
    a different algorithm."""
    cand = {}
    for ti, t in enumerate(truth):
        for pi, p in enumerate(pred):
            if t.class_id == p.class_id:
                ov = iou_ref(t, p)
                if ov > 0.0:
                    cand[(ti, pi)] = ov
    pairs = []
    while cand:
        best_key, best = None, None
        for (ti, pi), ov in cand.items():
            key = (-ov, truth[ti].start, pred[pi].start, ti, pi)
            if best_key is None or key < best_key:
                best_key, best = key, (ti, pi, ov)
        pairs.append(best)
        ti0, pi0, _ = best
        cand = {k: v for k, v in cand.items()
                if k[0] != ti0 and k[1] != pi0}
    return sorted(pairs)


def segmental_report_ref(truth, pred, threshold, n_classes=None):
    """Full per-class (tp, fp, fn, precision, recall, f1) via the rescan
    matching and the stated sub-threshold length rule."""
    pairs = match_rescan_ref(truth, pred)
    matched_t = {ti for ti, _, _ in pairs}
    matched_p = {pi for _, pi, _ in pairs}
    classes = {s.class_id for s in truth} | {s.class_id for s in pred}
    if n_classes is not None:
        classes |= set(range(1, n_classes))
    counts = {c: [0, 0, 0] for c in classes}
    for ti, pi, ov in pairs:
        c = truth[ti].class_id
        if ov >= threshold:
            counts[c][0] += 1
        elif truth[ti].length < pred[pi].length:
            counts[c][1] += 1
        else:
            counts[c][2] += 1
    for pi, p in enumerate(pred):
        if pi not in matched_p:
            counts[p.class_id][1] += 1
    for ti, t in enumerate(truth):
        if ti not in matched_t:
            counts[t.class_id][2] += 1
    return {c: (None if sum(cnt) == 0 else (*cnt, *prf_ref(*cnt)))
            for c, cnt in counts.items()}


def max_tp_exhaustive(truth, pred, threshold):
    """Maximum supra-threshold pair count over ALL one-to-one matchings,
    by bitmask DP per class (an exhaustive enumeration, memoized)."""
    classes = {s.class_id for s in truth} | {s.class_id for s in pred}
    total = 0
    for c in classes:
        ts = [s for s in truth if s.class_id == c]
        ps = [s for s in pred if s.class_id == c]
        mat = [[iou_ref(t, p) for p in ps] for t in ts]

        @lru_cache(maxsize=None)
        def best(i, used):
            if i == len(ts):
                return 0
            b = best(i + 1, used)  # leave truth i unmatched
            for j in range(len(ps)):
                if not used >> j & 1 and mat[i][j] > 0.0:
                    gain = 1 if mat[i][j] >= threshold else 0
                    b = max(b, gain + best(i + 1, used | 1 << j))
            return b

        total += best(0, 0)
        best.cache_clear()
    return total


def loa_ref(per_subject_counts):
    """mean, population std, and mean +/- 2 std from (true, pred) pairs."""
    diffs = [t - p for t, p in per_subject_counts]
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / n
    std = math.sqrt(var)
    return mean, std, mean - 2.0 * std, mean + 2.0 * std


def random_label_case(rng, length=60, n_classes=4, max_per_class=6):
    """A (truth, pred) label-sequence pair. With max_per_class set, resample
    until each side has at most that many segments per class (keeps the
    exhaustive matcher cheap); pass None to skip the cap."""
    while True:
        seqs = []
        for _ in range(2):
            labels = []
            pos = 0
            while pos < length:
                run = int(rng.integers(2, 9))
                labels.extend([int(rng.integers(0, n_classes))] * run)
                pos += run
            seqs.append(labels[:length])
        if max_per_class is None:
            return seqs[0], seqs[1]
        ok = True
        for labels in seqs:
            per = {}
            prev = 0
            for lab in labels:
                if lab != 0 and lab != prev:
                    per[lab] = per.get(lab, 0) + 1
                prev = lab
            if per and max(per.values()) > max_per_class:
                ok = False
        if ok:
            return seqs[0], seqs[1]


def write_subject_csv_ref(path, recording):
    """One subject's CSV written row by row with the csv module's default
    dialect: the header, then per sample its index, the repr of each of
    the six samples as a Python float and the integer label."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t_index", "ax", "ay", "az", "gx", "gy", "gz",
                         "label"))
        for i in range(recording.signal.shape[0]):
            writer.writerow(
                [i] + [repr(float(v)) for v in recording.signal[i]]
                + [int(recording.labels[i])])


def digest_ref(payload):
    """SHA-256 hex digest of the payload's canonical JSON (sorted keys, no
    spaces), hashed as one UTF-8 string."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def segments_to_labels(segments, length, background=0):
    """Per-sample labels with each segment's span painted in its class."""
    validate_segments(segments)
    labels = np.full(length, background, dtype=np.int64)
    for s in segments:
        if s.end > length:
            raise ValueError(f"segment {s} exceeds sequence length {length}")
        labels[s.start:s.end] = s.class_id
    return labels


def sts_peak_velocity(amplitude, duration_s):
    """Analytic peak of integrating A*sin(2*pi*t/D): A*D/pi at t = D/2."""
    return abs(amplitude) * duration_s / np.pi


def read_report(path):
    """The run report in the file at `path`, checked against its schema."""
    report = json.loads(Path(path).read_text())
    check_report_structure(report)
    return report


def sample_accuracy(model, samples, labels) -> float:
    """Fraction of samples whose predicted class matches the label."""
    return float(np.mean(predict(model, samples) == labels))
