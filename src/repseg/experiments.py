"""Desk-scale experiments: the one scoring path, the leave-one-subject-out
benchmark and the mask-ratio sweep. These drive the CLI train/evaluate/
velocity paths and emit the plot-ready sweep table."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import forked
from .dataio import Dataset
from .metrics import (ClassF1Report, ClassScore, confusion_matrix, count_loa,
                      labels_to_segments, sample_f1, segmental_iou_f1)
from .model import Model, ModelConfig
from .synth import windowize
from .train import Fold, TrainConfig, make_losocv, predict, train_fold

SWEEP_RATIOS = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)


def windows_by_subject(dataset: Dataset, window_len: int) -> dict[str, tuple]:
    """Per subject: stacked (W, T, N) windows and (W, T) labels."""
    out = {}
    for rec in dataset.recordings:
        pairs = windowize(rec, window_len)
        samples = np.stack([w.samples for w, _ in pairs])
        labels = np.stack([lab for _, lab in pairs])
        out[rec.subject_id] = (samples, labels)
    return out


def score(per_subject: list[tuple[np.ndarray, np.ndarray]], n_classes: int,
          iou_threshold: float = 0.75) -> dict:
    """The metric stack over per-subject (truth, predicted) label arrays.

    Sample accuracy, sample F1 and the row-normalized confusion matrix count
    every sample once. Segments are built per subject, so none runs across
    a subject boundary, and segmental tp/fp/fn are summed over subjects.
    With two or more subjects the section also holds repetition-count
    agreement.
    """
    truth = np.concatenate([t for t, _ in per_subject])
    pred = np.concatenate([p for _, p in per_subject])
    segments = [(labels_to_segments(t), labels_to_segments(p))
                for t, p in per_subject]
    totals: dict[int, tuple[int, int, int]] = {}
    for truth_segs, pred_segs in segments:
        report = segmental_iou_f1(truth_segs, pred_segs,
                                  threshold=iou_threshold,
                                  n_classes=n_classes)
        for c, s in report.per_class.items():
            counts = (0, 0, 0) if s is None else (s.tp, s.fp, s.fn)
            totals[c] = tuple(map(sum, zip(totals.get(c, (0, 0, 0)),
                                           counts)))
    segmental = ClassF1Report({
        c: ClassScore.from_counts(*cnt) if any(cnt) else None
        for c, cnt in sorted(totals.items())})
    out = {
        "sample_accuracy": float(np.mean(truth == pred)),
        "sample_f1": sample_f1(truth, pred, n_classes).to_dict(),
        "segmental": segmental.to_dict(),
        "confusion": confusion_matrix(truth, pred, n_classes).tolist(),
    }
    if len(segments) >= 2:
        out["loa"] = count_loa(segments, n_classes).to_dict()
    return out


def aggregate(sections: list[dict]) -> dict:
    """Means of the sections' macro sample and segmental F1, skipping
    undefined ones; None where every one is undefined."""
    out = {}
    for name, key in (("mean_macro_sample_f1", "sample_f1"),
                      ("mean_macro_segmental_f1", "segmental")):
        macros = [s[key]["macro_f1"] for s in sections
                  if s[key]["macro_f1"] is not None]
        out[name] = float(np.mean(macros)) if macros else None
    return out


def evaluate_model(model: Model, subject_windows: dict,
                   iou_threshold: float = 0.75) -> tuple[dict, list]:
    """Predict each subject's windows, then `score` them per subject.

    Returns the scoring section and the per-subject (truth, predicted) flat
    label arrays it scored, in `subject_windows` order.
    """
    labels = [(np.asarray(truth, dtype=np.int64).reshape(-1),
               predict(model, samples).reshape(-1))
              for samples, truth in subject_windows.values()]
    return score(labels, model.config.n_classes, iou_threshold), labels


@dataclass
class FoldOutcome:
    fold: Fold
    scores: dict   # the held-out subject's section from `score`
    labels: tuple  # the held-out subject's flat (truth, predicted) labels
    curves: dict
    params: dict  # the trained arrays by parameter name

    @property
    def sample_report(self) -> dict:
        return self.scores["sample_f1"]

    @property
    def macro_sample_f1(self):
        return self.sample_report["macro_f1"]


def run_fold(subject_windows: dict, fold: Fold, model_config: ModelConfig,
             train_config: TrainConfig,
             iou_threshold: float = 0.75) -> FoldOutcome:
    """Train on the fold's training subjects, evaluate on the held-out one."""
    missing = [s for s in (*fold.train_subjects, fold.test_subject)
               if s not in subject_windows]
    if missing:
        raise ValueError(f"subjects missing from the dataset: {missing}")
    # leakage guard: the held-out subject must not reach the training stack
    if fold.test_subject in fold.train_subjects:
        raise ValueError(f"held-out subject {fold.test_subject!r} is in the "
                         f"fold's training set")
    samples = np.concatenate(
        [subject_windows[s][0] for s in fold.train_subjects])
    labels = np.concatenate(
        [subject_windows[s][1] for s in fold.train_subjects])

    result = train_fold(samples, labels, model_config, train_config)
    test = fold.test_subject
    scores, [held_out] = evaluate_model(
        result.model, {test: subject_windows[test]}, iou_threshold)
    return FoldOutcome(
        fold=fold,
        scores=scores,
        labels=held_out,
        curves=result.curves(),
        params={k: p.data for k, p in result.model.params.items()},
    )


@dataclass
class BenchmarkResult:
    outcomes: list[FoldOutcome]
    # count agreement over the held-out subjects; None with a single fold
    loa: dict | None

    @property
    def mean_macro_sample_f1(self) -> float | None:
        return self.aggregate_section()["mean_macro_sample_f1"]

    def fold_sections(self) -> list[dict]:
        return [{
            "test_subject": o.fold.test_subject,
            "train_subjects": list(o.fold.train_subjects),
            **o.scores,
            "loss_curves": o.curves,
        } for o in self.outcomes]

    def aggregate_section(self) -> dict:
        return aggregate([o.scores for o in self.outcomes])


def losocv_benchmark(subject_windows: dict, model_config: ModelConfig,
                     train_config: TrainConfig,
                     iou_threshold: float = 0.75) -> BenchmarkResult:
    """Train and score every leave-one-subject-out fold on a pinned pool."""
    payloads = [(subject_windows, f, model_config, train_config,
                 iou_threshold) for f in make_losocv(list(subject_windows))]
    with forked.single_cpu_pool(len(payloads)) as pool:
        outcomes = list(pool.map(run_fold, *zip(*payloads)))
    pooled = score([o.labels for o in outcomes], model_config.n_classes,
                   iou_threshold)
    return BenchmarkResult(outcomes=outcomes, loa=pooled.get("loa"))


def default_sweep_seeds(mask_ratio: float) -> list[int]:
    """Three seeds at the two ratios criterion 6 compares, one elsewhere."""
    return [0, 1, 2] if mask_ratio in (0.0, 0.8) else [0]


@dataclass
class SweepRow:
    mask_ratio: float
    seeds: list[int]
    per_seed: list[float]

    @property
    def mean_macro_sample_f1(self) -> float:
        return float(np.mean(self.per_seed))


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)

    def row(self, mask_ratio: float) -> SweepRow:
        for r in self.rows:
            if r.mask_ratio == mask_ratio:
                return r
        raise KeyError(f"no sweep row for mask ratio {mask_ratio}")

    def table_section(self) -> list[dict]:
        return [{
            "mask_ratio": r.mask_ratio,
            "seeds": list(r.seeds),
            "per_seed": list(r.per_seed),
            "mean_macro_sample_f1": r.mean_macro_sample_f1,
        } for r in self.rows]

    def format_table(self) -> str:
        lines = [f"{'mask ratio':>10}  {'seeds':>5}  {'macro sample-f1':>16}"]
        for r in self.rows:
            lines.append(f"{r.mask_ratio:>10.2f}  {len(r.seeds):>5d}  "
                         f"{r.mean_macro_sample_f1:>16.4f}")
        return "\n".join(lines)


def mask_ratio_sweep(subject_windows: dict, model_config: ModelConfig,
                     train_config: TrainConfig,
                     ratios=SWEEP_RATIOS, seeds_for=default_sweep_seeds,
                     iou_threshold: float = 0.75) -> SweepResult:
    """LOSOCV benchmark per mask ratio; seed count per ratio via seeds_for."""
    result = SweepResult()
    for ratio in ratios:
        seeds = seeds_for(ratio)
        per_seed = []
        for seed in seeds:
            cfg = replace(train_config, mask_ratio=ratio, seed=seed)
            bench = losocv_benchmark(subject_windows, model_config, cfg,
                                     iou_threshold)
            per_seed.append(bench.mean_macro_sample_f1)
        result.rows.append(SweepRow(ratio, list(seeds), per_seed))
    return result
