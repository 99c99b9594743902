"""Command-line surface: generate, train, evaluate, velocity.

Exit codes: 0 success, 2 usage error (argparse), 3 data or schema error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .dataio import (REPORT_FORMAT, DataFormatError, Dataset, load_checkpoint,
                     read_config, read_dataset, save_checkpoint,
                     write_dataset, write_report)
from .experiments import (aggregate, evaluate_model, losocv_benchmark, score,
                          windows_by_subject)
from .metrics import labels_to_segments
from .model import Model, ModelConfig
from .synth import CLASS_NAMES, DEFAULT_PLAN, N_CLASSES, make_cohort
from .train import TrainConfig, TrainingDivergedError, predict, train_fold
from .velocity import StillWindowError, chair_rising_velocity

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4

# what `main` reports as a data error; DataFormatError is a ValueError
DATA_ERRORS = (OSError, KeyError, ValueError)


def _parse_plan(text: str) -> list[tuple[int, int]]:
    """Plan syntax: 'class:count,class:count', e.g. '1:4,2:4,3:3,4:3'."""
    try:
        plan = []
        for piece in text.split(","):
            cls, count = piece.split(":")
            plan.append((int(cls), int(count)))
        return plan
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad plan {text!r}; expected 'class:count,...'") from exc


def _parse_window(text: str) -> tuple[int, int]:
    """Window syntax: 'start:end' with 0 <= start < end."""
    try:
        a, b = map(int, text.split(":"))
    except ValueError:
        a = b = -1
    if not 0 <= a < b:
        raise argparse.ArgumentTypeError(
            f"bad window {text!r}; expected 'start:end' with "
            f"0 <= start < end")
    return a, b


def _parse_iou_threshold(text: str) -> float:
    """A threshold in (0, 1]: above 1 no segment pair matches, and a NaN
    fails every comparison."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"bad IoU threshold {text!r}; expected a number in (0, 1]")
    return value


def _report_skeleton(command: str, started: float) -> dict:
    return {
        "format_version": REPORT_FORMAT,
        "kind": "run_report",
        "command": command,
        "wall_clock_s": time.perf_counter() - started,
    }


def _build_configs(args) -> tuple[ModelConfig, TrainConfig]:
    """Build both configs, enumerating every violation before training."""
    model_over, train_over = read_config(args.config) if args.config \
        else ({}, {})
    for flag in ("mask_ratio", "eta", "epochs", "batch_size", "seed"):
        value = getattr(args, flag, None)
        if value is not None:
            train_over[flag] = value
    if getattr(args, "learning_rate", None) is not None:
        train_over["learning_rate"] = args.learning_rate
    problems = []
    model_config = train_config = None
    try:
        model_config = ModelConfig(**model_over)
    except ValueError as exc:
        problems.append(f"model config: {exc}")
    try:
        train_config = TrainConfig(**train_over)
    except ValueError as exc:
        problems.append(f"train config: {exc}")
    if problems:
        raise DataFormatError("; ".join(problems))
    return model_config, train_config


def _print_segment_counts(recordings):
    totals = {c: 0 for c in range(1, N_CLASSES)}
    for rec in recordings:
        for seg in rec.segments:
            totals[seg.class_id] += 1
    print(f"{'class':>28}  {'segments':>8}")
    for c, n in totals.items():
        print(f"{CLASS_NAMES[c]:>28}  {n:>8d}")


def cmd_generate(args) -> int:
    started = time.perf_counter()
    plan = args.plan if args.plan is not None else DEFAULT_PLAN
    recordings, profiles = make_cohort(args.subjects, plan, args.seed)
    manifest = write_dataset(args.out, recordings, profiles, args.seed, plan)
    print(f"wrote {len(recordings)} subjects under {Path(args.out)}")
    _print_segment_counts(recordings)
    print(f"manifest: {manifest} ({time.perf_counter() - started:.1f}s)")
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.perf_counter()
    model_config, train_config = _build_configs(args)
    dataset = read_dataset(args.data)
    out_dir = Path(args.out)
    report = _report_skeleton("train", started)
    report["seed"] = train_config.seed
    report["dataset"] = str(args.data)
    report["model_config"] = model_config.to_dict()
    report["train_config"] = train_config.to_dict()

    subject_windows = windows_by_subject(dataset, model_config.window_len)
    if args.losocv:
        bench = losocv_benchmark(subject_windows, model_config, train_config,
                                 iou_threshold=args.iou_threshold)
        folds = bench.fold_sections()
        for outcome, section in zip(bench.outcomes, folds):
            path = save_checkpoint(
                out_dir / f"fold_{outcome.fold.test_subject}.json",
                Model(model_config, params=outcome.params))
            section["checkpoint"] = path.name
            print(f"fold {outcome.fold.test_subject}: "
                  f"macro sample-f1 "
                  f"{_fmt(outcome.sample_report['macro_f1'])}, "
                  f"checkpoint {path.name}")
        report["folds"] = folds
        report["aggregate"] = bench.aggregate_section()
        report["loa"] = bench.loa
        print(f"mean macro sample-f1 {bench.mean_macro_sample_f1:.4f}")
    else:
        samples = np.concatenate([v[0] for v in subject_windows.values()])
        labels = np.concatenate([v[1] for v in subject_windows.values()])
        result = train_fold(samples, labels, model_config, train_config)
        path = save_checkpoint(out_dir / "model.json", result.model)
        report["folds"] = [{
            "test_subject": "",
            "train_subjects": dataset.subject_ids(),
            "loss_curves": result.curves(),
            "checkpoint": path.name,
        }]
        print(f"trained on {samples.shape[0]} windows; checkpoint {path}")

    report["wall_clock_s"] = time.perf_counter() - started
    report_path = write_report(out_dir / "train_report.json", report)
    print(f"report: {report_path}")
    return EXIT_OK


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:.4f}"


def _check_fits(path: Path, model: Model, dataset: Dataset) -> None:
    """DataFormatError naming the checkpoint file unless its model reads
    the dataset's channels and predicts its classes."""
    cfg = model.config
    if (cfg.n_channels, cfg.n_classes) \
            != (dataset.recordings[0].signal.shape[1], N_CLASSES):
        raise DataFormatError(
            f"{path.name}: checkpoint expects {cfg.n_channels} channels "
            f"and {cfg.n_classes} classes")


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    if not (args.oracle or args.checkpoints):
        raise DataFormatError("pass --checkpoints or --oracle")
    # every checkpoint is checked before any CSV is parsed
    models = [(path, load_checkpoint(path))
              for path in map(Path, args.checkpoints or [])]
    dataset = read_dataset(args.data)
    report = _report_skeleton("evaluate", started)
    report["dataset"] = str(args.data)
    report["iou_threshold"] = args.iou_threshold

    rows = []
    if args.oracle:
        truth = [(rec.labels, rec.labels) for rec in dataset.recordings]
        rows.append({"checkpoint": "oracle(truth)",
                     **score(truth, N_CLASSES, args.iou_threshold)})
    for path, model in models:
        _check_fits(path, model, dataset)
        windows = windows_by_subject(dataset, model.config.window_len)
        scores, _ = evaluate_model(model, windows, args.iou_threshold)
        rows.append({"checkpoint": path.name, **scores})

    report["checkpoints"] = rows
    report["aggregate"] = aggregate(rows)
    print(f"{'checkpoint':>24}  {'accuracy':>8}  {'sample-f1':>9}  "
          f"{'segmental-f1':>12}")
    for r in rows:
        print(f"{r['checkpoint']:>24}  {r['sample_accuracy']:>8.4f}  "
              f"{_fmt(r['sample_f1']['macro_f1']):>9}  "
              f"{_fmt(r['segmental']['macro_f1']):>12}")

    report["wall_clock_s"] = time.perf_counter() - started
    if args.report:
        print(f"report: {write_report(args.report, report)}")
    return EXIT_OK


def cmd_velocity(args) -> int:
    started = time.perf_counter()
    model = None
    if not args.use_true_labels:
        if not args.checkpoint:
            raise DataFormatError("pass --checkpoint or --use-true-labels")
        # the checkpoint is checked before the CSV is parsed
        model = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.data, subjects=[args.subject])
    rec = dataset.by_subject(args.subject)
    report = _report_skeleton("velocity", started)
    report["dataset"] = str(args.data)
    report["subject"] = args.subject

    if model is None:
        segments = rec.segments
    else:
        _check_fits(Path(args.checkpoint), model, dataset)
        samples, _ = windows_by_subject(
            dataset, model.config.window_len)[args.subject]
        segments = labels_to_segments(predict(model, samples).reshape(-1))

    vertical = rec.signal[:, 0]
    if args.still_window is not None and args.still_window[1] > vertical.size:
        raise DataFormatError(
            f"still window {args.still_window[0]}:{args.still_window[1]} "
            f"ends past subject {args.subject}'s {vertical.size} samples")
    try:
        result = chair_rising_velocity(vertical, segments,
                                       sample_rate=rec.sample_rate,
                                       still_window=args.still_window)
    except StillWindowError as exc:
        if args.still_window is not None:
            raise
        print(f"no usable still window: {exc}\n"
              f"pass --still-window start:end to override", file=sys.stderr)
        return EXIT_NUMERIC

    report["velocity"] = result.to_dict(include_trace=True)
    assert len(result.velocity) == rec.signal.shape[0]
    if not result.kinematics:
        report["notes"] = "no chair-rising segments for this subject"
        print("no chair-rising segments for this subject")
    print(f"g' = {result.g_prime:.3f} m/s^2, "
          f"still window {result.still_window}")
    print(f"{'class':>14}  {'start':>7}  {'end':>7}  {'duration_s':>10}  "
          f"{'peak_speed':>10}")
    for k in result.kinematics:
        print(f"{CLASS_NAMES[k.class_id]:>14}  {k.start:>7d}  {k.end:>7d}  "
              f"{k.duration_s:>10.2f}  {k.peak_speed:>10.3f}")

    report["wall_clock_s"] = time.perf_counter() - started
    if args.report:
        print(f"report: {write_report(args.report, report)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repseg",
        description="Per-sample exercise-repetition recognition on "
                    "synthetic wearable-sensor data")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    g.add_argument("--subjects", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--plan", type=_parse_plan, default=None,
                   help="repetitions per class, e.g. '1:4,2:4,3:3,4:3'")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train (optionally per LOSOCV fold)")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=None,
                   help="JSON file with 'model'/'train' sections")
    t.add_argument("--losocv", action="store_true")
    t.add_argument("--iou-threshold", type=_parse_iou_threshold,
                   default=0.75)
    t.add_argument("--mask-ratio", type=float, default=None,
                   dest="mask_ratio")
    t.add_argument("--eta", type=float, default=None)
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    t.add_argument("--learning-rate", type=float, default=None,
                   dest="learning_rate")
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="score checkpoints against a dataset")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoints", nargs="*", default=None)
    e.add_argument("--oracle", action="store_true",
                   help="score the ground truth against itself")
    e.add_argument("--iou-threshold", type=_parse_iou_threshold,
                   default=0.75, dest="iou_threshold")
    e.add_argument("--report", default=None)
    e.set_defaults(func=cmd_evaluate)

    v = sub.add_parser("velocity", help="chair-rising velocity per subject")
    v.add_argument("--data", required=True)
    v.add_argument("--subject", required=True)
    v.add_argument("--checkpoint", default=None)
    v.add_argument("--use-true-labels", action="store_true",
                   dest="use_true_labels")
    v.add_argument("--still-window", type=_parse_window, default=None,
                   dest="still_window", help="manual override, 'start:end'")
    v.add_argument("--report", default=None)
    v.set_defaults(func=cmd_velocity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrainingDivergedError, StillWindowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
