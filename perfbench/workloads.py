"""The three benchmark workloads and the checks on their outputs.

Each workload calls the program only through its public entry points
(`experiments.run_fold`, `train.train_fold`, `cli.main`), builds its inputs
from the benchmark seed alone, and turns every wrong output into a counted
failure. An operation is a fold, a training step or one CLI command.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SMALL_PLAN = [(1, 2), (2, 2), (4, 1)]
HELD_OUT = "s00"


@dataclass
class Op:
    """What one closed-loop operation did and what its checks found."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    samples: int = 0    # signal samples the operation pushed through
    scored: int = 0     # samples that got a label in the outputs
    rows_used: int = 0  # dataset rows of the subjects the commands used
    values: dict = field(default_factory=dict)  # checked against references
    problems: list = field(default_factory=list)
    traced: bool = False

    def check(self, ok: bool, problem: str):
        if not ok:
            self.problems.append(problem)

    def close(self) -> "Op":
        """A problem fails the operation that showed it (at least one)."""
        if self.problems and self.failed == 0:
            self.failed = 1
        return self


def non_finite_paths(node, path="$") -> list[str]:
    """JSON paths of every NaN or infinity in a parsed document."""
    if isinstance(node, float):
        return [] if math.isfinite(node) else [path]
    if isinstance(node, dict):
        return [p for k, v in node.items()
                for p in non_finite_paths(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node)
                for p in non_finite_paths(v, f"{path}[{i}]")]
    return []


def report_problems(rp, path: Path) -> tuple[dict | None, list[str]]:
    """Load a report; it must pass the program's own structure check and
    hold no non-finite number."""
    try:
        with open(path) as fh:
            report = json.load(fh)
        rp.dataio.check_report_structure(report)
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: {exc}"]
    bad = non_finite_paths(report)
    return report, [f"{path.name}: non-finite number at {p}"
                    for p in bad[:3]]


def truth_count(sample_report: dict) -> int:
    """Per-class tp + fn: every scored sample counts once, under its truth."""
    return sum(c["tp"] + c["fn"] for c in sample_report["per_class"].values()
               if c is not None)


def run_cli(rp, argv: list[str]) -> tuple[int, float]:
    """Call `repseg.cli.main` in-process; returns (exit code, seconds)."""
    sink = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = rp.cli.main(argv)
    return code, time.perf_counter() - started


def stack_windows(rp, rec, window_len: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = rp.synth.windowize(rec, window_len)
    return (np.stack([w.samples for w, _ in pairs]),
            np.stack([lab for _, lab in pairs]))


class Workload:
    name = ""
    # spans a traced run must see fire at least once
    spans: frozenset = frozenset()
    # reader-facing names of the generic end-to-end metrics on this workload
    aliases: dict = {}
    # relative tolerance of each output value against perfbench/reference.json
    tolerance: dict = {}

    def __init__(self, rp, seed: int, workdir: Path):
        self.rp = rp
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def warm_up(self):
        """One-off cost paid after set-up and before measuring."""

    def op(self) -> Op:
        raise NotImplementedError


_AUTODIFF_FWD = {"autodiff.matmul", "autodiff.add", "autodiff.softmax_rows",
                 "autodiff.layer_norm", "autodiff.dilated_conv1d",
                 "autodiff.relu", "autodiff.split_cols",
                 "autodiff.concat_cols", "autodiff.transpose",
                 "autodiff.scale"}
_AUTODIFF_TRAIN = _AUTODIFF_FWD | {"autodiff.mul", "autodiff.sub",
                                   "autodiff.sum_all", "autodiff.log_clamped",
                                   "autodiff.backward"}
_TRAINING = _AUTODIFF_TRAIN | {
    "model.encode", "model.tcn_logits", "model.classify", "model.reconstruct",
    "masking.draw_mask", "masking.apply_mask", "masking.cross_entropy",
    "masking.masked_mse", "masking.combined_loss", "train.train_fold",
    "train.step", "train.adam", "synth.make_cohort", "synth.windowize"}
_METRICS = {"metrics.labels_to_segments", "metrics.sample_f1",
            "metrics.segmental_iou_f1", "metrics.confusion_matrix"}


class FoldSmall(Workload):
    """One leave-one-subject-out fold of the acceptance model, 6 epochs."""

    name = "fold-small"
    spans = frozenset(_TRAINING | _METRICS | {
        "model.predict_labels", "train.predict", "experiments.run_fold",
        "experiments.evaluate_model"})
    aliases = {"fold_s": "op_s"}
    tolerance = {"heldout_macro_f1": 1e-3, "final_loss": 1e-4}
    # half the acceptance run's 12 epochs, so a run holds several folds
    epochs = 6
    # floors that hold on any seed: seeds 0-49 gave a held-out macro F1 of
    # 0.68-0.96, seeds 0-9 a last-epoch loss 0.12-0.18 of the first
    min_f1 = 0.5
    max_loss_ratio = 0.3
    window_len = 160

    def setup(self):
        rp = self.rp
        recs, _ = rp.synth.make_cohort(8, plan=SMALL_PLAN, seed=self.seed)
        self.windows = {rec.subject_id: stack_windows(rp, rec,
                                                      self.window_len)
                        for rec in recs}
        self.fold = rp.train.Fold(HELD_OUT, tuple(
            s for s in self.windows if s != HELD_OUT))
        self.model_config = rp.model.ModelConfig(
            d_model=16, n_heads=2, n_layers=1, dropout=0.0,
            window_len=self.window_len, n_channels=6, n_classes=6,
            ffn_dim=32, tcn_layers=5, tcn_channels=8)
        self.train_config = rp.train.TrainConfig(
            batch_size=16, epochs=self.epochs, learning_rate=1e-2, seed=0,
            eta=500.0, patch_len=16, mask_ratio=0.8)
        n_train = sum(self.windows[s][0].shape[0]
                      for s in self.fold.train_subjects)
        self.held_out_samples = self.windows[HELD_OUT][1].size
        self.samples = (n_train * self.window_len * self.epochs
                        + self.held_out_samples)

    def op(self) -> Op:
        op = Op(attempted=1)
        started = time.perf_counter()
        out = self.rp.experiments.run_fold(self.windows, self.fold,
                                           self.model_config,
                                           self.train_config)
        op.seconds = time.perf_counter() - started
        op.samples = self.samples
        op.scored = truth_count(out.sample_report)
        curves = [v for key in ("loss", "ce", "mse") for v in out.curves[key]]
        op.check(len(out.curves["loss"]) == self.epochs
                 and all(math.isfinite(v) for v in curves),
                 "a training loss is non-finite or an epoch is missing")
        op.check(op.scored == self.held_out_samples,
                 f"held-out tp+fn {op.scored} != windowed samples "
                 f"{self.held_out_samples}")
        loss = out.curves["loss"]
        op.check(loss[-1] < self.max_loss_ratio * loss[0],
                 f"last-epoch loss {loss[-1]:.4g} is not below "
                 f"{self.max_loss_ratio} of the first {loss[0]:.4g}")
        op.check(out.macro_sample_f1 >= self.min_f1,
                 f"held-out macro F1 {out.macro_sample_f1:.4f} is below "
                 f"{self.min_f1}")
        op.values = {"heldout_macro_f1": out.macro_sample_f1,
                     "final_loss": loss[-1]}
        return op.close()


class StepFull(Workload):
    """Full-scale training steps: default ModelConfig, T=800, batch 4."""

    name = "step-full"
    spans = frozenset(_TRAINING | {"autodiff.dropout"})
    aliases = {"train_samples_per_s": "samples_per_s"}
    tolerance = {"final_loss": 1e-5, "ce": 1e-5, "mse": 1e-5}
    batch = 4

    def setup(self):
        rp = self.rp
        recs, _ = rp.synth.make_cohort(1, seed=self.seed)
        self.model_config = rp.model.ModelConfig()
        samples, labels = stack_windows(rp, recs[0],
                                        self.model_config.window_len)
        if samples.shape[0] < self.batch:
            raise RuntimeError(f"cohort gave {samples.shape[0]} windows, "
                               f"need {self.batch}")
        self.samples, self.labels = (samples[:self.batch],
                                     labels[:self.batch])
        # one epoch over one batch is exactly one step, from the same
        # seeded initialisation every time, so every step's loss repeats
        self.train_config = rp.train.TrainConfig(
            batch_size=self.batch, epochs=1, seed=self.seed, mask_ratio=0.8)

    def warm_up(self):
        # the first full-scale forward costs about twice a warm one
        self.rp.train.train_fold(self.samples, self.labels,
                                 self.model_config, self.train_config)

    def op(self) -> Op:
        op = Op(attempted=1)
        started = time.perf_counter()
        result = self.rp.train.train_fold(self.samples, self.labels,
                                          self.model_config,
                                          self.train_config)
        op.seconds = time.perf_counter() - started
        op.samples = self.samples.shape[0] * self.samples.shape[1]
        op.check(len(result.steps) == 1, f"{len(result.steps)} steps, not 1")
        op.check(all(math.isfinite(v) for s in result.steps
                     for v in (s.loss, s.ce, s.mse)),
                 "a step loss is non-finite")
        if result.steps:
            step = result.steps[-1]
            op.values = {"final_loss": step.loss, "ce": step.ce,
                         "mse": step.mse}
        return op.close()


class InferFull(Workload):
    """`repseg evaluate` of a seeded, untrained full-scale checkpoint over
    the cohort, then `repseg velocity` of one subject from its true labels."""

    name = "infer-full"
    spans = frozenset(_AUTODIFF_FWD | _METRICS | {
        "metrics.count_loa", "model.encode", "model.tcn_logits",
        "model.classify", "model.predict_labels", "train.predict",
        "velocity.chair_rising_velocity", "velocity.lowpass",
        "velocity.find_still_window", "dataio.read_dataset",
        "dataio.load_checkpoint", "dataio.write_report",
        "dataio.write_dataset", "dataio.save_checkpoint",
        "synth.make_cohort", "synth.windowize", "cli.generate",
        "cli.evaluate", "cli.velocity"})
    aliases = {"infer_samples_per_s": "samples_per_s"}
    tolerance = {"scored_fraction": 0.0, "macro_f1": 1e-3,
                 "peak_speed_sum": 1e-6}
    subjects = 8
    velocity_subject = HELD_OUT

    def setup(self):
        rp = self.rp
        self.data = self.workdir / "data"
        self.checkpoint = self.workdir / "model.json"
        code, _ = run_cli(rp, ["generate", "--subjects", str(self.subjects),
                               "--seed", str(self.seed), "--out",
                               str(self.data)])
        if code != 0:
            raise RuntimeError(f"repseg generate exited {code}")
        config = rp.model.ModelConfig()
        rp.dataio.save_checkpoint(self.checkpoint, rp.model.Model(
            config, rng=np.random.default_rng(self.seed)))
        with open(self.data / "manifest.json") as fh:
            rows = [s["rows"] for s in json.load(fh)["subjects"]]
        self.rows = sum(rows)
        step = config.window_len
        self.windowed = sum(r // step * step for r in rows)
        recs, _ = rp.synth.make_cohort(self.subjects, seed=self.seed)
        rec = next(r for r in recs if r.subject_id == self.velocity_subject)
        chair = set(rp.velocity.CHAIR_CLASSES)
        self.chair_reps = sum(s.class_id in chair for s in rec.segments)
        self.velocity_rows = rec.signal.shape[0]

    def _command(self, op: Op, argv: list[str], report: Path, check) -> None:
        """Run one CLI command; a bad exit code, report or check fails it."""
        code, seconds = run_cli(self.rp, argv + ["--report", str(report)])
        op.attempted += 1
        op.seconds += seconds
        problems = [] if code == 0 else [f"repseg {argv[0]} exited {code}"]
        if not problems:
            doc, problems = report_problems(self.rp, report)
            if not problems:
                problems = check(doc)
        op.problems += problems
        op.failed += bool(problems)

    def _evaluated(self, op: Op, doc: dict) -> list[str]:
        scores = doc["checkpoints"][0]["sample_f1"]
        scored = truth_count(scores)
        op.scored += scored
        op.samples += scored
        op.rows_used += self.rows
        op.values.update(scored_fraction=scored / self.rows,
                         macro_f1=scores["macro_f1"])
        # the windowed prefix today; every row once the tails are scored
        if scored in (self.windowed, self.rows):
            return []
        return [f"tp+fn {scored} is neither the windowed count "
                f"{self.windowed} nor the row count {self.rows}"]

    def _velocity(self, op: Op, doc: dict) -> list[str]:
        op.rows_used += self.velocity_rows
        trace = len(doc["velocity"]["velocity"])
        reps = len(doc["velocity"]["repetitions"])
        op.values["peak_speed_sum"] = sum(
            r["peak_speed"] for r in doc["velocity"]["repetitions"])
        problems = []
        if trace != self.velocity_rows:
            problems.append(f"velocity trace has {trace} samples, the "
                            f"recording {self.velocity_rows}")
        if reps != self.chair_reps:
            problems.append(f"{reps} chair repetitions, truth has "
                            f"{self.chair_reps}")
        return problems

    def op(self) -> Op:
        op = Op()
        self._command(op, ["evaluate", "--data", str(self.data),
                           "--checkpoints", str(self.checkpoint)],
                      self.workdir / "evaluate.json",
                      lambda doc: self._evaluated(op, doc))
        self._command(op, ["velocity", "--data", str(self.data), "--subject",
                           self.velocity_subject, "--use-true-labels"],
                      self.workdir / "velocity.json",
                      lambda doc: self._velocity(op, doc))
        return op


WORKLOADS = {w.name: w for w in (FoldSmall, StepFull, InferFull)}
