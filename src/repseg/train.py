"""Optimization loop for the dual-route model.

Every step draws fresh masks, runs the classification route on the unmasked
window and the reconstruction route on the masked window, and updates all
parameters together from the gradient of eta * CE + MSE averaged over the
batch, so the encoder is shared by construction. That loss is a sum over
windows and routes, so each route is backpropagated as soon as its loss
exists and its graph is freed before the next forward: a step holds one
route's graph at a time, whatever the batch size. Leave-one-subject-out
splits live here too.

Both training and `predict` run on every CPU the process may use, the
caller computing one share of the work and a forked child (`forked`) each
of the others. A training step's gradient is the sum of two vectors, one
per half of the batch, each accumulated from zero: a serial process runs
both halves, and a split step has a worker run the second and send back
its loss terms and vector. Both processes draw every window's random
values in batch order (`_FoldRun.draw`), so the two ways agree bit for
bit. Every parameter lives in one flat vector and every gradient in
another (`Model.data`, `Model.gradient`), so Adam, the zeroing and each
message between the processes handle one array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import forked
from .masking import (apply_mask, combined_loss, cross_entropy, draw_mask,
                      masked_mse, one_hot)
from .model import Model, ModelConfig, SignalWindow


class TrainingDivergedError(RuntimeError):
    """A loss went non-finite; carries the step and component values."""

    def __init__(self, epoch: int, step: int,
                 loss: float, ce: float, mse: float):
        super().__init__(
            f"non-finite loss at epoch {epoch}, step {step}: "
            f"total={loss!r} ce={ce!r} mse={mse!r}")
        self.epoch = epoch
        self.step = step
        self.loss = loss
        self.ce = ce
        self.mse = mse

    def __reduce__(self):
        # the message alone is not enough to rebuild one sent by a forked
        # child
        return type(self), (self.epoch, self.step, self.loss, self.ce,
                            self.mse)


@dataclass
class TrainConfig:
    """Knobs for one training run; defaults are the reference settings."""

    batch_size: int = 16
    epochs: int = 10
    learning_rate: float = 1e-3
    seed: int = 0
    mask_ratio: float = 0.8
    eta: float = 500.0
    patch_len: int = 40

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got "
                             f"{self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ValueError(f"mask_ratio must be in [0, 1], got "
                             f"{self.mask_ratio}")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if self.patch_len < 1:
            raise ValueError("patch_len must be >= 1")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Fold:
    test_subject: str
    train_subjects: tuple[str, ...]


def make_losocv(subject_ids) -> list[Fold]:
    """One fold per subject, held out in the given order."""
    ids = list(subject_ids)
    if len(ids) < 2:
        raise ValueError(f"need at least 2 subjects, got {len(ids)}")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate subject ids")
    return [Fold(s, tuple(t for t in ids if t != s)) for s in ids]


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adaptive-moment optimizer with bias correction (Kingma & Ba) over
    one flat parameter vector.

    `step` updates `data` in place from `grad`, which the caller fills
    before each step; the moments `m` and `v` are vectors of the same
    layout. Every operation is element by element, so this makes the float
    operations of a per-parameter update exactly.
    """

    def __init__(self, data: np.ndarray, grad: np.ndarray,
                 learning_rate: float = 1e-3):
        self.data = data
        self.grad = grad
        self.lr = learning_rate
        self.t = 0
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)

    def step(self):
        self.t += 1
        g = self.grad
        self.m = BETA1 * self.m + (1.0 - BETA1) * g
        self.v = BETA2 * self.v + (1.0 - BETA2) * (g * g)
        self.data -= self.lr * (self.m / (1.0 - BETA1 ** self.t)) / (
            np.sqrt(self.v / (1.0 - BETA2 ** self.t)) + EPS)


@dataclass
class StepRecord:
    epoch: int
    step: int
    loss: float
    ce: float
    mse: float


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    ce: float
    mse: float


@dataclass
class TrainResult:
    model: Model
    steps: list[StepRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)

    def curves(self) -> dict:
        """Plot-ready loss curves, one row per epoch."""
        return {
            "epoch": [e.epoch for e in self.epochs],
            "loss": [e.loss for e in self.epochs],
            "ce": [e.ce for e in self.epochs],
            "mse": [e.mse for e in self.epochs],
        }


def _mean_of(terms: tuple[float, ...]) -> float:
    # a left-to-right sum times 1/n, the float operations of the batch mean
    # as a tape computes it, so a StepRecord holds that loss bit for bit
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


@dataclass
class _FoldRun:
    """What every process training one fold holds alike: the model, the
    windows and the RNG whose stream fixes every permutation and draw, so
    processes iterating `steps` and calling `draw` alike agree on every
    step."""

    model: Model
    samples: np.ndarray
    onehots: list[np.ndarray]
    config: TrainConfig
    rng: np.random.Generator

    def steps(self):
        """Every step of the fold as (epoch, batch of window indices, the
        batch's two halves), the windows freshly permuted each epoch."""
        size = self.config.batch_size
        for epoch in range(1, self.config.epochs + 1):
            order = self.rng.permutation(self.samples.shape[0])
            for start in range(0, order.size, size):
                batch = order[start:start + size]
                yield epoch, batch, forked.shares(len(batch), 2)

    def draw(self) -> tuple:
        """One window's random values, drawn for every window of a batch in
        batch order by every process, whether it runs the window or not:
        classification dropout, the mask, then reconstruction dropout (None
        without a masked patch, as that route does not run)."""
        _, window_len, n_channels = self.samples.shape
        classify_keep = self.model.dropout_keep(window_len, self.rng)
        mask = draw_mask(window_len, n_channels, self.config.patch_len,
                         self.config.mask_ratio, self.rng)
        return classify_keep, mask, (
            self.model.dropout_keep(window_len, self.rng)
            if mask.masked_patches.size else None)

    def backward(self, tape: ad.Tape, i: int, batch_size: int) -> tuple:
        """Draws window `i`'s values and backwards its classification, then
        its reconstruction, into the gradient vector with the weight of a
        batch of `batch_size`; returns the unweighted (ce, mse), mse 0.0
        where nothing is masked. Only the scalar loss outlives a route's
        backward, so its graph is freed before the next forward."""
        classify_keep, mask, reconstruct_keep = self.draw()
        # draw_mask hides round(ratio * n_patches) patches in every window,
        # so either every window has an MSE term or none does: both means
        # divide by the batch size
        weight = 1.0 / batch_size
        eta, zero = self.config.eta, ad.constant(np.zeros(()))
        window = SignalWindow(self.samples[i])
        ce = cross_entropy(self.model.classify(window, classify_keep),
                           self.onehots[i])
        tape.backward(combined_loss(ad.scale(ce, weight), zero, eta))
        mse = zero
        if mask.masked_patches.size:
            mse = masked_mse(self.samples[i], self.model.reconstruct(
                apply_mask(window, mask), reconstruct_keep),
                mask.sample_mask())
            tape.backward(combined_loss(zero, ad.scale(mse, weight), eta))
        return ce.item(), mse.item()


def _serve_fold(run: _FoldRun, stream) -> None:
    """The worker's side of a split fold: every step it takes the caller's
    parameter vector (from the second step on), draws the first half's
    values, runs the second half into its own zeroed gradient vector and
    sends that half's (ce, mse) terms and the vector in one flush."""
    grad = run.model.grad
    for step, (_, batch, (first, second)) in enumerate(run.steps()):
        if step:
            forked.receive_into(stream, run.model.data)
        for _ in batch[first]:
            run.draw()
        with ad.Tape() as tape:
            terms = [run.backward(tape, i, len(batch)) for i in batch[second]]
        forked.send(stream, [np.array(terms, dtype=np.float64), grad])
        grad.fill(0.0)


def _run_steps(run: _FoldRun, optimizer: Adam,
               worker: forked.Child | None = None) -> list[StepRecord]:
    """Every step of the fold, alone or with `worker` running `_serve_fold`:
    the caller runs the first half; alone, it sets that half's vector aside
    and runs the second half from zero itself, and with a worker it draws
    the second half's values and reads the worker's terms and vector.
    Either way it adds the two vectors once, and IEEE addition commutes, so
    the two ways agree bit for bit."""
    grad = optimizer.grad
    other = np.empty_like(grad)  # the other half's gradient vector
    records = []
    for step, (epoch, batch, (first, second)) in enumerate(run.steps(), 1):
        if worker is not None and step > 1:
            forked.send(worker.stream, [optimizer.data])
        with ad.Tape() as tape:
            terms = [run.backward(tape, i, len(batch)) for i in batch[first]]
            if worker is None:
                other[:] = grad
                grad.fill(0.0)
                terms += [run.backward(tape, i, len(batch))
                          for i in batch[second]]
            else:
                for _ in batch[second]:  # the worker's windows: draws only
                    run.draw()
                theirs = np.empty((len(batch[second]), 2))
                forked.receive_into(worker.stream, theirs)
                forked.receive_into(worker.stream, other)
                terms += theirs.tolist()
            grad += other
            ce, mse = map(_mean_of, zip(*terms))
            rec = StepRecord(epoch, step, ce * run.config.eta + mse, ce, mse)
            if not (np.isfinite(rec.loss) and np.isfinite(rec.ce)
                    and np.isfinite(rec.mse)):
                raise TrainingDivergedError(epoch, step, rec.loss, rec.ce,
                                            rec.mse)
        optimizer.step()
        grad.fill(0.0)
        records.append(rec)
    return records


def train_fold(samples: np.ndarray, labels: np.ndarray,
               model_config: ModelConfig, config: TrainConfig,
               params: dict[str, np.ndarray] | None = None) -> TrainResult:
    """Train on (W, T, N) windows with (W, T) integer labels.

    Each step: classification sees the unmasked window, reconstruction sees
    the same window with freshly drawn patches zeroed, and the gradient of
    the batch mean of eta * ce + mse reaches the shared encoder as one
    backward per window and route, each run as soon as its loss exists. With
    an empty mask the reconstruction term is exactly zero, so that route is
    skipped and only the classification loss trains the network. A step
    whose loss is not finite raises TrainingDivergedError before the update.
    The model copies `params`, so the caller's arrays are never written.

    When `forked.processes` allows two processes and batches hold two or
    more windows, a worker forked once the model exists computes the second
    half of every batch while the caller computes the first (`_run_steps`),
    so losses and parameters equal the serial loop's bit for bit. Epoch
    records are the means of their steps' records.
    """
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if samples.ndim != 3:
        raise ValueError(f"samples must be (W, T, N), got {samples.shape}")
    if labels.shape != samples.shape[:2]:
        raise ValueError(f"labels shape {labels.shape} does not match "
                         f"windows {samples.shape[:2]}")
    n_windows, window_len, _ = samples.shape
    if n_windows < 1:
        raise ValueError("need at least one training window")
    if window_len % config.patch_len != 0:
        raise ValueError(f"window length {window_len} not divisible by "
                         f"patch_len {config.patch_len}")

    rng = np.random.default_rng(config.seed)
    model = Model(model_config, params=params,
                  rng=None if params is not None else rng)
    optimizer = Adam(model.data, model.gradient(), config.learning_rate)
    run = _FoldRun(model, samples,
                   [one_hot(labels[i], model_config.n_classes)
                    for i in range(n_windows)], config, rng)
    result = TrainResult(model=model)
    works = ([functools.partial(_serve_fold, run)]
             if forked.processes(min(2, config.batch_size, n_windows)) == 2
             else [])
    with forked.run(works) as workers:
        result.steps = _run_steps(run, optimizer, *workers)
    for epoch in range(1, config.epochs + 1):
        steps = [s for s in result.steps if s.epoch == epoch]
        result.epochs.append(EpochRecord(
            epoch,
            float(np.mean([s.loss for s in steps])),
            float(np.mean([s.ce for s in steps])),
            float(np.mean([s.mse for s in steps]))))
    return result


def predict(model: Model, windows) -> np.ndarray:
    """Per-sample argmax labels (W, T) for a sequence of unmasked (T, N)
    windows: a (W, T, N) stack, a list of views, or one (T, N) window.

    The windows are shared round-robin over one process per CPU this
    process may run on (`forked.map_items`); each child inherits the model
    and sends back its labels. While they run, every process uses one BLAS
    thread: a second one buys little at these shapes, and two processes
    with two BLAS threads each on two cores ran slower than one process
    alone.
    """
    if getattr(windows, "ndim", None) == 2:
        windows = [windows]
    return np.stack(forked.map_items(model.predict_labels, windows))
