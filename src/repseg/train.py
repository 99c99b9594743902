"""Optimization loop for the dual-route model.

Every step draws fresh masks, runs the classification route on the unmasked
window and the reconstruction route on the masked window, and updates all
parameters together from the gradient of eta * CE + MSE averaged over the
batch, so the encoder is shared by construction. That loss is a sum over
windows and routes, so each route is backpropagated as soon as its loss
exists and its graph is freed before the next forward: a step holds one
route's graph at a time, whatever the batch size. Leave-one-subject-out
splits live here too.

Both training and `predict` run on every CPU the process may use: the
caller computes the first share of the work and a forked child (`forked`)
each of the others. In a training step the worker's share is the second
half of the batch, and the caller adds the worker's gradients after its own
in batch order, so the result equals the serial loop bit for bit.
"""

from __future__ import annotations

import functools
import time
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import forked
from .masking import (LossWeights, MaskSpec, apply_mask, combined_loss,
                      cross_entropy, draw_mask, masked_mse, one_hot)
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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ValueError(f"mask_ratio must be in [0, 1], got "
                             f"{self.mask_ratio}")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
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
    """Adaptive-moment optimizer with bias correction, state per parameter.

    A parameter whose .grad is None is treated as having a zero gradient.
    """

    def __init__(self, params: dict[str, ad.Tensor],
                 learning_rate: float = 1e-3):
        self.params = params
        self.lr = learning_rate
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = BETA1, BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            m = self._m[name] = b1 * self._m[name] + (1.0 - b1) * g
            v = self._v[name] = b2 * self._v[name] + (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)


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
    wall_clock_s: float = 0.0

    def curves(self) -> dict:
        """Plot-ready loss curves, one row per epoch."""
        return {
            "epoch": [e.epoch for e in self.epochs],
            "loss": [e.loss for e in self.epochs],
            "ce": [e.ce for e in self.epochs],
            "mse": [e.mse for e in self.epochs],
        }


def _mean_of(terms: list[float]) -> float:
    # a left-to-right sum times 1/n, the float operations of the batch mean
    # as a tape computes it, so a StepRecord holds that loss bit for bit
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


class _Draws(typing.NamedTuple):
    """One window's random values, in the order they are drawn."""

    classify_keep: list[np.ndarray] | None
    mask: MaskSpec
    reconstruct_keep: list[np.ndarray] | None

    @property
    def n_routes(self) -> int:
        """Classification, then reconstruction if a patch is masked."""
        return 2 if self.mask.masked_patches.size else 1


@dataclass
class _FoldRun:
    """What every process training one fold holds alike: the model, the
    windows, the RNG whose stream fixes every permutation and draw, and how
    many processes share each batch."""

    model: Model
    samples: np.ndarray
    onehots: list[np.ndarray]
    config: TrainConfig
    rng: np.random.Generator
    n_processes: int  # 1, or 2 with a worker running `_serve_fold`

    def batches(self) -> list[np.ndarray]:
        """One epoch's batches of window indices, freshly permuted."""
        order = self.rng.permutation(self.samples.shape[0])
        size = self.config.batch_size
        return [order[i:i + size] for i in range(0, order.size, size)]

    def draw(self) -> _Draws:
        """Draw one window's values as the forward order needs them:
        classification dropout, the mask, then reconstruction dropout
        (none without a masked patch, as that route does not run)."""
        _, window_len, n_channels = self.samples.shape
        classify_keep = self.model.dropout_keep(window_len, self.rng)
        mask = draw_mask(window_len, n_channels, self.config.patch_len,
                         self.config.mask_ratio, self.rng)
        reconstruct_keep = (self.model.dropout_keep(window_len, self.rng)
                            if mask.masked_patches.size else None)
        return _Draws(classify_keep, mask, reconstruct_keep)

    def routes(self, tape: ad.Tape, i: int, draws: _Draws, weight: float):
        """Forward and backward window `i`'s routes in turn, classification
        first; yields each route's loss (before the batch weight) right
        after its backward. No local keeps a route's output past its
        backward, so the route's graph is freed before the next forward."""
        sample = self.samples[i]
        window = SignalWindow(sample)
        mix = LossWeights(eta=self.config.eta)
        zero = ad.constant(np.zeros(()))
        ce = cross_entropy(self.model.classify(window, draws.classify_keep),
                           self.onehots[i])
        tape.backward(combined_loss(ad.scale(ce, weight), zero, mix))
        yield ce.item()
        if draws.n_routes == 2:
            mse = masked_mse(sample, self.model.reconstruct(
                apply_mask(window, draws.mask), draws.reconstruct_keep),
                draws.mask.sample_mask())
            tape.backward(combined_loss(zero, ad.scale(mse, weight), mix))
            yield mse.item()


def _serve_fold(run: _FoldRun, stream) -> None:
    """The worker's side of a split fold: every step it takes the caller's
    parameters (from the second step on), draws every window's values and
    computes only its own share; then it sends, per window and route in
    batch order, the loss and which parameters have a gradient (float64
    and one byte each), then those gradients. A route's gradients are
    staged until the share is done, so the worker never waits on a caller
    that is still busy with its own share."""
    params = list(run.model.params.values())
    step = 0
    for _ in range(run.config.epochs):
        for batch in run.batches():
            if step:
                for p in params:
                    forked.receive_into(stream, p.data)
            step += 1
            weight = 1.0 / len(batch)
            start = forked.shares(len(batch), run.n_processes)[1].start
            staged = []
            with ad.Tape() as tape:
                for k, i in enumerate(batch):
                    draws = run.draw()
                    if k < start:
                        continue
                    for loss in run.routes(tape, i, draws, weight):
                        grads = [p.grad for p in params]
                        for p in params:
                            p.zero_grad()
                        staged.append((loss, grads))
            for loss, grads in staged:
                head = (np.float64(loss).tobytes()
                        + bytes(g is not None for g in grads))
                forked.send(stream, [head,
                                     *(g for g in grads if g is not None)])


class _WorkerRoutes:
    """The caller's end of the worker's stream (see `_serve_fold`)."""

    def __init__(self, stream, params: list[ad.Tensor]):
        self.stream = stream
        self.head = np.empty(8 + len(params), dtype=np.uint8)
        # every gradient is read into one buffer the size of the largest
        # parameter, never staged whole
        buffer = np.empty(max(p.size for p in params))
        self.slots = [(p, buffer[:p.size].reshape(p.shape)) for p in params]

    def add_route(self) -> float:
        """Read the next route and add its gradients into `.grad`; returns
        its loss. Every parameter is read once per route forward, so a
        route reaches each gradient as one term, and this is the add the
        caller's own tape would have made."""
        forked.receive_into(self.stream, self.head)
        for (p, grad), has_grad in zip(self.slots, self.head[8:]):
            if has_grad:
                forked.receive_into(self.stream, grad)
                p.accumulate_grad(grad)
        return float(self.head[:8].view(np.float64)[0])


def _run_steps(run: _FoldRun, optimizer: Adam, result: TrainResult,
               worker: forked.Child | None = None) -> None:
    """Every step of the fold, alone or with `worker` running `_serve_fold`;
    fills `result.steps` and `result.epochs`."""
    params = list(run.model.params.values())
    from_worker = _WorkerRoutes(worker.stream, params) if worker else None
    step_no = 0
    for epoch in range(1, run.config.epochs + 1):
        epoch_steps = []
        for batch in run.batches():
            if worker is not None and step_no:
                forked.send(worker.stream, [p.data for p in params])
            step_no += 1
            # draw_mask hides round(ratio * n_patches) patches in every
            # window, so either every window has an MSE term or none does:
            # both means divide by the batch size
            weight = 1.0 / len(batch)
            end = forked.shares(len(batch), run.n_processes)[0].stop
            terms = ([], [])  # ce, mse
            with ad.Tape() as tape:
                remote = []
                for k, i in enumerate(batch):
                    draws = run.draw()
                    if k >= end:
                        remote.append(draws.n_routes)
                        continue
                    for route, loss in enumerate(
                            run.routes(tape, i, draws, weight)):
                        terms[route].append(loss)
                for n_routes in remote:
                    for route in range(n_routes):
                        terms[route].append(from_worker.add_route())
                ce = _mean_of(terms[0])
                mse = _mean_of(terms[1]) if terms[1] else 0.0
                rec = StepRecord(epoch, step_no, ce * run.config.eta + mse,
                                 ce, mse)
                if not (np.isfinite(rec.loss) and np.isfinite(rec.ce)
                        and np.isfinite(rec.mse)):
                    optimizer.zero_grad()
                    raise TrainingDivergedError(epoch, step_no, rec.loss,
                                                rec.ce, rec.mse)
            optimizer.step()
            optimizer.zero_grad()
            epoch_steps.append(rec)
        result.steps.extend(epoch_steps)
        result.epochs.append(EpochRecord(
            epoch,
            float(np.mean([s.loss for s in epoch_steps])),
            float(np.mean([s.ce for s in epoch_steps])),
            float(np.mean([s.mse for s in epoch_steps]))))


def train_fold(samples: np.ndarray, labels: np.ndarray,
               model_config: ModelConfig, config: TrainConfig,
               params: dict[str, ad.Tensor] | None = None) -> TrainResult:
    """Train on (W, T, N) windows with (W, T) integer labels.

    Each step: classification sees the unmasked window, reconstruction sees
    the same window with freshly drawn patches zeroed, and the gradient of
    the batch mean of eta * ce + mse reaches the shared encoder as one
    backward per window and route, each run as soon as its loss exists. With
    an empty mask the reconstruction term is exactly zero, so that route is
    skipped and only the classification loss trains the network. A step
    whose loss is not finite raises TrainingDivergedError before the update,
    with the gradients cleared.

    When `forked.processes` allows two processes and batches hold two or
    more windows, a worker forked once the model exists computes the second
    share of every batch while the caller computes the first; the caller
    adds the worker's per-route gradients after its own in batch order, so
    losses and parameters equal the serial loop's bit for bit.
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
    optimizer = Adam(model.parameters(), config.learning_rate)
    run = _FoldRun(model, samples,
                   [one_hot(labels[i], model_config.n_classes)
                    for i in range(n_windows)], config, rng,
                   forked.processes(min(2, config.batch_size, n_windows)))
    result = TrainResult(model=model)
    started = time.perf_counter()
    works = ([functools.partial(_serve_fold, run)]
             if run.n_processes == 2 else [])
    with forked.run(works) as workers:
        _run_steps(run, optimizer, result, *workers)
    result.wall_clock_s = time.perf_counter() - started
    return result


def predict(model: Model, samples: np.ndarray) -> np.ndarray:
    """Per-sample argmax labels for a stack of unmasked windows (W, T).

    The windows are split into one contiguous share per CPU this process
    may run on (`forked.processes`). The caller predicts the first share
    and a forked child each of the others, which inherits the model and
    sends back its labels as int64. While they run, every process uses one
    BLAS thread: a second one buys little at these shapes, and two
    processes with two BLAS threads each on two cores ran slower than one
    process alone.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 2:
        samples = samples[None]
    labels = np.empty(samples.shape[:2], dtype=np.int64)
    shares = forked.shares(samples.shape[0],
                           forked.processes(samples.shape[0]))

    def fill(share: slice) -> np.ndarray:
        for i in range(share.start, share.stop):
            labels[i] = model.predict_labels(samples[i])
        return labels[share]

    def send_share(share: slice, stream) -> None:
        forked.send(stream, [fill(share)])

    with forked.run([functools.partial(send_share, share)
                     for share in shares[1:]]) as children:
        fill(shares[0])
        for child, share in zip(children, shares[1:]):
            forked.receive_into(child.stream, labels[share])
    return labels


def sample_accuracy(model: Model, samples: np.ndarray,
                    labels: np.ndarray) -> float:
    """Fraction of samples whose predicted class matches the label."""
    preds = predict(model, samples)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim == 1:
        labels = labels[None]
    return float(np.mean(preds == labels))
