"""Optimization loop for the dual-route model.

Every step draws fresh masks, runs the classification route on the unmasked
window and the reconstruction route on the masked window, and updates all
parameters together from the gradient of eta * CE + MSE averaged over the
batch, so the encoder is shared by construction. That loss is a sum over
windows and routes, so each route is backpropagated as soon as its loss
exists and its graph is freed before the next forward: a step holds one
route's graph at a time, whatever the batch size. Leave-one-subject-out
splits live here too. `predict` runs its windows on every CPU the process
may use.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .masking import (LossWeights, apply_mask, combined_loss, cross_entropy,
                      draw_mask, masked_mse, one_hot)
from .model import Model, ModelConfig, SignalWindow, check_field_types


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ValueError(f"mask_ratio must be in [0, 1], got "
                             f"{self.mask_ratio}")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.patch_len < 1:
            raise ValueError("patch_len must be >= 1")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown train-config fields: {sorted(extra)}")
        check_field_types(cls, d)
        return cls(**d)


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


class Adam:
    """Adaptive-moment optimizer with bias correction, state per parameter.

    A parameter whose .grad is None is treated as having a zero gradient.
    """

    def __init__(self, params: dict[str, ad.Tensor],
                 learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            m = self._m[name] = b1 * self._m[name] + (1.0 - b1) * g
            v = self._v[name] = b2 * self._v[name] + (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


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


def _as_batches(order: np.ndarray, batch_size: int):
    for i in range(0, order.size, batch_size):
        yield order[i:i + batch_size]


def _mean_of(terms: list[float]) -> float:
    # a left-to-right sum times 1/n, the float operations of the batch mean
    # as a tape computes it, so a StepRecord holds that loss bit for bit
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


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
    """
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if samples.ndim != 3:
        raise ValueError(f"samples must be (W, T, N), got {samples.shape}")
    if labels.shape != samples.shape[:2]:
        raise ValueError(f"labels shape {labels.shape} does not match "
                         f"windows {samples.shape[:2]}")
    n_windows, window_len, n_channels = samples.shape
    if n_windows < 1:
        raise ValueError("need at least one training window")
    if window_len % config.patch_len != 0:
        raise ValueError(f"window length {window_len} not divisible by "
                         f"patch_len {config.patch_len}")

    n_classes = model_config.n_classes
    rng = np.random.default_rng(config.seed)
    model = Model(model_config, params=params,
                  rng=None if params is not None else rng)
    optimizer = Adam(model.parameters(), config.learning_rate,
                     config.beta1, config.beta2, config.eps)
    onehots = [one_hot(labels[i], n_classes) for i in range(n_windows)]
    loss_weights = LossWeights(eta=config.eta)
    zero = ad.constant(np.zeros(()))

    result = TrainResult(model=model)
    step_no = 0
    started = time.perf_counter()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_windows)
        epoch_steps = []
        for batch in _as_batches(order, config.batch_size):
            step_no += 1
            # draw_mask hides round(ratio * n_patches) patches in every
            # window, so either every window has an MSE term or none does:
            # both means divide by the batch size
            weight = 1.0 / len(batch)
            ce_terms = []
            mse_terms = []
            with ad.Tape() as tape:
                # no local keeps a route's output past its backward, so the
                # route's graph is freed before the next forward
                for i in batch:
                    window = SignalWindow(samples[i])
                    ce_i = cross_entropy(
                        model.classify(window, training=True, rng=rng),
                        onehots[i])
                    tape.backward(combined_loss(ad.scale(ce_i, weight), zero,
                                                loss_weights))
                    ce_terms.append(ce_i.item())
                    spec = draw_mask(window_len, n_channels,
                                     config.patch_len, config.mask_ratio, rng)
                    if spec.masked_patches.size:
                        mse_i = masked_mse(
                            samples[i],
                            model.reconstruct(apply_mask(window, spec),
                                              training=True, rng=rng),
                            spec.sample_mask())
                        tape.backward(combined_loss(
                            zero, ad.scale(mse_i, weight), loss_weights))
                        mse_terms.append(mse_i.item())
                ce = _mean_of(ce_terms)
                mse = _mean_of(mse_terms) if mse_terms else 0.0
                rec = StepRecord(epoch, step_no, ce * config.eta + mse, ce, mse)
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
    result.wall_clock_s = time.perf_counter() - started
    return result


def _blas_thread_control():
    """(get, set) of the loaded OpenBLAS's thread count, or None.

    The library is found in this process's memory map and asked through its
    own entry points: `scipy_openblas_*_num_threads64_` in numpy 2.x wheels,
    `openblas_*_num_threads` in other builds.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def _predict_windows(model: Model, samples: np.ndarray) -> np.ndarray:
    return np.stack([model.predict_labels(samples[i])
                     for i in range(samples.shape[0])])


def _fork_share(model: Model, share: np.ndarray) -> tuple[int, int]:
    """Fork a child that predicts `share` and writes its labels to a pipe as
    raw int64 bytes; returns the child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            labels = _predict_windows(model, share).astype(np.int64)
            with open(write_fd, "wb") as out:
                out.write(labels.tobytes())
            code = 0
        except Exception:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _predict_forked(model: Model, shares: list[np.ndarray],
                    get_threads, set_threads) -> np.ndarray:
    """The caller predicts shares[0] while one forked child predicts each
    other share, every process with one BLAS thread; labels in window
    order. Every child is reaped, and killed first if the caller failed."""
    threads = get_threads()
    set_threads(1)
    children = []  # (pid, read end of its pipe)
    results = []
    statuses = []
    done = False
    try:
        for share in shares[1:]:
            children.append(_fork_share(model, share))
        labels = [_predict_windows(model, shares[0])]
        for _, fd in children:
            with open(fd, "rb", closefd=False) as src:
                results.append(src.read())
        done = True
    finally:
        for pid, fd in children:
            os.close(fd)
            if not done:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
        set_threads(threads)
    for share, raw, status in zip(shares[1:], results, statuses):
        code = os.waitstatus_to_exitcode(status)
        shape = share.shape[:2]
        if code != 0 or len(raw) != 8 * shape[0] * shape[1]:
            raise RuntimeError(f"predict: the child for {shape[0]} windows "
                               f"exited with status {code} after sending "
                               f"{len(raw)} of {8 * shape[0] * shape[1]} "
                               f"bytes")
        labels.append(np.frombuffer(raw, dtype=np.int64).reshape(shape))
    return np.concatenate(labels)


def predict(model: Model, samples: np.ndarray) -> np.ndarray:
    """Per-sample argmax labels for a stack of unmasked windows (W, T).

    The windows are split into one contiguous share per CPU this process
    may run on (`os.sched_getaffinity`). The caller predicts the first share
    and a forked child each of the others, which inherits the model, so
    nothing is pickled. While they run, every process uses one BLAS thread:
    a second one buys little at these shapes, and two processes with two
    BLAS threads each on two cores ran slower than one process alone.
    With one CPU or one window, or without `os.fork` or a BLAS whose thread
    count can be set, the caller predicts every window itself.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 2:
        samples = samples[None]
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    n_shares = min(cpus, samples.shape[0])
    blas = (_blas_thread_control()
            if n_shares > 1 and hasattr(os, "fork") else None)
    if blas is None:
        return _predict_windows(model, samples)
    return _predict_forked(model, np.array_split(samples, n_shares), *blas)


def sample_accuracy(model: Model, samples: np.ndarray,
                    labels: np.ndarray) -> float:
    """Fraction of samples whose predicted class matches the label."""
    preds = predict(model, samples)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim == 1:
        labels = labels[None]
    return float(np.mean(preds == labels))
