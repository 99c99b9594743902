"""Optimization loop for the dual-route model.

Every step draws fresh masks, runs the classification route on the unmasked
window and the reconstruction route on the masked window, and updates all
parameters together from the gradient of eta * CE + MSE averaged over the
batch, so the encoder is shared by construction. That loss is a sum over
windows and routes, so each route is backpropagated as soon as its loss
exists and its graph is freed before the next forward: a step holds one
route's graph at a time, whatever the batch size. Leave-one-subject-out
splits live here too.

Both training and `predict` run on every CPU the process may use, through
forked children that inherit the model and talk over pipes. A training step
is split in two: a worker forked once per fold computes the second half of
every batch, and the caller adds the worker's gradients after its own in
batch order, so the result equals the serial loop bit for bit. With one CPU
or one window per batch, without `os.fork`, or without a BLAS whose thread
count can be set, the caller does all the work itself.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import signal
import sys
import time
import traceback
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
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
    windows and the RNG whose stream fixes every permutation and draw."""

    model: Model
    samples: np.ndarray
    onehots: list[np.ndarray]
    config: TrainConfig
    rng: np.random.Generator

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


def _bytes_of(array: np.ndarray) -> memoryview:
    """A byte view of a C-contiguous array, for pipe reads and writes."""
    return memoryview(array).cast("B")


def _read_exact(src, view: memoryview) -> None:
    """Fill `view` from a pipe; RuntimeError if the writer is gone first."""
    got = src.readinto(view)
    if got != len(view):
        raise RuntimeError(f"the training worker's pipe closed after {got} "
                           f"of {len(view)} bytes")


def _send_arrays(dst, arrays) -> None:
    for a in arrays:
        dst.write(_bytes_of(a))
    dst.flush()


def _worker_share(batch_len: int) -> int:
    """Where the worker's share of a batch starts: the caller computes
    the first ceil(B/2) windows, the worker the rest."""
    return (batch_len + 1) // 2


def _serve_fold(run: _FoldRun, send, receive) -> None:
    """The worker's side of a split fold: every step it takes the caller's
    parameters (from the second step on), draws every window's values and
    computes only its own share; then it sends, per window and route in
    batch order, the loss and which parameters have a gradient (float64
    and one byte each), then those gradients. A route's gradients are
    staged until the share is done, so the worker never waits on a caller
    that is still busy with its own share."""
    params = list(run.model.params.values())
    param_bytes = [_bytes_of(p.data) for p in params]
    step = 0
    for _ in range(run.config.epochs):
        for batch in run.batches():
            if step:
                for raw in param_bytes:
                    _read_exact(receive, raw)
            step += 1
            weight = 1.0 / len(batch)
            start = _worker_share(len(batch))
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
                send.write(np.float64(loss).tobytes()
                           + bytes(g is not None for g in grads))
                _send_arrays(send, [g for g in grads if g is not None])


class _WorkerRoutes:
    """The caller's end of the worker's pipe (see `_serve_fold`)."""

    def __init__(self, receive, params: list[ad.Tensor]):
        self.receive = receive
        self.head = np.empty(8 + len(params), dtype=np.uint8)
        # every gradient is read into one buffer the size of the largest
        # parameter, never staged whole
        buffer = np.empty(max(p.size for p in params))
        self.slots = [(p, buffer[:p.size].reshape(p.shape),
                       _bytes_of(buffer[:p.size])) for p in params]

    def add_route(self) -> float:
        """Read the next route and add its gradients into `.grad`; returns
        its loss. Every parameter is read once per route forward, so a
        route reaches each gradient as one term, and this is the add the
        caller's own tape would have made."""
        _read_exact(self.receive, _bytes_of(self.head))
        for (p, grad, raw), has_grad in zip(self.slots, self.head[8:]):
            if has_grad:
                _read_exact(self.receive, raw)
                p.accumulate_grad(grad)
        return float(self.head[:8].view(np.float64)[0])


def _run_steps(run: _FoldRun, optimizer: Adam, result: TrainResult,
               worker=None) -> None:
    """Every step of the fold, alone or with `worker` running `_serve_fold`;
    fills `result.steps` and `result.epochs`."""
    params = list(run.model.params.values())
    from_worker = _WorkerRoutes(worker.receive, params) if worker else None
    step_no = 0
    for epoch in range(1, run.config.epochs + 1):
        epoch_steps = []
        for batch in run.batches():
            if worker is not None and step_no:
                _send_arrays(worker.send, [p.data for p in params])
            step_no += 1
            # draw_mask hides round(ratio * n_patches) patches in every
            # window, so either every window has an MSE term or none does:
            # both means divide by the batch size
            weight = 1.0 / len(batch)
            end = len(batch) if worker is None else _worker_share(len(batch))
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

    On two or more CPUs (`os.sched_getaffinity`) with batches of two or more
    windows, a worker forked once the model exists computes the second half
    of every batch while the caller computes the first, both with one BLAS
    thread; the caller adds the worker's per-route gradients after its own
    in batch order, so losses and parameters equal the serial loop's bit
    for bit. Without `os.fork` or a BLAS whose thread count can be set the
    caller trains alone.
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
    optimizer = Adam(model.parameters(), config.learning_rate,
                     config.beta1, config.beta2, config.eps)
    run = _FoldRun(model, samples,
                   [one_hot(labels[i], model_config.n_classes)
                    for i in range(n_windows)], config, rng)
    result = TrainResult(model=model)
    started = time.perf_counter()
    blas = _split_blas(min(2, _cpu_count(), config.batch_size, n_windows))
    if blas is None:
        _run_steps(run, optimizer, result)
    else:
        with _forked([functools.partial(_serve_fold, run)],
                     blas) as [worker]:
            _run_steps(run, optimizer, result, worker)
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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _split_blas(n_processes: int):
    """The BLAS thread control if work can be split over `n_processes`:
    two or more, `os.fork` exists and the BLAS thread count can be set;
    else None."""
    if n_processes < 2 or not hasattr(os, "fork"):
        return None
    return _blas_thread_control()


@dataclass
class _Child:
    """A forked child as the caller sees it: `receive` reads what the child
    sends, `send` writes to the child."""

    pid: int
    receive: typing.BinaryIO
    send: typing.BinaryIO

    def close(self) -> None:
        self.receive.close()
        # a child that died leaves nothing to flush into
        with contextlib.suppress(BrokenPipeError):
            self.send.close()


def _fork(work, siblings: list[_Child]) -> _Child:
    """Fork a child that runs `work(send, receive)` on its ends of a pipe
    each way and leaves with `os._exit`: 0 if `work` returned, 1 if it
    raised (the traceback goes to stderr). The child first closes the
    caller's ends of its own and its `siblings`' pipes."""
    up_read, up_write = os.pipe()
    down_read, down_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (up_read, up_write, down_read, down_write):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(up_read)
            os.close(down_write)
            for sibling in siblings:
                # closing the descriptors alone, so no buffer is flushed
                os.close(sibling.receive.fileno())
                os.close(sibling.send.fileno())
            with open(up_write, "wb") as send, \
                    open(down_read, "rb") as receive:
                work(send, receive)
            code = 0
        except Exception:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(up_write)
    os.close(down_read)
    return _Child(pid, open(up_read, "rb"), open(down_write, "wb"))


@contextlib.contextmanager
def _forked(works: list, blas):
    """Run each of `works` in a forked child (see `_fork`) while the block
    runs, every process with one BLAS thread; yields the children.

    On leaving, every pipe is closed and every child reaped, killed first if
    the block raised, so its exception is the one that surfaces; the BLAS
    thread count is restored. A child that exited non-zero after a block
    that did not raise is a RuntimeError.
    """
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    children: list[_Child] = []
    done = False
    codes = []
    try:
        for work in works:
            children.append(_fork(work, children))
        yield children
        done = True
    finally:
        for child in children:
            if not done:
                os.kill(child.pid, signal.SIGKILL)
            child.close()
            codes.append(os.waitstatus_to_exitcode(
                os.waitpid(child.pid, 0)[1]))
        set_threads(threads)
    failed = [code for code in codes if code != 0]
    if failed:
        raise RuntimeError(f"{len(failed)} of {len(codes)} forked children "
                           f"failed, exit statuses {failed}")


def _predict_windows(model: Model, samples: np.ndarray) -> np.ndarray:
    return np.stack([model.predict_labels(samples[i])
                     for i in range(samples.shape[0])])


def predict(model: Model, samples: np.ndarray) -> np.ndarray:
    """Per-sample argmax labels for a stack of unmasked windows (W, T).

    The windows are split into one contiguous share per CPU this process
    may run on (`os.sched_getaffinity`). The caller predicts the first share
    and a forked child each of the others, which inherits the model, so
    nothing is pickled; a child writes its labels to a pipe as raw int64
    bytes. While they run, every process uses one BLAS thread: a second one
    buys little at these shapes, and two processes with two BLAS threads
    each on two cores ran slower than one process alone. With one CPU or
    one window, or without `os.fork` or a BLAS whose thread count can be
    set, the caller predicts every window itself.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 2:
        samples = samples[None]
    n_shares = min(_cpu_count(), samples.shape[0])
    blas = _split_blas(n_shares)
    if blas is None:
        return _predict_windows(model, samples)
    shares = np.array_split(samples, n_shares)

    def predict_share(share, send, receive):
        send.write(_predict_windows(model, share).astype(np.int64).tobytes())

    with _forked([functools.partial(predict_share, share)
                  for share in shares[1:]], blas) as children:
        labels = [_predict_windows(model, shares[0])]
        sent = [child.receive.read() for child in children]
    for share, raw in zip(shares[1:], sent):
        shape = share.shape[:2]
        if len(raw) != 8 * shape[0] * shape[1]:
            raise RuntimeError(f"predict: the child for {shape[0]} windows "
                               f"sent {len(raw)} of "
                               f"{8 * shape[0] * shape[1]} bytes")
        labels.append(np.frombuffer(raw, dtype=np.int64).reshape(shape))
    return np.concatenate(labels)


def sample_accuracy(model: Model, samples: np.ndarray,
                    labels: np.ndarray) -> float:
    """Fraction of samples whose predicted class matches the label."""
    preds = predict(model, samples)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim == 1:
        labels = labels[None]
    return float(np.mean(preds == labels))
