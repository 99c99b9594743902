"""Per-layer spans recorded from outside the program.

The benchmark does not edit the program. While a traced region is active,
each traced function is swapped for a timing wrapper at every name the
program looks it up by: the attribute of its defining module or class, and
every `from ... import` binding of the same object in another `repseg`
module (for example `train` binds the masking functions, `cli` binds
`read_dataset`, `predict` and `chair_rising_velocity`, `experiments` binds
`predict` and `train_fold`). The originals are put back when the region
ends, even if it raised.

Self time of a span is its duration minus the time its child spans cover.
`train.step` has no function of its own: it opens when the training loop
enters its `autodiff.Tape` and closes when `Adam.step` returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

AUTODIFF_OPS = ("matmul", "add", "softmax_rows", "layer_norm",
                "dilated_conv1d", "relu", "split_cols", "concat_cols",
                "transpose", "scale", "mul", "sub", "sum_all", "log_clamped",
                "dropout")

# span name -> (module, attribute path) of the wrapped callable
TARGETS = {
    **{f"autodiff.{op}": ("autodiff", op) for op in AUTODIFF_OPS},
    "autodiff.backward": ("autodiff", "Tape.backward"),
    "model.encode": ("model", "Model.encode"),
    "model.tcn_logits": ("model", "Model.tcn_logits"),
    "model.classify": ("model", "Model.classify"),
    "model.reconstruct": ("model", "Model.reconstruct"),
    "model.predict_labels": ("model", "Model.predict_labels"),
    "masking.draw_mask": ("masking", "draw_mask"),
    "masking.apply_mask": ("masking", "apply_mask"),
    "masking.cross_entropy": ("masking", "cross_entropy"),
    "masking.masked_mse": ("masking", "masked_mse"),
    "masking.combined_loss": ("masking", "combined_loss"),
    "train.train_fold": ("train", "train_fold"),
    "train.adam": ("train", "Adam.step"),
    "train.predict": ("train", "predict"),
    "experiments.run_fold": ("experiments", "run_fold"),
    "experiments.evaluate_model": ("experiments", "evaluate_model"),
    "metrics.labels_to_segments": ("metrics", "labels_to_segments"),
    "metrics.sample_f1": ("metrics", "sample_f1"),
    "metrics.segmental_iou_f1": ("metrics", "segmental_iou_f1"),
    "metrics.confusion_matrix": ("metrics", "confusion_matrix"),
    "metrics.count_loa": ("metrics", "count_loa"),
    "velocity.chair_rising_velocity": ("velocity", "chair_rising_velocity"),
    "velocity.lowpass": ("velocity", "lowpass"),
    "velocity.find_still_window": ("velocity", "find_still_window"),
    "dataio.read_dataset": ("dataio", "read_dataset"),
    "dataio.write_dataset": ("dataio", "write_dataset"),
    "dataio.load_checkpoint": ("dataio", "load_checkpoint"),
    "dataio.save_checkpoint": ("dataio", "save_checkpoint"),
    "dataio.write_report": ("dataio", "write_report"),
    "synth.make_cohort": ("synth", "make_cohort"),
    "synth.windowize": ("synth", "windowize"),
    "cli.generate": ("cli", "cmd_generate"),
    "cli.evaluate": ("cli", "cmd_evaluate"),
    "cli.velocity": ("cli", "cmd_velocity"),
}
STEP = "train.step"
PACKAGE = "repseg"
SPAN_NAMES = (*TARGETS, STEP)

# counts taken from a span's return value: span -> (counter, count(result))
_RESULT_COUNTS = {
    "dataio.read_dataset": ("rows_parsed", lambda ds: sum(
        rec.signal.shape[0] for rec in ds.recordings)),
    "model.predict_labels": ("samples_predicted", lambda labels: labels.size),
}


class Tracer:
    """Accumulates calls and self seconds per span name across traced
    regions; `active()` opens one region."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child seconds]
        self._open_steps = 0

    # ------------------------------------------------------------- spans
    def _begin(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _end(self, name: str):
        end = time.perf_counter()
        open_name, start, child_s = self._stack.pop()
        if open_name != name:
            raise RuntimeError(f"span {open_name!r} closed as {name!r}")
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration

    def _close_step(self):
        if self._open_steps:
            self._open_steps -= 1
            self._end(STEP)

    def _wrap(self, name: str, fn):
        is_op = name.startswith("autodiff.") and name != "autodiff.backward"
        counter = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_op and self._open_steps:
                self.counts["step_op_calls"] += 1
            self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(name)
            if counter is not None:
                self.counts[counter[0]] += counter[1](out)
            return out

        return traced

    def _step_hooks(self, tape_cls, adam_cls) -> dict:
        enter, leave, adam_step = (tape_cls.__enter__, tape_cls.__exit__,
                                   adam_cls.step)

        def traced_enter(tape):
            self._open_steps += 1
            self._begin(STEP)
            return enter(tape)

        def traced_exit(tape, exc_type, exc, tb):
            out = leave(tape, exc_type, exc, tb)
            if exc_type is not None:
                self._close_step()
            return out

        def traced_adam_step(opt):
            try:
                return adam_step(opt)
            finally:
                self._close_step()

        return {(tape_cls, "__enter__"): traced_enter,
                (tape_cls, "__exit__"): traced_exit,
                (adam_cls, "step"): traced_adam_step}

    # ----------------------------------------------------------- patching
    def _modules(self) -> list:
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]

    @contextlib.contextmanager
    def active(self):
        """Wrap every target for the duration of the block.

        A target missing from the program raises AttributeError, so a
        rename shows up as a failure instead of a silent zero."""
        patched: list[tuple] = []

        def swap(owner, attr, new):
            patched.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            modules = self._modules()
            for name, (mod_name, path) in TARGETS.items():
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
                owner_path, _, attr = path.rpartition(".")
                if owner_path:
                    owner = getattr(module, owner_path)
                    swap(owner, attr, self._wrap(name, getattr(owner, attr)))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            swap(mod, bound, wrapper)
            ad = importlib.import_module(f"{PACKAGE}.autodiff")
            train = importlib.import_module(f"{PACKAGE}.train")
            for (owner, attr), new in self._step_hooks(ad.Tape,
                                                       train.Adam).items():
                swap(owner, attr, new)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            self._stack.clear()
            self._open_steps = 0
