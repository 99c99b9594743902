"""Benchmark of the repseg program: three closed-loop workloads, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fold-small --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped. `--trace 1`
alternates untraced and traced operations and reports per-layer metrics
(calls and self seconds per span, for one set-up plus one operation) and the
tracing overhead. `--workload all` runs every workload, each in a fresh
process. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
# Before each operation the set-up is repeated for at least this long, so
# that setup_s samples the machine's speed across the whole run, as op_s
# does, and not in one burst at the start.
SETUP_BLOCK_S = 0.5

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

END_TO_END = {"setup_s": "s", "op_s": "s", "samples_per_s": "1/s",
              "peak_rss_mb": "MB"}
# the ten end-to-end names a reader asks for, printed as human lines
NAMED_METRICS = {"setup_s": "s", "fold_s": "s", "train_samples_per_s": "1/s",
                 "infer_samples_per_s": "1/s", "scored_fraction": "ratio",
                 "analysis_s": "s", "heldout_macro_f1": "ratio",
                 "final_loss": "loss", "peak_rss_mb": "MB",
                 "error_rate": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({
        "autodiff.op_calls_per_step": "count",
        "model.useful_sample_ratio": "ratio",
        "dataio.read_dataset.rows": "count",
        "dataio.rows_used_ratio": "ratio",
        "trace.overhead_s": "s",
        "trace.overhead_share": "ratio",
    })
    return units


# ------------------------------------------------------------- environment
def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    mem = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_setting": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ} or "library default",
        "nproc": os.cpu_count(),
        "memory_total_mb": int(mem.split()[0]) // 1024 if mem else None,
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
    }


# ------------------------------------------------------- reference values
def check_outputs(ops: list[Op], workload_cls, seed: int,
                  store: Path = REFERENCE):
    """Output values repeat exactly within the run and, for a seed that
    `store` holds, lie within the workload's relative tolerance of the
    recorded value (the tolerance allows floating-point reordering, not a
    different result)."""
    expected = json.loads(store.read_text()).get(
        workload_cls.name, {}).get(str(seed))
    first = next((op.values for op in ops if op.values), None)
    for op in ops:
        if not op.values:
            continue
        problems = []
        if op.values != first:
            problems.append(f"outputs {op.values} differ from the run's "
                            f"first {first}")
        for key, tol in workload_cls.tolerance.items():
            value = op.values.get(key)
            if expected and (value is None or not math.isclose(
                    value, expected[key], rel_tol=tol, abs_tol=1e-12)):
                problems.append(f"{key} {value!r} is not within {tol} of "
                                f"the reference {expected[key]!r}")
        op.problems += problems
        if problems:
            op.failed = max(op.failed, 1)


# ------------------------------------------------------------------ running
def import_program():
    sys.path.insert(0, str(SRC))
    import repseg
    import repseg.cli  # noqa: F401  (not imported by the package itself)
    where = Path(repseg.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"repseg imported from {where}, not {SRC}")
    return repseg


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_workload(rp, name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict, list[Op], dict]:
    workload = WORKLOADS[name](rp, seed, workdir)
    setup_tracer, op_tracer = spans.Tracer(), spans.Tracer()

    setup_times = []

    def set_up():
        """Set up once if traced; else again and again for SETUP_BLOCK_S."""
        block_started = time.perf_counter()
        while True:
            with setup_tracer.active() if trace else nullcontext():
                started = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - started)
            if trace or time.perf_counter() - block_started >= SETUP_BLOCK_S:
                return

    set_up()
    with setup_tracer.active() if trace else nullcontext():
        started = time.perf_counter()
        workload.warm_up()
        warm_up_s = time.perf_counter() - started

    ops: list[Op] = []
    while True:
        if ops and not trace:
            set_up()
        traced = trace and len(ops) % 2 == 1
        op_started = time.perf_counter()
        try:
            with op_tracer.active() if traced else nullcontext():
                op = workload.op()
        except Exception as exc:  # a program failure is a counted failure
            traceback.print_exc()
            op = Op(seconds=time.perf_counter() - op_started, attempted=1,
                    failed=1, problems=[f"{type(exc).__name__}: {exc}"])
        op.traced = traced
        ops.append(op)
        enough_kinds = not trace or len(ops) >= 2
        if sum(op.seconds for op in ops) >= seconds and enough_kinds:
            break

    plain = [op for op in ops if not op.traced]
    summary = {
        "setup_s": _median(setup_times),
        "setup_n": len(setup_times),
        "warm_up_s": warm_up_s,
        "op_s": _median([op.seconds for op in plain]),
        "op_p90_s": _p90([op.seconds for op in plain]),
        "op_n": len(plain),
        "samples_per_s": _median([op.samples / op.seconds for op in plain
                                  if op.seconds > 0]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers = (per_layer(workload, setup_tracer, op_tracer, ops)
              if trace else {})
    return summary, ops, layers


def per_layer(workload, setup_tr: spans.Tracer, op_tr: spans.Tracer,
              ops: list[Op]) -> dict:
    """Per-layer values for one set-up plus one operation."""
    traced = [op for op in ops if op.traced]
    n = len(traced)
    missing = sorted(s for s in workload.spans
                     if setup_tr.calls[s] + op_tr.calls[s] == 0)
    if missing:
        raise SystemExit(f"error: declared spans never fired on "
                         f"{workload.name}: {', '.join(missing)}")
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = setup_tr.calls[name] + op_tr.calls[name] / n
        out[f"{name}.s"] = setup_tr.self_s[name] + op_tr.self_s[name] / n

    def ratio(a, b):
        return a / b if b else 0.0

    steps = setup_tr.calls[spans.STEP] + op_tr.calls[spans.STEP]
    out["autodiff.op_calls_per_step"] = ratio(
        setup_tr.counts["step_op_calls"] + op_tr.counts["step_op_calls"],
        steps)
    out["model.useful_sample_ratio"] = ratio(
        sum(op.scored for op in traced), op_tr.counts["samples_predicted"])
    out["dataio.read_dataset.rows"] = (setup_tr.counts["rows_parsed"]
                                       + op_tr.counts["rows_parsed"] / n)
    out["dataio.rows_used_ratio"] = ratio(
        sum(op.rows_used for op in traced), op_tr.counts["rows_parsed"])
    plain_s = _median([op.seconds for op in ops if not op.traced])
    overhead = _median([op.seconds for op in traced]) - plain_s
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = ratio(overhead, plain_s)
    return out


def named_metric_lines(workload_cls, summary: dict, ops: list[Op],
                       error_rate: float) -> list[str]:
    values = dict(ops[0].values) if ops else {}
    values.update({alias: summary[generic]
                   for alias, generic in workload_cls.aliases.items()})
    values.update(setup_s=summary["setup_s"],
                  peak_rss_mb=summary["peak_rss_mb"], error_rate=error_rate)
    lines = []
    for name, unit in NAMED_METRICS.items():
        if isinstance(values.get(name), (int, float)):
            lines.append(f"  {name:<22} {values[name]:.6g} {unit}")
        else:
            lines.append(f"  {name:<22} n/a on {workload_cls.name}")
    return lines


def run_one(args) -> int:
    try:
        rp = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    env = environment()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        summary, ops, layers = run_workload(
            rp, args.workload, args.seed, args.seconds, bool(args.trace),
            workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_outputs(ops, WORKLOADS[args.workload], args.seed)

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    for op in ops:
        for problem in op.problems:
            print(f"problem: {problem}", file=sys.stderr)
    error_rate = failed / attempted

    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"setup_s median {summary['setup_s']:.4f} s of "
          f"{summary['setup_n']} set-ups; warm-up after them (not in "
          f"setup_s) {summary['warm_up_s']:.4f} s")
    print(f"op_s median {summary['op_s']:.4f} s, p90 {summary['op_p90_s']:.4f}"
          f" s, n={summary['op_n']} untraced operations")
    print("operation seconds " + " ".join(
        f"{op.seconds:.3f}{'t' if op.traced else ''}" for op in ops))
    print(f"operations attempted {attempted}, failed {failed}, "
          f"error_rate {error_rate:.4g}")
    print("end-to-end metrics by name:")
    for line in named_metric_lines(WORKLOADS[args.workload], summary, ops,
                                   error_rate):
        print(line)

    if args.trace:
        units = per_layer_units()
        print("per-layer self seconds (one set-up + one operation):")
        busy = sorted((v, k) for k, v in layers.items() if k.endswith(".s"))
        for value, key in reversed(busy[-15:]):
            print(f"  {key:<40} {value:.4f} s")
        print(f"tracing overhead {layers['trace.overhead_s']:.4f} s per "
              f"operation ({100 * layers['trace.overhead_share']:.2f}%)")
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process: `ru_maxrss` is a process
    high-water mark, so one workload's peak must not leak into the next."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
