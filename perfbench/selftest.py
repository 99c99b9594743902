"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- the metrics the benchmark emits are exactly those BENCHMARK.json declares,
  with the same units;
- corrupted outputs are counted as failures: a NaN injected into a report,
  a wrong repetition count, a non-zero exit code, an output that does not
  repeat or is off its recorded reference, and a fold that does not learn;
- a short run of each workload, untraced and traced, exits 0 and
  prints every declared metric with its unit, and names each of the ten
  end-to-end metrics with a value where the workload defines it.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, FoldSmall, InferFull, Op, StepFull

# where each of the ten end-to-end names has a value
DEFINED = {
    "fold-small": {"fold_s", "heldout_macro_f1", "final_loss"},
    "step-full": {"train_samples_per_s", "final_loss"},
    "infer-full": {"infer_samples_per_s", "scored_fraction"},
}
EVERYWHERE = {"setup_s", "peak_rss_mb", "error_rate"}


def expect(ok: bool, what: str):
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_declarations():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == run.END_TO_END,
           "end-to-end metrics match BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == run.per_layer_units(),
           "per-layer metrics match BENCHMARK.json")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "workloads match BENCHMARK.json")


class Corrupting(InferFull):
    """Two subjects; `corrupt(argv, report_path, code)` runs after each
    command and returns the exit code the workload sees."""

    subjects = 2

    def __init__(self, rp, workdir, corrupt):
        super().__init__(rp, 7, workdir)
        self.corrupt = corrupt

    def op(self) -> Op:
        main = self.rp.cli.main

        def corrupted_main(argv):
            return self.corrupt(argv, Path(argv[-1]), main(argv))

        self.rp.cli.main = corrupted_main
        try:
            return super().op()
        finally:
            self.rp.cli.main = main


def _inject_nan(argv, path, code):
    if argv[0] == "evaluate":
        report = json.loads(path.read_text())
        report["checkpoints"][0]["sample_accuracy"] = float("nan")
        path.write_text(json.dumps(report))  # writes the bare token NaN
    return code


def _extra_repetition(argv, path, code):
    if argv[0] == "velocity":
        report = json.loads(path.read_text())
        reps = report["velocity"]["repetitions"]
        reps.append(dict(reps[0]))
        path.write_text(json.dumps(report))
    return code


def _exit_code(argv, path, code):
    return 3 if argv[0] == "velocity" else code


def check_corruption(rp):
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        workload = Corrupting(rp, Path(tmp), lambda argv, path, code: code)
        workload.setup()
        op = workload.op()
        expect(op.attempted == 2 and op.failed == 0,
               "clean two-subject evaluate and velocity have no failures")
        for corrupt, needle in ((_inject_nan, "non-finite"),
                                (_extra_repetition, "chair repetitions"),
                                (_exit_code, "exited 3")):
            workload.corrupt = corrupt
            op = workload.op()
            expect(op.failed == 1 and any(needle in p for p in op.problems),
                   f"{corrupt.__name__} is counted as one failed command")

        store = Path(tmp) / "reference.json"
        store.write_text(json.dumps({"step-full": {"1": {
            "final_loss": 2.0, "ce": 1.0, "mse": 1.0}}}))
        ops = [Op(attempted=1, values={"final_loss": 2.0, "ce": 1.0,
                                       "mse": 1.0}),
               Op(attempted=1, values={"final_loss": 2.0 + 1e-12, "ce": 1.0,
                                       "mse": 1.0})]
        run.check_outputs(ops, StepFull, 1, store)
        expect([op.failed for op in ops] == [0, 1],
               "an output that does not repeat within a run is a failure")
        ops = [Op(attempted=1, values={"final_loss": 2.01, "ce": 1.0,
                                       "mse": 1.0})]
        run.check_outputs(ops, StepFull, 1, store)
        expect(ops[0].failed == 1 and "reference" in ops[0].problems[0],
               "an output off its recorded reference is a failure")
        ops = [Op(attempted=1, values={"final_loss": 2.01, "ce": 1.0,
                                       "mse": 1.0})]
        run.check_outputs(ops, StepFull, 2, store)
        expect(ops[0].failed == 0,
               "a seed without a reference is checked for repeats only")


def check_fold_floors(rp):
    """A fold whose training does not learn fails on any seed."""
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        workload = FoldSmall(rp, 7, Path(tmp))
        workload.setup()
        workload.train_config = dataclasses.replace(
            workload.train_config, learning_rate=1e-6)
        op = workload.op()
        expect(op.failed == 1 and any("loss" in p for p in op.problems),
               "a fold that does not learn is counted as a failure")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_emission(name: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    what = f"{name} --trace {trace}"
    expect(proc.returncode == 0, f"{what} exits 0")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}
           and result["correct"] and result["failed"] == 0,
           f"{what} is correct with no failures")
    units = run.per_layer_units() if trace else run.END_TO_END
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == units, f"{what} emits every declared metric with its unit")
    if not trace:
        expect(all(v["value"] > 0 for v in result["metrics"].values()),
               f"{what} end-to-end values are all non-zero")
    named = {line.split()[0]: line.split()[1:] for line in lines
             if line.startswith("  ") and line.split()
             and line.split()[0] in run.NAMED_METRICS}
    for metric in run.NAMED_METRICS:
        fields = named.get(metric)
        if metric in DEFINED[name] | EVERYWHERE:
            ok = fields is not None and len(fields) == 2 \
                and _is_number(fields[0]) \
                and fields[1] == run.NAMED_METRICS[metric]
        else:
            ok = fields is not None and fields[0] == "n/a"
        expect(ok, f"{what} names {metric}")


def main() -> int:
    check_declarations()
    rp = run.import_program()
    check_corruption(rp)
    check_fold_floors(rp)
    for name in WORKLOADS:
        for trace in (0, 1):
            check_emission(name, trace)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
