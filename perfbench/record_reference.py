"""Record the reference output values that run.py checks each run against.

Run from the root of a checkout:

    python3 perfbench/record_reference.py --seeds 0-49

For each workload and seed it runs the set-up and one operation, requires
the operation to pass its own checks, and stores the operation's output
values in perfbench/reference.json under the workload and the seed. Record
anew only with a program change that is meant to change its results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="inclusive range FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    rp = run.import_program()
    run.WORK.mkdir(exist_ok=True)
    recorded = {}
    for name in WORKLOADS:
        for seed in range(first, last + 1):
            workdir = tempfile.mkdtemp(dir=run.WORK)
            try:
                workload = WORKLOADS[name](rp, seed, run.Path(workdir))
                workload.setup()
                op = workload.op()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if op.failed or op.problems:
                print(f"{name} seed {seed} failed its checks: {op.problems}",
                      file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = op.values
            print(name, seed, json.dumps(op.values), flush=True)
    refs = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() \
        else {}
    for name, seeds in recorded.items():
        refs.setdefault(name, {}).update(seeds)
    run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
