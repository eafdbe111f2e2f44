"""Record the reference outputs the benchmark checks every operation against.

    python3 perfbench/record_references.py [--workload NAME ...]

Run from the repository root on a commit whose results are trusted.  For a
workload whose inputs depend on the seed (seeded starts), one pass is
recorded for each of the REFERENCE_SEEDS seeds; otherwise a single pass is
recorded under "*".  The recorded fields are the status, the iteration
count and J_final (iterations are informational; the checks compare status
and J_final only).  Existing entries of workloads not named are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before numpy is imported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="workload to record (default: all)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(run.BENCH_DIR), str(run.SRC)]
    import workloads

    catalog = workloads.make_workloads(run.ROOT)
    table = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(catalog):
        workload = catalog[name]
        seeds = range(workloads.REFERENCE_SEEDS) if workload.seeded else [0]
        entry = {}
        for seed in seeds:
            scratch = tempfile.mkdtemp(prefix="refs-", dir=run.OUT_DIR)
            try:
                cases = workload.build(seed, Path(scratch))
                _, _, results = run.run_pass(workload, cases)
                done = run.outcomes(workload, cases, results)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            errors = [f"{o.instance}: {o.error}" for o in done if o.error]
            if errors:
                print(f"{name} seed {seed}: not recording, outputs failed:\n  " + "\n  ".join(errors),
                      file=sys.stderr)
                return 1
            key = str(seed) if workload.seeded else "*"
            entry[key] = {o.instance: {"status": o.status, "iterations": o.iterations,
                                       "J_final": o.J_final} for o in done}
            print(f"{name} seed {key}: " + ", ".join(f"{o.status}/{o.iterations}" for o in done))
        table[name] = entry
    run.REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
