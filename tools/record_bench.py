"""Record a BENCH_<n>.json: every benchmark workload, untraced and traced.

    python3 tools/record_bench.py BENCH_8.json

Run from the repository root.  For each workload in BENCHMARK.json this runs
perfbench/run.py at seed 0 once with --trace 0 (end-to-end metrics) and once
with --trace 1 (per-layer metrics) and merges the records it writes under
.perfbench/, without their span lists, into one JSON file.  Every run
lasts the benchmark's own run_seconds.  Exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs, failed = {}, []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            command = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                                          "--seconds", str(seconds), "--trace", str(trace)]
            path = ROOT / ".perfbench" / f"{workload}-seed{SEED}-trace{trace}.json"
            path.unlink(missing_ok=True)  # never merge a record left by an earlier run
            print(" ".join(command), file=sys.stderr, flush=True)
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                failed.append(f"{workload} --trace {trace}: exit {proc.returncode}\n"
                              f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            if not path.is_file():
                continue
            record = json.loads(path.read_text())
            record.pop("spans", None)
            runs.setdefault(workload, {})[f"trace{trace}"] = record

    out = {"command": f"python3 tools/record_bench.py {args.output}",
           "seed": SEED, "seconds": seconds, "runs": runs}
    Path(args.output).write_text(json.dumps(out, indent=1, default=float) + "\n")
    for message in failed:
        print("FAILED " + message, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
