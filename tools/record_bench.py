"""Record a BENCH_<n>.json, or paired parent/change runs of the benchmark.

    python3 tools/record_bench.py BENCH_10.json
    python3 tools/record_bench.py --pairs 10 --parent REV [--seed 3] BENCH_10_pairs.json

Run from the repository root.  Every run lasts the benchmark's own
run_seconds and exits 1 if any run fails its checks.

Without --pairs, each workload in BENCHMARK.json runs once at seed 0 with
--trace 0 (end-to-end metrics) and once with --trace 1 (per-layer metrics),
and the records perfbench/run.py writes under .perfbench/ are merged,
without their span lists, into one JSON file.

With --pairs N, each workload runs untraced N times on the parent commit
REV and N times on this checkout, in alternating pairs: odd pairs run the
parent first.  The parent runs from the committed files of REV, unpacked
with git archive into a temporary directory that is deleted afterwards.
The file gets one round per call: every run's end-to-end metrics, and per
workload the quartiles of wall_cal on each side, the number of pairs in
which the change was faster, and whether both sides gave the same outcomes
(status, iterations and the bits of J_final of every instance).  A round is
appended when the file already holds rounds against the same parent; any
other existing file is left alone, and the call exits 1 before any run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
FIELDS = ["pair", "workload", "side", "failed", "wall_cal", "setup_s", "peak_rss_mb",
          "feasible_fraction"]


def run_bench(root: Path, command: list, workload: str, seed: int, seconds, trace: int):
    """Run one benchmark workload in the checkout at root.

    Returns (record or None, failure message or None); the record is the
    JSON file perfbench/run.py leaves under root/.perfbench.
    """
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)]
    path = root / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)  # never read a record left by an earlier run
    print(f"[{root.name}] " + " ".join(argv), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    failure = None
    if proc.returncode != 0:
        failure = (f"{root.name} {workload} --trace {trace}: exit {proc.returncode}\n"
                   f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = json.loads(path.read_text()) if path.is_file() else None
    return record, failure


def snapshot(bench: dict, output: str) -> int:
    runs, failed = {}, []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            record, failure = run_bench(ROOT, bench["command"], workload, SEED,
                                        bench["run_seconds"], trace)
            if failure:
                failed.append(failure)
            if record is not None:
                record.pop("spans", None)
                runs.setdefault(workload, {})[f"trace{trace}"] = record

    out = {"command": f"python3 tools/record_bench.py {output}",
           "seed": SEED, "seconds": bench["run_seconds"], "runs": runs}
    Path(output).write_text(json.dumps(out, indent=1, default=float) + "\n")
    return report(failed)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def quartiles(values: list):
    """q1, median and q3 (statistics.quantiles, exclusive), or None below 4 values."""
    if len(values) < 4:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 2), round(median, 2), round(q3, 2)]


def outcome_key(record: dict) -> list:
    return [(o["instance"], o["status"], o["iterations"], float(o["J_final"]).hex())
            for o in record["outcomes"]]


def pairs(bench: dict, n_pairs: int, parent: str, seed: int, output: str) -> int:
    parent_sha = git("rev-parse", "--short", parent)
    path = Path(output)
    existing = None
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError):
            pass
        if not (isinstance(existing, dict) and existing.get("parent") == parent_sha
                and isinstance(existing.get("rounds"), list)):
            print(f"{output} exists and is not a pairs file against {parent_sha}; "
                  "it is left as it is, give another OUT", file=sys.stderr)
            return 1
    change = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change += " with uncommitted changes"
    workloads = [w["name"] for w in bench["workloads"]]
    runs, failed, outcomes = [], [], {}
    scratch = Path(tempfile.mkdtemp(prefix="record-bench-"))
    parent_root = scratch / f"parent-{parent_sha}"
    try:
        parent_root.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent_sha],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_root)], input=archive, check=True)
        roots = {"parent": parent_root, "change": ROOT}
        for pair in range(1, n_pairs + 1):
            for workload in workloads:
                sides = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in sides:
                    record, failure = run_bench(roots[side], bench["command"], workload, seed,
                                                bench["run_seconds"], 0)
                    if failure:
                        failed.append(f"pair {pair} {side} {failure}")
                    if record is None:
                        continue
                    metrics = {k: v["value"] for k, v in record["metrics"].items()}
                    runs.append([pair, workload, side, len(record["failures"])]
                                + [round(metrics[k], 4) for k in FIELDS[4:]])
                    outcomes.setdefault((workload, side), set()).add(
                        json.dumps(outcome_key(record)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = {}
    for workload in workloads:
        wall = {side: {r[0]: r[4] for r in runs if r[1] == workload and r[2] == side}
                for side in ("parent", "change")}
        both = sorted(set(wall["parent"]) & set(wall["change"]))
        parent_wall = [wall["parent"][p] for p in both]
        change_wall = [wall["change"][p] for p in both]
        medians = {side: {k: statistics.median(r[i] for r in runs
                                               if r[1] == workload and r[2] == side)
                          for i, k in enumerate(FIELDS[5:], start=5)}
                   for side in ("parent", "change") if wall[side]}
        summary[workload] = {
            "pairs": len(both),
            "wall_cal_parent_q1_median_q3": quartiles(parent_wall),
            "wall_cal_change_q1_median_q3": quartiles(change_wall),
            "change_better_pairs": sum(c < p for p, c in zip(parent_wall, change_wall)),
            "median_change": (round(statistics.median(change_wall)
                                    / statistics.median(parent_wall) - 1.0, 3)
                              if both else None),
            "medians_parent_change": {k: [round(medians[s][k], 4) if s in medians else None
                                          for s in ("parent", "change")] for k in FIELDS[5:]},
            "failed": sum(r[3] for r in runs if r[1] == workload),
            # one set of outcomes over every run of both sides
            "same_outcomes": len(outcomes.get((workload, "parent"), set())
                                 | outcomes.get((workload, "change"), set())) == 1,
        }

    round_ = {"change": change, "seed": seed, "order": "alternating: odd pairs run the parent first",
              "summary": summary, "runs": runs}
    if existing is not None:
        existing["rounds"].append(round_)
        out = existing
    else:
        out = {
            "what": "Paired runs of perfbench/run.py: each pair runs one workload once on the "
                    "parent and once on the change, back to back.",
            "command": f"python3 tools/record_bench.py --pairs {n_pairs} --parent {parent_sha} "
                       f"--seed {seed} {output}",
            "host": f"{os.cpu_count()}-core host, BLAS threads 1 (perfbench/run.py sets them)",
            "parent": parent_sha,
            "fields": FIELDS,
            "quartiles": "statistics.quantiles(n=4), exclusive method; none below 4 pairs",
            "same_outcomes": "every run of the workload, on both sides, gave the same status, "
                             "iterations and J_final bits for every instance",
            "rounds": [round_],
        }
    path.write_text(json.dumps(out, indent=1) + "\n")
    return report(failed)


def report(failed: list) -> int:
    for message in failed:
        print("FAILED " + message, file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output")
    parser.add_argument("--pairs", type=int, default=0,
                        help="alternating parent/change pairs per workload (0: snapshot)")
    parser.add_argument("--parent", help="parent revision of the paired runs")
    parser.add_argument("--seed", type=int, default=SEED, help="seed of the paired runs")
    args = parser.parse_args(argv)
    # Exit through the finally blocks on SIGTERM too, so no parent tree is left behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.pairs < 0 or (args.pairs and not args.parent):
        parser.error("--pairs needs a positive count and --parent")
    if args.pairs:
        return pairs(bench, args.pairs, args.parent, args.seed, args.output)
    return snapshot(bench, args.output)


if __name__ == "__main__":
    sys.exit(main())
