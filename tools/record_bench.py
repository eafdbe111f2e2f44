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
parent first.  The parent runs from parent_tree(REV): the committed files
of REV, unpacked with git archive into a temporary directory that is
deleted afterwards, on SIGTERM too.  tools/lp_digest.py --parent uses the
same tree.  The file gets one round per call: every run's end-to-end
metrics and the median of its raw pass times (pass_wall_s), and per
workload, for each end-to-end metric of BENCHMARK.json and then for
pass_wall_s (lower is better), the quartiles on each side, the change of
the median and the pairs each side won in the metric's better direction
(ties count for neither), then whether both sides gave the same outcomes
(status, iterations and the bits of J_final of every instance), whether
they gave the same statuses and iterations, and the largest
|J_final change - J_final parent| / (1 + |J_final parent|).  A round is
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
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
SIDES = ("parent", "change")


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
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def judge(parent: list, change: list, better: str) -> dict:
    """One end-to-end metric over the pairs, parent[i] and change[i] from pair i.

    A pair is won by the side whose value is better in the direction better
    ("lower" or "higher"); a tie counts for neither side.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = [sign * (c - p) for p, c in zip(parent, change)]
    shift = rel = None
    if parent:
        median_parent, median_change = statistics.median(parent), statistics.median(change)
        shift = round(median_change - median_parent, 4)
        rel = round(median_change / median_parent - 1.0, 4) if median_parent else None
    return {
        "better": better,
        "parent_q1_median_q3": quartiles(parent),
        "change_q1_median_q3": quartiles(change),
        "median_change": shift,
        "median_change_rel": rel,
        "change_better_pairs": sum(w < 0.0 for w in wins),
        "parent_better_pairs": sum(w > 0.0 for w in wins),
    }


def outcome_key(record: dict) -> list:
    return [(o["instance"], o["status"], o["iterations"], float(o["J_final"]).hex())
            for o in record["outcomes"]]


def compare_outcomes(parent: set, change: set) -> tuple[bool, float | None]:
    """Whether every run of both sides gave the same statuses and iterations,
    and the largest |dJ_final| / (1 + |J_final|) of an instance between a
    parent run and a change run (None without a run on each side).

    parent and change hold the JSON of outcome_key of each run.
    """
    runs = {side: [json.loads(key) for key in keys] for side, keys in
            (("parent", parent), ("change", change))}
    same = len({json.dumps([o[:3] for o in run])
                for run in runs["parent"] + runs["change"]}) == 1
    worst = None
    for p_run in runs["parent"]:
        for c_run in runs["change"]:
            for p, c in zip(p_run, c_run):
                j_p, j_c = float.fromhex(p[3]), float.fromhex(c[3])
                delta = 0.0 if p[3] == c[3] else abs(j_c - j_p) / (1.0 + abs(j_p))
                worst = delta if worst is None else max(worst, delta)
    return same, worst


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
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    fields = ["pair", "workload", "side", "failed", *better, "pass_wall_s"]
    runs, failed, outcomes = [], [], {}
    with parent_tree(parent_sha, f"record-bench-parent-{parent_sha}-") as parent_root:
        roots = {"parent": parent_root, "change": ROOT}
        for pair in range(1, n_pairs + 1):
            for workload in workloads:
                sides = SIDES if pair % 2 else SIDES[::-1]
                for side in sides:
                    record, failure = run_bench(roots[side], bench["command"], workload, seed,
                                                bench["run_seconds"], 0)
                    if failure:
                        failed.append(f"pair {pair} {side} {failure}")
                    if record is None:
                        continue
                    metrics = {k: v["value"] for k, v in record["metrics"].items()}
                    metrics["pass_wall_s"] = statistics.median(record["pass_wall_s"])
                    runs.append([pair, workload, side, len(record["failures"])]
                                + [round(metrics[k], 4) for k in fields[4:]])
                    outcomes.setdefault((workload, side), set()).add(
                        json.dumps(outcome_key(record)))

    summary = {}
    for workload in workloads:
        same_status_iterations, max_rel_dj = compare_outcomes(
            outcomes.get((workload, "parent"), set()), outcomes.get((workload, "change"), set()))
        by_pair = {side: {r[0]: r for r in runs if r[1] == workload and r[2] == side}
                   for side in SIDES}
        both = sorted(set(by_pair["parent"]) & set(by_pair["change"]))

        def paired(side, field):
            return [by_pair[side][p][fields.index(field)] for p in both]

        summary[workload] = {
            "pairs": len(both),
            "end_to_end": {name: judge(paired("parent", name), paired("change", name), way)
                           for name, way in better.items()},
            "pass_wall_s": judge(paired("parent", "pass_wall_s"),
                                 paired("change", "pass_wall_s"), "lower"),
            "failed": sum(r[3] for r in runs if r[1] == workload),
            # one set of outcomes over every run of both sides
            "same_outcomes": len(outcomes.get((workload, "parent"), set())
                                 | outcomes.get((workload, "change"), set())) == 1,
            "same_status_iterations": same_status_iterations,
            "max_rel_dJ_final": max_rel_dj,
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
            "fields": fields,
            "quartiles": "statistics.quantiles(n=4), exclusive method; none below 4 pairs",
            "end_to_end": "per end-to-end metric of BENCHMARK.json, over the pairs: the "
                          "quartiles of each side, the change of the median (change - parent, "
                          "and relative to the parent), and the pairs each side won in the "
                          "metric's better direction; ties count for neither side",
            "pass_wall_s": "the median raw pass time of each run, judged over the pairs as "
                           "the end-to-end metrics are; lower is better",
            "same_outcomes": "every run of the workload, on both sides, gave the same status, "
                             "iterations and J_final bits for every instance",
            "same_status_iterations": "every run of the workload, on both sides, gave the same "
                                      "status and iterations for every instance",
            "max_rel_dJ_final": "largest |J_final change - J_final parent| / "
                                "(1 + |J_final parent|) over instances and parent/change runs",
            "rounds": [round_],
        }
    path.write_text(json.dumps(out, indent=1) + "\n")
    return report(failed)


def unpack(rev: str, dest: Path) -> None:
    """Unpack the committed files of rev into the directory dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


@contextmanager
def parent_tree(rev: str, prefix: str):
    """The committed files of rev, unpacked into a new temporary directory
    whose name starts with prefix, and deleted on exit.

    SIGTERM exits through the deletion too, with status 128 + SIGTERM; the
    caller's handler is back on exit.
    """
    handler = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tree = Path(tempfile.mkdtemp(prefix=prefix))
    try:
        unpack(rev, tree)
        yield tree
    finally:
        shutil.rmtree(tree, ignore_errors=True)
        signal.signal(signal.SIGTERM, handler)


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
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.pairs < 0 or (args.pairs and not args.parent):
        parser.error("--pairs needs a positive count and --parent")
    if args.pairs:
        return pairs(bench, args.pairs, args.parent, args.seed, args.output)
    return snapshot(bench, args.output)


if __name__ == "__main__":
    sys.exit(main())
