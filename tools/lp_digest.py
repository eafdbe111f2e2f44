"""Digest every LP that one pass of the benchmark workloads solves.

    python3 tools/lp_digest.py [--parent REV]

Run from the repository root.  Each workload in BENCHMARK.json runs one
pass at seed 0, and every call of scvxkit.simplex.solve_box_lp goes into a
sha256 digest: the bytes, dtype and shape of each input array, then the
bytes of x, the objective as float.hex and the pivot count, or the error
raised with its pivot count.  Array bytes keep the sign of a zero, so a
flipped -0.0 changes the digest.  One line per workload gives its LP count
and digest.

With --parent, the same runs on the committed files of REV, unpacked with
git archive into a temporary directory that is deleted afterwards
(record_bench.parent_tree, the tree of record_bench.py --pairs too), and
the call exits 1 when any workload's count or digest differs.  Either way
it exits 1 when a workload digests no LP, which means the recording
wrapper missed every solve_box_lp call, and on SIGTERM it exits 143
after deleting its temporary directories.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))  # so that loading this file alone works
from record_bench import parent_tree  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


class LpDigest:
    """sha256 over a sequence of solve_box_lp calls."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def _array(self, value) -> None:
        a = np.ascontiguousarray(value)
        self.sha.update(f"{a.dtype.str}{a.shape}".encode())
        self.sha.update(a.tobytes())

    def add(self, inputs, result=None, error=None) -> None:
        """One call: its input arrays and its BoxLpSolution or exception."""
        self.count += 1
        self.sha.update(b"lp")
        for value in inputs:
            self._array(value)
        if error is not None:
            self.sha.update(f"{type(error).__name__}: {error} "
                            f"{getattr(error, 'iterations', None)}".encode())
            return
        self._array(result.x)
        self.sha.update(f"{float(result.objective).hex()} {result.status} "
                        f"{result.iterations}".encode())

    def hexdigest(self) -> str:
        return self.sha.hexdigest()


def digest_checkout(root: Path) -> dict:
    """{workload: [LP count, digest]} for one pass of each workload of the checkout at root."""
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import workloads
    from scvxkit import simplex

    solve_box_lp = simplex.solve_box_lp
    current = [LpDigest()]

    def recording(c, a_ub, b_ub, lb, ub, *args, **kwargs):
        inputs = [np.array(v) for v in (c, a_ub, b_ub, lb, ub)]
        try:
            result = solve_box_lp(c, a_ub, b_ub, lb, ub, *args, **kwargs)
        except Exception as exc:
            current[0].add(inputs, error=exc)
            raise
        current[0].add(inputs, result)
        return result

    for name, module in list(sys.modules.items()):
        if name == "scvxkit" or name.startswith("scvxkit."):
            for attr, value in list(vars(module).items()):
                if value is solve_box_lp:
                    setattr(module, attr, recording)

    bench = json.loads((root / "BENCHMARK.json").read_text())
    catalog = workloads.make_workloads(root)
    out = {}
    scratch = Path(tempfile.mkdtemp(prefix="lp-digest-"))
    try:
        for name in (w["name"] for w in bench["workloads"]):
            workload = catalog[name]
            current[0] = LpDigest()
            for case in workload.build(SEED, scratch / name):
                try:
                    workload.run_op(case)
                except Exception:  # the failing LP is already in the digest
                    pass
            out[name] = [current[0].count, current[0].hexdigest()]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out


def show(label: str, digests: dict) -> None:
    for name, (count, digest) in digests.items():
        print(f"{label}{name:<16} {count:>5} LPs  {digest}")


def digest_in_subprocess(root: Path) -> dict:
    """digest_checkout(root) in a fresh interpreter, so it imports root's scvxkit."""
    code = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import lp_digest; print(json.dumps(lp_digest.digest_checkout(Path(sys.argv[2]))))")
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent), str(root)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def empty(digests: dict) -> list:
    """The workloads of digests that digested no LP, each reported on stderr."""
    names = [name for name, (count, _) in digests.items() if count == 0]
    for name in names:
        print(f"FAILED {name}: no LP digested; solve_box_lp was not wrapped", file=sys.stderr)
    return names


def compare(rev: str) -> int:
    """Digest rev's committed files and this checkout, each in a subprocess, and compare."""
    # The digests make their scratch in the parent tree too: on SIGTERM,
    # subprocess.run kills the running digest before it can delete its own.
    with parent_tree(rev, "lp-digest-parent-") as tree, \
            mock.patch.dict(os.environ, TMPDIR=str(tree)):
        sides = {"parent": digest_in_subprocess(tree), "change": digest_in_subprocess(ROOT)}
    show("parent  ", sides["parent"])
    show("change  ", sides["change"])
    same = sides["parent"] == sides["change"]
    total = sum(count for count, _ in sides["change"].values())
    print(f"{'all' if same else 'NOT all'} {total} LPs identical to {rev}")
    missed = empty(sides["parent"]) + empty(sides["change"])
    return 0 if same and not missed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="revision to compare against")
    args = parser.parse_args(argv)
    # Exit through the finally blocks on SIGTERM too, so no scratch is left
    # behind; the caller's handler is back once main returns.
    handler = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.parent:
            return compare(args.parent)
        digests = digest_checkout(ROOT)
        show("", digests)
        return 1 if empty(digests) else 0
    finally:
        signal.signal(signal.SIGTERM, handler)


if __name__ == "__main__":
    sys.exit(main())
