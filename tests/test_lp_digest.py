"""tools/lp_digest.py: the digest of solve_box_lp calls sees every bit, the sign of a zero
too, a workload that digests no LP fails the call, and SIGTERM leaves no scratch behind."""

import contextlib
import importlib.util
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scvxkit.simplex import solve_box_lp

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lp_digest.py"


@pytest.fixture
def lp_digest():
    spec = importlib.util.spec_from_file_location("lp_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_changes_when_one_zero_flips_sign(lp_digest):
    inputs = [np.array([1.0, 0.0]), np.array([[1.0, 0.0]]), np.array([1.0]), np.zeros(2),
              np.ones(2)]
    result = solve_box_lp(*inputs)
    assert result.x.tolist() == [0.0, 0.0]

    def digest(inputs, result):
        d = lp_digest.LpDigest()
        d.add(inputs, result)
        return d.hexdigest()

    base = digest(inputs, result)
    assert digest([a.copy() for a in inputs], replace(result, x=result.x.copy())) == base
    flipped = [a.copy() for a in inputs]
    flipped[1][0, 1] = -0.0
    assert digest(flipped, result) != base
    assert digest(inputs, replace(result, x=np.array([0.0, -0.0]))) != base


@pytest.mark.parametrize("argv", [[], ["--parent", "HEAD"]], ids=["checkout", "parent"])
def test_a_workload_that_digests_no_lp_fails(lp_digest, monkeypatch, capsys, tmp_path, argv):
    # Stand-ins for the workload runs and for the parent tree that git
    # archive would unpack, so that no git checkout is needed.
    digests = {"ocp-sweep": [3, "a" * 64], "lqr-exact": [0, lp_digest.LpDigest().hexdigest()]}
    monkeypatch.setattr(lp_digest, "digest_checkout", lambda root: digests)
    monkeypatch.setattr(lp_digest, "digest_in_subprocess", lambda root: digests)

    @contextlib.contextmanager
    def parent_tree(rev, prefix):
        yield tmp_path

    monkeypatch.setattr(lp_digest, "parent_tree", parent_tree)
    assert lp_digest.main(argv) == 1
    assert "FAILED lqr-exact: no LP digested" in capsys.readouterr().err
    digests["lqr-exact"][0] = 35
    assert lp_digest.main(argv) == 0


IN_GIT_CHECKOUT = subprocess.run(["git", "-C", str(TOOL.parents[1]), "rev-parse", "HEAD"],
                                 capture_output=True).returncode == 0


@pytest.mark.parametrize("argv, running", [
    ([], "lp-digest-*"),
    pytest.param(["--parent", "HEAD"], "lp-digest-parent-*/lp-digest-*",
                 marks=pytest.mark.skipif(not IN_GIT_CHECKOUT,
                                          reason="--parent HEAD needs a git checkout")),
], ids=["checkout", "parent"])
def test_sigterm_leaves_no_scratch_behind(tmp_path, argv, running):
    proc = subprocess.Popen([sys.executable, str(TOOL), *argv],
                            cwd=TOOL.parents[1], env={**os.environ, "TMPDIR": str(tmp_path)},
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        # Signal once a digest is running, in the unpacked parent tree under
        # --parent, so that its own scratch exists too.
        deadline = time.monotonic() + 60.0
        while not any(tmp_path.glob(running)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert not any(tmp_path.glob("lp-digest*"))
