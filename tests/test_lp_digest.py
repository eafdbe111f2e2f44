"""tools/lp_digest.py: the digest of solve_box_lp calls sees every bit, the sign of a zero too."""

import importlib.util
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
