"""tools/record_bench.py --pairs never overwrites a file that is not its own."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"


@pytest.fixture
def record_bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("record_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Every revision resolves to one short hash, so no real git history is needed.
    monkeypatch.setattr(module, "git", lambda *args: "abc1234")
    return module


# No workload: should the guard let a call through, it runs nothing and writes at once.
BENCH = {"command": ["false"], "run_seconds": 1, "workloads": []}


@pytest.mark.parametrize("content", [
    json.dumps({"command": "python3 tools/record_bench.py BENCH_10.json", "seed": 0,
                "runs": {}}),
    json.dumps({"parent": "fedcba9", "rounds": []}),
    json.dumps(["not", "a", "record"]),
    "not json",
], ids=["snapshot", "other-parent", "json-list", "not-json"])
def test_pairs_refuses_to_overwrite_another_record(record_bench, tmp_path, capsys, content):
    out = tmp_path / "BENCH_pairs.json"
    out.write_text(content)
    assert record_bench.pairs(BENCH, 1, "HEAD", 0, str(out)) == 1
    assert out.read_text() == content
    assert "is not a pairs file against abc1234" in capsys.readouterr().err
