"""tools/record_bench.py --pairs: the records it writes and the files it refuses to overwrite."""

import importlib.util
import json
import statistics
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


END_TO_END = [{"name": "wall_cal", "better": "lower"}, {"name": "setup_s", "better": "lower"},
              {"name": "peak_rss_mb", "better": "lower"},
              {"name": "feasible_fraction", "better": "higher"}]
# No workload: should the guard let a call through, it runs nothing and writes at once.
BENCH = {"command": ["false"], "run_seconds": 1, "workloads": [], "end_to_end": END_TO_END}
ONE_WORKLOAD = {**BENCH, "workloads": [{"name": "w"}]}


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


def test_pairs_record_median_pass_time_and_its_quartiles(record_bench, tmp_path, monkeypatch):
    # Stubbed runs: the parent's passes take 5, 1 and 2 s plus pair/10 (median 2 +
    # pair/10, mean higher), the change's twice that.
    monkeypatch.setattr(record_bench, "unpack", lambda rev, dest: None)
    calls = []

    def run_bench(root, command, workload, seed, seconds, trace):
        side = "change" if root == record_bench.ROOT else "parent"
        pair = 1 + sum(c == (workload, side) for c in calls)
        calls.append((workload, side))
        scale = 2.0 if side == "change" else 1.0
        metrics = {"wall_cal": 5.0 + pair, "setup_s": 0.2, "peak_rss_mb": 40.0,
                   "feasible_fraction": 1.0}
        return {"metrics": {k: {"value": v} for k, v in metrics.items()},
                "pass_wall_s": [scale * (t + pair / 10.0) for t in (5.0, 1.0, 2.0)],
                "outcomes": [], "failures": []}, None

    monkeypatch.setattr(record_bench, "run_bench", run_bench)
    out = tmp_path / "BENCH_pairs.json"
    assert record_bench.pairs(ONE_WORKLOAD, 4, "HEAD", 0, str(out)) == 0

    record = json.loads(out.read_text())
    assert record["fields"][-1] == "pass_wall_s"
    round_ = record["rounds"][0]
    passes = {(row[0], row[2]): row[-1] for row in round_["runs"]}
    assert passes == {(pair, side): round((2.0 if side == "change" else 1.0)
                                          * (2.0 + pair / 10.0), 4)
                      for pair in range(1, 5) for side in ("parent", "change")}
    summary = round_["summary"]["w"]
    parent = [2.1, 2.2, 2.3, 2.4]
    pass_wall_s = summary["pass_wall_s"]
    assert pass_wall_s["parent_q1_median_q3"] == [
        round(q, 4) for q in statistics.quantiles(parent, n=4)]
    assert pass_wall_s["change_q1_median_q3"] == [
        round(2.0 * q, 4) for q in statistics.quantiles(parent, n=4)]
    assert (pass_wall_s["parent_q1_median_q3"][1], pass_wall_s["change_q1_median_q3"][1]) == (
        2.25, 4.5)
    assert (pass_wall_s["median_change"], pass_wall_s["median_change_rel"]) == (2.25, 1.0)
    wall_cal = summary["end_to_end"]["wall_cal"]
    assert wall_cal["parent_q1_median_q3"] == wall_cal["change_q1_median_q3"]
    assert (wall_cal["median_change"], wall_cal["median_change_rel"]) == (0.0, 0.0)
    assert (wall_cal["change_better_pairs"], wall_cal["parent_better_pairs"]) == (0, 0)


def test_pairs_judge_every_end_to_end_metric_in_its_better_direction(
        record_bench, tmp_path, monkeypatch):
    # Over pairs 1..4 the change's peak_rss_mb is lower by 1 MB in pairs 1-3
    # and higher in pair 4; its feasible_fraction is higher in pair 1 and tied
    # otherwise; wall_cal and setup_s tie in every pair.
    monkeypatch.setattr(record_bench, "unpack", lambda rev, dest: None)
    calls = []

    def run_bench(root, command, workload, seed, seconds, trace):
        side = "change" if root == record_bench.ROOT else "parent"
        pair = 1 + sum(c == (workload, side) for c in calls)
        calls.append((workload, side))
        rss = 40.0 + pair + (0.0 if side == "parent" else (-1.0 if pair < 4 else 1.0))
        fraction = 0.9 if side == "change" and pair == 1 else 0.8
        metrics = {"wall_cal": 5.0, "setup_s": 0.2, "peak_rss_mb": rss,
                   "feasible_fraction": fraction}
        return {"metrics": {k: {"value": v} for k, v in metrics.items()},
                "pass_wall_s": [1.0], "outcomes": [], "failures": []}, None

    monkeypatch.setattr(record_bench, "run_bench", run_bench)
    out = tmp_path / "BENCH_pairs.json"
    assert record_bench.pairs(ONE_WORKLOAD, 4, "HEAD", 0, str(out)) == 0

    record = json.loads(out.read_text())
    assert record["fields"] == ["pair", "workload", "side", "failed", "wall_cal", "setup_s",
                                "peak_rss_mb", "feasible_fraction", "pass_wall_s"]
    judged = record["rounds"][0]["summary"]["w"]["end_to_end"]
    assert list(judged) == [m["name"] for m in END_TO_END]
    parent, change = [41.0, 42.0, 43.0, 44.0], [40.0, 41.0, 42.0, 45.0]
    assert judged["peak_rss_mb"] == {
        "better": "lower",
        "parent_q1_median_q3": [round(q, 4) for q in statistics.quantiles(parent, n=4)],
        "change_q1_median_q3": [round(q, 4) for q in statistics.quantiles(change, n=4)],
        "median_change": -1.0, "median_change_rel": round(41.5 / 42.5 - 1.0, 4),
        "change_better_pairs": 3, "parent_better_pairs": 1}
    fraction = judged["feasible_fraction"]
    assert fraction["better"] == "higher"
    assert (fraction["change_better_pairs"], fraction["parent_better_pairs"]) == (1, 0)
    assert fraction["median_change"] == 0.0
    for name in ("wall_cal", "setup_s"):
        assert (judged[name]["change_better_pairs"], judged[name]["parent_better_pairs"]) == (0, 0)


def test_pairs_judge_pass_time_once_and_keep_no_median_table(record_bench, tmp_path,
                                                             monkeypatch):
    # pass_wall_s is judged like an end-to-end metric, lower better: the
    # change's median pass is 0.5 s shorter in pairs 1-3 and 0.5 s longer in
    # pair 4.  No other table of medians repeats it, or leaves wall_cal out.
    monkeypatch.setattr(record_bench, "unpack", lambda rev, dest: None)
    calls = []

    def run_bench(root, command, workload, seed, seconds, trace):
        side = "change" if root == record_bench.ROOT else "parent"
        pair = 1 + sum(c == (workload, side) for c in calls)
        calls.append((workload, side))
        shift = 0.0 if side == "parent" else (-0.5 if pair < 4 else 0.5)
        metrics = {"wall_cal": 5.0 + pair, "setup_s": 0.2, "peak_rss_mb": 40.0,
                   "feasible_fraction": 1.0}
        return {"metrics": {k: {"value": v} for k, v in metrics.items()},
                "pass_wall_s": [2.0 + pair + shift], "outcomes": [], "failures": []}, None

    monkeypatch.setattr(record_bench, "run_bench", run_bench)
    out = tmp_path / "BENCH_pairs.json"
    assert record_bench.pairs(ONE_WORKLOAD, 4, "HEAD", 0, str(out)) == 0

    summary = json.loads(out.read_text())["rounds"][0]["summary"]["w"]
    parent, change = [3.0, 4.0, 5.0, 6.0], [2.5, 3.5, 4.5, 6.5]
    assert summary["pass_wall_s"] == {
        "better": "lower",
        "parent_q1_median_q3": [round(q, 4) for q in statistics.quantiles(parent, n=4)],
        "change_q1_median_q3": [round(q, 4) for q in statistics.quantiles(change, n=4)],
        "median_change": -0.5, "median_change_rel": round(4.0 / 4.5 - 1.0, 4),
        "change_better_pairs": 3, "parent_better_pairs": 1}
    assert [key for key in summary if "median" in key] == []
    assert list(summary["end_to_end"]) == [m["name"] for m in END_TO_END]


def test_pairs_compare_statuses_iterations_and_j_final(record_bench, tmp_path, monkeypatch):
    # The change moves J_final of instance "a" by 3e-12 and keeps its status
    # and iterations: not the same bits, but the same statuses and iterations.
    monkeypatch.setattr(record_bench, "unpack", lambda rev, dest: None)

    def run_bench(root, command, workload, seed, seconds, trace):
        j_a = 2.0 + (3e-12 if root == record_bench.ROOT else 0.0)
        outcomes = [{"instance": "a", "status": "converged-stationary", "iterations": 7,
                     "J_final": j_a},
                    {"instance": "b", "status": "iteration-limit", "iterations": 9,
                     "J_final": -1.0}]
        metrics = {"wall_cal": 5.0, "setup_s": 0.2, "peak_rss_mb": 40.0,
                   "feasible_fraction": 1.0}
        return {"metrics": {k: {"value": v} for k, v in metrics.items()},
                "pass_wall_s": [1.0], "outcomes": outcomes, "failures": []}, None

    monkeypatch.setattr(record_bench, "run_bench", run_bench)
    out = tmp_path / "BENCH_pairs.json"
    assert record_bench.pairs(ONE_WORKLOAD, 2, "HEAD", 0, str(out)) == 0

    summary = json.loads(out.read_text())["rounds"][0]["summary"]["w"]
    assert summary["same_outcomes"] is False
    assert summary["same_status"] is summary["same_status_iterations"] is True
    assert summary["max_rel_dJ_final"] == abs((2.0 + 3e-12) - 2.0) / 3.0
    assert summary["max_rel_rise_J_final"] == summary["max_rel_dJ_final"]


def test_compare_outcomes_sees_a_changed_iteration_count(record_bench):
    def key(iterations):
        return json.dumps([["a", "converged-stationary", iterations, (1.0).hex()]])

    assert record_bench.compare_outcomes({key(7)}, {key(7)}) == (True, 0.0)
    assert record_bench.compare_outcomes({key(7)}, {key(8)}) == (False, 0.0)
    assert record_bench.compare_outcomes({key(7)}, set()) == (True, None)


def test_outcome_changes_judge_results_as_perfbench_check_does(record_bench):
    # A signed rise: a J_final drop reads negative, a rise positive; a changed
    # iteration count keeps the same statuses but not the same iterations.
    def key(iterations, j_final, status="converged-stationary"):
        return json.dumps([["a", status, iterations, float(j_final).hex()]])

    drop = record_bench.outcome_changes({key(66, 2.0)}, {key(65, 2.0 - 3e-8)})
    assert (drop["same_status"], drop["same_status_iterations"]) == (True, False)
    assert drop["max_rel_rise_J_final"] == pytest.approx(-1e-8, rel=1e-6)
    assert drop["max_rel_dJ_final"] == pytest.approx(1e-8, rel=1e-6)
    rise = record_bench.outcome_changes({key(7, 2.0)}, {key(7, 2.0 + 3e-8)})
    assert (rise["same_status"], rise["same_status_iterations"]) == (True, True)
    assert rise["max_rel_rise_J_final"] == pytest.approx(1e-8, rel=1e-6)
    same = record_bench.outcome_changes({key(7, 2.0)}, {key(7, 2.0)})
    assert (same["max_rel_rise_J_final"], same["max_rel_dJ_final"]) == (0.0, 0.0)
    status = record_bench.outcome_changes({key(7, 2.0)}, {key(7, 2.0, "iteration-limit")})
    assert (status["same_status"], status["same_status_iterations"]) == (False, False)
    none = record_bench.outcome_changes({key(7, 2.0)}, set())
    assert (none["max_rel_rise_J_final"], none["max_rel_dJ_final"]) == (None, None)
    # The older keys read as compare_outcomes gives them.
    assert record_bench.compare_outcomes({key(66, 2.0)}, {key(65, 2.0 - 3e-8)}) == (
        False, drop["max_rel_dJ_final"])
