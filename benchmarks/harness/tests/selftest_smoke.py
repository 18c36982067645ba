"""All four workloads at 1/50 size: plumbing only, nothing recorded."""

import json

import pytest

from benchmarks.harness import cli, env, runner

WORKLOADS = [w["name"] for w in env.load_spec()["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced_reports_every_end_to_end_metric(workload, capsys):
    code = cli.main(["--workload", workload, "--seed", "3", "--smoke", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and last["correct"] is True
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1 and last["failed"] == 0
    spec = env.load_spec()
    assert list(last["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_reports_every_layer_metric_and_a_consistent_trace(workload, capsys):
    code = cli.main(["--workload", workload, "--seed", "3", "--smoke", "--trace", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and last["correct"] is True
    spec = env.load_spec()
    assert list(last["metrics"]) == [m["name"] for m in spec["per_layer"]]
    trace = json.loads((env.RESULTS_DIR / f"trace_{workload}.json").read_text())
    assert trace["workload"] == workload and trace["span_count"] > 0
    # Self times of all spans add up to the time inside the root spans.
    assert trace["self_time_sum_s"] == pytest.approx(trace["root_duration_sum_s"], rel=1e-9)
    assert trace["by_name"][trace["top_level_span"]]["calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_answer_fails_the_run(workload):
    result = runner.run(workload, seed=3, seconds=0.6, trace=False, smoke=True, corrupt=True)
    assert result.correct is False and result.problems


def test_no_scratch_is_left_behind():
    assert not env.SCRATCH_PARENT.exists() or not any(env.SCRATCH_PARENT.iterdir())
