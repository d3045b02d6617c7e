"""Tests of the benchmark itself, on toy-scale inputs.

Run from the repository root with ``python -m pytest perfbench -q``.  Every
workload runs end to end in both modes (tracing off and on) with all of its
correctness gates; the remaining tests pin the result format, the metric
lists in ``BENCHMARK.json``, the refusal to run without the sources, a
failing gate, the host-speed sampling, the span arithmetic, and the
exact-count record.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import host  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_workload_runs_correct(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "2",
                 "--trace", trace, "--toy")
    assert done.returncode == 0, done.stdout + done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _ in expected]
    for name, unit in expected:
        assert result["metrics"][name]["unit"] == unit
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["bench.unattributed_pct"]["value"] < 10.0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "batch_10k", "--seed", "1", "--seconds", "2", "--trace", "0",
                 cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_invalid_trials_count_as_failed(monkeypatch, tmp_path):
    from repro.core.problems import ValidationResult
    from repro.core.trace import ExecutionTrace

    workload = workloads.make("faulted_100k", seed=4, toy=True, workdir=str(tmp_path))
    workload.setup()
    monkeypatch.setattr(ExecutionTrace, "validate", lambda self: ValidationResult(False, "broken"))
    tally = workloads.Tally()
    workload.iterate(workloads.Stopwatch(), tally, 0)
    assert tally.attempted == sum(workload.trials)
    assert tally.failed == tally.attempted and not tally.correct


def test_a_failing_program_fails_the_run(monkeypatch, capsys):
    from repro.core.problems import ValidationResult
    from repro.core.trace import ExecutionTrace

    monkeypatch.setattr(ExecutionTrace, "validate", lambda self: ValidationResult(False, "broken"))
    code = run.main(["--workload", "batch_10k", "--seed", "4", "--seconds", "1",
                     "--trace", "0", "--toy"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_speed_samples_inside_a_stage_are_left_out_of_its_time():
    before = signal.getsignal(signal.SIGALRM)
    with host.sampling() as samples:
        busy(0.6)
    assert len(samples.times) >= 2 and samples.spent > 0
    assert signal.getsignal(signal.SIGALRM) is before
    watch = workloads.Stopwatch()
    with watch.stage("busy"):
        busy(0.6)
    assert watch.stages["busy"] < 0.6
    assert watch.reference["busy"] == watch.stages["busy"] * watch.factors["busy"]


def test_service_stages_take_their_speed_samples_in_the_worker(monkeypatch, tmp_path):
    import multiprocessing

    from repro.service import scheduler

    monkeypatch.setattr(scheduler, "run_job", lambda db_path, job_id: busy(0.6))
    watch = workloads.Stopwatch()
    with watch.stage("job", in_worker=True) as samples, \
            workloads.ServiceWorkload.worker_sampling(watch, samples, str(tmp_path)):
        worker = multiprocessing.get_context("fork").Process(target=scheduler.run_job, args=("db", 1))
        worker.start()
        worker.join()
    assert worker.exitcode == 0
    assert watch.speeds["job"]["n"] >= 2 and samples.spent > 0
    assert not os.listdir(tmp_path)


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_subtracts_child_spans():
    recorder = tracing.Recorder(spool_dir="unused")
    recorder.spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["inner", 5.0, 6.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["later", 11.0, 12.0, -1],
    ]
    assert recorder.layer_seconds() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0, "later": 1.0}
    assert recorder.top_level_seconds() == 11.0


def test_instrument_restores_every_original():
    from repro.local.engine import ArrayEngine
    from repro.local.network import Network

    names = ("run", "_run_batch_chunk")
    before = [ArrayEngine.__dict__[name] for name in names] + [Network.__dict__["from_edge_arrays"]]
    restore = tracing.instrument(tracing.Recorder(spool_dir="unused"))
    assert all(ArrayEngine.__dict__[name] is not old for name, old in zip(names, before))
    restore()
    after = [ArrayEngine.__dict__[name] for name in names] + [Network.__dict__["from_edge_arrays"]]
    assert after == before


def test_span_cost_is_a_small_positive_time():
    assert 0.0 < tracing.span_cost(calls=2_000, bursts=3) < 1e-3


def test_count_record_compares_only_runs_of_the_same_code(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    args = run.parse_args(["--workload", "batch_10k", "--seed", "1", "--toy"])

    def check(digest, record, failed=False):
        monkeypatch.setattr(run, "source_digest", lambda: digest)
        tally = workloads.Tally()
        if failed:
            tally.operation(False, "an earlier failure")
        run.check_count_record(args, record, tally)
        return tally

    assert check("a" * 64, {"counts": {"rounds": 5}}, failed=True).problems == ["an earlier failure"]
    assert not os.listdir(tmp_path / "counts")  # a failed run writes no record
    assert check("a" * 64, {"counts": {"rounds": 5}}).correct
    assert check("a" * 64, {"counts": {"rounds": 5}}).correct
    assert not check("a" * 64, {"counts": {"rounds": 4}}).correct
    # Changed sources may change the counts: a new record, not a failure.
    assert check("b" * 64, {"counts": {"rounds": 4}}).correct
    assert len(os.listdir(tmp_path / "counts")) == 2
