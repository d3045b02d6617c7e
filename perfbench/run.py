"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline_1m --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs one untraced and one traced iteration and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report.  The exit code is 0 when every output was
correct, 1 when a check failed, and 2 when the repository sources are
missing or the workload is unknown.  ``--toy`` runs the same stages and
checks on inputs small enough for the benchmark's own tests.  See
``perfbench/README.md``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any other import
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per run (this process plus fresh ``--setup-only`` processes).
SETUP_REPEATS = 3
#: Seconds per iteration at toy scale (so ``--seconds 2`` runs two).
TOY_ITERATION_S = 1.0

#: End-to-end metrics, reported with tracing off: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("stage1_s", "s"),
    ("stage2_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics, reported by the traced run: (name, unit).
PER_LAYER = (
    ("graphs.generate_s", "s"),
    ("network.build_s", "s"),
    ("network.csr_s", "s"),
    ("network.builds", "count"),
    ("engine.mis.run_s", "s"),
    ("engine.matching.run_s", "s"),
    ("engine.mis.rounds", "count"),
    ("engine.matching.rounds", "count"),
    ("engine.matching.round_ms", "ms"),
    ("engine.mis.batch_s", "s"),
    ("engine.matching.batch_s", "s"),
    ("engine.trial_rounds", "count"),
    ("engine.batch_chunks", "count"),
    ("engine.mis.faulted_s", "s"),
    ("engine.matching.faulted_s", "s"),
    ("faults.round_view_s", "s"),
    ("faults.round_views", "count"),
    ("faults.crashes", "count"),
    ("faults.events", "count"),
    ("problems.mis.validate_s", "s"),
    ("problems.matching.validate_s", "s"),
    ("problems.ruling_set.validate_s", "s"),
    ("metrics.measure_s", "s"),
    ("runner.run_s", "s"),
    ("runner.messages", "count"),
    ("sweep.checkpointed_s", "s"),
    ("sweep.journal_bytes", "bytes"),
    ("sweep.read_checkpoint_s", "s"),
    ("store.record_results_s", "s"),
    ("store.read_s", "s"),
    ("store.graph_cache_s", "s"),
    ("store.db_bytes", "bytes"),
    ("store.graph_cache_builds", "count"),
    ("store.graph_cache_hits", "count"),
    ("store.cache_hit_ratio", "ratio"),
    ("queue.submit_s", "s"),
    ("queue.wait_s", "s"),
    ("queue.attempts", "count"),
    ("service.drain_s", "s"),
    ("service.run_job_s", "s"),
    ("bench.traced_total_s", "s"),
    ("bench.host_speed", "x"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.traced_minus_untraced_pct", "%"),
    ("bench.unattributed_pct", "%"),
    ("bench.failed_ratio", "ratio"),
)

#: Span names whose self time is reported under a per-layer metric.
SPAN_METRICS = {
    "network.build_s": "network.build",
    "engine.mis.run_s": "engine.mis.run",
    "engine.matching.run_s": "engine.matching.run",
    "engine.mis.batch_s": "engine.mis.batch",
    "engine.matching.batch_s": "engine.matching.batch",
    "engine.mis.faulted_s": "engine.mis.faulted",
    "engine.matching.faulted_s": "engine.matching.faulted",
    "faults.round_view_s": "faults.round_view",
    "problems.mis.validate_s": "problems.mis.validate",
    "problems.matching.validate_s": "problems.matching.validate",
    "problems.ruling_set.validate_s": "problems.ruling_set.validate",
    "metrics.measure_s": "metrics.measure",
    "runner.run_s": "runner.run",
    "sweep.checkpointed_s": "sweep.checkpointed",
    "sweep.read_checkpoint_s": "sweep.read_checkpoint",
    "store.record_results_s": "store.record_results",
    "store.read_s": "store.read",
    "store.graph_cache_s": "store.graph_cache",
    "queue.submit_s": "queue.submit",
    "service.drain_s": "service.drain",
    "service.run_job_s": "service.run_job",
}

#: Counters the wrappers record, reported as they are.
COUNTER_METRICS = (
    "network.builds",
    "engine.mis.rounds",
    "engine.matching.rounds",
    "engine.trial_rounds",
    "engine.batch_chunks",
    "faults.round_views",
    "runner.messages",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, same stages and checks")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def scale(args) -> str:
    return "toy" if args.toy else "full"


def repeat_setup(args, tally) -> list:
    """Set-up times of fresh ``--setup-only`` processes, one at a time."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        command.append("--toy")
    values = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            tally.check(False, f"set-up process failed: {done.stderr.strip()[-400:]}")
            continue
        values.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def source_digest() -> str:
    """sha256 over the path and contents of every ``.py`` file of ``src/repro`` and the benchmark."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for folder, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("out", "__pycache__"))
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def check_count_record(args, record, tally) -> None:
    """Exact counts must repeat across runs of the same code, workload, scale, seed and mode.

    The record is keyed by :func:`source_digest`, so a change to the program
    that legitimately changes a count starts a new record instead of failing.
    The first correct run writes it under ``out/counts``; later runs compare.
    """
    directory = os.path.join(OUT, "counts")
    os.makedirs(directory, exist_ok=True)
    name = f"{args.workload}-{scale(args)}-seed{args.seed}-trace{args.trace}-{source_digest()[:16]}"
    path = os.path.join(directory, name + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        tally.check(earlier == record, f"exact counts differ from an earlier run: {earlier} != {record}")
    elif tally.correct:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)


def same_counts(iterations, tally) -> dict:
    """The iterations' exact counts, which must all be equal."""
    first = iterations[0][1]
    for index, (_, counts) in enumerate(iterations[1:], start=1):
        tally.check(counts == first, f"iteration {index} counts {counts} != {first}")
    return first


def end_to_end(workload, iterations, setup_values, peak_mb) -> dict:
    """Medians over iterations (and set-ups), in reference seconds."""
    stage1, stage2 = workload.stages
    return {
        "setup_s": statistics.median(setup_values),
        "stage1_s": statistics.median(w.reference[stage1] for w, _ in iterations),
        "stage2_s": statistics.median(w.reference[stage2] for w, _ in iterations),
        "total_s": statistics.median(w.reference_total for w, _ in iterations),
        "peak_rss_mb": peak_mb,
    }


def per_layer(workload, recorder, counts, traced, untraced, probe, span_cost, tally) -> dict:
    self_s = recorder.layer_seconds()
    values = {metric: self_s.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    values.update({name: recorder.counts.get(name, 0) for name in COUNTER_METRICS})
    values["graphs.generate_s"] = (
        workload.setup_layers.get("graphs.generate_s", 0.0) + self_s.get("graphs.generate", 0.0)
    )
    values["network.csr_s"] = probe.get("network.csr_s", 0.0)
    matching_s = sum(self_s.get(f"engine.matching.{mode}", 0.0) for mode in ("run", "batch", "faulted"))
    rounds = values["engine.matching.rounds"]
    values["engine.matching.round_ms"] = 1000.0 * matching_s / rounds if rounds else 0.0
    values["faults.crashes"] = counts.get("faults.crashes", 0)
    values["faults.events"] = sum(v for k, v in counts.items() if k.startswith("faults.") and k.endswith(".events"))
    for name in ("sweep.journal_bytes", "store.graph_cache_builds", "store.graph_cache_hits",
                 "queue.attempts"):
        values[name] = counts.get(name, 0)
    lookups = values["store.graph_cache_builds"] + values["store.graph_cache_hits"]
    values["store.cache_hit_ratio"] = values["store.graph_cache_hits"] / lookups if lookups else 0.0
    values["queue.wait_s"] = workload.measured.get("queue.wait_s", 0.0)
    values["store.db_bytes"] = workload.measured.get("store.db_bytes", 0)
    values["bench.traced_total_s"] = traced.total
    values["bench.host_speed"] = statistics.median(traced.factors.values())
    wrappers_s = len(recorder.spans) * span_cost
    values["bench.tracing_overhead_pct"] = 100.0 * wrappers_s / (traced.total - wrappers_s)
    values["bench.traced_minus_untraced_pct"] = (
        100.0 * (traced.reference_total - untraced.reference_total) / untraced.reference_total
    )
    values["bench.unattributed_pct"] = (
        100.0 * (traced.total - recorder.top_level_seconds()) / traced.total
    )
    values["bench.failed_ratio"] = tally.failed / max(tally.attempted, 1)
    return {name: values[name] for name, _ in PER_LAYER}


def report(args, workload, metrics, units, counts, host_record, stages, tally) -> None:
    """The human-readable report (every line before the JSON result)."""
    names = dict(zip(("stage1_s", "stage2_s"), (f"{s}_s" for s in workload.stages)))
    print(f"perfbench {args.workload} seed={args.seed} scale={scale(args)} trace={args.trace}")
    for name, value in metrics.items():
        alias = f"  ({names[name]})" if name in names else ""
        print(f"  {name:32s} {value:14.6f} {units[name]}{alias}")
    print(f"  failed_ratio {tally.failed}/{tally.attempted}")
    print("  exact counts: " + json.dumps(counts, sort_keys=True))
    print("  stages per iteration: " + json.dumps(stages))
    print("  host: " + json.dumps(host_record, sort_keys=True))
    for problem in tally.problems:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import host
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    host_start = host.snapshot()
    # One CPU for this process and the service worker it forks, so the
    # speed samples are taken on the CPU that does the work.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = os.path.join(OUT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    workload = workloads.make(args.workload, args.seed, args.toy, workdir)
    tally = workloads.Tally()
    metrics, units, counts, iterations = {}, {}, {}, []
    try:
        workload.setup()
        setup_s = (time.perf_counter() - PROCESS_START) * host.factor(host.probe(16))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            import tracing

            recorder = tracing.Recorder(os.path.join(workdir, "spool"))
            untraced = workloads.Stopwatch(sampled=False)
            iterations = [(untraced, workload.iterate(untraced, tally, 0))]
            restore = tracing.instrument(recorder)
            try:
                traced = workloads.Stopwatch(recorder, sampled=False)
                iterations.append((traced, workload.iterate(traced, tally, 1)))
            finally:
                restore()
            counts = same_counts(iterations, tally)
            probe = workload.probe()
            workload.finish(tally)
            metrics = per_layer(workload, recorder, counts, traced, untraced, probe,
                                tracing.span_cost(), tally)
            units = dict(PER_LAYER)
            os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
            recorder.dump(os.path.join(OUT, "spans", f"{args.workload}-{scale(args)}-seed{args.seed}.json"))
        else:
            per_iteration_s = TOY_ITERATION_S if args.toy else workload.per_iteration_s
            repeats = max(1, round(args.seconds / per_iteration_s))
            for index in range(repeats):
                watch = workloads.Stopwatch()
                iterations.append((watch, workload.iterate(watch, tally, index)))
            peak_mb = host.peak_rss_mb()
            counts = same_counts(iterations, tally)
            workload.finish(tally)
            setup_values = [setup_s] + repeat_setup(args, tally)
            metrics = end_to_end(workload, iterations, setup_values, peak_mb)
            units = dict(END_TO_END)
        record = {"counts": counts}
        if args.trace:
            record["layer_counts"] = recorder.counts
        check_count_record(args, record, tally)
    except Exception:  # noqa: BLE001 - any crash of the program is a failed run
        traceback.print_exc()
        tally.operation(False, "the workload raised: " + traceback.format_exc().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    host_record = host.noise_record(host_start, host.snapshot())
    stages = [{"wall_s": {k: round(v, 4) for k, v in w.stages.items()},
               "host_speed": {k: round(v, 4) for k, v in w.factors.items()},
               "speed_sources": w.speeds}
              for w, _ in iterations]
    report(args, workload, metrics, units, counts, host_record, stages, tally)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
