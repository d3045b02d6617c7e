"""The benchmark's four workloads, driven through the public ``repro`` API.

Every workload is a fixed *iteration* of two timed stages on inputs made
from the workload seed, plus correctness checks that run outside the
stages.  All graphs are G(n, p) with p = 10/(n-1) from
:func:`repro.graphs.generators.fast_gnp_edges`.

* ``pipeline_1m`` — n = 10^6, one trial each of Luby MIS and randomized
  maximal matching through :class:`Experiment` (``engine="auto"``): the
  single-trial pipeline, network build through measurement.
* ``batch_10k`` — n = 10^4, hundreds of trials per algorithm: the
  trial-batched array engine and per-trace validation dominate.
* ``faulted_100k`` — n = 10^5 under deterministic 1 % crash waves: the
  self-stabilising Luby MIS and randomized matching on the faulted engine
  loop.
* ``service_sweep`` — an array job (Luby MIS + matching) and then a node job
  ((2,2)-ruling set on the coroutine runner) over n in {5000, 10^4, 2*10^4},
  each submitted to a :class:`JobQueue` and drained by a
  ``Scheduler(max_workers=1)``, then read back from the result store.

Sizes in the ``toy`` scale keep every stage and every check but finish in
seconds; the benchmark's own tests run them.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List

from repro.algorithms.matching.randomized import RandomizedMaximalMatching
from repro.algorithms.mis.luby import LubyMIS
from repro.algorithms.selfstab import SelfStabilizingLubyMIS
from repro.core import problems
from repro.core.experiment import Experiment
from repro.graphs import generators
from repro.local.faults import FaultSchedule
from repro.local.network import Network
from repro.service import JobQueue, ResultStore, Scheduler, SweepSpec
from repro.service import scheduler as schedulermod
from repro.service.scheduler import journal_path

import host

sweepmod = importlib.import_module("repro.analysis.sweep")

EXPECTED_DEGREE = 10.0
#: Crash rounds of the faulted workload's waves.  Twelve rounds apart, so a
#: self-stabilising MIS can restabilise inside every epoch (as in
#: ``benchmarks/core_perf.py``'s faulted cells).
CRASH_ROUNDS = (2, 14, 26)
#: Scheduler poll interval; bounds how late ``drain`` notices a finished job.
POLL_S = 0.02


def gnp(n: int, seed: int):
    """The workloads' graph: G(n, 10/(n-1)) as flat endpoint arrays."""
    return generators.fast_gnp_edges(n, EXPECTED_DEGREE / (n - 1), seed=seed, as_arrays=True)


def crash_waves(n: int, victims: int, rounds=CRASH_ROUNDS) -> FaultSchedule:
    """Deterministic crash waves over evenly spread vertices."""
    stride = max(1, n // victims)
    crashes = {(i * stride) % n: rounds[i % len(rounds)] for i in range(victims)}
    return FaultSchedule(crashes=crashes, seed=0)


def warm_up() -> None:
    """One tiny run on each engine path: single, batched, faulted, node runner."""
    graph = gnp(300, seed=0)
    faults = crash_waves(300, 3)
    cases = (
        (LubyMIS, problems.MIS),
        (RandomizedMaximalMatching, problems.MAXIMAL_MATCHING),
        (SelfStabilizingLubyMIS, problems.MIS),
    )
    for algorithm, problem in cases:
        for engine, trials, schedule in (
            ("auto", 1, None),
            ("auto", 2, None),
            ("auto", 1, faults),
            ("node", 1, None),
        ):
            Experiment(
                problem=problem,
                algorithm=algorithm,
                graphs=graph,
                trials=trials,
                engine=engine,
                faults=schedule,
            ).run()


class Stopwatch:
    """Times the named stages of one iteration, in wall and reference seconds.

    The host's speed is measured right before and right after every stage
    and, when ``sampled``, throughout it (see :mod:`host`); the
    sampling's own time is left out of the stage's.  Traced runs do not
    sample, so no sample lands inside a layer span.  With a recorder
    attached, spans are recorded only inside stages, so the checks between
    stages never count as layer time.
    """

    def __init__(self, recorder=None, sampled=True) -> None:
        self.recorder = recorder
        self.sampled = sampled
        self.stages: Dict[str, float] = {}
        self.reference: Dict[str, float] = {}
        self.factors: Dict[str, float] = {}
        #: Per stage: speed factor of the bursts around it and median factor
        #: of the samples inside it (``None`` without samples).
        self.speeds: Dict[str, Dict[str, object]] = {}

    @contextmanager
    def stage(self, name: str, in_worker: bool = False):
        """Time the block as stage ``name``; yields the stage's :class:`host.Samples`.

        With ``in_worker`` the block's work runs in a worker process, so this
        process takes no samples while it waits; the caller adds the
        worker's samples (see :meth:`ServiceWorkload.worker_sampling`).
        """
        before = host.probe()
        if self.recorder is not None:
            self.recorder.enabled = True
        here = self.sampled and not in_worker
        try:
            with host.sampling() if here else nullcontext(host.Samples()) as samples:
                start = time.perf_counter()
                yield samples
                wall = time.perf_counter() - start - samples.spent
        finally:
            if self.recorder is not None:
                self.recorder.enabled = False
        after = host.probe()
        factor = host.stage_factor(before, samples, after)
        self.stages[name] = wall
        self.factors[name] = factor
        self.reference[name] = wall * factor
        self.speeds[name] = host.speed_summary(before, samples, after)

    @property
    def total(self) -> float:
        return sum(self.stages.values())

    @property
    def reference_total(self) -> float:
        return sum(self.reference.values())


class Tally:
    """Attempted and failed operations (trials and jobs), plus failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def overturn(self, what: str) -> None:
        """An operation already counted as succeeded failed a later check."""
        self.failed += 1
        self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


class Workload:
    """Inputs from the seed, a two-stage timed iteration, untimed checks."""

    name = ""
    #: End-to-end name of each timed stage, as (stage1, stage2).
    stages = ("", "")
    #: Seconds of ``--seconds`` one iteration stands for: a run makes
    #: ``max(1, round(seconds / per_iteration_s))`` iterations.
    per_iteration_s = 10.0

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.graph_seed = rng.randrange(2**31)
        self.id_seed = rng.randrange(2**31)
        self.trial_seed = rng.randrange(2**20)
        self.workdir = workdir
        #: Per-layer numbers measured during set-up (e.g. graph generation).
        self.setup_layers: Dict[str, float] = {}
        #: Per-layer numbers of the latest iteration that are not exact counts.
        self.measured: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self, watch: Stopwatch, tally: Tally, index: int) -> Dict[str, int]:
        """Run one iteration; returns its exact work counts."""
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks that run once, after every iteration."""

    def probe(self) -> Dict[str, float]:
        """Extra per-layer timings measured outside the timed region."""
        return {}


class ExperimentWorkload(Workload):
    """MIS, then matching, each one :meth:`Experiment.run` on one graph."""

    stages = ("mis", "matching")

    def __init__(self, seed, workdir, *, n, trials, mis_algorithm=LubyMIS,
                 crash_share=0.0, per_iteration_s=10.0) -> None:
        super().__init__(seed, workdir)
        self.n = n
        self.trials = trials
        self.mis_algorithm = mis_algorithm
        self.crash_share = crash_share
        self.per_iteration_s = per_iteration_s

    def setup(self) -> None:
        start = time.perf_counter()
        self.graph = gnp(self.n, self.graph_seed)
        self.setup_layers["graphs.generate_s"] = time.perf_counter() - start
        self.faults = (
            crash_waves(self.n, max(1, int(self.n * self.crash_share)))
            if self.crash_share
            else None
        )
        warm_up()

    def iterate(self, watch, tally, index):
        counts: Dict[str, int] = {}
        runs = (
            ("mis", self.mis_algorithm, problems.MIS),
            ("matching", RandomizedMaximalMatching, problems.MAXIMAL_MATCHING),
        )
        for (stage, algorithm, problem), trials in zip(runs, self.trials):
            experiment = Experiment(
                problem=problem,
                algorithm=algorithm,
                graphs=self.graph,
                trials=trials,
                seed=self.trial_seed,
                graph_seed=self.id_seed,
                engine="auto",
                faults=self.faults,
                require_valid=False,
            )
            with watch.stage(stage):
                run = experiment.run().run
            self._check(run, stage, tally)
            traces = run.traces
            counts[f"engine.{stage}.rounds"] = sum(t.rounds for t in traces)
            counts[f"engine.{stage}.messages"] = sum(t.total_messages for t in traces)
            counts[f"faults.{stage}.events"] = sum(len(t.fault_events) for t in traces)
            counts[f"faults.{stage}.crashed"] = sum(len(t.crashed) for t in traces)
            counts["network.m"] = run.network.m
            # Release this stage's traces (10^6 slots each on pipeline_1m)
            # before the next stage builds its own.
            del run, traces
        counts["faults.crashes"] = len(self.faults.crashes) if self.faults else 0
        return counts

    def _check(self, run, stage: str, tally: Tally) -> None:
        """Every trial validated; faulted self-stabilising trials also recovered."""
        stabilising = bool(getattr(self.mis_algorithm, "self_stabilizing", False))
        for trial, (trace, verdict) in enumerate(zip(run.traces, run.verdicts)):
            ok = bool(verdict)
            what = f"{stage} trial {trial}: invalid on the surviving subgraph"
            if ok and self.faults is not None and stage == "mis" and stabilising:
                # The self-stabilisation contract: valid for the survivors
                # alone, and every crash epoch restabilised.
                if not run.problem.validate_induced(
                    run.network, trace.node_outputs, trace.edge_outputs, trace.crashed
                ):
                    ok, what = False, f"{stage} trial {trial}: invalid on the induced survivors"
                elif trace.recovery is None or None in trace.recovery.time_to_restabilize():
                    ok, what = False, f"{stage} trial {trial}: a crash epoch did not restabilise"
            tally.operation(ok, what)

    def probe(self) -> Dict[str, float]:
        """``from_endpoint_arrays`` with sequential IDs: the bare CSR build."""
        start = time.perf_counter()
        Network.from_endpoint_arrays(self.graph.n, self.graph.src, self.graph.dst)
        return {"network.csr_s": time.perf_counter() - start}


class ServiceWorkload(Workload):
    """An array job, then a node job, through the queue, scheduler and store."""

    stages = ("array_job", "node_job")

    def __init__(self, seed, toy, workdir) -> None:
        super().__init__(seed, workdir)
        values = (200, 400, 800) if toy else (5_000, 10_000, 20_000)
        common = dict(
            parameter="n",
            values=values,
            family="fast_gnp",
            family_params={"expected_degree": EXPECTED_DEGREE, "graph_seed": self.graph_seed},
            seed=self.trial_seed,
        )
        self.array_spec = SweepSpec(
            algorithms=("luby_mis", "randomized_matching"),
            trials=3 if toy else 12,
            engine="auto",
            name="perfbench-array",
            **common,
        )
        self.node_spec = SweepSpec(
            algorithms=("ruling_set_2_2",),
            trials=1 if toy else 2,
            engine="node",
            name="perfbench-node",
            **common,
        )
        self.stored: List[Dict[str, list]] = []

    def setup(self) -> None:
        warm_up()

    def iterate(self, watch, tally, index):
        directory = os.path.join(self.workdir, f"iteration-{index}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        db = os.path.join(directory, "service.db")
        store = ResultStore(db)
        queue = JobQueue(store)
        scheduler = Scheduler(db, max_workers=1, poll_s=POLL_S)
        try:
            with watch.stage("array_job", in_worker=True) as samples, \
                    self.worker_sampling(watch, samples, directory):
                array_job = queue.submit(self.array_spec)
                scheduler.drain()
            with watch.stage("node_job", in_worker=True) as samples, \
                    self.worker_sampling(watch, samples, directory):
                node_job = queue.submit(self.node_spec)
                scheduler.drain()
            with watch.stage("read"):
                stored = {
                    job: (store.points(job), store.cells(job)) for job in (array_job, node_job)
                }
            counts = {"queue.attempts": 0, "sweep.journal_bytes": 0, "store.cells": 0,
                      "store.cell_rounds": 0}
            wait = 0.0
            done = {}
            for job in (array_job, node_job):
                record = store.experiment(job)
                points, cells = stored[job]
                done[job] = record["status"] == "done"
                tally.operation(done[job], f"job {job} ended {record['status']}")
                for cell in cells:
                    tally.operation(cell["status"] == "ok", f"job {job} cell failed: {cell}")
                    if cell["status"] == "ok":
                        counts["store.cell_rounds"] += int(
                            max(cell["node_times"].max(initial=0), cell["edge_times"].max(initial=0))
                        )
                counts["store.cells"] += len(cells)
                counts["queue.attempts"] += int(record["attempts"])
                counts["sweep.journal_bytes"] += os.path.getsize(journal_path(db, job))
                wait += float(record["started_at"]) - float(record["submitted_at"])
            cache = store.graph_cache_stats()
            counts["store.graph_cache_builds"] = sum(int(r["builds"]) for r in cache)
            counts["store.graph_cache_hits"] = sum(int(r["hits"]) for r in cache)
            self.measured = {
                "queue.wait_s": wait,
                "store.db_bytes": sum(
                    os.path.getsize(db + suffix)
                    for suffix in ("", "-wal")
                    if os.path.exists(db + suffix)
                ),
            }
            # Points of jobs that did not end `done` were counted as failed already.
            self.stored.append(
                {
                    label: [_point_key(p) for p in stored[job][0]] if done[job] else None
                    for label, job in (("array", array_job), ("node", node_job))
                }
            )
            return counts
        finally:
            scheduler.close()
            store.close()

    @staticmethod
    @contextmanager
    def worker_sampling(watch, samples, directory):
        """Sample the host's speed inside each job's worker process.

        The worker does the stage's work on this process's CPU while this
        process sleeps in ``drain``, so a sample taken here would compete
        with the worker and measure the program's own load.  The wrapped
        :func:`run_job` samples in the worker instead and leaves its samples
        in ``directory``; on exit they join ``samples``.
        """
        if not watch.sampled:
            yield
            return
        original = schedulermod.run_job

        def run_job(db_path, job_id):
            mine = host.Samples()
            try:
                with host.sampling() as mine:
                    return original(db_path, job_id)
            finally:
                path = os.path.join(directory, f"samples-{job_id}-{os.getpid()}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"times": mine.times, "spent": mine.spent}, fh)

        schedulermod.run_job = run_job
        try:
            yield
        finally:
            schedulermod.run_job = original
            for name in sorted(os.listdir(directory)):
                if name.startswith("samples-"):
                    with open(os.path.join(directory, name), encoding="utf-8") as fh:
                        payload = json.load(fh)
                    os.unlink(os.path.join(directory, name))
                    samples.times.extend(payload["times"])
                    samples.spent += payload["spent"]

    def finish(self, tally):
        """Stored points must equal an in-process ``sweep()`` of each spec."""
        for label, spec in (("array", self.array_spec), ("node", self.node_spec)):
            reference = [
                (p.parameter, p.value, p.measurement.algorithm,
                 json.loads(json.dumps(dict(p.measurement.__dict__))))
                for p in sweepmod.sweep(**spec.sweep_kwargs())
            ]
            for index, stored in enumerate(self.stored):
                if stored[label] is not None and stored[label] != reference:
                    tally.overturn(f"iteration {index}: stored {label}-job points differ from sweep()")


def _point_key(point: Dict[str, object]):
    return (point["parameter"], point["value"], point["algorithm"], point["measurement"])


def make(name: str, seed: int, toy: bool, workdir: str) -> Workload:
    """The workload ``name`` at full or toy scale."""
    if name == "pipeline_1m":
        workload = ExperimentWorkload(
            seed, workdir, n=2_000 if toy else 1_000_000, trials=(1, 1), per_iteration_s=20.0
        )
    elif name == "batch_10k":
        trials = 8 if toy else 200
        workload = ExperimentWorkload(
            seed, workdir, n=500 if toy else 10_000, trials=(trials, trials)
        )
    elif name == "faulted_100k":
        workload = ExperimentWorkload(
            seed, workdir,
            n=2_000 if toy else 100_000,
            trials=(2, 1) if toy else (4, 7),
            mis_algorithm=SelfStabilizingLubyMIS,
            crash_share=0.01,
            # One iteration: its seven matching trials are what average out
            # the heavy-tailed round counts; repeating the same seeds would not.
            per_iteration_s=20.0,
        )
    elif name == "service_sweep":
        workload = ServiceWorkload(seed, toy, workdir)
    else:
        raise KeyError(name)
    workload.name = name
    return workload


WORKLOADS = ("pipeline_1m", "batch_10k", "faulted_100k", "service_sweep")
