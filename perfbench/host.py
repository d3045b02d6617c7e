"""Host speed, host-noise record and memory high-water marks for one run.

On a shared host, identical calls seconds apart can differ by 2x, and the
speed of the CPU a run lands on shifts by 30-50 % between periods lasting
minutes and by 10-20 % within seconds.  Two things answer that here:

* a small fixed calibration :func:`kernel` runs on the benchmark's own
  thread: a burst right before and right after every timed stage, and one
  run every :data:`SAMPLE_EVERY_S` seconds while the stage runs.  Stages
  are reported in reference seconds: wall time scaled by the host's mean
  speed over the stage, relative to :data:`REFERENCE_KERNEL_S`.
* every run records what the host looked like around it: the host's CPU
  count and the CPUs the run was pinned to, load averages and the CPU time
  stolen by the hypervisor (``/proc/stat`` ``steal``) at the start and at
  the end, the CPU model, and the Python and numpy versions.  Linux-only
  sources degrade to ``None``.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: The calibration kernel's time on the reference host (2-CPU Xeon
#: container) in a calm period.
REFERENCE_KERNEL_S = 0.0016
#: Seconds between two kernel runs while a stage runs.
SAMPLE_EVERY_S = 0.25


class Samples:
    """Kernel times sampled during one stage, and the seconds the sampling took."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.spent = 0.0


def kernel() -> float:
    """One run of the calibration kernel, a 40 000-step pure-Python loop, in seconds.

    One run takes about 2 ms.  Its working set is a few interpreter objects,
    so the caches the measured program leaves behind barely move its time,
    and a change to the program does not change the kernel's.
    """
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i
    return time.perf_counter() - start


def probe(repeats: int = 8) -> List[float]:
    """A burst of ``repeats`` kernel times, in seconds."""
    return [kernel() for _ in range(repeats)]


@contextmanager
def sampling():
    """Run the kernel every :data:`SAMPLE_EVERY_S` seconds inside the block.

    A ``SIGALRM`` handler runs it on this thread, between two bytecodes of
    whatever the block is doing.  Yields the block's :class:`Samples`; the
    caller leaves ``spent`` out of the block's time.
    """
    samples = Samples()

    def sample(signum, frame) -> None:
        start = time.perf_counter()
        samples.times.append(kernel())
        samples.spent += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    # Restart the system calls a sample interrupts, sqlite's included.
    signal.siginterrupt(signal.SIGALRM, False)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def factor(kernel_times: List[float]) -> float:
    """Reference seconds per wall second, given a burst of kernel times."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_times)


def stage_factor(before: List[float], samples: Samples, after: List[float]) -> float:
    """Mean speed over a stage: the bursts around it and every sample inside."""
    factors = [factor(before), factor(after)]
    factors.extend(REFERENCE_KERNEL_S / t for t in samples.times)
    return statistics.fmean(factors)


def speed_summary(before: List[float], samples: Samples, after: List[float]) -> Dict[str, object]:
    """The bursts' mean factor and the in-stage samples' median factor, for the report."""
    inside = [REFERENCE_KERNEL_S / t for t in samples.times]
    return {
        "bursts": round(statistics.fmean([factor(before), factor(after)]), 4),
        "samples": round(statistics.median(inside), 4) if inside else None,
        "n": len(inside),
    }


def _cpu_jiffies() -> Optional[Dict[str, int]]:
    """Aggregate ``cpu`` line of ``/proc/stat``: total and steal jiffies."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    # time is already counted in user/nice, so it is left out of the total.
    return {"total": sum(values[:8]), "steal": values[7] if len(values) > 7 else 0}


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def snapshot() -> Dict[str, object]:
    """Load averages and CPU jiffies now."""
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"loadavg": load, "jiffies": _cpu_jiffies()}


def noise_record(start: Dict[str, object], end: Dict[str, object]) -> Dict[str, object]:
    """The host record printed with every run."""
    steal_share = None
    a, b = start["jiffies"], end["jiffies"]
    if a and b and b["total"] > a["total"]:
        steal_share = (b["steal"] - a["steal"]) / (b["total"] - a["total"])
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": start["loadavg"],
        "loadavg_end": end["loadavg"],
        "steal_jiffies_start": a["steal"] if a else None,
        "steal_jiffies_end": b["steal"] if b else None,
        "steal_share": steal_share,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": _numpy_version(),
    }


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux
