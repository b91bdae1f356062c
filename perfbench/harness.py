"""Closed-loop job runner, correctness gate and summary statistics.

A job is timed from ``submit`` to ``result()`` returning.  Each job's
matrix is checked value-for-value against the serial reference after
the measurement window closes; a job that raised, timed out or
mismatched counts as failed and its timings are left out of every
latency and throughput figure.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Job",
    "run_job",
    "closed_loop",
    "verify",
    "check_jobs",
    "median",
    "tail",
    "cpu_steal_ticks",
    "ProcessTreeUsage",
]


@dataclass
class Job:
    """One submitted job: its workload, timings and outcome."""

    workload: Any
    pairs: int
    #: ``submit`` to ``result()`` returning, seconds.
    latency_s: float = 0.0
    #: Duration of the ``submit`` call itself.
    submit_s: float = 0.0
    #: ``submit`` to the first / last pair out of ``stream()`` (streamed
    #: jobs only).
    first_s: Optional[float] = None
    last_s: Optional[float] = None
    result: Any = None
    error: Optional[str] = None
    stats: Any = None
    accounting: Any = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_job(session, workload, *, stream: bool, timeout: float) -> Job:
    """Submit one workload and block for its result.

    With ``stream`` the pairs are consumed through ``handle.stream()``
    first, stamping the first and last arrival.
    """
    job = Job(workload, workload.n_pairs)
    t0 = time.perf_counter()
    handle = session.submit(workload)
    job.submit_s = time.perf_counter() - t0
    try:
        if stream:
            for _ in handle.stream():
                now = time.perf_counter() - t0
                if job.first_s is None:
                    job.first_s = now
                job.last_s = now
        job.result = handle.result(timeout=timeout)
        job.latency_s = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a failed job is a data point
        handle.cancel()
        job.error = f"{type(exc).__name__}: {exc}"
    job.stats = handle.stats
    job.accounting = handle.accounting
    return job


def closed_loop(
    session,
    next_workload: Callable[[int], Any],
    seconds: float,
    *,
    stream: bool = False,
    timeout: float = 90.0,
) -> List[Job]:
    """One client submitting its next job when the previous one returns.

    Starts jobs until ``seconds`` have passed (at least one job), or
    until ``next_workload`` returns None.  A timed-out job ends the loop:
    the session may be wedged.
    """
    jobs: List[Job] = []
    deadline = time.perf_counter() + seconds
    while True:
        workload = next_workload(len(jobs))
        if workload is None:
            break
        job = run_job(session, workload, stream=stream, timeout=timeout)
        jobs.append(job)
        if job.error is not None and job.error.startswith("TimeoutError"):
            break
        if time.perf_counter() >= deadline:
            break
    return jobs


def verify(result, expected: Dict[Tuple[Any, Any], Any]) -> Optional[str]:
    """Why ``result`` differs from the reference values, or None."""
    if len(result) != len(expected):
        return f"{len(result)} pairs delivered, {len(expected)} expected"
    for (a, b), value in expected.items():
        try:
            got = result.get(a, b)
        except KeyError:
            return f"pair ({a}, {b}) missing"
        if got != value:
            return f"pair ({a}, {b}): got {got!r}, reference {value!r}"
    return None


def check_jobs(jobs: Sequence[Job], expected_of: Callable[[Any], Dict]) -> None:
    """Mark every job whose matrix is not value-identical as failed."""
    for job in jobs:
        if job.ok:
            problem = verify(job.result, expected_of(job.workload))
            if problem is not None:
                job.error = f"mismatch: {problem}"
        job.result = None  # checked; free the matrix


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (0.0 for an empty one)."""
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    ten samples beyond it.

    Below 20 samples that percentile would sit at or under the median,
    so the maximum is returned with percentile 100.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def cpu_steal_ticks() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` CPU ticks from ``/proc/stat``; None off Linux.

    The share of stolen ticks over a window tells how much a virtual
    machine's host took away while the benchmark measured.
    """
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class ProcessTreeUsage:
    """CPU time and peak memory of this process plus its reaped children.

    Children (cluster node processes) only appear in
    ``RUSAGE_CHILDREN`` once their session has closed and joined them,
    so read :meth:`cpu_seconds` after the close.
    """

    def __init__(self) -> None:
        self._start = self._cpu()

    @staticmethod
    def _cpu() -> float:
        total = 0.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
            usage = resource.getrusage(who)
            total += usage.ru_utime + usage.ru_stime
        return total

    def cpu_seconds(self) -> float:
        """CPU seconds spent since construction."""
        return self._cpu() - self._start

    @staticmethod
    def peak_rss_mb() -> float:
        """Peak resident set of this process plus the largest reaped child."""
        kib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        return kib / 1024.0
