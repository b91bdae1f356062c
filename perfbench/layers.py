"""Per-layer measurement, taken from outside the program.

In-process layers (the application callbacks and the file store of a
local backend) are timed through :class:`TimedApplication` and
:class:`TimedFileStore`, which wrap the objects handed to the session.
Layers inside cluster node processes are read from what the program
already returns: per-job run stats (``handle.stats``), the session's
metrics (``session.metrics()``) and its merged profile
(``session.profile()``).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence

from repro import Application
from repro.data import FileStore

from harness import Job, median

__all__ = [
    "TimedApplication",
    "TimedFileStore",
    "SHARE_LAYERS",
    "layer_shares",
    "layer_metrics",
]


class _Meter:
    """Thread-safe call counts and seconds per operation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.units: Dict[str, int] = defaultdict(int)

    def add(self, op: str, seconds: float, units: int = 1) -> None:
        with self._lock:
            self.calls[op] += 1
            self.seconds[op] += seconds
            self.units[op] += units


class TimedApplication(Application):
    """Delegates every callback to ``inner`` and times the four stages.

    Capability flags and the fingerprint are the inner application's,
    so the runtime takes exactly the dispatch path it takes without
    the wrapper.
    """

    def __init__(self, inner: Application) -> None:
        self.inner = inner
        self.meter = _Meter()

    def _timed(self, op: str, units: int, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.meter.add(op, time.perf_counter() - t0, units)
        return out

    def file_name(self, key):
        return self.inner.file_name(key)

    def parse(self, key, file_contents):
        return self._timed("parse", 1, self.inner.parse, key, file_contents)

    def preprocess(self, key, parsed):
        return self._timed("preprocess", 1, self.inner.preprocess, key, parsed)

    def compare(self, key_a, item_a, key_b, item_b):
        return self._timed("compare", 1, self.inner.compare, key_a, item_a, key_b, item_b)

    def compare_block(self, keys_a, items_a, keys_b, items_b):
        return self._timed(
            "compare", len(keys_a), self.inner.compare_block, keys_a, items_a, keys_b, items_b
        )

    def postprocess(self, key_a, key_b, raw_result):
        return self._timed("postprocess", 1, self.inner.postprocess, key_a, key_b, raw_result)

    def item_view(self, key, item):
        return self.inner.item_view(key, item)

    @property
    def supports_compare_block(self) -> bool:
        return self.inner.supports_compare_block

    @property
    def supports_item_view(self) -> bool:
        return self.inner.supports_item_view

    def slot_nbytes_hint(self):
        return self.inner.slot_nbytes_hint()

    def fingerprint(self) -> str:
        return self.inner.fingerprint()

    def validate_keys(self, keys) -> None:
        self.inner.validate_keys(keys)


class TimedFileStore(FileStore):
    """Delegates to ``inner``, counting reads, their bytes and their time."""

    def __init__(self, inner: FileStore) -> None:
        self.inner = inner
        self.meter = _Meter()

    def read(self, name):
        t0 = time.perf_counter()
        data = self.inner.read(name)
        self.meter.add("read", time.perf_counter() - t0, len(data))
        return data

    def write(self, name, data):
        self.inner.write(name, data)

    def names(self):
        return self.inner.names()

    def exists(self, name):
        return self.inner.exists(name)

    def stat(self, name):
        return self.inner.stat(name)


#: Layers whose share of job wall clock the traced run reports, each a
#: predicate on a profile span's ``(lane, label)``.
SHARE_LAYERS = {
    "queued": lambda lane, label: lane == "scheduler" and label == "queued",
    "io": lambda lane, label: lane == "IO",
    "parse": lambda lane, label: label == "parse",
    "preprocess": lambda lane, label: label == "preprocess",
    "compare": lambda lane, label: label == "compare",
    "postprocess": lambda lane, label: label == "postprocess",
    "fetch": lambda lane, label: lane == "NET" and label.startswith("fetch:"),
    "steal": lambda lane, label: lane == "NET" and label.startswith("steal:"),
}


def _profile_events(profile) -> List[Any]:
    return [e for pid in profile.pids() for e in profile.events_for_pid(pid)]


def _job_ids(jobs: Iterable[Job]) -> set:
    return {j.accounting.job_id for j in jobs if j.accounting is not None}


def _union_length(intervals: List[tuple]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return total


def layer_shares(jobs: Sequence[Job], profile) -> Dict[str, Any]:
    """Occupied seconds of each layer over the jobs' summed wall clock.

    A layer occupies a lane (a device, the CPU pool, the network client
    of one process) while at least one of its spans is open there, so
    concurrent spans on one lane count once.  Lanes run in parallel:
    the shares of several layers, or of one layer on several devices,
    can sum past 1.  The base is the summed ``submit``-to-``result()``
    time of ``jobs``.
    """
    base = sum(j.latency_s for j in jobs)
    job_ids = _job_ids(jobs)
    intervals: Dict[tuple, List[tuple]] = defaultdict(list)
    for pid in profile.pids():
        for e in profile.events_for_pid(pid):
            if e.job_id in job_ids:
                for name, match in SHARE_LAYERS.items():
                    if match(e.lane, e.label):
                        intervals[(name, pid, e.lane)].append((e.start, e.end))
    busy = {name: 0.0 for name in SHARE_LAYERS}
    for (name, _pid, _lane), spans in intervals.items():
        busy[name] += _union_length(spans)
    return {
        "base_s": base,
        "busy_s": busy,
        "share": {k: (v / base if base else 0.0) for k, v in busy.items()},
    }


def _counter_sum(stats_list, attr: str) -> Dict[str, int]:
    hits = misses = 0
    for counters in (getattr(s, attr) for s in stats_list):
        hits += counters.hits + counters.hits_while_writing
        misses += counters.misses
    return {"hits": hits, "requests": hits + misses}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nested(snapshot: Dict[str, Any], *path: str) -> float:
    node: Any = snapshot
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return 0.0
        node = node[part]
    return float(node)


def layer_metrics(
    jobs: Sequence[Job],
    *,
    profile,
    metrics_before: Dict[str, Any],
    metrics_after: Dict[str, Any],
    app_meter: _Meter | None,
    files_meter: _Meter,
    serial_pairs_per_s: float,
) -> Dict[str, float]:
    """Every per-layer metric, from the traced jobs of one session.

    ``jobs`` are the checked, successful jobs.  Count metrics are means
    per job; ratios are totals over totals.  ``app_meter`` is None when
    the application ran in other processes, in which case the
    application figures come from the merged stage calibration.
    """
    n_jobs = max(len(jobs), 1)
    pairs = sum(j.pairs for j in jobs)
    # Jobs the memo store answered alone never reached the backend: no stats.
    run_stats = [j.stats for j in jobs if j.stats is not None]
    # Node-level stats: a cluster job carries one per node, a local one is its own.
    node_stats = [ns for s in run_stats for ns in getattr(s, "node_stats", [s])]
    cluster = any(hasattr(s, "node_stats") for s in run_stats)

    out: Dict[str, float] = {}

    # -- core.session / core.scheduler (benchmark-side stream stamps) --
    streamed = [j for j in jobs if j.first_s is not None]
    out["session.submit_ms"] = 1e3 * median([j.submit_s for j in jobs])
    out["session.first_result_ms"] = 1e3 * median([j.first_s for j in streamed])
    out["session.stream_span_ms"] = 1e3 * median([j.last_s - j.first_s for j in streamed])
    out["session.drain_ms"] = 1e3 * median([j.latency_s - j.last_s for j in streamed])
    out["scheduler.queued_ms"] = 1e3 * median(
        [j.accounting.queued_seconds for j in jobs if j.accounting is not None]
    )

    # -- runtime.cluster / runtime.transport --------------------------
    events = _profile_events(profile)
    job_ids = _job_ids(jobs)
    fetch_s = timeouts = 0.0
    for e in events:
        if e.job_id in job_ids and e.lane == "NET" and e.label.startswith("fetch:"):
            fetch_s += e.duration
            timeouts += e.label == "fetch:timeout"
    messages = sum(getattr(s, "messages", 0) for s in run_stats)
    out["cluster.messages_per_pair"] = _ratio(messages, pairs)
    out["cluster.result_messages"] = sum(
        getattr(s, "message_kinds", {}).get("result", 0) for s in run_stats
    ) / n_jobs
    out["cluster.bytes_over_wire_per_pair"] = _ratio(
        sum(getattr(s, "bytes_over_wire", 0) for s in run_stats), pairs
    )
    out["cluster.fetch_ms"] = 1e3 * fetch_s / n_jobs
    out["cluster.fetch_timeouts"] = timeouts

    # -- cache ---------------------------------------------------------
    loads = sum(s.loads for s in run_stats)
    items = sum(s.n_items for s in run_stats)
    device = _counter_sum(node_stats, "device_counters")
    host = _counter_sum(node_stats, "host_counters")
    remote_hits = sum(s.hop_stats.total_hits for s in run_stats if hasattr(s, "hop_stats"))
    remote_requests = sum(s.hop_stats.requests for s in run_stats if hasattr(s, "hop_stats"))
    out["cache.loads"] = loads / n_jobs
    out["cache.reuse_R"] = _ratio(loads, items)
    out["cache.device_hit_ratio"] = _ratio(device["hits"], device["requests"])
    out["cache.host_hit_ratio"] = _ratio(host["hits"], host["requests"])
    out["cache.remote_hit_ratio"] = _ratio(remote_hits, remote_requests)

    # -- scheduling ----------------------------------------------------
    out["scheduling.local_steals"] = sum(ns.local_steals for ns in node_stats) / n_jobs
    out["scheduling.remote_steals"] = sum(getattr(s, "remote_steals", 0) for s in run_stats) / n_jobs
    imbalance = []
    for s in run_stats:
        per_device = [
            count for ns in getattr(s, "node_stats", [s]) for count in ns.pairs_per_device.values()
        ]
        if per_device and sum(per_device):
            imbalance.append(max(per_device) * len(per_device) / sum(per_device))
    out["scheduling.device_imbalance"] = median(imbalance)

    # -- runtime.pernode: busy seconds from the stage calibration -------
    calibrations = [s.calibration for s in run_stats if s.calibration is not None]
    compare_span_s = sum(
        e.duration for e in events if e.job_id in job_ids and e.label == "compare"
    )
    cmp_s = sum(c.cmp_seconds for c in calibrations)
    out["pernode.io_s"] = sum(c.io_seconds for c in calibrations) / n_jobs
    out["pernode.parse_s"] = sum(c.parse_seconds for c in calibrations) / n_jobs
    out["pernode.preprocess_s"] = sum(c.pre_seconds for c in calibrations) / n_jobs
    out["pernode.compare_s"] = cmp_s / n_jobs
    out["pernode.postprocess_s"] = sum(c.post_seconds for c in calibrations) / n_jobs
    out["pernode.compare_wait_s"] = (compare_span_s - cmp_s) / n_jobs

    # -- apps ----------------------------------------------------------
    if app_meter is not None:
        cmp_pairs = app_meter.units["compare"]
        out["apps.compare_us_per_pair"] = 1e6 * _ratio(app_meter.seconds["compare"], cmp_pairs)
        out["apps.preprocess_ms_per_item"] = 1e3 * _ratio(
            app_meter.seconds["preprocess"], app_meter.calls["preprocess"]
        )
        out["apps.pairs_per_launch"] = _ratio(cmp_pairs, app_meter.calls["compare"])
    else:
        pre_count = sum(c.pre_count for c in calibrations)
        launches = sum(sum(ns.kernel_counts.values()) for ns in node_stats) - pre_count
        out["apps.compare_us_per_pair"] = 1e6 * _ratio(cmp_s, sum(c.cmp_count for c in calibrations))
        out["apps.preprocess_ms_per_item"] = 1e3 * _ratio(
            sum(c.pre_seconds for c in calibrations), pre_count
        )
        out["apps.pairs_per_launch"] = _ratio(sum(s.n_pairs for s in run_stats), launches)
    out["apps.serial_pairs_per_s"] = serial_pairs_per_s

    # -- data: reads seen by the wrapped store, plus node-side loads ----
    reads = files_meter.calls["read"]
    read_s = files_meter.seconds["read"]
    read_bytes = files_meter.units["read"]
    if cluster:
        reads += sum(c.io_count for c in calibrations)
        read_s += sum(c.io_seconds for c in calibrations)
        read_bytes += sum(c.io_bytes for c in calibrations)
    out["data.reads"] = reads / n_jobs
    out["data.read_ms"] = 1e3 * read_s / n_jobs
    out["data.bytes_read"] = read_bytes / n_jobs

    # -- store: session-metric deltas over the traced jobs -------------
    def delta(*path: str) -> float:
        return _nested(metrics_after, *path) - _nested(metrics_before, *path)

    memo_hits = delta("store", "memo", "hits")
    memo_misses = delta("store", "memo", "misses")
    out["store.memo_hit_ratio"] = _ratio(memo_hits, memo_hits + memo_misses)
    out["store.jobs_short_circuited"] = delta("store", "memo", "jobs_short_circuited")
    out["store.persist_hits"] = delta("cache", "persistent", "hits") / n_jobs
    out["store.persist_bytes_written"] = delta("cache", "persistent", "bytes_written") / n_jobs
    return out
