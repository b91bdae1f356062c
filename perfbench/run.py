"""Rocket benchmark: all-pairs throughput and query latency, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload forensics-local --seed 1 --seconds 25 --trace 0

One closed-loop client drives a ``RocketSession`` through the public API
for ``--seconds``.  Every job's result matrix is checked value-for-value
against a serial reference; a job that raised, timed out or mismatched
counts as failed and is left out of every timing.  With ``--trace 0``
the last line of output carries the end-to-end metrics; with
``--trace 1`` half the time runs untraced (the baseline for the tracing
overhead) and half runs a profiled session whose stats, metrics and
merged profile give the per-layer metrics.  The line before the last
is a JSON report with the environment stamp and the raw figures behind
each metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("forensics-local", "microscopy-local", "forensics-cluster", "queries-cluster")
#: Session set-ups per run; ``setup_s`` takes their median.
SETUPS = 3
#: Longest a single job may take before it counts as failed.
JOB_TIMEOUT_S = 90.0
#: Modules no workload measures, and why.
UNMEASURED = {
    "repro.serve": "the serve daemon is parked under ROADMAP; its session is the one measured here",
    "repro.sim": "the discrete-event simulator is offline tooling, not the runtime",
    "repro.model": "read only through the predicted_runtime the run stats already carry",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


@contextmanager
def work_dir():
    """A per-run directory inside the checkout, removed afterwards."""
    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it


@dataclass
class Window:
    """The jobs one session ran in its timed window, and what it reported."""

    jobs: list
    seconds: float
    steal_share: Optional[float] = None
    metrics_before: Optional[dict] = None
    metrics_after: Optional[dict] = None
    profile: Any = None


class Bench:
    """Opens the scenario's sessions and runs their timed windows."""

    def __init__(self, scenario, workdir: Path) -> None:
        self.scenario = scenario
        self.workdir = workdir

    def open_session(self, *, traced: bool, app, files):
        """Construct a session and run its warm-up job; returns (session, seconds)."""
        from repro import RocketSession

        store_dir = None
        if self.scenario.uses_store:
            store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        t0 = time.perf_counter()
        session = RocketSession(
            app, files, self.scenario.config(profiling=traced),
            **self.scenario.session_options(store_dir),
        )
        try:
            session.submit(self.scenario.warm_workload()).result(timeout=JOB_TIMEOUT_S)
        except BaseException:
            session.close()
            raise
        return session, time.perf_counter() - t0

    def measure(self, session, seconds: float, *, traced: bool) -> Window:
        """The closed loop on ``session``, which is closed afterwards.

        A traced window streams every job and keeps the session's
        metrics before and after it and its merged profile.
        """
        from harness import closed_loop, cpu_steal_ticks

        self.scenario.begin_session()
        try:
            before = session.metrics() if traced else None
            steal_before = cpu_steal_ticks()
            t0 = time.perf_counter()
            jobs = closed_loop(
                session, self.scenario.next_workload, seconds,
                stream=traced, timeout=JOB_TIMEOUT_S,
            )
            window = Window(jobs, time.perf_counter() - t0, metrics_before=before)
            steal_after = cpu_steal_ticks()
            if traced:
                window.metrics_after = session.metrics()
                window.profile = session.profile()
        finally:
            session.close()
        if steal_before and steal_after and steal_after[1] > steal_before[1]:
            window.steal_share = (steal_after[0] - steal_before[0]) / (
                steal_after[1] - steal_before[1]
            )
        return window


def end_to_end(jobs, window_s, setup_s, cpu_s, rss_mb):
    from harness import median, tail

    ok = [j for j in jobs if j.ok]
    latencies = [j.latency_s for j in ok]
    pairs = sum(j.pairs for j in ok)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "pairs_per_s": pairs / sum(latencies) if latencies else 0.0,
        "job_p50_ms": 1e3 * median(latencies),
        "job_tail_ms": 1e3 * tail_s,
        "jobs_per_s": len(ok) / window_s if window_s else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "ok_jobs": len(ok),
        "pairs": pairs,
        "window_s": window_s,
        "tail_percentile": tail_pct,
        "tail_samples": len(latencies),
        "latencies_ms": [round(1e3 * s, 3) for s in latencies],
        # Not repeatable within a tenth across runs: reported per layer.
        "cpu_ms_per_pair": 1e3 * cpu_s / pairs if pairs else 0.0,
    }
    return metrics, detail


def run(args) -> int:
    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro

        if ROOT / "src" not in Path(repro.__file__).resolve().parents:
            raise ImportError(f"repro was imported from {repro.__file__}")
        from harness import ProcessTreeUsage, check_jobs, median
        from scenarios import SCENARIOS, SerialReference
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import

    from envstamp import stamp
    from layers import TimedApplication, TimedFileStore, layer_metrics, layer_shares

    t0 = time.perf_counter()
    scenario = SCENARIOS[args.workload](args.seed)
    reference = SerialReference(scenario.app, scenario.files)
    gen_s = time.perf_counter() - t0
    # First calls into every stage (lazy imports, BLAS start-up) happen
    # here, on the warm-up items, and are charged to set-up.
    t0 = time.perf_counter()
    reference.expected(scenario.warm_workload())
    first_call_s = time.perf_counter() - t0

    plain_s = args.seconds / 2 if args.trace else args.seconds
    with work_dir() as run_dir:
        bench = Bench(scenario, run_dir)
        setup_times = []
        session = None
        for _ in range(SETUPS):
            if session is not None:
                session.close()
            usage = ProcessTreeUsage()
            session, seconds = bench.open_session(
                traced=False, app=scenario.app, files=scenario.files
            )
            setup_times.append(seconds)
        plain = bench.measure(session, plain_s, traced=False)
        cpu_s, rss_mb = usage.cpu_seconds(), usage.peak_rss_mb()
        traced = None
        if args.trace:
            app = TimedApplication(scenario.app) if scenario.backend == "local" else scenario.app
            files = TimedFileStore(scenario.files)
            session, _ = bench.open_session(traced=True, app=app, files=files)
            traced = bench.measure(session, args.seconds - plain_s, traced=True)

    session_s = median(setup_times)
    setup_s = import_s + first_call_s + session_s
    log(f"{args.workload}: set-up {setup_s:.3f}s (import {import_s:.3f}s, "
        f"first call {first_call_s:.3f}s, sessions {setup_times})")
    all_jobs = plain.jobs + (traced.jobs if traced else [])
    check_jobs(all_jobs, reference.expected)
    failures = [j.error for j in all_jobs if not j.ok]
    metrics, detail = end_to_end(plain.jobs, plain.seconds, setup_s, cpu_s, rss_mb)
    serial_pairs_per_s = reference.pairs / reference.seconds if reference.seconds else 0.0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": stamp(ROOT), "unmeasured": UNMEASURED,
        "predicted_dominant_layers": scenario.dominant,
        **detail,
        "cpu_steal_share": plain.steal_share,
        "setup": {"import_s": import_s, "first_call_s": first_call_s,
                  "session_s": setup_times, "gen_s": gen_s},
        "serial_pairs_per_s": serial_pairs_per_s,
        "failures": failures[:5],
    }

    if traced:
        ok_traced = [j for j in traced.jobs if j.ok]
        per_layer = layer_metrics(
            ok_traced,
            profile=traced.profile,
            metrics_before=traced.metrics_before,
            metrics_after=traced.metrics_after,
            app_meter=app.meter if isinstance(app, TimedApplication) else None,
            files_meter=files.meter,
            serial_pairs_per_s=serial_pairs_per_s,
        )
        shares = layer_shares(ok_traced, traced.profile)
        share = shares["share"]
        report["shares"] = shares
        report["dominant_share"] = sum(share[name] for name in scenario.dominant)
        report["largest_other_layer"] = max(
            (name for name in share if name not in scenario.dominant), key=share.get
        )
        per_layer.update({
            "cpu_ms_per_pair": detail["cpu_ms_per_pair"],
            "error_rate": len(failures) / len(all_jobs),
            "setup.import_s": import_s,
            "setup.first_call_s": first_call_s,
            "setup.session_s": session_s,
            "trace.overhead_ms": 1e3 * (
                median([j.latency_s for j in ok_traced]) - metrics["job_p50_ms"] / 1e3
            ),
            **{f"share.{name}": value for name, value in share.items()},
        })
        out_metrics = as_output(per_layer, "per_layer")
    else:
        out_metrics = as_output(metrics, "end_to_end")

    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(all_jobs),
        "failed": len(failures),
        "metrics": out_metrics,
    }, allow_nan=False))
    return 0


def declared(section: str):
    """``{name: unit}`` of one metric list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def as_output(values, section: str):
    """The declared metrics, each with its declared unit."""
    units = declared(section)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{section} metrics not computed: {missing}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
