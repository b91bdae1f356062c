"""Self-tests of the benchmark's correctness gate and statistics.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from repro import AllPairs, RocketConfig, RocketSession  # noqa: E402
from repro.apps import ForensicsApplication  # noqa: E402
from repro.data import InMemoryStore, make_forensics_dataset  # noqa: E402

from harness import check_jobs, closed_loop, tail  # noqa: E402
from run import WORKLOADS, declared, end_to_end  # noqa: E402
from scenarios import SCENARIOS, SerialReference  # noqa: E402


class PerturbedForensics(ForensicsApplication):
    """Returns a value one ulp-scale off for a single chosen pair."""

    def __init__(self, bad_pair) -> None:
        super().__init__()
        self._bad_pair = tuple(bad_pair)

    def postprocess(self, key_a, key_b, raw_result):
        value = super().postprocess(key_a, key_b, raw_result)
        return value + 1e-12 if (key_a, key_b) == self._bad_pair else value


class FailingForensics(ForensicsApplication):
    def compare_block(self, keys_a, items_a, keys_b, items_b):
        raise ValueError("injected compare failure")


@pytest.fixture(scope="module")
def corpus():
    files = InMemoryStore()
    keys = make_forensics_dataset(files, n_images=8, image_shape=(32, 32), seed=3).keys
    return files, keys


def _jobs(app, files, workloads):
    with RocketSession(app, files, RocketConfig(n_devices=1)) as session:
        return closed_loop(
            session,
            lambda i: workloads[i] if i < len(workloads) else None,
            seconds=60.0,
            timeout=30.0,
        )


def test_perturbed_result_is_failed_and_not_timed(corpus):
    files, keys = corpus
    tainted, clean = AllPairs(keys[:4]), AllPairs(keys[4:])
    app = PerturbedForensics(bad_pair=(keys[0], keys[1]))
    jobs = _jobs(app, files, [tainted, clean])
    reference = SerialReference(ForensicsApplication(), files)

    check_jobs(jobs, reference.expected)

    assert not jobs[0].ok and jobs[0].error.startswith("mismatch")
    assert jobs[1].ok
    metrics, detail = end_to_end(jobs, window_s=1.0, setup_s=1.0, cpu_s=1.0, rss_mb=1.0)
    assert detail["ok_jobs"] == 1 and detail["pairs"] == clean.n_pairs
    assert metrics["job_p50_ms"] == pytest.approx(1e3 * jobs[1].latency_s)
    assert metrics["pairs_per_s"] == pytest.approx(clean.n_pairs / jobs[1].latency_s)


def test_raising_job_is_failed(corpus):
    files, keys = corpus
    jobs = _jobs(FailingForensics(), files, [AllPairs(keys[:3])])
    check_jobs(jobs, SerialReference(ForensicsApplication(), files).expected)
    assert not jobs[0].ok and "injected compare failure" in jobs[0].error
    metrics, detail = end_to_end(jobs, window_s=1.0, setup_s=1.0, cpu_s=1.0, rss_mb=1.0)
    assert detail["ok_jobs"] == 0 and metrics["job_p50_ms"] == 0.0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail([float(v) for v in range(100)]) == (89.0, 90.0)
    assert tail([float(v) for v in range(20)]) == (9.0, 50.0)
    # Fewer samples would put that percentile under the median.
    assert tail([float(v) for v in range(19)]) == (18.0, 100.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_end_to_end_computes_every_declared_metric():
    metrics, _ = end_to_end([], window_s=1.0, setup_s=1.0, cpu_s=1.0, rss_mb=1.0)
    assert set(metrics) == set(declared("end_to_end"))


def test_workload_names_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(SCENARIOS) == set(WORKLOADS)
