"""The benchmark's four workloads and the serial reference they are checked against.

Every workload generates its inputs from the seed into an in-memory file
store before any session exists (cluster node processes fork from this
process and see the store as it was at fork time).  The program only
receives that store and the generated keys.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import AllPairs, Bipartite, RocketConfig
from repro.apps import ForensicsApplication, MicroscopyApplication
from repro.data import InMemoryStore, make_forensics_dataset, make_microscopy_dataset

__all__ = ["SerialReference", "Scenario", "SCENARIOS"]

#: A wedged run raises instead of hanging past the per-run time limit.
WATCHDOG_SECONDS = 120.0


class SerialReference:
    """Single-threaded parse/preprocess/compare/postprocess loop.

    Computes, for any workload over the generated keys, the value of
    every accepted pair in the orientation the runtime evaluates it
    (``keys[i], keys[j]`` with ``i < j``).  Items and pair values are
    computed once and reused; :attr:`seconds` is the time spent doing
    so, which gives the serial throughput the runtime is compared to.
    """

    def __init__(self, app, files) -> None:
        self.app = app
        self.files = files
        self._items: Dict[Any, Any] = {}
        self._values: Dict[Tuple[Any, Any], Any] = {}
        self.seconds = 0.0

    @property
    def pairs(self) -> int:
        return len(self._values)

    def _item(self, key):
        item = self._items.get(key)
        if item is None:
            raw = self.files.read(self.app.file_name(key))
            item = self.app.preprocess(key, self.app.parse(key, raw))
            self._items[key] = item
        return item

    def expected(self, workload) -> Dict[Tuple[Any, Any], Any]:
        """Reference value of every pair ``workload`` accepts."""
        keys = workload.keys
        keep = workload.pair_filter
        out: Dict[Tuple[Any, Any], Any] = {}
        for block in workload.blocks():
            for i, j in block.pairs():
                a, b = keys[i], keys[j]
                if keep is not None and not keep(a, b):
                    continue
                value = self._values.get((a, b))
                if value is None:
                    t0 = time.perf_counter()
                    raw = self.app.compare(a, self._item(a), b, self._item(b))
                    value = self.app.postprocess(a, b, raw)
                    self.seconds += time.perf_counter() - t0
                    self._values[(a, b)] = value
                out[(a, b)] = value
        return out


class Scenario:
    """One workload: generated inputs, session shape and job stream."""

    name = "?"
    backend = "local"
    n_nodes = 0
    #: Layers (keys of ``layers.SHARE_LAYERS``) predicted to dominate
    #: together.
    dominant: Tuple[str, ...] = ()
    #: Whether sessions get a fresh persistent-store directory.
    uses_store = False
    n_devices = 1
    #: RocketConfig cache sizes (empty: the defaults).
    cache_slots: Dict[str, int] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.files = InMemoryStore()
        self.app = None
        self.corpus_keys: List[List[str]] = []
        self.warm_keys: List[str] = []

    def config(self, profiling: bool) -> RocketConfig:
        return RocketConfig(
            n_devices=self.n_devices,
            profiling=profiling,
            seed=self.seed,
            watchdog_seconds=WATCHDOG_SECONDS,
            **self.cache_slots,
        )

    def session_options(self, store_dir: Optional[str]) -> Dict[str, Any]:
        options: Dict[str, Any] = {"backend": self.backend}
        if self.backend == "cluster":
            options["n_nodes"] = self.n_nodes
        if self.uses_store:
            options["store_dir"] = store_dir
        return options

    def warm_workload(self):
        """Per-session warm-up job, counted in set-up time."""
        return AllPairs(self.warm_keys)

    def begin_session(self) -> None:
        """Called before the timed jobs of each session."""

    def split_corpora(self, keys: List[str], corpora: int, items: int) -> None:
        """``corpora`` corpora of ``items`` keys each; the rest warm up."""
        self.corpus_keys = [keys[c * items:(c + 1) * items] for c in range(corpora)]
        self.warm_keys = keys[corpora * items:]

    def next_workload(self, index: int):
        """Workload of the ``index``-th timed job (None: inputs exhausted).

        By default, AllPairs over the corpora in turn.
        """
        return AllPairs(self.corpus_keys[index % len(self.corpus_keys)])


class Forensics(Scenario):
    """AllPairs over 32 PRNU images at 192x192, caches far below the working set.

    Jobs alternate between two corpora with distinct keys.  One corpus
    is 8x the device cache and 4x the host cache, so the previous job
    leaves nothing of the next one's corpus resident: every job starts
    cold, like a job over a fresh corpus.
    """

    #: The load pipeline.
    dominant = ("io", "parse", "preprocess")
    items = 32
    corpora = 2
    shape = (192, 192)
    cache_slots = {"device_cache_slots": 4, "host_cache_slots": 8}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        dataset = make_forensics_dataset(
            self.files,
            n_images=self.corpora * self.items + 4,
            n_cameras=4,
            image_shape=self.shape,
            seed=seed,
        )
        self.split_corpora(dataset.keys, self.corpora, self.items)
        self.app = ForensicsApplication()


class ForensicsLocal(Forensics):
    name = "forensics-local"
    n_devices = 2


class ForensicsCluster(Forensics):
    name = "forensics-cluster"
    backend = "cluster"
    n_nodes = 2
    #: BLAS threads of two node processes oversubscribe the cores and
    #: stretch every comparison.
    dominant = ("compare",)


class MicroscopyLocal(Scenario):
    """AllPairs over 10 particles (45 pairs), cycling through four corpora.

    The caches hold all four corpora, so after its first load each item
    stays resident and compare (multi-start registration) is nearly all
    the work.  Registration cost depends on the particles; cycling four
    corpora of small (24-point template) particles averages that over
    180 distinct pairs per run instead of 45.
    """

    name = "microscopy-local"
    dominant = ("compare",)
    n_devices = 2
    items = 10
    corpora = 4
    template_points = 24

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        dataset = make_microscopy_dataset(
            self.files,
            n_particles=self.corpora * self.items + 2,
            template_points=self.template_points,
            seed=seed,
        )
        self.split_corpora(dataset.keys, self.corpora, self.items)
        self.app = MicroscopyApplication()


class QueriesCluster(Scenario):
    """A stream of 64-pair ``Bipartite([query], corpus)`` jobs on a warm cluster.

    One job in four repeats an earlier query, which the memo store
    answers without the backend.  Fresh queries come from a pool
    generated up front; the loop ends early if it runs dry.
    """

    name = "queries-cluster"
    backend = "cluster"
    n_nodes = 2
    dominant = ("queued",)
    uses_store = True
    corpus_items = 64
    pool_items = 1200
    shape = (96, 96)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        dataset = make_forensics_dataset(
            self.files,
            n_images=self.corpus_items + 1 + self.pool_items,
            n_cameras=4,
            image_shape=self.shape,
            seed=seed,
        )
        keys = dataset.keys
        self.corpus = keys[:self.corpus_items]
        self.warm_keys = [keys[self.corpus_items]]
        self.pool = keys[self.corpus_items + 1:]
        self.app = ForensicsApplication()
        self._rng = random.Random(seed)
        self._fresh = 0
        self._asked: List[str] = []

    def warm_workload(self):
        return Bipartite(self.warm_keys, self.corpus)

    def begin_session(self) -> None:
        # A new session has an empty memo store: repeats may only name
        # queries asked in this session.
        self._asked = []

    def next_workload(self, index: int):
        # Every fourth job repeats a query asked earlier in this session
        # (a fixed schedule, so the memo-hit share does not vary by seed).
        if index % 4 == 3 and self._asked:
            query = self._rng.choice(self._asked)
        elif self._fresh < len(self.pool):
            query = self.pool[self._fresh]
            self._fresh += 1
            self._asked.append(query)
        else:
            return None
        return Bipartite([query], self.corpus)


SCENARIOS = {
    cls.name: cls
    for cls in (ForensicsLocal, MicroscopyLocal, ForensicsCluster, QueriesCluster)
}
