"""The three workloads: set-up, load generation, answer checks, metrics.

Every workload runs on one seeded R-MAT graph (scale 16, ~1M edges)
with alpha = 0.2 and lambda = 1e-8, the solvers' default l1 target.
Load comes from one submitting thread.

``highprec-1m``
    Closed loop, one client, ``PPREngine.query(s, "powerpush")`` over
    distinct sources: the kernels and the solver do nearly all the work;
    cache, scheduler and IPC are bypassed.
``serve-zipf-1m``
    Open loop, Poisson arrivals at :data:`RATE` q/s, Zipf sources over a
    seeded hot set, read-only, through ``EngineServer`` (thread tier):
    cache hits, micro-batch coalescing and the solver share the time.
    Latency is timed from each request's due time, so a stalled
    generator charges its lag to the requests behind it.  Its traced run
    also replays the untraced operations and schedule through
    ``ShardedDispatcher(workers=2)`` for the ``sharded.*`` metrics: a
    workload of its own was unsteady, because the p90 of the sharded
    tier swings with how often both shards solve at once.
``serve-mixed-1m``
    The same Zipf source stream with every :data:`UPDATE_PERIOD`-th
    operation an ``EngineServer.apply_updates`` batch on a
    ``DynamicGraph`` server with a fsynced WAL, sent as a closed loop
    (each operation waits for the last).  Every write empties the result
    cache and forces a snapshot rebuild and an fsync.  It is a closed
    loop because the open loop at the serving rate is unsteady: each
    write's burst of misses coalesces into a slow block solve, and the
    p90 then depends on how many arrivals a handful of bursts catch.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import shutil
import tempfile
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
from check import Reference, certificate_errors, reference_errors
from stats import mean, median, percentile

ALPHA = 0.2
LAMBDA = 1e-8
#: Goodput counts queries answered within this limit (the metric's name
#: in BENCHMARK.json carries it).
LATENCY_LIMIT_MS = 1000.0
#: Offered load of the open-loop workloads, well below the thread tier's
#: saturation on a 2-core host, so misses rarely queue behind each other.
RATE = 8.0
#: Zipf sources: the defaults of the program's own traffic generator,
#: ``repro.serving.workload.WorkloadGenerator`` (64 hot sources, s = 1.1).
HOT_SET = 64
ZIPF_EXPONENT = 1.1
#: serve-mixed-1m: every UPDATE_PERIOD-th operation is an update batch of
#: UPDATE_BATCH edge edits -- one batch of 8 per 4 queries, the soak-mode
#: serving mix of ``benchmarks/bench_serving.py`` (``update_every=4``,
#: ``batch_size=8``).
UPDATE_PERIOD = 5
UPDATE_BATCH = 8
SHARD_WORKERS = 2
#: Answers per pass checked against the independent reference, drawn
#: from the first REFERENCE_POOL measured queries (every pass sends them).
REFERENCE_SAMPLE = 3
REFERENCE_POOL = 40
#: Sources the PowItr / FIFO-FwdPush yardstick rows are measured on.
YARDSTICK_SOURCES = 2
#: Operations sent one at a time before the measured window opens: the
#: result cache takes in the hottest sources, so the window does not start
#: with a seed-dependent burst of misses.  Kept short so the window's hit
#: rate stays well below 0.9 (0.71-0.75 measured on seeds 1-3): the p90
#: then falls inside the misses, not at the edge between hits and misses.
WARMUP_OPS = 10
#: Cold sources the open-loop warm-up then sends at once, so every run's
#: peak memory includes one block solve of this many sources.  Without it
#: the peak followed the largest block the seed's arrivals happened to
#: coalesce (1 to 6 sources, ~11 MB each at this graph size).
BURST = 8
#: Fewest queries an untraced closed-loop run sends: enough for a p90
#: with ten samples beyond it, also on a slower host.
CLOSED_MIN_QUERIES = 110
#: Operations generated per second of a closed-loop run (more than any
#: host sends; the loop stops on time).
CLOSED_OPS_PER_SECOND = 40
#: Seconds an open-loop run waits for its backlog after the schedule.
DRAIN_SECONDS = 30.0
SWEEP_REPEATS = 9


@dataclass
class Answer:
    """What the per-layer metrics read of one answer.

    Taken as the answer arrives, so a run keeps no n-vectors beyond its
    reference sample and the benchmark's own memory stays out of
    ``peak_rss_mb``.
    """

    version: int
    cache_hit: bool
    batch_size: int  # requests the serving dispatch coalesced
    worker: int | None
    seconds: float  # PPRResult.seconds: the dispatch's wall over its block size
    block: int  # PPRResult.batch_size: sources co-solved in the block
    updates: int  # residue updates
    epochs: int
    nbytes: int  # estimate + residue


@dataclass
class Request:
    """One operation of a run and what became of it."""

    source: int  # -1 for an update batch
    due: float  # perf_counter time it was due
    sent: float = 0.0
    done: float | None = None
    answer: Answer | None = None
    error: str | None = None  # "refused: ...", "failed: ..." or "wrong: ..."
    future: Any = None
    warmup: bool = False  # sent before the measured window opened
    keep: bool = False  # in the reference sample: keep the full result
    result: Any = None  # the full PPRResult, when kept

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


@dataclass
class Run:
    """Everything one pass of a workload produced."""

    n: int
    sample: frozenset[int]  # measured-query ordinals kept for the reference
    perturb: Callable | None = None
    requests: list[Request] = field(default_factory=list)
    started: float = 0.0  # when the measured window opened
    measured_queries: int = 0
    updates: list[tuple[float, int]] = field(default_factory=list)  # (ms, edits)
    snapshot_ms: list[float] = field(default_factory=list)
    lag_ms_max: float = 0.0
    backlog_end: int = 0
    stats: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    wal_bytes: int = 0
    cache_entries: int = 0
    yardsticks: dict = field(default_factory=dict)

    @property
    def measured(self) -> list[Request]:
        return [r for r in self.requests if not r.warmup]

    def ok(self) -> list[Request]:
        """Measured queries answered without error."""
        return [
            r for r in self.measured
            if r.source >= 0 and r.error is None and r.answer is not None
        ]

    def add_query(self, source: int, due: float, sent: float, warmup: bool) -> Request:
        request = Request(source=source, due=due, sent=sent, warmup=warmup)
        if not warmup:
            request.keep = self.measured_queries in self.sample
            self.measured_queries += 1
        self.requests.append(request)
        return request

    def record(self, request: Request, answer: Any) -> None:
        """Summarise an arrived answer and check its certificate."""
        if self.perturb is not None:
            answer = self.perturb(answer)
        result = getattr(answer, "result", answer)
        request.answer = Answer(
            version=getattr(answer, "version", 0),
            cache_hit=getattr(answer, "cache_hit", False),
            batch_size=getattr(answer, "batch_size", 1),
            worker=getattr(answer, "worker", None),
            seconds=result.seconds,
            block=result.batch_size,
            updates=result.counters.residue_updates,
            epochs=result.counters.extras.get("epochs", 0),
            nbytes=result.estimate.nbytes + result.residue.nbytes,
        )
        if request.keep:
            request.result = result
        errors = certificate_errors(result, request.source, LAMBDA, self.n)
        if errors:
            request.error = "wrong: " + "; ".join(errors)


# -- set-up ---------------------------------------------------------------
def _load_graph(path: Path):
    from repro.graph.digraph import DiGraph

    indptr, indices = inputs.load_csr(path)
    return DiGraph(indptr, indices, name="bench-rmat").warm_push_caches()


def setup_engine(path: Path, scratch: Path):
    from repro.api.engine import PPREngine

    return PPREngine(_load_graph(path), alpha=ALPHA)


def setup_server(path: Path, scratch: Path):
    from repro.serving import EngineServer

    return EngineServer(_load_graph(path), alpha=ALPHA)


def setup_sharded(path: Path, scratch: Path):
    from repro.serving import ShardedDispatcher

    dispatcher = ShardedDispatcher(
        _load_graph(path), workers=SHARD_WORKERS, alpha=ALPHA
    )
    # Ready means every shard has attached the image and answers.
    dispatcher.stats(timeout=60.0)
    return dispatcher


def setup_mixed(path: Path, scratch: Path):
    from repro.graph.dynamic import DynamicGraph
    from repro.serving import EngineServer

    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=scratch)
    return EngineServer(
        DynamicGraph(_load_graph(path)), alpha=ALPHA, wal_dir=wal_dir
    )


def close(system: Any) -> None:
    if hasattr(system, "close"):
        system.close()


def timed_setups(setup: Callable, path: Path, scratch: Path, reps: int):
    """Set up ``reps`` times; return (last system, per-rep seconds)."""
    seconds, system = [], None
    for _ in range(reps):
        if system is not None:
            close(system)
            system = None
            gc.collect()  # the last rep's memory must not count as this one's
        start = time.perf_counter()
        system = setup(path, scratch)
        seconds.append(time.perf_counter() - start)
    return system, seconds


# -- load generation ------------------------------------------------------
def run_engine(
    run: Run, engine: Any, sources: np.ndarray, seconds: float, min_queries: int
) -> None:
    """One client calling ``PPREngine.query``: next query when the last returns.

    Runs for ``seconds``, and on past them until ``min_queries`` have
    been sent (while distinct sources last).
    """
    run.started = time.perf_counter()
    for source in sources:
        now = time.perf_counter()
        if now - run.started >= seconds and run.measured_queries >= min_queries:
            break
        request = run.add_query(int(source), now, now, warmup=False)
        try:
            answer = engine.query(request.source, "powerpush")
        except Exception as exc:  # counted, never fatal to the run
            request.error = f"failed: {exc!r}"
        request.done = time.perf_counter()
        if request.error is None:
            run.record(request, answer)


def run_schedule(
    run: Run,
    system: Any,
    schedule: inputs.Schedule,
    batches: list,
    traced: bool,
    *,
    closed_seconds: float | None = None,
    min_queries: int = 0,
) -> None:
    """Send a schedule's operations to a server from one thread.

    The leading ``schedule.warmup`` operations go one at a time and are
    not measured: the result cache then holds the hottest sources and no
    cold-start backlog spills into the measured window.  The cold
    ``schedule.burst`` sources follow all at once, also unmeasured, and
    are answered before the window opens.  The timed
    operations are then sent on their due times whatever the backlog
    (open loop) or, with ``closed_seconds``, each after the last one
    returned, for that many seconds and at least ``min_queries`` queries.
    """
    updates = iter(batches)
    for slot in range(schedule.warmup):
        request = _send(run, system, schedule, slot, updates, time.perf_counter(), False, True)
        _settle(run, request)
    burst = [_submit(run, system, int(s), time.perf_counter(), True) for s in schedule.burst]
    for request in burst:
        _settle(run, request)
    run.started = time.perf_counter() + (0.0 if closed_seconds else 0.05)
    for slot in range(schedule.warmup, len(schedule)):
        if closed_seconds is not None:
            now = time.perf_counter()
            if now - run.started >= closed_seconds and run.measured_queries >= min_queries:
                break
            _settle(run, _send(run, system, schedule, slot, updates, now, traced, False))
            continue
        due = run.started + float(schedule.due[slot - schedule.warmup])
        # Take in what has arrived while the generator would sleep anyway.
        for request in run.requests:
            if request.future is not None and request.future.done():
                _settle(run, request)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        run.lag_ms_max = max(run.lag_ms_max, (time.perf_counter() - due) * 1e3)
        _send(run, system, schedule, slot, updates, due, traced, False)
    run.backlog_end = sum(
        1 for r in run.requests if r.future is not None and not r.future.done()
    )
    wait([r.future for r in run.requests if r.future is not None], timeout=DRAIN_SECONDS)
    for request in run.requests:
        _settle(run, request, timeout=0.0)


def _settle(run: Run, request: Request, timeout: float = DRAIN_SECONDS) -> None:
    """Wait for a submitted query and record its answer or failure."""
    future, request.future = request.future, None
    if future is None:
        return
    try:
        answer = future.result(timeout=timeout)
    except TimeoutError:
        request.error = "failed: unanswered after the drain timeout"
        return
    except Exception as exc:  # counted, never fatal to the run
        request.error = f"failed: {exc!r}"
        return
    run.record(request, answer)


def _mark_done(request: Request) -> Callable:
    def done(future: Any) -> None:
        request.done = time.perf_counter()

    return done


def _send(
    run: Run,
    system: Any,
    schedule: inputs.Schedule,
    slot: int,
    updates: Any,
    due: float,
    traced: bool,
    warmup: bool,
) -> Request:
    """Submit one query, or apply one update batch, and record it.

    Traced, each update is followed by a ``PPREngine.graph`` call timed on
    its own: the snapshot rebuild the next query would otherwise pay.
    """
    sent = time.perf_counter()
    if schedule.is_update[slot]:
        edits = next(updates)
        request = Request(source=-1, due=due, sent=sent, warmup=warmup)
        run.requests.append(request)
        try:
            system.apply_updates(edits)
        except Exception as exc:  # counted, never fatal to the run
            request.error = f"failed: {exc!r}"
        request.done = time.perf_counter()
        run.updates.append(((request.done - sent) * 1e3, len(edits)))
        if traced:
            system.engine.graph  # the snapshot rebuild
            end = time.perf_counter()
            run.snapshot_ms.append((end - request.done) * 1e3)
            # The next query no longer pays the rebuild, so the update does.
            request.done = end
        return request
    return _submit(run, system, int(schedule.sources[slot]), due, warmup)


def _submit(run: Run, system: Any, source: int, due: float, warmup: bool) -> Request:
    """Submit one query to a server; its answer arrives on the future."""
    request = run.add_query(source, due, time.perf_counter(), warmup)
    try:
        request.future = system.submit(request.source)
    except Exception as exc:  # admission refused the request
        request.error = f"refused: {exc!r}"
        return request
    request.future.add_done_callback(_mark_done(request))
    return request


# -- measurement helpers ----------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live worker processes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            continue
    return kib / 1024.0


def directory_bytes(path: Path) -> int:
    return sum(
        (Path(root) / name).stat().st_size
        for root, _, names in os.walk(path)
        for name in names
    )


def check_references(run: Run, reference_for: Callable) -> None:
    """Compare the kept sample with the reference of its graph version."""
    for request in run.requests:
        if request.result is not None and request.error is None:
            reference = reference_for(request.answer.version)
            errors = reference_errors(reference, request.result, ALPHA, LAMBDA)
            if errors:
                request.error = "wrong: " + "; ".join(errors)
        request.result = None


def end_to_end(run: Run, setup_seconds: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass's measured window."""
    latencies = [r.latency_ms for r in run.ok()]
    elapsed = max(r.done for r in run.measured if r.done is not None) - run.started
    attempted = len(run.requests)
    failed = sum(1 for r in run.requests if r.error is not None)
    return {
        "setup_s": median(setup_seconds),
        "throughput_qps": len(latencies) / elapsed,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "goodput_1s_qps": sum(1 for x in latencies if x <= LATENCY_LIMIT_MS) / elapsed,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": run.rss_mb,
    }


def sweep_probe(graph: Any) -> dict[str, float]:
    """One ``global_sweep`` on the bench graph: median time and bytes.

    Bytes are computed from the array sizes: the ``P^T`` CSR arrays are
    read once, and the n-vectors make six passes (read ``r`` for the
    reserve update, read and write the reserve, write and read the
    scaled ``r``, write the result).
    """
    from repro.core.kernels import global_sweep
    from repro.core.residues import PushState

    state = PushState(graph, 0, ALPHA)
    times = []
    for _ in range(SWEEP_REPEATS):
        start = time.perf_counter()
        global_sweep(state)
        times.append((time.perf_counter() - start) * 1e3)
    indptr, indices, data = graph.pt_csr_arrays()
    vector = graph.num_nodes * 8
    return {
        "kernels.sweep_ms": median(times),
        "kernels.sweep_bytes_computed": float(
            indptr.nbytes + indices.nbytes + data.nbytes + 6 * vector
        ),
    }


YARDSTICK_KEYS = [
    f"solver.{label}_{unit}"
    for label in ("powerpush", "powitr", "fifo")
    for unit in ("ms", "updates")
] + ["solver.powerpush_over_powitr_ms", "solver.powerpush_over_powitr_updates"]


def yardsticks(engine: Any, sources: list[int]) -> dict[str, float]:
    """PowerPush vs PowItr vs FIFO-FwdPush on the same sources at lambda."""
    rows = {}
    for label, method, params in (
        ("powerpush", "powerpush", {}),
        ("powitr", "powitr", {}),
        ("fifo", "fifo-fwdpush", {"l1_threshold": LAMBDA}),
    ):
        walls, updates = [], []
        for source in sources:
            start = time.perf_counter()
            result = engine.query(source, method, **params)
            walls.append((time.perf_counter() - start) * 1e3)
            updates.append(float(result.counters.residue_updates))
        rows[f"solver.{label}_ms"] = median(walls)
        rows[f"solver.{label}_updates"] = median(updates)
    rows["solver.powerpush_over_powitr_ms"] = rows["solver.powerpush_ms"] / rows["solver.powitr_ms"]
    rows["solver.powerpush_over_powitr_updates"] = (
        rows["solver.powerpush_updates"] / rows["solver.powitr_updates"]
    )
    return rows


def per_layer(workload: Workload, run: Run) -> dict[str, float]:
    """Per-layer metrics of one traced pass's measured operations."""
    ok = run.ok()
    answers = [r.answer for r in ok]
    hits = [r for r in ok if r.answer.cache_hit]
    solved = [r for r in ok if not r.answer.cache_hit]
    serving = workload.loop != "engine"
    metrics: dict[str, float] = {}

    total_updates = sum(r.answer.updates for r in solved)
    metrics["kernels.ns_per_update"] = (
        sum(r.answer.seconds for r in solved) / total_updates * 1e9 if total_updates else 0.0
    )
    metrics["solver.updates_per_query"] = mean([float(r.answer.updates) for r in solved])
    metrics["solver.epochs_per_query"] = mean([float(r.answer.epochs) for r in solved])
    metrics["solver.block_ms_per_source"] = median([r.answer.seconds * 1e3 for r in solved])
    metrics["engine.overhead_ms"] = (
        0.0 if serving else median([r.latency_ms - r.answer.seconds * 1e3 for r in ok])
    )

    # Miss latency is timed from submit here (the generator's own lag is
    # reported apart), minus the wall of the dispatch that solved it.
    dispatch_ms = [r.answer.seconds * r.answer.block * 1e3 for r in solved]
    miss_wait = [(r.done - r.sent) * 1e3 - wall for r, wall in zip(solved, dispatch_ms)]
    dispatches = sum(1.0 / r.answer.batch_size for r in solved)
    entry_bytes = answers[0].nbytes if answers else 0
    metrics["cache.hit_rate"] = len(hits) / len(ok) if serving and ok else 0.0
    metrics["cache.hit_latency_us"] = median([(r.done - r.sent) * 1e6 for r in hits])
    metrics["cache.bytes_computed"] = float(run.cache_entries * entry_bytes)
    metrics["scheduler.queue_wait_ms"] = median(miss_wait) if serving else 0.0
    metrics["scheduler.batch_size"] = len(solved) / dispatches if serving and dispatches else 0.0
    metrics["scheduler.solve_ms"] = median(dispatch_ms) if serving else 0.0

    metrics.update({name: 0.0 for name in SHARDED_KEYS})

    update_calls = len(run.updates)
    edits = sum(count for _, count in run.updates)
    invalidated = run.stats.get("cache", {}).get("invalidations", 0)
    metrics["graph.snapshot_ms"] = median(run.snapshot_ms)
    metrics["update.p50_ms"] = median([ms for ms, _ in run.updates])
    metrics["wal.bytes_per_update"] = run.wal_bytes / edits if edits else 0.0
    metrics["update.invalidated_entries"] = invalidated / update_calls if update_calls else 0.0

    queries = [r for r in run.measured if r.source >= 0]
    refused = sum(1 for r in queries if (r.error or "").startswith("refused"))
    metrics["loadgen.sent"] = float(len(queries))
    metrics["loadgen.succeeded"] = float(len(ok))
    metrics["loadgen.failed"] = float(len(queries) - len(ok) - refused)
    metrics["loadgen.refused"] = float(refused)
    metrics["loadgen.lag_ms_max"] = run.lag_ms_max
    metrics["loadgen.backlog_end"] = float(run.backlog_end)
    return metrics


SHARDED_KEYS = [
    "sharded.latency_p50_ms", "sharded.latency_p90_ms", "sharded.overhead_ms",
    "sharded.reply_bytes_computed", "sharded.load_imbalance", "sharded.retries",
    "sharded.respawns",
]


def sharded_layer(run: Run) -> dict[str, float]:
    """The ``sharded.*`` metrics of a replay through ``ShardedDispatcher``."""
    ok = run.ok()
    latencies = [r.latency_ms for r in ok]
    solved = [r for r in ok if not r.answer.cache_hit]
    workers = [r.answer.worker for r in ok if r.answer.worker is not None]
    counts = [workers.count(w) for w in range(SHARD_WORKERS)]
    supervisor = run.stats.get("supervisor", {})
    return {
        "sharded.latency_p50_ms": percentile(latencies, 50),
        "sharded.latency_p90_ms": percentile(latencies, 90),
        # Miss latency from submit minus the wall of the shard's dispatch.
        "sharded.overhead_ms": median(
            [(r.done - r.sent) * 1e3 - r.answer.seconds * r.answer.block * 1e3 for r in solved]
        ),
        "sharded.reply_bytes_computed": float(ok[0].answer.nbytes) if ok else 0.0,
        "sharded.load_imbalance": max(counts) / mean(counts) if workers else 0.0,
        "sharded.retries": float(supervisor.get("retries", 0)),
        "sharded.respawns": float(supervisor.get("respawns", 0)),
    }


def not_measured(workload: Workload) -> dict[str, str]:
    """Per-layer metrics this workload reports as 0, and why."""
    notes = {}
    if workload.loop == "engine":
        for name in ("cache.hit_rate", "cache.hit_latency_us", "cache.bytes_computed",
                     "scheduler.queue_wait_ms", "scheduler.batch_size", "scheduler.solve_ms"):
            notes[name] = "the engine loop has no result cache and no scheduler"
    else:
        notes["engine.overhead_ms"] = (
            "the server calls the engine on its own threads; from outside only "
            "the served latency and result.seconds are visible"
        )
        for name in YARDSTICK_KEYS:
            notes[name] = "the yardstick rows are measured in the highprec-1m traced run"
    if workload.loop != "open":
        notes["loadgen.lag_ms_max"] = "closed loop: each operation is sent when the last returns"
        notes["loadgen.backlog_end"] = "closed loop: nothing is outstanding between operations"
    if not workload.sharded_replay:
        for name in SHARDED_KEYS:
            notes[name] = "measured in the serve-zipf-1m traced run (sharded replay)"
    if not workload.update_period:
        for name in ("graph.snapshot_ms", "update.p50_ms", "wal.bytes_per_update",
                     "update.invalidated_entries"):
            notes[name] = "no graph updates in this workload"
    return notes


def _overhead_pct(plain: Run, traced: Run) -> float:
    """Traced minus untraced total latency over the operations both finished."""
    pairs = [
        (a.latency_ms, b.latency_ms)
        for a, b in zip(plain.measured, traced.measured)
        if a.done is not None and b.done is not None
    ]
    base = sum(a for a, _ in pairs)
    return 100.0 * (sum(b for _, b in pairs) - base) / base if base else 0.0


def _graph_of(indptr: np.ndarray, indices: np.ndarray):
    from repro.graph.digraph import DiGraph

    return DiGraph(indptr, indices, name="bench-rmat")


def _cache_entries(stats: dict, system: Any) -> int:
    heartbeats = stats.get("heartbeats")
    if heartbeats is not None:
        return sum(int(h.get("cache_size") or 0) for h in heartbeats.values())
    return int(system.cache_size)


# -- the workloads ----------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    setup_reps: int
    loop: str  # "engine", "open" or "closed" (see the module docstring)
    update_period: int = 0
    sharded_replay: bool = False  # traced run replays through the shards


WORKLOADS = {
    w.name: w
    for w in (
        Workload("highprec-1m", setup_engine, 9, "engine"),
        Workload("serve-zipf-1m", setup_server, 9, "open", sharded_replay=True),
        Workload("serve-mixed-1m", setup_mixed, 3, "closed", UPDATE_PERIOD),
    )
}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    cache_dir: Path,
    *,
    scale: int = inputs.BENCH_SCALE,
    num_edges: int = inputs.BENCH_EDGES,
    perturb: Callable | None = None,
) -> dict[str, Any]:
    """Run one workload and return what the benchmark prints.

    Untraced, one pass measures the end-to-end metrics.  Traced, the same
    operations run twice on fresh set-ups, untraced then traced, for
    ``seconds / 2`` each: the traced pass gives the per-layer metrics and
    the difference between the two the tracing overhead.  ``perturb``
    (self-tests only) maps each arriving answer to the one that is
    checked, to prove the checks count a wrong answer.
    """
    workload = WORKLOADS[name]
    path = inputs.graph_file(cache_dir, seed, scale, num_edges)
    indptr, indices = inputs.load_csr(path)
    n = indptr.shape[0] - 1
    budget = seconds / 2 if traced else seconds
    sample = frozenset(
        int(i)
        for i in inputs.check_rng(seed).choice(REFERENCE_POOL, REFERENCE_SAMPLE, replace=False)
    )
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=cache_dir))
    try:
        def make_schedule(length: float) -> Any:
            if workload.loop == "engine":
                return inputs.distinct_sources(
                    seed, n, max(int(length * CLOSED_OPS_PER_SECOND), CLOSED_MIN_QUERIES) + 1
                )
            open_loop = workload.loop == "open"
            return inputs.zipf_schedule(
                seed,
                n,
                warmup=WARMUP_OPS if open_loop else 0,
                burst=BURST if open_loop else 0,
                timed=round(RATE * length)
                if open_loop
                else max(int(length * CLOSED_OPS_PER_SECOND), 2 * CLOSED_MIN_QUERIES),
                duration=length,
                hot_set=HOT_SET,
                exponent=ZIPF_EXPONENT,
                update_period=workload.update_period,
            )

        schedule = make_schedule(budget)
        batches = (
            inputs.update_batches(
                seed, _graph_of(indptr, indices), int(schedule.is_update.sum()), UPDATE_BATCH
            )
            if workload.update_period
            else []
        )
        flat_edits = [edit for batch in batches for edit in batch]
        references: dict[int, Reference] = {}

        def reference_for(version: int) -> Reference:
            if version not in references:
                references[version] = Reference.after_edits(
                    indptr, indices, flat_edits[:version]
                )
            return references[version]

        def one_pass(
            traced: bool,
            setup_reps: int,
            min_queries: int,
            setup: Callable = workload.setup,
            schedule: Any = schedule,
            budget: float = budget,
        ) -> tuple[Run, list]:
            run = Run(n=n, sample=sample, perturb=perturb)
            system, setup_seconds = timed_setups(setup, path, scratch, setup_reps)
            try:
                if workload.loop == "engine":
                    system.query(int(schedule[-1]), "powerpush")  # untimed warm-up
                    run_engine(run, system, schedule[:-1], budget, min_queries)
                else:
                    wal_before = directory_bytes(scratch)
                    run_schedule(
                        run,
                        system,
                        schedule,
                        batches,
                        traced,
                        closed_seconds=None if workload.loop == "open" else budget,
                        min_queries=min_queries,
                    )
                    run.stats = system.stats()
                    run.wal_bytes = directory_bytes(scratch) - wal_before
                    run.cache_entries = _cache_entries(run.stats, system)
                run.rss_mb = peak_rss_mb()
                if traced and workload.loop == "engine":
                    run.yardsticks = yardsticks(
                        system, [int(s) for s in schedule[:YARDSTICK_SOURCES]]
                    )
            finally:
                close(system)
            check_references(run, reference_for)
            return run, setup_seconds

        if traced:
            plain, _ = one_pass(False, 1, 0)
            run, _ = one_pass(True, 1, 0)
            metrics = per_layer(workload, run)
            metrics.update(sweep_probe(_graph_of(indptr, indices)))
            metrics.update(run.yardsticks or {key: 0.0 for key in YARDSTICK_KEYS})
            metrics["trace.overhead_pct"] = _overhead_pct(plain, run)
            requests = plain.requests + run.requests
            if workload.sharded_replay:
                replay, _ = one_pass(
                    False, 1, 0, setup_sharded, make_schedule(seconds), seconds
                )
                metrics.update(sharded_layer(replay))
                requests += replay.requests
        else:
            run, setup_seconds = one_pass(False, workload.setup_reps, CLOSED_MIN_QUERIES)
            metrics = end_to_end(run, setup_seconds)
            requests = run.requests
        return {
            "attempted": len(requests),
            "failed": sum(1 for r in requests if r.error),
            "wrong": sum(1 for r in requests if (r.error or "").startswith("wrong")),
            "errors": sorted({r.error for r in requests if r.error}),
            "metrics": metrics,
            "notes": not_measured(workload) if traced else {},
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
