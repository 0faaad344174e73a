"""Multi-process sharded serving over one shared-memory graph image.

The thread-based :class:`~repro.serving.server.EngineServer` coalesces
and caches well, but every solve outside the compiled-kernel regions
still contends on the GIL, so an 8-thread server gets one core's worth
of numpy.  This module is the process-parallel tier the AccPPR harness
(PAPERS.md; SNIPPETS.md §3) motivates — a ``multiprocessing`` pool
driving per-source solves over one pre-built CSR — with the serving
semantics of PR 3 kept intact *per worker*:

* the graph's hot arrays live once in a
  :class:`~repro.serving.shm.SharedGraphImage`; every worker process
  maps the same physical pages zero-copy and runs a full
  :class:`EngineServer` (micro-batch scheduler + version-stamped
  :class:`~repro.serving.cache.ResultCache`) over them;
* the :class:`ShardedDispatcher` in the parent routes each request by
  **consistent hashing on the source id**, so repeat queries for a hot
  source always land on the same worker — its cache keeps hitting and
  its micro-batches stay coherent — and removing a crashed worker
  re-routes only that worker's arc of the ring;
* ``apply_updates`` broadcasts as a **versioned barrier** under the
  dispatcher's writer lock: every worker applies the same batch to its
  copy-on-write :class:`~repro.graph.dynamic.DynamicGraph` overlay
  (the shared base stays immutable) and acks with its new version;
  the dispatcher verifies the versions agree before letting reads
  resume, so no request is ever answered from a pre-update vector.

Because every seeded answer is a pure function of ``(seed, source)``
(:func:`repro.api.engine.per_source_rng`), *where* a request runs
cannot change *what* it answers: process-mode responses are
byte-identical to the single-process path, which is exactly how the
tests check this module.

Request/response framing is plain picklable tuples over per-worker
``multiprocessing`` queues; per-worker FIFO ordering is what makes the
update barrier correct (queries enqueued before the barrier are
answered at the old version, the barrier message follows them, and new
queries wait on the writer lock).

Self-healing (PR 9): the dispatcher runs a supervisor thread that
notices worker death (``process.is_alive()``, surfaced promptly by the
timed collector waits), respawns the shard over the *same* shared
image after a jittered exponential backoff
(:class:`~repro.serving.supervisor.RestartPolicy`), replays the
dispatcher's update journal so the fresh worker reaches the current
graph version, and only then restores its arc on the ring.  A restart
budget turns a crash-looping shard into a permanent removal with a
``degraded_capacity`` stats flag instead of an outage.  Reads get a
deadline-aware bounded retry (:class:`RetryPolicy`) and per-shard
circuit breakers (:class:`CircuitBreaker`) — all safe because answers
are pure functions of ``(seed, source)``, so a retried or rerouted
request cannot change bytes.  A seeded
:class:`~repro.serving.faults.FaultInjector` threads deterministic
fault schedules through ``submit`` (process signals) and the worker
loop (reply drops/delays, mid-barrier crashes) so chaos runs replay
exactly.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import queue
import signal
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from types import FrameType
from typing import Any, Iterable, Mapping

from repro.api.engine import PPREngine
from repro.errors import (
    DeadlineExceeded,
    NodeNotFoundError,
    ParameterError,
    WorkerUnavailableError,
)
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph
from repro.serving.cache import resolve_request
from repro.serving.faults import FaultInjector, FaultSpec, WorkerFaultPlan
from repro.serving.locks import RWLock
from repro.serving.scheduler import ServedResult
from repro.serving.server import EngineServer
from repro.serving.shm import SharedGraphHandle, SharedGraphImage
from repro.serving.supervisor import CircuitBreaker, RestartPolicy, RetryPolicy

__all__ = ["ShardedDispatcher", "WorkerConfig"]

#: Collector/barrier poll quantum (seconds): every blocking wait in the
#: dispatcher is a timed wait at this granularity so worker death is
#: noticed promptly and no future can hang forever.
_POLL = 0.05

#: Default per-worker vnode count on the hash ring.  Enough that each
#: worker's share of sources stays within a few percent of uniform and
#: a removed worker's arc scatters evenly over the survivors.
_DEFAULT_VNODES = 48


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable per-worker :class:`EngineServer` construction recipe."""

    alpha: float = 0.2
    seed: int = 0
    dead_end_policy: str = "redirect-to-source"
    dynamic: bool = False
    cache_capacity: int = 4096
    cache_ttl: float | None = None
    window: float = 0.002
    max_batch: int = 64
    #: Worker-side fault schedule (chaos runs only; empty in production).
    faults: tuple[FaultSpec, ...] = ()
    #: Version the worker's DynamicGraph overlay starts at.  Nonzero
    #: after cold-restart recovery: the shared base is the recovered
    #: snapshot and version numbering continues from the durable state.
    initial_version: int = 0


def _raise_exit(signum: int, frame: FrameType | None) -> None:
    """SIGTERM -> SystemExit so worker ``finally`` blocks run."""
    raise SystemExit(0)


def _worker_main(
    worker_id: int,
    handle: SharedGraphHandle,
    config: WorkerConfig,
    requests: Any,
    responses: Any,
) -> None:
    """One shard: attach the shared image, serve until told to stop.

    Runs in a child process (module-level so the spawn start method can
    pickle it).  Messages in, messages out:

    * ``("query", req_id, source, method, params, fresh, deadline)`` ->
      ``("result", req_id, ServedResult)`` or
      ``("error", req_id, exc)`` — ``deadline`` is a
      ``time.monotonic()`` timestamp, meaningful across the process
      boundary because ``CLOCK_MONOTONIC`` is system-wide
    * ``("update", barrier_id, updates)`` ->
      ``("updated", barrier_id, version)`` or
      ``("update-error", barrier_id, exc)``
    * ``("stats", req_id)`` -> ``("stats", req_id, dict)``
    * ``("stop",)`` -> clean exit.

    The worker also emits unsolicited
    ``("heartbeat", graph_version, cache_size, monotonic_ts)``
    messages — once at startup and once per idle second — which the
    dispatcher uses for health visibility and for asserting that a
    respawned worker starts at the journal-replayed graph version with
    an empty result cache (stale memoised answers must not survive a
    respawn).

    The request queue is drained in bursts: everything immediately
    available is submitted to the local server *before* blocking on
    results, so the per-worker micro-batch window sees real company
    and coalesced windows still become one multi-source block solve.
    A worker never owns the shared segment — teardown only closes its
    own mapping, so a SIGKILLed worker cannot leak ``/dev/shm``
    entries (satisfying the ``shm-discipline`` contract from the
    child side).
    """
    signal.signal(signal.SIGTERM, _raise_exit)
    image = SharedGraphImage.attach(handle)
    try:
        engine = PPREngine.from_shared_graph(
            image,
            dynamic=config.dynamic,
            initial_version=config.initial_version,
            alpha=config.alpha,
            seed=config.seed,
            dead_end_policy=config.dead_end_policy,
        )
        server = EngineServer(
            engine,
            cache_capacity=config.cache_capacity,
            cache_ttl=config.cache_ttl,
            window=config.window,
            max_batch=config.max_batch,
        )
        with server:
            _serve_messages(
                worker_id,
                server,
                requests,
                responses,
                config.max_batch,
                WorkerFaultPlan(config.faults),
            )
    finally:
        image.close()


#: Seconds between unsolicited worker heartbeats, busy or idle.
_HEARTBEAT_INTERVAL = 1.0


def _heartbeat(server: EngineServer, responses: Any) -> None:
    """Emit one unsolicited health/version/cache report."""
    responses.put(
        (
            "heartbeat",
            server.graph_version,
            server.cache_size,
            time.monotonic(),
        )
    )


def _serve_messages(
    worker_id: int,
    server: EngineServer,
    requests: Any,
    responses: Any,
    max_burst: int,
    plan: WorkerFaultPlan,
) -> None:
    """The worker's receive loop; returns on ``("stop",)`` / orphaning."""
    _heartbeat(server, responses)
    last_beat = time.monotonic()
    while True:
        try:
            message = requests.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() == 1:
                # Re-parented to init: the dispatcher died without a
                # stop message; exit rather than serve nobody.
                return
            _heartbeat(server, responses)
            last_beat = time.monotonic()
            continue
        burst = [message]
        while len(burst) < max_burst:
            try:
                burst.append(requests.get_nowait())
            except queue.Empty:
                break
        pending: list[tuple[int, Future]] = []
        for message in burst:
            kind = message[0]
            if kind == "query":
                _, req_id, source, method, params, fresh, deadline = message
                try:
                    future = server.submit(
                        source,
                        method,
                        fresh=fresh,
                        deadline=deadline,
                        **params,
                    )
                except Exception as exc:  # noqa: BLE001 - forwarded
                    _put_reply(responses, plan, ("error", req_id, exc))
                    continue
                pending.append((req_id, future))
                continue
            # Control messages order against queries: everything
            # submitted before them must resolve first.
            _flush(worker_id, pending, responses, plan)
            pending = []
            if kind == "stop":
                return
            if kind == "update":
                _, barrier_id, updates = message
                try:
                    version = server.apply_updates(updates)
                except Exception as exc:  # noqa: BLE001 - forwarded
                    responses.put(("update-error", barrier_id, exc))
                else:
                    if plan and plan.on_update_applied():
                        # Scheduled chaos: die *after* applying the
                        # batch, *before* acking — the worst spot for
                        # the barrier.  ``os._exit`` skips ``finally``
                        # blocks, like a real SIGKILL would.
                        os._exit(17)
                    responses.put(("updated", barrier_id, version))
            elif kind == "stats":
                responses.put(("stats", message[1], server.stats()))
        _flush(worker_id, pending, responses, plan)
        # Time-based, not idle-based: a worker saturated with traffic
        # (or a parent polling stats) must still report its version
        # and cache freshness.
        now = time.monotonic()
        if now - last_beat >= _HEARTBEAT_INTERVAL:
            _heartbeat(server, responses)
            last_beat = now


def _put_reply(
    responses: Any, plan: WorkerFaultPlan, message: tuple
) -> None:
    """Send one query reply, honouring the worker's fault plan."""
    if plan:
        action = plan.on_reply()
        if action is not None:
            kind, seconds = action
            if kind == "drop":
                return
            time.sleep(seconds)
    responses.put(message)


def _flush(
    worker_id: int,
    pending: list[tuple[int, Future]],
    responses: Any,
    plan: WorkerFaultPlan,
) -> None:
    """Resolve a burst of submitted futures back to the dispatcher."""
    for req_id, future in pending:
        try:
            served: ServedResult = future.result()
        except Exception as exc:  # noqa: BLE001 - forwarded
            _put_reply(responses, plan, ("error", req_id, exc))
        else:
            _put_reply(
                responses,
                plan,
                ("result", req_id, replace(served, worker=worker_id)),
            )


def _ring_point(token: str) -> int:
    """Stable 64-bit position on the hash ring for ``token``."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class _HashRing:
    """Consistent hashing of source ids onto worker ids.

    Each worker contributes ``vnodes`` points; a source routes to the
    first point clockwise from its own hash.  Removing a worker moves
    only the sources on its arcs — every other source keeps its worker
    (and therefore its warm cache).
    """

    def __init__(self, vnodes: int) -> None:
        self._vnodes = vnodes
        self._points: list[int] = []
        self._owners: dict[int, int] = {}

    def add(self, worker_id: int) -> None:
        for v in range(self._vnodes):
            point = _ring_point(f"{worker_id}:{v}")
            # blake2b collisions across our tiny point sets are
            # vanishingly unlikely; first owner keeps the point.
            if point in self._owners:
                continue
            bisect.insort(self._points, point)
            self._owners[point] = worker_id

    def remove(self, worker_id: int) -> None:
        dropped = [
            point
            for point, owner in self._owners.items()
            if owner == worker_id
        ]
        for point in dropped:
            del self._owners[point]
            index = bisect.bisect_left(self._points, point)
            del self._points[index]

    def route(self, source: int) -> int:
        if not self._points:
            raise RuntimeError("no live workers")
        position = _ring_point(f"s:{source}")
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]

    def route_order(self, source: int) -> list[int]:
        """All owners in clockwise preference order from ``source``.

        The first entry is :meth:`route`'s answer; the rest are the
        fallback order a breaker-aware router walks when the primary
        shard's circuit is open.  Deduplicated, so the list length is
        the live worker count.
        """
        if not self._points:
            raise RuntimeError("no live workers")
        position = _ring_point(f"s:{source}")
        start = bisect.bisect_right(self._points, position)
        order: list[int] = []
        seen: set[int] = set()
        count = len(self._points)
        for step in range(count):
            owner = self._owners[self._points[(start + step) % count]]
            if owner not in seen:
                seen.add(owner)
                order.append(owner)
        return order

    def __len__(self) -> int:
        return len(set(self._owners.values()))


@dataclass
class _PendingRequest:
    """What the dispatcher must remember to reroute or fail a request."""

    future: Future
    source: int
    method: str
    params: dict[str, Any]
    fresh: bool
    deadline: float | None = None
    #: Re-submissions so far (reroutes + timeout retries); bounded by
    #: the dispatcher's :class:`RetryPolicy`.
    attempts: int = 0
    #: ``time.monotonic()`` of the latest enqueue, for timeout scans.
    enqueued_at: float = 0.0


@dataclass
class _WorkerState:
    """Parent-side bookkeeping for one shard."""

    worker_id: int
    process: Any
    requests: Any
    responses: Any
    collector: threading.Thread | None = None
    pending: dict[int, _PendingRequest] = field(default_factory=dict)
    alive: bool = True
    #: Incarnation counter: bumps on every respawn of this worker id.
    generation: int = 0
    #: Respawns consumed from the restart budget (spawn failures count).
    restarts: int = 0
    #: Budget exhausted — permanently removed, never respawned again.
    removed: bool = False
    #: ``time.monotonic()`` when the collector declared this shard dead.
    died_at: float = 0.0
    #: Latest unsolicited heartbeat: (monotonic ts, version, cache size).
    last_heartbeat: float = 0.0
    reported_version: int = -1
    reported_cache_size: int = -1
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)


@dataclass
class _Barrier:
    """One in-flight ``apply_updates`` broadcast."""

    expected: set[int]
    versions: dict[int, int] = field(default_factory=dict)
    errors: list[BaseException] = field(default_factory=list)
    #: Workers whose outcome is an error (keyed, so a worker that acks
    #: and then dies cannot stand in for one that never answered).
    failed: set[int] = field(default_factory=set)
    done: threading.Event = field(default_factory=threading.Event)

    def settle_if_complete(self) -> None:
        """Settle once every *still-expected* worker has an outcome.

        Set-based on purpose: a worker that dies mid-barrier is
        discarded from ``expected`` and the barrier settles on the
        survivors' version agreement.  The old count-based check
        (``len(versions) + len(errors) >= len(expected)``) could
        settle early when an acked worker later died — its stale ack
        counted against a shrunken ``expected`` that still contained a
        worker with no outcome at all.
        """
        if self.expected <= (set(self.versions) | self.failed):
            self.done.set()


class ShardedDispatcher:
    """Route queries to N worker processes sharing one graph image.

    Parameters
    ----------
    graph_or_image:
        A :class:`DiGraph` / :class:`DynamicGraph` to export into
        shared memory (the dispatcher owns the segment and unlinks it
        on close), or an already-exported
        :class:`~repro.serving.shm.SharedGraphImage` whose lifecycle
        the caller keeps.  A :class:`DynamicGraph` is snapshotted —
        its current logical graph becomes the shared base — and
        implies ``dynamic=True``.
    workers:
        Number of shard processes (>= 1).
    dynamic:
        Whether workers wrap the shared base in a per-process
        :class:`DynamicGraph` overlay so :meth:`apply_updates` works.
        Default: inferred from the graph argument.
    alpha, seed, dead_end_policy:
        Per-worker engine construction (identical in every shard —
        answers must not depend on placement).
    cache_capacity, cache_ttl, window, max_batch:
        Per-worker :class:`EngineServer` knobs.
    start_method:
        ``multiprocessing`` start method; default ``"fork"`` where
        available (inherits the warmed import state), else the
        platform default.  Workers attach the image by handle either
        way, so spawn works identically, just slower to start.
    vnodes:
        Hash-ring points per worker.
    update_timeout:
        Seconds to wait for every worker's barrier ack in
        :meth:`apply_updates` before declaring the cluster wedged.
    restart_policy:
        :class:`~repro.serving.supervisor.RestartPolicy` for crashed
        shards (default: jittered exponential backoff, budget of 3
        respawns per worker).  ``max_restarts`` is a shorthand that
        overrides just the budget; ``max_restarts=0`` disables
        respawning (a dead worker is removed permanently, the
        pre-supervision behaviour).
    retry_policy:
        :class:`~repro.serving.supervisor.RetryPolicy` bounding read
        re-submissions (reroutes off dead shards, timeout retries).
        Retried answers are byte-identical by construction.
    request_timeout:
        Seconds a routed request may sit unanswered before the
        supervisor counts a shard failure and retries it elsewhere.
        ``None`` (default) disables the scan — death detection alone
        reroutes; set it for chaos runs where replies can be dropped.
    breaker_threshold, breaker_reset:
        Per-shard circuit breaker: consecutive failures to trip open,
        and seconds before the half-open probe.
    fault_injector:
        Deterministic chaos schedule
        (:class:`~repro.serving.faults.FaultInjector`); ``None`` in
        production.
    wal_dir, wal_fsync, checkpoint_every:
        ``wal_dir`` makes the cluster durable: the parent keeps a
        mirror :class:`DynamicGraph` of the barriered update stream,
        logs every agreed batch to a write-ahead log (fsynced before
        the version ack unless ``wal_fsync=False``, checkpointed
        every ``checkpoint_every`` updates), and a restart on the
        same directory recovers the pre-crash graph — the recovered
        snapshot becomes the shared base and every worker's version
        counter continues from the recovered version.
        ``graph_or_image`` then only seeds a virgin directory (a
        pre-exported :class:`SharedGraphImage` cannot be combined
        with ``wal_dir``: recovery must be free to export a different
        base).  See :mod:`repro.durability`.

    The dispatcher mirrors :class:`EngineServer`'s surface —
    ``submit``/``query``/``batch``/``apply_updates``/``stats``/
    ``close`` and the context manager — so the loadtest harness and
    the CLI switch between thread mode and process mode with one flag.
    """

    def __init__(
        self,
        graph_or_image: DiGraph | DynamicGraph | SharedGraphImage,
        *,
        workers: int = 2,
        dynamic: bool | None = None,
        alpha: float = 0.2,
        seed: int = 0,
        dead_end_policy: str = "redirect-to-source",
        cache_capacity: int = 4096,
        cache_ttl: float | None = None,
        window: float = 0.002,
        max_batch: int = 64,
        start_method: str | None = None,
        vnodes: int = _DEFAULT_VNODES,
        update_timeout: float = 30.0,
        restart_policy: RestartPolicy | None = None,
        max_restarts: int | None = None,
        retry_policy: RetryPolicy | None = None,
        request_timeout: float | None = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 1.0,
        fault_injector: FaultInjector | None = None,
        wal_dir: str | Path | None = None,
        wal_fsync: bool = True,
        checkpoint_every: int | None = None,
    ) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if vnodes < 1:
            raise ParameterError(f"vnodes must be >= 1, got {vnodes}")
        self._durability = None
        self._mirror: DynamicGraph | None = None
        initial_version = 0
        if wal_dir is not None:
            if isinstance(graph_or_image, SharedGraphImage):
                raise ParameterError(
                    "wal_dir cannot be combined with a pre-exported "
                    "SharedGraphImage: recovery must be free to export "
                    "the recovered snapshot as the shared base"
                )
            if dynamic is False:
                raise ParameterError(
                    "wal_dir implies dynamic=True (a static cluster has "
                    "no update stream to make durable)"
                )
            from repro.durability.manager import open_durable_graph

            seed_graph = None
            if isinstance(graph_or_image, (DiGraph, DynamicGraph)):
                # The mirror starts at version 0 over the *snapshot*,
                # matching the version numbering workers boot with.
                base_snap = (
                    graph_or_image.snapshot()
                    if isinstance(graph_or_image, DynamicGraph)
                    else graph_or_image
                )
                seed_graph = DynamicGraph(base_snap)
            self._durability, self._mirror = open_durable_graph(
                wal_dir,
                seed_graph,
                fsync=wal_fsync,
                checkpoint_every=checkpoint_every,
            )
            initial_version = self._mirror.version
            dynamic = True
            graph_or_image = self._mirror.snapshot()
        if isinstance(graph_or_image, SharedGraphImage):
            self._image = graph_or_image
            self._own_image = False
            if dynamic is None:
                dynamic = False
        elif isinstance(graph_or_image, (DiGraph, DynamicGraph)):
            base = (
                graph_or_image.snapshot()
                if isinstance(graph_or_image, DynamicGraph)
                else graph_or_image
            )
            if dynamic is None:
                dynamic = isinstance(graph_or_image, DynamicGraph)
            self._image = SharedGraphImage.export_graph(base)
            self._own_image = True
        else:
            raise ParameterError(
                "ShardedDispatcher needs a DiGraph, DynamicGraph, or "
                f"SharedGraphImage; got {type(graph_or_image).__name__}"
            )
        self._config = WorkerConfig(
            alpha=alpha,
            seed=seed,
            dead_end_policy=dead_end_policy,
            dynamic=bool(dynamic),
            cache_capacity=cache_capacity,
            cache_ttl=cache_ttl,
            window=window,
            max_batch=max_batch,
            initial_version=initial_version,
        )
        self._update_timeout = float(update_timeout)
        if restart_policy is None:
            restart_policy = RestartPolicy(seed=seed)
        if max_restarts is not None:
            if max_restarts < 0:
                raise ParameterError(
                    f"max_restarts must be >= 0, got {max_restarts}"
                )
            restart_policy = replace(
                restart_policy, max_restarts=max_restarts
            )
        self._restart_policy = restart_policy
        self._retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy(seed=seed)
        )
        self._request_timeout = (
            float(request_timeout) if request_timeout is not None else None
        )
        if breaker_threshold < 1:
            raise ParameterError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self._breaker_threshold = breaker_threshold
        self._breaker_reset = float(breaker_reset)
        self._faults = fault_injector
        self._rwlock = RWLock()
        #: guards ring/worker-state/counter mutations (never held while
        #: blocking; collector threads take it too)
        self._mutex = threading.Lock()
        self._ring = _HashRing(vnodes)
        self._states: dict[int, _WorkerState] = {}
        self._workers = workers
        self._next_id = 0
        self._closed = False
        self._stopping = False
        self._version = initial_version
        self._submitted = 0
        self._rerouted = 0
        self._worker_failures = 0
        self._barriers: dict[int, _Barrier] = {}
        #: every successfully barriered update since boot, in order —
        #: the journal a respawned worker replays to reach the current
        #: version (``initial_version + len(self._update_log) ==
        #: self._version`` at all times; the offset is nonzero after
        #: durable recovery)
        self._update_log: list[tuple[str, int, int]] = []
        #: worker_id -> monotonic time its next respawn attempt is due
        self._respawn_due: dict[int, float] = {}
        #: worker_ids with a respawn currently in flight (spawned
        #: process not yet registered in ``_states``; close() tears
        #: these down if it races a respawn)
        self._respawning: dict[int, _WorkerState] = {}
        #: (due monotonic time, request) backoff queue for read retries
        self._retry_due: list[tuple[float, _PendingRequest]] = []
        self._respawns = 0
        self._permanent_failures = 0
        self._retries = 0
        self._request_timeouts = 0
        self._breaker_skips = 0
        self._recovery_last = 0.0
        self._recovery_max = 0.0
        self._supervisor_wake = threading.Event()
        self._supervisor: threading.Thread | None = None
        if start_method is None and "fork" in get_all_start_methods():
            start_method = "fork"
        self._context = get_context(start_method)
        try:
            for worker_id in range(workers):
                state = self._spawn_state(worker_id)
                self._states[worker_id] = state
                self._ring.add(worker_id)
            for state in self._states.values():
                self._start_collector(state)
            supervisor = threading.Thread(
                target=self._supervise,
                name="repro-shard-supervisor",
                daemon=True,
            )
            self._supervisor = supervisor
            supervisor.start()
        except BaseException:
            self.close()
            raise

    def _spawn_state(
        self, worker_id: int, *, generation: int = 0, restarts: int = 0
    ) -> _WorkerState:
        """Fork one shard process and its parent-side bookkeeping."""
        config = self._config
        if self._faults is not None and generation == 0:
            # Worker-side faults arm the first incarnation only: the
            # trigger ordinals are worker-local and would re-fire on
            # the respawn's journal replay (a crash_update would
            # otherwise crash-loop every respawn straight through the
            # restart budget).
            worker_faults = self._faults.worker_plan(worker_id)
            if worker_faults:
                config = replace(config, faults=worker_faults)
        req_q = self._context.Queue()
        resp_q = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, self._image.handle, config, req_q, resp_q),
            name=f"repro-shard-{worker_id}.{generation}",
            daemon=True,
        )
        process.start()
        return _WorkerState(
            worker_id=worker_id,
            process=process,
            requests=req_q,
            responses=resp_q,
            generation=generation,
            restarts=restarts,
            breaker=CircuitBreaker(
                failure_threshold=self._breaker_threshold,
                reset_timeout=self._breaker_reset,
            ),
        )

    def _start_collector(self, state: _WorkerState) -> None:
        thread = threading.Thread(
            target=self._collect,
            args=(state,),
            name=(
                f"repro-shard-collector-{state.worker_id}"
                f".{state.generation}"
            ),
            daemon=True,
        )
        state.collector = thread
        thread.start()

    # -- properties ------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Live worker count (shrinks when shards crash)."""
        with self._mutex:
            return sum(1 for s in self._states.values() if s.alive)

    @property
    def configured_workers(self) -> int:
        """Worker count the dispatcher was built with (the target the
        supervisor restores toward after crashes)."""
        return self._workers

    @property
    def graph_version(self) -> int:
        """Version confirmed by the last update barrier (0 initially)."""
        with self._mutex:
            return self._version

    @property
    def closed(self) -> bool:
        with self._mutex:
            return self._closed

    @property
    def image(self) -> SharedGraphImage:
        """The shared graph image the shards serve from."""
        return self._image

    @property
    def dynamic(self) -> bool:
        """Whether the shards accept :meth:`apply_updates`."""
        return self._config.dynamic

    @property
    def durability(self) -> Any | None:
        """The parent-side DurabilityManager, or None when volatile."""
        return self._durability

    @property
    def recovered_version(self) -> int:
        """Graph version the cluster booted at (0 unless durable
        state was recovered from ``wal_dir``)."""
        return self._config.initial_version

    def route(self, source: int) -> int:
        """The worker id ``source`` currently routes to (for tests)."""
        with self._mutex:
            return self._ring.route(int(source))

    # -- read path -------------------------------------------------------
    def submit(
        self,
        source: int,
        method: str = "powerpush",
        *,
        fresh: bool = False,
        deadline: float | None = None,
        **params: Any,
    ) -> Future:
        """Enqueue one query on its shard; future of :class:`ServedResult`.

        Validates the method and parameter schema here, so typos raise
        at the call site, not inside a worker.  Parameters must be
        picklable scalars — live objects (``rng``, trace sinks,
        pre-built indexes) cannot cross the process boundary and are
        rejected up front.  ``deadline`` (a ``time.monotonic()``
        timestamp) rides along to the shard, whose local scheduler
        fails expired requests fast instead of solving them.
        """
        source = int(source)
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(
                f"deadline passed before submit of source {source}"
            )
        canonical, merged, key = resolve_request(source, method, params)
        if key is None and params:
            raise ParameterError(
                "sharded serving requires scalar parameters; live "
                "objects (rng, trace, indexes) cannot cross the "
                "process boundary"
            )
        num_nodes = self._image.handle.num_nodes
        if not 0 <= source < num_nodes:
            raise NodeNotFoundError(
                f"source {source} is outside [0, {num_nodes})"
            )
        with self._rwlock.read():
            with self._mutex:
                if self._closed:
                    raise RuntimeError("dispatcher is closed")
                state = self._route_healthy(source)
                req_id = self._next_id
                self._next_id += 1
                self._submitted += 1
                submit_count = self._submitted
                pending = _PendingRequest(
                    future=Future(),
                    source=source,
                    method=canonical,
                    params=dict(params),
                    fresh=fresh,
                    deadline=deadline,
                    enqueued_at=time.monotonic(),
                )
                state.pending[req_id] = pending
            # Enqueued under the read lock: a writer that acquires
            # after us sees this request ahead of its barrier message
            # in the worker's FIFO, so it is answered pre-update.
            state.requests.put(
                (
                    "query",
                    req_id,
                    source,
                    canonical,
                    dict(params),
                    fresh,
                    deadline,
                )
            )
        if self._faults is not None:
            self._inject_parent_faults(submit_count)
        return pending.future

    def _route_healthy(self, source: int) -> _WorkerState:
        """Route by ring order, skipping shards whose breaker is open.

        Called under ``_mutex``.  The primary owner (what
        :meth:`route` reports) wins whenever its breaker admits
        traffic — including the single half-open probe after a
        cooldown; otherwise the walk continues clockwise.  With every
        breaker open the primary gets the request anyway: failing it
        here would turn a slow cluster into a hard outage.
        """
        order = self._ring.route_order(source)
        now = time.monotonic()
        for position, worker_id in enumerate(order):
            state = self._states[worker_id]
            if state.breaker.allows(now):
                if position:
                    self._breaker_skips += 1
                return state
        return self._states[order[0]]

    def _inject_parent_faults(self, submit_count: int) -> None:
        """Fire any process-level scheduled faults due at this submit."""
        assert self._faults is not None
        for spec in self._faults.parent_faults_at(submit_count):
            with self._mutex:
                state = self._states.get(spec.worker)
                pid = (
                    state.process.pid
                    if state is not None and state.alive
                    else None
                )
            if pid is None:
                continue
            signum = {
                "kill": signal.SIGKILL,
                "stop": signal.SIGSTOP,
                "cont": signal.SIGCONT,
            }[spec.kind]
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def query(
        self,
        source: int,
        method: str = "powerpush",
        *,
        fresh: bool = False,
        timeout: float | None = None,
        **params: Any,
    ) -> ServedResult:
        """Blocking convenience: ``submit(...).result(timeout)``."""
        return self.submit(source, method, fresh=fresh, **params).result(
            timeout
        )

    def batch(
        self,
        sources: Iterable[int],
        method: str = "powerpush",
        **params: Any,
    ) -> list[ServedResult]:
        """Submit many queries and wait for all, in source order."""
        futures = [self.submit(s, method, **params) for s in sources]
        return [f.result() for f in futures]

    # -- write path ------------------------------------------------------
    def apply_updates(self, updates: Iterable[tuple[str, int, int]]) -> int:
        """Broadcast edge updates to every shard as a versioned barrier.

        Takes the exclusive side of the dispatcher lock (new submits
        queue behind it; per-worker FIFOs order the barrier after all
        in-flight requests), sends the same batch to every live
        worker, and waits — in timed slices, so a crashing worker is
        noticed, not hung on — until each survivor acks with its new
        graph version.  The versions must agree (every worker applied
        the same update stream to the same base); the agreed version
        is returned and all post-barrier answers carry it.
        """
        if not self._config.dynamic:
            raise ParameterError(
                "this dispatcher serves a static graph; construct it "
                "with dynamic=True (or from a DynamicGraph) to accept "
                "updates"
            )
        batch = [
            (str(op), int(u), int(v)) for op, u, v in updates
        ]
        with self._rwlock.write():
            with self._mutex:
                if self._closed:
                    raise RuntimeError("dispatcher is closed")
                live = [s for s in self._states.values() if s.alive]
                if not live:
                    raise RuntimeError(
                        "no live workers to broadcast updates to"
                    )
                barrier_id = self._next_id
                self._next_id += 1
                barrier = _Barrier(
                    expected={s.worker_id for s in live}
                )
                self._barriers[barrier_id] = barrier
            for state in live:
                state.requests.put(("update", barrier_id, batch))
            deadline = time.monotonic() + self._update_timeout
            try:
                while not barrier.done.wait(_POLL):
                    if time.monotonic() > deadline:
                        raise TimeoutError(
                            f"update barrier {barrier_id} timed out "
                            f"after {self._update_timeout:.0f}s; acks "
                            f"from {sorted(barrier.versions)} of "
                            f"{sorted(barrier.expected)}"
                        )
            finally:
                with self._mutex:
                    self._barriers.pop(barrier_id, None)
            if barrier.errors:
                raise barrier.errors[0]
            versions = set(barrier.versions.values())
            if len(versions) > 1:
                raise RuntimeError(
                    "shards diverged after update barrier: versions "
                    f"{sorted(barrier.versions.items())}"
                )
            if not versions:
                # Every expected worker died mid-barrier.  Returning
                # the stale version here (the old behaviour) would
                # report success for an update nobody applied.
                raise RuntimeError(
                    "every worker died during the update barrier; "
                    "the batch was not applied"
                )
            agreed = versions.pop()
            if self._mirror is not None:
                # Mirror the agreed batch and make it durable *before*
                # the ack: still under the write lock, so no reader
                # observes the new version until the WAL record is
                # fsynced (fsync-before-ack).
                self._mirror.apply_updates(batch)
                if self._mirror.version != agreed:
                    raise RuntimeError(
                        "durable mirror diverged from the worker "
                        f"barrier: mirror at {self._mirror.version}, "
                        f"workers agreed on {agreed}"
                    )
                assert self._durability is not None
                self._durability.flush()
            with self._mutex:
                self._version = agreed
                # Journal for respawn catch-up: a worker respawned
                # after this barrier replays the log and must land on
                # exactly this version (one version bump per update).
                self._update_log.extend(batch)
                return self._version

    # -- collector / failure handling ------------------------------------
    def _collect(self, state: _WorkerState) -> None:
        """Drain one worker's responses; detect and handle its death."""
        while True:
            try:
                message = state.responses.get(timeout=_POLL)
            except queue.Empty:
                with self._mutex:
                    if self._stopping:
                        return
                    alive = state.alive and state.process.is_alive()
                if not alive:
                    self._on_worker_death(state)
                    return
                continue
            except (EOFError, OSError):
                # Queue torn down under us.  Either close() raced the
                # read (stopping — just exit) or the worker died hard
                # enough to wreck its feeder; route through the death
                # path so supervision still notices.
                with self._mutex:
                    if self._stopping:
                        return
                if not state.process.is_alive():
                    self._on_worker_death(state)
                return
            kind = message[0]
            if kind == "result":
                _, req_id, served = message
                with self._mutex:
                    pending = state.pending.pop(req_id, None)
                    state.breaker.record_success()
                if pending is not None:
                    self._resolve(pending.future, served)
            elif kind == "error":
                _, req_id, exc = message
                with self._mutex:
                    pending = state.pending.pop(req_id, None)
                if pending is not None:
                    self._fail(pending.future, exc)
            elif kind == "heartbeat":
                _, version, cache_size, ts = message
                with self._mutex:
                    state.last_heartbeat = float(ts)
                    state.reported_version = int(version)
                    state.reported_cache_size = int(cache_size)
            elif kind == "updated":
                _, barrier_id, version = message
                with self._mutex:
                    barrier = self._barriers.get(barrier_id)
                    if barrier is not None:
                        barrier.versions[state.worker_id] = int(version)
                        barrier.settle_if_complete()
            elif kind == "update-error":
                _, barrier_id, exc = message
                with self._mutex:
                    barrier = self._barriers.get(barrier_id)
                    if barrier is not None:
                        barrier.errors.append(exc)
                        barrier.failed.add(state.worker_id)
                        barrier.settle_if_complete()
            elif kind == "stats":
                _, req_id, stats = message
                with self._mutex:
                    pending = state.pending.pop(req_id, None)
                if pending is not None:
                    self._resolve(pending.future, stats)

    @staticmethod
    def _resolve(future: Future, value: Any) -> None:
        if future.set_running_or_notify_cancel():
            future.set_result(value)

    @staticmethod
    def _fail(future: Future, exc: BaseException) -> None:
        try:
            if future.set_running_or_notify_cancel():
                future.set_exception(exc)
        except Exception:  # repro: allow[lock-discipline] -- best-effort error delivery: a racing cancel already settled the future, the client has its outcome
            pass

    def _on_worker_death(self, state: _WorkerState) -> None:
        """A shard died: shrink the ring, retry its pending requests.

        Every request the dead worker had not answered is resubmitted
        through the bounded retry path (routing no longer includes the
        dead worker); with no survivors the futures fail instead of
        hanging.  Barriers waiting on the dead worker stop expecting
        its ack and settle on the survivors.  When the restart policy
        has budget left, a respawn is scheduled after the jittered
        backoff; otherwise the worker is removed permanently and the
        dispatcher reports degraded capacity.
        """
        now = time.monotonic()
        with self._mutex:
            if not state.alive:
                return
            state.alive = False
            state.died_at = now
            state.breaker.trip(now)
            self._worker_failures += 1
            self._ring.remove(state.worker_id)
            orphaned = list(state.pending.values())
            state.pending.clear()
            for barrier in self._barriers.values():
                barrier.expected.discard(state.worker_id)
                barrier.settle_if_complete()
            stopping = self._stopping
            if not stopping:
                attempt = state.restarts
                if self._restart_policy.allows(attempt):
                    delay = self._restart_policy.delay(
                        state.worker_id, attempt
                    )
                    self._respawn_due[state.worker_id] = now + delay
                else:
                    state.removed = True
                    self._permanent_failures += 1
        if stopping:
            for request in orphaned:
                self._fail(
                    request.future,
                    RuntimeError("dispatcher closed during dispatch"),
                )
            return
        self._supervisor_wake.set()
        for request in orphaned:
            if request.source < 0:
                # Control probes (stats) are not reroutable queries;
                # their caller tolerates a shard dropping out.
                self._fail(
                    request.future,
                    WorkerUnavailableError(
                        f"worker {state.worker_id} died before "
                        f"answering a {request.method} probe"
                    ),
                )
                continue
            self._retry_request(
                request, reason=f"worker {state.worker_id} died"
            )

    # -- bounded retries --------------------------------------------------
    def _retry_request(self, request: _PendingRequest, *, reason: str) -> None:
        """Decide one read's fate after a shard failed it: retry or fail.

        Bounded by the retry policy's attempt budget, paced by its
        jittered backoff, and deadline-aware: a retry whose backoff
        lands past the request deadline fails now instead of burning a
        shard on an answer nobody will read.  Safe to retry at all
        because answers are pure functions of ``(seed, source)``.
        """
        now = time.monotonic()
        attempt = request.attempts
        request.attempts += 1
        delay = self._retry_policy.next_delay(
            attempt, deadline=request.deadline, now=now
        )
        if delay is None:
            if request.deadline is not None and now >= request.deadline:
                self._fail(
                    request.future,
                    DeadlineExceeded(
                        f"source {request.source}: deadline passed "
                        f"after {attempt} attempt(s) ({reason})"
                    ),
                )
            else:
                self._fail(
                    request.future,
                    WorkerUnavailableError(
                        f"source {request.source}: retry budget "
                        f"exhausted after {attempt} attempt(s) ({reason})"
                    ),
                )
            return
        if delay <= 0.0:
            self._resubmit(request)
            return
        with self._mutex:
            self._retry_due.append((now + delay, request))
        self._supervisor_wake.set()

    def _resubmit(self, request: _PendingRequest) -> None:
        """Re-enqueue one retried request on a (breaker-aware) shard."""
        with self._mutex:
            if self._closed:
                self._fail(
                    request.future, RuntimeError("dispatcher is closed")
                )
                return
            try:
                target = self._route_healthy(request.source)
            except RuntimeError:
                target = None
            if target is not None:
                req_id = self._next_id
                self._next_id += 1
                self._rerouted += 1
                self._retries += 1
                request.enqueued_at = time.monotonic()
                target.pending[req_id] = request
            respawn_pending = bool(self._respawn_due) or bool(
                self._respawning
            )
        if target is None:
            if respawn_pending:
                # Nobody is live right now but a respawn is in
                # flight; spend another bounded attempt waiting for
                # it rather than failing a recoverable read.
                self._retry_request(
                    request, reason="no live workers (respawn pending)"
                )
            else:
                self._fail(
                    request.future,
                    WorkerUnavailableError(
                        f"no live workers remain for source "
                        f"{request.source}"
                    ),
                )
            return
        target.requests.put(
            (
                "query",
                req_id,
                request.source,
                request.method,
                dict(request.params),
                request.fresh,
                request.deadline,
            )
        )

    # -- supervision ------------------------------------------------------
    def _supervise(self) -> None:
        """Supervisor loop: respawns, paced retries, timeout scans.

        Every wait is timed (``_POLL``) and every piece of work it
        finds is bounded, so the loop adds no hang risk of its own;
        it exits as soon as ``close()`` flips ``_stopping``.
        """
        while True:
            self._supervisor_wake.wait(_POLL)
            self._supervisor_wake.clear()
            now = time.monotonic()
            with self._mutex:
                if self._stopping:
                    return
                due_respawns = [
                    worker_id
                    for worker_id, due in self._respawn_due.items()
                    if due <= now
                ]
                for worker_id in due_respawns:
                    del self._respawn_due[worker_id]
                due_retries = [
                    request for due, request in self._retry_due if due <= now
                ]
                self._retry_due = [
                    (due, request)
                    for due, request in self._retry_due
                    if due > now
                ]
                timed_out: list[tuple[_WorkerState, _PendingRequest]] = []
                if self._request_timeout is not None:
                    for state in self._states.values():
                        if not state.alive:
                            continue
                        expired = [
                            req_id
                            for req_id, request in state.pending.items()
                            if request.source >= 0
                            and request.enqueued_at > 0.0
                            and now - request.enqueued_at
                            > self._request_timeout
                        ]
                        for req_id in expired:
                            timed_out.append(
                                (state, state.pending.pop(req_id))
                            )
                            state.breaker.record_failure(now)
                            self._request_timeouts += 1
            for state, request in timed_out:
                self._retry_request(
                    request,
                    reason=(
                        f"no reply from worker {state.worker_id} within "
                        f"{self._request_timeout}s"
                    ),
                )
            for request in due_retries:
                self._resubmit(request)
            for worker_id in due_respawns:
                self._respawn(worker_id)

    def _respawn(self, worker_id: int) -> None:
        """Bring one dead shard back over the same shared image.

        Spawn a fresh process (zero-copy re-attach of the segment),
        replay the update journal so its engine reaches the current
        graph version, verify the acked version under the write lock
        (serialising with concurrent ``apply_updates``), and only then
        restore the worker's arc on the ring.  Any failure along the
        way consumes another unit of restart budget.
        """
        with self._mutex:
            if self._stopping or self._closed:
                return
            old = self._states.get(worker_id)
            if old is None or old.alive or old.removed:
                return
            generation = old.generation + 1
            restarts = old.restarts + 1
        try:
            state = self._spawn_state(
                worker_id, generation=generation, restarts=restarts
            )
        except Exception:  # repro: allow[lock-discipline] -- spawn failure is a restart-budget event, not a crash: the policy decides whether to try again
            self._respawn_failed(worker_id, restarts)
            return
        with self._mutex:
            self._respawning[worker_id] = state
        try:
            acked = self._catch_up(state, acked=0)
            if acked is None:
                self._teardown_state(state)
                self._respawn_failed(worker_id, restarts)
                return
            # Final delta under the write lock: no apply_updates can
            # run concurrently, so after this the journal cannot grow
            # before the worker is back on the ring.
            with self._rwlock.write():
                acked = self._catch_up(state, acked=acked)
                with self._mutex:
                    expected = self._version - self._config.initial_version
                    stopping = self._stopping
                if stopping or acked is None or acked != expected:
                    self._teardown_state(state)
                    if not stopping:
                        self._respawn_failed(worker_id, restarts)
                    return
                now = time.monotonic()
                with self._mutex:
                    self._states[worker_id] = state
                    state.alive = True
                    # The catch-up ack doubles as the first health
                    # report (the worker's startup heartbeat was
                    # drained during replay): fresh cache, journal
                    # version, seen just now.
                    state.last_heartbeat = now
                    state.reported_version = (
                        self._config.initial_version + acked
                    )
                    state.reported_cache_size = 0
                    self._ring.add(worker_id)
                    self._respawns += 1
                    recovery = now - old.died_at
                    self._recovery_last = recovery
                    self._recovery_max = max(self._recovery_max, recovery)
                self._start_collector(state)
        finally:
            with self._mutex:
                self._respawning.pop(worker_id, None)

    def _catch_up(
        self, state: _WorkerState, *, acked: int
    ) -> int | None:
        """Replay journal entries past ``acked`` to a respawning worker.

        The worker is not on the ring and its collector is not running
        yet, so its response queue is read directly here (timed waits
        only).  Returns the journal length the worker has confirmed —
        its graph version minus the boot version (one bump per update;
        the boot version is nonzero after durable recovery) — or
        ``None`` on death, timeout, error, or dispatcher shutdown.
        """
        base = self._config.initial_version
        with self._mutex:
            batch = list(self._update_log[acked:])
            target = len(self._update_log)
            barrier_id = self._next_id
            self._next_id += 1
        if not batch:
            return acked
        state.requests.put(("update", barrier_id, batch))
        deadline = time.monotonic() + self._update_timeout
        while True:
            with self._mutex:
                if self._stopping:
                    return None
            try:
                message = state.responses.get(timeout=_POLL)
            except queue.Empty:
                if not state.process.is_alive():
                    return None
                if time.monotonic() > deadline:
                    return None
                continue
            except (EOFError, OSError):
                return None
            kind = message[0]
            if kind == "updated" and message[1] == barrier_id:
                version = int(message[2])
                return (version - base) if version - base == target else None
            if kind == "update-error":
                return None
            # Heartbeats (and any stale replies) are ignored here;
            # the collector takes over once the worker is registered.

    def _respawn_failed(self, worker_id: int, restarts: int) -> None:
        """A respawn attempt died; spend budget on another or give up."""
        now = time.monotonic()
        with self._mutex:
            old = self._states.get(worker_id)
            if old is None or self._stopping:
                return
            old.restarts = restarts
            if self._restart_policy.allows(restarts):
                delay = self._restart_policy.delay(worker_id, restarts)
                self._respawn_due[worker_id] = now + delay
            else:
                old.removed = True
                self._permanent_failures += 1
        self._supervisor_wake.set()

    def _teardown_state(self, state: _WorkerState) -> None:
        """Dispose of a worker that never made it onto the ring."""
        try:
            state.requests.put(("stop",))
        except (ValueError, OSError):
            pass
        state.process.join(timeout=1.0)
        if state.process.is_alive():
            state.process.kill()
            state.process.join(timeout=1.0)
        for q in (state.requests, state.responses):
            try:
                q.cancel_join_thread()
                q.close()
            except (ValueError, OSError):
                pass

    # -- stats -----------------------------------------------------------
    def stats(self, timeout: float = 10.0) -> dict[str, Any]:
        """Aggregate dispatcher + per-worker serving statistics.

        Shape-compatible with :meth:`EngineServer.stats` where it
        matters (top-level ``"cache"`` with ``hit_rate``,
        ``"scheduler"`` with ``batching_factor``), with per-worker
        breakdowns under ``"per_worker"`` and dispatcher counters
        (``rerouted``, ``worker_failures``) alongside.
        """
        futures: dict[int, Future] = {}
        probes: list[tuple[_WorkerState, int]] = []
        with self._rwlock.read():
            with self._mutex:
                if self._closed:
                    raise RuntimeError("dispatcher is closed")
                for state in self._states.values():
                    if not state.alive:
                        continue
                    req_id = self._next_id
                    self._next_id += 1
                    future: Future = Future()
                    state.pending[req_id] = _PendingRequest(
                        future=future,
                        source=-1,
                        method="stats",
                        params={},
                        fresh=False,
                    )
                    futures[state.worker_id] = future
                    probes.append((state, req_id))
            for state, req_id in probes:
                state.requests.put(("stats", req_id))
        per_worker: dict[str, dict[str, Any]] = {}
        # One shared monotonic deadline across all workers (mirroring
        # the shutdown join loop in close()): the probes were broadcast
        # concurrently, so the waits must share one budget — giving
        # each worker the full timeout in sequence would stretch the
        # worst case to N x timeout when shards hang.
        deadline = time.monotonic() + timeout
        for worker_id, future in futures.items():
            try:
                per_worker[str(worker_id)] = future.result(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except Exception:  # repro: allow[lock-discipline] -- a shard that died or timed out mid-stats simply drops out of the aggregate; its failure is already counted in worker_failures
                continue
        cache_totals = {
            "hits": 0.0,
            "misses": 0.0,
            "insertions": 0.0,
            "evictions": 0.0,
            "expirations": 0.0,
            "stale_drops": 0.0,
            "invalidations": 0.0,
        }
        sched_totals = {
            "submitted": 0.0,
            "answered": 0.0,
            "cache_answered": 0.0,
            "batches": 0.0,
            "engine_calls": 0.0,
            "engine_sources": 0.0,
            "failures": 0.0,
            "expired": 0.0,
            "max_group": 0.0,
        }
        for stats in per_worker.values():
            for name in cache_totals:
                cache_totals[name] += float(stats["cache"].get(name, 0.0))
            sched = stats["scheduler"]
            for name in sched_totals:
                if name == "max_group":
                    sched_totals[name] = max(
                        sched_totals[name], float(sched.get(name, 0.0))
                    )
                else:
                    sched_totals[name] += float(sched.get(name, 0.0))
        lookups = cache_totals["hits"] + cache_totals["misses"]
        cache: dict[str, float] = dict(cache_totals)
        cache["hit_rate"] = cache_totals["hits"] / lookups if lookups else 0.0
        scheduler: dict[str, float] = dict(sched_totals)
        scheduler["batching_factor"] = (
            sched_totals["answered"] / sched_totals["engine_calls"]
            if sched_totals["engine_calls"]
            else 0.0
        )
        now = time.monotonic()
        with self._mutex:
            supervisor = {
                "respawns": self._respawns,
                "permanent_failures": self._permanent_failures,
                "degraded_capacity": self._permanent_failures > 0,
                "recovery_s": {
                    "last": self._recovery_last,
                    "max": self._recovery_max,
                },
                "retries": self._retries,
                "request_timeouts": self._request_timeouts,
                "breaker_skips": self._breaker_skips,
                "max_restarts": self._restart_policy.max_restarts,
                "restarts": {
                    str(state.worker_id): state.restarts
                    for state in self._states.values()
                },
                "removed": sorted(
                    state.worker_id
                    for state in self._states.values()
                    if state.removed
                ),
                "breakers": {
                    str(state.worker_id): state.breaker.snapshot()
                    for state in self._states.values()
                    if state.alive
                },
            }
            heartbeats = {
                str(state.worker_id): {
                    "age_s": (
                        now - state.last_heartbeat
                        if state.last_heartbeat > 0.0
                        else None
                    ),
                    "graph_version": state.reported_version,
                    "cache_size": state.reported_cache_size,
                }
                for state in self._states.values()
                if state.alive
            }
            return {
                "requests": self._submitted,
                "graph_version": self._version,
                "workers": len(per_worker),
                "configured_workers": self._workers,
                "rerouted": self._rerouted,
                "worker_failures": self._worker_failures,
                "cache": cache,
                "scheduler": scheduler,
                "per_worker": per_worker,
                "supervisor": supervisor,
                "heartbeats": heartbeats,
            }

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Stop every shard and release the shared segment (idempotent).

        Stop messages first, then a bounded join, escalating to
        ``terminate`` (workers convert SIGTERM to a clean exit that
        closes their mapping) and finally ``kill``.  Leftover futures
        fail rather than hang.  The segment is closed here in the
        parent and — when the dispatcher exported it — unlinked
        exactly once, so a completed run leaves nothing in
        ``/dev/shm``.
        """
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            self._stopping = True
            states = list(self._states.values())
            respawning = list(self._respawning.values())
            self._respawning.clear()
            self._respawn_due.clear()
            waiting_retries = [request for _, request in self._retry_due]
            self._retry_due = []
            for barrier in self._barriers.values():
                barrier.errors.append(
                    RuntimeError("dispatcher closed during update barrier")
                )
                barrier.done.set()
            self._barriers.clear()
        self._supervisor_wake.set()
        if (
            self._supervisor is not None
            and self._supervisor is not threading.current_thread()
        ):
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        for request in waiting_retries:
            self._fail(
                request.future, RuntimeError("dispatcher is closed")
            )
        for state in respawning:
            self._teardown_state(state)
        for state in states:
            if state.alive:
                try:
                    state.requests.put(("stop",))
                except (ValueError, OSError):
                    # Queue already torn down by a dead worker's
                    # feeder — nothing left to stop.
                    pass
        deadline = time.monotonic() + 5.0
        for state in states:
            state.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if state.process.is_alive():
                state.process.terminate()
                state.process.join(timeout=1.0)
            if state.process.is_alive():
                state.process.kill()
                state.process.join(timeout=1.0)
        for state in states:
            if state.collector is not None:
                state.collector.join(timeout=2.0)
                state.collector = None
        with self._mutex:
            leftovers = [
                request
                for state in states
                for request in state.pending.values()
            ]
            for state in states:
                state.pending.clear()
                state.alive = False
        for request in leftovers:
            self._fail(
                request.future, RuntimeError("dispatcher is closed")
            )
        for state in states:
            for q in (state.requests, state.responses):
                try:
                    q.cancel_join_thread()
                    q.close()
                except (ValueError, OSError):
                    pass
        if self._own_image:
            self._image.cleanup()
        else:
            self._image.close()
        if self._durability is not None:
            self._durability.close()

    def __enter__(self) -> "ShardedDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedDispatcher(workers={self.num_workers}, "
            f"version={self.graph_version}, "
            f"segment={self._image.segment_name!r})"
        )
