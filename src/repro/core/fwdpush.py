"""Forward Push (paper Algorithm 1) with pluggable scheduling.

Algorithm 1 repeatedly picks *an arbitrary* active node — one with
``r(s, v) > d_v * r_max`` — and performs a push on it, until no active
node remains.  The choice of "arbitrary" is exactly what Section 4 is
about: the paper proves that a First-In-First-Out order yields the
``O(m log(1/lambda))`` bound.  This module implements the general
algorithm with three schedulers so the ablation benchmark (DESIGN.md
A2) can compare them:

* ``"fifo"``   — Algorithm 2's queue order (the analysed variant),
* ``"lifo"``   — depth-first order (a worst-practice foil),
* ``"max-residue"`` — greedy largest-residue-first via a lazy max-heap.

This is the *faithful scalar* implementation: one Python-level push per
node, matching the pseudo-code line for line.  It is intended for
correctness tests, teaching, and small graphs; the benchmarks use the
vectorised modes in :mod:`repro.core.fifo_fwdpush` and
:mod:`repro.core.powerpush`.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Literal

from repro.core.residues import DeadEndPolicy, PushState
from repro.core.result import PPRResult
from repro.core.validation import (
    check_alpha,
    check_r_max,
    check_source,
)
from repro.errors import ConvergenceError, ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.tracing import ConvergenceTrace

__all__ = ["forward_push", "Scheduler"]

Scheduler = Literal["fifo", "lifo", "max-residue"]

_VALID_SCHEDULERS: tuple[str, ...] = ("fifo", "lifo", "max-residue")


def forward_push(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    r_max: float,
    scheduler: Scheduler = "fifo",
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    max_pushes: int | None = None,
    trace: ConvergenceTrace | None = None,
) -> PPRResult:
    """Run Forward Push until no node is active w.r.t. ``r_max``.

    Parameters
    ----------
    r_max:
        The stop parameter.  At termination every node satisfies
        ``r(s, v) <= d_v * r_max``, so the l1-error is at most
        ``m * r_max`` (Eq. 7).  ``r_max = 0`` never terminates on
        cyclic graphs and is rejected here (use
        :func:`repro.core.sim_fwdpush.simultaneous_forward_push`, which
        adds the ``r_sum <= lambda`` stop rule instead).
    scheduler:
        Order in which active nodes are picked; see module docstring.
    max_pushes:
        Safety cap on push operations; defaults to a generous multiple
        of the theoretical ``O(1 / r_max)`` bound.
    """
    check_alpha(alpha)
    check_source(graph, source)
    check_r_max(r_max)
    if r_max == 0.0:
        raise ParameterError(
            "r_max = 0 does not terminate; use simultaneous_forward_push "
            "with an l1_threshold stop rule instead"
        )
    if scheduler not in _VALID_SCHEDULERS:
        raise ParameterError(
            f"unknown scheduler {scheduler!r}; expected one of {_VALID_SCHEDULERS}"
        )
    if max_pushes is None:
        # O(1/(alpha * r_max)) pushes suffice; pad generously.
        max_pushes = int(4.0 / (alpha * r_max)) + 4 * graph.num_nodes + 64

    started = time.perf_counter()
    state = PushState(graph, source, alpha, dead_end_policy=dead_end_policy)
    if trace is not None:
        trace.restart_clock()
        trace.record(0, state.r_sum)

    if scheduler == "max-residue":
        _run_priority(state, r_max, max_pushes, trace)
    else:
        _run_worklist(state, r_max, max_pushes, trace, lifo=scheduler == "lifo")

    if trace is not None:
        trace.record(state.counters.residue_updates, state.refresh_r_sum())
    return PPRResult(
        estimate=state.reserve,
        residue=state.residue,
        source=source,
        alpha=alpha,
        counters=state.counters,
        trace=trace,
        seconds=time.perf_counter() - started,
        method=f"FwdPush[{scheduler}]",
    )


def _run_worklist(
    state: PushState,
    r_max: float,
    max_pushes: int,
    trace: ConvergenceTrace | None,
    *,
    lifo: bool,
) -> None:
    """FIFO/LIFO worklist loop — Algorithm 2 when ``lifo`` is False."""
    graph = state.graph
    queue: deque[int] = deque()
    in_queue = bytearray(graph.num_nodes)
    if state.is_active(state.source, r_max):
        queue.append(state.source)
        in_queue[state.source] = 1
        state.counters.queue_appends += 1

    pushes = 0
    while True:
        while queue:
            v = queue.pop() if lifo else queue.popleft()
            in_queue[v] = 0
            # Residues only grow while a node waits in the worklist, so
            # a queued node is still active here; the guard protects
            # against float round-off at the threshold boundary.
            if not state.is_active(v, r_max):
                continue
            state.push(v)
            pushes += 1
            if pushes > max_pushes:
                raise ConvergenceError(
                    f"forward push exceeded {max_pushes} pushes "
                    f"(r_sum={state.refresh_r_sum():.3e}, r_max={r_max:.3e})"
                )
            for u in graph.out_neighbors(v):
                if not in_queue[u] and state.is_active(u, r_max):
                    queue.append(int(u))
                    in_queue[u] = 1
                    state.counters.queue_appends += 1
            # A dead-end push routes mass outside the adjacency list
            # (to the source, or everywhere under uniform-teleport);
            # cheap re-check for the source — other beneficiaries are
            # caught by the rescan below when the queue drains.
            if (
                graph.out_degree[v] == 0
                and not in_queue[state.source]
                and state.is_active(state.source, r_max)
            ):
                queue.append(state.source)
                in_queue[state.source] = 1
                state.counters.queue_appends += 1
            if trace is not None:
                trace.maybe_record(state.counters.residue_updates, state.r_sum)
        # Termination rescan: uniform-teleport pushes can activate nodes
        # that were never enqueued; reseed and continue if any remain.
        leftovers = state.active_nodes(r_max)
        if leftovers.shape[0] == 0:
            break
        for u in leftovers.tolist():
            queue.append(u)
            in_queue[u] = 1
            state.counters.queue_appends += 1


def _run_priority(
    state: PushState,
    r_max: float,
    max_pushes: int,
    trace: ConvergenceTrace | None,
) -> None:
    """Largest-residue-first loop with a lazy max-heap."""
    graph = state.graph
    heap: list[tuple[float, int]] = []
    if state.is_active(state.source, r_max):
        heapq.heappush(heap, (-1.0, state.source))

    pushes = 0
    while True:
        while heap:
            _, v = heapq.heappop(heap)
            if not state.is_active(v, r_max):
                continue  # stale entry
            state.push(v)
            pushes += 1
            if pushes > max_pushes:
                raise ConvergenceError(
                    f"forward push exceeded {max_pushes} pushes "
                    f"(r_sum={state.refresh_r_sum():.3e}, r_max={r_max:.3e})"
                )
            for u in graph.out_neighbors(v):
                if state.is_active(u, r_max):
                    heapq.heappush(heap, (-float(state.residue[u]), int(u)))
            if graph.out_degree[v] == 0 and state.is_active(state.source, r_max):
                heapq.heappush(
                    heap, (-float(state.residue[state.source]), state.source)
                )
            if trace is not None:
                trace.maybe_record(state.counters.residue_updates, state.r_sum)
        leftovers = state.active_nodes(r_max)
        if leftovers.shape[0] == 0:
            break
        for u in leftovers.tolist():
            heapq.heappush(heap, (-float(state.residue[u]), int(u)))
