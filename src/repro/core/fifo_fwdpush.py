"""First-In-First-Out Forward Push (FIFO-FwdPush, paper Algorithm 2).

This is the "common implementation" whose running time Section 4.2
bounds by ``O(m log(1/lambda))`` (Theorem 4.3) — the positive answer to
the paper's open question.  Two execution modes are provided:

``"faithful"``
    The scalar queue loop of Algorithm 2 verbatim (delegates to
    :func:`repro.core.fwdpush.forward_push` with the FIFO scheduler).
    Used by correctness tests and small graphs.

``"frontier"``
    The vectorised per-iteration form used for benchmarking: iteration
    ``j+1`` simultaneously pushes the active set ``S(j)``, exactly the
    iteration structure Section 4.2 defines for its analysis.  Each
    sweep costs ``O(sum of frontier degrees)`` through the
    gather/scatter kernel, so the total work tracks the paper's
    ``T(j+1)`` quantity (Eq. 11).

Both modes stop when no node is active w.r.t. ``r_max``, i.e. the
guaranteed l1-error is ``m * r_max`` (Eq. 7).
"""

from __future__ import annotations

import time
from typing import Literal

from repro.core.fwdpush import forward_push
from repro.core.kernels import sweep_active
from repro.core.workspace import Workspace
from repro.core.residues import DeadEndPolicy, PushState
from repro.core.result import PPRResult
from repro.core.validation import (
    check_alpha,
    check_l1_threshold,
    check_r_max,
    check_source,
)
from repro.errors import ConvergenceError, ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.tracing import ConvergenceTrace

__all__ = ["fifo_forward_push", "r_max_for_l1_threshold"]

Mode = Literal["faithful", "frontier", "auto"]


def r_max_for_l1_threshold(graph: DiGraph, l1_threshold: float) -> float:
    """The paper's setting ``r_max = lambda / m`` (Section 3.2)."""
    check_l1_threshold(l1_threshold)
    if graph.num_edges == 0:
        return l1_threshold
    return l1_threshold / graph.num_edges


def fifo_forward_push(
    graph: DiGraph,
    source: int,
    *,
    alpha: float = 0.2,
    r_max: float | None = None,
    l1_threshold: float | None = None,
    mode: Mode = "auto",
    dead_end_policy: DeadEndPolicy = "redirect-to-source",
    max_sweeps: int | None = None,
    trace: ConvergenceTrace | None = None,
) -> PPRResult:
    """Run FIFO-FwdPush (Algorithm 2).

    Exactly one of ``r_max`` / ``l1_threshold`` must be given; the
    latter sets ``r_max = l1_threshold / m``.

    Parameters
    ----------
    mode:
        ``"faithful"`` for the scalar queue loop, ``"frontier"`` for the
        vectorised iteration form, ``"auto"`` picks ``"frontier"``.
    """
    if (r_max is None) == (l1_threshold is None):
        raise ParameterError(
            "specify exactly one of r_max or l1_threshold"
        )
    if r_max is None:
        assert l1_threshold is not None
        r_max = r_max_for_l1_threshold(graph, l1_threshold)
    check_r_max(r_max)
    if r_max == 0.0:
        raise ParameterError("r_max must be positive for FIFO-FwdPush")

    if mode == "auto":
        mode = "frontier"
    if mode == "faithful":
        result = forward_push(
            graph,
            source,
            alpha=alpha,
            r_max=r_max,
            scheduler="fifo",
            dead_end_policy=dead_end_policy,
            trace=trace,
        )
        result.method = "FIFO-FwdPush[faithful]"
        return result
    if mode != "frontier":
        raise ParameterError(f"unknown mode {mode!r}")

    check_alpha(alpha)
    check_source(graph, source)
    workspace = Workspace()
    if max_sweeps is None:
        import math

        # Lemma 4.4/4.5: O(log(1/(m r_max))/alpha + 1/alpha) sweeps
        # suffice; each sweep removes an alpha-fraction of removable
        # mass in the worst case.  Pad generously.
        lam = max(r_max * max(graph.num_edges, 1), 1e-300)
        max_sweeps = int(8.0 * (math.log(max(1.0 / lam, 2.0)) + 1.0) / alpha) + 64

    started = time.perf_counter()
    state = PushState(graph, source, alpha, dead_end_policy=dead_end_policy)
    if trace is not None:
        trace.restart_clock()
        trace.record(0, state.r_sum)

    threshold_vec = state.threshold_vector(r_max)
    sweeps = 0
    while True:
        pushed = sweep_active(
            state,
            r_max,
            threshold_vec=threshold_vec,
            workspace=workspace,
        )
        if pushed == 0:
            break
        sweeps += 1
        state.counters.iterations = sweeps
        if sweeps > max_sweeps:
            raise ConvergenceError(
                f"FIFO-FwdPush exceeded {max_sweeps} sweeps "
                f"(r_sum={state.refresh_r_sum():.3e}, r_max={r_max:.3e})"
            )
        if trace is not None:
            trace.maybe_record(state.counters.residue_updates, state.r_sum)

    state.refresh_r_sum()
    if trace is not None:
        trace.record(state.counters.residue_updates, state.r_sum)
    return PPRResult(
        estimate=state.reserve,
        residue=state.residue,
        source=source,
        alpha=alpha,
        counters=state.counters,
        trace=trace,
        seconds=time.perf_counter() - started,
        method="FIFO-FwdPush",
    )
