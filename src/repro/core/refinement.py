"""The O(m) post-refinement step (paper Section 5, Remark; Lemma 4.5).

PowerPush's epoch loop stops once ``r_sum <= lambda``, which does *not*
imply the FwdPush termination condition ``r(s,v) <= d_v * r_max`` for
every node.  SpeedPPR (Algorithm 4, Line 3) needs that stronger
per-node guarantee so its Monte-Carlo phase requires at most ``d_v``
walks per node.  Lemma 4.5 shows that finishing the remaining pushes
from a state with ``r_sum <= lambda`` costs only ``O(m)`` extra time.

:func:`refine_to_r_max` performs exactly those remaining pushes on an
existing :class:`PushState`, using the auto-switching sweep kernel.
"""

from __future__ import annotations

from repro.core.kernels import sweep_active
from repro.core.residues import PushState
from repro.core.workspace import Workspace
from repro.core.validation import check_r_max
from repro.errors import ConvergenceError, ParameterError

__all__ = ["refine_to_r_max"]


def refine_to_r_max(
    state: PushState,
    r_max: float,
    *,
    max_sweeps: int | None = None,
) -> PushState:
    """Push until no node is active w.r.t. ``r_max``; return the state.

    The state is modified in place (and also returned for chaining).
    """
    check_r_max(r_max)
    if r_max == 0.0:
        raise ParameterError("r_max must be positive for refinement")
    workspace = Workspace()
    if max_sweeps is None:
        import math

        # From r_sum <= m * r_max the remaining work is O(m)
        # (Lemma 4.5); translate into a sweep budget with slack, based
        # on the current mass rather than assuming the caller got to
        # lambda already.
        state.refresh_r_sum()
        excess = max(state.r_sum / max(r_max, 1e-300), 2.0)
        max_sweeps = int(8.0 * (math.log(excess) + 1.0) / state.alpha) + 64

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
        if sweeps > max_sweeps:
            raise ConvergenceError(
                f"refinement exceeded {max_sweeps} sweeps "
                f"(r_sum={state.refresh_r_sum():.3e}, r_max={r_max:.3e})"
            )
    state.refresh_r_sum()
    return state
