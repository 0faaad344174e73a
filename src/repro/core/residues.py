"""Reserve/residue state and the push primitive (paper Section 3.2).

Every Forward-Push-family algorithm maintains, per node ``v``:

* a **reserve** ``pi_hat(s, v)`` — the settled underestimate of the PPR,
* a **residue** ``r(s, v)`` — unprocessed probability mass of the alive
  random walk currently at ``v``.

:class:`PushState` bundles both vectors with the graph, source, alpha,
a dead-end policy, and instrumentation.  Its :meth:`push` method is the
*faithful scalar* push of Algorithm 1 — used by the reference
implementations and the unit tests that replay the paper's Figure 2/3
traces.  The vectorised kernels in :mod:`repro.core.kernels` operate on
the same state object.

Mass invariant
--------------
A push moves ``alpha * r_v`` into the reserve and ``(1 - alpha) * r_v``
onto out-neighbours' residues, so the quantity
``sum(reserve) + sum(residue)`` is exactly 1 at all times (with the
``redirect-to-source`` or ``self-loop`` dead-end policies).  The
property-based tests assert this invariant under arbitrary push
sequences.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.validation import check_alpha, check_source
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph
from repro.instrumentation.counters import PushCounters

__all__ = [
    "DeadEndPolicy",
    "PushState",
    "BlockPushState",
    "effective_out_degree",
]

DeadEndPolicy = Literal["redirect-to-source", "self-loop", "uniform-teleport"]

_VALID_POLICIES: tuple[str, ...] = (
    "redirect-to-source",
    "self-loop",
    "uniform-teleport",
)


def effective_out_degree(graph: DiGraph, dead_end_policy: str) -> np.ndarray:
    """Out-degrees with dead ends replaced by their *conceptual* degree.

    The paper removes dead ends by conceptually adding an edge to the
    source, so a dead end's conceptual out-degree is 1 (or ``n`` under
    the uniform-teleport policy).  Using the conceptual degree in the
    activity test ``r > d_v * r_max`` is what makes push algorithms
    terminate on graphs with dead ends.  Shared by :class:`PushState`
    and :class:`BlockPushState` so the two activity tests can never
    drift apart.
    """
    degree = graph.out_degree
    if graph.has_dead_ends:
        degree = degree.copy()
        conceptual = (
            graph.num_nodes if dead_end_policy == "uniform-teleport" else 1
        )
        degree[graph.dead_ends] = conceptual
        degree.flags.writeable = False
    return degree


class PushState:
    """Mutable reserve/residue state for one SSPPR query.

    Parameters
    ----------
    graph, source, alpha:
        The query.  ``alpha`` is the teleport (stop) probability.
    dead_end_policy:
        What a push on an out-degree-0 node does with the ``1 - alpha``
        continue-mass.  ``redirect-to-source`` (paper default) sends it
        back to the source; ``self-loop`` leaves it on the node;
        ``uniform-teleport`` spreads it over all nodes.
    counters:
        Optional shared counter object (phases of a composite algorithm
        pass the same one through).
    """

    __slots__ = (
        "graph",
        "source",
        "alpha",
        "dead_end_policy",
        "reserve",
        "residue",
        "counters",
        "_r_sum",
        "_effective_out_degree",
    )

    def __init__(
        self,
        graph: DiGraph,
        source: int,
        alpha: float = 0.2,
        *,
        dead_end_policy: DeadEndPolicy = "redirect-to-source",
        counters: PushCounters | None = None,
    ) -> None:
        if dead_end_policy not in _VALID_POLICIES:
            raise ParameterError(
                f"unknown dead-end policy {dead_end_policy!r}; "
                f"expected one of {_VALID_POLICIES}"
            )
        self.graph = graph
        self.source = check_source(graph, source)
        self.alpha = check_alpha(alpha)
        self.dead_end_policy: DeadEndPolicy = dead_end_policy
        self.reserve = np.zeros(graph.num_nodes, dtype=np.float64)
        self.residue = np.zeros(graph.num_nodes, dtype=np.float64)
        self.residue[self.source] = 1.0
        self.counters = counters if counters is not None else PushCounters()
        self._r_sum = 1.0
        self._effective_out_degree: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Residue-mass bookkeeping
    # ------------------------------------------------------------------
    @property
    def r_sum(self) -> float:
        """Total residue mass — the current guaranteed l1-error (Eq. 7).

        Maintained incrementally; call :meth:`refresh_r_sum` to squash
        accumulated floating-point drift at iteration boundaries.
        """
        return self._r_sum

    def refresh_r_sum(self) -> float:
        """Recompute ``r_sum`` exactly from the residue vector."""
        self._r_sum = float(self.residue.sum())
        return self._r_sum

    def note_r_sum_delta(self, delta: float) -> None:
        """Adjust the cached ``r_sum`` (used by the vectorised kernels)."""
        self._r_sum += delta

    # ------------------------------------------------------------------
    # Activity tests
    # ------------------------------------------------------------------
    @property
    def effective_out_degree(self) -> np.ndarray:
        """Out-degrees with dead ends replaced by their *conceptual* degree.

        The paper removes dead ends by conceptually adding an edge to
        the source, so a dead end's conceptual out-degree is 1 (or
        ``n`` under the uniform-teleport policy).  Using the conceptual
        degree in the activity test ``r > d_v * r_max`` is what makes
        push algorithms terminate on graphs with dead ends: with the
        raw degree 0, any node that keeps receiving mass (e.g. from the
        uniform spread) would stay active forever.
        """
        if self._effective_out_degree is None:
            self._effective_out_degree = effective_out_degree(
                self.graph, self.dead_end_policy
            )
        return self._effective_out_degree

    def is_active(self, v: int, r_max: float) -> bool:
        """Paper definition: ``v`` is active iff ``r(s,v) > d_v * r_max``.

        Dead ends use their conceptual degree (see
        :attr:`effective_out_degree`).
        """
        return self.residue[v] > self.effective_out_degree[v] * r_max

    def active_mask(self, r_max: float) -> np.ndarray:
        """Boolean mask of all currently active nodes."""
        return self.residue > self.effective_out_degree * r_max

    def threshold_vector(self, r_max: float) -> np.ndarray:
        """Precomputed ``effective_out_degree * r_max`` for sweep loops."""
        return self.effective_out_degree.astype(np.float64) * r_max

    def active_nodes(self, r_max: float) -> np.ndarray:
        """Ids of all currently active nodes (ascending)."""
        return np.flatnonzero(self.active_mask(r_max))

    # ------------------------------------------------------------------
    # The push primitive (faithful scalar version of Algorithm 1)
    # ------------------------------------------------------------------
    def push(self, v: int) -> float:
        """Perform one push operation on node ``v``; return its old residue.

        Implementation note: the residue of ``v`` is zeroed *before*
        distributing, so a self-loop edge correctly re-deposits mass on
        ``v`` instead of being erased (the pseudo-code's final
        ``r(s,v) <- 0`` assumes no self-loops).
        """
        r_v = float(self.residue[v])
        if r_v == 0.0:
            self.counters.count_push(int(self.graph.out_degree[v]))
            return 0.0
        self.residue[v] = 0.0
        self.reserve[v] += self.alpha * r_v
        spread = (1.0 - self.alpha) * r_v

        neighbors = self.graph.out_neighbors(v)
        degree = neighbors.shape[0]
        if degree > 0:
            share = spread / degree
            # np.add.at handles repeated neighbours (parallel edges).
            np.add.at(self.residue, neighbors, share)
            self.counters.count_push(degree)
        else:
            self._spread_dead_end(spread)
            self.counters.count_push(1)
        self._r_sum -= self.alpha * r_v
        return r_v

    def _spread_dead_end(self, spread: float) -> None:
        if self.dead_end_policy == "redirect-to-source":
            self.residue[self.source] += spread
        elif self.dead_end_policy == "self-loop":
            # A dynamic self-loop would keep the dead end active forever
            # (its activity threshold is d_v * r_max = 0), so this policy
            # must be applied structurally before querying.
            raise ParameterError(
                "self-loop dead-end policy requires structural self-loops; "
                "apply repro.graph.apply_dead_end_rule(graph, 'self-loop') first"
            )
        else:  # uniform-teleport
            self.residue += spread / self.graph.num_nodes

    # ------------------------------------------------------------------
    # Invariants & conversions
    # ------------------------------------------------------------------
    def mass_total(self) -> float:
        """``sum(reserve) + sum(residue)`` — must equal 1 (see module doc)."""
        return float(self.reserve.sum() + self.residue.sum())

    def check_invariants(self, atol: float = 1e-9) -> None:
        """Assert conservation and non-negativity; used by tests."""
        if not np.all(self.reserve >= -atol):
            raise AssertionError("reserve went negative")
        if not np.all(self.residue >= -atol):
            raise AssertionError("residue went negative")
        total = self.mass_total()
        if abs(total - 1.0) > max(atol, 1e-9 * self.graph.num_edges):
            raise AssertionError(
                f"mass not conserved: reserve+residue = {total!r}"
            )


class BlockPushState:
    """Reserve/residue state for ``B`` simultaneous SSPPR queries.

    The multi-source generalisation of :class:`PushState`: ``reserve``
    and ``residue`` are ``(B, n)`` matrices (row ``i`` is source
    ``sources[i]``'s vectors), ``r_sum`` is a length-``B`` array, and
    instrumentation is kept as per-row *counter arrays* (billing is
    integer arithmetic, so it vectorises exactly; ``row_counters``
    materialises a :class:`PushCounters` per row on demand).  Rows are
    fully independent — the block kernels in :mod:`repro.core.kernels`
    are written so each row's float-operation sequence is *identical*
    to what the single-source kernels would perform, which is what
    lets :func:`repro.core.powerpush.power_push_block` promise bitwise
    equality with per-source solves.

    All rows share one graph, alpha, and dead-end policy (that is what
    makes the adjacency work shareable); heterogeneous queries belong
    in separate blocks.
    """

    __slots__ = (
        "graph",
        "sources",
        "alpha",
        "dead_end_policy",
        "reserve",
        "residue",
        "pushes",
        "residue_updates",
        "queue_appends",
        "epochs",
        "_r_sum",
        "_effective_out_degree",
    )

    def __init__(
        self,
        graph: DiGraph,
        sources,
        alpha: float = 0.2,
        *,
        dead_end_policy: DeadEndPolicy = "redirect-to-source",
    ) -> None:
        if dead_end_policy not in _VALID_POLICIES:
            raise ParameterError(
                f"unknown dead-end policy {dead_end_policy!r}; "
                f"expected one of {_VALID_POLICIES}"
            )
        sources = [check_source(graph, int(s)) for s in sources]
        if not sources:
            raise ParameterError("BlockPushState needs at least one source")
        self.graph = graph
        self.sources = np.asarray(sources, dtype=np.int64)
        self.alpha = check_alpha(alpha)
        self.dead_end_policy: DeadEndPolicy = dead_end_policy
        num_rows = self.sources.shape[0]
        self.reserve = np.zeros((num_rows, graph.num_nodes), dtype=np.float64)
        self.residue = np.zeros((num_rows, graph.num_nodes), dtype=np.float64)
        self.residue[np.arange(num_rows), self.sources] = 1.0
        self.pushes = np.zeros(num_rows, dtype=np.int64)
        self.residue_updates = np.zeros(num_rows, dtype=np.int64)
        self.queue_appends = np.zeros(num_rows, dtype=np.int64)
        self.epochs = np.zeros(num_rows, dtype=np.int64)
        self._r_sum = np.ones(num_rows, dtype=np.float64)
        self._effective_out_degree: np.ndarray | None = None

    @property
    def num_rows(self) -> int:
        """Number of simultaneous sources ``B``."""
        return self.sources.shape[0]

    @property
    def r_sum(self) -> np.ndarray:
        """Per-row residue mass (the incremental l1-error bounds)."""
        return self._r_sum

    def refresh_r_sum(self, row: int) -> float:
        """Recompute one row's ``r_sum`` exactly from its residue row.

        Summed per row (a contiguous length-``n`` view) so the pairwise
        reduction matches :meth:`PushState.refresh_r_sum` bitwise.
        """
        self._r_sum[row] = float(self.residue[row].sum())
        return self._r_sum[row]

    def note_r_sum_delta(self, row: int, delta: float) -> None:
        """Adjust one row's cached ``r_sum`` (vectorised kernels)."""
        self._r_sum[row] += delta

    @property
    def effective_out_degree(self) -> np.ndarray:
        """Shared conceptual out-degrees (see :func:`effective_out_degree`)."""
        if self._effective_out_degree is None:
            self._effective_out_degree = effective_out_degree(
                self.graph, self.dead_end_policy
            )
        return self._effective_out_degree

    def active_masks(
        self, rows: np.ndarray, threshold_vec: np.ndarray
    ) -> np.ndarray:
        """Per-row activity masks of ``rows`` against one threshold vector.

        One broadcast compare over the ``(len(rows), n)`` sub-block —
        elementwise, hence bitwise-identical to the per-source
        ``residue > threshold_vec`` test.
        """
        if rows.shape[0] == self.num_rows and bool(
            (rows == np.arange(self.num_rows)).all()
        ):
            return self.residue > threshold_vec
        return self.residue[rows] > threshold_vec[None, :]

    def count_bulk_pushes(
        self, rows: np.ndarray, num_nodes, num_updates
    ) -> None:
        """Bill a vectorised push round to each row in ``rows``.

        ``num_nodes``/``num_updates`` are scalars or per-row arrays;
        integer arithmetic, so exactly what per-row
        :meth:`PushCounters.count_bulk_pushes` calls would record.
        """
        self.pushes[rows] += num_nodes
        self.residue_updates[rows] += num_updates

    def row_counters(self, row: int) -> PushCounters:
        """One row's instrumentation as a :class:`PushCounters`.

        ``epochs`` appears in ``extras`` only once the row entered the
        scan phase, matching when the single-source loop first bumps
        it.
        """
        counters = PushCounters(
            pushes=int(self.pushes[row]),
            residue_updates=int(self.residue_updates[row]),
            queue_appends=int(self.queue_appends[row]),
        )
        if self.epochs[row]:
            counters.extras["epochs"] = int(self.epochs[row])
        return counters

    def mass_total(self, row: int) -> float:
        """``sum(reserve) + sum(residue)`` of one row (invariant check)."""
        return float(self.reserve[row].sum() + self.residue[row].sum())
