"""Vectorised push kernels shared by the algorithm implementations.

Every push-family algorithm in the paper reduces to three bulk moves:

* a **global sweep** — push *every* node simultaneously; this is one
  Power-Iteration step: one sparse mat-vec (a gather over ``P^T``'s
  CSR rows) plus a few ``O(n)`` passes, ``O(m + n)`` regardless of how
  much residue exists;
* a **frontier push** — push only a given set of nodes; this costs
  ``O(sum of frontier degrees)`` plus an ``O(n)`` scatter (a gather of
  the frontier's adjacency ranges followed by one ``bincount``), at a
  much higher constant per edge than the mat-vec;
* a **chunked-asynchronous pass** — push every residue-holding node,
  chunk by chunk, in place (:func:`chunked_sweep`).

Cost model of the chunked pass.  The graph's chunk table
(:meth:`~repro.graph.digraph.DiGraph.push_chunks`) cuts the node range
into ``K`` contiguous chunks of about ``CHUNK_EDGE_BUDGET`` edges plus
nodes (~32k: the chunk's index slice, share vector and most residue
entries it touches stay L2-resident).  Each chunk is one scatter
(``csc_matvec`` over its out-edge CSR rows, i.e. the CSC columns of its
``P^T`` block) plus a handful of ``O(chunk)`` passes, so a whole pass
costs the same ``O(m + n)`` as a global sweep plus ``K`` interpreter
round trips (a few µs each); the scatter's random writes make it about
20% slower per edge than the mat-vec's gather (1.44 vs 1.22 ms per
pass at 1M edges on a 2-vCPU Xeon VM).  What it buys is
freshness: a chunk pushes the mass earlier chunks of the same pass
deposited — the asynchronous scan of the paper's Section 5, which
reuses new residue instead of waiting a full pass for it — and the
pass stops at the first chunk that meets the caller's target.  On a
1M-edge R-MAT graph (n = 47.5k, K = 33) PowerPush's scan needs 4.4e7
residue updates this way against 8.0e7 with global sweeps.  A
single-chunk table (graphs under the budget) gets the global sweep
itself, which is the same pass.

The switch between the local and global moves is the paper's "global
sequential scan vs. local random access" trade-off (Section 5): for
small frontiers the gather/scatter wins; once the frontier covers a
sizeable fraction of the graph the contiguous passes are faster.
:func:`sweep_active` chooses between frontier push and global sweep by
frontier size; PowerPush's scan phase chooses between frontier push and
chunked pass by the frontier's node and edge counts.

The frontier push and the global sweep are *simultaneous*:
contributions are computed from the residues at entry.  The chunked
pass is simultaneous within a chunk and asynchronous across chunks.
All kernels mutate the :class:`PushState` in place and keep its ``r_sum``
and counters up to date.

Block (multi-source) kernels and their cost model
-------------------------------------------------
Each kernel has a block variant operating on a
:class:`~repro.core.residues.BlockPushState` with ``B`` residue rows.
Amortising the adjacency scan over simultaneous sources changes the
constants, not the asymptotics:

* :func:`block_global_sweep` is one sparse *mat-mat* ``P^T @ R^T``
  instead of ``B`` mat-vecs.  The ``O(m)`` pass over the CSR arrays —
  the memory-bound part — is paid **once** for all ``B`` rows; each
  nonzero touched streams ``B`` contiguous residue values, so the cost
  is ``O(m + m·B)`` flops behind a single ``O(m)`` index scan instead
  of ``B`` separate scans.
* :func:`block_chunked_sweep` does the same per chunk with
  ``csc_matvecs`` on an ``(n, B)`` transposed copy of the rows: one
  index scan per chunk for all rows, plus one ``O(chunk · B)``
  transposing copy per chunk so that each row's chunk mass is summed
  exactly as the single-source pass sums it.  A row whose own pass has
  met its target pushes exact zeros for the rest of the block's pass.
* :func:`block_frontier_push` gathers the adjacency ranges of the
  **union** frontier once (``O(sum of union degrees)``) and scatters
  all rows through one flat 2-D ``bincount`` over ``row * n + target``
  indexes.  Rows pay only for their *own* active nodes' shares; nodes
  active in no row contribute exact ``+0.0`` terms, which keeps every
  row bitwise-identical to an independent single-source push while the
  index arithmetic is shared.  Its ``(B x total)`` staging matrices
  make it the block path's largest memory user.

Scratch buffers: the frontier kernels accept an optional
:class:`~repro.core.workspace.Workspace`; callers that push in a loop
(the solvers) thread one through so the frontier-sized temporaries are
reused instead of reallocated every call.  This and the bitwise gather
discipline above are enforced mechanically: ``repro-ppr lint``
(``repro.analysis``) checks ``workspace-discipline`` and
``no-column-fancy-gather`` on every CI run — see CONTRIBUTING.md for
the invariant -> rule table.

Empty frontiers: a push with no nodes (or a block push with no active
mask) returns immediately without requesting a single workspace
buffer, so late epochs that probe an exhausted frontier cost nothing.
"""

from __future__ import annotations

import numpy as np

from repro.core.residues import BlockPushState, PushState
from repro.core.workspace import Workspace

# scipy's compiled sparse mat-vec loops, called directly: at
# serving-size graphs the dispatch layers of ``P^T.dot`` cost about as
# much as the arithmetic.
from scipy.sparse._sparsetools import (
    csc_matvec as _csc_matvec,
    csc_matvecs as _csc_matvecs,
    csr_matvec as _csr_matvec,
    csr_matvecs as _csr_matvecs,
)

__all__ = [
    "frontier_edge_targets",
    "global_sweep",
    "frontier_push",
    "sweep_active",
    "chunked_sweep",
    "block_global_sweep",
    "block_frontier_push",
    "block_chunked_sweep",
]

_add_reduce = np.add.reduce

# Fraction of all nodes above which `sweep_active` abandons the
# gather/scatter path for the contiguous mat-vec.  Mirrors PowerPush's
# scan_threshold = n/4 default; PowerPush's scan phase applies it to
# the frontier's edges as well.
DENSE_SWEEP_FRACTION = 0.25

# Shared zero-length results for the empty-frontier fast paths: late
# epochs probe exhausted/dead frontiers often, and those probes should
# allocate nothing at all (see the regression tests).
_EMPTY_INT32 = np.empty(0, dtype=np.int32)
_EMPTY_INT32.flags.writeable = False
_EMPTY_INT64 = np.empty(0, dtype=np.int64)
_EMPTY_INT64.flags.writeable = False


def frontier_edge_targets(
    graph, nodes: np.ndarray, *, workspace: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the out-adjacency lists of ``nodes``.

    Returns ``(targets, counts)`` where ``targets`` is the concatenation
    of each node's out-neighbour list (in node order) and ``counts``
    holds each node's out-degree.  This is the vectorised "multi-range
    gather" that replaces the per-node random access of the scalar push
    loop.

    The gather positions are built by an in-place boundary-delta cumsum
    (first element of each range, ``+1`` within a range) instead of the
    old ``np.repeat`` + ``np.arange`` construction, which materialised
    three extra ``O(total)`` temporaries on every call.  With a
    ``workspace`` the position and target arrays are pooled scratch
    buffers — the returned ``targets`` is then only valid until the
    next workspace request, so consume it before pushing again.
    """
    if nodes.shape[0] == 0:
        # Fast path: no nodes means no gather — return shared empties
        # without touching the workspace or allocating.
        return _EMPTY_INT32, _EMPTY_INT64
    indptr = graph.out_indptr
    starts = indptr[nodes]
    counts = (indptr[nodes + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_INT32, counts

    if workspace is not None:
        positions = workspace.buffer("gather_positions", total, np.int64)
    else:
        positions = np.empty(total, dtype=np.int64)
    live = counts > 0
    starts_live = starts[live]
    # Fully written below ([0] then the cumsum), so empty scratch is safe.
    offsets_live = _scratch(
        workspace, "gather_offsets", starts_live.shape[0], np.int64
    )
    offsets_live[0] = 0
    np.cumsum(counts[live][:-1], out=offsets_live[1:])
    # positions = cumsum of [start_0, 1, 1, ..., jump_1, 1, 1, ...]
    # where jump_k re-bases the running value onto range k's start.
    positions[:] = 1
    positions[0] = starts_live[0]
    if starts_live.shape[0] > 1:
        range_ends = starts_live[:-1] + np.diff(offsets_live)
        positions[offsets_live[1:]] = starts_live[1:] - range_ends + 1
    np.cumsum(positions, out=positions)

    if workspace is not None:
        targets = workspace.buffer(
            "gather_targets", total, graph.out_indices.dtype
        )
        np.take(graph.out_indices, positions, out=targets)
    else:
        targets = graph.out_indices[positions]
    return targets, counts


def global_sweep(
    state: PushState,
    *,
    count_all_edges: bool = True,
) -> None:
    """One simultaneous push of every node — a Power-Iteration step.

    ``pi_hat += alpha * r`` and ``r <- (1 - alpha) * r P`` via the
    cached transposed transition matrix; dead-end mass follows the
    state's policy.

    Parameters
    ----------
    count_all_edges:
        When True (PowItr semantics) the sweep is billed ``m`` residue
        updates — the global approach touches every edge.  When False
        (SimFwdPush semantics) only the out-degrees of nodes holding
        residue are billed.
    """
    graph = state.graph
    r = state.residue
    alpha = state.alpha

    state.reserve += alpha * r
    matrix = graph.transition_matrix_transpose()
    n = graph.num_nodes
    scaled = (1.0 - alpha) * r
    moved = np.zeros(n, dtype=np.float64)
    _csr_matvec(
        n, n, matrix.indptr, matrix.indices, matrix.data, scaled, moved
    )

    dead = graph.dead_ends
    dead_mass = 0.0
    if dead.shape[0]:
        dead_mass = (1.0 - alpha) * float(r[dead].sum())

    if count_all_edges:
        state.counters.count_bulk_pushes(graph.num_nodes, graph.num_edges)
    else:
        holders = r > 0.0
        state.counters.count_bulk_pushes(
            int(np.count_nonzero(holders)),
            int(np.dot(graph.out_degree, holders)),
        )

    state.residue = moved
    _apply_dead_end_mass(state, dead_mass)
    state.refresh_r_sum()


def frontier_push(
    state: PushState,
    nodes: np.ndarray,
    *,
    workspace: Workspace | None = None,
) -> None:
    """Simultaneously push exactly ``nodes`` (gather/scatter path).

    Contributions are based on the residues at entry; the pushed nodes'
    residues are zeroed first so self-loop edges re-deposit correctly.

    An empty ``nodes`` returns before requesting any workspace buffer
    (the empty-frontier fast path late epochs rely on).
    """
    if nodes.shape[0] == 0:
        return
    graph = state.graph
    alpha = state.alpha
    r_pushed = state.residue[nodes].copy()
    pushed_mass = float(r_pushed.sum())

    state.reserve[nodes] += alpha * r_pushed
    state.residue[nodes] = 0.0

    targets, counts = frontier_edge_targets(graph, nodes, workspace=workspace)
    live = counts > 0
    if targets.shape[0]:
        shares = _scratch(workspace, "frontier_shares", nodes.shape[0], np.float64)
        shares[:] = 0.0
        shares[live] = (1.0 - alpha) * r_pushed[live] / counts[live]
        contributions = np.repeat(shares, counts)
        state.residue += np.bincount(
            targets, weights=contributions, minlength=graph.num_nodes
        )

    dead_mass = (1.0 - alpha) * float(r_pushed[~live].sum())
    num_dead = int((~live).sum())
    state.counters.count_bulk_pushes(
        nodes.shape[0], int(targets.shape[0]) + num_dead
    )
    _apply_dead_end_mass(state, dead_mass)
    state.note_r_sum_delta(-alpha * pushed_mass)


def sweep_active(
    state: PushState,
    r_max: float,
    *,
    dense_fraction: float = DENSE_SWEEP_FRACTION,
    threshold_vec: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> int:
    """Push all currently-active nodes once; return how many were pushed.

    Chooses between the local gather/scatter path and the global path
    depending on the frontier size — the vectorised analog of
    PowerPush's queue-vs-sequential-scan switch.  The global path
    pushes *every* residue-holding node (not only the active ones):
    a full sweep costs exactly one mat-vec, whereas masking costs the
    same mat-vec plus several ``O(n)`` passes, so once the frontier is
    wide the unmasked sweep strictly dominates.  Pushing an inactive
    node is always legal (it only converts more residue), so the
    l1-error guarantee is unaffected.

    Parameters
    ----------
    threshold_vec:
        Optional precomputed ``out_degree * r_max`` array.  Callers
        that sweep repeatedly at a fixed ``r_max`` (epoch loops) pass
        it to avoid recomputing the products every sweep.
    """
    graph = state.graph
    if threshold_vec is None:
        active = state.active_mask(r_max)
    else:
        active = state.residue > threshold_vec
    num_active = int(np.count_nonzero(active))
    if num_active == 0:
        return 0

    if num_active <= dense_fraction * graph.num_nodes:
        frontier_push(state, np.flatnonzero(active), workspace=workspace)
    else:
        global_sweep(state, count_all_edges=False)
    return num_active


def chunked_sweep(
    state: PushState,
    *,
    stop_at: float = 0.0,
    workspace: Workspace | None = None,
) -> None:
    """One chunked-asynchronous pass over every residue-holding node.

    Walks the graph's chunk table (:meth:`DiGraph.push_chunks`, node
    ranges of about equal edge count) in node order.  Each chunk is
    pushed simultaneously — its residues are recorded and zeroed, then
    one ``csc_matvec`` over its out-edge CSR rows scatters the
    degree-scaled shares into ``r`` in place — so every later chunk of
    the same pass pushes the mass earlier chunks just deposited: the
    Gauss-Seidel flavour of the paper's asynchronous sequential scan,
    at chunk rather than node granularity.  Dead-end mass is routed
    per chunk under the state's policy.

    The pass stops after the first chunk at which the running residue
    mass falls to ``stop_at`` or below (``0`` never stops early), then
    settles the reserves, bills each pushed holder by its out-degree
    (SimFwdPush semantics, as in :func:`global_sweep`) and re-certifies
    ``r_sum`` with :meth:`PushState.refresh_r_sum`.  A graph whose
    table holds a single chunk gets :func:`global_sweep` instead: that
    is the same pass, and the mat-vec's gather is cheaper than the
    scatter.
    """
    graph = state.graph
    table = graph.push_chunks()
    if len(table.chunks) == 1:
        global_sweep(state, count_all_edges=False)
        return
    n = graph.num_nodes
    alpha = state.alpha
    r = state.residue
    # Residue each node was pushed with this pass (fully written up to
    # ``reached`` before anything reads it, so empty scratch is safe).
    pushed = _scratch(workspace, "chunk_pushed", n, np.float64)
    shares = _scratch(workspace, "chunk_shares", n, np.float64)
    np.multiply(table.inv_degree, 1.0 - alpha, out=shares)
    running = state.r_sum
    reached = n
    for begin, end, indptr, indices, weights, dead in table.chunks:
        chunk = pushed[begin:end]
        chunk[:] = r[begin:end]
        r[begin:end] = 0.0
        # shares holds (1 - alpha) / d_v until its chunk turns it into
        # the chunk's per-edge shares.
        share = shares[begin:end]
        share *= chunk
        _csc_matvec(n, end - begin, indptr, indices, weights, share, r)
        if dead.shape[0]:
            _apply_dead_end_mass(
                state, (1.0 - alpha) * float(pushed[dead].sum())
            )
        running -= alpha * float(_add_reduce(chunk))
        if running <= stop_at:
            reached = end
            break
    done = pushed[:reached]
    state.reserve[:reached] += alpha * done
    holders = done > 0.0
    state.counters.count_bulk_pushes(
        int(np.count_nonzero(holders)),
        int(np.dot(graph.out_degree[:reached], holders)),
    )
    state.refresh_r_sum()


def _apply_dead_end_mass(state: PushState, dead_mass: float) -> None:
    """Route mass emitted by dead ends according to the state's policy."""
    if dead_mass == 0.0:
        return
    if state.dead_end_policy == "redirect-to-source":
        state.residue[state.source] += dead_mass
    elif state.dead_end_policy == "uniform-teleport":
        state.residue += dead_mass / state.graph.num_nodes
    else:  # self-loop handled structurally; mass cannot appear here
        raise AssertionError(
            "structural self-loop graphs cannot emit dead-end mass"
        )


# ----------------------------------------------------------------------
# Block (multi-source) kernels
# ----------------------------------------------------------------------
# Bitwise-equality discipline: every per-row float value below is
# produced by the same operation sequence the single-source kernels
# apply — compact gathers of a row's own active nodes for the sums
# (never masked sums, whose pairwise grouping differs), elementwise
# broadcasts for the products, and scatters whose only extra terms are
# exact ``+0.0`` additions.  The sparse mat-mat accumulates each output
# column over the same nonzeros in the same order as the mat-vec, so it
# is bitwise-identical per column.  The equivalence tests pin all of
# this down.


def _scratch(
    workspace: Workspace | None, key: str, size: int, dtype
) -> np.ndarray:
    """A pooled buffer when a workspace is threaded, else a fresh one."""
    if workspace is not None:
        return workspace.buffer(key, size, dtype)
    return np.empty(size, dtype=dtype)


def _is_identity(rows: np.ndarray, num_rows: int) -> bool:
    """Whether ``rows`` is exactly ``0..num_rows-1`` in order.

    The O(B) check guards the in-place whole-block fast paths: a
    permuted (or duplicated) full-size ``rows`` must take the general
    gather path, otherwise per-row quantities would be routed to the
    wrong rows.
    """
    return rows.shape[0] == num_rows and bool(
        (rows == np.arange(num_rows)).all()
    )


def _block_propagate(
    graph, scaled: np.ndarray, workspace: Workspace | None
) -> np.ndarray:
    """``P^T @ scaled.T`` into pooled buffers; returns the ``(n, R)`` result.

    Calls the same scipy CSR kernel ``P^T.dot`` dispatches to
    (``csr_matvecs`` accumulates each output column over the nonzeros
    in mat-vec order, so columns are bitwise mat-vec results), but
    skips the dispatch layers and reuses the transpose/result scratch
    — at serving-size graphs those per-call costs rival the numeric
    work.  The result is only valid until the next call with the same
    workspace.
    """
    matrix = graph.transition_matrix_transpose()
    num_rows, n = scaled.shape
    if workspace is None:
        return matrix.dot(np.ascontiguousarray(scaled.T))
    operand = workspace.buffer2d("matmat_in", n, num_rows)
    operand[:] = scaled.T
    moved = workspace.buffer2d("matmat_out", n, num_rows)
    moved[:] = 0.0
    _csr_matvecs(
        n,
        n,
        num_rows,
        matrix.indptr,
        matrix.indices,
        matrix.data,
        operand.reshape(-1),
        moved.reshape(-1),
    )
    return moved


def block_global_sweep(
    state: BlockPushState,
    rows: np.ndarray,
    *,
    count_all_edges: bool = False,
    workspace: Workspace | None = None,
) -> None:
    """One Power-Iteration step for every row in ``rows`` at once.

    One sparse mat-mat with the cached ``P^T`` replaces ``len(rows)``
    mat-vecs: the CSR index scan — the memory-bound part of a sweep —
    is paid once for the whole block.
    """
    if rows.shape[0] == 0:
        return
    graph = state.graph
    alpha = state.alpha
    # Sweeping the whole block in order (the common lockstep case)
    # works on the matrices in place; a strict subset — or a permuted
    # full set — pays one gather/scatter pair.
    whole_block = _is_identity(rows, state.num_rows)
    r_block = state.residue if whole_block else state.residue[rows]

    if whole_block:
        state.reserve += alpha * r_block
    else:
        state.reserve[rows] += alpha * r_block
    scaled = (1.0 - alpha) * r_block
    # One O(m) scan of the CSR arrays serves every row: the mat-mat
    # streams each nonzero's len(rows) right-hand values contiguously,
    # and the per-column accumulation order matches the mat-vec's, so
    # each row lands bitwise where its own mat-vec would.
    moved = _block_propagate(graph, scaled, workspace)

    dead = graph.dead_ends
    dead_masses = None
    if dead.shape[0]:
        # C-contiguous (R, D) compact gather (np.take; the plain
        # ``[:, dead]`` fancy index yields a transposed buffer whose
        # strided rows reduce *sequentially*, not pairwise): each row
        # of the row-wise reduction is then the same pairwise sum over
        # the same 1-D values the single-source kernel reduces.
        dead_masses = (1.0 - alpha) * np.take(r_block, dead, axis=1).sum(
            axis=1
        )

    if count_all_edges:
        state.count_bulk_pushes(rows, graph.num_nodes, graph.num_edges)
    else:
        # Billing is integer arithmetic — vectorising it across rows is
        # exact by construction.
        holders = r_block > 0.0
        state.count_bulk_pushes(
            rows,
            np.count_nonzero(holders, axis=1),
            holders @ graph.out_degree,
        )

    if whole_block:
        state.residue[:] = moved.T
    else:
        state.residue[rows] = moved.T
    if dead_masses is not None:
        policy = state.dead_end_policy
        if policy == "redirect-to-source":
            state.residue[rows, state.sources[rows]] += dead_masses
        elif policy == "uniform-teleport":
            if whole_block:
                state.residue += (dead_masses / graph.num_nodes)[:, None]
            else:
                state.residue[rows] += (
                    dead_masses / graph.num_nodes
                )[:, None]
        elif np.any(dead_masses != 0.0):
            # self-loop handled structurally; mass cannot appear here
            raise AssertionError(
                "structural self-loop graphs cannot emit dead-end mass"
            )
    # One row-wise reduction replaces per-row refresh calls;
    # bitwise-equal to summing each contiguous row on its own.
    if whole_block:
        state.r_sum[:] = state.residue.sum(axis=1)
    else:
        state.r_sum[rows] = state.residue[rows].sum(axis=1)


def block_frontier_push(
    state: BlockPushState,
    rows: np.ndarray,
    masks: np.ndarray,
    *,
    workspace: Workspace | None = None,
) -> None:
    """Push each row's own frontier through one shared gather/scatter.

    Parameters
    ----------
    rows:
        Row indices into the block, aligned with ``masks``.
    masks:
        ``(len(rows), n)`` boolean matrix; ``masks[i]`` is row
        ``rows[i]``'s frontier.  Every row must have at least one
        active node (callers filter empty frontiers, mirroring the
        single-source kernel's early return).

    The adjacency ranges of the **union** frontier are gathered once;
    rows scatter through a single flat ``bincount`` over
    ``local_row * n + target`` indexes.  A union node inactive in some
    row contributes an exact ``+0.0`` there, so each row's result is
    bitwise what :func:`frontier_push` on its own frontier produces.

    An empty ``rows`` (or all-empty ``masks``) returns without
    requesting any workspace buffer.
    """
    if rows.shape[0] == 0:
        return
    graph = state.graph
    alpha = state.alpha
    n = graph.num_nodes
    num_rows = rows.shape[0]

    # Row-major nonzero: per row, active columns ascending — the exact
    # node order the single-source kernel pushes in.
    local_rows, cols = np.nonzero(masks)
    if cols.shape[0] == 0:
        return
    global_rows = rows[local_rows]
    r_pushed = state.residue[global_rows, cols]
    degrees = graph.out_degree[cols]
    live = degrees > 0

    # Per-row segment boundaries within the flattened (row, col) pairs.
    frontier_sizes = np.count_nonzero(masks, axis=1)
    segments = _scratch(workspace, "block_segments", num_rows + 1, np.int64)
    segments[0] = 0
    np.cumsum(frontier_sizes, out=segments[1:])

    state.reserve[global_rows, cols] += alpha * r_pushed
    state.residue[global_rows, cols] = 0.0

    union_mask = masks.any(axis=0)
    union_nodes = np.flatnonzero(union_mask)
    targets, counts = frontier_edge_targets(
        graph, union_nodes, workspace=workspace
    )
    total = int(targets.shape[0])
    if total:
        # Shares are laid out over the *live* union nodes only: a dead
        # union node contributes no edges, so the single-source
        # ``np.repeat(shares, counts)`` skips it anyway and the
        # per-edge values are identical.  Building contributions as a
        # gather (share of the edge's owner) instead of a repeat lets
        # the big (R x total) weight matrix live in pooled scratch.
        live_union = counts > 0
        live_nodes = union_nodes[live_union]
        num_live = live_nodes.shape[0]
        live_positions = np.searchsorted(live_nodes, cols[live])

        shares = _scratch(
            workspace, "push_shares", num_rows * num_live, np.float64
        ).reshape(num_rows, num_live)
        shares[:] = 0.0
        shares[local_rows[live], live_positions] = (
            (1.0 - alpha) * r_pushed[live] / degrees[live]
        )

        # edge -> live-owner index, by the same boundary-delta cumsum
        # trick the gather uses (0 within a range, +1 at boundaries).
        edge_owner = _scratch(workspace, "scatter_owner", total, np.int64)
        edge_owner[:] = 0
        live_counts = counts[live_union]
        if num_live > 1:
            # Fully written by the cumsum, so empty scratch is safe.
            bounds = _scratch(
                workspace, "scatter_bounds", num_live - 1, np.int64
            )
            np.cumsum(live_counts[:-1], out=bounds)
            edge_owner[bounds] = 1
            edge_owner[0] = 0
            np.cumsum(edge_owner, out=edge_owner)
        weights = _scratch(
            workspace, "scatter_weights", num_rows * total, np.float64
        ).reshape(num_rows, total)
        np.take(shares, edge_owner, axis=1, out=weights)

        flat_targets = _scratch(
            workspace, "scatter_targets", num_rows * total, np.int64
        )
        flat_view = flat_targets.reshape(num_rows, total)
        flat_view[:] = targets[None, :]
        flat_view += (np.arange(num_rows, dtype=np.int64) * n)[:, None]
        scattered = np.bincount(
            flat_targets,
            weights=weights.reshape(-1),
            minlength=num_rows * n,
        ).reshape(num_rows, n)
        state.residue[rows] += scattered

    # Billing vectorises (integers); the residue-mass sums stay per-row
    # compact-slice reductions of the grouped gather — identical 1-D
    # arrays (hence identical pairwise sums) to what the single-source
    # kernel reduces.
    any_dead = bool(np.any(~live))
    dead_counts = (
        np.bincount(local_rows[~live], minlength=num_rows)
        if any_dead
        else 0
    )
    degree_sums = np.add.reduceat(degrees, segments[:-1])
    state.count_bulk_pushes(rows, frontier_sizes, degree_sums + dead_counts)
    dead_in_row = ~live
    for position in range(num_rows):
        begin, end = int(segments[position]), int(segments[position + 1])
        row = int(rows[position])
        row_r = r_pushed[begin:end]
        pushed_mass = float(row_r.sum())
        if any_dead:
            row_dead = dead_in_row[begin:end]
            dead_mass = (1.0 - alpha) * float(row_r[row_dead].sum())
            _apply_block_dead_end_mass(state, row, dead_mass)
        state.note_r_sum_delta(row, -alpha * pushed_mass)


def block_chunked_sweep(
    state: BlockPushState,
    rows: np.ndarray,
    *,
    stop_at: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> None:
    """One :func:`chunked_sweep` pass for every row in ``rows`` at once.

    The rows' residues are transposed into the workspace's ``(n, R)``
    operand, and each chunk scatters all of them with one
    ``csc_matvecs``, so the chunk's index scan is paid once for the
    block.  ``stop_at`` (aligned with ``rows``; ``None`` never stops
    early) ends each row's pass at the chunk where its own single-source
    pass would end: from then on the row pushes exact zeros, which
    leave its residues, reserves and bills untouched.  Every per-row
    float value follows the single-source operation sequence, so each
    row stays bitwise-equal to an independent :func:`chunked_sweep`
    (a single-chunk table runs :func:`block_global_sweep`, mirroring
    it).
    """
    if rows.shape[0] == 0:
        return
    graph = state.graph
    table = graph.push_chunks()
    if len(table.chunks) == 1:
        block_global_sweep(
            state, rows, count_all_edges=False, workspace=workspace
        )
        return
    n = graph.num_nodes
    alpha = state.alpha
    num_rows = rows.shape[0]
    whole_block = _is_identity(rows, state.num_rows)
    work = _scratch(workspace, "matmat_out", n * num_rows, np.float64)
    work = work.reshape(n, num_rows)
    work[:] = (state.residue if whole_block else state.residue[rows]).T
    operand = _scratch(workspace, "matmat_in", n * num_rows, np.float64)
    pushed = _scratch(workspace, "chunk_pushed", n * num_rows, np.float64)
    pushed = pushed.reshape(n, num_rows)
    widest = max(end - begin for begin, end, *_ in table.chunks)
    # Row-major copy of one chunk's pushes: its row sums are pairwise
    # over contiguous values, bitwise what the single-source 1-D chunk
    # sums give (a column sum of ``pushed`` would add sequentially).
    by_row = _scratch(workspace, "chunk_rows", num_rows * widest, np.float64)
    scale = _scratch(workspace, "chunk_shares", n, np.float64)
    np.multiply(table.inv_degree, 1.0 - alpha, out=scale)
    policy = state.dead_end_policy
    columns = np.arange(num_rows)
    running = state.r_sum[rows].copy()
    stopped = _scratch(workspace, "chunk_stopped", num_rows, np.bool_)
    stopped[:] = False
    any_stopped = False
    reached = n
    for begin, end, indptr, indices, weights, dead in table.chunks:
        width = end - begin
        chunk = pushed[begin:end]
        chunk[:] = work[begin:end]
        if any_stopped:
            # Stopped rows push exact zeros (x * 0.0): y - 0 keeps their
            # residues, y - y zeroes the others.
            chunk *= ~stopped
            work[begin:end] -= chunk
        else:
            work[begin:end] = 0.0
        shares = operand[: width * num_rows].reshape(width, num_rows)
        np.multiply(chunk, scale[begin:end, None], out=shares)
        _csc_matvecs(
            n, width, num_rows, indptr, indices, weights,
            shares.reshape(-1), work.reshape(-1),
        )
        if dead.shape[0]:
            dead_masses = (1.0 - alpha) * np.ascontiguousarray(
                np.take(pushed, dead, axis=0).T
            ).sum(axis=1)
            if policy == "redirect-to-source":
                work[state.sources[rows], columns] += dead_masses
            elif policy == "uniform-teleport":
                work += (dead_masses / n)[None, :]
            elif np.any(dead_masses != 0.0):
                raise AssertionError(
                    "structural self-loop graphs cannot emit dead-end mass"
                )
        chunk_rows = by_row[: num_rows * width].reshape(num_rows, width)
        np.copyto(chunk_rows, chunk.T)
        running -= alpha * chunk_rows.sum(axis=1)
        if stop_at is not None:
            stopped |= running <= stop_at
            any_stopped = bool(stopped.any())
            if stopped.all():
                reached = end
                break
    done = pushed[:reached]
    if whole_block:
        state.reserve[:, :reached] += alpha * done.T
        state.residue[:] = work.T
        state.r_sum[:] = state.residue.sum(axis=1)
    else:
        state.reserve[rows, :reached] += alpha * done.T
        state.residue[rows] = work.T
        state.r_sum[rows] = state.residue[rows].sum(axis=1)
    holders = done > 0.0
    state.count_bulk_pushes(
        rows,
        np.count_nonzero(holders, axis=0),
        graph.out_degree[:reached] @ holders,
    )


def _apply_block_dead_end_mass(
    state: BlockPushState, row: int, dead_mass: float
) -> None:
    """Route one row's dead-end mass according to the shared policy."""
    if dead_mass == 0.0:
        return
    if state.dead_end_policy == "redirect-to-source":
        state.residue[row, state.sources[row]] += dead_mass
    elif state.dead_end_policy == "uniform-teleport":
        state.residue[row] += dead_mass / state.graph.num_nodes
    else:  # self-loop handled structurally; mass cannot appear here
        raise AssertionError(
            "structural self-loop graphs cannot emit dead-end mass"
        )
