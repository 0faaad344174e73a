"""Immutable CSR directed graph used by every algorithm in this library.

The paper's algorithms (Power Iteration, Forward Push and their hybrids)
only ever need two access patterns:

* stream the out-neighbours of one node (``out_neighbors``), and
* stream *all* adjacency lists in node-id order (``out_indptr`` /
  ``out_indices``), which is the "large concatenated edge array" that
  Section 5 of the paper credits for PowerPush's cache-friendly
  sequential-scan phase.

Both are served by a Compressed Sparse Row (CSR) layout: ``out_indices``
concatenates the adjacency lists of nodes ``0..n-1`` and
``out_indptr[v]:out_indptr[v+1]`` delimits node ``v``'s list.  The
reverse (in-neighbour) CSR is built lazily because only a few consumers
(BePI's transposed system, graph statistics) require it.

Node ids are dense integers ``0..n-1``; use :mod:`repro.graph.cleaning`
to relabel arbitrary ids.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.errors import GraphConstructionError, NodeNotFoundError

__all__ = ["DiGraph", "PushChunks", "CHUNK_EDGE_BUDGET"]

#: Work budget of one chunk of the chunked-asynchronous scan
#: (:func:`repro.core.kernels.chunked_sweep`), counted as out-edges plus
#: one per node.  ~32k keeps a chunk's index slice, share vector and the
#: residue entries it touches L2-sized; far smaller chunks pay more
#: per-chunk interpreter overhead than the freshness they add.
CHUNK_EDGE_BUDGET = 32_768


class PushChunks(NamedTuple):
    """Contiguous node ranges of about equal work, for the chunked scan.

    ``chunks`` holds one ``(begin, end, indptr, indices, weights, dead)``
    tuple per range of nodes ``[begin, end)``: ``indptr`` is the range's
    out-CSR row pointer rebased to 0 (``int32``, as scipy's sparse
    kernels require it to match ``indices``), ``indices`` and
    ``weights`` are views of the graph's ``out_indices`` and of one
    shared unit-weight buffer, and ``dead`` lists the range's dead ends.
    The out-CSR rows of a range are the CSC columns of its ``P^T``
    block, so one ``csc_matvec`` over them scatters the range's
    degree-scaled residues.  ``inv_degree`` is ``1 / d_v`` (0 for dead
    ends).  No array here is ``O(m)``: the edge data are views.
    """

    chunks: tuple[
        tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...
    ]
    inv_degree: np.ndarray


class DiGraph:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    out_indptr:
        ``int64`` array of length ``n + 1``; monotone, starts at 0, ends
        at ``m``.
    out_indices:
        ``int32`` array of length ``m`` holding the concatenated
        out-adjacency lists.
    name:
        Optional human-readable name (dataset names use this).
    undirected_origin:
        True when the graph was produced by symmetrising an undirected
        edge list (as the paper does for DBLP and Orkut).  Only used for
        reporting (Table 1's "type" column).

    Notes
    -----
    Instances are *logically* immutable: the backing arrays are marked
    read-only, and derived structures (in-CSR, degree arrays) are cached.
    """

    __slots__ = (
        "_out_indptr",
        "_out_indices",
        "_n",
        "_m",
        "_name",
        "_undirected_origin",
        "_out_degree",
        "_in_degree",
        "_in_indptr",
        "_in_indices",
        "_dead_ends",
        "_pt_matrix",
        "_edge_sources",
        "_push_chunks",
    )

    def __init__(
        self,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        *,
        name: str = "",
        undirected_origin: bool = False,
        validate: bool = True,
    ) -> None:
        out_indptr = np.ascontiguousarray(out_indptr, dtype=np.int64)
        out_indices = np.ascontiguousarray(out_indices, dtype=np.int32)
        if validate:
            _validate_csr(out_indptr, out_indices)
        self._out_indptr = out_indptr
        self._out_indices = out_indices
        self._out_indptr.flags.writeable = False
        self._out_indices.flags.writeable = False
        self._n = int(out_indptr.shape[0] - 1)
        self._m = int(out_indices.shape[0])
        self._name = name
        self._undirected_origin = bool(undirected_origin)
        self._out_degree: np.ndarray | None = None
        self._in_degree: np.ndarray | None = None
        self._in_indptr: np.ndarray | None = None
        self._in_indices: np.ndarray | None = None
        self._dead_ends: np.ndarray | None = None
        self._pt_matrix = None
        self._edge_sources: np.ndarray | None = None
        self._push_chunks: PushChunks | None = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return self._m

    @property
    def name(self) -> str:
        """Dataset name, or an empty string."""
        return self._name

    @property
    def undirected_origin(self) -> bool:
        """Whether the graph came from symmetrising an undirected list."""
        return self._undirected_origin

    @property
    def average_degree(self) -> float:
        """``m / n`` — the density column of the paper's Table 1."""
        if self._n == 0:
            return 0.0
        return self._m / self._n

    @property
    def out_indptr(self) -> np.ndarray:
        """CSR row-pointer array (length ``n + 1``, read-only)."""
        return self._out_indptr

    @property
    def out_indices(self) -> np.ndarray:
        """CSR concatenated out-adjacency lists (length ``m``, read-only)."""
        return self._out_indices

    @property
    def out_degree(self) -> np.ndarray:
        """Out-degree of every node as an ``int64`` array (read-only)."""
        if self._out_degree is None:
            deg = np.diff(self._out_indptr)
            deg.flags.writeable = False
            self._out_degree = deg
        return self._out_degree

    @property
    def in_degree(self) -> np.ndarray:
        """In-degree of every node as an ``int64`` array (read-only)."""
        if self._in_degree is None:
            deg = np.bincount(self._out_indices, minlength=self._n).astype(np.int64)
            deg.flags.writeable = False
            self._in_degree = deg
        return self._in_degree

    @property
    def in_indptr(self) -> np.ndarray:
        """Row pointers of the in-neighbour (transposed) CSR."""
        self._ensure_in_csr()
        assert self._in_indptr is not None
        return self._in_indptr

    @property
    def in_indices(self) -> np.ndarray:
        """Concatenated in-adjacency lists of the transposed CSR."""
        self._ensure_in_csr()
        assert self._in_indices is not None
        return self._in_indices

    @property
    def dead_ends(self) -> np.ndarray:
        """Sorted array of node ids with out-degree zero (read-only)."""
        if self._dead_ends is None:
            ends = np.flatnonzero(self.out_degree == 0).astype(np.int32)
            ends.flags.writeable = False
            self._dead_ends = ends
        return self._dead_ends

    @property
    def has_dead_ends(self) -> bool:
        """True when at least one node has no out-neighbours."""
        return self.dead_ends.shape[0] > 0

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Return a read-only view of ``v``'s out-neighbour list."""
        self._check_node(v)
        return self._out_indices[self._out_indptr[v] : self._out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Return a read-only view of ``v``'s in-neighbour list."""
        self._check_node(v)
        self._ensure_in_csr()
        assert self._in_indptr is not None and self._in_indices is not None
        return self._in_indices[self._in_indptr[v] : self._in_indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True when the directed edge ``(u, v)`` exists.

        Adjacency lists are kept sorted by :mod:`repro.graph.build`, so
        this is a binary search; unsorted lists (possible when a caller
        hand-assembles CSR arrays) fall back to a linear scan.
        """
        neighbors = self.out_neighbors(u)
        self._check_node(v)
        if neighbors.shape[0] == 0:
            return False
        pos = np.searchsorted(neighbors, v)
        if pos < neighbors.shape[0] and neighbors[pos] == v:
            return True
        # Fallback for unsorted adjacency lists.
        return bool(np.any(neighbors == v))

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield every directed edge ``(u, v)`` in node-id order."""
        indptr, indices = self._out_indptr, self._out_indices
        for u in range(self._n):
            for pos in range(indptr[u], indptr[u + 1]):
                yield u, int(indices[pos])

    @property
    def edge_sources(self) -> np.ndarray:
        """Source node of every edge in CSR order (length ``m``, read-only).

        The flattened "which row does this edge belong to" gather
        index: ``edge_sources[e]`` is the node whose adjacency list
        contains position ``e`` of :attr:`out_indices`.  Cached because
        every consumer of edge-level views (``edge_array``, the in-CSR
        build, per-edge scatters) used to rebuild this ``O(m)`` repeat
        on each call.
        """
        if self._edge_sources is None:
            sources = np.repeat(
                np.arange(self._n, dtype=np.int32), np.diff(self._out_indptr)
            )
            sources.flags.writeable = False
            self._edge_sources = sources
        return self._edge_sources

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(sources, targets)`` arrays of all edges."""
        return self.edge_sources.copy(), self._out_indices.copy()

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraph":
        """Return the graph with every edge reversed."""
        self._ensure_in_csr()
        assert self._in_indptr is not None and self._in_indices is not None
        return DiGraph(
            self._in_indptr.copy(),
            self._in_indices.copy(),
            name=f"{self._name}-reversed" if self._name else "",
            undirected_origin=self._undirected_origin,
            validate=False,
        )

    def to_scipy_csr(self, weighted: bool = False):
        """Return the adjacency (or row-stochastic transition) matrix.

        Parameters
        ----------
        weighted:
            When True each row ``v`` is divided by ``d_v`` producing the
            transition matrix ``P`` of the paper (dead-end rows are all
            zero and must be handled by the caller's dead-end policy).
        """
        from scipy.sparse import csr_matrix

        if weighted:
            deg = self.out_degree
            weights = np.repeat(
                np.divide(
                    1.0,
                    deg,
                    out=np.zeros(self._n, dtype=np.float64),
                    where=deg > 0,
                ),
                deg,
            )
        else:
            weights = np.ones(self._m, dtype=np.float64)
        return csr_matrix(
            (weights, self._out_indices, self._out_indptr),
            shape=(self._n, self._n),
        )

    def transition_matrix_transpose(self):
        """Cached ``P^T`` as a scipy CSR matrix.

        ``(P^T @ r)[v] = sum_{u -> v} r[u] / d_u`` is the one-step
        forward propagation used by the vectorised Power-Iteration and
        sweep kernels.  Dead-end rows of ``P`` are zero; their mass must
        be handled by the caller's dead-end policy.
        """
        if self._pt_matrix is None:
            self._pt_matrix = self.to_scipy_csr(weighted=True).T.tocsr()
        return self._pt_matrix

    def pt_csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw ``(indptr, indices, data)`` of the cached ``P^T`` CSR.

        Shared-memory graph images copy these arrays directly instead
        of going through the scipy matrix object, sharing the one
        cached transpose.
        """
        matrix = self.transition_matrix_transpose()
        return matrix.indptr, matrix.indices, matrix.data

    def push_chunks(self) -> PushChunks:
        """Cached chunk table of the chunked-asynchronous scan.

        Cuts the node range where the running count of out-edges plus
        nodes crosses multiples of :data:`CHUNK_EDGE_BUDGET` (read when
        the table is first built), so every chunk carries about equal
        work; a node whose degree alone exceeds the budget gets a chunk
        of its own, and a long run of dead ends can form a chunk with
        no edges.
        """
        if self._push_chunks is None:
            self._push_chunks = self._build_push_chunks(CHUNK_EDGE_BUDGET)
        return self._push_chunks

    def warm_push_caches(self) -> "DiGraph":
        """Materialise every cached artefact the push kernels read.

        Touches the degree/dead-end arrays, the flattened
        :attr:`edge_sources` gather index, the transposed transition
        matrix and the chunk table, so a serving engine (or a benchmark
        that wants construction out of its timed region) pays them once
        up front instead of lazily inside the first query.  Returns
        ``self`` for chaining.
        """
        self.out_degree
        self.dead_ends
        self.edge_sources
        self.transition_matrix_transpose()
        self.push_chunks()
        return self

    def adopt_push_caches(
        self,
        *,
        pt_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        edge_sources: np.ndarray | None = None,
    ) -> "DiGraph":
        """Install pre-built push caches instead of computing them.

        The shared-memory serving path
        (:mod:`repro.serving.shm`) exports one process's warmed caches
        — the ``P^T`` CSR arrays and the flattened
        :attr:`edge_sources` gather index — and re-attaches them in
        worker processes as zero-copy views over the shared segment.
        This installs those views where the lazy properties would have
        cached freshly computed (and byte-identical) arrays, so no
        attacher pays the ``O(m)`` rebuild.

        Arrays are adopted as given (no copy); shapes are validated
        against the graph, and callers should pass read-only views.
        Returns ``self`` for chaining.
        """
        if pt_arrays is not None:
            indptr, indices, data = pt_arrays
            if indptr.shape != (self._n + 1,):
                raise GraphConstructionError(
                    f"P^T indptr has shape {indptr.shape}, "
                    f"expected ({self._n + 1},)"
                )
            if indices.shape != data.shape:
                raise GraphConstructionError(
                    f"P^T indices/data shapes differ: "
                    f"{indices.shape} vs {data.shape}"
                )
            from scipy.sparse import csr_matrix

            # No-copy when dtypes already match what scipy expects.
            self._pt_matrix = csr_matrix(
                (data, indices, indptr), shape=(self._n, self._n)
            )
        if edge_sources is not None:
            if edge_sources.shape != (self._m,):
                raise GraphConstructionError(
                    f"edge_sources has shape {edge_sources.shape}, "
                    f"expected ({self._m},)"
                )
            self._edge_sources = edge_sources
        return self

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self._name!r}" if self._name else ""
        return (
            f"DiGraph(n={self._n}, m={self._m}{label}, "
            f"avg_degree={self.average_degree:.2f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._m == other._m
            and np.array_equal(self._out_indptr, other._out_indptr)
            and np.array_equal(self._out_indices, other._out_indices)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._m, self._out_indices[: 64].tobytes()))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_node(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise NodeNotFoundError(
                f"node {v} is outside [0, {self._n}) for graph {self._name!r}"
            )

    def _build_push_chunks(self, budget: int) -> PushChunks:
        indptr = self._out_indptr
        work = indptr + np.arange(self._n + 1, dtype=np.int64)
        total = int(work[-1])
        num_chunks = max(1, -(-total // budget))
        marks = np.arange(1, num_chunks, dtype=np.int64) * total // num_chunks
        cuts = np.searchsorted(work, marks, side="left")
        bounds = np.unique(np.concatenate(([0], cuts, [self._n])))
        weights = np.ones(int(np.diff(indptr[bounds]).max(initial=0)))
        weights.flags.writeable = False
        dead = self.dead_ends
        dead_cuts = np.searchsorted(dead, bounds)
        chunks = []
        for k in range(bounds.shape[0] - 1):
            begin, end = int(bounds[k]), int(bounds[k + 1])
            low, high = int(indptr[begin]), int(indptr[end])
            rebased = (indptr[begin : end + 1] - low).astype(np.int32)
            rebased.flags.writeable = False
            chunks.append(
                (
                    begin,
                    end,
                    rebased,
                    self._out_indices[low:high],
                    weights[: high - low],
                    dead[dead_cuts[k] : dead_cuts[k + 1]],
                )
            )
        inv_degree = np.zeros(self._n, dtype=np.float64)
        np.divide(1.0, self.out_degree, out=inv_degree, where=self.out_degree > 0)
        inv_degree.flags.writeable = False
        return PushChunks(tuple(chunks), inv_degree)

    def _ensure_in_csr(self) -> None:
        if self._in_indptr is not None:
            return
        in_degree = np.bincount(self._out_indices, minlength=self._n)
        in_indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(in_degree, out=in_indptr[1:])
        in_indices = np.empty(self._m, dtype=np.int32)
        # Stable sort by target groups each node's in-neighbours in
        # source order; the cached edge_sources array supplies the
        # per-edge row labels without another O(m) repeat.
        order = np.argsort(self._out_indices, kind="stable")
        in_indices[:] = self.edge_sources[order]
        in_indptr.flags.writeable = False
        in_indices.flags.writeable = False
        self._in_indptr = in_indptr
        self._in_indices = in_indices


def _validate_csr(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise :class:`GraphConstructionError` on malformed CSR arrays."""
    if indptr.ndim != 1 or indptr.shape[0] < 1:
        raise GraphConstructionError("out_indptr must be a 1-D array of length n+1")
    if indices.ndim != 1:
        raise GraphConstructionError("out_indices must be a 1-D array")
    if indptr[0] != 0:
        raise GraphConstructionError("out_indptr must start at 0")
    if indptr[-1] != indices.shape[0]:
        raise GraphConstructionError(
            f"out_indptr ends at {int(indptr[-1])} but there are "
            f"{indices.shape[0]} edges"
        )
    if np.any(np.diff(indptr) < 0):
        raise GraphConstructionError("out_indptr must be non-decreasing")
    n = indptr.shape[0] - 1
    if indices.shape[0] and (indices.min() < 0 or indices.max() >= n):
        raise GraphConstructionError(
            f"edge targets must lie in [0, {n}); found range "
            f"[{int(indices.min())}, {int(indices.max())}]"
        )
