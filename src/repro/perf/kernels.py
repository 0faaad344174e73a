"""Block-kernel benchmark: batched PowerPush vs the per-source loop.

Measures the tentpole claim of the multi-source kernel layer on one
serving-sized R-MAT graph: answering ``B`` high-precision queries with
one :func:`~repro.core.powerpush.power_push_block` solve versus looping
:meth:`~repro.api.engine.PPREngine.batch_query` one source at a time.
For every batch size it reports

* wall seconds of both paths and their ratio (the headline speedup),
* nanoseconds per residue update on the block path (the ns/edge cost
  the paper's operation counting normalises by),
* scratch-buffer reuse from the threaded
  :class:`~repro.core.workspace.Workspace` (allocation churn next to
  the timing numbers, so regressions in either show up together), and
* whether every block row is element-wise identical to its independent
  solve — the correctness half, which CI treats as blocking while the
  timing half is informational.

Consumed by ``benchmarks/bench_kernels.py --smoke`` (the CI artifact
``results/BENCH_kernels.json``) and ``repro-ppr bench-kernels``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.api.engine import PPREngine
from repro.core.powerpush import power_push_block
from repro.core.workspace import Workspace
from repro.durability.atomic import atomic_write_json
from repro.errors import ParameterError
from repro.generators.rmat import rmat_digraph

__all__ = [
    "KernelBatchMetrics",
    "KernelBenchReport",
    "run_kernel_bench",
]


@dataclass
class KernelBatchMetrics:
    """Measurements for one batch size ``B``."""

    batch_size: int
    seconds_loop: float
    seconds_block: float
    identical: bool
    residue_updates: int
    workspace: dict[str, int]

    @property
    def speedup(self) -> float:
        """Per-source loop seconds over block seconds."""
        if self.seconds_block == 0.0:
            return 0.0
        return self.seconds_loop / self.seconds_block

    @property
    def ns_per_edge(self) -> float:
        """Block nanoseconds per residue update (edge pushing)."""
        if not self.residue_updates:
            return 0.0
        return self.seconds_block * 1e9 / self.residue_updates

    def as_dict(self) -> dict[str, Any]:
        return {
            "batch_size": self.batch_size,
            "seconds_loop": self.seconds_loop,
            "seconds_block": self.seconds_block,
            "speedup": self.speedup,
            "ns_per_edge_block": self.ns_per_edge,
            "residue_updates": self.residue_updates,
            "identical": self.identical,
            "workspace": dict(self.workspace),
        }


@dataclass
class KernelBenchReport:
    """Everything one kernel bench run measured."""

    graph_name: str
    num_nodes: int
    num_edges: int
    l1_threshold: float
    alpha: float
    seed: int
    batches: list[KernelBatchMetrics] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """True when every batch matched its per-source baseline."""
        return all(batch.identical for batch in self.batches)

    def speedup_at(self, batch_size: int) -> float:
        for batch in self.batches:
            if batch.batch_size == batch_size:
                return batch.speedup
        raise KeyError(f"no batch of size {batch_size} was measured")

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": {
                "name": self.graph_name,
                "num_nodes": self.num_nodes,
                "num_edges": self.num_edges,
            },
            "l1_threshold": self.l1_threshold,
            "alpha": self.alpha,
            "seed": self.seed,
            "identical": self.identical,
            "batches": [batch.as_dict() for batch in self.batches],
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, self.to_dict())
        return path

    def assessment(self, target_speedup: float) -> str:
        """One-line verdict shared by every wrapper (script, CLI, CI).

        Correctness blocks, timing informs: a divergence is a FAIL, a
        speedup below ``target_speedup`` at the largest batch size only
        a WARN — keeping the wording in one place so the entry points
        cannot drift.
        """
        if not self.identical:
            return "FAIL: block answers diverged from the per-source baseline"
        largest = max(batch.batch_size for batch in self.batches)
        speedup = self.speedup_at(largest)
        if speedup < target_speedup:
            best = max(batch.speedup for batch in self.batches)
            return (
                f"WARN: block speedup {speedup:.2f}x at B={largest} below "
                f"the {target_speedup:.1f}x target (best {best:.2f}x)"
            )
        return (
            f"OK: block batch_query {speedup:.2f}x faster than the "
            f"per-source loop at B={largest}, element-wise identical answers"
        )

    def render(self) -> str:
        lines = [
            f"kernel bench [{self.graph_name}] n={self.num_nodes} "
            f"m={self.num_edges} l1={self.l1_threshold:g} alpha={self.alpha}",
        ]
        for batch in self.batches:
            ws = batch.workspace
            lines.append(
                f"  B={batch.batch_size:<3d} loop {batch.seconds_loop * 1e3:8.1f} ms   "
                f"block {batch.seconds_block * 1e3:8.1f} ms   "
                f"speedup {batch.speedup:5.2f}x   "
                f"{batch.ns_per_edge:6.1f} ns/edge   "
                f"identical={batch.identical}   "
                f"scratch {ws.get('reused', 0)}/{ws.get('requests', 0)} reused"
            )
        return "\n".join(lines)


def run_kernel_bench(
    *,
    scale: int = 8,
    edges: int = 2_000,
    batch_sizes: tuple[int, ...] = (8, 32),
    l1_threshold: float = 1e-8,
    alpha: float = 0.2,
    seed: int = 2021,
    repeats: int = 3,
) -> KernelBenchReport:
    """Measure block vs per-source ``batch_query`` on one R-MAT graph.

    Both timed paths run through one :class:`PPREngine`
    (``block=True`` / ``block=False``), so the comparison is exactly
    the dispatch the serving scheduler performs — engine overhead on
    both sides.  One additional *untimed* :func:`power_push_block` run
    with a shared :class:`Workspace` reports scratch-buffer reuse and
    cross-checks the direct kernel entry point.  Timings take the best
    of ``repeats`` runs; the graph's push caches are warmed first so
    both sides time queries, not construction.
    """
    if not batch_sizes:
        raise ParameterError("batch_sizes must name at least one batch size")
    graph = rmat_digraph(
        scale, edges, rng=np.random.default_rng(seed), name="kernel-rmat"
    ).warm_push_caches()
    engine = PPREngine(graph, alpha=alpha, seed=seed)
    rng = np.random.default_rng(seed + 1)
    pool = rng.choice(
        graph.num_nodes, size=max(batch_sizes), replace=False
    ).tolist()

    report = KernelBenchReport(
        graph_name=graph.name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        l1_threshold=l1_threshold,
        alpha=alpha,
        seed=seed,
    )
    for batch_size in batch_sizes:
        sources = pool[:batch_size]
        loop_best = float("inf")
        loop_results = None
        for _ in range(repeats):
            loop_results, elapsed = _timed(
                engine.batch_query,
                sources,
                "powerpush",
                l1_threshold=l1_threshold,
                block=False,
            )
            loop_best = min(loop_best, elapsed)

        block_best = float("inf")
        block_results = None
        for _ in range(repeats):
            block_results, elapsed = _timed(
                engine.batch_query,
                sources,
                "powerpush",
                l1_threshold=l1_threshold,
                block=True,
            )
            block_best = min(block_best, elapsed)
        # Untimed direct-kernel run: collects the scratch-buffer stats
        # and cross-checks the raw entry point against the engine path.
        workspace = Workspace()
        direct_results = power_push_block(
            graph,
            sources,
            alpha=alpha,
            l1_threshold=l1_threshold,
            workspace=workspace,
        )

        identical = all(
            np.array_equal(loop.estimate, block.estimate)
            and np.array_equal(loop.residue, block.residue)
            and np.array_equal(loop.estimate, direct.estimate)
            for loop, block, direct in zip(
                loop_results, block_results, direct_results
            )
        )
        updates = sum(
            result.counters.residue_updates for result in block_results
        )
        report.batches.append(
            KernelBatchMetrics(
                batch_size=batch_size,
                seconds_loop=loop_best,
                seconds_block=block_best,
                identical=identical,
                residue_updates=updates,
                workspace=workspace.stats(),
            )
        )
    return report


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started
