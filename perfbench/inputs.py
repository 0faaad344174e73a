"""Seeded inputs: the R-MAT graph (cached on disk), sources, schedules, updates.

Everything a workload feeds the program is derived here from the
workload seed, with one independent stream per input kind, so changing
how many sources a run consumes never shifts its arrival schedule or
its edge updates.  The graph and the edge updates are drawn with the
program's own generator (``rmat_digraph``) and sampler
(``sample_edge_update``); everything else is drawn here.  The program
under test only ever sees the generated arrays.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: R-MAT size of every workload: 2**16 candidate ids, ~1M edges.
BENCH_SCALE = 16
BENCH_EDGES = 1_000_000
#: Graph files kept in the cache; older ones are pruned (each is ~4.5 MB).
CACHE_KEEP = 24

# Stream ids mixed into the seed (one generator per input kind).
_GRAPH, _SOURCES, _ARRIVALS, _MIX, _UPDATES, _CHECK = range(6)


def stream(seed: int, kind: int) -> np.random.Generator:
    """The independent generator for one input kind of one seed."""
    return np.random.default_rng([int(seed), kind])


def rmat_csr(scale: int, num_edges: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The program's own R-MAT graph for ``seed`` as ``(indptr, indices)``.

    :func:`repro.generators.rmat.rmat_digraph` with the Graph500
    quadrants and its default dead-end patching, drawn from the seed's
    graph stream.  A change to that generator changes every workload's
    graph, so it must be named in the change that makes it.
    """
    from repro.generators.rmat import rmat_digraph

    graph = rmat_digraph(scale, num_edges, rng=stream(seed, _GRAPH), name="bench-rmat")
    return graph.out_indptr, graph.out_indices


def graph_file(cache_dir: Path, seed: int, scale: int, num_edges: int) -> Path:
    """Path of the cached graph for ``seed``; generated on first use.

    Generation runs in a child interpreter so its temporaries never
    count towards the measuring process's peak memory, and it is not
    part of any timed region.
    """
    path = cache_dir / f"rmat-s{scale}-m{num_edges}-seed{seed}.npz"
    if not path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                str(cache_dir),
                str(seed),
                str(scale),
                str(num_edges),
            ],
            check=True,
            timeout=300,
        )
        _prune(cache_dir, keep=path)
    return path


def _write_graph(cache_dir: Path, seed: int, scale: int, num_edges: int) -> None:
    indptr, indices = rmat_csr(scale, num_edges, seed)
    path = cache_dir / f"rmat-s{scale}-m{num_edges}-seed{seed}.npz"
    tmp = path.with_suffix(f".tmp{os.getpid()}.npz")
    np.savez(tmp, indptr=indptr, indices=indices)
    os.replace(tmp, path)


def _prune(cache_dir: Path, keep: Path) -> None:
    files = sorted(cache_dir.glob("rmat-*.npz"), key=lambda p: p.stat().st_mtime)
    for old in files[:-CACHE_KEEP]:
        if old != keep:
            old.unlink(missing_ok=True)


def load_csr(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a cached graph file back as ``(indptr, indices)``."""
    with np.load(path) as data:
        return data["indptr"], data["indices"]


def distinct_sources(seed: int, n: int, count: int) -> np.ndarray:
    """``count`` distinct source nodes in seeded order."""
    return stream(seed, _SOURCES).permutation(n)[: min(count, n)]


@dataclass(frozen=True)
class Schedule:
    """An open-loop operation list: warm-up slots, then timed slots."""

    warmup: int  # leading slots sent one at a time, before timing
    burst: np.ndarray  # cold sources outside the hot set, sent at once after them
    due: np.ndarray  # offset of each timed slot from the window start
    sources: np.ndarray  # query source per slot (-1 on update slots)
    is_update: np.ndarray  # bool per slot

    def __len__(self) -> int:
        return int(self.sources.shape[0])


def zipf_schedule(
    seed: int,
    n: int,
    *,
    warmup: int,
    timed: int,
    duration: float,
    hot_set: int,
    exponent: float,
    update_period: int = 0,
    burst: int = 0,
) -> Schedule:
    """``warmup`` slots, then ``timed`` Poisson arrivals over ``duration`` s.

    The arrival times are the sorted uniform order statistics of the
    interval — a Poisson process conditioned on its count — so the
    offered load is the same in every run and only the burst pattern
    varies with the seed.  Sources are Zipf(``exponent``) over a seeded
    hot set.  With ``update_period`` > 0, every ``update_period``-th timed
    slot from a seeded offset is an edge-update batch instead of a query,
    so the share of writes is fixed; the other slots keep the sources of
    the read-only schedule.  ``burst`` distinct sources outside the hot
    set are drawn after all of these, so they never shift them.
    """
    due = np.sort(stream(seed, _ARRIVALS).random(timed)) * duration
    count = warmup + timed
    rng = stream(seed, _SOURCES)
    hot = rng.choice(n, size=min(hot_set, n), replace=False)
    weights = np.arange(1, hot.shape[0] + 1, dtype=np.float64) ** -exponent
    sources = rng.choice(hot, size=count, p=weights / weights.sum())
    is_update = np.zeros(count, dtype=bool)
    if update_period > 0:
        offset = int(stream(seed, _MIX).integers(update_period))
        is_update[warmup + offset :: update_period] = True
        sources = np.where(is_update, -1, sources)
    cold = rng.choice(np.setdiff1d(np.arange(n), hot), size=burst, replace=False)
    return Schedule(
        warmup=warmup, burst=cold, due=due, sources=sources, is_update=is_update
    )


def update_batches(seed: int, graph: object, count: int, batch: int) -> list:
    """``count`` batches of ``batch`` valid edge updates, in apply order.

    Drawn with :func:`repro.graph.dynamic.sample_edge_update` from the
    seed's update stream against a mirror of the graph, each batch
    applied to the mirror before the next is drawn — so replaying the
    batches in order on a fresh copy of ``graph`` is valid throughout.
    """
    from repro.graph.dynamic import DynamicGraph, sample_edge_update

    rng = stream(seed, _UPDATES)
    mirror = DynamicGraph(graph)
    batches = []
    for _ in range(count):
        edits = []
        for _ in range(batch):
            edit = sample_edge_update(mirror, rng)
            mirror.apply_updates([edit])
            edits.append(edit)
        batches.append(edits)
    return batches


def check_rng(seed: int) -> np.random.Generator:
    """The stream that picks which answers get the reference check."""
    return stream(seed, _CHECK)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    _write_graph(Path(sys.argv[1]), *(int(arg) for arg in sys.argv[2:5]))
