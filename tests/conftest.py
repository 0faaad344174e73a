"""Shared fixtures for the test-suite.

Fixtures provide the canonical small graphs (including the paper's
Figure 1 example), deterministic RNGs, and medium random graphs for the
integration tests.  Everything is seeded — a failing test reproduces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators.chung_lu import power_law_digraph
from repro.graph.build import (
    complete_graph,
    cycle_graph,
    from_edges,
    paper_example_graph,
    star_graph,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_graph():
    """The 5-node graph of the paper's Figure 1 (source v1 = node 0)."""
    return paper_example_graph()


@pytest.fixture
def tiny_cycle():
    """Directed 4-cycle: simplest strongly connected fixture."""
    return cycle_graph(4)


@pytest.fixture
def tiny_complete():
    """Complete digraph on 5 nodes."""
    return complete_graph(5)


@pytest.fixture
def dead_end_graph():
    """Star with out-only edges: every leaf is a dead end."""
    return star_graph(4, bidirectional=False, name="dead-end-star")


@pytest.fixture
def two_node_graph():
    """a <-> b: the smallest graph with non-trivial PPR."""
    return from_edges([(0, 1), (1, 0)], name="two-node")


@pytest.fixture(scope="session")
def medium_graph():
    """A 300-node scale-free digraph shared by the slower tests."""
    return power_law_digraph(
        300, 1800, rng=np.random.default_rng(777), name="medium"
    )


@pytest.fixture(scope="session")
def small_random_graphs():
    """A family of random digraphs with varying density (session-cached)."""
    graphs = []
    for seed, (n, m) in enumerate([(20, 60), (50, 200), (80, 700)]):
        graphs.append(
            power_law_digraph(
                n, m, rng=np.random.default_rng(1000 + seed), name=f"rand-{n}"
            )
        )
    return graphs


@pytest.fixture
def chunked_graphs(monkeypatch):
    """200-node graphs whose chunk tables split into many chunks.

    Shrinks the chunk work budget (edges plus nodes per chunk) to 32,
    then builds fresh graphs — the table is cached on first use, so a
    graph shared with other tests would keep its default single chunk.
    ``dead-ends`` has dead ends spread through the id range plus a
    100-node dead tail, which the small budget cuts into chunks with no
    edges; ``self-loops`` keeps a self-loop on every third node.
    """
    monkeypatch.setattr("repro.graph.digraph.CHUNK_EDGE_BUDGET", 32)
    base = power_law_digraph(
        200, 1400, rng=np.random.default_rng(2021), name="chunked"
    )
    sources, targets = base.edge_array()
    edges = list(zip(sources.tolist(), targets.tolist()))
    dead = [(u, v) for u, v in edges if u < 100 and u % 7 != 3]
    loops = edges + [(v, v) for v in range(0, 200, 3)]
    return {
        "plain": base,
        "dead-ends": from_edges(dead, num_nodes=200, name="dead-ends"),
        "self-loops": from_edges(
            loops, num_nodes=200, drop_self_loops=False, name="self-loops"
        ),
    }


def assert_close(a, b, atol=1e-10, msg=""):
    """Array closeness helper with a tight default tolerance."""
    np.testing.assert_allclose(a, b, atol=atol, rtol=0, err_msg=msg)
