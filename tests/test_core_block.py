"""Block (multi-source) kernels and solver vs their per-source twins.

The block layer's contract is strict: every row of a
:func:`~repro.core.powerpush.power_push_block` solve must be
**element-wise identical** (``np.array_equal``, not allclose) to an
independent :func:`~repro.core.powerpush.power_push` run with the same
parameters — that is what lets the engine and the serving scheduler
batch opportunistically without changing a single answer.  The tests
here pin that down directly on the kernels, on the driver across
graphs/policies/thresholds/configs, and property-based on random
graphs via hypothesis.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    block_chunked_sweep,
    block_frontier_push,
    block_global_sweep,
    chunked_sweep,
    frontier_push,
    global_sweep,
)
from repro.core.powerpush import PowerPushConfig, power_push, power_push_block
from repro.core.residues import BlockPushState, PushState
from repro.core.workspace import Workspace
from repro.errors import ConvergenceError, ParameterError
from repro.graph import digraph
from repro.graph.build import from_edges


def block_rows_equal_states(block, states):
    """Assert every block row equals its single-source state bitwise."""
    for row, state in enumerate(states):
        assert np.array_equal(block.reserve[row], state.reserve), row
        assert np.array_equal(block.residue[row], state.residue), row
        assert block.r_sum[row] == state.r_sum, row


class TestWorkspace:
    def test_buffers_are_reused_and_grow(self):
        ws = Workspace()
        first = ws.buffer("a", 10, np.int64)
        assert first.shape == (10,) and ws.allocations == 1
        again = ws.buffer("a", 6, np.int64)
        assert again.base is first.base and ws.allocations == 1
        grown = ws.buffer("a", 11, np.int64)
        assert grown.shape == (11,) and ws.allocations == 2
        # Geometric growth: the new capacity covers well beyond 11.
        assert ws.buffer("a", 20, np.int64).base is grown.base
        assert ws.reused == ws.requests - ws.allocations

    def test_dtype_change_reallocates(self):
        ws = Workspace()
        ws.buffer("a", 8, np.int64)
        ws.buffer("a", 8, np.float64)
        assert ws.allocations == 2


class TestBlockPushState:
    def test_initial_state(self, paper_graph):
        state = BlockPushState(paper_graph, [0, 3], alpha=0.2)
        assert state.residue.shape == (2, paper_graph.num_nodes)
        assert state.residue[0, 0] == 1.0 and state.residue[1, 3] == 1.0
        assert np.array_equal(state.r_sum, np.ones(2))
        assert state.mass_total(0) == pytest.approx(1.0)

    def test_rejects_bad_inputs(self, paper_graph):
        with pytest.raises(ParameterError):
            BlockPushState(paper_graph, [0], dead_end_policy="nope")
        with pytest.raises(ParameterError):
            BlockPushState(paper_graph, [])
        from repro.errors import NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            BlockPushState(paper_graph, [paper_graph.num_nodes])

    def test_row_counters_epochs_only_when_scanned(self, paper_graph):
        state = BlockPushState(paper_graph, [0])
        assert "epochs" not in state.row_counters(0).extras
        state.epochs[0] = 3
        assert state.row_counters(0).extras["epochs"] == 3


class TestBlockKernels:
    def test_block_global_sweep_matches_per_source(self, paper_graph):
        sources = [0, 1, 4]
        block = BlockPushState(paper_graph, sources)
        states = [PushState(paper_graph, s) for s in sources]
        for _ in range(3):
            block_global_sweep(block, np.arange(3), count_all_edges=True)
            for state in states:
                global_sweep(state, count_all_edges=True)
        block_rows_equal_states(block, states)
        for row, state in enumerate(states):
            assert block.row_counters(row).as_dict() == state.counters.as_dict()

    def test_block_global_sweep_row_subset(self, paper_graph):
        block = BlockPushState(paper_graph, [0, 1, 2])
        state = PushState(paper_graph, 1)
        block_global_sweep(block, np.asarray([1]))
        global_sweep(state, count_all_edges=False)
        assert np.array_equal(block.residue[1], state.residue)
        # Untouched rows keep their initial residue.
        assert block.residue[0, 0] == 1.0 and block.residue[2, 2] == 1.0

    def test_block_global_sweep_dead_ends(self, dead_end_graph):
        for policy in ("redirect-to-source", "uniform-teleport"):
            sources = [0, 1]
            block = BlockPushState(
                dead_end_graph, sources, dead_end_policy=policy
            )
            states = [
                PushState(dead_end_graph, s, dead_end_policy=policy)
                for s in sources
            ]
            for _ in range(2):
                block_global_sweep(block, np.arange(2))
                for state in states:
                    global_sweep(state, count_all_edges=False)
            block_rows_equal_states(block, states)

    def test_block_frontier_push_distinct_frontiers(self, paper_graph):
        n = paper_graph.num_nodes
        sources = [0, 2]
        block = BlockPushState(paper_graph, sources)
        states = [PushState(paper_graph, s) for s in sources]
        # Give every node some residue so arbitrary frontiers are live.
        fill = np.linspace(0.01, 0.05, n)
        for row, state in enumerate(states):
            block.residue[row] += fill * (row + 1)
            block.refresh_r_sum(row)
            state.residue += fill * (row + 1)
            state.refresh_r_sum()
        masks = np.zeros((2, n), dtype=bool)
        masks[0, [0, 3]] = True
        masks[1, [1, 3, 4]] = True
        block_frontier_push(block, np.arange(2), masks, workspace=Workspace())
        frontier_push(states[0], np.asarray([0, 3]))
        frontier_push(states[1], np.asarray([1, 3, 4]))
        block_rows_equal_states(block, states)
        for row, state in enumerate(states):
            assert block.row_counters(row).as_dict() == state.counters.as_dict()

    def test_union_gather_does_not_push_inactive_rows(self, paper_graph):
        """A node active only in row 0 must stay untouched in row 1."""
        n = paper_graph.num_nodes
        block = BlockPushState(paper_graph, [0, 1])
        block.residue[:] = 0.1
        block.refresh_r_sum(0), block.refresh_r_sum(1)
        masks = np.zeros((2, n), dtype=bool)
        masks[0, 0] = True
        masks[1, 1] = True
        before = block.residue[1, 0]
        block_frontier_push(block, np.arange(2), masks)
        # Row 1 never pushed node 0: its residue there only grows by
        # whatever node 1's push deposited, never gets zeroed.
        assert block.residue[1, 0] >= before
        assert block.reserve[1, 0] == 0.0


class TestBlockChunkedSweep:
    """Block chunked passes vs per-source passes, on many small chunks."""

    @staticmethod
    def _spread_states(graph, sources, policy):
        rng = np.random.default_rng(9)
        block = BlockPushState(graph, sources, dead_end_policy=policy)
        states = []
        for row, source in enumerate(sources):
            state = PushState(graph, source, dead_end_policy=policy)
            state.residue[:] = rng.random(graph.num_nodes) / graph.num_nodes
            state.refresh_r_sum()
            block.residue[row] = state.residue
            block.refresh_r_sum(row)
            states.append(state)
        return block, states

    @pytest.mark.parametrize("policy", ["redirect-to-source", "uniform-teleport"])
    def test_per_row_stops_match_single_source(self, chunked_graphs, policy):
        for graph in chunked_graphs.values():
            block, states = self._spread_states(graph, [0, 3, 8, 150], policy)
            # Row 0 never stops early; the others stop after a growing
            # share of their mass has been pushed.
            stop_at = block.r_sum * np.array([0.0, 0.99, 0.9, 0.5])
            for state, target in zip(states, stop_at):
                chunked_sweep(state, stop_at=float(target))
            block_chunked_sweep(
                block, np.arange(4), stop_at=stop_at, workspace=Workspace()
            )
            block_rows_equal_states(block, states)
            for row, state in enumerate(states):
                assert block.pushes[row] == state.counters.pushes
                assert (
                    block.residue_updates[row]
                    == state.counters.residue_updates
                )

    def test_row_subset_without_stops(self, chunked_graphs):
        graph = chunked_graphs["dead-ends"]
        block, states = self._spread_states(
            graph, [1, 2, 3], "redirect-to-source"
        )
        block_chunked_sweep(block, np.asarray([2, 0]))
        chunked_sweep(states[0])
        chunked_sweep(states[2])
        block_rows_equal_states(block, states)

    @pytest.mark.parametrize("policy", ["redirect-to-source", "uniform-teleport"])
    def test_solver_rows_bitwise_equal(self, chunked_graphs, policy):
        for graph in chunked_graphs.values():
            TestPowerPushBlockEquivalence._assert_equivalent(
                graph, [0, 5, 57, 120, 199], policy=policy
            )


GRAPH_CASES = [
    ("paper", None),
    ("dead-star", None),
    ("medium", None),
]


class TestPowerPushBlockEquivalence:
    @pytest.mark.parametrize("policy", ["redirect-to-source", "uniform-teleport"])
    @pytest.mark.parametrize("l1", [1e-4, 1e-8])
    def test_paper_graph(self, paper_graph, policy, l1):
        self._assert_equivalent(
            paper_graph, [0, 1, 2, 3, 4], policy=policy, l1=l1
        )

    @pytest.mark.parametrize("policy", ["redirect-to-source", "uniform-teleport"])
    def test_dead_end_graph(self, dead_end_graph, policy):
        self._assert_equivalent(dead_end_graph, [0, 1, 4], policy=policy)

    def test_medium_graph(self, medium_graph):
        self._assert_equivalent(medium_graph, [0, 7, 77, 299], l1=1e-7)

    @pytest.mark.parametrize(
        "config",
        [
            PowerPushConfig(epoch_num=1),
            PowerPushConfig(epoch_num=3, scan_threshold_fraction=0.5),
            PowerPushConfig(scan_threshold_fraction=0.0),
            PowerPushConfig(scan_threshold_fraction=float("inf")),
        ],
        ids=["one-epoch", "mid", "no-queue", "never-scan"],
    )
    def test_config_variants(self, medium_graph, config):
        self._assert_equivalent(
            medium_graph, [3, 14, 15], l1=1e-6, config=config
        )

    def test_duplicate_sources(self, medium_graph):
        results = power_push_block(medium_graph, [9, 9, 9], l1_threshold=1e-6)
        assert np.array_equal(results[0].estimate, results[1].estimate)
        assert np.array_equal(results[0].estimate, results[2].estimate)

    def test_single_source_block(self, medium_graph):
        self._assert_equivalent(medium_graph, [42], l1=1e-6)

    def test_edgeless_graph(self):
        graph = from_edges([], num_nodes=4)
        self._assert_equivalent(graph, [0, 1, 3])

    def test_empty_sources(self, paper_graph):
        assert power_push_block(paper_graph, []) == []

    def test_workspace_reused_across_solves(self, medium_graph):
        ws = Workspace()
        power_push_block(medium_graph, [0, 1], l1_threshold=1e-6, workspace=ws)
        allocations = ws.allocations
        power_push_block(medium_graph, [0, 1], l1_threshold=1e-6, workspace=ws)
        assert ws.allocations == allocations  # second solve: all reused
        assert ws.reused > 0

    def test_budget_exceeded_raises_like_per_source(self, medium_graph):
        with pytest.raises(ConvergenceError):
            power_push(medium_graph, 0, l1_threshold=1e-8, max_work_factor=1e-3)
        with pytest.raises(ConvergenceError):
            power_push_block(
                medium_graph, [0, 1], l1_threshold=1e-8, max_work_factor=1e-3
            )

    def test_result_metadata(self, medium_graph):
        results = power_push_block(medium_graph, [5, 6], l1_threshold=1e-6)
        for result, source in zip(results, [5, 6]):
            assert result.method == "PowerPush"
            assert result.source == source
            assert result.batch_size == 2
            assert result.r_sum <= 1e-6
            assert result.seconds > 0

    @staticmethod
    def _assert_equivalent(
        graph, sources, *, policy="redirect-to-source", l1=1e-8, config=None
    ):
        block = power_push_block(
            graph,
            sources,
            l1_threshold=l1,
            dead_end_policy=policy,
            config=config,
        )
        for source, row in zip(sources, block):
            single = power_push(
                graph,
                source,
                l1_threshold=l1,
                dead_end_policy=policy,
                config=config,
            )
            assert np.array_equal(single.estimate, row.estimate), source
            assert np.array_equal(single.residue, row.residue), source
            assert (
                single.counters.as_dict() == row.counters.as_dict()
            ), source


# ---------------------------------------------------------------------------
# Property-based equivalence on random graphs
# ---------------------------------------------------------------------------

@st.composite
def random_graph_and_sources(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=24))
    max_edges = min(60, num_nodes * (num_nodes - 1))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
            ),
            min_size=0,
            max_size=max_edges,
        )
    )
    graph = from_edges(edges, num_nodes=num_nodes, name="hypo")
    sources = draw(
        st.lists(
            st.integers(0, num_nodes - 1), min_size=1, max_size=5
        )
    )
    return graph, sources


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=random_graph_and_sources(),
    policy=st.sampled_from(["redirect-to-source", "uniform-teleport"]),
    l1=st.sampled_from([1e-3, 1e-5, 1e-8]),
    alpha=st.sampled_from([0.1, 0.2, 0.5]),
    chunk_budget=st.sampled_from([digraph.CHUNK_EDGE_BUDGET, 4]),
)
def test_block_rows_identical_to_independent_solves(
    case, policy, l1, alpha, chunk_budget
):
    """power_push_block rows == independent power_push runs, bitwise."""
    graph, sources = case
    # The chunk table is built on first use, inside the solves below; a
    # budget of 4 cuts these small graphs into many chunks.
    with mock.patch.object(digraph, "CHUNK_EDGE_BUDGET", chunk_budget):
        block = power_push_block(
            graph,
            sources,
            alpha=alpha,
            l1_threshold=l1,
            dead_end_policy=policy,
        )
        for source, row in zip(sources, block):
            single = power_push(
                graph,
                source,
                alpha=alpha,
                l1_threshold=l1,
                dead_end_policy=policy,
            )
            assert np.array_equal(single.estimate, row.estimate)
            assert np.array_equal(single.residue, row.residue)
            assert single.counters.as_dict() == row.counters.as_dict()
