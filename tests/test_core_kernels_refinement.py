"""Unit tests for the vectorised kernels and the O(m) refinement step."""

import numpy as np
import pytest

from repro.core.kernels import (
    block_frontier_push,
    frontier_edge_targets,
    frontier_push,
    global_sweep,
    sweep_active,
)
from repro.core.refinement import refine_to_r_max
from repro.core.residues import BlockPushState, PushState
from repro.core.workspace import Workspace
from repro.errors import ConvergenceError, ParameterError
from repro.generators.rmat import rmat_digraph
from repro.graph.build import from_edges, star_graph


def _rmat_graph():
    return rmat_digraph(7, 700, rng=np.random.default_rng(7))


class TestFrontierEdgeTargets:
    def test_concatenates_in_node_order(self, paper_graph):
        targets, counts = frontier_edge_targets(
            paper_graph, np.array([0, 2])
        )
        assert targets.tolist() == [1, 2, 1, 3]
        assert counts.tolist() == [2, 2]

    def test_empty_frontier(self, paper_graph):
        targets, counts = frontier_edge_targets(
            paper_graph, np.array([], dtype=np.int64)
        )
        assert targets.shape[0] == 0

    def test_dead_end_nodes_contribute_nothing(self, dead_end_graph):
        targets, counts = frontier_edge_targets(
            dead_end_graph, np.array([1, 2])
        )
        assert targets.shape[0] == 0
        assert counts.tolist() == [0, 0]


class TestGlobalSweep:
    def test_one_sweep_equals_scalar_pushes(self, paper_graph):
        vector_state = PushState(paper_graph, 0)
        global_sweep(vector_state)

        scalar_state = PushState(paper_graph, 0)
        scalar_state.push(0)  # only the source holds residue

        np.testing.assert_allclose(
            vector_state.residue, scalar_state.residue, atol=1e-15
        )
        np.testing.assert_allclose(
            vector_state.reserve, scalar_state.reserve, atol=1e-15
        )

    def test_mass_conserved(self, paper_graph):
        state = PushState(paper_graph, 0)
        for _ in range(10):
            global_sweep(state)
        assert state.mass_total() == pytest.approx(1.0, abs=1e-12)

    def test_dead_end_mass_redirected(self, dead_end_graph):
        state = PushState(dead_end_graph, 0)
        global_sweep(state)  # source pushes to leaves
        global_sweep(state)  # leaves are dead ends -> back to source
        assert state.residue[0] > 0
        assert state.mass_total() == pytest.approx(1.0, abs=1e-12)

    def test_counting_modes(self, paper_graph):
        billed_all = PushState(paper_graph, 0)
        global_sweep(billed_all, count_all_edges=True)
        assert billed_all.counters.residue_updates == paper_graph.num_edges

        billed_holders = PushState(paper_graph, 0)
        global_sweep(billed_holders, count_all_edges=False)
        assert billed_holders.counters.residue_updates == 2  # d(source)


class TestFrontierPush:
    def test_matches_scalar_push_set(self, paper_graph):
        vector_state = PushState(paper_graph, 0)
        vector_state.push(0)
        scalar_state = PushState(paper_graph, 0)
        scalar_state.push(0)

        frontier_push(vector_state, np.array([1, 2]))
        # Simultaneous semantics: scalar pushes on the residues as they
        # were before either push — compute expected by hand instead.
        # r(v2) = r(v3) = 0.4.  Push both:
        #   v2 spreads 0.32/4 = 0.08 to v1, v3, v4, v5
        #   v3 spreads 0.32/2 = 0.16 to v2, v4
        np.testing.assert_allclose(
            vector_state.residue,
            [0.08, 0.16, 0.08, 0.24, 0.08],
            atol=1e-15,
        )
        np.testing.assert_allclose(
            vector_state.reserve, [0.2, 0.08, 0.08, 0, 0], atol=1e-15
        )

    def test_empty_frontier_noop(self, paper_graph):
        state = PushState(paper_graph, 0)
        frontier_push(state, np.array([], dtype=np.int64))
        assert state.r_sum == 1.0

    def test_self_loop_preserved(self):
        graph = from_edges(
            [(0, 0), (0, 1), (1, 0)], drop_self_loops=False
        )
        state = PushState(graph, 0)
        frontier_push(state, np.array([0]))
        assert state.residue[0] == pytest.approx(0.4)
        assert state.mass_total() == pytest.approx(1.0)

    def test_incremental_r_sum_correct(self, paper_graph):
        state = PushState(paper_graph, 0)
        frontier_push(state, np.array([0]))
        assert state.r_sum == pytest.approx(state.residue.sum(), abs=1e-12)

    def test_dead_end_in_frontier(self, dead_end_graph):
        state = PushState(dead_end_graph, 0)
        frontier_push(state, np.array([0]))
        frontier_push(state, np.array([1, 2, 3, 4]))
        assert state.mass_total() == pytest.approx(1.0, abs=1e-12)
        assert state.residue[0] > 0


class TestSweepActive:
    def test_zero_when_nothing_active(self, paper_graph):
        state = PushState(paper_graph, 0)
        state.residue[:] = 0.0
        state.refresh_r_sum()
        assert sweep_active(state, 0.01) == 0

    def test_pushes_active_count(self, paper_graph):
        state = PushState(paper_graph, 0)
        assert sweep_active(state, 0.01) == 1  # only the source

    def test_threshold_vector_path_matches(self, medium_graph):
        r_max = 1e-4
        a = PushState(medium_graph, 0)
        b = PushState(medium_graph, 0)
        threshold = medium_graph.out_degree.astype(float) * r_max
        for _ in range(5):
            sweep_active(a, r_max)
            sweep_active(b, r_max, threshold_vec=threshold)
        np.testing.assert_allclose(a.residue, b.residue, atol=1e-12)


class TestEmptyFrontierFastPath:
    """Empty frontiers must not touch the workspace."""

    def test_frontier_push_empty_nodes(self):
        graph = _rmat_graph()
        state = PushState(graph, 0)
        workspace = Workspace()
        frontier_push(
            state, np.empty(0, dtype=np.int64), workspace=workspace
        )
        assert workspace.requests == 0
        assert state.r_sum == 1.0

    def test_frontier_edge_targets_empty_nodes(self):
        graph = _rmat_graph()
        workspace = Workspace()
        targets, counts = frontier_edge_targets(
            graph, np.empty(0, dtype=np.int64), workspace=workspace
        )
        assert targets.shape[0] == 0 and counts.shape[0] == 0
        assert workspace.requests == 0

    def test_frontier_push_all_dead_frontier(self):
        graph = star_graph(4, bidirectional=False)  # leaves are dead ends
        state = PushState(graph, 0)
        state.residue[:] = 0.25
        state.refresh_r_sum()
        workspace = Workspace()
        # Pushing only dead ends gathers zero edges: no scatter, no
        # workspace traffic, yet reserves/dead-mass still settle.
        frontier_push(
            state,
            graph.dead_ends.astype(np.int64),
            workspace=workspace,
        )
        assert workspace.requests == 0
        assert state.counters.pushes == graph.dead_ends.shape[0]

    def test_block_frontier_push_empty_rows(self):
        graph = _rmat_graph()
        state = BlockPushState(graph, [0, 1])
        workspace = Workspace()
        block_frontier_push(
            state,
            np.empty(0, dtype=np.int64),
            np.zeros((0, graph.num_nodes), dtype=bool),
            workspace=workspace,
        )
        assert workspace.requests == 0

    def test_block_frontier_push_all_false_masks(self):
        graph = _rmat_graph()
        state = BlockPushState(graph, [0, 1])
        workspace = Workspace()
        block_frontier_push(
            state,
            np.arange(2),
            np.zeros((2, graph.num_nodes), dtype=bool),
            workspace=workspace,
        )
        assert workspace.requests == 0
        np.testing.assert_array_equal(state.pushes, [0, 0])


class TestRefinement:
    def test_terminal_condition(self, medium_graph):
        state = PushState(medium_graph, 2)
        refine_to_r_max(state, 1e-4)
        assert np.all(
            state.residue <= medium_graph.out_degree * 1e-4 + 1e-15
        )

    def test_rejects_zero_r_max(self, paper_graph):
        state = PushState(paper_graph, 0)
        with pytest.raises(ParameterError):
            refine_to_r_max(state, 0.0)

    def test_sweep_cap_raises(self, medium_graph):
        state = PushState(medium_graph, 2)
        with pytest.raises(ConvergenceError):
            refine_to_r_max(state, 1e-12, max_sweeps=1)

    def test_idempotent(self, medium_graph):
        state = PushState(medium_graph, 2)
        refine_to_r_max(state, 1e-4)
        before = state.residue.copy()
        refine_to_r_max(state, 1e-4)
        np.testing.assert_array_equal(before, state.residue)

    def test_preserves_mass(self, medium_graph):
        state = PushState(medium_graph, 2)
        refine_to_r_max(state, 1e-5)
        assert state.mass_total() == pytest.approx(1.0, abs=1e-10)
