"""Unit tests for PowerPush (Algorithm 3)."""

import numpy as np
import pytest

from repro.core import powerpush as powerpush_module
from repro.core.kernels import chunked_sweep, global_sweep
from repro.core.power_iteration import power_iteration
from repro.core.powerpush import PowerPushConfig, power_push
from repro.core.residues import PushState
from repro.errors import ParameterError
from repro.graph.build import cycle_graph, empty_graph, from_edges
from repro.instrumentation.tracing import ConvergenceTrace
from repro.metrics.errors import l1_error
from repro.metrics.ground_truth import exact_ppr_dense


class TestCorrectness:
    @pytest.mark.parametrize("mode", ["faithful", "vectorized"])
    def test_error_bound_met(self, paper_graph, mode):
        truth = exact_ppr_dense(paper_graph, 0)
        result = power_push(
            paper_graph, 0, l1_threshold=1e-9, mode=mode
        )
        assert l1_error(result.estimate, truth) <= 1e-9

    @pytest.mark.parametrize("mode", ["faithful", "vectorized"])
    def test_r_sum_below_lambda(self, paper_graph, mode):
        result = power_push(
            paper_graph, 0, l1_threshold=1e-7, mode=mode
        )
        assert result.r_sum <= 1e-7

    def test_modes_agree(self, medium_graph):
        faithful = power_push(
            medium_graph, 9, l1_threshold=1e-7, mode="faithful"
        )
        vectorized = power_push(
            medium_graph, 9, l1_threshold=1e-7, mode="vectorized"
        )
        assert (
            np.abs(faithful.estimate - vectorized.estimate).sum() <= 2e-7
        )

    def test_all_sources_on_small_graph(self, paper_graph):
        for source in range(5):
            truth = exact_ppr_dense(paper_graph, source)
            result = power_push(paper_graph, source, l1_threshold=1e-10)
            assert l1_error(result.estimate, truth) <= 1e-10

    def test_dead_ends_redirect(self, dead_end_graph):
        truth = exact_ppr_dense(dead_end_graph, 0)
        result = power_push(dead_end_graph, 0, l1_threshold=1e-10)
        assert l1_error(result.estimate, truth) <= 1e-10

    def test_medium_graph_matches_ground_truth(self, medium_graph):
        from repro.metrics.ground_truth import ground_truth_ppr

        truth = ground_truth_ppr(medium_graph, 0, l1_threshold=1e-13)
        result = power_push(medium_graph, 0, l1_threshold=1e-8)
        assert l1_error(result.estimate, np.asarray(truth)) <= 1e-8

    def test_empty_graph(self):
        graph = empty_graph(3)
        result = power_push(graph, 1, l1_threshold=1e-8)
        np.testing.assert_allclose(result.estimate, [0, 1, 0])


class TestConfig:
    def test_rejects_bad_epochs(self):
        with pytest.raises(ParameterError):
            PowerPushConfig(epoch_num=0)

    def test_rejects_negative_scan_fraction(self):
        with pytest.raises(ParameterError):
            PowerPushConfig(scan_threshold_fraction=-0.5)

    def test_scan_threshold_scales_with_n(self):
        config = PowerPushConfig(scan_threshold_fraction=0.25)
        assert config.scan_threshold(400) == 100.0

    @pytest.mark.parametrize(
        "epoch_num,scan_fraction",
        [(1, 0.25), (8, 0.0), (8, float("inf")), (4, 0.5)],
    )
    def test_all_config_corners_converge(
        self, paper_graph, epoch_num, scan_fraction
    ):
        truth = exact_ppr_dense(paper_graph, 0)
        config = PowerPushConfig(
            epoch_num=epoch_num, scan_threshold_fraction=scan_fraction
        )
        result = power_push(
            paper_graph, 0, l1_threshold=1e-8, config=config
        )
        assert l1_error(result.estimate, truth) <= 1e-8

    def test_unknown_mode_rejected(self, paper_graph):
        with pytest.raises(ParameterError):
            power_push(paper_graph, 0, mode="quantum")  # type: ignore[arg-type]


class TestEfficiencyProperties:
    def test_fewer_updates_than_powitr(self, medium_graph):
        pp = power_push(medium_graph, 4, l1_threshold=1e-8)
        pi = power_iteration(medium_graph, 4, l1_threshold=1e-8)
        assert (
            pp.counters.residue_updates <= pi.counters.residue_updates
        )

    def test_epochs_counter_recorded(self, medium_graph):
        result = power_push(medium_graph, 4, l1_threshold=1e-8)
        assert result.counters.extras.get("epochs", 0) >= 1

    def test_faithful_epochs_reduce_updates(self, medium_graph):
        # The Section-5 dynamic-threshold claim, on the asynchronous
        # scalar scan where accumulate-then-push pays off: 8 epochs
        # need substantially fewer residue updates than 1.
        with_epochs = power_push(
            medium_graph,
            0,
            l1_threshold=1e-8,
            mode="faithful",
            config=PowerPushConfig(epoch_num=8),
        )
        without_epochs = power_push(
            medium_graph,
            0,
            l1_threshold=1e-8,
            mode="faithful",
            config=PowerPushConfig(epoch_num=1),
        )
        assert (
            with_epochs.counters.residue_updates
            < 0.8 * without_epochs.counters.residue_updates
        )

    def test_trace_monotone_nonincreasing(self, medium_graph):
        trace = ConvergenceTrace(stride=0)
        power_push(medium_graph, 4, l1_threshold=1e-8, trace=trace)
        _, errors = trace.series_vs_time()
        assert errors[-1] <= 1e-8
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_queue_phase_only_for_mild_threshold(self, paper_graph):
        # With a mild threshold the queue phase alone finishes the job.
        result = power_push(paper_graph, 0, l1_threshold=0.5)
        assert result.r_sum <= 0.5


POLICIES = ["redirect-to-source", "uniform-teleport"]


class TestChunkedScan:
    """The scan phase's chunked-asynchronous pass, on many small chunks."""

    def test_table_tiles_the_graph(self, chunked_graphs):
        for name, graph in chunked_graphs.items():
            table = graph.push_chunks()
            assert len(table.chunks) > 4, name
            expected_begin = 0
            for begin, end, indptr, indices, weights, dead in table.chunks:
                assert begin == expected_begin and end > begin
                expected_begin = end
                low, high = graph.out_indptr[begin], graph.out_indptr[end]
                assert indptr.dtype == np.int32
                np.testing.assert_array_equal(
                    indptr, graph.out_indptr[begin : end + 1] - low
                )
                np.testing.assert_array_equal(
                    indices, graph.out_indices[low:high]
                )
                assert weights.shape == indices.shape and np.all(weights == 1.0)
                in_range = (graph.dead_ends >= begin) & (graph.dead_ends < end)
                np.testing.assert_array_equal(dead, graph.dead_ends[in_range])
            assert expected_begin == graph.num_nodes
            degree = graph.out_degree
            np.testing.assert_array_equal(
                table.inv_degree[degree > 0], 1.0 / degree[degree > 0]
            )
            assert np.all(table.inv_degree[degree == 0] == 0.0)
        zero_edge = [
            chunk
            for chunk in chunked_graphs["dead-ends"].push_chunks().chunks
            if chunk[3].shape[0] == 0
        ]
        assert zero_edge, "the dead tail should form chunks with no edges"

    def test_later_chunks_push_fresh_mass(self, monkeypatch):
        # On a directed cycle cut into one-node chunks, the synchronous
        # sweep moves the source's mass one hop; the chunked pass
        # carries it through every later chunk in the same pass.
        monkeypatch.setattr("repro.graph.digraph.CHUNK_EDGE_BUDGET", 2)
        graph = cycle_graph(40)
        assert len(graph.push_chunks().chunks) == 40
        chunked, sync = PushState(graph, 0), PushState(graph, 0)
        chunked_sweep(chunked)
        global_sweep(sync, count_all_edges=False)
        assert np.count_nonzero(sync.reserve) == 1
        assert np.count_nonzero(chunked.reserve) == 40
        assert chunked.r_sum < sync.r_sum
        chunked.check_invariants()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_passes_keep_invariants(self, chunked_graphs, policy):
        for name, graph in chunked_graphs.items():
            state = PushState(graph, 5, dead_end_policy=policy)
            state.residue[:] = 1.0 / graph.num_nodes
            state.refresh_r_sum()
            for _ in range(6):
                before = state.r_sum
                chunked_sweep(state)
                state.check_invariants()
                assert state.r_sum == float(state.residue.sum()), name
                assert state.r_sum < before, name

    def test_early_stop_pushes_only_a_prefix(self, chunked_graphs):
        graph = chunked_graphs["plain"]
        state = PushState(graph, 0)
        state.residue[:] = 1.0 / graph.num_nodes
        state.refresh_r_sum()
        first_end = graph.push_chunks().chunks[0][1]
        # Any positive push meets a target just below the current mass.
        chunked_sweep(state, stop_at=state.r_sum * (1.0 - 1e-12))
        assert np.all(state.reserve[:first_end] > 0.0)
        assert np.all(state.reserve[first_end:] == 0.0)
        assert state.counters.pushes == first_end
        assert state.counters.residue_updates == int(
            graph.out_degree[:first_end].sum()
        )
        state.check_invariants()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_solver_passes_keep_invariants(
        self, chunked_graphs, policy, monkeypatch
    ):
        passes = []

        def checked(state, **kwargs):
            chunked_sweep(state, **kwargs)
            state.check_invariants()
            passes.append(state.r_sum)

        monkeypatch.setattr(powerpush_module, "chunked_sweep", checked)
        for graph in chunked_graphs.values():
            result = power_push(graph, 0, dead_end_policy=policy)
            assert result.r_sum <= 1e-8
        assert passes

    @pytest.mark.parametrize("policy", POLICIES)
    def test_l1_error_against_tight_powitr(self, chunked_graphs, policy):
        l1 = 1e-8
        for name, graph in chunked_graphs.items():
            for source in (0, 57, 150):
                result = power_push(
                    graph, source, l1_threshold=l1, dead_end_policy=policy
                )
                reference = power_iteration(
                    graph,
                    source,
                    l1_threshold=l1 / 100,
                    dead_end_policy=policy,
                )
                assert result.r_sum <= l1
                error = l1_error(result.estimate, reference.estimate)
                assert error <= l1, (name, source, error)

    def test_fewer_updates_than_powitr(self, chunked_graphs):
        graph = chunked_graphs["plain"]
        pp = power_push(graph, 4, l1_threshold=1e-8)
        pi = power_iteration(graph, 4, l1_threshold=1e-8)
        assert pp.counters.residue_updates < 0.8 * pi.counters.residue_updates


class TestFaithfulFinalEpochStall:
    """The scalar mode must also push past a stalled final epoch.

    Under uniform-teleport the dead ends' conceptual degrees let nodes
    that are all inactive still hold more than lambda in total; the
    faithful scan then finds nothing to push with ``r_sum > lambda``.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    def test_dead_ends_meet_lambda(self, chunked_graphs, policy):
        l1 = 1e-8
        graph = chunked_graphs["dead-ends"]
        for source in range(0, 99, 7):
            result = power_push(
                graph,
                source,
                l1_threshold=l1,
                mode="faithful",
                dead_end_policy=policy,
            )
            reference = power_iteration(
                graph, source, l1_threshold=l1 / 100, dead_end_policy=policy
            )
            assert result.r_sum <= l1, (source, result.r_sum)
            error = l1_error(result.estimate, reference.estimate)
            assert error <= l1, (source, error)


class TestResultShape:
    def test_method_name(self, paper_graph):
        assert power_push(paper_graph, 0).method == "PowerPush"

    def test_top_k(self, paper_graph):
        result = power_push(paper_graph, 0, l1_threshold=1e-10)
        top = result.top_k(2)
        assert len(top) == 2
        # The source holds the largest PPR on this graph.
        assert top[0][0] == 0
        assert top[0][1] > top[1][1]
