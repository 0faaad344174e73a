"""Self-tests of the benchmark on a tiny R-MAT graph.

Run from the repository root::

    python3 perfbench/selftest.py

They check that every workload runs end to end in both modes, that a
wrong answer is counted as a failure, and that the percentile helper
refuses a tail its sample cannot support.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from check import Reference  # noqa: E402
from stats import TooFewSamples, percentile  # noqa: E402

TINY = {"scale": 8, "num_edges": 1500}


class TinyBench(unittest.TestCase):
    def setUp(self) -> None:
        run.CACHE_DIR.mkdir(parents=True, exist_ok=True)
        self.cache = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.CACHE_DIR))
        # Tiny solves take ~1 ms, so the open loop needs a higher rate to
        # give the percentiles enough samples in a short run.
        self.saved_rate, workloads.RATE = workloads.RATE, 150.0

    def tearDown(self) -> None:
        workloads.RATE = self.saved_rate
        shutil.rmtree(self.cache, ignore_errors=True)

    def run_tiny(self, name: str, traced: bool, **kwargs):
        return workloads.run_workload(
            name, 11, 2.0, traced, self.cache, **TINY, **kwargs
        )

    def test_every_workload_runs_in_both_modes(self) -> None:
        for traced, units in ((False, run.declared_units(False)), (True, run.declared_units(True))):
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, traced=traced):
                    outcome = self.run_tiny(name, traced)
                    self.assertEqual(outcome["failed"], 0, outcome["errors"])
                    self.assertGreater(outcome["attempted"], 0)
                    self.assertEqual(set(outcome["metrics"]), set(units))
                    if not traced:
                        for metric, value in outcome["metrics"].items():
                            self.assertGreater(value, 0.0, metric)

    def test_broken_certificate_counts_as_failure(self) -> None:
        perturbed = []

        def add_mass(answer):
            if perturbed:
                return answer
            perturbed.append(answer)
            estimate = answer.estimate.copy()
            estimate[0] += 1e-3
            return replace(answer, estimate=estimate)

        outcome = self.run_tiny("highprec-1m", False, perturb=add_mass)
        self.assertEqual(outcome["failed"], 1)
        self.assertTrue(any("not 1" in e for e in outcome["errors"]))

    def test_answer_off_the_reference_counts_as_failure(self) -> None:
        # Moving mass between two entries keeps the certificate intact;
        # only the independent reference can catch it.
        def move_mass(served):
            estimate = served.result.estimate.copy()
            top = int(np.argmax(estimate))
            estimate[top] -= 1e-4
            estimate[(top + 1) % estimate.shape[0]] += 1e-4
            return replace(served, result=replace(served.result, estimate=estimate))

        outcome = self.run_tiny("serve-zipf-1m", False, perturb=move_mass)
        self.assertEqual(outcome["failed"], workloads.REFERENCE_SAMPLE)
        self.assertTrue(all("reference" in e for e in outcome["errors"]))

    def test_reference_matches_after_edits(self) -> None:
        indptr, indices = inputs.rmat_csr(8, 1500, 5)
        graph = workloads._graph_of(indptr, indices)
        edits = inputs.update_batches(5, graph, 3, 4)
        flat = [edit for batch in edits for edit in batch]
        from repro.graph.dynamic import DynamicGraph

        dynamic = DynamicGraph(graph)
        dynamic.apply_updates(flat)
        snapshot = dynamic.snapshot()
        mirror = Reference.after_edits(snapshot.out_indptr, snapshot.out_indices, [])
        rebuilt = Reference.after_edits(indptr, indices, flat)
        np.testing.assert_allclose(
            mirror.vector(3, 0.2), rebuilt.vector(3, 0.2), atol=1e-14
        )


class Percentile(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self) -> None:
        with self.assertRaises(TooFewSamples):
            percentile(list(range(99)), 90)
        with self.assertRaises(TooFewSamples):
            percentile(list(range(19)), 50)

    def test_interpolates_like_numpy(self) -> None:
        values = list(np.random.default_rng(0).random(200))
        for q in (50, 90, 95):
            self.assertAlmostEqual(percentile(values, q), float(np.percentile(values, q)))


def tearDownModule() -> None:
    run.stop_children()


if __name__ == "__main__":
    unittest.main()
