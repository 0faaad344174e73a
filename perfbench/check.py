"""Answer checks: the per-answer certificate and an independent reference.

The reference is computed here from the benchmark's own edge list (the
list ``DiGraph.edge_array()`` returns, taken from the CSR arrays the
benchmark generated) with numpy and scipy only; nothing in this module
imports the program under test, so a bug shared by every solver and
serving path cannot also hide in the reference.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Residue mass at which the reference's Neumann series stops; its own
#: l1 error is at most this, which is added to the tolerance of the check.
REFERENCE_TOL = 1e-12
#: Allowed drift of ``sum(estimate) + r_sum`` from 1 (float summation).
MASS_TOL = 1e-9


def certificate_errors(result: object, source: int, lam: float, n: int) -> list[str]:
    """What is wrong with one answer's own error certificate (empty if ok).

    A push answer certifies itself: its residue sum bounds the l1 error
    (``r_sum <= lambda``), its estimate is non-negative, and estimate
    plus residue conserve the unit of probability mass.
    """
    errors = []
    if result.source != source:
        errors.append(f"answer is for source {result.source}, asked {source}")
    estimate, residue = result.estimate, result.residue
    if residue is None or estimate.shape != (n,) or residue.shape != (n,):
        return errors + ["answer lacks an n-vector estimate and residue"]
    r_sum = float(residue.sum())
    if not r_sum <= lam:
        errors.append(f"r_sum {r_sum:.3e} > lambda {lam:.1e}")
    if not float(estimate.min()) >= 0.0:
        errors.append(f"negative estimate {float(estimate.min()):.3e}")
    mass = float(estimate.sum()) + r_sum
    if not abs(mass - 1.0) <= MASS_TOL:
        errors.append(f"sum(estimate) + r_sum = {mass!r}, not 1")
    return errors


class Reference:
    """Exact-to-1e-12 PPR vectors of one edge list by Neumann series.

    ``pi_s = alpha * sum_k (1 - alpha)^k e_s P^k``, iterated as
    ``r <- (1 - alpha) P^T r`` until ``sum(r) <= REFERENCE_TOL``.
    """

    def __init__(self, sources: np.ndarray, targets: np.ndarray, n: int) -> None:
        degree = np.bincount(sources, minlength=n).astype(np.float64)
        if np.any(degree == 0):
            raise ValueError("reference graph has dead ends")
        self.n = n
        self._pt = sp.csr_matrix(
            (1.0 / degree[sources], (targets, sources)), shape=(n, n)
        )

    @classmethod
    def after_edits(
        cls, indptr: np.ndarray, indices: np.ndarray, edits: list
    ) -> "Reference":
        """The reference of the base graph after ``(op, u, v)`` edits."""
        n = indptr.shape[0] - 1
        keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n
        keys += indices
        final = {u * n + v: op for op, u, v in edits}  # the last edit wins
        added = np.array([k for k, op in final.items() if op == "+"], dtype=np.int64)
        removed = np.array([k for k, op in final.items() if op != "+"], dtype=np.int64)
        keys = np.union1d(np.setdiff1d(keys, removed), added)
        return cls(keys // n, keys % n, n)

    def vector(self, source: int, alpha: float) -> np.ndarray:
        residue = np.zeros(self.n)
        residue[source] = 1.0
        estimate = np.zeros(self.n)
        while residue.sum() > REFERENCE_TOL:
            estimate += alpha * residue
            residue = (1.0 - alpha) * (self._pt @ residue)
        return estimate

    def l1_error(self, result: object, alpha: float) -> float:
        return float(np.abs(result.estimate - self.vector(result.source, alpha)).sum())


def reference_errors(reference: Reference, result: object, alpha: float, lam: float) -> list[str]:
    """Empty when the answer is within ``lam`` of the reference in l1."""
    l1 = reference.l1_error(result, alpha)
    if not l1 <= lam + REFERENCE_TOL:
        return [f"l1 error {l1:.3e} vs reference exceeds lambda {lam:.1e}"]
    return []
