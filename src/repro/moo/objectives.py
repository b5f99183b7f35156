"""Model-based objective evaluation for the compile-time optimizer.

``CompileTimeObjectives`` turns batches of candidate configurations into
predicted (analytical latency, cloud cost) pairs per subQ, using the
trained subQ models with CBO-estimated statistics (paper §5.1: the
modeling constraint of compile time). Cloud cost is the cost model's one
price (``CostParams.rate``/``cost``) and decomposes per subQ as

    cost_i = ana_latency_i * rate(θc) + io_i * io_price

so query-level objectives are sums of subQ-level ones — the property the
whole HMOOC DAG-aggregation machinery relies on (Λ = sum).

Everything is vectorized over normalized knob matrices ``U`` whose columns
follow ``FULL_IDS`` (θc ‖ θp ‖ θs).
"""
from __future__ import annotations

import numpy as np

from repro.core.plan import SubQDag
from repro.model import predictor as P
from repro.params import C_IDS, D_C, D_P, D_S, P_IDS, S_IDS, denormalize_matrix
from repro.simspark.costmodel import DEFAULT_COSTS, CostParams

D_PS = D_P + D_S
D_FULL = D_C + D_PS

# column indices of k1, k2, k3 within FULL_IDS order
_K1, _K2, _K3 = 0, 1, 2


class CompileTimeObjectives:
    """Batched (latency, cost) predictions for one query's subQ DAG."""

    def __init__(self, dag: SubQDag, suite: P.ModelSuite,
                 costs: CostParams = DEFAULT_COSTS):
        self.dag = dag
        self.suite = suite
        self.costs = costs
        self.sq_ids = sorted(dag.subqs)
        self._ctx = {i: P.StageContext.of(dag, i, true=False) for i in self.sq_ids}

    @property
    def m(self) -> int:
        return len(self.sq_ids)

    def subq_batch(self, sq_id: int, U_full: np.ndarray,
                   M_nat: np.ndarray | None = None) -> np.ndarray:
        """(n, 2) predicted [analytical latency (s), cloud cost ($)].

        ``M_nat`` is ``U_full`` decoded to natural units; callers that
        evaluate one batch for several subQs decode it once and pass it.
        """
        U_full = np.atleast_2d(U_full)
        if M_nat is None:
            M_nat = denormalize_matrix(U_full, P.FULL_IDS)
        ctx = self._ctx[sq_id]
        X = ctx.subq_rows(U_full, ctx.derived(M_nat))
        lat, io_mb = self.suite.subq.predict(X)
        lat = np.maximum(lat, 1e-4)
        io_gb = np.maximum(io_mb, 0.0) / 1024.0
        rate = self.costs.rate(M_nat[:, _K1], M_nat[:, _K2], M_nat[:, _K3])
        return np.stack([lat, self.costs.cost(lat, io_gb, rate)], axis=1)

    def query_shared_batch(self, U_full: np.ndarray) -> np.ndarray:
        """Query-level objectives when one (θc, θp, θs) is shared by all
        subQs (the coarse-grained baselines' view)."""
        U_full = np.atleast_2d(U_full)
        M_nat = denormalize_matrix(U_full, P.FULL_IDS)
        F = np.zeros((len(U_full), 2))
        for i in self.sq_ids:
            F += self.subq_batch(i, U_full, M_nat)
        return F

    def query_fine_batch(self, U_big: np.ndarray) -> np.ndarray:
        """Query-level objectives for fine-grained decision vectors
        ``[θc | θp_1 θs_1 | ... | θp_m θs_m]`` of dim 8 + 11m."""
        U_big = np.atleast_2d(U_big)
        M_big = denormalize_matrix(U_big, C_IDS + (P_IDS + S_IDS) * self.m)
        F = np.zeros((len(U_big), 2))
        for j, i in enumerate(self.sq_ids):
            cols = np.r_[:D_C, D_C + j * D_PS:D_C + (j + 1) * D_PS]
            F += self.subq_batch(i, U_big[:, cols], M_big[:, cols])
        return F
