"""OPT's runtime optimizer — the AQE plugin of §5.2.

Runs inside the (simulated) Spark driver's AQE loop. On each collapsed
plan it may re-tune θp using *true* statistics; on each new query stage it
may re-tune θs. Both score their candidates with the runtime QS model.
Request pruning (§C.2.2) keeps the call volume down:

* LQP̄ requests are bypassed for non-join collapse points and deferred
  until every input of the join has actual statistics;
* QS requests skip scan stages and stages whose input is below the
  advisory partition size (nothing to re-partition).

θp candidates are "keep the current θp" plus four *threshold-targeted*
variants — ``s4``/``s3`` placed just above or below the observed build
size, so the optimizer can deliberately enable a BHJ/SHJ for this join (or
avoid a catastrophic broadcast) the way Fig. 3(b)'s runtime plan surgery
does. They are scored on the join's own stage. θs candidates are "keep
the current θs" plus a fixed (s10, s11) grid.
Also provides ``aggregate_theta`` — the §C.2.1 rule collapsing the
compile-time per-subQ θp/θs into the single copy Spark accepts at submit.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.plan import SubQDag
from repro.model import predictor as P
from repro.model.features import gamma_features
from repro.moo.hmooc import QueryConfig
from repro.params import GB, MB, KNOB_BY_ID, P_IDS, S_IDS
from repro.simspark.costmodel import (DEFAULT_COSTS, SMJ,
                                      choose_join_algorithm)
from repro.simspark.executor import join_sides


def aggregate_theta(qc: QueryConfig, dag: SubQDag) -> tuple[dict, dict]:
    """Collapse fine-grained per-subQ θp/θs into the one copy Spark takes
    at submission (§C.2.1).

    Join thresholds (s3, s4) take the *minimum* over join-headed subQs —
    forcing a join algorithm from inaccurate compile-time cardinalities is
    the failure AQE cannot undo — then are capped from below at Spark's
    defaults so small scan-side BHJs are not missed. The remaining knobs
    take the geometric median (geo-mean) over subQs.
    """
    join_sqs = [i for i, s in dag.subqs.items() if s.boundary_type == "join"]
    sq_ids = sorted(qc.theta_p)
    theta_p: dict[str, float] = {}
    for kid in P_IDS:
        vals = np.array([qc.theta_p[i][kid] for i in sq_ids])
        if kid in ("s3", "s4") and join_sqs:
            v = float(min(qc.theta_p[i][kid] for i in join_sqs))
            v = max(v, KNOB_BY_ID[kid].default)  # cap at Spark default
        else:
            v = float(np.exp(np.mean(np.log(np.maximum(vals, 1e-9)))))
        theta_p[kid] = KNOB_BY_ID[kid].clamp(v)
    theta_s: dict[str, float] = {}
    for kid in S_IDS:
        vals = np.array([qc.theta_s[i][kid] for i in sq_ids])
        theta_s[kid] = KNOB_BY_ID[kid].clamp(
            float(np.exp(np.mean(np.log(np.maximum(vals, 1e-9))))))
    return theta_p, theta_s


class OnlineOptimizer:
    """Model-driven runtime re-tuning of θp / θs (implements the executor's
    RuntimeOptimizer protocol)."""

    def __init__(self, dag: SubQDag, suite: P.ModelSuite, theta_c: dict,
                 weights, *, costs=DEFAULT_COSTS):
        self.dag = dag
        self.suite = suite
        self.theta_c = dict(theta_c)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.costs = costs
        self.time_spent_s = 0.0
        # QS-model context (true statistics — this is runtime)
        self._ctx = {i: P.StageContext.of(dag, i, true=True) for i in dag.subqs}
        # Siblings' contention is unknown before a stage runs, so requests
        # are served with a lone stage's γ; trained QS rows carry the
        # observed γ (a known drift, see tests/test_traces.py).
        self._gamma = gamma_features(1, 0.0, 0.0)
        mem = theta_c["k2"] * theta_c["k8"] * costs.mem_safety
        self._mem_exec = mem
        # θs candidate grid
        s10s = np.linspace(0.1, 0.8, 4)
        s11s = np.array([1 * MB, 4 * MB, 16 * MB, 64 * MB])
        self._theta_s_grid = [{"s10": float(a), "s11": float(b)}
                              for a in s10s for b in s11s]

    # -- helpers ---------------------------------------------------------------
    def _rate(self) -> float:
        c = self.theta_c
        return (c["k1"] * c["k3"] * self.costs.price_core_h
                + c["k2"] / GB * c["k3"] * self.costs.price_mem_gb_h
                + self.costs.price_driver_h) / 3600.0

    def _pick_weighted(self, F: np.ndarray) -> int:
        lo, hi = F.min(axis=0), F.max(axis=0)
        Fn = (F - lo) / np.where(hi > lo, hi - lo, 1.0)
        return int((Fn * self.weights).sum(axis=1).argmin())

    # -- LQP̄ re-optimization ----------------------------------------------------
    def on_collapsed_lqp(self, dag: SubQDag, sq_id: int, known: dict[int, dict],
                         theta_p: dict) -> dict | None:
        sq = dag.subqs[sq_id]
        if sq.boundary_type != "join":
            return None  # pruned: non-join collapse
        if any(d not in known for d in sq.deps):
            return None  # pruned: defer until input stats available
        t0 = time.perf_counter()
        bb, pb, br = join_sides(dag, sq_id, true=True)
        # Candidate 0 is "keep the current θp"; the others surgically move
        # only the join thresholds around the *observed* build size, so the
        # model only has to rank join-algorithm choices (the decision AQE's
        # parametric rules will actually consume), not re-tune everything.
        cands: list[dict] = [dict(theta_p)]
        for enable_bhj in (True, False):
            for enable_shj in (True, False):
                c = dict(theta_p)
                c["s4"] = KNOB_BY_ID["s4"].clamp(
                    bb * 2.0 if enable_bhj and bb * 1.8 <= self._mem_exec else max(1.0, bb * 0.5))
                p = max(1.0, round(c["s5"]))
                c["s3"] = KNOB_BY_ID["s3"].clamp(
                    (bb / p) * 2.0 if enable_shj else max(1.0, (bb / p) * 0.5))
                cands.append(c)
        # Score candidates with the runtime QS model on the affected join
        # stage: the join-algorithm one-hot each candidate's thresholds
        # induce (under AQE's demote-only rule) is a sharp, stage-local
        # signal — the whole-plan LQP̄ model barely resolves one join.
        ctx = self._ctx[sq_id]
        rows_cs, nat_full, algs = [], [], []
        for c in cands:
            conf = {**self.theta_c, **c, "s10": 0.2, "s11": 1 * MB}
            algs.append(choose_join_algorithm(
                bb, pb, conf, rows_build=br, runtime=True, compile_alg=SMJ))
            rows_cs.append(P.conf_to_vec_qs(conf))
            nat_full.append([conf[i] for i in P.FULL_IDS])
        U_cs = np.array(rows_cs)
        derived = ctx.derived(np.array(nat_full))
        F = np.zeros((len(cands), 2))
        for a in sorted(set(algs)):
            mask = np.array([x == a for x in algs])
            X = ctx.qs_rows(U_cs[mask], derived[mask], a, self._gamma)
            lat, io_mb = self.suite.qs.predict(X)
            cost = (np.maximum(lat, 1e-4) * self._rate()
                    + np.maximum(io_mb, 0.0) / 1024.0 * self.costs.price_io_gb)
            F[mask] = np.stack([lat, cost], axis=1)
        best = self._pick_weighted(F)
        # only deviate from the submitted θp on a clear predicted win
        score = (F * self.weights).sum(axis=1)
        if best != 0 and score[best] > 0.98 * score[0]:
            best = 0
        self.time_spent_s += time.perf_counter() - t0
        return cands[best]

    # -- QS θs optimization ------------------------------------------------------
    def on_query_stage(self, dag: SubQDag, sq_id: int, input_bytes: float,
                       conf: dict) -> dict | None:
        sq = dag.subqs[sq_id]
        if sq.kind == "scan":
            return None  # pruned: scan QS
        if input_bytes <= conf["s1"]:
            return None  # pruned: single-partition input, nothing to tune
        t0 = time.perf_counter()
        alg = ""
        if sq.boundary_type == "join":
            bb, pb, br = join_sides(dag, sq_id, true=True)
            alg = choose_join_algorithm(bb, pb, conf, rows_build=br, runtime=True,
                                        compile_alg=None)
        ctx = self._ctx[sq_id]
        grid = [{"s10": conf["s10"], "s11": conf["s11"]}] + self._theta_s_grid
        rows_cs, nat_full = [], []
        for ts in grid:
            full = {**conf, **ts}
            rows_cs.append(P.conf_to_vec_qs(full))
            nat_full.append([full[i] for i in P.FULL_IDS])
        X = ctx.qs_rows(np.array(rows_cs), ctx.derived(np.array(nat_full)), alg,
                        self._gamma)
        lat, io_mb = self.suite.qs.predict(X)
        cost = np.maximum(lat, 1e-4) * self._rate() + np.maximum(io_mb, 0.0) / 1024.0 * self.costs.price_io_gb
        F = np.stack([lat, cost], axis=1)
        best = self._pick_weighted(F)
        # keep the submitted θs unless the model predicts a clear win
        score = (F * self.weights).sum(axis=1)
        if best != 0 and score[best] > 0.97 * score[0]:
            best = 0
        self.time_spent_s += time.perf_counter() - t0
        return dict(grid[best])
