"""The 19-knob Spark parameter space of the paper (Table 6).

Three categories, mirroring the paper's mixed control model:

* ``THETA_C`` — 8 context parameters (``k1..k8``) fixed at Spark-context
  initialization (query level).
* ``THETA_P`` — 9 logical-query-plan parameters (``s1..s9``) consumed by
  AQE's parametric logical rules; tunable per collapsed plan.
* ``THETA_S`` — 2 query-stage parameters (``s10, s11``) consumed by AQE's
  stage rules; tunable per query stage.

Every knob carries its Spark name, domain, default, and unit so that a
configuration can be rendered back into ``spark.conf`` settings (used by
``repro.sparkexec`` for the knobs that are settable on a live session).

Configurations are plain ``dict[str, float]`` keyed by short knob ids
(``k1``..``k8``, ``s1``..``s11``); helpers convert to/from normalized
numpy vectors in [0, 1] for modeling and MOO.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MB = 1024.0**2
GB = 1024.0**3


@dataclass(frozen=True)
class Knob:
    """One tunable Spark parameter.

    ``lo``/``hi`` bound the tuning domain in natural units. ``log`` knobs are
    normalized on a log scale (byte thresholds span orders of magnitude).
    ``integer`` knobs are rounded after denormalization.
    """

    kid: str
    spark_name: str
    lo: float
    hi: float
    default: float
    log: bool = False
    integer: bool = False
    unit: str = ""

    def clamp(self, v: float) -> float:
        v = min(max(v, self.lo), self.hi)
        return float(round(v)) if self.integer else float(v)

    def normalize(self, v: float) -> float:
        v = min(max(v, self.lo), self.hi)
        if self.log:
            lo, hi = np.log10(self.lo), np.log10(self.hi)
            return float((np.log10(v) - lo) / (hi - lo))
        return float((v - self.lo) / (self.hi - self.lo))

    def denormalize(self, u: float) -> float:
        u = min(max(u, 0.0), 1.0)
        if self.log:
            lo, hi = np.log10(self.lo), np.log10(self.hi)
            v = 10 ** (lo + u * (hi - lo))
        else:
            v = self.lo + u * (self.hi - self.lo)
        return self.clamp(v)


# --- θc: context parameters (query-level, fixed at submission) -------------
# Defaults are a sane 6-node-cluster baseline (2 cores × 8 executors, 8 GB
# per executor), mirroring the "default Spark configuration" the paper
# measures reductions against — not the bare-metal 1-core/2-instance
# shipping defaults, which would inflate every method's gains.
THETA_C: list[Knob] = [
    Knob("k1", "spark.executor.cores", 1, 5, 2, integer=True, unit="cores"),
    Knob("k2", "spark.executor.memory", 4 * GB, 32 * GB, 8 * GB, log=True, unit="bytes"),
    Knob("k3", "spark.executor.instances", 2, 16, 8, integer=True, unit="execs"),
    Knob("k4", "spark.default.parallelism", 8, 320, 32, integer=True, unit="tasks"),
    Knob("k5", "spark.reducer.maxSizeInFlight", 8 * MB, 192 * MB, 48 * MB, log=True, unit="bytes"),
    Knob("k6", "spark.shuffle.sort.bypassMergeThreshold", 50, 1000, 200, integer=True, unit="#parts"),
    Knob("k7", "spark.shuffle.compress", 0, 1, 1, integer=True, unit="bool"),
    Knob("k8", "spark.memory.fraction", 0.4, 0.9, 0.6, unit="frac"),
]

# --- θp: logical query plan parameters (per collapsed plan) ----------------
THETA_P: list[Knob] = [
    Knob("s1", "spark.sql.adaptive.advisoryPartitionSizeInBytes", 8 * MB, 512 * MB, 64 * MB, log=True, unit="bytes"),
    Knob("s2", "spark.sql.adaptive.nonEmptyPartitionRatioForBroadcastJoin", 0.05, 0.8, 0.2, unit="frac"),
    Knob("s3", "spark.sql.adaptive.maxShuffledHashJoinLocalMapThreshold", 1, 4 * GB, 1, log=True, unit="bytes"),
    Knob("s4", "spark.sql.adaptive.autoBroadcastJoinThreshold", 1, 8 * GB, 10 * MB, log=True, unit="bytes"),
    Knob("s5", "spark.sql.shuffle.partitions", 16, 2048, 200, log=True, integer=True, unit="#parts"),
    Knob("s6", "spark.sql.adaptive.skewJoin.skewedPartitionThresholdInBytes", 16 * MB, 1 * GB, 256 * MB, log=True, unit="bytes"),
    Knob("s7", "spark.sql.adaptive.skewJoin.skewedPartitionFactor", 2, 10, 5, unit="x"),
    Knob("s8", "spark.sql.files.maxPartitionBytes", 16 * MB, 512 * MB, 128 * MB, log=True, unit="bytes"),
    Knob("s9", "spark.sql.files.openCostInBytes", 1 * MB, 16 * MB, 4 * MB, log=True, unit="bytes"),
]

# --- θs: query stage parameters (per runtime QS) ----------------------------
THETA_S: list[Knob] = [
    Knob("s10", "spark.sql.adaptive.rebalancePartitionsSmallPartitionFactor", 0.1, 0.8, 0.2, unit="frac"),
    Knob("s11", "spark.sql.adaptive.coalescePartitions.minPartitionSize", 1 * MB, 64 * MB, 1 * MB, log=True, unit="bytes"),
]

ALL_KNOBS: list[Knob] = THETA_C + THETA_P + THETA_S
KNOB_BY_ID: dict[str, Knob] = {k.kid: k for k in ALL_KNOBS}

C_IDS = [k.kid for k in THETA_C]
P_IDS = [k.kid for k in THETA_P]
S_IDS = [k.kid for k in THETA_S]

D_C, D_P, D_S = len(THETA_C), len(THETA_P), len(THETA_S)


def default_conf() -> dict[str, float]:
    """Spark's default configuration over all 19 knobs."""
    return {k.kid: float(k.default) for k in ALL_KNOBS}


def split_conf(conf: dict[str, float]) -> tuple[dict, dict, dict]:
    """Split a 19-knob configuration into (θc, θp, θs) sub-dicts."""
    return (
        {i: conf[i] for i in C_IDS},
        {i: conf[i] for i in P_IDS},
        {i: conf[i] for i in S_IDS},
    )


def merge_conf(theta_c: dict, theta_p: dict, theta_s: dict) -> dict[str, float]:
    """Inverse of :func:`split_conf`."""
    out: dict[str, float] = {}
    out.update(theta_c)
    out.update(theta_p)
    out.update(theta_s)
    return out


def to_vector(conf: dict[str, float], ids: list[str] | None = None) -> np.ndarray:
    """Encode a configuration (or a named subset) as a normalized vector."""
    ids = ids or [k.kid for k in ALL_KNOBS]
    return np.array([KNOB_BY_ID[i].normalize(conf[i]) for i in ids], dtype=np.float64)


def from_vector(vec: np.ndarray, ids: list[str] | None = None) -> dict[str, float]:
    """Decode a normalized vector back into a configuration dict."""
    ids = ids or [k.kid for k in ALL_KNOBS]
    if len(vec) != len(ids):
        raise ValueError(f"vector length {len(vec)} != {len(ids)} knobs")
    return {i: KNOB_BY_ID[i].denormalize(float(u)) for i, u in zip(ids, vec)}


def lhs_sample(n: int, ids: list[str], seed: int = 0) -> list[dict[str, float]]:
    """Latin Hypercube Sampling over the named knobs (paper §6: LHS [31])."""
    rng = np.random.default_rng(seed)
    d = len(ids)
    u = (rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T + rng.random((n, d))) / n
    return [from_vector(u[i], ids) for i in range(n)]


def _bounds(ids: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    ks = [KNOB_BY_ID[i] for i in ids]
    lo = np.array([k.lo for k in ks])
    hi = np.array([k.hi for k in ks])
    is_log = np.array([k.log for k in ks])
    is_int = np.array([k.integer for k in ks])
    return lo, hi, is_log, is_int


def denormalize_matrix(U: np.ndarray, ids: list[str]) -> np.ndarray:
    """Vectorized [0,1]^d → natural units for a batch of configurations."""
    U = np.clip(np.asarray(U, dtype=np.float64), 0.0, 1.0)
    lo, hi, is_log, is_int = _bounds(ids)
    lin = lo + U * (hi - lo)
    lo_s, hi_s = np.where(is_log, lo, 1.0), np.where(is_log, hi, 1.0)
    logv = 10 ** (np.log10(lo_s) + U * (np.log10(hi_s) - np.log10(lo_s)))
    M = np.where(is_log, logv, lin)
    return np.where(is_int, np.round(M), M)


def normalize_matrix(M: np.ndarray, ids: list[str]) -> np.ndarray:
    """Vectorized natural units → [0,1]^d."""
    M = np.asarray(M, dtype=np.float64)
    lo, hi, is_log, is_int = _bounds(ids)
    M = np.clip(M, lo, hi)
    lin = (M - lo) / np.where(hi > lo, hi - lo, 1.0)
    lo_s, hi_s = np.where(is_log, lo, 1.0), np.where(is_log, hi, 2.0)
    logv = (np.log10(np.maximum(M, 1e-12)) - np.log10(lo_s)) / (np.log10(hi_s) - np.log10(lo_s))
    return np.where(is_log, logv, lin)


# Refined search ranges for optimization-time candidate generation
# (paper §6.3: "we refine the search range for each Spark parameter by
# avoiding the extreme values of the parameter space that could make the
# predictions less reliable"). Values are bounds in *normalized* space;
# the model/feature domains are unchanged. The lower bound on s5 and the
# upper bound on s8 exclude the under-partitioning corner where analytical
# latency (the compile-time objective) diverges hardest from wall latency.
REFINED_BOUNDS: dict[str, tuple[float, float]] = {
    "s5": (0.35, 1.0),
    "s8": (0.0, 0.85),
    "s9": (0.0, 0.9),
}
_DEFAULT_REFINE = (0.02, 0.98)


def refine_unit(U: np.ndarray, ids: list[str]) -> np.ndarray:
    """Map uniform [0,1] samples into the refined per-knob sub-ranges."""
    U = np.asarray(U, dtype=np.float64)
    lo = np.array([REFINED_BOUNDS.get(i, _DEFAULT_REFINE)[0] for i in ids])
    hi = np.array([REFINED_BOUNDS.get(i, _DEFAULT_REFINE)[1] for i in ids])
    return lo + U * (hi - lo)


def spark_conf_items(conf: dict[str, float]) -> dict[str, str]:
    """Render knob values as ``spark.conf`` strings (integers for byte/count knobs)."""
    out: dict[str, str] = {}
    for kid, v in conf.items():
        knob = KNOB_BY_ID[kid]
        if knob.kid == "k7":
            out[knob.spark_name] = "true" if v >= 0.5 else "false"
        elif knob.integer or knob.unit == "bytes":
            out[knob.spark_name] = str(int(round(v)))
        else:
            out[knob.spark_name] = f"{v:.4f}"
    return out
