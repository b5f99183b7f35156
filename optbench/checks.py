"""Output checks and failure counting.

Every checked call counts as one attempt. It fails when it raises or when
its check returns a problem; failures never abort the run.
"""
from __future__ import annotations

import math
import time
import traceback
from typing import Any, Callable

import numpy as np

from repro.model.predictor import LQP_DIM, QS_DIM, SUBQ_DIM
from repro.params import KNOB_BY_ID

ROW_WIDTH = {"subq": SUBQ_DIM, "qs": QS_DIM, "lqp": LQP_DIM}


def check_solve(res, conf: dict) -> str | None:
    """A non-empty finite Pareto set and a 19-knob conf inside its domains."""
    F = np.asarray(res.F, dtype=np.float64)
    if F.ndim != 2 or len(F) == 0:
        return "empty Pareto set"
    if not np.isfinite(F).all():
        return "non-finite objectives"
    if set(conf) != set(KNOB_BY_ID):
        return f"submitted knobs {sorted(conf)} are not the 19 knobs"
    for kid, v in conf.items():
        k = KNOB_BY_ID[kid]
        if not (math.isfinite(v) and k.lo <= v <= k.hi):
            return f"knob {kid}={v} outside [{k.lo}, {k.hi}]"
    return None


def check_run(run) -> str | None:
    """A simulated execution with finite, positive latency and cost."""
    for name in ("latency_s", "cost_usd"):
        v = getattr(run, name)
        if not (math.isfinite(v) and v > 0):
            return f"{name}={v}"
    return None


def check_trace_rows(rows: list[dict]) -> str | None:
    """Rows of every kind, each of its layout's width, all finite."""
    if {r["kind"] for r in rows} != set(ROW_WIDTH):
        return f"row kinds {sorted({r['kind'] for r in rows})}"
    for r in rows:
        if len(r["feats"]) != ROW_WIDTH[r["kind"]]:
            return f"{r['kind']} row width {len(r['feats'])} != {ROW_WIDTH[r['kind']]}"
        if not (np.isfinite(r["feats"]).all()
                and math.isfinite(r["latency"]) and math.isfinite(r["io_mb"])):
            return f"non-finite {r['kind']} row"
    return None


def check_wmape(wmape: float) -> str | None:
    return None if math.isfinite(wmape) else f"held-out WMAPE {wmape}"


class Checks:
    """Attempt / failure counters plus the first few failure messages."""

    MAX_ERRORS = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, what: str, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(f"{what}: {msg}")

    def call(self, what: str, fn: Callable[[], Any],
             check: Callable[[Any], str | None]) -> tuple[Any, float]:
        """Run ``fn``; return (output or None on failure, wall seconds of fn)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self._fail(what, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        problem = check(out)
        if problem is not None:
            self._fail(what, problem)
            return None, dt
        return out, dt

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
