"""Rescaling measured times to a box of fixed speed.

On a shared 4-core box the same work ran up to 1.5-2x slower for stretches
of a second to whole runs, so raw times of two runs of the same code could
differ by more than any useful regression bound. A fixed reference kernel
is therefore timed between operations, and each operation's time is
rescaled by ``REF_MS`` over the median of the kernel times measured around
it. Measured here over 200 s, the windowed spread of MLP-inference time
fell from 16% raw to 3% rescaled, and that of ``trace_rows`` from 12% to
5-8%.

The kernel is benchmark code that calls nothing in ``repro``, so a change
to the program moves the rescaled times exactly as it moves the raw ones.
"""
from __future__ import annotations

import time

import numpy as np

# Rescaled times read as if measured where one kernel run takes this long.
REF_MS = 10.0
EVERY_S = 0.25   # sample the kernel at most this often
NEAREST = 6      # rescale by the median of this many samples around a time


class Reference:
    """The kernel, its timed samples and the rescaling they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.X = rng.random((96, 64))
        self.W = [rng.random((64, 128)), rng.random((128, 128)), rng.random((128, 1))]
        self.at: list[float] = []
        self.took: list[float] = []

    def run(self) -> float:
        """Small dense layers (as in MLP inference), then small arrays, lists
        and dicts (as in feature assembly and the simulator)."""
        acc = 0.0
        for _ in range(12):
            h = np.maximum(self.X @ self.W[0], 0.0)
            h = np.maximum(h @ self.W[1], 0.0)
            acc += float((h @ self.W[2]).sum())
        rows = []
        for i in range(300):
            v = np.concatenate([self.X[i % 96, :16], np.full(8, float(i))])
            rows.append({"i": i, "f": v.tolist(), "y": float(np.exp(-v[0]))})
        d: dict[int, int] = {}
        for i in range(8000):
            d[i % 97] = d.get(i % 97, 0) + i
        return acc + sum(r["y"] for r in rows) + len(d)

    def sample(self, *, force: bool = False) -> None:
        """Time one kernel run, unless one ran less than ``EVERY_S`` ago."""
        t0 = time.perf_counter()
        if force or not self.at or t0 - self.at[-1] >= EVERY_S:
            self.run()
            self.at.append(t0)
            self.took.append(time.perf_counter() - t0)

    def scale(self, t: float) -> float:
        """``REF_MS`` over the median of the samples nearest time ``t``."""
        i = int(np.searchsorted(self.at, t))
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return REF_MS / (1e3 * float(np.median(self.took[lo:lo + NEAREST])))

    def scale_until(self, t: float) -> float:
        """``REF_MS`` over the median of all samples before ``t`` (the
        nearest ones if there are fewer than ``NEAREST``)."""
        n = int(np.searchsorted(self.at, t))
        if n < NEAREST:
            return self.scale(t)
        return REF_MS / (1e3 * float(np.median(self.took[:n])))
