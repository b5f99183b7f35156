"""OPT benchmark: one command, three workloads, untraced or traced.

    python3 optbench/run.py --workload compile-tpcds --seed 1 --seconds 15 --trace 0

Run from the repository root; workloads are in ``optbench.workloads`` and
the seed baseline in ``optbench/baseline.json``. ``--trace 0`` measures
the end-to-end metrics with nothing wrapped, as times rescaled to a box of
fixed speed (``optbench.reference``). ``--trace 1`` wraps the ``repro``
layers, reports the per-layer metrics, and re-runs the first timed
operations with the wrappers removed to state the tracing overhead. The
last line of standard output is the result JSON; the line before it is the
full report (every named metric, provenance, failures). Both, and the
spans of a traced run, are also written under ``.bench_out/``.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# (name, unit) of the end-to-end metrics, measured on every workload.
END_TO_END = [
    ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("ops_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
]


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libopenblas*.so*")):
        try:
            cdll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, wall_s: float) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(ROOT), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
        "blas_threads": blas_threads(), "numpy": np.__version__,
        "python": sys.version.split()[0],
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "wall_s": wall_s, "cpu_s": time.process_time(),
    }


def tracing_overhead(ctx) -> float:
    """Traced over untraced time of the same first timed operations, minus 1.

    Re-runs the shortest prefix of the traced operations that took half the
    run (at least one), with every wrapper already removed, sampling the
    reference kernel as the traced loop did; both sides are rescaled.
    """
    traced = untraced = 0.0
    for op in ctx.ops:
        if op.out is None:
            continue
        at = time.perf_counter()
        op.fn()
        dt = time.perf_counter() - at
        ctx.ref.sample()
        untraced += dt * ctx.ref.scale(at)
        traced += op.wall_s * op.scale
        if traced >= ctx.seconds / 2:
            break
    return traced / untraced - 1.0 if untraced else 0.0


def write_out(name: str, obj) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / name).write_text(json.dumps(obj))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"optbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # One client and no extra threads: OpenBLAS otherwise starts a thread per
    # core, and on a shared 4-core box that made the same training vary 2x
    # between runs. Set before numpy is imported; the environment wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np

    from optbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"optbench: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, t_start=T_START)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ctx.tracer = tracing.Tracer()
        with ctx.tracer.installed(tracing.install_repro):
            workloads.WORKLOADS[args.workload](ctx)
        metrics = tracing.layer_metrics(ctx.tracer.spans)
        units = dict(tracing.LAYER_METRICS)
        metrics["trace.overhead_frac"] = tracing_overhead(ctx)
        units["trace.overhead_frac"] = "fraction"
        spans = ctx.tracer.spans
        write_out(f"spans-{tag}.json", {
            "fields": ["name", "start", "end", "parent", "op", "cpu", "counts"],
            "spans": [[s.name, s.start, s.end, s.parent, s.op, s.cpu, s.counts]
                      for s in spans]})
        ctx.report["trace_spans"] = len(spans)
    else:
        workloads.WORKLOADS[args.workload](ctx)
        t = workloads.op_times(ctx)
        metrics = {
            "op_p50_ms": float(np.median(t)) * 1e3,
            "op_p90_ms": float(np.percentile(t, 90)) * 1e3,
            "ops_per_s": len(t) / float(t.sum()),
            "setup_s": ctx.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = workloads.op_times(ctx, raw=True)
        ctx.report.update(
            metrics, op_raw_p50_ms=float(np.median(raw)) * 1e3,
            op_raw_p90_ms=float(np.percentile(raw, 90)) * 1e3,
            setup_raw_s=ctx.setup_raw_s, ref_ms=float(np.median(ctx.ref.took)) * 1e3)
        units = dict(END_TO_END)
    ctx.report.update(setup_s=ctx.setup_s, fail_frac=ctx.checks.fail_frac,
                      n_ops=len(ctx.ops), errors=ctx.checks.errors)
    ctx.report["units"] = {k: workloads.REPORT_UNITS[k] for k in ctx.report
                           if k in workloads.REPORT_UNITS}
    ctx.report["provenance"] = provenance(args, time.perf_counter() - T_START)
    result = {
        "correct": ctx.checks.failed == 0,
        "attempted": ctx.checks.attempted,
        "failed": ctx.checks.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    write_out(f"report-{tag}.json", {"report": ctx.report, "result": result})
    print(json.dumps({"report": ctx.report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
