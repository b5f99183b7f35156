"""Reproduce the paper's results: one entrypoint for every job.

Usage: spark-submit jobs/run.py {traces,table3,table4,table5,expt6} [tpch|tpcds|both] [--force]

* ``traces`` — generate the model-training traces (Spark pipeline);
* ``table3`` — model performance (Table 3);
* ``table4`` — latency reduction with a strong speed preference (Table 4);
* ``table5`` — latency and cost adapting to preferences (Table 5);
* ``expt6``  — compile-time MOO hypervolume and solving time (Expt 6/7).

Traces and trained models are cached under ``results/``; ``--force``
regenerates them first. Spark only builds the traces; the tables then run
in this process. ``gen_traces.py`` and ``run_{table3,table4,table5,expt6}.py``
are aliases for the matching subcommand.
"""
import argparse

from repro.experiments import common, expt6, table3, table4, table5


def traces(spark, bm: str, force: bool) -> str:
    tr = common.get_traces(spark, bm, force=force)
    counts = tr.groupby("kind").size().to_dict()
    return f"{bm}: {len(tr)} trace rows {counts} -> {common.traces_path(bm)}"


def on_suite(run, fmt):
    """A job that runs ``run(bm, suite)`` on the cached trained suite."""
    def job(spark, bm: str, force: bool) -> str:
        return fmt(run(bm, common.get_suite(spark, bm, force=force)))
    return job


JOBS = {
    "traces": traces,
    "table3": lambda spark, bm, force: table3.format_table3(
        table3.run_table3(spark, bm, force=force)),
    "table4": on_suite(table4.run_table4, table4.format_table4),
    "table5": on_suite(table5.run_table5, table5.format_table5),
    "expt6": on_suite(expt6.run_expt6, expt6.format_expt6),
}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("job", choices=JOBS)
    ap.add_argument("benchmark", nargs="?", default="both",
                    choices=("tpch", "tpcds", "both"))
    ap.add_argument("--force", action="store_true",
                    help="regenerate the cached traces and models first")
    args = ap.parse_args(argv)
    from _session import get_spark

    spark = get_spark()
    for bm in ("tpch", "tpcds") if args.benchmark == "both" else (args.benchmark,):
        print(JOBS[args.job](spark, bm, args.force))
        print()


if __name__ == "__main__":
    main()
