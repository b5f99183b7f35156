"""Smoke tests for the spark-submit job entrypoints (parse + wiring)."""
import ast
import os

import pytest

JOBS_DIR = os.path.join(os.path.dirname(__file__), "..", "jobs")
JOB_FILES = ["run.py", "gen_traces.py", "run_table3.py", "run_table4.py",
             "run_table5.py", "run_expt6.py", "_session.py"]


@pytest.mark.parametrize("fname", JOB_FILES)
def test_job_parses(fname):
    path = os.path.join(JOBS_DIR, fname)
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert ("main" in names) or fname == "_session.py"


@pytest.mark.parametrize("fname", [f for f in JOB_FILES if f.startswith("run") or f.startswith("gen")])
def test_job_has_entrypoint_guard(fname):
    with open(os.path.join(JOBS_DIR, fname)) as f:
        src = f.read()
    assert '__name__ == "__main__"' in src


def test_run_dispatches_every_job():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "jobs_run", os.path.join(JOBS_DIR, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert set(run.JOBS) == {"traces", "table3", "table4", "table5", "expt6"}
    with pytest.raises(SystemExit):
        run.main(["table9"])
