"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (visible with -s or on failure) and
asserts the criterion outcome, including its runtime budget.
"""

import importlib.util
import os
from pathlib import Path

import pytest

from stabcert.verification import ALL_CRITERIA, run_one

NAMES = [name for name, _, _ in ALL_CRITERIA]


@pytest.mark.parametrize("name", NAMES)
def test_acceptance_criterion(name):
    result = run_one(name, seed=0)
    print(result.line)
    assert result.passed, result.line
    assert result.duration <= result.budget, result.line


def test_blas_runs_one_thread():
    # conftest pins one thread before its numpy import; a plugin that
    # loaded numpy first would leave OpenBLAS at one thread per core, and
    # the budgets above would then depend on the machine's load
    if os.environ["OPENBLAS_NUM_THREADS"] != "1":
        pytest.skip("the caller chose another BLAS thread count")
    # the benchmark's reader: the thread count of each OpenBLAS mapped
    # into this process, by ctypes
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    threads = run._blas_threads()
    if not threads:
        pytest.skip("no OpenBLAS is loaded, or its maps are unreadable")
    assert set(threads.values()) == {1}, threads
