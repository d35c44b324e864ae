"""run_checks: the worker pool gives the in-process results, in order."""

import os
import subprocess
import sys

import pytest

from hamjepa import certify
from hamjepa.certify import CheckResult

# checks that each take well under a second
FAST = ["convergence_order", "reversibility", "no_universal_target", "symplectic_factorization",
        "anti_collapse_witnesses", "slice_demo"]


def use_workers(monkeypatch, workers):
    if workers > 1 and not hasattr(os, "fork"):
        pytest.skip("the worker pool needs the fork start method")
    monkeypatch.setattr(certify, "worker_count", lambda n_checks: min(workers, n_checks))


def untimed(results):
    for r in results:
        r.seconds = 0.0
    return results


def register_pid_checks(monkeypatch, count):
    names = [f"pid_{i}" for i in range(count)]
    for name in names:
        monkeypatch.setitem(
            certify.CHECKS, name,
            lambda seed, name=name: CheckResult(name, 1, {"pid": os.getpid(), "seed": seed}),
        )
    return names


def test_pooled_results_equal_in_process_results(monkeypatch):
    serial = [certify._run_one((name, 3)) for name in FAST]
    use_workers(monkeypatch, 3)
    pooled = certify.run_checks(FAST, seed=3)
    assert untimed(pooled) == untimed(serial)
    assert [r.name for r in pooled] == FAST


def test_pool_runs_checks_in_workers_in_the_order_named(monkeypatch):
    names = register_pid_checks(monkeypatch, 5)
    use_workers(monkeypatch, 2)
    results = certify.run_checks(list(reversed(names)), seed=9)
    assert [r.name for r in results] == list(reversed(names))
    assert all(r.details["pid"] != os.getpid() and r.details["seed"] == 9 for r in results)
    assert all(r.passed is True and r.seconds >= 0.0 for r in results)


def test_one_worker_runs_in_process(monkeypatch):
    names = register_pid_checks(monkeypatch, 3)
    use_workers(monkeypatch, 1)
    assert {r.details["pid"] for r in certify.run_checks(names)} == {os.getpid()}


def test_raising_check_propagates_from_a_worker():
    # in a child process, so that a pool that hung would fail the test
    script = """
from hamjepa import certify

def broken(seed):
    raise ZeroDivisionError(f"broken at seed {seed}")

certify.CHECKS["broken"] = broken
certify.worker_count = lambda n_checks: min(2, n_checks)
certify.run_checks(["convergence_order", "broken", "no_universal_target"], seed=5)
"""
    if not hasattr(os, "fork"):
        pytest.skip("the worker pool needs the fork start method")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(certify.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith("ZeroDivisionError: broken at seed 5")


def test_worker_count_follows_cpu_affinity():
    assert certify.worker_count(1) == 1
    if hasattr(os, "sched_getaffinity"):
        assert certify.worker_count(10_000) == len(os.sched_getaffinity(0))
