"""run_checks: the worker pool gives the in-process results, in order, and
neither a raising check nor a dead worker leaves it hanging.  The dispatch
plan runs the slow checks first, and the training checks share their runs
in one process and in the pool.  Every bound in TOLERANCES decides its
check's verdict."""

import ctypes
import os
import signal
import subprocess
import sys

import pytest

from hamjepa import certify, trainer
from hamjepa.trainer import ConfigError

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
            lambda seed: (1, {"pid": os.getpid(), "seed": seed}),
        )
    return names


def test_pooled_results_equal_in_process_results(monkeypatch):
    serial = [certify._run_one(name, 3) for name in FAST]
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


def test_dispatch_plan_names_each_check_once_slowest_first():
    jobs = certify.dispatch_plan()
    names = [n for job in jobs for n in job]
    assert sorted(names) == sorted(certify.CHECKS)
    assert jobs[0] == ("anti_collapse_training", "headline_gap")
    assert certify.dispatch_plan(["headline_gap", "minimax"]) == [("headline_gap",), ("minimax",)]
    assert certify.dispatch_plan(FAST) == [(n,) for n in FAST]


@pytest.mark.parametrize(
    "names", [["nope"], ["slice_demo", "slice_demo"], ["slice_demo", ""]],
    ids=["unknown", "repeated", "empty"],
)
def test_dispatch_plan_rejects_a_bad_name_as_config_error(names):
    with pytest.raises(ConfigError):
        certify.dispatch_plan(names)


def test_pool_runs_a_grouped_job_in_one_worker_and_returns_the_order_named(monkeypatch):
    names = register_pid_checks(monkeypatch, 5)
    monkeypatch.setattr(certify, "_SLOW_JOBS", ((names[3], names[1]), (names[4],)))
    assert certify.dispatch_plan(names) == [
        (names[3], names[1]), (names[4],), (names[0],), (names[2],),
    ]
    use_workers(monkeypatch, 2)
    results = certify.run_checks(names, seed=4)
    assert [r.name for r in results] == names
    pids = {r.name: r.details["pid"] for r in results}
    assert pids[names[3]] == pids[names[1]] != os.getpid()


def test_one_worker_runs_in_process(monkeypatch):
    names = register_pid_checks(monkeypatch, 3)
    use_workers(monkeypatch, 1)
    assert {r.details["pid"] for r in certify.run_checks(names)} == {os.getpid()}


INF = float("inf")

# Each TOLERANCES entry read by a check that takes under 2 s, with that check
# and a limit no result can meet: -inf for a maximum, +inf for a minimum.
FAST_BOUNDS = {
    "symplecticity_max": ("symplecticity", -INF),
    "det_max": ("symplecticity", -INF),
    "reversibility_max": ("reversibility", -INF),
    "reciprocal_sv_max": ("reciprocal_singular_values", -INF),
    "order_slope_band": ("convergence_order", -INF),
    "shadow_energy_factor": ("shadow_energy", -INF),
    "shadow_slope_max": ("shadow_energy", -INF),
    "gradcheck_unit": ("gradients", -INF),
    "gradcheck_end_to_end": ("gradients", -INF),
    "minimax_rel": ("minimax", -INF),
    "minimax_slack": ("minimax", -INF),
    "regret_formula_max": ("no_universal_target", -INF),
    "coupling_slope": ("coupling_nonidentifiability", -INF),
    "gibbs_sigmas": ("gibbs_lift", -INF),
    "maxent_floor": ("maxent_gap", INF),
    "maxent_oracle_max": ("maxent_gap", -INF),
    "whiten_max": ("whiten_and_roundtrip", -INF),
    "roundtrip_rel": ("whiten_and_roundtrip", -INF),
    "factorization_max": ("symplectic_factorization", -INF),
    "pr_invariance_max": ("anti_collapse_witnesses", -INF),
    "spike_lvol_max": ("anti_collapse_witnesses", -INF),
    "spike_pr_max": ("anti_collapse_witnesses", -INF),
    "lmin_margin_floor": ("anti_collapse_witnesses", INF),
    "sigreg_null_max": ("sigreg_calibration", -INF),
    "sigreg_shift_ratio_min": ("sigreg_calibration", INF),
    "slice_ratio_min": ("slice_demo", INF),
}

# The entries read only by checks that train or sample for seconds.
SLOW_BOUNDS = {
    "price_analytic", "price_oracle_rel", "rho_range_slack", "expressivity_ratio_max",
    "lvol_margin", "collapse_drop", "collapse_steps", "headline_gap_points",
}


def test_every_bound_is_listed_once():
    assert not FAST_BOUNDS.keys() & SLOW_BOUNDS
    assert FAST_BOUNDS.keys() | SLOW_BOUNDS == certify.TOLERANCES.keys()


@pytest.mark.parametrize("entry", FAST_BOUNDS)
def test_each_bound_decides_its_check(monkeypatch, entry):
    name, limit = FAST_BOUNDS[entry]
    monkeypatch.setitem(certify.TOLERANCES, entry, limit)
    assert certify._run_one(name, 42).passed is False


def run_script(script, timeout):
    """Run ``script`` in a fresh interpreter in its own process group; fail
    the test, and kill the group, if it has not exited after ``timeout`` s."""
    if not hasattr(os, "fork"):
        pytest.skip("the worker pool needs the fork start method")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(certify.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"still running after {timeout} s")
    return proc.returncode, out, err


RAISING = """
from hamjepa import certify

def broken(seed):
    raise ZeroDivisionError(f"broken at seed {seed}")

certify.CHECKS["broken"] = broken
certify.worker_count = lambda n_checks: min(2, n_checks)
"""


def test_raising_check_propagates_from_a_worker():
    script = RAISING + """
certify.run_checks(["convergence_order", "broken", "no_universal_target"], seed=5)
"""
    code, _, err = run_script(script, timeout=60)
    assert code == 1
    assert err.rstrip().endswith("ZeroDivisionError: broken at seed 5")


def test_raising_check_stops_the_run_every_time():
    script = RAISING + """
import multiprocessing

for seed in range(10):
    try:
        certify.run_checks(["convergence_order", "broken", "no_universal_target"], seed=seed)
    except ZeroDivisionError as exc:
        assert str(exc) == f"broken at seed {seed}", exc
    else:
        raise AssertionError("the raising check did not stop the run")
    assert not multiprocessing.active_children()
print("ok")
"""
    code, out, err = run_script(script, timeout=120)
    assert (code, out) == (0, "ok\n"), err


def test_raising_check_ends_verify_with_exit_1_and_its_traceback():
    # an exception outside cli.ABORTS is a bug: main lets it through
    script = RAISING + """
from hamjepa import cli

cli.main(["verify", "--filter", "convergence_order,broken"])
"""
    code, _, err = run_script(script, timeout=60)
    assert code == 1
    assert "Traceback" in err and err.rstrip().endswith("ZeroDivisionError: broken at seed 42")


def test_check_raising_value_error_aborts_verify_with_exit_3():
    script = """
import sys

from hamjepa import certify, cli

def broken(seed):
    raise ValueError(f"bad value at seed {seed}")

certify.CHECKS["broken"] = broken
certify.worker_count = lambda n_checks: min(2, n_checks)
sys.exit(cli.main(["verify", "--filter", "convergence_order,broken"]))
"""
    code, out, err = run_script(script, timeout=60)
    assert code == 3, err
    assert err == "verify aborted: bad value at seed 42\n"
    assert out == ""


def test_dead_worker_aborts_verify_with_exit_3():
    script = """
import multiprocessing
import os
import signal
import sys

from hamjepa import certify, cli

def die(seed):
    os.kill(os.getpid(), signal.SIGKILL)

certify.CHECKS["die"] = die
certify.worker_count = lambda n_checks: min(2, n_checks)
code = cli.main(["verify", "--filter", "convergence_order,die,no_universal_target"])
print(len(multiprocessing.active_children()))
sys.exit(code)
"""
    code, out, err = run_script(script, timeout=60)
    assert code == 3, err
    assert "verify aborted:" in err and "Traceback" not in err
    assert out.splitlines()[-1] == "0"  # no worker left behind


def openblas_functions(verb):
    """The ctypes ``openblas_<verb>_num_threads`` functions, ``verb`` "get"
    or "set", of each OpenBLAS loaded in this process, under every name that
    ``trainer`` knows (Linux; elsewhere none)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    names = [name.replace("_set_", f"_{verb}_") for name in trainer._OPENBLAS_SETTERS]
    functions = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = ([], ctypes.c_int) if verb == "get" else ([ctypes.c_int], None)
                functions.append(fn)
    return functions


def test_pooled_workers_inherit_one_blas_thread(monkeypatch):
    getters, setters = openblas_functions("get"), openblas_functions("set")
    if not getters:
        pytest.skip("no OpenBLAS loaded")
    names = ["blas_0", "blas_1"]  # two checks, so two workers
    for name in names:
        monkeypatch.setitem(
            certify.CHECKS, name,
            lambda seed: (True, {"pid": os.getpid(), "threads": [get() for get in getters]}),
        )
    use_workers(monkeypatch, 2)
    for set_threads in setters:
        set_threads(2)  # run_checks sets one thread again before it forks
    try:
        results = certify.run_checks(names)
    finally:
        for set_threads in setters:
            set_threads(1)
    assert all(r.details["pid"] != os.getpid() for r in results)
    assert [r.details["threads"] for r in results] == [[1] * len(getters)] * 2


def test_worker_count_follows_cpu_affinity():
    assert certify.worker_count(1) == 1
    if hasattr(os, "sched_getaffinity"):
        assert certify.worker_count(10_000) == len(os.sched_getaffinity(0))


def shrink_runs(monkeypatch):
    for run, cfg in certify._RUNS.items():
        small = {**cfg, "data": {"n_samples": 256, "batch_size": 64}, "train": {**cfg["train"], "epochs": 2}}
        monkeypatch.setitem(certify._RUNS, run, small)


def test_training_checks_share_their_runs(monkeypatch):
    shrink_runs(monkeypatch)
    calls, build_run = [], certify.trainer.build_run

    def counted_build_run(cfg):
        calls.append(cfg)
        return build_run(cfg)

    knn_calls, knn = [], certify.knn_accuracy

    def counted_knn(*args):
        knn_calls.append(args)
        return knn(*args)

    monkeypatch.setattr(certify.trainer, "build_run", counted_build_run)
    monkeypatch.setattr(certify, "knn_accuracy", counted_knn)
    certify._trained.cache_clear()  # monkeypatch does not undo a cache
    try:
        certify.check_anti_collapse_training(3)
        assert knn_calls == []  # no readout of the hjepa or the ablated run
        certify.check_headline_gap(3)
        assert len(calls) == 3  # hjepa, ablated, baseline: the hjepa run is shared
        assert len(knn_calls) == 2  # the q readouts of hjepa and baseline
        certify.check_determinism(3)
        assert len(calls) == 7  # determinism trains its own two pairs
    finally:
        certify._trained.cache_clear()


def test_pooled_training_checks_share_their_runs(monkeypatch):
    # each training check reports its worker's pid and the default hjepa runs
    # that worker has trained so far, in place of its details
    shrink_runs(monkeypatch)
    trained, build_run = [], certify.trainer.build_run

    def counted_build_run(cfg):
        trained.append(cfg["mode"] == "hjepa" and cfg["loss"]["detach_target"])  # the default hjepa run
        return build_run(cfg)

    def counting(check):
        def run(seed):
            passed, _ = check(seed)
            return passed, {"pid": os.getpid(), "hjepa_trainings": sum(trained)}
        return run

    monkeypatch.setattr(certify.trainer, "build_run", counted_build_run)
    for name in ("anti_collapse_training", "headline_gap"):
        monkeypatch.setitem(certify.CHECKS, name, counting(certify.CHECKS[name]))
    use_workers(monkeypatch, 2)
    certify._trained.cache_clear()
    try:
        results = certify.run_checks(["headline_gap", "convergence_order", "anti_collapse_training"], seed=3)
    finally:
        certify._trained.cache_clear()
    assert [r.name for r in results] == ["headline_gap", "convergence_order", "anti_collapse_training"]
    first, second = results[2].details, results[0].details  # anti_collapse_training runs first
    assert first["pid"] == second["pid"] != os.getpid()
    assert first["hjepa_trainings"] == second["hjepa_trainings"] == 1
    assert trained == []  # nothing trained in this process
