import contextlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamjepa import certify, cli, diagnostics, trainer
from hamjepa.cli import main


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


TINY = {
    "seed": 5,
    "hjepa": {},
    "data": {"n_samples": 256, "batch_size": 64},
    "train": {"epochs": 2, "warmup_epochs": 1, "ckpt_dir": "unused"},
}


def test_verify_filter_runs_named_checks_only(tmp_path, capsys):
    code = main(["verify", "--filter", "convergence_order", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "convergence_order" in out
    assert "minimax" not in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_passed"]
    assert [r["name"] for r in report["results"]] == ["convergence_order"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_verify_report_identical_pinned_to_one_cpu_and_unpinned(tmp_path):
    checks = "convergence_order,reversibility,maxent_gap,slice_demo,no_universal_target"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(certify.__file__)))
    one_cpu = {min(os.sched_getaffinity(0))}
    for sub, pin in (("pinned", lambda: os.sched_setaffinity(0, one_cpu)), ("free", None)):
        subprocess.run(
            [sys.executable, "-m", "hamjepa.cli", "verify", "--filter", checks,
             "--out", str(tmp_path / sub)],
            env=env, preexec_fn=pin, check=True, capture_output=True,
        )
    pinned, free = tmp_path / "pinned", tmp_path / "free"
    assert (pinned / "verify_report.json").read_bytes() == (free / "verify_report.json").read_bytes()
    assert json.loads((pinned / "verify_timings.json").read_text())["workers"] == 1
    assert json.loads((free / "verify_timings.json").read_text())["workers"] == min(
        len(os.sched_getaffinity(0)), 5
    )


def test_verify_writes_timings_beside_the_report(tmp_path):
    assert main(["verify", "--filter", "slice_demo,convergence_order", "--out", str(tmp_path)]) == 0
    timings = json.loads((tmp_path / "verify_timings.json").read_text())
    assert timings["workers"] == certify.worker_count(2)
    assert timings["jobs"] == [["slice_demo"], ["convergence_order"]]
    assert list(timings["seconds"]) == ["slice_demo", "convergence_order"]
    assert all(s >= 0.0 for s in timings["seconds"].values())
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert "seconds" not in json.dumps(report)


def test_verify_unknown_filter_is_config_error(capsys):
    assert main(["verify", "--filter", "no_such_check"]) == 2


@pytest.mark.parametrize(
    "checks, message",
    [("slice_demo,convergence_order,slice_demo", "checks named more than once: slice_demo"),
     ("slice_demo,,convergence_order", "empty check name in the filter"),
     ("", "empty check name in the filter")],
    ids=["repeated", "empty", "empty-filter"],
)
def test_verify_bad_filter_entry_is_config_error(tmp_path, monkeypatch, capsys, checks, message):
    calls = []
    monkeypatch.setattr(certify, "run_checks", lambda *args, **kwargs: calls.append(args) or [])
    assert main(["verify", "--filter", checks, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "verify_report.json").exists()
    assert calls == []


def test_verify_timings_record_the_jobs_and_the_workers_used(tmp_path, monkeypatch):
    # two checks in one job: one job, so they run in this process
    monkeypatch.setattr(certify, "_SLOW_JOBS", (("convergence_order", "slice_demo"),))
    assert main(["verify", "--filter", "slice_demo,convergence_order", "--out", str(tmp_path)]) == 0
    timings = json.loads((tmp_path / "verify_timings.json").read_text())
    assert timings["jobs"] == [["convergence_order", "slice_demo"]]
    assert timings["workers"] == 1


def test_verify_corrupted_tolerance_fails_named_check(tmp_path, monkeypatch, capsys):
    # two checks run in two forked workers, which inherit the patched table
    monkeypatch.setattr(certify, "worker_count", lambda n_checks: min(2, n_checks))
    monkeypatch.setitem(certify.TOLERANCES, "order_slope_band", 1e-12)
    monkeypatch.setitem(certify.TOLERANCES, "reversibility_max", 0.0)
    code = main(["verify", "--filter", "convergence_order,reversibility", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL convergence_order" in captured.out
    assert "FAIL reversibility" in captured.out
    assert "failed checks: convergence_order, reversibility" in captured.err


def test_verify_report_rerun_is_byte_identical(tmp_path):
    assert main(["verify", "--filter", "slice_demo", "--out", str(tmp_path / "a")]) == 0
    assert main(["verify", "--filter", "slice_demo", "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "verify_report.json").read_bytes()
    b = (tmp_path / "b" / "verify_report.json").read_bytes()
    assert a == b


def test_train_and_diagnose_roundtrip(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", TINY)
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run_dir]) == 0
    assert "mode=hjepa" in capsys.readouterr().out
    assert os.path.isfile(os.path.join(run_dir, "checkpoint_final", "potential.bin"))

    diag_dir = str(tmp_path / "diag")
    code = main(
        ["diagnose", "--checkpoint", os.path.join(run_dir, "checkpoint_final"),
         "--config", cfg_path, "--out", diag_dir]
    )
    assert code == 0
    summary = json.loads((tmp_path / "diag" / "summary.json").read_text())
    for readout in ("q", "p", "qp"):
        assert readout in summary
        assert 0.0 <= summary[readout]["linear_probe"] <= 1.0
    for readout in ("q", "p", "qp"):
        assert os.path.isfile(os.path.join(diag_dir, f"knn_{readout}.csv"))
        assert os.path.isfile(os.path.join(diag_dir, f"spectrum_{readout}.csv"))


def test_train_baseline_mode_logged(tmp_path, capsys):
    cfg = {k: v for k, v in TINY.items() if k != "hjepa"}
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
    assert "mode=baseline" in capsys.readouterr().out


def test_train_unknown_key_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", {"data": {"wat": 1}})
    assert main(["train", "--config", cfg_path]) == 2
    assert "data.wat" in capsys.readouterr().err


def test_train_odd_embed_dim_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", {"hjepa": {}, "model": {"embed_dim": 7}})
    assert main(["train", "--config", cfg_path]) == 2
    assert "embed_dim" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("epochs", "3")], ids=["epochs-str"])
def test_train_bad_train_value_exit_2(tmp_path, capsys, key, value):
    cfg_path = write_config(tmp_path / "cfg.json", {"hjepa": {}, "train": {key: value}})
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"train.{key}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "payload, path",
    [
        pytest.param({"regularizer": {"n_knots": 0}}, "regularizer.n_knots", id="n_knots-0"),
        pytest.param({"regularizer": {"n_slices": 0}}, "regularizer.n_slices", id="n_slices-0"),
        pytest.param(
            {"regularizer": {"refresh_interval": 0}}, "regularizer.refresh_interval",
            id="refresh_interval-0",
        ),
        pytest.param({"regularizer": {"knot_max": -1}}, "regularizer.knot_max", id="knot_max-neg"),
        pytest.param(
            {"hjepa": {}, "regularizer": {"p_logdet_refresh_interval": 0}},
            "regularizer.p_logdet_refresh_interval", id="p_logdet_refresh_interval-0",
        ),
        pytest.param({"hjepa": {"steps": 0}}, "hjepa.steps", id="steps-0"),
        pytest.param({"hjepa": {"dt": -0.1}}, "hjepa.dt", id="dt-neg"),
        # leapfrog on the initial V = |q|^2 / 2 is unstable beyond dt = 2
        pytest.param({"hjepa": {"dt": 1e6}}, "hjepa.dt", id="dt-1e6"),
        pytest.param({"seed": "x"}, "seed", id="seed-str"),
        pytest.param({"seed": -1}, "seed", id="seed-neg"),
        pytest.param({"data": {"batch_size": 0}}, "data.batch_size", id="batch_size-0"),
        pytest.param({"data": {"batch_size": 1}}, "data.batch_size", id="baseline-batch_size-1"),
        pytest.param(
            {"hjepa": {}, "data": {"n_samples": 64, "batch_size": 128}}, "data.batch_size",
            id="batch_size-above-n_samples",
        ),
        pytest.param({"data": {"n_classes": 0}}, "data.n_classes", id="n_classes-0"),
        pytest.param({"data": {"latent_dim": 0}}, "data.latent_dim", id="latent_dim-0"),
        pytest.param({"data": {"noise_std": -1}}, "data.noise_std", id="noise_std-neg"),
        pytest.param({"data": {"flow_time": -1}}, "data.flow_time", id="flow_time-neg"),
        pytest.param(
            {"data": {"stiffness_max": -1}}, "data.stiffness_max", id="stiffness_max-neg"
        ),
        pytest.param({"train": {"min_lr_ratio": 0}}, "train.min_lr_ratio", id="min_lr_ratio-0"),
        pytest.param({"hjepa": {}, "loss": {"match": "x"}}, "loss.match", id="match-str"),
        pytest.param({"hjepa": {}, "loss": {"p_weight": -1}}, "loss.p_weight", id="p_weight-neg"),
        pytest.param(
            {"hjepa": {}, "regularizer": {"q_logdet_eps": 0}}, "regularizer.q_logdet_eps",
            id="q_logdet_eps-0",
        ),
        pytest.param(
            {"hjepa": {}, "regularizer": {"q_pr_norm_floor": 2}}, "regularizer.q_pr_norm_floor",
            id="q_pr_norm_floor-2",
        ),
        pytest.param(
            {"hjepa": {}, "regularizer": {"q_logdet_proj_dim": 0}},
            "regularizer.q_logdet_proj_dim", id="q_logdet_proj_dim-0",
        ),
        pytest.param(
            {"hjepa": {}, "regularizer": {"q_std_floor": "a"}}, "regularizer.q_std_floor",
            id="q_std_floor-str",
        ),
        pytest.param({"hjepa": {}, "model": {"embed_dim": 0}}, "model.embed_dim", id="embed_dim-0"),
        pytest.param(
            {"hjepa": {}, "model": {"embed_dim": "16"}}, "model.embed_dim", id="embed_dim-str"
        ),
        pytest.param({"model": {"hidden_dims": "ab"}}, "model.hidden_dims", id="hidden_dims-str"),
        pytest.param({"model": {"hidden_dims": [0]}}, "model.hidden_dims", id="hidden_dims-0"),
        pytest.param({"hjepa": {}, "train": {"lr": "x"}}, "train.lr", id="lr-str"),
        pytest.param({"hjepa": {}, "train": {"lr": -1}}, "train.lr", id="lr-neg"),
        pytest.param({"hjepa": {}, "train": {"h_lr": -1}}, "train.h_lr", id="h_lr-neg"),
        pytest.param(
            {"hjepa": {}, "train": {"weight_decay": "x"}}, "train.weight_decay",
            id="weight_decay-str",
        ),
        pytest.param(
            {"hjepa": {}, "train": {"lambda_var": "x"}}, "train.lambda_var", id="lambda_var-str"
        ),
        pytest.param(
            {"hjepa": {}, "train": {"warmup_epochs": -1}}, "train.warmup_epochs",
            id="warmup_epochs-neg",
        ),
        pytest.param({"hjepa": {}, "train": {"grad_clip": 0}}, "train.grad_clip", id="grad_clip-0"),
        pytest.param({"train": {"ckpt_dir": 5}}, "train.ckpt_dir", id="ckpt_dir-int"),
        pytest.param(
            {"hjepa": {"residual_scale_warmup_epochs": "x"}}, "hjepa.residual_scale_warmup_epochs",
            id="residual_scale_warmup_epochs-str",
        ),
        pytest.param(
            {"hjepa": {"residual_scale": -1}}, "hjepa.residual_scale", id="residual_scale-neg"
        ),
        pytest.param({"hjepa": {"hidden_dim": -1}}, "hjepa.hidden_dim", id="hidden_dim-neg"),
        pytest.param({"hjepa": {"hidden_dim": 0}}, "hjepa.hidden_dim", id="hidden_dim-0"),
        pytest.param({"hjepa": {"depth": -1}}, "hjepa.depth", id="depth-neg"),
        pytest.param({"hjepa": {"depth": 0}}, "hjepa.depth", id="depth-0"),
        # deleted keys are unknown, even at the one value they used to accept
        pytest.param({"hjepa": {"base_coeff": -1}}, "unknown key hjepa.base_coeff",
                     id="deleted-base_coeff"),
        pytest.param({"hjepa": {}, "loss": {"energy_weight": -1}}, "unknown key loss.energy_weight",
                     id="deleted-energy_weight"),
        pytest.param({"hjepa": {}, "regularizer": {"var_floor_on_p": False}},
                     "unknown key regularizer.var_floor_on_p", id="deleted-var_floor_on_p"),
        pytest.param({"hjepa": {"learn_dt": False}}, "unknown key hjepa.learn_dt",
                     id="deleted-learn_dt"),
        pytest.param({"hjepa": {"hamiltonian": "separable"}}, "unknown key hjepa.hamiltonian",
                     id="deleted-hamiltonian"),
        pytest.param({"hjepa": {}, "model": {"split_qp": True}}, "unknown key model.split_qp",
                     id="deleted-split_qp"),
        pytest.param({"model": {"projector_type": "identity"}}, "unknown key model.projector_type",
                     id="deleted-projector_type"),
        pytest.param({"data": {"num_global_views": 2}}, "unknown key data.num_global_views",
                     id="deleted-num_global_views"),
        pytest.param({"regularizer": {"type": "sigreg"}}, "unknown key regularizer.type",
                     id="deleted-regularizer-type"),
        pytest.param({"hjepa": {"method": "leapfrog"}}, "unknown key hjepa.method",
                     id="deleted-method"),
        pytest.param({"data": {"drop_last": True}}, "unknown key data.drop_last",
                     id="deleted-drop_last"),
        # the one setting that used to leave a baseline batch of 1 sample
        pytest.param({"data": {"n_samples": 257, "drop_last": False}},
                     "unknown key data.drop_last", id="deleted-drop_last-false"),
        pytest.param({"hjepa": {}, "train": {"log_every": 1}}, "unknown key train.log_every",
                     id="deleted-log_every"),
    ],
)
def test_train_bad_value_exit_2(tmp_path, capsys, payload, path):
    cfg_path = write_config(tmp_path / "cfg.json", payload)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# every settable key of either mode, with the mode that owns it
SCHEMA_KEYS = [
    (mode, path)
    for mode, blocks in trainer._SCHEMA.items()
    for path in ["seed"] + [f"{block}.{key}" for block, keys in blocks.items() for key in keys]
]


# 600 examples exhaust the (key, value) pairs: 75 keys times 7 values
@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(SCHEMA_KEYS), st.sampled_from([0, -1, 1e300, "x", [], None, True]))
def test_train_mutated_config_exits_cleanly(target, value):
    mode, path = target
    cfg = {"seed": 5, "data": {"n_samples": 64, "batch_size": 16}, "train": {"epochs": 1}}
    if mode == "hjepa":
        cfg["hjepa"] = {}
    if path == "seed":
        cfg["seed"] = value
    else:
        block, key = path.split(".")
        cfg.setdefault(block, {})[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_config(os.path.join(tmp, "cfg.json"), cfg)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--config", cfg_path, "--out", os.path.join(tmp, "run")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_train_overflow_aborts_exit_3(tmp_path, capsys):
    # lr 1e9 blows the encoder up within the first epoch; the squared second
    # moment in the energy budget then overflows a Python float
    cfg_path = write_config(
        tmp_path / "cfg.json", {"hjepa": {}, "train": {"lr": 1e9, "epochs": 1}}
    )
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "training aborted" in err and "overflow" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["baseline", "hjepa"])
def test_train_overflow_prints_only_the_abort_line(tmp_path, mode):
    # numpy's overflow warnings would reach stderr ahead of the abort line;
    # pytest captures warnings in its own process, so the CLI runs in a fresh one
    cfg = {"seed": 1, "data": {"n_samples": 256, "batch_size": 64}, "train": {"epochs": 2, "lr": 1e300}}
    if mode == "hjepa":
        cfg["hjepa"] = {}
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(certify.__file__)))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "hamjepa.cli", "train", "--config", cfg_path,
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("training aborted: "), proc.stderr


def test_train_overflowing_gradient_norm_aborts_exit_3(tmp_path, capsys):
    # a finite loss whose gradient's squared norm overflows aborts the run
    # instead of taking a silent zero step and logging "grad_norm": Infinity
    cfg_path = write_config(
        tmp_path / "cfg.json",
        {
            "seed": 1,
            "data": {"n_samples": 64, "batch_size": 16},
            "train": {"epochs": 1, "lambda_reg": 1e300},
        },
    )
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "training aborted" in err and "gradient norm overflows at step 0" in err
    assert "Traceback" not in err
    metrics = (tmp_path / "run" / "metrics.jsonl").read_text()
    assert "Infinity" not in metrics and "NaN" not in metrics


def test_train_missing_config_exit_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2


def test_train_rerun_identical_outputs(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", TINY)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    for rel in ("metrics.jsonl", "checkpoint_final/encoder.bin", "checkpoint_final/optimizer.bin"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_diagnose_dim_mismatch_exit_3(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", TINY)
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run_dir]) == 0
    other = dict(TINY)
    other["data"] = {"n_samples": 256, "batch_size": 64, "latent_dim": 4}
    other_path = write_config(tmp_path / "other.json", other)
    code = main(
        ["diagnose", "--checkpoint", os.path.join(run_dir, "checkpoint_final"),
         "--config", other_path, "--out", str(tmp_path / "d")]
    )
    assert code == 3
    assert "dim" in capsys.readouterr().err


def test_diagnose_foreign_encoder_sidecar_exit_3(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", TINY)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(run_dir)]) == 0
    sidecar = run_dir / "checkpoint_final" / "encoder.json"
    meta = json.loads(sidecar.read_text())
    meta["kind"] = "potential"
    sidecar.write_text(json.dumps(meta))
    code = main(
        ["diagnose", "--checkpoint", str(run_dir / "checkpoint_final"),
         "--config", cfg_path, "--out", str(tmp_path / "d")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "encoder" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def default_size_checkpoint(tmp_path_factory):
    """The initial checkpoint of a default hjepa config (4096 samples)."""
    run = tmp_path_factory.mktemp("default_size")
    cfg_path = write_config(run / "cfg.json", {"seed": 42, "hjepa": {}, "train": {"epochs": 0}})
    assert main(["train", "--config", cfg_path, "--out", str(run)]) == 0
    return run / "checkpoint_init", cfg_path


def test_diagnose_heap_peak_is_bounded(tmp_path, default_size_checkpoint):
    checkpoint, cfg_path = default_size_checkpoint
    argv = ["diagnose", "--checkpoint", str(checkpoint), "--config", cfg_path,
            "--out", str(tmp_path / "diag")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # cosine_norm_stats' (10000, 16) pair gathers of the qp readout set it
    # (4.3 MiB); drawing the second view and encoding all rows at once raise
    # it to 5.7 MiB, and 128-row kNN blocks or a tape kept through the sweep
    # further
    assert peak <= 5 * 2**20


def _address_space_limit():
    import resource

    limit = 4 * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(platform.system() != "Linux", reason="needs RLIMIT_AS")
@pytest.mark.parametrize("command", ["slicedemo", "train"])
def test_failed_allocation_aborts_exit_3(tmp_path, command):
    # each size asks for more than a 128 TiB address space holds, and the
    # child runs under a 4 GiB address-space limit, so no host can start the
    # allocation, however it overcommits memory
    if command == "slicedemo":
        argv = ["slicedemo", "--dt", "0.3", "--horizon", "1", "--samples", str(10**13)]
    else:  # its labels alone are 10^14 int64 values
        cfg = write_config(tmp_path / "cfg.json", {"seed": 1, "data": {"n_samples": 10**14}})
        argv = ["train", "--config", cfg]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(certify.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hamjepa.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, preexec_fn=_address_space_limit, timeout=120,
    )
    abort = "slicedemo aborted" if command == "slicedemo" else "training aborted"
    lines = proc.stderr.splitlines()
    assert proc.returncode == 3, proc.stderr
    assert len(lines) == 1 and lines[0].startswith(f"{abort}: Unable to allocate"), proc.stderr
    assert not (tmp_path / "out").exists()


def test_slicedemo_contract(tmp_path, capsys):
    code = main(
        ["slicedemo", "--dt", "0.3", "--horizon", "3", "--samples", "500",
         "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "slice_profile.csv").read_text().splitlines()
    assert lines[0] == "theta,g_euler,g_leapfrog"
    assert len(lines) == 65


def test_slicedemo_rerun_identical(tmp_path):
    for sub in ("a", "b"):
        assert main(
            ["slicedemo", "--dt", "0.2", "--horizon", "1", "--samples", "300",
             "--out", str(tmp_path / sub)]
        ) == 0
    assert (tmp_path / "a" / "slice_profile.csv").read_bytes() == (
        tmp_path / "b" / "slice_profile.csv"
    ).read_bytes()


def test_slicedemo_coarse_step_bound_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(diagnostics, "SLICE_DEMO_MAX_STEPS", 10)
    argv = ["slicedemo", "--dt", "0.1", "--samples", "50", "--out"]
    assert main(argv + [str(tmp_path / "ten"), "--horizon", "1"]) == 0
    assert main(argv + [str(tmp_path / "eleven"), "--horizon", "1.1"]) == 2
    err = capsys.readouterr().err
    assert "horizon / dt" in err and "Traceback" not in err
    assert not (tmp_path / "eleven").exists()


def test_slicedemo_nonfinite_profile_exit_3(tmp_path, capsys):
    # a single coarse step of 1e300 overflows the rollouts to inf - inf
    code = main(
        ["slicedemo", "--dt", "1e300", "--horizon", "1", "--samples", "50",
         "--out", str(tmp_path / "out")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "aborted" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path / "cfg.json", TINY)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("HAMJEPA_SEED", "999")
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert a != b


def test_env_seed_must_be_integer(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path / "cfg.json", TINY)
    monkeypatch.setenv("HAMJEPA_SEED", "not-a-number")
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify", "--filter", "slice_demo", "--seed", "-1"], id="verify-seed-neg"),
        pytest.param(["slicedemo", "--dt", "0.3", "--horizon", "1", "--seed", "-1"],
                     id="slicedemo-seed-neg"),
        pytest.param(["slicedemo", "--dt", "nan", "--horizon", "1"], id="dt-nan"),
        pytest.param(["slicedemo", "--dt", "inf", "--horizon", "1"], id="dt-inf"),
        pytest.param(["slicedemo", "--dt", "0.3", "--horizon", "inf"], id="horizon-inf"),
        pytest.param(["slicedemo", "--dt", "1e-300", "--horizon", "1"], id="dt-tiny"),
        pytest.param(["slicedemo", "--dt", "0.3", "--horizon", "1e6"], id="horizon-huge"),
    ],
)
def test_bad_argument_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "slicedemo", "train"])
def test_env_seed_negative_exit_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("HAMJEPA_SEED", "-3")
    argv = {
        "verify": ["verify", "--filter", "slice_demo"],
        "slicedemo": ["slicedemo", "--dt", "0.3", "--horizon", "1"],
        "train": ["train", "--config", write_config(tmp_path / "cfg.json", TINY)],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "HAMJEPA_SEED" in err and "Traceback" not in err


# --- one error contract ---------------------------------------------------------
# main alone turns an exception into an exit code: a ConfigError exits 2, one
# of cli.ABORTS exits 3, each with one stderr line and no traceback


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    cfg_path = write_config(run / "cfg.json", TINY)
    assert main(["train", "--config", cfg_path, "--out", str(run)]) == 0
    return run / "checkpoint_final", cfg_path


def out_is_a_file(command_argv):
    def build(tmp_path, monkeypatch, trained):
        (tmp_path / "file").write_text("")
        return command_argv + ["--out", str(tmp_path / "file")]
    return build


def raising_check(exc_type):
    def build(tmp_path, monkeypatch, trained):
        def broken(seed):
            raise exc_type(f"broken at seed {seed}")

        monkeypatch.setitem(certify.CHECKS, "broken", broken)
        return ["verify", "--filter", "broken"]
    return build


def train_raises_value_error(tmp_path, monkeypatch, trained):
    def train(cfg, out_dir=None):
        raise ValueError("escaped the trainer")

    monkeypatch.setattr(trainer, "train", train)
    return ["train", "--config", write_config(tmp_path / "cfg.json", TINY)]


def edited_sidecar(edit):
    def build(tmp_path, monkeypatch, trained):
        ckpt, cfg_path = trained
        copy = shutil.copytree(ckpt, tmp_path / "ckpt")
        sidecar = copy / "encoder.json"
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        return ["diagnose", "--checkpoint", str(copy), "--config", cfg_path,
                "--out", str(tmp_path / "diag")]
    return build


def without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def with_first_shape(shape):
    return lambda meta: {**meta, "layer_shapes": [shape, *meta["layer_shapes"][1:]]}


def list_config_with_env_seed(command):
    def build(tmp_path, monkeypatch, trained):
        monkeypatch.setenv("HAMJEPA_SEED", "1")
        cfg_path = write_config(tmp_path / "cfg.json", [1, 2])
        if command == "train":
            return ["train", "--config", cfg_path, "--out", str(tmp_path / "run")]
        return ["diagnose", "--checkpoint", str(trained[0]), "--config", cfg_path,
                "--out", str(tmp_path / "diag")]
    return build


@pytest.mark.parametrize(
    "build, code, prefix",
    [
        pytest.param(out_is_a_file(["verify", "--filter", "slice_demo"]), 3, "verify aborted: ",
                     id="verify-out-is-a-file"),
        pytest.param(out_is_a_file(["slicedemo", "--dt", "0.3", "--horizon", "1",
                                    "--samples", "50"]), 3, "slicedemo aborted: ",
                     id="slicedemo-out-is-a-file"),
        pytest.param(raising_check(ValueError), 3, "verify aborted: broken at seed 42",
                     id="check-raises-ValueError"),
        pytest.param(raising_check(FloatingPointError), 3, "verify aborted: broken at seed 42",
                     id="check-raises-FloatingPointError"),
        pytest.param(raising_check(OSError), 3, "verify aborted: broken at seed 42",
                     id="check-raises-OSError"),
        pytest.param(raising_check(trainer.TrainingAbort), 3, "verify aborted: broken at seed 42",
                     id="check-raises-TrainingAbort"),
        pytest.param(train_raises_value_error, 3, "training aborted: escaped the trainer",
                     id="train-raises-ValueError"),
        pytest.param(edited_sidecar(without("layer_shapes")), 3, "diagnose aborted: ",
                     id="sidecar-without-layer_shapes"),
        pytest.param(edited_sidecar(without("param_count")), 3, "diagnose aborted: ",
                     id="sidecar-without-param_count"),
        pytest.param(edited_sidecar(lambda meta: [1]), 3, "diagnose aborted: ",
                     id="sidecar-not-an-object"),
        pytest.param(edited_sidecar(with_first_shape([64, "x"])), 3, "diagnose aborted: ",
                     id="sidecar-shape-not-an-integer"),
        pytest.param(list_config_with_env_seed("train"), 2,
                     "config error: config must be a JSON object", id="train-list-config-env-seed"),
        pytest.param(list_config_with_env_seed("diagnose"), 2,
                     "config error: config must be a JSON object",
                     id="diagnose-list-config-env-seed"),
    ],
)
def test_bad_input_exits_with_one_stderr_line(
    tmp_path, monkeypatch, capsys, trained, build, code, prefix
):
    monkeypatch.setattr(certify, "worker_count", lambda n_jobs: 1)  # a raising check runs here
    argv = build(tmp_path, monkeypatch, trained)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: {**meta, "layer_shapes": []}, "layer_shapes must be a nonempty list"),
        (with_first_shape([0, 4]), "layer_shapes must be a nonempty list"),
        (with_first_shape([True, 4]), "layer_shapes must be a nonempty list"),
        (lambda meta: {**meta, "layer_shapes": meta["layer_shapes"][:-1]}, "its layer_shapes need"),
        (lambda meta: {**meta, "param_count": meta["param_count"] + 1}, "param_count says"),
        (None, "holds [0-9]+ bytes"),
    ],
    ids=["empty", "zero", "bool", "one-layer-short", "param_count-off", "bin-truncated"],
)
def test_read_layers_rejects_a_bad_sidecar_naming_the_file(tmp_path, trained, edit, message):
    ckpt = shutil.copytree(trained[0], tmp_path / "ckpt")
    if edit is None:  # the .bin file loses its last byte
        weights = ckpt / "encoder.bin"
        weights.write_bytes(weights.read_bytes()[:-1])
    else:
        sidecar = ckpt / "encoder.json"
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
    with pytest.raises(ValueError, match=message) as info:
        trainer.load_encoder(str(ckpt))
    assert str(ckpt / "encoder") in str(info.value)


def test_importing_the_cli_loads_no_process_pool():
    # concurrent.futures costs 5-8 ms per command, so cmd_verify and
    # run_checks import it only when they need it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(certify.__file__)))
    script = (
        "import sys, hamjepa.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_importing_the_cli_loads_no_certification_code():
    # train and diagnose read neither module; cmd_verify imports certify
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(certify.__file__)))
    script = (
        "import sys, hamjepa.cli; "
        "print([m for m in ('hamjepa.certify', 'hamjepa.geomtheory') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


# --- process set-up -----------------------------------------------------------
# trainer.setup_process, which main calls before every command


class _FakeLibc:
    """Stands in for ctypes.CDLL(None); records mallopt calls in ``log``."""

    def __init__(self, log, has_mallopt=True):
        if has_mallopt:

            def mallopt(param, value):
                log.append(("mallopt", param, value))
                return 1

            self.mallopt = mallopt


def _fake_cdll(monkeypatch, log, has_mallopt=True, error=None):
    def cdll(name):
        assert name is None  # the symbols already loaded into the process
        if error is not None:
            raise error
        return _FakeLibc(log, has_mallopt)

    monkeypatch.setattr(trainer.ctypes, "CDLL", cdll)


def test_malloc_thresholds_are_fixed_through_mallopt(monkeypatch):
    log = []
    _fake_cdll(monkeypatch, log)
    trainer._fix_malloc_thresholds()
    assert log == [("mallopt", -3, 32 * 2**20), ("mallopt", -1, 64 * 2**20)]


@pytest.mark.parametrize("has_mallopt, error", [(True, OSError("no libc")), (False, None)])
def test_malloc_setup_is_a_no_op_without_mallopt(monkeypatch, has_mallopt, error):
    log = []
    _fake_cdll(monkeypatch, log, has_mallopt, error)
    trainer._fix_malloc_thresholds()
    assert log == []


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
def test_glibc_accepts_the_malloc_thresholds():
    ctypes = trainer.ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # mallopt returns 1 when it takes a value and 0 when the value is out of range
    assert mallopt(trainer.M_MMAP_THRESHOLD, trainer.MMAP_THRESHOLD_BYTES) == 1
    assert mallopt(trainer.M_TRIM_THRESHOLD, trainer.TRIM_THRESHOLD_BYTES) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--filter", "slice_demo"],
        ["train", "--config", "c.json"],
        ["diagnose", "--checkpoint", "ck", "--config", "c.json", "--out", "o"],
        ["slicedemo", "--dt", "0.3", "--horizon", "3", "--out", "o"],
    ],
)
def test_main_sets_up_the_process_before_any_command(monkeypatch, argv):
    log = []
    _fake_cdll(monkeypatch, log)
    monkeypatch.setattr(trainer, "_one_blas_thread", lambda: log.append(("blas",)))

    def command(args):
        log.append(("command", args.command))
        return 0

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", command)
    assert main(argv) == 0
    assert log == [
        ("mallopt", -3, 32 * 2**20),
        ("mallopt", -1, 64 * 2**20),
        ("blas",),
        ("command", argv[0]),
    ]


def test_setup_process_twice_is_harmless(tmp_path):
    # a second call, as run_checks makes under main, repeats the same settings
    trainer.setup_process()
    trainer.setup_process()
    assert main(["verify", "--filter", "convergence_order", "--out", str(tmp_path)]) == 0


def test_run_checks_sets_up_the_process(monkeypatch):
    log = []
    monkeypatch.setattr(trainer, "setup_process", lambda: log.append("setup"))
    monkeypatch.setattr(certify, "worker_count", lambda n: 1)
    monkeypatch.setitem(certify.CHECKS, "stub", lambda seed: (True, {}))
    assert [r.name for r in certify.run_checks(["stub"])] == ["stub"]
    assert log == ["setup"]
