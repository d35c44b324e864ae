import json
import os

import pytest

from hamjepa import certify
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


def test_verify_unknown_filter_is_config_error(capsys):
    assert main(["verify", "--filter", "no_such_check"]) == 2


def test_verify_corrupted_tolerance_fails_named_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(certify.TOLERANCES, "order_slope_band", 1e-12)
    code = main(["verify", "--filter", "convergence_order", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL convergence_order" in captured.out
    assert "convergence_order" in captured.err


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


@pytest.mark.parametrize(
    "key, value", [("log_every", 0), ("epochs", "3")], ids=["log_every-0", "epochs-str"]
)
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
        pytest.param({"seed": "x"}, "seed", id="seed-str"),
        pytest.param({"seed": -1}, "seed", id="seed-neg"),
        pytest.param({"data": {"batch_size": 0}}, "data.batch_size", id="batch_size-0"),
        pytest.param({"data": {"batch_size": 1}}, "data.batch_size", id="baseline-batch_size-1"),
        pytest.param(
            {"data": {"n_samples": 257, "drop_last": False}}, "data.batch_size",
            id="baseline-last-batch-1",
        ),
        pytest.param({"data": {"n_classes": 0}}, "data.n_classes", id="n_classes-0"),
        pytest.param({"data": {"latent_dim": 0}}, "data.latent_dim", id="latent_dim-0"),
        pytest.param({"data": {"noise_std": -1}}, "data.noise_std", id="noise_std-neg"),
        pytest.param({"data": {"flow_time": -1}}, "data.flow_time", id="flow_time-neg"),
        pytest.param(
            {"data": {"stiffness_max": -1}}, "data.stiffness_max", id="stiffness_max-neg"
        ),
        pytest.param({"train": {"min_lr_ratio": 0}}, "train.min_lr_ratio", id="min_lr_ratio-0"),
    ],
)
def test_train_bad_value_exit_2(tmp_path, capsys, payload, path):
    cfg_path = write_config(tmp_path / "cfg.json", payload)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


def test_train_overflow_aborts_exit_3(tmp_path, capsys):
    # lr 1e9 blows the encoder up within the first epoch; the squared second
    # moment in the energy budget then overflows a Python float
    cfg_path = write_config(
        tmp_path / "cfg.json", {"hjepa": {}, "train": {"lr": 1e9, "epochs": 1}}
    )
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "training aborted" in err and "overflow" in err and "Traceback" not in err


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
