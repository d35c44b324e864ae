import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from hamjepa.numlin import SPDOperator, orthonormalize_columns
from hamjepa import trainer
from hamjepa.hamflow import init_potential
from hamjepa.trainer import (
    ConfigError,
    Encoder,
    OptimizerState,
    ScheduleSpec,
    SyntheticSpec,
    TrainingAbort,
    _apply_update,
    _build_settings,
    adamw_step,
    encoder_backward,
    ENCODE_ROW_BLOCK,
    encode_readouts,
    encoder_forward,
    exact_quadratic_flow,
    generate_views,
    hamjepa_train_step,
    init_encoder,
    load_encoder,
    lr_at,
    named_params,
    projection_caches,
    residual_scale_at,
    run_first_view,
    run_views,
    save_checkpoint,
    synthetic_spec_from_config,
    train,
    validate_config,
)


def tiny_spec(**kw):
    defaults = dict(
        n_classes=3,
        latent_dim=2,
        h_true=SPDOperator(np.diag([2.0, 1.0])),
        flow_time=0.2,
        noise_std=0.05,
        n_samples=64,
    )
    defaults.update(kw)
    return SyntheticSpec(**defaults)


# --- synthetic data ------------------------------------------------------------


def test_views_identical_with_zero_time_and_noise():
    spec = tiny_spec(noise_std=0.0, flow_time=0.0)
    va, vb, _ = generate_views(spec, np.random.default_rng(0))
    assert np.array_equal(va, vb)


def test_views_identical_after_full_period():
    spec = tiny_spec(
        noise_std=0.0, flow_time=2.0 * np.pi, h_true=SPDOperator(np.eye(2))
    )
    va, vb, _ = generate_views(spec, np.random.default_rng(0))
    assert np.abs(va - vb).max() <= 1e-10


def test_views_bitwise_reproducible():
    spec = tiny_spec(n_samples=256)
    a1 = generate_views(spec, np.random.default_rng(42))
    a2 = generate_views(spec, np.random.default_rng(42))
    for x, y in zip(a1, a2):
        assert np.array_equal(x, y)


def reference_generate_views(spec, rng, second_view=True):
    """generate_views as written before its views were built in place; with
    ``second_view=False`` it stops after the first view's noise and returns
    (views_a, labels)."""
    d0, n = spec.latent_dim, spec.n_samples
    centers = rng.standard_normal((spec.n_classes, d0))
    lift = orthonormalize_columns(rng.standard_normal((spec.obs_dim, 2 * d0)), rng)
    labels = rng.integers(0, spec.n_classes, size=n)
    q0 = centers[labels] + spec.noise_std * rng.standard_normal((n, d0))
    p0 = rng.standard_normal((n, d0))
    qt, pt = exact_quadratic_flow(spec.h_true, spec.flow_time, q0, p0)
    s0 = np.concatenate([q0, p0], axis=1)
    st = np.concatenate([qt, pt], axis=1)
    views_a = s0 @ lift.T + spec.noise_std * rng.standard_normal((n, spec.obs_dim))
    if not second_view:
        return views_a, labels
    views_b = st @ lift.T + spec.noise_std * rng.standard_normal((n, spec.obs_dim))
    return views_a, views_b, labels


@pytest.mark.parametrize("n_samples", [1, 300, None], ids=["n1", "n300", "default"])
def test_generate_views_matches_reference_bitwise(n_samples):
    if n_samples is None:
        spec = synthetic_spec_from_config(validate_config({"seed": 42}))
    else:
        spec = tiny_spec(n_samples=n_samples)
    rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
    got = generate_views(spec, rng)
    expected = reference_generate_views(spec, ref_rng)
    for x, y in zip(got, expected):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    # same draws in the same order: the stream ends where it ended before
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_samples", [1, 300, None], ids=["n1", "n300", "default"])
def test_first_view_draw_is_the_first_of_generate_views_without_the_flow(monkeypatch, n_samples):
    if n_samples is None:
        spec = synthetic_spec_from_config(validate_config({"seed": 42}))
    else:
        spec = tiny_spec(n_samples=n_samples)
    views_a, _, labels = generate_views(spec, np.random.default_rng(42))
    flows = []

    def counted_flow(*args):
        flows.append(args)
        return exact_quadratic_flow(*args)

    monkeypatch.setattr(trainer, "exact_quadratic_flow", counted_flow)
    rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
    got_a, got_labels = trainer._draw_first_view(spec, rng)[:2]  # as run_first_view takes it
    assert flows == []
    assert got_a.dtype == views_a.dtype and np.array_equal(got_a, views_a)
    assert got_labels.dtype == labels.dtype and np.array_equal(got_labels, labels)
    # the same draws, and none after the first view's noise
    reference_generate_views(spec, ref_rng, second_view=False)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    generate_views(spec, np.random.default_rng(42))
    assert len(flows) == 1  # the count sees generate_views' flow


@pytest.mark.parametrize(
    "rows", [1, ENCODE_ROW_BLOCK - 1, ENCODE_ROW_BLOCK, ENCODE_ROW_BLOCK + 1, 2 * ENCODE_ROW_BLOCK + 37]
)
@pytest.mark.parametrize("depth", [0, 2])
def test_encode_readouts_match_one_encoder_forward_bitwise(depth, rows):
    rng = np.random.default_rng(200 + depth)
    enc = init_encoder(32, [64] * depth, 16, rng)
    for b in enc.biases:
        b[:] = rng.standard_normal(b.shape)
    x = 2.0 * rng.standard_normal((rows, 32))
    state, _ = encoder_forward(enc, x)
    readouts = encode_readouts(enc, x)
    qp = readouts["qp"]
    assert qp.shape == (rows, 16) and qp.dtype == np.float64
    assert np.array_equal(readouts["q"], state.q) and np.array_equal(readouts["p"], state.p)
    assert np.array_equal(qp, np.concatenate([state.q, state.p], axis=1))
    # q and p are the column halves of qp, not copies
    assert readouts["q"].base is qp and readouts["p"].base is qp


def test_exact_flow_conserves_energy():
    h = SPDOperator(np.diag([3.0, 0.5]))
    rng = np.random.default_rng(1)
    q, p = rng.standard_normal((100, 2)), rng.standard_normal((100, 2))
    e0 = 0.5 * np.einsum("ni,ij,nj->n", q, h.entries, q) + 0.5 * np.sum(p * p, axis=1)
    qt, pt = exact_quadratic_flow(h, 1.7, q, p)
    e1 = 0.5 * np.einsum("ni,ij,nj->n", qt, h.entries, qt) + 0.5 * np.sum(pt * pt, axis=1)
    assert np.abs(e1 - e0).max() <= 1e-10


# --- encoder --------------------------------------------------------------------


def test_encoder_zero_weights_give_zero_states():
    enc = Encoder(
        weights=[np.zeros((4, 6)), np.zeros((4, 4))],
        biases=[np.zeros(4), np.zeros(4)],
    )
    state, _ = encoder_forward(enc, np.random.default_rng(0).standard_normal((5, 6)))
    assert np.array_equal(state.q, np.zeros((5, 2)))
    assert np.array_equal(state.p, np.zeros((5, 2)))


def test_encoder_identity_layer_recovers_input():
    enc = Encoder(weights=[np.eye(4)], biases=[np.zeros(4)])
    x = np.random.default_rng(1).standard_normal((3, 4))
    state, _ = encoder_forward(enc, x)
    assert np.array_equal(np.concatenate([state.q, state.p], axis=1), x)


def test_encoder_gradients_match_fd():
    rng = np.random.default_rng(2)
    enc = init_encoder(5, [6], 4, rng)
    x = rng.standard_normal((4, 5))
    upstream = rng.standard_normal((4, 4))
    _, tape = encoder_forward(enc, x)
    d_w, d_b = encoder_backward(enc, tape, upstream)

    def loss(e):
        st, _ = encoder_forward(e, x)
        return float(np.sum(upstream * np.concatenate([st.q, st.p], axis=1)))

    h = 1e-6
    import copy

    for li in range(len(enc.weights)):
        for r in range(enc.weights[li].shape[0]):
            c = r % enc.weights[li].shape[1]
            ep, em = copy.deepcopy(enc), copy.deepcopy(enc)
            ep.weights[li][r, c] += h
            em.weights[li][r, c] -= h
            fd = (loss(ep) - loss(em)) / (2 * h)
            assert abs(d_w[li][r, c] - fd) <= 1e-4 * max(abs(fd), 1e-5)


def reference_encoder_forward(enc, batch):
    """encoder_forward as written before its layers were built in place."""
    x = np.asarray(batch, dtype=np.float64)
    acts = [x]
    for i in range(len(enc.weights) - 1):
        x = np.tanh(x @ enc.weights[i].T + enc.biases[i])
        acts.append(x)
    z = x @ enc.weights[-1].T + enc.biases[-1]
    d0 = enc.out_dim // 2
    return z[:, :d0], z[:, d0:], acts


@pytest.mark.parametrize("rows", [1, 512])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_encoder_forward_matches_reference_bitwise(depth, rows):
    rng = np.random.default_rng(100 + depth)
    enc = init_encoder(32, [64] * depth, 16, rng)
    for b in enc.biases:
        b[:] = rng.standard_normal(b.shape)
    x = 2.0 * rng.standard_normal((rows, 32))
    state, tape = encoder_forward(enc, x)
    q, p, ref_tape = reference_encoder_forward(enc, x)
    assert np.array_equal(state.q, q) and np.array_equal(state.p, p)
    assert len(tape) == len(ref_tape) == depth + 1
    for act, ref in zip(tape, ref_tape):
        assert act.shape == ref.shape and np.array_equal(act, ref)


def test_encoder_requires_even_output():
    with pytest.raises(ValueError):
        Encoder(weights=[np.zeros((3, 4))], biases=[np.zeros(3)])


# --- optimizer -------------------------------------------------------------------


def test_adamw_first_step_hand_arithmetic():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([1.0])}
    state = OptimizerState(weight_decay=0.0)
    adamw_step(state, params, grads, {"w": 0.1})
    assert abs(params["w"][0] - 0.9) <= 1e-7


def test_adamw_zero_gradient_no_decay_is_identity():
    params = {"w": np.array([0.7, -0.3])}
    state = OptimizerState(weight_decay=0.0)
    adamw_step(state, params, {"w": np.zeros(2)}, {"w": 0.1})
    assert np.array_equal(params["w"], [0.7, -0.3])


def test_adamw_decoupled_decay():
    params = {"w": np.array([1.0])}
    state = OptimizerState(weight_decay=0.1)
    adamw_step(state, params, {"w": np.zeros(1)}, {"w": 0.1})
    assert abs(params["w"][0] - 0.99) <= 1e-15


def test_adamw_rejects_nonfinite_gradient():
    state = OptimizerState()
    with pytest.raises(TrainingAbort, match="w"):
        adamw_step(state, {"w": np.array([1.0])}, {"w": np.array([np.nan])}, {"w": 0.1})


def test_step_learning_rates_are_grouped():
    settings = _build_settings(validate_config({"seed": 0, "hjepa": {}, "data": {"batch_size": 8}}))
    rng = np.random.default_rng(6)
    enc = init_encoder(12, [8], 16, rng)
    net = init_potential(8, rng, hidden_dim=8, depth=2, alpha=1.0, scale=0.5)
    caches = projection_caches(8, settings, np.random.default_rng(0), np.random.default_rng(1))
    va, vb = rng.standard_normal((8, 12)), rng.standard_normal((8, 12))
    params = named_params("enc", enc.weights, enc.biases)
    params.update(named_params("pot", net.weights, net.biases))
    before = {name: p.copy() for name, p in params.items()}
    lrs = {name: (1e-2 if name.startswith("pot.") else 0.0) for name in params}
    opt = OptimizerState(weight_decay=0.01)
    hamjepa_train_step(enc, net, va, vb, settings, caches, opt, params, lrs, 1.0, 0)
    changed = {name for name, p in params.items() if not np.array_equal(p, before[name])}
    # the output bias of V never gets a gradient: the rollout only sees grad V
    assert changed == {name for name in params if name.startswith("pot.")} - {"pot.b2"}


def test_update_aborts_on_nonfinite_total_before_touching_params():
    params = {"w": np.array([1.0, 2.0])}
    opt = OptimizerState()
    breakdown = {"total": float("nan")}
    with pytest.raises(TrainingAbort, match="non-finite loss"):
        _apply_update(breakdown, {"w": np.array([0.5, 0.5])}, opt, params, {"w": 0.1}, 1.0, 0)
    assert np.array_equal(params["w"], [1.0, 2.0])
    assert opt.step == 0
    assert opt.m == {} and opt.v == {}


@pytest.mark.parametrize(
    "grad, message",
    [
        # every entry is finite, but the sum of their squares overflows
        ([1e200, 1e200], "gradient norm overflows at step 7"),
        ([np.nan, 0.5], "gradient norm is NaN at step 7"),
    ],
)
def test_update_aborts_on_nonfinite_gradient_norm_naming_the_step(grad, message):
    params = {"w": np.array([1.0, 2.0])}
    opt = OptimizerState()
    breakdown = {"total": 1.0}
    with pytest.raises(TrainingAbort, match=message):
        _apply_update(breakdown, {"w": np.array(grad)}, opt, params, {"w": 0.1}, 1.0, 7)
    assert np.array_equal(params["w"], [1.0, 2.0])
    assert opt.step == 0
    assert "grad_norm" not in breakdown


# --- schedules --------------------------------------------------------------------


def test_lr_warmup_halfway():
    sched = ScheduleSpec(warmup_epochs=4, total_epochs=20)
    assert abs(lr_at(sched, 1e-3, 2.0) - 0.5e-3) <= 1e-18


def test_lr_end_of_training():
    sched = ScheduleSpec(warmup_epochs=4, total_epochs=20, min_lr_ratio=0.1)
    assert abs(lr_at(sched, 1e-3, 20.0) - 1e-4) <= 1e-18


def test_lr_cosine_midpoint():
    sched = ScheduleSpec(warmup_epochs=4, total_epochs=20, min_lr_ratio=0.1)
    assert abs(lr_at(sched, 1e-3, 12.0) - 1e-3 * (1 + 0.1) / 2) <= 1e-15


def test_residual_scale_ramp():
    sched = ScheduleSpec(
        warmup_epochs=1, total_epochs=30, residual_scale_target=0.8, residual_warmup_epochs=6
    )
    assert residual_scale_at(sched, 0) == 0.0
    assert abs(residual_scale_at(sched, 3) - 0.4) <= 1e-15
    assert residual_scale_at(sched, 6) == 0.8
    assert residual_scale_at(sched, 20) == 0.8


# --- config validation ---------------------------------------------------------------


def test_config_rejects_unknown_keys_with_path():
    with pytest.raises(ConfigError, match="data.bogus"):
        validate_config({"data": {"bogus": 1}})
    with pytest.raises(ConfigError, match="nonsense"):
        validate_config({"nonsense": {}})


def test_config_rejects_learnable_dt():
    with pytest.raises(ConfigError, match="learn_dt"):
        validate_config({"hjepa": {"learn_dt": True}})


def test_config_rejects_odd_embed_dim():
    with pytest.raises(ConfigError, match="embed_dim"):
        validate_config({"hjepa": {}, "model": {"embed_dim": 15}})


def test_config_baseline_rejects_hjepa_only_blocks():
    with pytest.raises(ConfigError, match="loss"):
        validate_config({"loss": {"match": "q"}})


def test_config_mode_switch():
    assert validate_config({"hjepa": {}})["mode"] == "hjepa"
    assert validate_config({})["mode"] == "baseline"


def test_config_baseline_regularizer_type():
    with pytest.raises(ConfigError, match="unknown key regularizer.type"):
        validate_config({"regularizer": {"type": "vicreg"}})


# --- training loop ---------------------------------------------------------------


def tiny_train_config(ckpt, epochs=2, mode_hjepa=True, **train_kw):
    cfg = {
        "seed": 3,
        "data": {"n_samples": 256, "batch_size": 64},
        "train": {"epochs": epochs, "warmup_epochs": 1, "ckpt_dir": ckpt, **train_kw},
    }
    if mode_hjepa:
        cfg["hjepa"] = {}
    return cfg


def test_readme_minimal_config_trains(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    training = readme.split("## Training", 1)[1].split("\n## ", 1)[0]
    raw = json.loads(re.search(r"```json\n(.*?)```", training, re.S).group(1))
    assert validate_config(raw)["mode"] == "hjepa"
    raw["data"].update(n_samples=64, batch_size=16)
    raw["train"].update(epochs=1, warmup_epochs=1)
    result = train(raw, out_dir=str(tmp_path / "run"))
    assert result["steps"] == 4 and np.isfinite(result["final"]["total"])


def test_run_views_are_the_training_data(tmp_path):
    cfg = tiny_train_config(str(tmp_path / "run"), epochs=0)
    result = train(cfg)
    views_a, views_b, labels, cut = run_views(validate_config(cfg))
    assert np.array_equal(labels, result["labels"])
    assert views_a.shape == views_b.shape == (256, result["encoder"].weights[0].shape[1])
    assert cut == 192
    first_a, first_labels, first_cut = run_first_view(validate_config(cfg))
    assert np.array_equal(first_a, views_a) and np.array_equal(first_labels, labels)
    assert first_cut == cut


def test_train_zero_epochs_initial_checkpoint_only(tmp_path):
    out = str(tmp_path / "run")
    result = train(tiny_train_config(out, epochs=0), out_dir=out)
    assert os.path.isdir(os.path.join(out, "checkpoint_init"))
    assert not os.path.exists(os.path.join(out, "checkpoint_final"))
    assert result["steps"] == 0
    assert os.path.getsize(result["metrics_path"]) == 0


def test_train_loss_decreases(tmp_path):
    # default synthetic task, 5 epochs: the smoothed prediction loss drops
    out = str(tmp_path / "run")
    cfg = {"seed": 3, "hjepa": {}, "train": {"epochs": 5, "ckpt_dir": out}}
    result = train(cfg, out_dir=out)
    preds = []
    for line in open(result["metrics_path"]):
        rec = json.loads(line)
        if "L_pred" in rec:
            preds.append(rec["L_pred"])
    assert np.mean(preds[-5:]) < np.mean(preds[:5])


def test_train_metrics_have_contract_fields(tmp_path):
    out = str(tmp_path / "run")
    result = train(tiny_train_config(out, epochs=1), out_dir=out)
    first = json.loads(open(result["metrics_path"]).readline())
    for field in ("step", "L_pred", "L_bi", "L_budget", "L_vol", "L_pr", "L_mean", "sigreg", "total"):
        assert field in first


def test_train_rerun_is_bitwise_identical(tmp_path):
    cfg = tiny_train_config("unused", epochs=2)
    r1 = train(dict(cfg), out_dir=str(tmp_path / "a"))
    r2 = train(dict(cfg), out_dir=str(tmp_path / "b"))
    m1 = open(r1["metrics_path"], "rb").read()
    m2 = open(r2["metrics_path"], "rb").read()
    assert m1 == m2
    e1 = (tmp_path / "a" / "checkpoint_final" / "encoder.bin").read_bytes()
    e2 = (tmp_path / "b" / "checkpoint_final" / "encoder.bin").read_bytes()
    assert e1 == e2


def first_step_with(tmp_path, name, regularizer):
    cfg = tiny_train_config("unused", epochs=1)
    cfg["regularizer"] = regularizer
    result = train(cfg, out_dir=str(tmp_path / name))
    return json.loads(open(result["metrics_path"]).readline())


def test_config_pr_norm_floor_adds_pr_loss(tmp_path):
    # a floor of 1.0 asks for the isotropic participation ratio k = 8, which
    # a batch from the fresh encoder does not reach
    default = first_step_with(tmp_path, "default", {})
    floored = first_step_with(tmp_path, "floor", {"q_pr_norm_floor": 1.0})
    assert default["L_pr"] == 0.0
    assert floored["pr_q"] < 8
    assert floored["L_pr"] == pytest.approx((8 - floored["pr_q"]) ** 2, rel=1e-12)


def test_config_eigmax_ceiling_changes_logdet_loss(tmp_path):
    # the top-eigenvalue fraction is at least 1/k = 0.125, so 0.13 binds
    default = first_step_with(tmp_path, "default", {})
    capped = first_step_with(tmp_path, "ceiling", {"q_eigmax_frac_ceiling": 0.13})
    assert default["eigmax_frac_q"] > 0.13
    assert capped["L_logdet"] != default["L_logdet"]
    assert capped["L_logdet"] - default["L_logdet"] == pytest.approx(
        (default["eigmax_frac_q"] - 0.13) ** 2, rel=1e-9
    )


def test_train_baseline_mode(tmp_path):
    out = str(tmp_path / "run")
    result = train(tiny_train_config(out, epochs=2, mode_hjepa=False), out_dir=out)
    assert result["mode"] == "baseline"
    first = json.loads(open(result["metrics_path"]).readline())
    assert first["sigreg"] > 0


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    enc = init_encoder(8, [6], 4, rng)
    save_checkpoint(str(tmp_path), enc, None, OptimizerState(), {"mode": "baseline"})
    loaded = load_encoder(str(tmp_path))
    for a, b in zip(loaded.weights, enc.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, enc.biases):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("key,value", [("kind", "potential"), ("format", "other-v9")])
def test_load_encoder_rejects_foreign_sidecar(tmp_path, key, value):
    enc = init_encoder(8, [6], 4, np.random.default_rng(5))
    save_checkpoint(str(tmp_path), enc, None, OptimizerState(), {"mode": "baseline"})
    sidecar = tmp_path / "encoder.json"
    meta = json.loads(sidecar.read_text())
    meta[key] = value
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="encoder"):
        load_encoder(str(tmp_path))
