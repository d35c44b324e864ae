"""Desk-scale training harness.

Synthetic two-view data whose ground-truth view coupling is the exact flow
of a known quadratic stiffness, a small tanh encoder emitting phase-space
states, AdamW with decoupled weight decay, warmup + cosine learning-rate
and residual-scale schedules, and the two step types: the phase-space
predictive step (rollout prediction plus anti-collapse regularizers) and
the mean-of-views baseline step with the sliced-CF regularizer.  Each is a
pure loss-and-gradients function followed by one shared update.

Everything is driven by a JSON config validated against a strict schema
(unknown keys are rejected with their path).  Identical config and seed
give bitwise-identical parameter trajectories, metrics, and checkpoints.
"""

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import hamflow
from .hamflow import PhaseState, PotentialNet, RolloutSpec, init_potential
from .numlin import SPDOperator, SymMatrix, orthonormalize_columns, sym_eig
from .objectives import (
    MatchSpec,
    RefreshCache,
    RegularizerSpec,
    SIGRegSpec,
    default_sigreg_knots,
    energy_budget,
    lejepa_prediction_loss,
    mean_penalty,
    orthonormal_projection,
    prediction_loss,
    projected_logdet_floor,
    sigreg_statistic,
    unit_slices,
    variance_floor,
)


class ConfigError(ValueError):
    """Invalid or unknown configuration key; message carries the key path."""


class TrainingAbort(RuntimeError):
    """Non-finite loss or gradients; message carries the loss breakdown."""


# --- synthetic two-view data ---------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int
    latent_dim: int
    h_true: SPDOperator
    flow_time: float
    noise_std: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.h_true.dim != self.latent_dim:
            raise ValueError("stiffness dimension must match latent_dim")
        if self.noise_std < 0 or self.flow_time < 0:
            raise ValueError("noise_std and flow_time must be nonnegative")

    @property
    def obs_dim(self) -> int:
        return 4 * self.latent_dim


def exact_quadratic_flow(h_true: SPDOperator, t: float, q: np.ndarray, p: np.ndarray):
    """Closed-form flow of q' = p, p' = -Hq for time t (rows are samples)."""
    eig = sym_eig(SymMatrix(h_true.entries))
    omega = np.sqrt(eig.eigenvalues)
    qm = q @ eig.eigenvectors
    pm = p @ eig.eigenvectors
    cos, sin = np.cos(omega * t), np.sin(omega * t)
    qt = qm * cos + pm * (sin / omega)
    pt = pm * cos - qm * (omega * sin)
    return qt @ eig.eigenvectors.T, pt @ eig.eigenvectors.T


def generate_views(spec: SyntheticSpec, rng: np.random.Generator):
    """Two observed views per sample: the second is the first transported by
    the exact quadratic flow before the fixed random orthogonal lift.

    Returns (views_a, views_b, labels).  Draw order is fixed: class centers,
    lift, labels, position jitter, momenta, then the two observation noises.
    """
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
    views_b = st @ lift.T + spec.noise_std * rng.standard_normal((n, spec.obs_dim))
    return views_a, views_b, labels


def default_stiffness(d0: int, stiffness_max: float) -> SPDOperator:
    """Diagonal stiffness with a geometric spectrum from stiffness_max to 1."""
    return SPDOperator(np.diag(np.geomspace(stiffness_max, 1.0, d0)))


# --- encoder -------------------------------------------------------------------


@dataclass
class Encoder:
    """tanh MLP ending in a linear layer; the output splits positionally
    into the q half then the p half."""

    weights: list
    biases: list

    def __post_init__(self):
        if self.weights[-1].shape[0] % 2 != 0:
            raise ValueError("encoder output dimension must be even")

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]


def init_encoder(obs_dim: int, hidden_dims: list, out_dim: int, rng: np.random.Generator):
    dims = [obs_dim] + list(hidden_dims) + [out_dim]
    weights, biases = [], []
    for i in range(len(dims) - 1):
        weights.append(rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]))
        biases.append(np.zeros(dims[i + 1]))
    return Encoder(weights, biases)


def encoder_forward(enc: Encoder, batch: np.ndarray):
    """Forward pass returning the phase-state batch and the activation tape."""
    x = np.asarray(batch, dtype=np.float64)
    acts = [x]
    for i in range(len(enc.weights) - 1):
        x = np.tanh(x @ enc.weights[i].T + enc.biases[i])
        acts.append(x)
    z = x @ enc.weights[-1].T + enc.biases[-1]
    d0 = enc.out_dim // 2
    return PhaseState(z[:, :d0], z[:, d0:]), acts


def encoder_backward(enc: Encoder, acts: list, dz: np.ndarray):
    """Parameter gradients of a scalar loss given its gradient at the
    encoder output."""
    d_w = [np.zeros_like(w) for w in enc.weights]
    d_b = [np.zeros_like(b) for b in enc.biases]
    delta = dz
    d_w[-1] += delta.T @ acts[-1]
    d_b[-1] += delta.sum(axis=0)
    back = delta @ enc.weights[-1]
    for i in range(len(enc.weights) - 2, -1, -1):
        delta = back * (1.0 - acts[i + 1] ** 2)
        d_w[i] += delta.T @ acts[i]
        d_b[i] += delta.sum(axis=0)
        if i > 0:
            back = delta @ enc.weights[i]
    return d_w, d_b


# --- optimizer -----------------------------------------------------------------


@dataclass
class OptimizerState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    base_lr: float = 1e-3
    weight_decay: float = 0.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(state: OptimizerState, params: dict, grads: dict, lrs: dict):
    """One shared-step AdamW update with a per-parameter learning rate.

    The decoupled decay is applied multiplicatively before the adaptive
    step with bias correction.  Updates the parameter arrays in place.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingAbort(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        lr = lrs[name]
        if state.weight_decay:
            p *= 1.0 - lr * state.weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


# --- schedules -----------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleSpec:
    warmup_epochs: float = 3.0
    total_epochs: float = 30.0
    min_lr_ratio: float = 0.05
    residual_scale_target: float = 0.5
    residual_warmup_epochs: float = 5.0

    def __post_init__(self):
        if self.warmup_epochs > self.total_epochs:
            raise ValueError("warmup cannot exceed total epochs")
        if not 0 < self.min_lr_ratio <= 1:
            raise ValueError("min_lr_ratio must lie in (0, 1]")


def lr_at(schedule: ScheduleSpec, base_lr: float, epoch_frac: float) -> float:
    """Linear ramp to base over the warmup, then cosine down to
    base * min_lr_ratio at the end of training."""
    if epoch_frac < 0 or epoch_frac > schedule.total_epochs:
        raise ValueError("epoch_frac outside the training range")
    if schedule.warmup_epochs > 0 and epoch_frac < schedule.warmup_epochs:
        return base_lr * epoch_frac / schedule.warmup_epochs
    span = schedule.total_epochs - schedule.warmup_epochs
    if span <= 0:
        return base_lr * schedule.min_lr_ratio
    frac = (epoch_frac - schedule.warmup_epochs) / span
    lo = schedule.min_lr_ratio
    return base_lr * (lo + (1.0 - lo) * 0.5 * (1.0 + math.cos(math.pi * frac)))


def residual_scale_at(schedule: ScheduleSpec, epoch: float) -> float:
    """Linear ramp of the potential's residual multiplier to its target."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    if schedule.residual_warmup_epochs <= 0:
        return schedule.residual_scale_target
    return min(1.0, epoch / schedule.residual_warmup_epochs) * schedule.residual_scale_target


# --- config schema -------------------------------------------------------------

_DATA_DEFAULTS = {
    "n_samples": 4096,
    "n_classes": 10,
    "latent_dim": 8,
    "noise_std": 0.05,
    "flow_time": 0.2,
    "stiffness_max": 16.0,
    "batch_size": 256,
    "num_global_views": 2,
    "drop_last": True,
}
_MODEL_DEFAULTS = {
    "hidden_dims": [64, 64],
    "embed_dim": 16,
    "split_qp": True,
    "projector_type": "identity",
}
_HJEPA_DEFAULTS = {
    "hamiltonian": "separable",
    "method": "leapfrog",
    "steps": 2,
    "dt": 0.1,
    "learn_dt": False,
    "hidden_dim": 64,
    "depth": 2,
    "residual_scale": 0.5,
    "residual_scale_warmup_epochs": 5,
    "base_coeff": 1.0,
}
_LOSS_DEFAULTS = {
    "match": "q",
    "p_weight": 0.0,
    "detach_target": True,
    "energy_weight": 0.0,
    "bidirectional": False,
}
_REG_HJEPA_DEFAULTS = {
    "q_per_dim_target": 1.0,
    "p_per_dim_target": 1.0,
    "q_std_floor": 0.1,
    "var_floor_on_p": False,
    "q_logdet_proj_dim": 8,
    "q_logdet_floor": -1.0,
    "q_logdet_eps": 1e-4,
    "q_logdet_refresh_interval": 16,
    "q_pr_norm_floor": None,
    "q_eigmax_frac_ceiling": None,
    "p_logdet_proj_dim": 8,
    "p_logdet_floor": -1.0,
    "p_logdet_eps": 1e-4,
    "p_logdet_refresh_interval": 16,
    "p_pr_norm_floor": None,
    "p_eigmax_frac_ceiling": None,
}
_REG_BASELINE_DEFAULTS = {
    "type": "sigreg",
    "n_slices": 64,
    "n_knots": 17,
    "knot_max": 4.0,
    "refresh_interval": 16,
}
_TRAIN_DEFAULTS = {
    "epochs": 30,
    "lr": 1e-3,
    "h_lr": 1e-3,
    "weight_decay": 0.01,
    "warmup_epochs": 3,
    "min_lr_ratio": 0.05,
    "grad_clip": 1.0,
    "log_every": 1,
    "lambda_budget": 1.0,
    "lambda_var": 1.0,
    "lambda_logdet": 1.0,
    "lambda_mean": 0.1,
    "lambda_reg": 1.0,
    "ckpt_dir": "runs/default",
}


def _merge_block(name: str, user: dict, defaults: dict) -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"{name} must be an object")
    for key in user:
        if key not in defaults:
            raise ConfigError(f"unknown key {name}.{key}")
    merged = dict(defaults)
    merged.update(user)
    return merged


def validate_config(raw: dict) -> dict:
    """Schema-validate a run config, filling defaults.

    The run is in phase-space predictive mode exactly when the ``hjepa``
    block is present; otherwise it is the mean-of-views baseline with the
    sliced-CF regularizer.  Unknown keys fail with their path.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    mode = "hjepa" if "hjepa" in raw else "baseline"
    allowed = {"seed", "data", "model", "train", "regularizer"}
    if mode == "hjepa":
        allowed |= {"hjepa", "loss"}
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key {key}")

    cfg = {
        "seed": _require_int("seed", raw.get("seed", 42), 0),
        "mode": mode,
        "data": _merge_block("data", raw.get("data", {}), _DATA_DEFAULTS),
        "model": _merge_block("model", raw.get("model", {}), _MODEL_DEFAULTS),
        "train": _merge_block("train", raw.get("train", {}), _TRAIN_DEFAULTS),
    }
    if mode == "hjepa":
        cfg["hjepa"] = _merge_block("hjepa", raw.get("hjepa", {}), _HJEPA_DEFAULTS)
        cfg["loss"] = _merge_block("loss", raw.get("loss", {}), _LOSS_DEFAULTS)
        cfg["regularizer"] = _merge_block(
            "regularizer", raw.get("regularizer", {}), _REG_HJEPA_DEFAULTS
        )
    else:
        cfg["regularizer"] = _merge_block(
            "regularizer", raw.get("regularizer", {}), _REG_BASELINE_DEFAULTS
        )
        if cfg["regularizer"]["type"] != "sigreg":
            raise ConfigError("regularizer.type: only 'sigreg' is supported in baseline mode")

    model = cfg["model"]
    if model["embed_dim"] % 2 != 0:
        raise ConfigError("model.embed_dim must be even for the q/p split")
    if model["projector_type"] != "identity":
        raise ConfigError("model.projector_type: only 'identity' is supported")
    if mode == "hjepa":
        if not model["split_qp"]:
            raise ConfigError("model.split_qp must be true when the hjepa block is present")
        hj = cfg["hjepa"]
        if hj["learn_dt"]:
            raise ConfigError("hjepa.learn_dt: learnable step size is rejected")
        if hj["hamiltonian"] != "separable":
            raise ConfigError("hjepa.hamiltonian: only 'separable' is supported")
        if hj["method"] not in ("leapfrog", "symplectic_euler"):
            raise ConfigError("hjepa.method must be 'leapfrog' or 'symplectic_euler'")
    if cfg["data"]["num_global_views"] != 2:
        raise ConfigError("data.num_global_views: exactly 2 global views are supported")
    int_floors = [
        ("data.n_samples", 1), ("data.batch_size", 1), ("data.n_classes", 1),
        ("data.latent_dim", 1), ("train.epochs", 0), ("train.log_every", 1),
    ]
    # finite numbers: (path, lower bound, lower bound allowed, upper bound)
    ranges = [
        ("data.noise_std", 0, True, math.inf),
        ("data.flow_time", 0, True, math.inf),
        ("data.stiffness_max", 0, False, math.inf),
        ("train.min_lr_ratio", 0, False, 1),
    ]
    if mode == "hjepa":
        int_floors += [
            ("hjepa.steps", 1),
            ("regularizer.q_logdet_refresh_interval", 1),
            ("regularizer.p_logdet_refresh_interval", 1),
        ]
        ranges.append(("hjepa.dt", 0, False, math.inf))
    else:
        int_floors += [
            ("regularizer.n_slices", 1),
            ("regularizer.n_knots", 1),
            ("regularizer.refresh_interval", 1),
        ]
        ranges.append(("regularizer.knot_max", 0, False, math.inf))
    for path, minimum in int_floors:
        block, key = path.split(".")
        _require_int(path, cfg[block][key], minimum)
    for path, low, closed, high in ranges:
        block, key = path.split(".")
        _require_number(path, cfg[block][key], low, closed, high)
    data = cfg["data"]
    tail = 0 if data["drop_last"] else data["n_samples"] % data["batch_size"]
    if mode == "baseline" and (data["batch_size"] < 2 or tail == 1):
        raise ConfigError(
            "data.batch_size: every baseline batch, the last one included, needs at least "
            "2 samples for the sliced-CF statistic"
        )
    return cfg


def _require_int(path: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{path} must be an integer >= {minimum}, got {value!r}")
    return value


def _require_number(path: str, value, low, closed: bool, high) -> None:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and value < math.inf and (low <= value if closed else low < value)
            and value <= high):
        bounds = f"{'>=' if closed else '>'} {low}" + (f" and <= {high}" if high < math.inf else "")
        raise ConfigError(f"{path} must be a finite number {bounds}, got {value!r}")


# --- training ------------------------------------------------------------------


def named_params(prefix: str, weights: list, biases: list) -> dict:
    """``{prefix}.w{i}`` / ``{prefix}.b{i}`` entries in layer order."""
    named = {}
    for i, (w, b) in enumerate(zip(weights, biases)):
        named[f"{prefix}.w{i}"] = w
        named[f"{prefix}.b{i}"] = b
    return named


@dataclass
class HamjepaStepSettings:
    rollout: RolloutSpec
    match: MatchSpec
    reg_q: RegularizerSpec
    reg_p: RegularizerSpec
    var_floor_on_p: bool
    lambdas: dict


def hamjepa_loss_and_grads(
    enc: Encoder,
    net: PotentialNet,
    view_a: np.ndarray,
    view_b: np.ndarray,
    settings: HamjepaStepSettings,
    caches: dict,
    step: int,
) -> tuple[dict, dict]:
    """Loss breakdown and parameter gradients of one phase-space predictive
    step on a two-view batch; updates nothing but the projection caches.

    Both views go through a single concatenated encoder forward; the
    prediction loss rolls the first view's states; the scale/variance/
    volume/mean regularizers act on the concatenation of all views, with
    the volume floor applied to the q and p halves separately.
    """
    B = view_a.shape[0]
    d0 = enc.out_dim // 2
    x_cat = np.concatenate([view_a, view_b], axis=0)
    state, tape = encoder_forward(enc, x_cat)
    z = np.concatenate([state.q, state.p], axis=1)
    s_a = PhaseState(state.q[:B], state.p[:B])
    s_b = PhaseState(state.q[B:], state.p[B:])

    pred = prediction_loss(net, s_a, s_b, settings.rollout, settings.match)
    q_all, p_all = z[:, :d0], z[:, d0:]
    lam = settings.lambdas

    l_budget, g_budget = energy_budget(z, settings.reg_q)
    l_var, g_var_q = variance_floor(q_all, settings.reg_q.sigma_min)
    g_var_p = None
    if settings.var_floor_on_p:
        l_var_p, g_var_p = variance_floor(p_all, settings.reg_q.sigma_min)
        l_var += l_var_p
    lvol_q, diag_q, g_vol_q = projected_logdet_floor(
        q_all, settings.reg_q, caches["q_proj"].get(step)
    )
    lvol_p, diag_p, g_vol_p = projected_logdet_floor(
        p_all, settings.reg_p, caches["p_proj"].get(step)
    )
    l_logdet = lvol_q + lvol_p
    l_mean, g_mean = mean_penalty(z)

    total = (
        pred.loss
        + lam["budget"] * l_budget
        + lam["var"] * l_var
        + lam["logdet"] * l_logdet
        + lam["mean"] * l_mean
    )
    breakdown = {
        "step": step,
        "L_pred": pred.forward_loss,
        "L_bi": pred.backward_loss,
        "L_budget": l_budget,
        "L_var": l_var,
        "L_vol": diag_q.vol_loss + diag_p.vol_loss,
        "L_pr": diag_q.pr_loss + diag_p.pr_loss,
        "L_logdet": l_logdet,
        "L_mean": l_mean,
        "sigreg": 0.0,
        "total": total,
        "lvol_q": diag_q.logdet_per_dim,
        "lvol_p": diag_p.logdet_per_dim,
        "pr_q": diag_q.pr,
        "pr_p": diag_p.pr,
        "eigmax_frac_q": diag_q.eigmax_frac,
        "eigmax_frac_p": diag_p.eigmax_frac,
    }

    dz = np.zeros_like(z)
    dz[:B, :d0] += pred.d_source.q
    dz[:B, d0:] += pred.d_source.p
    dz[B:, :d0] += pred.d_target.q
    dz[B:, d0:] += pred.d_target.p
    dz += lam["budget"] * g_budget
    dz[:, :d0] += lam["var"] * g_var_q
    if g_var_p is not None:
        dz[:, d0:] += lam["var"] * g_var_p
    dz[:, :d0] += lam["logdet"] * g_vol_q
    dz[:, d0:] += lam["logdet"] * g_vol_p
    dz += lam["mean"] * g_mean

    d_w, d_b = encoder_backward(enc, tape, dz)
    grads = named_params("enc", d_w, d_b)
    grads.update(named_params("pot", pred.net_grads.d_weights, pred.net_grads.d_biases))
    return breakdown, grads


def lejepa_loss_and_grads(
    enc: Encoder,
    views: list,
    sigreg_spec: SIGRegSpec,
    slice_cache: RefreshCache,
    lambda_reg: float,
    step: int,
) -> tuple[dict, dict]:
    """Loss breakdown and encoder gradients of one baseline step: every view
    predicts the mean of the global views, and the sliced-CF statistic
    regularizes each view's batch."""
    V = len(views)
    B = views[0].shape[0]
    x_cat = np.concatenate(views, axis=0)
    state, tape = encoder_forward(enc, x_cat)
    z = np.concatenate([state.q, state.p], axis=1)
    D = z.shape[1]
    z_views = z.reshape(V, B, D)

    l_pred, g_pred = lejepa_prediction_loss(z_views, n_global=V)
    slices = slice_cache.get(step)
    stats = []
    g_sig = np.zeros_like(z_views)
    for v in range(V):
        s_v, g_v = sigreg_statistic(z_views[v], sigreg_spec, slices)
        stats.append(s_v)
        g_sig[v] = g_v / V
    l_reg = float(np.mean(stats))
    total = l_pred + lambda_reg * l_reg
    breakdown = {
        "step": step,
        "L_pred": l_pred,
        "L_bi": 0.0,
        "L_budget": 0.0,
        "L_var": 0.0,
        "L_vol": 0.0,
        "L_pr": 0.0,
        "L_logdet": 0.0,
        "L_mean": 0.0,
        "sigreg": l_reg,
        "total": total,
    }

    dz = (g_pred + lambda_reg * g_sig).reshape(V * B, D)
    d_w, d_b = encoder_backward(enc, tape, dz)
    return breakdown, named_params("enc", d_w, d_b)


def _apply_update(
    breakdown: dict, grads: dict, opt: OptimizerState, params: dict, lrs: dict, grad_clip: float
) -> dict:
    """The update shared by both step types: abort on a non-finite total,
    clip the global gradient norm, record it, and take one AdamW step."""
    if not np.isfinite(breakdown["total"]):
        raise TrainingAbort(f"non-finite loss: {breakdown}")
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if grad_clip > 0 and norm > grad_clip:
        scale = grad_clip / norm
        for g in grads.values():
            g *= scale
    breakdown["grad_norm"] = norm
    adamw_step(opt, params, grads, lrs)
    return breakdown


def hamjepa_train_step(
    enc: Encoder,
    net: PotentialNet,
    view_a: np.ndarray,
    view_b: np.ndarray,
    settings: HamjepaStepSettings,
    caches: dict,
    opt: OptimizerState,
    params: dict,
    lrs: dict,
    grad_clip: float,
    step: int,
) -> dict:
    """One phase-space predictive step: loss and gradients, then the update."""
    breakdown, grads = hamjepa_loss_and_grads(enc, net, view_a, view_b, settings, caches, step)
    return _apply_update(breakdown, grads, opt, params, lrs, grad_clip)


def lejepa_train_step(
    enc: Encoder,
    views: list,
    sigreg_spec: SIGRegSpec,
    slice_cache: RefreshCache,
    lambda_reg: float,
    opt: OptimizerState,
    params: dict,
    lrs: dict,
    grad_clip: float,
    step: int,
) -> dict:
    """One baseline step: loss and gradients, then the update."""
    breakdown, grads = lejepa_loss_and_grads(enc, views, sigreg_spec, slice_cache, lambda_reg, step)
    return _apply_update(breakdown, grads, opt, params, lrs, grad_clip)


# --- checkpoints ----------------------------------------------------------------


def save_checkpoint(ckpt_dir: str, enc: Encoder, net: PotentialNet | None, opt: OptimizerState, meta: dict):
    os.makedirs(ckpt_dir, exist_ok=True)
    hamflow.write_layers(os.path.join(ckpt_dir, "encoder"), "encoder", enc.weights, enc.biases)
    if net is not None:
        hamflow.save_potential(net, os.path.join(ckpt_dir, "potential"))
    names = sorted(opt.m)
    hamflow.write_flat_params(
        os.path.join(ckpt_dir, "optimizer"),
        [opt.m[n] for n in names] + [opt.v[n] for n in names],
        {
            "format": hamflow.FLAT_FORMAT,
            "kind": "optimizer",
            "names": names,
            "shapes": [list(opt.m[n].shape) for n in names],
            "step": opt.step,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "eps": opt.eps,
            "weight_decay": opt.weight_decay,
            "base_lr": opt.base_lr,
        },
    )
    with open(os.path.join(ckpt_dir, "manifest.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_encoder(ckpt_dir: str) -> Encoder:
    weights, biases, _ = hamflow.read_layers(os.path.join(ckpt_dir, "encoder"), "encoder")
    return Encoder(weights, biases)


# --- the training loop ------------------------------------------------------------


def _build_settings(cfg: dict) -> HamjepaStepSettings:
    hj, loss, reg = cfg["hjepa"], cfg["loss"], cfg["regularizer"]
    d0 = cfg["model"]["embed_dim"] // 2
    n_views_batch = cfg["data"]["batch_size"] * cfg["data"]["num_global_views"]

    def floor_spec(half: str) -> RegularizerSpec:
        return RegularizerSpec(
            alpha_q=reg["q_per_dim_target"],
            alpha_p=reg["p_per_dim_target"],
            sigma_min=reg["q_std_floor"],
            proj_dim=min(reg[f"{half}_logdet_proj_dim"], d0, n_views_batch - 1),
            tau=reg[f"{half}_logdet_floor"],
            eps=reg[f"{half}_logdet_eps"],
            r0_norm=reg[f"{half}_pr_norm_floor"],
            eigmax_frac_ceiling=reg[f"{half}_eigmax_frac_ceiling"],
            refresh_interval=reg[f"{half}_logdet_refresh_interval"],
        )

    return HamjepaStepSettings(
        rollout=RolloutSpec(hj["method"], hj["dt"], hj["steps"], 1),
        match=MatchSpec(
            mode=loss["match"],
            p_weight=loss["p_weight"],
            detach_target=loss["detach_target"],
            energy_weight=loss["energy_weight"],
            bidirectional=loss["bidirectional"],
        ),
        reg_q=floor_spec("q"),
        reg_p=floor_spec("p"),
        var_floor_on_p=reg["var_floor_on_p"],
        lambdas={
            "budget": cfg["train"]["lambda_budget"],
            "var": cfg["train"]["lambda_var"],
            "logdet": cfg["train"]["lambda_logdet"],
            "mean": cfg["train"]["lambda_mean"],
        },
    )


def synthetic_spec_from_config(cfg: dict) -> SyntheticSpec:
    data = cfg["data"]
    return SyntheticSpec(
        n_classes=data["n_classes"],
        latent_dim=data["latent_dim"],
        h_true=default_stiffness(data["latent_dim"], data["stiffness_max"]),
        flow_time=data["flow_time"],
        noise_std=data["noise_std"],
        n_samples=data["n_samples"],
        seed=cfg["seed"],
    )


def train(cfg: dict, out_dir: str | None = None) -> dict:
    """Run the configured training job; returns a summary dict.

    Writes checkpoint_init/ (always), checkpoint_final/ (when epochs > 0),
    and metrics.jsonl with one JSON object per step plus one per-epoch
    summary line.  Bitwise deterministic for a fixed config and seed.
    """
    cfg = validate_config(cfg)
    out_dir = out_dir or cfg["train"]["ckpt_dir"]
    os.makedirs(out_dir, exist_ok=True)
    seed_seq = np.random.SeedSequence(cfg["seed"])
    (data_seed, enc_seed, pot_seed, qproj_seed, pproj_seed, slice_seed, shuffle_seed) = (
        seed_seq.spawn(7)
    )

    spec = synthetic_spec_from_config(cfg)
    views_a, views_b, labels = generate_views(spec, np.random.default_rng(data_seed))

    model = cfg["model"]
    enc = init_encoder(spec.obs_dim, model["hidden_dims"], model["embed_dim"], np.random.default_rng(enc_seed))
    d0 = model["embed_dim"] // 2

    mode = cfg["mode"]
    train_cfg = cfg["train"]
    epochs_total = max(train_cfg["epochs"], 1)
    schedule = ScheduleSpec(
        warmup_epochs=min(train_cfg["warmup_epochs"], epochs_total),
        total_epochs=epochs_total,
        min_lr_ratio=train_cfg["min_lr_ratio"],
    )
    opt = OptimizerState(base_lr=train_cfg["lr"], weight_decay=train_cfg["weight_decay"])
    params = named_params("enc", enc.weights, enc.biases)

    # The only mode branch: each mode binds its state into
    # run_step(epoch, batch indices, encoder lr, epoch fraction, step).
    net = None
    if mode == "hjepa":
        hj = cfg["hjepa"]
        schedule = replace(
            schedule,
            residual_scale_target=hj["residual_scale"],
            residual_warmup_epochs=hj["residual_scale_warmup_epochs"],
        )
        net = init_potential(
            d0,
            np.random.default_rng(pot_seed),
            hidden_dim=hj["hidden_dim"],
            depth=hj["depth"],
            alpha=hj["base_coeff"],
            scale=0.0,  # ramped by the residual schedule
        )
        params.update(named_params("pot", net.weights, net.biases))
        settings = _build_settings(cfg)
        caches = {
            "q_proj": RefreshCache(
                orthonormal_projection, d0, settings.reg_q.proj_dim,
                settings.reg_q.refresh_interval, np.random.default_rng(qproj_seed),
            ),
            "p_proj": RefreshCache(
                orthonormal_projection, d0, settings.reg_p.proj_dim,
                settings.reg_p.refresh_interval, np.random.default_rng(pproj_seed),
            ),
        }

        def run_step(epoch, idx, lr, frac, step):
            net.scale = residual_scale_at(schedule, epoch)
            h_lr = lr_at(schedule, train_cfg["h_lr"], frac)
            lrs = {name: (h_lr if name.startswith("pot.") else lr) for name in params}
            report = hamjepa_train_step(
                enc, net, views_a[idx], views_b[idx], settings, caches,
                opt, params, lrs, train_cfg["grad_clip"], step,
            )
            report["residual_scale"] = net.scale
            return report

    else:
        reg = cfg["regularizer"]
        knots, weights = default_sigreg_knots(reg["n_knots"], reg["knot_max"])
        sigreg_spec = SIGRegSpec(knots=knots, weights=weights)
        slice_cache = RefreshCache(
            unit_slices, model["embed_dim"], reg["n_slices"], reg["refresh_interval"],
            np.random.default_rng(slice_seed),
        )

        def run_step(epoch, idx, lr, frac, step):
            return lejepa_train_step(
                enc, [views_a[idx], views_b[idx]], sigreg_spec, slice_cache,
                train_cfg["lambda_reg"], opt, params, dict.fromkeys(params, lr),
                train_cfg["grad_clip"], step,
            )

    meta = {
        "mode": mode,
        "config": cfg,
        "obs_dim": spec.obs_dim,
        "embed_dim": model["embed_dim"],
    }
    save_checkpoint(os.path.join(out_dir, "checkpoint_init"), enc, net, opt, meta)

    n = spec.n_samples
    batch = cfg["data"]["batch_size"]
    steps_per_epoch = n // batch if cfg["data"]["drop_last"] else math.ceil(n / batch)
    if steps_per_epoch < 1:
        raise ConfigError("data.batch_size exceeds the dataset size")
    shuffle_rng = np.random.default_rng(shuffle_seed)
    epochs = train_cfg["epochs"]
    global_step = 0
    last_report = None

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    with open(metrics_path, "w") as metrics:
        for epoch in range(epochs):
            order = shuffle_rng.permutation(n)
            epoch_totals = []
            for b in range(steps_per_epoch):
                idx = order[b * batch : (b + 1) * batch]
                if len(idx) == 0:
                    continue
                frac = min(epoch + (b + 1) / steps_per_epoch, schedule.total_epochs)
                lr = lr_at(schedule, train_cfg["lr"], frac)
                try:
                    report = run_step(epoch, idx, lr, frac, global_step)
                except OverflowError as exc:
                    raise TrainingAbort(f"overflow at step {global_step}: {exc}") from exc
                report["lr"] = lr
                report["epoch"] = epoch
                epoch_totals.append(report["total"])
                if global_step % train_cfg["log_every"] == 0:
                    metrics.write(json.dumps(report, sort_keys=True) + "\n")
                last_report = report
                global_step += 1
            metrics.write(
                json.dumps(
                    {
                        "epoch_summary": epoch,
                        "mean_total": float(np.mean(epoch_totals)),
                        "last_total": epoch_totals[-1],
                    },
                    sort_keys=True,
                )
                + "\n"
            )

    if epochs > 0:
        save_checkpoint(os.path.join(out_dir, "checkpoint_final"), enc, net, opt, meta)

    return {
        "mode": mode,
        "out_dir": out_dir,
        "steps": global_step,
        "final": last_report,
        "metrics_path": metrics_path,
        "encoder": enc,
        "potential": net,
        "labels": labels,
    }
