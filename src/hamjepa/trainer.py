"""Desk-scale training harness.

Synthetic two-view data whose ground-truth view coupling is the exact flow
of a known quadratic stiffness, a small tanh encoder emitting phase-space
states, AdamW with decoupled weight decay, warmup + cosine learning-rate
and residual-scale schedules, and the two step types: the phase-space
predictive step (rollout prediction plus anti-collapse regularizers) and
the mean-of-views baseline step with the sliced-CF regularizer.  Each is a
pure loss-and-gradients function followed by one shared update.
``build_run`` makes a run's whole state, a ``Run``; ``run_epochs`` steps it
and yields each line of ``metrics.jsonl``; ``train`` writes those lines and
the checkpoints.  The process set-up that every command runs first lives
here too.

Everything is driven by a JSON config validated against one schema table,
which gives every key its default, its kind and its range; an unknown key or
a bad value is rejected with its path.  Identical config and seed give
bitwise-identical parameter trajectories, metrics, and checkpoints.
"""

import ctypes
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


# --- process set-up ----------------------------------------------------------


def setup_process():
    """Set up this process for speed; results never depend on it.

    Fixes glibc's malloc thresholds and caps a loaded OpenBLAS at one
    thread.  ``cli.main`` calls it before every command, and
    ``certify.run_checks`` calls it before it forks its workers, which
    inherit both settings.  A library caller that runs a check or a
    training job directly calls it once beforehand; a second call changes
    nothing.
    """
    _fix_malloc_thresholds()
    _one_blas_thread()


# glibc's mallopt(3) parameters and the values every process runs with
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 2**20  # glibc's ceiling for its dynamic threshold on 64-bit
TRIM_THRESHOLD_BYTES = 64 * 2**20


def _fix_malloc_thresholds():
    """Give glibc's allocator fixed mmap and trim thresholds.

    glibc starts with a 128 KiB mmap threshold and raises it whenever a
    larger mmapped block is freed, lowering the trim threshold with it.  A
    training step's 256 x 64 float64 temporaries are exactly 128 KiB, so
    whether they come from the heap or from a fresh, page-faulted mmap on
    every call depends on the process's allocation history, and an
    unrelated change can flip a whole run between a low-fault and a
    high-fault mode.  Setting either value turns the dynamic rule off, so
    both are set: with only the trim threshold fixed, every block of
    128 KiB is still mmapped, and with only the mmap threshold fixed, the
    heap is trimmed after the step's frees and faulted in again.  The mmap
    threshold is glibc's own ceiling, and the trim threshold is twice it.
    Where the C library has no ``mallopt``, nothing changes.
    """
    try:
        libc = ctypes.CDLL(None)  # the symbols already loaded, libc's among them
    except (OSError, TypeError):  # TypeError: Windows has no such handle
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


# system OpenBLAS, its 64-bit-integer build, and numpy wheels' scipy-openblas
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _one_blas_thread():
    """Cap a loaded OpenBLAS at one thread in this process.

    The matrices here are too small to gain from a split: with one thread
    per CPU, OpenBLAS's spin-waiting helpers only burn CPU (an 8-epoch
    hjepa ``train`` used twice the CPU time for the same result), and a
    forked worker keeps the parent's thread count, so N workers on N CPUs
    would run N times as many BLAS threads as there are CPUs.  The library
    is found in the process's memory map (Linux); elsewhere, or under
    another BLAS, nothing changes.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)



# --- synthetic two-view data ---------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int
    latent_dim: int
    h_true: SPDOperator
    flow_time: float
    noise_std: float
    n_samples: int

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

    Returns (views_a, views_b, labels).  Draw order is fixed: the draws of
    ``_draw_first_view`` (class centers, lift, labels, position jitter,
    momenta, the first observation noise), then the second view's noise.
    """
    views_a, labels, s0, lift = _draw_first_view(spec, rng)
    d0 = spec.latent_dim
    qt, pt = exact_quadratic_flow(spec.h_true, spec.flow_time, s0[:, :d0], s0[:, d0:])
    del s0
    st = np.concatenate([qt, pt], axis=1)
    del qt, pt  # the view needs only the stacked states
    views_b = _observe(st, lift, spec.noise_std, rng)
    return views_a, views_b, labels


def _draw_first_view(spec: SyntheticSpec, rng: np.random.Generator):
    """The draws of ``generate_views`` up to and including the first view's
    noise, with no flow: (views_a, labels, the stacked source states s0,
    the lift), the last two for the second view."""
    d0, n = spec.latent_dim, spec.n_samples
    centers = rng.standard_normal((spec.n_classes, d0))
    lift = orthonormalize_columns(rng.standard_normal((spec.obs_dim, 2 * d0)), rng)
    labels = rng.integers(0, spec.n_classes, size=n)
    q0 = centers[labels] + spec.noise_std * rng.standard_normal((n, d0))
    p0 = rng.standard_normal((n, d0))
    s0 = np.concatenate([q0, p0], axis=1)
    del q0, p0  # the views need only the stacked states
    return _observe(s0, lift, spec.noise_std, rng), labels, s0, lift


def _observe(states: np.ndarray, lift: np.ndarray, noise_std: float, rng: np.random.Generator):
    """states @ lift.T plus noise_std times a standard normal draw, the draw
    scaled and added in place."""
    view = states @ lift.T
    noise = rng.standard_normal(view.shape)
    noise *= noise_std
    view += noise
    return view


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
        x = x @ enc.weights[i].T  # bias and tanh in place: one (rows, width) array per layer
        x += enc.biases[i]
        np.tanh(x, out=x)
        acts.append(x)
    z = x @ enc.weights[-1].T
    z += enc.biases[-1]
    d0 = enc.out_dim // 2
    return PhaseState(z[:, :d0], z[:, d0:]), acts


# Rows per block of encode_readouts.  A block's activations are freed before
# the next block starts, so a readout of 4096 rows holds (512, width) layers,
# not the whole tape.
ENCODE_ROW_BLOCK = 512


def encode_readouts(enc: Encoder, batch: np.ndarray) -> dict:
    """The encoder output of ``encoder_forward`` as the readouts ``q``,
    ``p`` and ``qp`` (both, q first), for a readout that needs no
    gradient.  The rows go through in blocks of ``ENCODE_ROW_BLOCK``, no
    tape is kept, and each block is written into one (rows, out_dim) array
    allocated once: ``qp`` is that array, ``q`` and ``p`` views of its
    column halves.

    The last block also takes the rows left over, so no block is shorter
    than ``ENCODE_ROW_BLOCK`` unless it is the only one.  BLAS may compute a
    short product with another kernel (OpenBLAS rounds a (75, 32) × (32, 16)
    product differently from the same rows of a longer one), and a
    full-size block rounds as one pass over all rows does."""
    x = np.asarray(batch, dtype=np.float64)
    n = x.shape[0]
    z = np.empty((n, enc.out_dim))
    starts = list(range(0, max(n - ENCODE_ROW_BLOCK, 0) + 1, ENCODE_ROW_BLOCK))
    for start, stop in zip(starts, starts[1:] + [n]):
        state = encoder_forward(enc, x[start:stop])[0]
        np.concatenate([state.q, state.p], axis=1, out=z[start:stop])
    d0 = enc.out_dim // 2
    return {"q": z[:, :d0], "p": z[:, d0:], "qp": z}


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


@dataclass(frozen=True)
class _Key:
    """One settable key: its default, its kind and its range.

    Kinds: "int", "number" (finite, int or float), "optional" (a number or
    null), "bool", "str", "choice" (one of ``choices``) and "ints" (a list of
    integers).  ``low`` and ``high`` bound the numbers and the list entries;
    ``open_low`` excludes ``low`` itself.
    """

    default: object
    kind: str
    low: float = -math.inf
    high: float = math.inf
    open_low: bool = False
    choices: tuple = ()

    def check(self, path: str, value) -> None:
        if self.kind == "bool":
            ok, want = isinstance(value, bool), "true or false"
        elif self.kind == "str":
            ok, want = isinstance(value, str), "a string"
        elif self.kind == "choice":
            ok, want = value in self.choices, "one of " + ", ".join(map(repr, self.choices))
        elif self.kind == "ints":
            ok = isinstance(value, (list, tuple)) and all(self._in_range(v, int) for v in value)
            want = "a list of integers" + self._bounds()
        elif self.kind == "int":
            ok, want = self._in_range(value, int), "an integer" + self._bounds()
        else:
            optional = self.kind == "optional"
            ok = self._in_range(value, (int, float)) or (optional and value is None)
            want = "a finite number" + self._bounds() + (" or null" if optional else "")
        if not ok:
            raise ConfigError(f"{path} must be {want}, got {value!r}")

    def _in_range(self, value, kind) -> bool:
        if isinstance(value, bool) or not isinstance(value, kind):
            return False
        if not -math.inf < value < math.inf:  # also false for nan
            return False
        return (self.low < value if self.open_low else self.low <= value) and value <= self.high

    def _bounds(self) -> str:
        low = f" {'>' if self.open_low else '>='} {self.low}" if self.low > -math.inf else ""
        high = f" <= {self.high}" if self.high < math.inf else ""
        return low + (" and" if low and high else "") + high


def _floor_keys(half: str) -> dict:
    """The projected log-det floor on the q or the p half of the state."""
    return {
        f"{half}_logdet_proj_dim": _Key(8, "int", 1),
        f"{half}_logdet_floor": _Key(-1.0, "number"),
        f"{half}_logdet_eps": _Key(1e-4, "number", 0, open_low=True),
        f"{half}_logdet_refresh_interval": _Key(16, "int", 1),
        f"{half}_pr_norm_floor": _Key(None, "optional", 0, 1, open_low=True),
        f"{half}_eigmax_frac_ceiling": _Key(None, "optional", 0, 1, open_low=True),
    }


_SEED = _Key(42, "int", 0)
_COMMON_BLOCKS = {
    "data": {
        "n_samples": _Key(4096, "int", 1),
        "n_classes": _Key(10, "int", 1),
        "latent_dim": _Key(8, "int", 1),
        "noise_std": _Key(0.05, "number", 0),
        "flow_time": _Key(0.2, "number", 0),
        "stiffness_max": _Key(16.0, "number", 0, open_low=True),
        "batch_size": _Key(256, "int", 1),
    },
    "model": {
        "hidden_dims": _Key((64, 64), "ints", 1),
        "embed_dim": _Key(16, "int", 2),  # even, for the q/p split
    },
    "train": {
        "epochs": _Key(30, "int", 0),
        "lr": _Key(1e-3, "number", 0),
        "h_lr": _Key(1e-3, "number", 0),
        "weight_decay": _Key(0.01, "number", 0),
        "warmup_epochs": _Key(3, "number", 0),
        "min_lr_ratio": _Key(0.05, "number", 0, 1, open_low=True),
        "grad_clip": _Key(1.0, "number", 0, open_low=True),
        "lambda_budget": _Key(1.0, "number", 0),
        "lambda_var": _Key(1.0, "number", 0),
        "lambda_logdet": _Key(1.0, "number", 0),
        "lambda_mean": _Key(0.1, "number", 0),
        "lambda_reg": _Key(1.0, "number", 0),
        "ckpt_dir": _Key("runs/default", "str"),
    },
}
# The keys of each mode, block by block: the schema validate_config walks.
_SCHEMA = {
    "baseline": {
        **_COMMON_BLOCKS,
        "regularizer": {
            "n_slices": _Key(64, "int", 1),
            "n_knots": _Key(17, "int", 1),
            # the knot weights exp(-t^2 / 2) underflow to 0 beyond t = 38.6
            "knot_max": _Key(4.0, "number", 0, 38.0, open_low=True),
            "refresh_interval": _Key(16, "int", 1),
        },
    },
    "hjepa": {
        **_COMMON_BLOCKS,
        "hjepa": {
            "steps": _Key(2, "int", 1),
            # at init V = |q|^2 / 2, where leapfrog is stable only for dt < 2
            "dt": _Key(0.1, "number", 0, 2.0, open_low=True),
            "hidden_dim": _Key(64, "int", 1),
            "depth": _Key(2, "int", 1),
            "residual_scale": _Key(0.5, "number", 0),
            "residual_scale_warmup_epochs": _Key(5, "number", 0),
        },
        "loss": {
            "match": _Key("q", "choice", choices=("q", "qp")),
            "p_weight": _Key(0.0, "number", 0),
            "detach_target": _Key(True, "bool"),
            "bidirectional": _Key(False, "bool"),
        },
        "regularizer": {
            "q_per_dim_target": _Key(1.0, "number", 0, open_low=True),
            "p_per_dim_target": _Key(1.0, "number", 0, open_low=True),
            "q_std_floor": _Key(0.1, "number", 0),
            **_floor_keys("q"),
            **_floor_keys("p"),
        },
    },
}


def validate_config(raw: dict) -> dict:
    """Schema-validate a run config, filling defaults.

    The run is in phase-space predictive mode exactly when the ``hjepa``
    block is present; otherwise it is the mean-of-views baseline with the
    sliced-CF regularizer.  Every key of ``_SCHEMA`` is checked against its
    kind and range; an unknown key or a bad value fails with its path.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    mode = "hjepa" if "hjepa" in raw else "baseline"
    schema = _SCHEMA[mode]
    for name in raw:
        if name != "seed" and name not in schema:
            raise ConfigError(f"unknown key {name}")
    cfg = {"seed": raw.get("seed", _SEED.default), "mode": mode}
    _SEED.check("seed", cfg["seed"])
    for name, keys in schema.items():
        user = raw.get(name, {})
        if not isinstance(user, dict):
            raise ConfigError(f"{name} must be an object")
        for key in user:
            if key not in keys:
                raise ConfigError(f"unknown key {name}.{key}")
        cfg[name] = {key: user.get(key, spec.default) for key, spec in keys.items()}
        for key, spec in keys.items():
            spec.check(f"{name}.{key}", cfg[name][key])

    # the rules that span several keys
    if cfg["model"]["embed_dim"] % 2 != 0:
        raise ConfigError("model.embed_dim must be even for the q/p split")
    data = cfg["data"]
    if data["batch_size"] > data["n_samples"]:
        raise ConfigError("data.batch_size exceeds data.n_samples, so no batch is left")
    if mode == "baseline" and data["batch_size"] < 2:
        raise ConfigError(
            "data.batch_size: a baseline batch needs at least 2 samples for the sliced-CF statistic"
        )
    return cfg


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
    the variance floor on the q half and the volume floor applied to the q
    and p halves separately.
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
    l_var, g_var = variance_floor(q_all, settings.reg_q.sigma_min)
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
    dz[:, :d0] += lam["var"] * g_var
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
    predicts the mean of all views, and the sliced-CF statistic
    regularizes each view's batch."""
    V = len(views)
    B = views[0].shape[0]
    x_cat = np.concatenate(views, axis=0)
    state, tape = encoder_forward(enc, x_cat)
    z = np.concatenate([state.q, state.p], axis=1)
    D = z.shape[1]
    z_views = z.reshape(V, B, D)

    l_pred, g_pred = lejepa_prediction_loss(z_views)
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
    breakdown: dict,
    grads: dict,
    opt: OptimizerState,
    params: dict,
    lrs: dict,
    grad_clip: float,
    step: int,
) -> dict:
    """The update shared by both step types: abort on a non-finite total or
    gradient norm, clip the global gradient norm, record it, and take one
    AdamW step."""
    if not np.isfinite(breakdown["total"]):
        raise TrainingAbort(f"non-finite loss: {breakdown}")
    with np.errstate(over="ignore"):  # an overflow is caught below
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if not math.isfinite(norm):
        what = "overflows" if norm == math.inf else "is NaN"
        raise TrainingAbort(f"gradient norm {what} at step {step}")
    if grad_clip > 0 and norm > grad_clip:
        scale = grad_clip / norm
        for g in grads.values():
            g *= scale
    breakdown["grad_norm"] = norm
    adamw_step(opt, params, grads, lrs)
    return breakdown


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
    n_views_batch = 2 * cfg["data"]["batch_size"]  # both views of a batch

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
        rollout=RolloutSpec(hj["dt"], hj["steps"]),
        match=MatchSpec(
            mode=loss["match"],
            p_weight=loss["p_weight"],
            detach_target=loss["detach_target"],
            bidirectional=loss["bidirectional"],
        ),
        reg_q=floor_spec("q"),
        reg_p=floor_spec("p"),
        lambdas={
            "budget": cfg["train"]["lambda_budget"],
            "var": cfg["train"]["lambda_var"],
            "logdet": cfg["train"]["lambda_logdet"],
            "mean": cfg["train"]["lambda_mean"],
        },
    )


def projection_caches(d0: int, settings: HamjepaStepSettings, q_rng, p_rng) -> dict:
    """The projection caches of the q and p log-det floors, keyed as
    ``hamjepa_loss_and_grads`` reads them."""
    return {
        name: RefreshCache(orthonormal_projection, d0, reg.proj_dim, reg.refresh_interval, rng)
        for name, reg, rng in (("q_proj", settings.reg_q, q_rng), ("p_proj", settings.reg_p, p_rng))
    }


# A run's random streams: SeedSequence(seed) spawns one child per name, in this order.
SEED_STREAMS = ("data", "encoder", "potential", "q_proj", "p_proj", "slices", "shuffle")


def seed_streams(seed: int) -> dict:
    """One generator per name of SEED_STREAMS."""
    children = np.random.SeedSequence(seed).spawn(len(SEED_STREAMS))
    return {name: np.random.default_rng(child) for name, child in zip(SEED_STREAMS, children)}


def run_views(cfg: dict) -> tuple:
    """(views_a, views_b, labels, cut) of a validated config's run: the data
    as ``train`` draws it, and the cut that frozen-feature evaluation uses,
    fitting on the first ``cut`` samples and testing on the rest."""
    rng = seed_streams(cfg["seed"])["data"]
    views_a, views_b, labels = generate_views(synthetic_spec_from_config(cfg), rng)
    return views_a, views_b, labels, _eval_cut(labels)


def run_first_view(cfg: dict) -> tuple:
    """(views_a, labels, cut) of ``run_views``, without the second view:
    what a frozen-feature readout reads."""
    rng = seed_streams(cfg["seed"])["data"]
    views_a, labels = _draw_first_view(synthetic_spec_from_config(cfg), rng)[:2]
    return views_a, labels, _eval_cut(labels)


def _eval_cut(labels: np.ndarray) -> int:
    return (3 * len(labels)) // 4


def synthetic_spec_from_config(cfg: dict) -> SyntheticSpec:
    data = cfg["data"]
    return SyntheticSpec(
        n_classes=data["n_classes"],
        latent_dim=data["latent_dim"],
        h_true=default_stiffness(data["latent_dim"], data["stiffness_max"]),
        flow_time=data["flow_time"],
        noise_std=data["noise_std"],
        n_samples=data["n_samples"],
    )


@dataclass
class Run:
    """Everything a training step reads or updates.  ``settings`` and
    ``caches`` are the mode's, keyed as its loss reads them: the step
    settings and the q and p projection caches (hjepa), or the sliced-CF
    spec and the slice cache (baseline, whose ``potential`` is None)."""

    cfg: dict
    encoder: Encoder
    potential: PotentialNet | None
    opt: OptimizerState
    params: dict
    schedule: ScheduleSpec
    settings: HamjepaStepSettings | SIGRegSpec
    caches: dict
    views_a: np.ndarray
    views_b: np.ndarray
    labels: np.ndarray
    shuffle: np.random.Generator


def build_run(cfg: dict) -> Run:
    """The state of a validated config's run before its first step.  Each
    part draws from its own stream of ``seed_streams``: the data, the
    encoder, then the potential and the projection caches (hjepa) or the
    slice cache (baseline)."""
    rngs = seed_streams(cfg["seed"])
    views_a, views_b, labels, _ = run_views(cfg)
    model = cfg["model"]
    train_cfg = cfg["train"]
    enc = init_encoder(views_a.shape[1], model["hidden_dims"], model["embed_dim"], rngs["encoder"])
    epochs_total = max(train_cfg["epochs"], 1)
    schedule = ScheduleSpec(
        warmup_epochs=min(train_cfg["warmup_epochs"], epochs_total),
        total_epochs=epochs_total,
        min_lr_ratio=train_cfg["min_lr_ratio"],
    )
    opt = OptimizerState(base_lr=train_cfg["lr"], weight_decay=train_cfg["weight_decay"])
    params = named_params("enc", enc.weights, enc.biases)

    net = None  # the baseline has no potential
    if cfg["mode"] == "hjepa":
        hj = cfg["hjepa"]
        schedule = replace(
            schedule,
            residual_scale_target=hj["residual_scale"],
            residual_warmup_epochs=hj["residual_scale_warmup_epochs"],
        )
        d0 = model["embed_dim"] // 2
        net = init_potential(
            d0,
            rngs["potential"],
            hidden_dim=hj["hidden_dim"],
            depth=hj["depth"],
            scale=0.0,  # ramped by the residual schedule
        )
        params.update(named_params("pot", net.weights, net.biases))
        settings = _build_settings(cfg)
        caches = projection_caches(d0, settings, rngs["q_proj"], rngs["p_proj"])
    else:
        reg = cfg["regularizer"]
        knots, weights = default_sigreg_knots(reg["n_knots"], reg["knot_max"])
        settings = SIGRegSpec(knots=knots, weights=weights)
        slices = RefreshCache(
            unit_slices, model["embed_dim"], reg["n_slices"], reg["refresh_interval"], rngs["slices"]
        )
        caches = {"slices": slices}
    return Run(
        cfg, enc, net, opt, params, schedule, settings, caches, views_a, views_b, labels, rngs["shuffle"]
    )


def hamjepa_train_step(run: Run, idx: np.ndarray, epoch: int, frac: float, lr: float) -> dict:
    """One phase-space predictive step on the rows ``idx``: set the residual
    scale of ``epoch``, take loss and gradients, and update the encoder at
    ``lr`` and the potential at the schedule's ``h_lr`` at ``frac``."""
    net, train_cfg, step = run.potential, run.cfg["train"], run.opt.step
    net.scale = residual_scale_at(run.schedule, epoch)
    h_lr = lr_at(run.schedule, train_cfg["h_lr"], frac)
    lrs = {name: (h_lr if name.startswith("pot.") else lr) for name in run.params}
    breakdown, grads = hamjepa_loss_and_grads(
        run.encoder, net, run.views_a[idx], run.views_b[idx], run.settings, run.caches, step
    )
    report = _apply_update(breakdown, grads, run.opt, run.params, lrs, train_cfg["grad_clip"], step)
    report["residual_scale"] = net.scale
    return report


def lejepa_train_step(run: Run, idx: np.ndarray, epoch: int, frac: float, lr: float) -> dict:
    """One baseline step on the rows ``idx``, every parameter at ``lr``:
    loss and gradients, then the update.  ``epoch`` and ``frac`` are
    unused; both step types take the same arguments."""
    train_cfg, step = run.cfg["train"], run.opt.step
    views = [run.views_a[idx], run.views_b[idx]]
    breakdown, grads = lejepa_loss_and_grads(
        run.encoder, views, run.settings, run.caches["slices"], train_cfg["lambda_reg"], step
    )
    lrs = dict.fromkeys(run.params, lr)
    return _apply_update(breakdown, grads, run.opt, run.params, lrs, train_cfg["grad_clip"], step)


def run_epochs(run: Run):
    """Train ``run`` for its configured epochs, yielding each line of its
    ``metrics.jsonl`` as a dict: every step's report, then the epoch's
    summary.  The step function is looked up by its module name when the
    loop starts, so a wrapper rebound over that name (a tracer's span) is
    the one that runs.  A step's index is the optimizer's step count."""
    take_step = hamjepa_train_step if run.potential is not None else lejepa_train_step
    n = len(run.labels)
    batch = run.cfg["data"]["batch_size"]
    steps_per_epoch = n // batch  # the last, partial batch is dropped
    for epoch in range(run.cfg["train"]["epochs"]):
        order = run.shuffle.permutation(n)
        totals = []
        for b in range(steps_per_epoch):
            idx = order[b * batch : (b + 1) * batch]
            frac = min(epoch + (b + 1) / steps_per_epoch, run.schedule.total_epochs)
            lr = lr_at(run.schedule, run.cfg["train"]["lr"], frac)
            step = run.opt.step
            try:
                # a blow-up raises TrainingAbort in the step's finite checks
                with np.errstate(over="ignore", invalid="ignore"):
                    report = take_step(run, idx, epoch, frac, lr)
            except OverflowError as exc:
                raise TrainingAbort(f"overflow at step {step}: {exc}") from exc
            report.update(lr=lr, epoch=epoch)
            totals.append(report["total"])
            yield report
        yield {"epoch_summary": epoch, "mean_total": float(np.mean(totals)), "last_total": totals[-1]}


def train(cfg: dict, out_dir: str | None = None) -> dict:
    """Run the configured training job; returns a summary dict.

    Writes checkpoint_init/ (always), checkpoint_final/ (when epochs > 0),
    and metrics.jsonl, one JSON line per step report and epoch summary that
    ``run_epochs`` yields.  Bitwise deterministic for a fixed config and seed.
    """
    cfg = validate_config(cfg)
    out_dir = out_dir or cfg["train"]["ckpt_dir"]
    run = build_run(cfg)
    os.makedirs(out_dir, exist_ok=True)  # after the data, so a failed draw leaves no directory
    meta = {
        "mode": cfg["mode"],
        "config": cfg,
        "obs_dim": run.views_a.shape[1],
        "embed_dim": cfg["model"]["embed_dim"],
    }
    save_checkpoint(os.path.join(out_dir, "checkpoint_init"), run.encoder, run.potential, run.opt, meta)

    last_report = None
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    with open(metrics_path, "w") as metrics:
        for line in run_epochs(run):
            metrics.write(json.dumps(line, sort_keys=True) + "\n")
            if "epoch_summary" not in line:
                last_report = line

    if cfg["train"]["epochs"] > 0:
        save_checkpoint(os.path.join(out_dir, "checkpoint_final"), run.encoder, run.potential, run.opt, meta)

    return {
        "mode": cfg["mode"],
        "out_dir": out_dir,
        "steps": run.opt.step,
        "final": last_report,
        "metrics_path": metrics_path,
        "encoder": run.encoder,
        "potential": run.potential,
        "labels": run.labels,
    }
