"""Separable Hamiltonian energy with a learnable potential, the leapfrog
integrator, and reverse-mode gradients through the rollout.

The energy is H(q, p) = 0.5 |p|^2 + V(q) with
V(q) = 0.5 * alpha * |q|^2 + scale * f(q), f a small tanh MLP.  The kick
updates need grad V, so backpropagating a loss through the integrator needs
second derivatives of V: each force evaluation keeps a record of its
forward and gradient intermediates, from which the reverse pass forms the
Hessian-vector product and the parameter derivatives of grad V.

One leapfrog loop, ``_leapfrog``, steps a potential.  ``rollout`` returns
its final state (and, recorded, the tape of its force records);
``energy_path`` returns H along it, with V read from the record each step
has already evaluated.  ``RolloutSpec.dt`` carries the step's sign.  A
rollout asked for no final kick stops after its last drift and returns
(q_K, p_{K-1/2}) from K force evaluations instead of K + 1; training's
prediction loss takes that map when it reads q_K alone, and the reverse
pass then skips the Hessian-vector product the missing record would need.

All arrays are float64.  Batched states are rows; single states work too.
The unrolled depth is small (K <= ~8), so a recorded rollout stores every
step's record and the backward pass recomputes nothing; a rollout that is
not recorded keeps only the force record its next kick reads.
"""

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhaseState:
    """Position/momentum pair; rows are batch entries when 2-d."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        p = np.asarray(self.p, dtype=np.float64)
        if q.shape != p.shape:
            raise ValueError(f"q/p shape mismatch: {q.shape} vs {p.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("phase state contains non-finite entries")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.q.shape[-1]


@dataclass
class PotentialNet:
    """V(q) = 0.5 * alpha |q|^2 + scale * f(q), f a tanh MLP to a scalar."""

    alpha: float
    scale: float
    weights: list  # W_i with shape (out, in); last layer has out = 1
    biases: list

    def __post_init__(self):
        if self.alpha < 0 or self.scale < 0:
            raise ValueError("alpha and scale must be nonnegative")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be nonempty and aligned")
        for i in range(1, len(self.weights)):
            if self.weights[i].shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i} input does not chain from layer {i - 1}")
        if self.weights[-1].shape[0] != 1:
            raise ValueError("final layer must map to a scalar")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]


@dataclass(frozen=True)
class RolloutSpec:
    """``steps`` leapfrog steps of size ``dt``; a negative dt steps backward."""

    dt: float = 0.1
    steps: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt != 0):
            raise ValueError("dt must be finite and nonzero")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class PotentialGrads:
    """Derivatives of the MLP's weights and biases, the trained parameters;
    alpha is fixed and the residual scale follows its schedule."""

    d_weights: list
    d_biases: list

    @classmethod
    def zeros_like(cls, net: PotentialNet) -> "PotentialGrads":
        return cls(
            [np.zeros_like(w) for w in net.weights],
            [np.zeros_like(b) for b in net.biases],
        )

    def add_(self, other: "PotentialGrads"):
        for a, b in zip(self.d_weights, other.d_weights):
            a += b
        for a, b in zip(self.d_biases, other.d_biases):
            a += b


def init_potential(
    d0: int,
    rng: np.random.Generator,
    hidden_dim: int = 64,
    depth: int = 2,
    alpha: float = 1.0,
    scale: float = 0.0,
) -> PotentialNet:
    """Fresh potential with ``depth`` tanh hidden layers of ``hidden_dim``."""
    dims = [d0] + [hidden_dim] * depth + [1]
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        weights.append(rng.standard_normal((dims[i + 1], fan_in)) / np.sqrt(fan_in))
        biases.append(np.zeros(dims[i + 1]))
    return PotentialNet(alpha=alpha, scale=scale, weights=weights, biases=biases)


class ForceRecord:
    """Intermediates of one evaluation of (V, grad V) on a batch of q."""

    __slots__ = ("q", "acts", "slopes", "vs", "us", "value", "grad")

    def __init__(self, q, acts, slopes, vs, us, value, grad):
        self.q = q
        self.acts = acts  # a_1 .. a_{L-1}, post-tanh
        self.slopes = slopes  # 1 - a_i^2, the tanh derivative of each hidden layer
        self.vs = vs  # v_0 .. v_{L-1}, gradient backsweep intermediates
        self.us = us  # slot i holds u_i = v_i * (1 - a_i^2); slot 0 is unused
        self.value = value
        self.grad = grad


def _eval_force(net: PotentialNet, q2d: np.ndarray) -> ForceRecord:
    L = len(net.weights)
    a = q2d
    acts, slopes = [], []
    for i in range(L - 1):
        a = a @ net.weights[i].T
        a += net.biases[i]
        np.tanh(a, out=a)
        slope = a * a
        np.subtract(1.0, slope, out=slope)
        acts.append(a)
        slopes.append(slope)
    f = (acts[-1] if acts else q2d) @ net.weights[-1].T + net.biases[-1]
    f = f[:, 0]

    # gradient backsweep, kept because the Hessian pass re-differentiates it
    B = q2d.shape[0]
    vs = [None] * L
    us = [None] * L
    vs[L - 1] = np.broadcast_to(net.weights[-1][0], (B, net.weights[-1].shape[1])).copy()
    for i in range(L - 1, 0, -1):
        us[i] = vs[i] * slopes[i - 1]
        vs[i - 1] = us[i] @ net.weights[i - 1]
    grad = net.alpha * q2d + net.scale * vs[0]
    value = 0.5 * net.alpha * np.sum(q2d * q2d, axis=1) + net.scale * f
    # A NaN anywhere upstream reaches both; an infinite pre-activation
    # saturates tanh and is harmless unless it reaches them too.
    if not (np.isfinite(value).all() and np.isfinite(grad).all()):
        raise FloatingPointError("non-finite potential value or gradient")
    return ForceRecord(q2d, acts, slopes, vs, us, value, grad)


def _force_backward(
    net: PotentialNet, rec: ForceRecord, g_bar: np.ndarray, grads: PotentialGrads
) -> np.ndarray:
    """Backward through g = grad V(q): returns the Hessian-vector product
    contribution to q_bar and accumulates parameter derivatives of g' g_bar."""
    L = len(net.weights)
    q_bar = net.alpha * g_bar
    v_bar = net.scale * g_bar

    a_bars = [None] * L  # slot i holds the adjoint of acts[i-1]
    for i in range(1, L):
        u_bar = v_bar @ net.weights[i - 1].T
        grads.d_weights[i - 1] += rec.us[i].T @ v_bar
        v_bar = u_bar * rec.slopes[i - 1]
        u_bar *= rec.vs[i]
        u_bar *= -2.0 * rec.acts[i - 1]
        a_bars[i] = u_bar
    grads.d_weights[-1][0] += v_bar.sum(axis=0)

    a_bar = None
    for i in range(L - 1, 0, -1):
        z_bar = a_bars[i]
        if a_bar is not None:
            z_bar += a_bar
        z_bar *= rec.slopes[i - 1]
        prev = rec.acts[i - 2] if i >= 2 else rec.q
        grads.d_weights[i - 1] += z_bar.T @ prev
        grads.d_biases[i - 1] += z_bar.sum(axis=0)
        if i >= 2:
            a_bar = z_bar @ net.weights[i - 1]
        else:
            q_bar += z_bar @ net.weights[i - 1]
    return q_bar


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def potential_eval(net: PotentialNet, q) -> tuple[np.ndarray, np.ndarray, ForceRecord]:
    """Potential value and its q-gradient, with the record retained for
    parameter gradients."""
    q2d, squeeze = _as_batch(q)
    if q2d.shape[1] != net.in_dim:
        raise ValueError(f"q has dim {q2d.shape[1]}, net expects {net.in_dim}")
    rec = _eval_force(net, q2d)
    if squeeze:
        return rec.value[0], rec.grad[0], rec
    return rec.value, rec.grad, rec


class RolloutTape:
    """Stored force records of a recorded rollout, for the reverse pass:
    K + 1 of them, or K when the rollout stopped after its last drift."""

    def __init__(self, net: PotentialNet, dt_eff: float, steps: int, records: list):
        self.net = net
        self.dt_eff = dt_eff
        self.steps = steps
        self.records = records

    def backward(self, dq_final, dp_final) -> tuple[np.ndarray, np.ndarray, PotentialGrads]:
        """Gradients of a scalar loss w.r.t. the initial state and the
        potential parameters, given the loss gradients at the final state.

        On a stopped rollout's tape this is the exact adjoint of
        (q_0, p_0) -> (q_K, p_{K-1/2}) for any ``dp_final``: the final kick
        and its record are missing, so their Hessian-vector product is
        skipped.  With ``dp_final`` zero that product only adds zeros, so
        the result equals the full tape's bit for bit.
        """
        dq, _ = _as_batch(dq_final)
        dp, _ = _as_batch(dp_final)
        grads = PotentialGrads.zeros_like(self.net)
        h = self.dt_eff
        g_bars = [np.zeros_like(r.grad) for r in self.records]
        q_bar, p_bar = dq.copy(), dp.copy()
        for k in range(self.steps - 1, -1, -1):
            if k + 1 < len(self.records):  # a stopped rollout took no kick at q_K
                g_bars[k + 1] += -0.5 * h * p_bar
                q_bar = q_bar + _force_backward(self.net, self.records[k + 1], g_bars[k + 1], grads)
            p_bar = p_bar + h * q_bar
            g_bars[k] += -0.5 * h * p_bar
        q_bar = q_bar + _force_backward(self.net, self.records[0], g_bars[0], grads)
        return q_bar, p_bar, grads


def _leapfrog(net: PotentialNet, q, p, h: float, steps: int, final_kick: bool = True):
    """Yields (q, p, force record at q) for the start state and after each
    of ``steps`` half-kick / drift / half-kick updates of size h.

    Each record serves both kicks around its q, so a step evaluates the
    force once.  Without ``final_kick`` the last step stops after its
    drift: the last item is (q_K, p_{K-1/2}, None), and no force is
    evaluated at q_K.  A consumer that keeps no records must drop the one
    it was given before asking for the next, or two are live during an
    evaluation.
    """
    rec = _eval_force(net, q)
    for k in range(steps):
        yield q, p, rec
        p = p - 0.5 * h * rec.grad
        q = q + h * p
        del rec  # only the tape reads a record after its kick
        if final_kick or k < steps - 1:
            try:
                rec = _eval_force(net, q)
            except FloatingPointError as exc:
                raise FloatingPointError(f"rollout step {k}: {exc}") from exc
            p = p - 0.5 * h * rec.grad
        else:
            rec = None
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise FloatingPointError(f"non-finite state at rollout step {k}")
    yield q, p, rec


def rollout(
    net: PotentialNet,
    state: PhaseState,
    spec: RolloutSpec,
    record: bool = False,
    final_kick: bool = True,
):
    """K composed leapfrog steps of size dt.

    With ``record=True`` also returns the tape for the unrolled reverse pass,
    which holds all K + 1 force records.  Without it each record is dropped
    once its last kick is taken, so at most one is live and memory does not
    grow with K.

    With ``final_kick=False`` the last step stops after its drift: the
    result is (q_K, p_{K-1/2}), with q_K bit for bit the full rollout's,
    and the tape holds K records.  That saves the force evaluation at q_K
    and, in the reverse pass, its Hessian-vector product.  Training takes
    this map when its prediction loss reads q_K alone (``match`` "q" with
    ``p_weight`` 0); every other caller takes the full step.
    """
    q2d, squeeze = _as_batch(state.q)
    p2d, _ = _as_batch(state.p)
    records = []
    with np.errstate(over="ignore", invalid="ignore"):  # blowups are caught in _leapfrog
        for q, p, rec in _leapfrog(net, q2d, p2d, spec.dt, spec.steps, final_kick):
            if record and rec is not None:
                records.append(rec)
            del rec  # else it stays live through the next force evaluation

    result = PhaseState(q[0], p[0]) if squeeze else PhaseState(q, p)
    if record:
        return result, RolloutTape(net, spec.dt, spec.steps, records)
    return result


def energy_path(net: PotentialNet, state: PhaseState, spec: RolloutSpec) -> np.ndarray:
    """H = 0.5 |p|^2 + V(q) at the K + 1 states of ``rollout(net, state, spec)``,
    start state first: shape (K + 1,) for a single state, (K + 1, B) for a
    batch.  V is read from each step's own force record."""
    q2d, squeeze = _as_batch(state.q)
    p2d, _ = _as_batch(state.p)
    energy = np.empty((spec.steps + 1, q2d.shape[0]))
    k = 0  # not enumerate, whose reused result tuple would hold the last record
    with np.errstate(over="ignore", invalid="ignore"):  # blowups are caught in _leapfrog
        for _, p, rec in _leapfrog(net, q2d, p2d, spec.dt, spec.steps):
            energy[k] = 0.5 * np.sum(p * p, axis=1) + rec.value
            k += 1
            del rec
    return energy[:, 0] if squeeze else energy


def flow_jacobian_fd(
    net: PotentialNet, state: PhaseState, spec: RolloutSpec, h: float = 1e-5
) -> np.ndarray:
    """Central-difference Jacobian of the rollout map on one state, in the
    stacked [q; p] coordinates."""
    if not (1e-7 <= h <= 1e-4):
        raise ValueError("fd step must be in [1e-7, 1e-4]")
    if state.q.ndim != 1:
        raise ValueError("flow_jacobian_fd expects a single state")
    d0 = state.dim
    s0 = np.concatenate([state.q, state.p])
    jac = np.zeros((2 * d0, 2 * d0))
    for i in range(2 * d0):
        plus = s0.copy()
        minus = s0.copy()
        plus[i] += h
        minus[i] -= h
        out_p = rollout(net, PhaseState(plus[:d0], plus[d0:]), spec)
        out_m = rollout(net, PhaseState(minus[:d0], minus[d0:]), spec)
        jac[:, i] = (
            np.concatenate([out_p.q, out_p.p]) - np.concatenate([out_m.q, out_m.p])
        ) / (2.0 * h)
    return jac


# --- flat parameter serialization --------------------------------------------
# Format: <prefix>.bin holds all parameters as little-endian float64; a layer
# list is stored in layer order (W row-major, then b).  <prefix>.json is the
# sidecar with the format tag, the kind, the layer shapes and any scalars.

FLAT_FORMAT = "hamjepa-flat-v1"


def write_flat_params(prefix: str, arrays: list, meta: dict):
    if arrays:
        flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
    else:
        flat = np.zeros(0)
    with open(f"{prefix}.bin", "wb") as fh:
        fh.write(flat.astype("<f8").tobytes())
    sidecar = dict(meta)
    sidecar["param_count"] = int(flat.size)
    with open(f"{prefix}.json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_layers(prefix: str, kind: str, weights: list, biases: list, **scalars):
    """Store a (weights, biases) layer list; ``scalars`` go into the sidecar."""
    write_flat_params(
        prefix,
        [a for pair in zip(weights, biases) for a in pair],
        {
            "format": FLAT_FORMAT,
            "kind": kind,
            "layer_shapes": [list(w.shape) for w in weights],
            **scalars,
        },
    )


def read_layers(prefix: str, kind: str) -> tuple[list, list, dict]:
    """Inverse of write_layers: (weights, biases, sidecar).  A sidecar that
    is not a JSON object of this format and kind, whose ``layer_shapes`` is
    not a nonempty list of positive ``[out, in]`` integer pairs, or whose
    sizes disagree with the ``.bin`` file, raises ValueError."""
    with open(f"{prefix}.json") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{prefix}.json is not a JSON object")
    if meta.get("format") != FLAT_FORMAT or meta.get("kind") != kind:
        raise ValueError(
            f"{prefix} does not hold a {FLAT_FORMAT} {kind}"
            f" (format={meta.get('format')!r}, kind={meta.get('kind')!r})"
        )
    shapes = meta.get("layer_shapes")
    if not (
        isinstance(shapes, list)
        and shapes
        and all(
            isinstance(shape, list)
            and len(shape) == 2
            and all(type(n) is int and n > 0 for n in shape)
            for shape in shapes
        )
    ):
        raise ValueError(
            f"{prefix}.json: layer_shapes must be a nonempty list of [out, in] positive integers,"
            f" got {shapes!r}"
        )
    expected = sum(out_d * in_d + out_d for out_d, in_d in shapes)
    with open(f"{prefix}.bin", "rb") as fh:
        data = fh.read()
    if not (len(data) == 8 * expected and meta.get("param_count") == expected):
        raise ValueError(
            f"{prefix}.bin holds {len(data)} bytes, its layer_shapes need {expected}"
            f" float64 values, param_count says {meta.get('param_count')!r}"
        )
    flat = np.frombuffer(data, dtype="<f8").astype(np.float64)
    weights, biases = [], []
    pos = 0
    for out_d, in_d in shapes:
        weights.append(flat[pos : pos + out_d * in_d].reshape(out_d, in_d).copy())
        pos += out_d * in_d
        biases.append(flat[pos : pos + out_d].copy())
        pos += out_d
    return weights, biases, meta


def save_potential(net: PotentialNet, prefix: str):
    write_layers(
        prefix, "potential", net.weights, net.biases, alpha=net.alpha, residual_scale=net.scale
    )


def load_potential(prefix: str) -> PotentialNet:
    weights, biases, meta = read_layers(prefix, "potential")
    return PotentialNet(
        alpha=float(meta["alpha"]),
        scale=float(meta["residual_scale"]),
        weights=weights,
        biases=biases,
    )
