"""Loss and regularizer terms: rollout prediction consistency, the mean-of-
views baseline prediction loss, the fixed-units energy budget, variance and
projected log-det floors, the batch-mean penalty, the sliced
characteristic-function statistic, and the refresh cache for their random
projections.

Every term returns its value together with the exact gradient with respect
to its batch input, so the training loop only has to chain them through the
encoder.  Projection and slice caches are owned by the caller and passed in
explicitly; nothing here keeps hidden state.
"""

from dataclasses import dataclass, field

import numpy as np

from .hamflow import (
    PhaseState,
    PotentialGrads,
    PotentialNet,
    RolloutSpec,
    rollout,
)
from .numlin import (
    NotPositiveDefiniteError,
    SymMatrix,
    cholesky_factor,
    orthonormalize_columns,
    sym_eig,
)

VAR_FLOOR_EPS = 1e-8  # inside the square root of the per-dimension std

# Samples per block in sigreg_statistic and sigreg_value.  It bounds the
# statistic's (knots, block, slices) complex buffer (18 MB at 17 knots and 64
# slices), which its gradient pass reads again, for any sample count; the
# value alone streams the knots through two (block, slices) arrays (2 MB).
SIGREG_ROW_BLOCK = 1024


@dataclass(frozen=True)
class MatchSpec:
    mode: str = "q"  # "q" or "qp"
    p_weight: float = 0.0
    detach_target: bool = True
    bidirectional: bool = False

    def __post_init__(self):
        if self.mode not in ("q", "qp"):
            raise ValueError(f"unknown match mode {self.mode!r}")
        if self.p_weight < 0:
            raise ValueError("p_weight must be nonnegative")


@dataclass(frozen=True)
class RegularizerSpec:
    alpha_q: float = 1.0
    alpha_p: float = 1.0
    sigma_min: float = 0.1
    proj_dim: int = 8
    tau: float = -1.0
    eps: float = 1e-4
    r0_norm: float | None = None
    eigmax_frac_ceiling: float | None = None
    refresh_interval: int = 16

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("covariance ridge eps must be positive")
        if self.proj_dim < 1 or self.refresh_interval < 1:
            raise ValueError("proj_dim and refresh_interval must be positive")
        if self.r0_norm is not None and not (0 < self.r0_norm <= 1):
            raise ValueError("r0_norm must lie in (0, 1]")
        if self.eigmax_frac_ceiling is not None and not (0 < self.eigmax_frac_ceiling <= 1):
            raise ValueError("eigmax_frac_ceiling must lie in (0, 1]")


def default_sigreg_knots(n_knots: int = 17, t_max: float = 4.0):
    """Knots uniform on (0, t_max], weighted by the target CF density."""
    knots = t_max * np.arange(1, n_knots + 1) / n_knots
    weights = np.exp(-0.5 * knots**2)
    return knots, weights / weights.sum()


@dataclass(frozen=True)
class SIGRegSpec:
    """Knots and weights of the sliced-CF statistic.  The knots must be the
    even grid t_j = j t_1, j = 1..T, with t_1 > 0 (as ``default_sigreg_knots``
    makes them), because ``sigreg_statistic`` and ``sigreg_value`` take
    exp(i t_j y) as the j-th power of exp(i t_1 y).  Weights are normalized
    to sum to one."""

    knots: np.ndarray = field(default_factory=lambda: default_sigreg_knots()[0])
    weights: np.ndarray = field(default_factory=lambda: default_sigreg_knots()[1])

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if knots.ndim != 1 or knots.size == 0 or not 0 < knots[0] < np.inf:
            raise ValueError("knots must be a nonempty 1-d grid with a finite first knot > 0")
        grid = knots[0] * np.arange(1, knots.size + 1)
        if not np.allclose(knots, grid, rtol=1e-12, atol=0.0):
            raise ValueError("knots must be evenly spaced from the origin: t_j = j * t_1")
        if weights.shape != knots.shape or not np.all((weights > 0) & np.isfinite(weights)):
            raise ValueError("weights must be finite and positive, one per knot")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "weights", weights / weights.sum())


def orthonormal_projection(rng: np.random.Generator, dim: int, k: int) -> np.ndarray:
    """Orthonormal dim x k projection."""
    return orthonormalize_columns(rng.standard_normal((dim, k)), rng)


def unit_slices(rng: np.random.Generator, dim: int, n_slices: int) -> np.ndarray:
    """Unit-norm Gaussian slice directions, one per column."""
    a = rng.standard_normal((dim, n_slices))
    return a / np.sqrt(np.sum(a * a, axis=0, keepdims=True))


class RefreshCache:
    """A dim x width matrix ``draw(rng, dim, width)``, redrawn every
    ``refresh_interval`` steps from its own seeded generator."""

    def __init__(
        self, draw, dim: int, width: int, refresh_interval: int, rng: np.random.Generator
    ):
        self.draw = draw
        self.dim = dim
        self.width = width
        self.refresh_interval = refresh_interval
        self.rng = rng
        self.matrix = None
        self._last_refresh = None

    def get(self, step: int) -> np.ndarray:
        due = self.matrix is None or (
            step % self.refresh_interval == 0 and step != self._last_refresh
        )
        if due:
            self.matrix = self.draw(self.rng, self.dim, self.width)
            self._last_refresh = step
        return self.matrix


@dataclass
class PredictionLossResult:
    loss: float
    forward_loss: float
    backward_loss: float
    d_source: PhaseState  # gradient w.r.t. the rolled-out view's state
    d_target: PhaseState  # gradient w.r.t. the other view's state
    net_grads: PotentialGrads


def _direction_loss(net, s_from: PhaseState, s_to: PhaseState, spec, match):
    """One prediction direction: roll s_from, compare against s_to.  A loss
    that reads q_K alone stops the rollout after its last drift."""
    q_only = match.mode == "q" and match.p_weight == 0
    out, tape = rollout(net, s_from, spec, record=True, final_kick=not q_only)
    B, d = out.q.shape
    dq_hat = np.zeros_like(out.q)
    dp_hat = np.zeros_like(out.p)
    d_to_q = np.zeros_like(out.q)
    d_to_p = np.zeros_like(out.p)

    if match.mode == "qp":
        resid_q = out.q - s_to.q
        resid_p = out.p - s_to.p
        loss = float(np.mean(resid_q**2) + np.mean(resid_p**2)) / 2.0
        # mean over B * 2d entries of the stacked state
        dq_hat += resid_q / (B * d)
        dp_hat += resid_p / (B * d)
        if not match.detach_target:
            d_to_q -= resid_q / (B * d)
            d_to_p -= resid_p / (B * d)
    else:
        resid_q = out.q - s_to.q
        loss = float(np.mean(resid_q**2))
        dq_hat += 2.0 * resid_q / (B * d)
        if not match.detach_target:
            d_to_q -= 2.0 * resid_q / (B * d)
        if match.p_weight > 0:
            resid_p = out.p - s_to.p
            loss += match.p_weight * float(np.mean(resid_p**2))
            dp_hat += match.p_weight * 2.0 * resid_p / (B * d)
            if not match.detach_target:
                d_to_p -= match.p_weight * 2.0 * resid_p / (B * d)

    d_from_q, d_from_p, grads = tape.backward(dq_hat, dp_hat)
    return loss, d_from_q, d_from_p, d_to_q, d_to_p, grads


def prediction_loss(
    net: PotentialNet,
    s_a: PhaseState,
    s_b: PhaseState,
    spec: RolloutSpec,
    match: MatchSpec,
) -> PredictionLossResult:
    """Consistency loss between the rolled-out source view and the target.

    Rolls s_a forward; with ``bidirectional`` also rolls s_b with the step
    sign flipped and averages the two directions.  The target branch
    receives no gradient when ``detach_target`` is set.
    """
    if s_a.q.shape != s_b.q.shape:
        raise ValueError(f"batch shape mismatch: {s_a.q.shape} vs {s_b.q.shape}")
    fwd, da_q, da_p, db_q, db_p, grads = _direction_loss(net, s_a, s_b, spec, match)
    if not match.bidirectional:
        return PredictionLossResult(
            fwd, fwd, 0.0, PhaseState(da_q, da_p), PhaseState(db_q, db_p), grads
        )

    back_spec = RolloutSpec(-spec.dt, spec.steps)
    bwd, db_q2, db_p2, da_q2, da_p2, grads2 = _direction_loss(net, s_b, s_a, back_spec, match)
    for g in (grads, grads2):
        for a in g.d_weights + g.d_biases:
            a *= 0.5
    grads.add_(grads2)
    return PredictionLossResult(
        0.5 * (fwd + bwd),
        fwd,
        bwd,
        PhaseState(0.5 * (da_q + da_q2), 0.5 * (da_p + da_p2)),
        PhaseState(0.5 * (db_q + db_q2), 0.5 * (db_p + db_p2)),
        grads,
    )


def lejepa_prediction_loss(z_views: np.ndarray) -> tuple[float, np.ndarray]:
    """Half mean squared deviation of every view from the per-sample mean of
    all views."""
    z = np.asarray(z_views, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError(f"expected V x B x D views, got shape {z.shape}")
    V, B, D = z.shape
    center = z.mean(axis=0)
    dev = z - center[None]
    loss = 0.5 * float(np.mean(dev**2))
    grad = dev / (V * B * D)
    grad -= dev.sum(axis=0) / (V * B * D * V)
    return loss, grad


def energy_budget(z_all: np.ndarray, reg: RegularizerSpec) -> tuple[float, np.ndarray]:
    """Squared deviation of the per-coordinate second moments of the q and p
    halves from their fixed-unit targets."""
    z = np.asarray(z_all, dtype=np.float64)
    n, two_d = z.shape
    d0 = two_d // 2
    q, p = z[:, :d0], z[:, d0:]
    mq = float(np.mean(q * q))
    mp = float(np.mean(p * p))
    loss = (mq - reg.alpha_q) ** 2 + (mp - reg.alpha_p) ** 2
    grad = np.empty_like(z)
    grad[:, :d0] = 4.0 * (mq - reg.alpha_q) * q / (n * d0)
    grad[:, d0:] = 4.0 * (mp - reg.alpha_p) * p / (n * d0)
    return loss, grad


def variance_floor(x: np.ndarray, sigma_min: float) -> tuple[float, np.ndarray]:
    """Hinge-squared penalty on per-dimension batch standard deviations
    below ``sigma_min``; population statistics, zero for batches below 2."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if n < 2:
        return 0.0, np.zeros_like(x)
    mu = x.mean(axis=0)
    var = np.maximum(np.mean(x * x, axis=0) - mu * mu, 0.0)
    std = np.sqrt(var + VAR_FLOOR_EPS)
    gap = np.maximum(sigma_min - std, 0.0)
    loss = float(np.mean(gap**2))
    dloss_dstd = -2.0 * gap / d
    grad = (dloss_dstd / std)[None, :] * (x - mu[None, :]) / n
    return loss, grad


def mean_penalty(z_all: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared per-dimension batch mean, averaged over dimensions."""
    z = np.asarray(z_all, dtype=np.float64)
    n, d = z.shape
    mu = z.mean(axis=0)
    loss = float(np.mean(mu**2))
    grad = np.broadcast_to(2.0 * mu / (d * n), z.shape).copy()
    return loss, grad


@dataclass
class FloorDiagnostics:
    logdet_per_dim: float
    pr: float
    eigmax_frac: float
    vol_loss: float
    pr_loss: float
    eig_loss: float


def projected_logdet_floor(
    x: np.ndarray,
    reg: RegularizerSpec,
    projection: np.ndarray,
) -> tuple[float, FloorDiagnostics, np.ndarray]:
    """Volume, participation-ratio, and top-eigenvalue-fraction hinges on
    the covariance of the centered batch pushed through a fixed orthonormal
    projection.

    The covariance is ridged with ``reg.eps``; a failed Cholesky
    factorization despite the ridge indicates numerical corruption and is
    fatal.  The log-det and the inverse in the volume gradient both come
    from that one factor.  The PR floor is ``r0_norm * k`` on the
    unnormalized participation ratio.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if n < 2:
        diag = FloorDiagnostics(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return 0.0, diag, np.zeros_like(x)
    k = projection.shape[1]
    centered = x - x.mean(axis=0)
    y = centered @ projection
    cov = y.T @ y / (n - 1)
    cov = 0.5 * (cov + cov.T) + reg.eps * np.eye(k)

    try:
        chol = cholesky_factor(cov)
    except NotPositiveDefiniteError as exc:
        raise FloatingPointError("projected covariance lost definiteness despite ridge") from exc
    lvol = float(2.0 * np.sum(np.log(np.diag(chol)))) / k
    vol_gap = max(0.0, reg.tau - lvol)
    vol_loss = vol_gap**2

    tr = float(np.trace(cov))
    tr_sq = float(np.sum(cov * cov))  # trace of cov^2 for symmetric cov
    pr = tr * tr / tr_sq
    eig = sym_eig(SymMatrix(cov))
    lmax = float(eig.eigenvalues[0])
    u = eig.eigenvectors[:, 0]
    eigmax_frac = lmax / tr

    g_cov = np.zeros((k, k))
    if vol_gap > 0:
        chol_inv = np.linalg.solve(chol, np.eye(k))
        g_cov += -2.0 * vol_gap / k * (chol_inv.T @ chol_inv)  # cov^-1 = L^-T L^-1

    pr_loss = 0.0
    if reg.r0_norm is not None:
        r0 = reg.r0_norm * k
        pr_gap = max(0.0, r0 - pr)
        pr_loss = pr_gap**2
        if pr_gap > 0:
            dpr_dcov = 2.0 * tr / tr_sq * np.eye(k) - 2.0 * tr * tr / tr_sq**2 * cov
            g_cov += -2.0 * pr_gap * dpr_dcov

    eig_loss = 0.0
    if reg.eigmax_frac_ceiling is not None:
        eig_gap = max(0.0, eigmax_frac - reg.eigmax_frac_ceiling)
        eig_loss = eig_gap**2
        if eig_gap > 0:
            dfrac_dcov = np.outer(u, u) / tr - lmax / tr**2 * np.eye(k)
            g_cov += 2.0 * eig_gap * dfrac_dcov

    loss = vol_loss + pr_loss + eig_loss
    diag = FloorDiagnostics(lvol, pr, eigmax_frac, vol_loss, pr_loss, eig_loss)

    dy = y @ (g_cov + g_cov.T) / (n - 1)
    dx = dy @ projection.T
    dx -= dx.mean(axis=0)  # adjoint of the batch centering
    return float(loss), diag, dx


def _sigreg_blocks(z) -> tuple:
    """``z`` as a float64 array, and its row blocks of ``SIGREG_ROW_BLOCK``."""
    z = np.asarray(z, dtype=np.float64)
    n, _ = z.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    return z, [slice(start, start + SIGREG_ROW_BLOCK) for start in range(0, n, SIGREG_ROW_BLOCK)]


def _sigreg_moments(cf_sum: np.ndarray, n: int, spec: SIGRegSpec) -> tuple:
    """The statistic, the (knot, slice) sine means and the cosine
    deviations, from the (knot, slice) sums of exp(i t y) over n samples."""
    c_hat = cf_sum.real / n  # (T, K)
    s_hat = cf_sum.imag / n
    dev_c = c_hat - np.exp(-0.5 * spec.knots**2)[:, None]
    per_slice = n * np.sum(spec.weights[:, None] * (dev_c**2 + s_hat**2), axis=0)
    return float(per_slice.mean()), s_hat, dev_c


def sigreg_value(z: np.ndarray, spec: SIGRegSpec, slices: np.ndarray) -> float:
    """The value of ``sigreg_statistic`` alone, bitwise, without its
    gradient or its (knots, block, slices) buffer.

    Each power of a row block is added to the (knot, slice) sums as soon as
    it is formed, with the same products and sums as the statistic's first
    pass, so only two (block, slices) complex arrays are live: 2 MB at 64
    slices, for any sample count and any number of knots.
    """
    z, blocks = _sigreg_blocks(z)
    kslices = slices.shape[1]
    t1 = spec.knots[0]
    cf_sum = np.zeros((spec.knots.size, kslices), dtype=np.complex128)
    first = np.empty((min(z.shape[0], SIGREG_ROW_BLOCK), kslices), dtype=np.complex128)
    power = np.empty_like(first)
    for rows in blocks:
        ty = t1 * (z[rows] @ slices)
        first_b, power_b = first[: ty.shape[0]], power[: ty.shape[0]]
        np.cos(ty, out=first_b.real)
        np.sin(ty, out=first_b.imag)
        power_b[...] = first_b
        for j in range(spec.knots.size):
            if j:
                np.multiply(power_b, first_b, out=power_b)
            cf_sum[j] += power_b.sum(axis=0)
    return _sigreg_moments(cf_sum, z.shape[0], spec)[0]


def sigreg_statistic(
    z: np.ndarray, spec: SIGRegSpec, slices: np.ndarray
) -> tuple[float, np.ndarray]:
    """Sliced characteristic-function statistic against the standard normal.

    Projects the batch onto unit slice directions, y = z @ slices, takes the
    empirical characteristic function c_hat + i s_hat = mean over samples of
    exp(i t y) at each knot t, and mean-reduces over slices the weighted
    squared deviation from exp(-t^2/2), scaled by the sample count n:
    ``mean_k n sum_t w_t ((c_hat - exp(-t^2/2))^2 + s_hat^2)``.

    ``SIGRegSpec`` holds the knots to an even grid t_j = j t_1, so
    exp(i t_j y) is the j-th power of exp(i t_1 y): one cos and one sin per
    (sample, slice), then one complex product per further knot.  The
    gradient in y, (2/K) sum_t w_t t (s_hat cos(t y) - dev_c sin(t y)), is
    one contraction of those powers with per-(knot, slice) weight pairs.

    Samples go in blocks of ``SIGREG_ROW_BLOCK``.  A first pass sums each
    block's powers; a second recomputes them (the last block's are still at
    hand) and writes the block's gradient rows.  So memory is bounded by the
    block, not by n.  The direct form,
    cos and sin of every t_j y, is kept as the reference in the tests; the
    two agree to rounding.
    """
    z, blocks = _sigreg_blocks(z)
    kslices = slices.shape[1]
    n_knots = spec.knots.size
    t1 = spec.knots[0]
    buffer = np.empty((n_knots, min(z.shape[0], SIGREG_ROW_BLOCK), kslices), dtype=np.complex128)

    def block_powers(rows):
        # exp(i j t_1 y) for j = 1..T, knot-major, over the block's projections
        ty = t1 * (z[rows] @ slices)
        powers = buffer[:, : ty.shape[0]]
        np.cos(ty, out=powers[0].real)
        np.sin(ty, out=powers[0].imag)
        for j in range(1, n_knots):
            np.multiply(powers[j - 1], powers[0], out=powers[j])
        return powers

    cf_sum = np.zeros((n_knots, kslices), dtype=np.complex128)
    for rows in blocks:
        powers = block_powers(rows)
        cf_sum += powers.sum(axis=1)
    stat, s_hat, dev_c = _sigreg_moments(cf_sum, z.shape[0], spec)

    # The float view of the powers alternates (cos, sin) along its last
    # axis, so each slice gets the weight pair (s_hat, -dev_c).
    wt = (2.0 / kslices) * (spec.weights * spec.knots)[:, None]
    pair_weights = np.stack([wt * s_hat, -wt * dev_c], axis=-1).reshape(n_knots, 2 * kslices)
    grad = np.empty(z.shape)
    # backwards, so the last block's powers from the first pass are reused
    for rows in reversed(blocks):
        if rows is not blocks[-1]:
            powers = block_powers(rows)
        dy_pairs = np.einsum("tnk,tk->nk", powers.view(np.float64), pair_weights)
        grad[rows] = (dy_pairs[:, 0::2] + dy_pairs[:, 1::2]) @ slices.T
    return stat, grad
