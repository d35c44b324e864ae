"""Frozen-feature geometry and downstream metrics.

Spectrum summaries (effective rank, participation ratio), random-pair
cosine and norm statistics, cosine k-nearest-neighbor accuracy, a
closed-form ridge linear probe, and the directional sliced discrepancy
between two phase-space populations.  CSV emitters produce plot-ready
tables.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .numlin import SymMatrix, cholesky_factor, sym_eig

# Test rows per similarity block in knn_accuracy.  Its three (block, n_train)
# buffers (similarities, their partition, the chosen marks) are most of a
# call's scratch memory: with 3072 train and 1024 test rows of dimension 16,
# a call peaks at 2.3 MB with 32-row blocks against 7.3 MB with 128-row
# blocks, and a 15-call kNN sweep of that size takes 0.26–0.27 s with 32-row
# blocks against 0.30 s with 16- or 128-row blocks (one BLAS thread).
KNN_ROW_BLOCK = 32

# Largest coarse step count round(horizon / dt) that the slicedemo command
# accepts; the fine reference rollout takes 100 times as many steps.
SLICE_DEMO_MAX_STEPS = 10_000

# Angles on [0, pi) at which directional_discrepancy compares projections.
N_ANGLES = 64


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    effective_rank: float
    participation_ratio: float
    eigmax_frac: float


@dataclass(frozen=True)
class DiscrepancyProfile:
    angles: np.ndarray
    g_values: np.ndarray
    mean_g: float
    max_g: float


def spectrum_report(x: np.ndarray) -> SpectrumReport:
    """Eigen-spectrum summaries of the mean-centered covariance.

    Effective rank is the exponential of the Shannon entropy of the
    normalized spectrum; the participation ratio is (tr)^2 / tr(Sigma^2).
    Both are scale invariant.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigs = np.maximum(sym_eig(SymMatrix(cov)).eigenvalues, 0.0)
    total = float(eigs.sum())
    if total <= 0:
        return SpectrumReport(eigs, 1.0, 1.0, 1.0)
    probs = eigs / total
    nz = probs[probs > 0]
    eff_rank = float(np.exp(-np.sum(nz * np.log(nz))))
    pr = total**2 / float(np.sum(eigs**2))
    return SpectrumReport(eigs, eff_rank, pr, float(eigs[0] / total))


@dataclass(frozen=True)
class CosineNormStats:
    cos_mean: float
    cos_std: float
    norm_mean: float
    norm_std: float
    excluded_rows: int


def cosine_norm_stats(x: np.ndarray, n_pairs: int, rng: np.random.Generator) -> CosineNormStats:
    """Random-pair cosine similarities of l2-normalized rows (no centering)
    and raw row-norm statistics.  Zero-norm rows are excluded and counted."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt(np.sum(x * x, axis=1))
    keep = norms > 0
    excluded = int((~keep).sum())
    xk = x[keep]
    nk = norms[keep]
    if xk.shape[0] < 2:
        raise ValueError("need at least 2 nonzero rows")
    unit = xk / nk[:, None]
    i = rng.integers(0, xk.shape[0], size=n_pairs)
    j = rng.integers(0, xk.shape[0] - 1, size=n_pairs)
    j = np.where(j >= i, j + 1, j)  # distinct pair indices
    cos = np.sum(unit[i] * unit[j], axis=1)
    return CosineNormStats(
        float(cos.mean()), float(cos.std()), float(nk.mean()), float(nk.std()), excluded
    )


def knn_accuracy(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    k: int = 20,
) -> float:
    """Cosine k-nearest-neighbor majority vote; ties break to the lowest
    class id.

    The neighbors of a test row are the k train rows a stable descending
    sort of its similarities puts first: every row above the k-th largest
    similarity, then the lowest-index rows equal to it.  A partition of
    each row finds that value; no row is sorted.  One comparison marks the
    rows at or above it; only a row that marks more than k (ties at the
    k-th value) is marked again, keeping its lowest-index tied rows.  The
    votes are read from the flat indices of the marks.  Test rows go in
    blocks of ``KNN_ROW_BLOCK``, which bounds the similarity buffer.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    test_x = np.asarray(test_x, dtype=np.float64)
    n_train = train_x.shape[0]
    if n_train == 0 or test_x.shape[0] == 0:
        raise ValueError("empty feature sets")
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    if k > n_train:
        raise ValueError(f"k={k} exceeds the train size {n_train}")

    def normalize(a):
        n = np.sqrt(np.sum(a * a, axis=1, keepdims=True))
        return np.where(n > 0, a / np.where(n > 0, n, 1.0), 0.0)

    tr = normalize(train_x)
    te = normalize(test_x)
    n_classes = int(max(train_y.max(), test_y.max())) + 1
    # one set of block buffers per call, written in place block after block
    block = (min(KNN_ROW_BLOCK, te.shape[0]), n_train)
    sims_buf, part_buf = np.empty(block), np.empty(block)
    chosen_buf = np.empty(block, dtype=bool)
    correct = 0
    for start in range(0, te.shape[0], KNN_ROW_BLOCK):
        queries = te[start : start + KNN_ROW_BLOCK]
        rows = queries.shape[0]
        sims = np.matmul(queries, tr.T, out=sims_buf[:rows])
        part = part_buf[:rows]
        np.copyto(part, sims)
        part.partition(n_train - k, axis=1)
        kth = part[:, n_train - k, None]
        chosen = np.greater_equal(sims, kth, out=chosen_buf[:rows])
        over = np.count_nonzero(chosen, axis=1) > k  # more ties at the k-th value than places left
        if over.any():
            over_sims, over_kth = sims[over], kth[over]
            above, ties = over_sims > over_kth, over_sims == over_kth
            room = k - above.sum(axis=1)
            chosen[over] = above | (ties & (np.cumsum(ties, axis=1) <= room[:, None]))
        row, col = np.divmod(np.flatnonzero(chosen), n_train)
        votes = np.bincount(row * n_classes + train_y[col], minlength=rows * n_classes)
        pred = np.argmax(votes.reshape(rows, n_classes), axis=1)  # lowest id on ties
        correct += int(np.sum(pred == test_y[start : start + rows]))
    return correct / te.shape[0]


def linear_probe(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    ridge: float = 1e-3,
) -> float:
    """One-vs-rest ridge regression on +-1 targets, solved in closed form
    through the normal equations (Cholesky), argmax over class scores."""
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    train_x = np.asarray(train_x, dtype=np.float64)
    test_x = np.asarray(test_x, dtype=np.float64)
    ones = np.ones((train_x.shape[0], 1))
    a = np.concatenate([train_x, ones], axis=1)
    n_classes = int(max(train_y.max(), test_y.max())) + 1
    targets = -np.ones((a.shape[0], n_classes))
    targets[np.arange(a.shape[0]), train_y] = 1.0

    gram = a.T @ a + ridge * np.eye(a.shape[1])
    L = cholesky_factor(gram)
    rhs = a.T @ targets
    w = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
    scores = np.concatenate([test_x, np.ones((test_x.shape[0], 1))], axis=1) @ w
    preds = np.argmax(scores, axis=1)
    return float(np.mean(preds == test_y))


def directional_discrepancy(z_model: np.ndarray, z_ref: np.ndarray) -> DiscrepancyProfile:
    """Sliced one-dimensional mismatch between two planar populations.

    For each of ``N_ANGLES`` angles theta on [0, pi) the projections onto
    u(theta) are compared with the exact empirical 1-d transport distance
    (mean absolute difference of sorted samples).  Population sizes are
    equalized by truncation.
    """
    z_model = np.asarray(z_model, dtype=np.float64)
    z_ref = np.asarray(z_ref, dtype=np.float64)
    if z_model.shape[1] != 2 or z_ref.shape[1] != 2:
        raise ValueError("directional discrepancy expects planar samples")
    n = min(z_model.shape[0], z_ref.shape[0])
    zm, zr = z_model[:n], z_ref[:n]
    angles = np.pi * np.arange(N_ANGLES) / N_ANGLES
    g = np.empty(N_ANGLES)
    for i, theta in enumerate(angles):
        u = np.array([np.cos(theta), np.sin(theta)])
        pm = np.sort(zm @ u)
        pr = np.sort(zr @ u)
        g[i] = float(np.mean(np.abs(pm - pr)))
    return DiscrepancyProfile(angles, g, float(g.mean()), float(g.max()))


def harmonic_slice_demo(
    dt_coarse: float,
    horizon: float,
    n_samples: int,
    rng: np.random.Generator,
) -> dict:
    """Directional discrepancy of coarse rollouts on a planar oscillator.

    A Gaussian blob of phase-space states is transported to the horizon
    three ways: a fine-step leapfrog reference, a coarse forward-Euler
    rollout (the non-symplectic proxy), and a coarse leapfrog rollout.
    Returns the two discrepancy profiles against the reference.
    """
    if dt_coarse <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    steps = max(1, round(horizon / dt_coarse))
    center = np.array([1.2, 0.0])
    z0 = center + 0.15 * rng.standard_normal((n_samples, 2))
    q0, p0 = z0[:, :1], z0[:, 1:]

    def leapfrog(q, p, dt, n):
        g = q
        for _ in range(n):
            ph = p - 0.5 * dt * g
            q = q + dt * ph
            g = q
            p = ph - 0.5 * dt * g
        return q, p

    refine = 100
    q_ref, p_ref = leapfrog(q0, p0, dt_coarse / refine, steps * refine)
    q_lf, p_lf = leapfrog(q0, p0, dt_coarse, steps)
    q_eu, p_eu = q0, p0
    for _ in range(steps):
        q_eu, p_eu = q_eu + dt_coarse * p_eu, p_eu - dt_coarse * q_eu

    z_ref = np.concatenate([q_ref, p_ref], axis=1)
    return {
        "euler": directional_discrepancy(np.concatenate([q_eu, p_eu], axis=1), z_ref),
        "leapfrog": directional_discrepancy(np.concatenate([q_lf, p_lf], axis=1), z_ref),
    }


# --- CSV emitters ----------------------------------------------------------------


def write_spectrum_csv(report: SpectrumReport, path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "eigenvalue"])
        for i, val in enumerate(report.eigenvalues, start=1):
            writer.writerow([i, repr(float(val))])


def write_knn_sweep_csv(rows: list, path: str):
    """rows: iterable of (k, accuracy)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "accuracy"])
        for k, acc in rows:
            writer.writerow([k, repr(float(acc))])


def write_discrepancy_csv(profiles: dict, path: str):
    """profiles: mapping column-name -> DiscrepancyProfile on a shared grid."""
    names = list(profiles)
    grids = [profiles[n].angles for n in names]
    for g in grids[1:]:
        if not np.array_equal(g, grids[0]):
            raise ValueError("profiles must share the angle grid")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta"] + [f"g_{n}" for n in names])
        for i, theta in enumerate(grids[0]):
            writer.writerow(
                [repr(float(theta))] + [repr(float(profiles[n].g_values[i])) for n in names]
            )
