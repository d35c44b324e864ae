import tracemalloc

import numpy as np
import pytest

from hamjepa.diagnostics import (
    KNN_ROW_BLOCK,
    cosine_norm_stats,
    directional_discrepancy,
    harmonic_slice_demo,
    knn_accuracy,
    linear_probe,
    spectrum_report,
    write_discrepancy_csv,
    write_knn_sweep_csv,
    write_spectrum_csv,
)
from hamjepa.numlin import orthonormalize_columns


def gaussian_classes(rng, n_per_class, centers, scale=0.3):
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(center + scale * rng.standard_normal((n_per_class, len(center))))
        ys.append(np.full(n_per_class, label))
    return np.concatenate(xs), np.concatenate(ys).astype(int)


# --- spectrum ---------------------------------------------------------------


def test_spectrum_isotropic_gaussian():
    x = np.random.default_rng(0).standard_normal((10_000, 16))
    rep = spectrum_report(x)
    assert 15.0 <= rep.effective_rank <= 16.0
    assert 15.0 <= rep.participation_ratio <= 16.0


def test_spectrum_rank_one():
    rng = np.random.default_rng(1)
    x = np.outer(rng.standard_normal(50), rng.standard_normal(6))
    rep = spectrum_report(x)
    assert abs(rep.participation_ratio - 1.0) <= 1e-9
    assert abs(rep.eigmax_frac - 1.0) <= 1e-9


def test_spectrum_identity_covariance_attains_dimension():
    # exact identity sample covariance via scaled orthonormal zero-mean columns
    rng = np.random.default_rng(2)
    n, k = 40, 5
    g = rng.standard_normal((n, k))
    g -= g.mean(axis=0)
    q = orthonormalize_columns(g, rng)
    x = q * np.sqrt(n - 1)
    rep = spectrum_report(x)
    assert abs(rep.participation_ratio - k) <= 1e-8
    assert abs(rep.effective_rank - k) <= 1e-8


def test_spectrum_scale_invariant():
    x = np.random.default_rng(3).standard_normal((200, 8))
    a, b = spectrum_report(x), spectrum_report(100.0 * x)
    assert abs(a.effective_rank - b.effective_rank) <= 1e-9
    assert abs(a.participation_ratio - b.participation_ratio) <= 1e-9


# --- cosine / norms -----------------------------------------------------------


def test_cosine_identical_rows():
    x = np.tile([1.0, 2.0, 2.0], (20, 1))
    stats = cosine_norm_stats(x, 500, np.random.default_rng(0))
    assert abs(stats.cos_mean - 1.0) <= 1e-12
    assert abs(stats.norm_mean - 3.0) <= 1e-12


def test_cosine_isotropic_null():
    x = np.random.default_rng(4).standard_normal((5000, 64))
    stats = cosine_norm_stats(x - x.mean(axis=0), 10_000, np.random.default_rng(5))
    assert abs(stats.cos_mean) <= 0.02


def test_cosine_mean_dominance_with_high_rank():
    # a large shared direction makes cosines look cone-like even though the
    # centered covariance stays high-rank
    rng = np.random.default_rng(6)
    mu = np.full(32, 3.0)
    x = mu + 0.3 * rng.standard_normal((4000, 32))
    stats = cosine_norm_stats(x, 10_000, np.random.default_rng(7))
    assert stats.cos_mean > 0.9
    rep = spectrum_report(x)
    assert rep.effective_rank > 25.0


def test_cosine_excludes_zero_rows():
    x = np.concatenate([np.zeros((3, 4)), np.ones((10, 4))])
    stats = cosine_norm_stats(x, 100, np.random.default_rng(8))
    assert stats.excluded_rows == 3


# --- kNN -------------------------------------------------------------------


def test_knn_exact_match_single_neighbor():
    train_x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    train_y = np.array([0, 1, 2])
    acc = knn_accuracy(train_x, train_y, np.array([[0.0, 1.0]]), np.array([1]), k=1)
    assert acc == 1.0


def test_knn_separable_classes():
    rng = np.random.default_rng(9)
    centers = 3.0 * rng.standard_normal((4, 8))
    x, y = gaussian_classes(rng, 200, centers)
    xt, yt = gaussian_classes(rng, 50, centers)
    assert knn_accuracy(x, y, xt, yt, k=20) >= 0.95


def test_knn_global_vote_degeneracy():
    # k = train size with balanced classes: every query sees the same global
    # vote, ties break to class 0
    rng = np.random.default_rng(10)
    centers = rng.standard_normal((4, 3))
    x, y = gaussian_classes(rng, 25, centers)
    xt, yt = gaussian_classes(rng, 25, centers)
    acc = knn_accuracy(x, y, xt, yt, k=len(y))
    assert abs(acc - 0.25) <= 1e-12


def test_knn_scale_invariant_per_row():
    rng = np.random.default_rng(11)
    centers = 2.0 * rng.standard_normal((3, 5))
    x, y = gaussian_classes(rng, 60, centers)
    xt, yt = gaussian_classes(rng, 30, centers)
    base = knn_accuracy(x, y, xt, yt, k=10)
    scales = rng.uniform(0.1, 10.0, size=(len(x), 1))
    assert knn_accuracy(x * scales, y, xt, yt, k=10) == base


def test_knn_validates_k():
    for k in (5, 0, -1):
        with pytest.raises(ValueError):
            knn_accuracy(np.ones((3, 2)), np.zeros(3, dtype=int), np.ones((1, 2)), np.zeros(1, dtype=int), k=k)


def normalize_rows(a):
    n = np.sqrt(np.sum(a * a, axis=1, keepdims=True))
    return np.where(n > 0, a / np.where(n > 0, n, 1.0), 0.0)


def reference_knn_predictions(train_x, train_y, test_x, k):
    """Per-row stable argsort of the full similarity matrix, then a vote."""
    sims = normalize_rows(test_x) @ normalize_rows(train_x).T
    n_classes = int(train_y.max()) + 1
    preds = []
    for row in range(sims.shape[0]):
        order = np.argsort(-sims[row], kind="stable")[:k]
        preds.append(int(np.argmax(np.bincount(train_y[order], minlength=n_classes))))
    return np.array(preds)


def dyadic_features(rng, n, dim=16):
    """Integer rows with 1, 4 or 16 nonzero entries of +-2^j, so every norm is
    a power of two and every cosine is an exact multiple of 1/16: ties at the
    k-th similarity are common, and no BLAS summation order can break them.
    Includes duplicate rows and all-zero rows."""
    x = np.zeros((n, dim))
    for row in range(n):
        nnz = rng.choice([1, 4, 16])
        cols = rng.choice(dim, size=nnz, replace=False)
        x[row, cols] = rng.choice([-1.0, 1.0], size=nnz) * 2.0 ** rng.integers(0, 3)
    x[rng.choice(n, size=n // 10, replace=False)] = 0.0
    dup = rng.choice(n, size=n // 5, replace=False)
    x[dup] = x[rng.choice(n, size=dup.size)]
    return x


@pytest.mark.parametrize("n_test", [1, 31, 32, 33, 65, 129, 300])
@pytest.mark.parametrize("k", [1, 7, None], ids=["k1", "k7", "kall"])
def test_knn_matches_stable_argsort_reference_on_ties(n_test, k):
    rng = np.random.default_rng(31)
    train_x, test_x = dyadic_features(rng, 200), dyadic_features(rng, n_test)
    train_y = rng.integers(0, 3, size=200)
    k = k or len(train_y)
    expected = reference_knn_predictions(train_x, train_y, test_x, k)
    # Labels equal to the reference votes: any row whose neighbor set or
    # vote differs lowers the accuracy, with no chance of cancelling out.
    assert knn_accuracy(train_x, train_y, test_x, expected, k) == 1.0
    test_y = rng.integers(0, 3, size=n_test)
    assert knn_accuracy(train_x, train_y, test_x, test_y, k) == np.mean(expected == test_y)


def tie_overflow_rows(train_x, test_x, k):
    """Indices of the test rows with more than k train rows at or above
    their k-th largest similarity: more ties at the k-th value than places."""
    sims = normalize_rows(test_x) @ normalize_rows(train_x).T
    kth = -np.sort(-sims, axis=1)[:, k - 1, None]
    return np.flatnonzero(np.count_nonzero(sims >= kth, axis=1) > k)


def tied_group_features(rng, n_test, overflow):
    """Train rows: 200 distinct Gaussian rows, with 12 copies of e_0 and 9 of
    e_1 scattered among them.  A test row in ``overflow`` is 1, 2 or 4 times
    e_0 or e_1, so its similarity 1 ties across a whole group of copies; any
    other test row is Gaussian with -5 in columns 0 and 1, which puts both
    groups at the bottom of its similarities.  Every tie is exact."""
    dim = 16
    train_x = rng.standard_normal((221, dim))
    groups = rng.permutation(221)[:21]
    train_x[groups] = 0.0
    train_x[groups[:12], 0] = 1.0
    train_x[groups[12:], 1] = 1.0
    test_x = rng.standard_normal((n_test, dim))
    test_x[:, :2] = -5.0
    for row in overflow:
        test_x[row] = 0.0
        test_x[row, rng.integers(0, 2)] = 2.0 ** rng.integers(0, 3)
    return train_x, test_x


@pytest.mark.parametrize(
    "n_test, overflow",
    [
        (KNN_ROW_BLOCK, [0, 3, 17, KNN_ROW_BLOCK - 1]),  # some rows of one block
        (KNN_ROW_BLOCK + 7, list(range(KNN_ROW_BLOCK + 7))),  # every row
        (3 * KNN_ROW_BLOCK, [KNN_ROW_BLOCK - 2, KNN_ROW_BLOCK - 1, KNN_ROW_BLOCK, KNN_ROW_BLOCK + 1]),
    ],
    ids=["some-rows", "every-row", "across-blocks"],
)
@pytest.mark.parametrize("k", [1, 7, None], ids=["k1", "k7", "kall"])
def test_knn_matches_stable_argsort_reference_on_tie_overflow(n_test, overflow, k):
    rng = np.random.default_rng(33)
    train_x, test_x = tied_group_features(rng, n_test, overflow)
    train_y = rng.integers(0, 3, size=len(train_x))
    k = k or len(train_y)
    # k = n_train takes every train row, so no row can overflow
    assert list(tie_overflow_rows(train_x, test_x, k)) == (overflow if k < 9 else [])
    expected = reference_knn_predictions(train_x, train_y, test_x, k)
    assert knn_accuracy(train_x, train_y, test_x, expected, k) == 1.0
    test_y = rng.integers(0, 3, size=n_test)
    assert knn_accuracy(train_x, train_y, test_x, test_y, k) == np.mean(expected == test_y)


def test_knn_scratch_memory_is_bounded_by_the_row_block():
    rng = np.random.default_rng(32)
    train_x, test_x = rng.standard_normal((3072, 16)), rng.standard_normal((1024, 16))
    train_y, test_y = rng.integers(0, 10, size=3072), rng.integers(0, 10, size=1024)
    tracemalloc.start()
    try:
        knn_accuracy(train_x, train_y, test_x, test_y, k=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three (32, 3072) block buffers and the normalized rows: 2.3 MB; 128-row blocks would peak at 7.3 MB
    assert peak <= 3 * 2**20


# --- linear probe --------------------------------------------------------------


def test_probe_separable_classes():
    rng = np.random.default_rng(12)
    centers = 4.0 * np.eye(3)
    x, y = gaussian_classes(rng, 100, centers, scale=0.2)
    xt, yt = gaussian_classes(rng, 40, centers, scale=0.2)
    assert linear_probe(x, y, xt, yt, ridge=1e-3) == 1.0


def test_probe_shuffled_labels_near_chance():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((600, 8))
    y = rng.integers(0, 4, size=600)
    xt = rng.standard_normal((400, 8))
    yt = rng.integers(0, 4, size=400)
    acc = linear_probe(x, y, xt, yt, ridge=1e-3)
    sigma = np.sqrt(0.25 * 0.75 / 400)
    assert abs(acc - 0.25) <= 3 * sigma


def test_probe_infinite_ridge_predicts_first_class():
    rng = np.random.default_rng(14)
    # class 0 is the majority class
    x = rng.standard_normal((90, 4))
    y = np.array([0] * 50 + [1] * 40)
    xt = rng.standard_normal((30, 4))
    yt = np.array([0] * 20 + [1] * 10)
    acc = linear_probe(x, y, xt, yt, ridge=1e12)
    assert abs(acc - 20 / 30) <= 1e-12


def test_probe_affine_invariance_at_tiny_ridge():
    rng = np.random.default_rng(15)
    centers = 2.0 * rng.standard_normal((3, 6))
    x, y = gaussian_classes(rng, 80, centers)
    xt, yt = gaussian_classes(rng, 40, centers)
    base = linear_probe(x, y, xt, yt, ridge=1e-8)
    # random well-conditioned invertible map plus shift
    while True:
        a = rng.standard_normal((6, 6))
        if np.linalg.cond(a) <= 10:
            break
    shift = rng.standard_normal(6)
    mapped = linear_probe(x @ a.T + shift, y, xt @ a.T + shift, yt, ridge=1e-8)
    assert mapped == base


# --- directional discrepancy ------------------------------------------------------


def test_discrepancy_zero_for_identical_populations():
    z = np.random.default_rng(16).standard_normal((500, 2))
    prof = directional_discrepancy(z, z.copy())
    assert prof.max_g <= 1e-15


def test_discrepancy_of_pure_shift():
    rng = np.random.default_rng(17)
    z = rng.standard_normal((2000, 2))
    v = np.array([0.7, -0.2])
    prof = directional_discrepancy(z + v, z)
    expected = np.abs(np.cos(prof.angles) * v[0] + np.sin(prof.angles) * v[1])
    assert np.abs(prof.g_values - expected).max() <= 1e-12


def test_discrepancy_coarse_euler_vs_leapfrog():
    profiles = harmonic_slice_demo(0.3, 3.0, 2000, np.random.default_rng(18))
    assert profiles["euler"].mean_g >= 5.0 * profiles["leapfrog"].mean_g


def test_discrepancy_small_at_matching_step():
    profiles = harmonic_slice_demo(0.003, 3.0, 1000, np.random.default_rng(19))
    assert profiles["euler"].mean_g <= 0.01
    assert profiles["leapfrog"].mean_g <= 1e-4


# --- CSV emitters ----------------------------------------------------------------


def test_spectrum_csv(tmp_path):
    rep = spectrum_report(np.random.default_rng(20).standard_normal((50, 4)))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(rep, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,eigenvalue"
    assert len(lines) == 5


def test_knn_sweep_csv(tmp_path):
    path = tmp_path / "knn.csv"
    write_knn_sweep_csv([(1, 0.5), (20, 0.75)], str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,accuracy"
    assert lines[2].startswith("20,")


def test_discrepancy_csv_columns(tmp_path):
    profiles = harmonic_slice_demo(0.3, 1.0, 200, np.random.default_rng(21))
    path = tmp_path / "slice.csv"
    write_discrepancy_csv(profiles, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "theta,g_euler,g_leapfrog"
