import warnings

import numpy as np
import pytest

from hamjepa.numlin import (
    EigenConvergenceError,
    NotPositiveDefiniteError,
    SPDOperator,
    SymMatrix,
    _round_robin,
    cholesky_factor,
    orthonormalize_columns,
    spd_inverse,
    spd_sqrt,
    sym_eig,
)


def random_spd(rng, d, shift=None):
    w = rng.standard_normal((d, d))
    return w @ w.T + (shift if shift is not None else d) * np.eye(d)


@pytest.fixture(scope="module")
def spd_corpus():
    rng = np.random.default_rng(11)
    mats = [random_spd(rng, int(rng.integers(2, 65))) for _ in range(100)]
    return [(m, sym_eig(SymMatrix(m))) for m in mats]


def test_symmatrix_is_exactly_symmetric():
    a = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
    assert np.array_equal(a.entries, a.entries.T)
    assert a.dim == 2


def test_spd_construction_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        SPDOperator(np.diag([1.0, -1.0]))
    h = SPDOperator(np.diag([2.0, 1.0]))
    assert np.isclose(h.logdet(), np.log(2.0))


def test_sym_eig_diagonal_cases():
    e = sym_eig(SymMatrix(np.diag([3.0, 1.0])))
    assert np.allclose(e.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(e.eigenvectors), np.eye(2))

    e4 = sym_eig(SymMatrix(np.eye(4)))
    assert np.allclose(e4.eigenvalues, 1.0)


def test_sym_eig_matches_charpoly_oracle_seed7():
    # Expected values computed once with an independent oracle:
    # characteristic-polynomial coefficients via Faddeev-LeVerrier, roots via
    # the companion matrix (np.roots).  Frozen here.
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8))
    a = 0.5 * (a + a.T)
    oracle = np.array(
        [
            1.991610512939913e00,
            1.333580401997219e00,
            2.917593843448679e-01,
            -2.216822608420536e-03,
            -8.007426602420548e-01,
            -1.968329641701425e00,
            -2.797910482014244e00,
            -4.062554111100679e00,
        ]
    )
    e = sym_eig(SymMatrix(a))
    assert np.abs(e.eigenvalues - oracle).max() < 1e-8


def test_sym_eig_reconstruction_and_orthogonality():
    rng = np.random.default_rng(0)
    for d in [1, 2, 3, 4, 5, 7, 8, 16, 33, 64]:
        a = rng.standard_normal((d, d))
        a = 0.5 * (a + a.T)
        e = sym_eig(SymMatrix(a))
        recon = e.eigenvectors @ (e.eigenvalues[:, None] * e.eigenvectors.T)
        scale = max(np.abs(a).max(), 1e-300)
        assert np.abs(recon - a).max() <= 1e-10 * scale
        assert np.abs(e.eigenvectors.T @ e.eigenvectors - np.eye(d)).max() <= 1e-10
        assert np.all(np.diff(e.eigenvalues) <= 0)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 9])
def test_round_robin_covers_each_pair_once_per_sweep(n):
    seen = []
    for idx in _round_robin(n):
        h = len(idx) // 4
        p, q = idx[2 * h : 3 * h] // n, idx[2 * h : 3 * h] % n
        assert np.all(p < q)
        assert len(set(p) | set(q)) == 2 * h  # disjoint within a round
        seen += list(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_sym_eig_zero_matrix():
    e = sym_eig(SymMatrix(np.zeros((5, 5))))
    assert np.array_equal(e.eigenvalues, np.zeros(5))
    assert np.array_equal(e.eigenvectors, np.eye(5))


def test_sym_eig_repeated_eigenvalues():
    a = np.kron(np.eye(4), [[2.0, 1.0], [1.0, 2.0]])
    e = sym_eig(SymMatrix(a))
    assert np.abs(e.eigenvalues - np.repeat([3.0, 1.0], 4)).max() <= 1e-14
    recon = e.eigenvectors @ (e.eigenvalues[:, None] * e.eigenvectors.T)
    assert np.abs(recon - a).max() <= 1e-14
    assert np.abs(e.eigenvectors.T @ e.eigenvectors - np.eye(8)).max() <= 1e-14


def test_sym_eig_diagonal_input_is_exact():
    # No sweep runs, so the diagonal comes back bit for bit, sorted, with
    # permutation eigenvectors.
    d = np.array([0.3, -2.0, 7.5, 0.3, 1e-9, -0.0, 4.0])
    e = sym_eig(SymMatrix(np.diag(d)))
    order = np.argsort(-d, kind="stable")
    assert np.array_equal(e.eigenvalues, d[order])
    assert np.array_equal(e.eigenvectors, np.eye(7)[:, order])


@pytest.mark.parametrize("scale", [1e200, 1e-170, 1e300, 1e-300])
def test_sym_eig_outside_the_normal_range(scale):
    # the squared norm overflows or underflows; the rotation must still run
    for a in ([[2.0, 1.0], [1.0, 2.0]], [[2.0, 1.0, 0.5], [1.0, 2.0, -0.3], [0.5, -0.3, 1.0]]):
        a = np.array(a) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = sym_eig(SymMatrix(a))
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.all(np.abs(e.eigenvalues - ref) <= 1e-14 * np.abs(ref))
        assert np.abs(e.eigenvectors.T @ e.eigenvectors - np.eye(len(a))).max() <= 1e-14


def test_sym_eig_deterministic():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((9, 9))
    a = 0.5 * (a + a.T)
    e1 = sym_eig(SymMatrix(a))
    e2 = sym_eig(SymMatrix(a.copy()))
    assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
    assert np.array_equal(e1.eigenvectors, e2.eigenvectors)


def test_spd_eigenvalues_positive():
    rng = np.random.default_rng(5)
    for d in [2, 4, 7]:
        h = SPDOperator(random_spd(rng, d))
        assert np.all(sym_eig(SymMatrix(h.entries)).eigenvalues > 0)


def test_logdet_trivial():
    assert SPDOperator(np.eye(3)).logdet() == 0.0
    assert abs(SPDOperator(np.diag([np.e, np.e])).logdet() - 2.0) < 1e-14


def test_logdet_matches_eig_oracle_seed3():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((5, 5))
    s = w @ w.T + 5 * np.eye(5)
    eig_sum = np.sum(np.log(sym_eig(SymMatrix(s)).eigenvalues))
    assert abs(SPDOperator(s).logdet() - eig_sum) < 1e-9


def test_slogdet_agrees_with_eig_on_random_corpus(spd_corpus):
    for s, eig in spd_corpus:
        lad = SPDOperator(s).logdet()
        assert abs(lad - np.sum(np.log(eig.eigenvalues))) < 1e-8 * max(1.0, abs(lad))


def test_spd_sqrt_trivial_and_diagonal():
    assert np.allclose(spd_sqrt(SPDOperator(np.eye(5))).entries, np.eye(5))
    r = spd_sqrt(SPDOperator(np.diag([4.0, 9.0])))
    assert np.allclose(r.entries, np.diag([2.0, 3.0]))


def test_spd_sqrt_square_reconstructs(spd_corpus):
    for s, _ in spd_corpus:
        r = spd_sqrt(SPDOperator(s))
        err = np.abs(r.entries @ r.entries - s).max()
        assert err <= 1e-9 * np.abs(s).max()
        assert np.array_equal(r.entries, r.entries.T)


def test_spd_inverse():
    rng = np.random.default_rng(21)
    h = SPDOperator(random_spd(rng, 6))
    inv = spd_inverse(h)
    assert np.abs(h.entries @ inv.entries - np.eye(6)).max() < 1e-10


def test_orthonormalize_identity_columns_unchanged():
    m = np.zeros((4, 2))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    rng = np.random.default_rng(0)
    assert np.allclose(orthonormalize_columns(m, rng), m)


def test_orthonormalize_single_column():
    rng = np.random.default_rng(0)
    q = orthonormalize_columns(np.array([[3.0], [4.0]]), rng)
    assert np.allclose(np.abs(q[:, 0]), [0.6, 0.8])


def test_orthonormalize_gram_seed5():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((16, 4))
    q = orthonormalize_columns(m, rng)
    assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-10


def test_orthonormalize_redraws_on_rank_deficiency():
    rng = np.random.default_rng(9)
    m = np.ones((5, 3))  # rank 1, forces a redraw
    q = orthonormalize_columns(m, rng)
    assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-10


def test_cholesky_factor_matches_known():
    a = np.array([[4.0, 2.0], [2.0, 5.0]])
    L = cholesky_factor(a)
    assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])
