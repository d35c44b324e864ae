import tracemalloc

import numpy as np
import pytest

from hamjepa import geomtheory
from hamjepa.geomtheory import (
    DIRECTION_BLOCK,
    GaussianCoupling,
    GeometryBudget,
    adversarial_geometry,
    check_joint_spectral_bounds,
    coupling_sample,
    fixed_target_regret,
    gaussian_coupling,
    gibbs_lift_check,
    h_from_sigma,
    maxent_gaussian_entropy_gap,
    minimax_covariance,
    price_of_isotropy,
    sample_feasible_covariance,
    sampled_worst_case_variance,
    symplectic_factorize,
    symplectic_form,
    whiten,
    worst_case_variance,
)
from hamjepa.numlin import SPDOperator, SymMatrix, cholesky_factor, spd_inverse, spd_sqrt, sym_eig


def random_spd(rng, d, shift=1.0):
    w = rng.standard_normal((d, d))
    return w @ w.T + shift * np.eye(d)


# --- worst-case task variance -----------------------------------------------


def test_worst_case_variance_identity():
    rep = worst_case_variance(SymMatrix(np.eye(2)), SPDOperator(np.eye(2)))
    assert abs(rep.value - 1.0) < 1e-12


def test_worst_case_variance_rank_one():
    rep = worst_case_variance(SymMatrix(np.diag([1.0, 0.0])), SPDOperator(np.eye(2)))
    assert abs(rep.value - 1.0) < 1e-12
    assert np.allclose(np.abs(rep.maximizer_w), [1.0, 0.0], atol=1e-10)


def test_worst_case_variance_maximizer_feasible():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        h = SPDOperator(random_spd(rng, d))
        sigma = SymMatrix(random_spd(rng, d, 0.1))
        rep = worst_case_variance(sigma, h)
        hinv = np.linalg.inv(h.entries)
        feas = rep.maximizer_w @ hinv @ rep.maximizer_w
        assert abs(feas - 1.0) <= 1e-8
        attained = rep.maximizer_w @ sigma.entries @ rep.maximizer_w
        assert abs(attained - rep.value) <= 1e-8 * max(1.0, rep.value)


def test_worst_case_variance_matches_direction_sampling_seed2():
    rng = np.random.default_rng(2)
    sigma = SymMatrix(random_spd(rng, 6, 0.2))
    h = SPDOperator(random_spd(rng, 6, 0.5))
    analytic = worst_case_variance(sigma, h).value
    sampled = sampled_worst_case_variance(sigma, h, 100_000, np.random.default_rng(2))
    assert abs(analytic - sampled) / analytic <= 1e-3


@pytest.mark.parametrize("d", range(2, 9))
def test_sampled_worst_case_variance_matches_top_eigenvalue(d):
    rng = np.random.default_rng(100 + d)
    sigma = SymMatrix(random_spd(rng, d, 0.2))
    hmat = random_spd(rng, d, 0.5)
    # independent of the package's spectral route: LAPACK on L' Sigma L,
    # which has the eigenvalues of H^{1/2} Sigma H^{1/2}
    chol = np.linalg.cholesky(hmat)
    exact = np.linalg.eigvalsh(chol.T @ sigma.entries @ chol)[-1]
    sampled = sampled_worst_case_variance(sigma, SPDOperator(hmat), 100_000, rng)
    assert sampled <= exact * (1 + 1e-12)
    assert abs(exact - sampled) / exact <= 2e-3


def _one_draw_worst_case_variance(sigma, h, n_samples, rng):
    """sampled_worst_case_variance as it was before its sampling stage went
    in blocks: all n_samples directions in one draw, scored at once."""
    hroot = spd_sqrt(h).entries
    a = hroot @ sigma.entries @ hroot
    best, best_val = geomtheory._best_direction(rng.standard_normal((n_samples, h.dim)), a)
    step = 0.3
    for _ in range(geomtheory.POLISH_ROUNDS):
        probes = best + step * rng.standard_normal((24, h.dim))
        cand, cand_val = geomtheory._best_direction(probes, a)
        if cand_val > best_val:
            best, best_val = cand, cand_val
        else:
            step *= 0.7
        if step < 1e-8:
            break
    return best_val


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize(
    "n", [1, DIRECTION_BLOCK - 1, DIRECTION_BLOCK, DIRECTION_BLOCK + 1, 100_000]
)
def test_sampled_worst_case_variance_blocks_match_one_draw_bitwise(n, d):
    rng = np.random.default_rng(300 + d)
    sigma = SymMatrix(random_spd(rng, d, 0.2))
    h = SPDOperator(random_spd(rng, d, 0.5))
    blocked, one_draw = np.random.default_rng(n), np.random.default_rng(n)
    assert sampled_worst_case_variance(sigma, h, n, blocked) == _one_draw_worst_case_variance(
        sigma, h, n, one_draw
    )
    assert blocked.bit_generator.state == one_draw.bit_generator.state


def test_sampled_worst_case_variance_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(9)
    sigma = SymMatrix(random_spd(rng, 8, 0.2))
    h = SPDOperator(random_spd(rng, 8, 0.5))
    tracemalloc.start()
    try:
        sampled_worst_case_variance(sigma, h, 100_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20  # one (100000, 8) draw alone is 6.4 MB


def test_worst_case_variance_dim_mismatch():
    with pytest.raises(ValueError):
        worst_case_variance(SymMatrix(np.eye(2)), SPDOperator(np.eye(3)))


# --- minimax covariance ------------------------------------------------------


def test_minimax_identity_geometry():
    star = minimax_covariance(GeometryBudget(SPDOperator(np.eye(3)), 3.0))
    assert np.allclose(star.entries, np.eye(3), atol=1e-12)
    rep = worst_case_variance(star, SPDOperator(np.eye(3)))
    assert abs(rep.value - 1.0) < 1e-12


def test_minimax_diagonal_case():
    h = SPDOperator(np.diag([3.0, 1.0]))
    b = GeometryBudget(h, 1.0)
    star = minimax_covariance(b)
    assert np.allclose(star.entries, 0.5 * np.diag([1.0 / 3.0, 1.0]), atol=1e-12)
    assert abs(worst_case_variance(star, h).value - 0.5) < 1e-12
    # feasible alternatives never do better
    for cand in sample_feasible_covariance(b, 10_000, np.random.default_rng(14)):
        assert worst_case_variance(SymMatrix(cand), h).value >= 0.5 - 1e-6


def reference_feasible_covariance(b, rng):
    """The single-draw sampler the batched one replaced, kept as its reference."""
    w = rng.standard_normal((b.d, b.d))
    raw = w.T @ w + 1e-6 * np.eye(b.d)
    scale = b.c / float(np.trace(b.h.entries @ raw))
    return SymMatrix(scale * raw).entries


@pytest.mark.parametrize("d", range(1, 9))
def test_sample_feasible_covariance_matches_single_draws(d):
    setup = np.random.default_rng(200 + d)
    b = GeometryBudget(SPDOperator(random_spd(setup, d, 0.3)), float(setup.uniform(0.5, 4.0)))
    rng, ref_rng = np.random.default_rng(d), np.random.default_rng(d)
    batch = sample_feasible_covariance(b, 1000, rng)
    ref = np.stack([reference_feasible_covariance(b, ref_rng) for _ in range(1000)])
    assert batch.shape == (1000, d, d)
    assert np.abs(batch - ref).max() <= 1e-15 * np.abs(ref).max()
    # same stream consumed: later draws are unaffected by the batching
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(batch, batch.transpose(0, 2, 1))
    budget = np.einsum("ij,nji->n", b.h.entries, batch)
    assert np.abs(budget - b.c).max() <= 1e-12 * b.c
    np.linalg.cholesky(batch)  # raises unless every draw is positive definite


def test_minimax_budget_and_value():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        h = SPDOperator(random_spd(rng, d))
        c = float(rng.uniform(0.5, 4.0))
        b = GeometryBudget(h, c)
        star = minimax_covariance(b)
        assert abs(np.trace(h.entries @ star.entries) - c) <= 1e-9 * c
        assert abs(worst_case_variance(star, h).value - c / d) <= 1e-9 * c / d


# --- price of isotropy -------------------------------------------------------


def test_price_identity_geometry_is_free():
    _, _, rho = price_of_isotropy(GeometryBudget(SPDOperator(np.eye(5)), 2.0))
    assert abs(rho - 1.0) < 1e-14


def test_price_diagonal_example():
    b = GeometryBudget(SPDOperator(np.diag([3.0, 1.0])), 1.0)
    sigma_iso, v_iso, rho = price_of_isotropy(b)
    assert np.allclose(sigma_iso.entries, 0.25 * np.eye(2))
    assert abs(v_iso - 0.75) < 1e-12
    assert abs(rho - 1.5) < 1e-12
    sampled = sampled_worst_case_variance(
        sigma_iso, b.h, 100_000, np.random.default_rng(3)
    )
    assert abs(v_iso - sampled) / v_iso <= 2e-3


def test_price_near_degenerate_spectrum():
    eps = 1e-3
    h = SPDOperator(np.diag([1.0] + [eps] * 7))
    _, v_iso, rho = price_of_isotropy(GeometryBudget(h, 1.0))
    assert abs(rho - 8.0 / (1.0 + 7.0 * eps)) < 1e-10


def test_rho_bounds_over_random_geometries():
    rng = np.random.default_rng(77)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        h = SPDOperator(random_spd(rng, d, 0.1))
        _, _, rho = price_of_isotropy(GeometryBudget(h, 1.0))
        assert 1.0 - 1e-12 <= rho <= d + 1e-12


# --- whitening ---------------------------------------------------------------


def test_whiten_oracle_covariance_is_isotropic():
    rng = np.random.default_rng(4)
    h = SPDOperator(random_spd(rng, 4))
    hinv = np.linalg.inv(h.entries)
    for alpha in (0.1, 1.0, 10.0):
        w = whiten(SymMatrix(alpha * hinv), h)
        assert np.abs(w.entries - alpha * np.eye(4)).max() <= 1e-10


def test_whiten_matches_monte_carlo_seed9():
    rng = np.random.default_rng(9)
    raw_s = random_spd(rng, 4, 0.5)
    raw_h = random_spd(rng, 4, 0.5)
    sigma = SymMatrix(4.0 * raw_s / np.trace(raw_s))
    h = SPDOperator(4.0 * raw_h / np.trace(raw_h))
    target = whiten(sigma, h)

    mc = np.random.default_rng(9)
    L = cholesky_factor(sigma.entries)
    z = mc.standard_normal((100_000, 4)) @ L.T
    from hamjepa.numlin import spd_sqrt

    zp = z @ spd_sqrt(h).entries
    zp -= zp.mean(axis=0)
    emp = zp.T @ zp / len(zp)
    assert np.abs(emp - target.entries).max() <= 5e-2


# --- Gibbs lift --------------------------------------------------------------


def test_gibbs_lift_mean_energy():
    b = GeometryBudget(SPDOperator(np.eye(2)), 2.0)
    _, _, mean_energy = gibbs_lift_check(b, 100_000, np.random.default_rng(0))
    assert abs(mean_energy - 2.0) <= 0.05


def test_gibbs_lift_q_covariance():
    b = GeometryBudget(SPDOperator(np.diag([4.0, 1.0])), 2.0)
    q_err, p_err, _ = gibbs_lift_check(b, 100_000, np.random.default_rng(1))
    # Cov(q) should be diag(0.25, 1) within Monte Carlo noise
    assert q_err <= 0.05
    assert p_err <= 0.05


def test_gibbs_lift_errors_shrink_with_samples():
    b = GeometryBudget(SPDOperator(np.eye(3)), 3.0)
    q1, p1, _ = gibbs_lift_check(b, 10_000, np.random.default_rng(5))
    q2, p2, _ = gibbs_lift_check(b, 160_000, np.random.default_rng(5))
    assert q2 < q1 * 0.6
    assert p2 < p1 * 0.6


def test_gibbs_lift_check_matches_the_direct_expressions_bitwise():
    b = GeometryBudget(SPDOperator(random_spd(np.random.default_rng(11), 3)), 2.5)
    got = gibbs_lift_check(b, 20_000, np.random.default_rng(12))
    # the sampler's expressions with out-of-place products and both centered copies
    rng, n, d, scale = np.random.default_rng(12), 20_000, 3, 2.5 / 3
    eig = sym_eig(SymMatrix(b.h.entries))
    q = rng.standard_normal((n, d)) * np.sqrt(scale / eig.eigenvalues)
    q = q @ eig.eigenvectors.T
    p = np.sqrt(scale) * rng.standard_normal((n, d))
    q_c = q - q.mean(axis=0)
    p_c = p - p.mean(axis=0)
    cov_q = q_c.T @ q_c / n
    cov_p = p_c.T @ p_c / n
    energy = 0.5 * np.einsum("ni,ij,nj->n", q, b.h.entries, q) + 0.5 * np.sum(p * p, axis=1)
    assert got == (
        float(np.abs(cov_q - scale * spd_inverse(b.h).entries).max()),
        float(np.abs(cov_p - scale * np.eye(d)).max()),
        float(energy.mean()),
    )


def test_gibbs_lift_rejects_small_samples():
    with pytest.raises(ValueError):
        gibbs_lift_check(GeometryBudget(SPDOperator(np.eye(2)), 1.0), 100, np.random.default_rng(0))


# --- oracle family spans the SPD cone ---------------------------------------


def test_h_from_sigma_identity():
    h = h_from_sigma(SPDOperator(np.eye(3)), 3.0)
    assert np.allclose(h.entries, np.eye(3))


def test_h_from_sigma_diagonal():
    h = h_from_sigma(SPDOperator(np.diag([2.0, 0.5])), 2.0)
    assert np.allclose(h.entries, np.diag([0.5, 2.0]))


def test_h_from_sigma_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = int(rng.integers(2, 17))
        sigma = SPDOperator(random_spd(rng, d, 0.5))
        c = float(rng.uniform(0.5, 3.0))
        h = h_from_sigma(sigma, c)
        back = minimax_covariance(GeometryBudget(h, c))
        err = np.abs(back.entries - sigma.entries).max()
        assert err <= 1e-9 * np.abs(sigma.entries).max()


# --- fixed targets and the adversarial geometry ------------------------------


def test_fixed_target_oracle_shape_has_no_regret():
    rng = np.random.default_rng(13)
    h = SPDOperator(random_spd(rng, 3))
    m = SPDOperator(np.linalg.inv(h.entries))
    _, regret = fixed_target_regret(m, h, 1.0)
    assert abs(regret - 1.0) <= 1e-9


def test_fixed_target_diagonal_example():
    sigma_m, regret = fixed_target_regret(
        SPDOperator(np.eye(2)), SPDOperator(np.diag([3.0, 1.0])), 1.0
    )
    assert np.allclose(sigma_m.entries, 0.25 * np.eye(2))
    assert abs(regret - 1.5) < 1e-12


def test_regret_bounds_over_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        m = SPDOperator(random_spd(rng, d, 0.2))
        h = SPDOperator(random_spd(rng, d, 0.2))
        _, regret = fixed_target_regret(m, h, 1.0)
        assert 1.0 - 1e-9 <= regret <= d + 1e-9


def test_adversarial_geometry_trivial_delta():
    h = adversarial_geometry(SPDOperator(np.eye(3)), 1.0)
    assert np.allclose(h.entries, np.eye(3), atol=1e-10)
    _, regret = fixed_target_regret(SPDOperator(np.eye(3)), h, 1.0)
    assert abs(regret - 1.0) <= 1e-9


def test_adversarial_geometry_identity_target():
    m = SPDOperator(np.eye(4))
    h = adversarial_geometry(m, 0.1)
    _, regret = fixed_target_regret(m, h, 1.0)
    assert abs(regret - 4.0 / 1.3) <= 1e-6


def test_adversarial_geometry_random_target():
    rng = np.random.default_rng(17)
    m = SPDOperator(random_spd(rng, 3))
    h = adversarial_geometry(m, 0.01)
    _, regret = fixed_target_regret(m, h, 2.0)
    assert abs(regret - 3.0 / 1.02) <= 1e-6


def test_adversarial_geometry_drives_regret_toward_dim():
    rng = np.random.default_rng(18)
    for d in (3, 4, 5):
        m = SPDOperator(random_spd(rng, d))
        h = adversarial_geometry(m, 1e-3)
        _, regret = fixed_target_regret(m, h, 1.0)
        assert regret >= d - 0.05 * d


# --- Gaussian couplings ------------------------------------------------------


def test_coupling_independence_at_zero():
    c = gaussian_coupling(SPDOperator(np.eye(2)), 0.0)
    assert np.allclose(c.predictor, 0.0)
    assert np.allclose(c.cross, 0.0)


def test_coupling_slope_recovered_from_samples():
    c = gaussian_coupling(SPDOperator(np.eye(2)), 0.5)
    z_a, z_b = coupling_sample(c, 100_000, np.random.default_rng(7))
    slope = float(np.sum(z_a * z_b) / np.sum(z_a * z_a))
    assert abs(slope - 0.5) <= 0.02


@pytest.mark.parametrize("t", [-0.9, 0.0, 0.5, 0.9])
def test_coupling_sample_matches_the_direct_expression_bitwise(t):
    c = gaussian_coupling(SPDOperator(random_spd(np.random.default_rng(13), 2, 0.5)), t)
    z_a, z_b = coupling_sample(c, 10_000, np.random.default_rng(14))
    rng, chol = np.random.default_rng(14), cholesky_factor(c.sigma.entries)
    ref_a = rng.standard_normal((10_000, 2)) @ chol.T
    fresh = rng.standard_normal((10_000, 2)) @ chol.T
    ref_b = t * ref_a + np.sqrt(1.0 - t * t) * fresh
    assert z_a.tobytes() == ref_a.tobytes() and z_b.tobytes() == ref_b.tobytes()


def test_coupling_near_unit_strength_still_definite():
    c = gaussian_coupling(SPDOperator(np.eye(2)), 0.999)
    assert np.allclose(c.predictor, 0.999 * np.eye(2))


def test_coupling_rejects_unit_strength():
    with pytest.raises(ValueError):
        gaussian_coupling(SPDOperator(np.eye(2)), 1.0)


def test_couplings_share_marginal_but_differ_in_predictor():
    rng = np.random.default_rng(23)
    sigma = SPDOperator(random_spd(rng, 3))
    grid = [-0.9, -0.3, 0.0, 0.4, 0.8]
    couplings = [gaussian_coupling(sigma, t) for t in grid]
    for c in couplings:
        assert np.array_equal(c.sigma.entries, couplings[0].sigma.entries)
    for i, ci in enumerate(couplings):
        for cj in couplings[i + 1 :]:
            assert not np.allclose(ci.predictor, cj.predictor)


# --- joint spectral bounds ---------------------------------------------------


def test_joint_bounds_identity_case():
    ok, lmax_b, lmin_b, kappa_b = check_joint_spectral_bounds(
        SymMatrix(np.eye(2)), c=2.0, r0=2.0, tau=0.0
    )
    assert ok
    assert abs(lmax_b - np.sqrt(2.0)) < 1e-12
    assert abs(lmin_b - np.sqrt(2.0) / 2.0) < 1e-12
    assert abs(kappa_b - 2.0) < 1e-12


def test_joint_bounds_vacuous_for_rank_collapse():
    # trace budget alone permits rank collapse; the log-det floor is violated
    # so no bound claim applies
    c = 3.0
    sigma = SymMatrix(np.diag([c, 0.0, 0.0]))
    ok, *_ = check_joint_spectral_bounds(sigma, c=c, r0=1.5, tau=-5.0)
    assert ok


def test_joint_bounds_on_rejection_sampled_corpus():
    rng = np.random.default_rng(40)
    k, c, r0, tau = 4, 4.0, 2.0, -1.0
    accepted = 0
    attempts = 0
    while accepted < 1000 and attempts < 200_000:
        attempts += 1
        w = rng.standard_normal((k + 2, k))
        raw = w.T @ w
        raw *= c / np.trace(raw)
        ev = np.linalg.eigvalsh(raw)
        if ev.min() <= 0:
            continue
        pr = np.sum(ev) ** 2 / np.sum(ev**2)
        if pr < r0 or np.mean(np.log(ev)) < tau:
            continue
        accepted += 1
        ok, *_ = check_joint_spectral_bounds(SymMatrix(raw), c=c, r0=r0, tau=tau)
        assert ok
    assert accepted == 1000


# --- symplectic factorization -------------------------------------------------


def test_factorize_identity():
    B, d_block, C = symplectic_factorize(np.eye(4))
    assert np.allclose(B, 0.0)
    assert np.allclose(C, 0.0)
    assert np.allclose(d_block, np.eye(2))


def test_factorize_pure_drift():
    a = np.array([[1.0, 0.3], [0.0, 1.0]])
    B, d_block, C = symplectic_factorize(a)
    assert np.allclose(B, [[0.3]])
    assert np.allclose(C, [[0.0]])
    assert np.allclose(d_block, [[1.0]])


def leapfrog_linearization(k_mat, dt):
    d0 = k_mat.shape[0]
    eye = np.eye(d0)
    kick = np.block([[eye, np.zeros((d0, d0))], [-(dt / 2) * k_mat, eye]])
    drift = np.block([[eye, dt * eye], [np.zeros((d0, d0)), eye]])
    return kick @ drift @ kick


def test_factorize_composed_leapfrog_maps():
    rng = np.random.default_rng(55)
    a = np.eye(4)
    for _ in range(5):
        k = random_spd(rng, 2, 0.3)
        a = leapfrog_linearization(k, 0.2) @ a
    J = symplectic_form(2)
    assert np.abs(a.T @ J @ a - J).max() <= 1e-10
    B, d_block, C = symplectic_factorize(a)
    assert np.abs(B - B.T).max() <= 1e-8
    assert np.abs(C - C.T).max() <= 1e-8
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    recon = (
        np.block([[eye, B], [zero, eye]])
        @ np.block([[np.linalg.inv(d_block).T, zero], [zero, d_block]])
        @ np.block([[eye, zero], [C, eye]])
    )
    assert np.abs(recon - a).max() <= 1e-8


def test_factorize_rejects_non_symplectic():
    with pytest.raises(ValueError):
        symplectic_factorize(2.0 * np.eye(4))


# --- maximum entropy ----------------------------------------------------------


def test_maxent_gap_zero_at_oracle():
    rng = np.random.default_rng(60)
    h = SPDOperator(random_spd(rng, 3))
    b = GeometryBudget(h, 2.0)
    gap = maxent_gaussian_entropy_gap(b, minimax_covariance(b))
    assert abs(gap) <= 1e-10


def test_maxent_gap_diagonal_example():
    b = GeometryBudget(SPDOperator(np.eye(2)), 2.0)
    gap = maxent_gaussian_entropy_gap(b, SymMatrix(np.diag([1.5, 0.5])))
    assert abs(gap - 0.5 * (np.log(1.0) - np.log(0.75))) < 1e-12


def test_maxent_gap_nonnegative_on_feasible_alternatives():
    rng = np.random.default_rng(61)
    h = SPDOperator(random_spd(rng, 4))
    b = GeometryBudget(h, 3.0)
    for alt in sample_feasible_covariance(b, 1000, rng):
        assert maxent_gaussian_entropy_gap(b, SymMatrix(alt)) >= -1e-10


def test_maxent_gap_rejects_budget_violation():
    b = GeometryBudget(SPDOperator(np.eye(2)), 2.0)
    with pytest.raises(ValueError):
        maxent_gaussian_entropy_gap(b, SymMatrix(np.eye(2) * 7.0))


@pytest.mark.parametrize("diag", [[3.0, -1.0], [4.0, -1.0, -1.0]], ids=["one-negative", "two-negative"])
def test_maxent_gap_rejects_indefinite_alternative(diag):
    # on the budget (tr Sigma = c under H = I), but not a covariance
    b = GeometryBudget(SPDOperator(np.eye(len(diag))), 2.0)
    with pytest.raises(ValueError, match="not positive definite"):
        maxent_gaussian_entropy_gap(b, SymMatrix(np.diag(diag)))
