"""Numerical certification suite.

Every covariance-geometry, symplecticity, anti-collapse, and training
property that this package claims is registered here as a named check with
an explicit tolerance.  The test suite asserts exactly these checks and the
command-line ``verify`` command runs them, so no claim lives only in tests
or only in the CLI.

Each check is a pure function of its seed (plus the tolerance table).  It
returns (passed, details): its verdict and the measured residuals that
decide it, every bound read from ``TOLERANCES``.  Its ``CHECKS`` key is its
only name, and ``run_checks`` pairs the two into a CheckResult.
"""

import copy
import functools
import hashlib
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import trainer
from .diagnostics import harmonic_slice_demo, knn_accuracy
from .geomtheory import (
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
    population_covariance,
    price_of_isotropy,
    sample_feasible_covariance,
    sampled_worst_case_variance,
    symplectic_factorize,
    symplectic_form,
    whiten,
    worst_case_variance,
)
from .hamflow import (
    PhaseState,
    RolloutSpec,
    energy_path,
    flow_jacobian_fd,
    init_potential,
    potential_eval,
    rollout,
)
from .numlin import SPDOperator, SymMatrix, spd_inverse
from .objectives import (
    MatchSpec,
    RefreshCache,
    RegularizerSpec,
    SIGRegSpec,
    prediction_loss,
    projected_logdet_floor,
    sigreg_value,
    unit_slices,
)
from .trainer import (
    ConfigError,
    OptimizerState,
    ScheduleSpec,
    adamw_step,
    encoder_forward,
    exact_quadratic_flow,
    generate_views,
    hamjepa_loss_and_grads,
    lr_at,
    named_params,
    synthetic_spec_from_config,
    train,
    validate_config,
)

# Every bound a check's verdict compares against; structural zeros and sample
# counts stay in the checks.  Tests may monkeypatch an entry to fail its check.
TOLERANCES = {
    "symplecticity_max": 1e-5,
    "det_max": 1e-5,
    "reversibility_max": 1e-11,
    "reciprocal_sv_max": 1e-4,
    "order_slope_band": 0.1,
    "shadow_energy_factor": 5.0,
    "shadow_slope_max": 1e-9,
    "minimax_rel": 1e-9,
    "minimax_slack": 1e-6,
    "price_analytic": 1e-10,
    "price_oracle_rel": 2e-3,
    "rho_range_slack": 1e-12,
    "regret_formula_max": 1e-6,
    "coupling_slope": 0.02,
    "gibbs_sigmas": 3.0,
    "gradcheck_unit": 1e-4,
    "gradcheck_end_to_end": 1e-3,
    "pr_invariance_max": 1e-12,
    "spike_lvol_max": 1e-12,
    "spike_pr_max": 1.1,
    "lmin_margin_floor": -1e-12,
    "sigreg_null_max": 5.0,
    "sigreg_shift_ratio_min": 10.0,
    "lvol_margin": 0.2,
    "collapse_drop": 2.0,
    "collapse_steps": 200,
    "headline_gap_points": 5.0,
    "slice_ratio_min": 5.0,
    "expressivity_ratio_max": 10.0,
    "maxent_floor": -1e-10,
    "maxent_oracle_max": 1e-10,
    "factorization_max": 1e-8,
    "roundtrip_rel": 1e-9,
    "whiten_max": 1e-10,
}

# Covariances check_minimax draws and scores at a time: bounds its (batch, d, d)
# arrays for any sample count.
MINIMAX_BATCH = 1_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict
    seconds: float


def _random_spd(rng, d, shift=1.0):
    w = rng.standard_normal((d, d))
    return w @ w.T + shift * np.eye(d)


def _random_potential(rng, d0):
    return init_potential(
        d0,
        rng,
        hidden_dim=16,
        depth=2,
        alpha=float(rng.uniform(0.2, 1.5)),
        scale=float(rng.uniform(0.0, 1.0)),
    )


# --- flow checks -----------------------------------------------------------------


def check_symplecticity(seed: int) -> tuple[bool, dict]:
    """Jacobians of 50 random rollouts satisfy D'JD = J with unit
    determinant, to finite-difference precision."""
    rng = np.random.default_rng(seed)
    worst_sympl = worst_det = 0.0
    for _ in range(50):
        d0 = int(rng.integers(2, 5))
        net = _random_potential(rng, d0)
        st = PhaseState(rng.standard_normal(d0), rng.standard_normal(d0))
        spec = RolloutSpec(float(rng.uniform(0.01, 0.2)), int(rng.integers(1, 6)))
        jac = flow_jacobian_fd(net, st, spec, 1e-5)
        J = symplectic_form(d0)
        worst_sympl = max(worst_sympl, float(np.abs(jac.T @ J @ jac - J).max()))
        worst_det = max(worst_det, abs(float(np.linalg.det(jac)) - 1.0))
    ok = worst_sympl <= TOLERANCES["symplecticity_max"] and worst_det <= TOLERANCES["det_max"]
    return ok, {"max_form_residual": worst_sympl, "max_det_error": worst_det}


def check_reversibility(seed: int) -> tuple[bool, dict]:
    """Forward-then-reverse rollouts return the input to float rounding."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        d0 = int(rng.integers(2, 5))
        net = _random_potential(rng, d0)
        st = PhaseState(rng.standard_normal(d0), rng.standard_normal(d0))
        dt = float(rng.uniform(0.01, 0.2))
        K = int(rng.integers(1, 6))
        fwd = rollout(net, st, RolloutSpec(dt, K))
        back = rollout(net, fwd, RolloutSpec(-dt, K))
        worst = max(
            worst,
            float(np.abs(back.q - st.q).max()),
            float(np.abs(back.p - st.p).max()),
        )
    return worst <= TOLERANCES["reversibility_max"], {"max_residual": worst}


def check_reciprocal_singular_values(seed: int) -> tuple[bool, dict]:
    """Singular values of rollout Jacobians pair into reciprocal products."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        d0 = int(rng.integers(2, 5))
        net = _random_potential(rng, d0)
        st = PhaseState(rng.standard_normal(d0), rng.standard_normal(d0))
        spec = RolloutSpec(float(rng.uniform(0.05, 0.2)), int(rng.integers(1, 4)))
        sv = np.sort(np.linalg.svd(flow_jacobian_fd(net, st, spec, 1e-5), compute_uv=False))
        worst = max(worst, float(np.abs(sv * sv[::-1] - 1.0).max()))
    return worst <= TOLERANCES["reciprocal_sv_max"], {"max_pair_error": worst}


def check_convergence_order(seed: int) -> tuple[bool, dict]:
    """Global rollout error against the closed-form oscillator scales as the
    square of the step size."""
    net = init_potential(1, np.random.default_rng(seed), hidden_dim=4, depth=1, alpha=1.0, scale=0.0)
    st = PhaseState(np.array([1.0]), np.array([0.0]))
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = []
    for dt in dts:
        out = rollout(net, st, RolloutSpec(dt, round(1.0 / dt)))
        errs.append(float(np.hypot(out.q[0] - np.cos(1.0), out.p[0] + np.sin(1.0))))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    return abs(slope - 2.0) <= TOLERANCES["order_slope_band"], {"slope": slope, "errors": errs}


def check_shadow_energy(seed: int) -> tuple[bool, dict]:
    """Ten thousand leapfrog steps on a quadratic energy keep the energy
    error bounded by a dt^2 multiple with no secular trend."""
    net = init_potential(1, np.random.default_rng(seed), hidden_dim=4, depth=1, alpha=1.0, scale=0.0)
    dt = 0.05
    n = 10_000
    energy = energy_path(net, PhaseState(np.array([1.0]), np.array([0.0])), RolloutSpec(dt, n))
    drift = energy[1:] - energy[0]
    bound = TOLERANCES["shadow_energy_factor"] * dt * dt
    slope = float(np.polyfit(np.arange(1.0, n + 1.0), drift, 1)[0])
    worst = float(np.abs(drift).max())
    ok = worst <= bound and abs(slope) < TOLERANCES["shadow_slope_max"]
    return ok, {"max_energy_error": worst, "bound": bound, "secular_slope": slope}


def check_gradients(seed: int) -> tuple[bool, dict]:
    """Potential, encoder, and full-step gradients match central finite
    differences at unit and end-to-end tolerances."""
    h = 1e-6
    unit_tol = TOLERANCES["gradcheck_unit"]
    e2e_tol = TOLERANCES["gradcheck_end_to_end"]
    details = {}

    net = init_potential(3, np.random.default_rng(4), hidden_dim=8, depth=2, alpha=0.7, scale=0.9)
    q = np.random.default_rng(5).standard_normal((4, 3))
    _, grad, _ = potential_eval(net, q)
    worst = 0.0
    for b in range(4):
        for i in range(3):
            qp, qm = q.copy(), q.copy()
            qp[b, i] += h
            qm[b, i] -= h
            fd = (potential_eval(net, qp)[0][b] - potential_eval(net, qm)[0][b]) / (2 * h)
            worst = max(worst, abs(grad[b, i] - fd) / max(abs(fd), 1e-6))
    details["potential_rel"] = worst
    ok = worst <= unit_tol

    enc = trainer.init_encoder(6, [8], 4, np.random.default_rng(seed))
    x = np.random.default_rng(seed + 1).standard_normal((5, 6))
    upstream = np.random.default_rng(seed + 2).standard_normal((5, 4))
    state, tape = encoder_forward(enc, x)
    d_w, d_b = trainer.encoder_backward(enc, tape, upstream)

    def enc_loss(e):
        st, _ = encoder_forward(e, x)
        return float(np.sum(upstream * np.concatenate([st.q, st.p], axis=1)))

    worst = 0.0
    rng = np.random.default_rng(seed + 3)
    for _ in range(8):
        li = int(rng.integers(0, len(enc.weights)))
        r = int(rng.integers(0, enc.weights[li].shape[0]))
        c = int(rng.integers(0, enc.weights[li].shape[1]))
        ep, em = copy.deepcopy(enc), copy.deepcopy(enc)
        ep.weights[li][r, c] += h
        em.weights[li][r, c] -= h
        fd = (enc_loss(ep) - enc_loss(em)) / (2 * h)
        worst = max(worst, abs(d_w[li][r, c] - fd) / max(abs(fd), 1e-6))
    details["encoder_rel"] = worst
    ok = ok and worst <= unit_tol

    details["step_rel"] = _end_to_end_gradcheck(seed + 4)
    ok = ok and details["step_rel"] <= e2e_tol
    return ok, details


def _end_to_end_gradcheck(seed: int) -> float:
    """Worst relative error of the full predictive-step gradient against
    finite differences of the total objective on sampled coordinates."""
    cfg = validate_config(
        {
            "seed": seed,
            "hjepa": {},
            "loss": {"detach_target": False},
            "data": {"n_samples": 64, "batch_size": 16},
        }
    )
    spec = synthetic_spec_from_config(cfg)
    va, vb, _ = generate_views(spec, np.random.default_rng(seed))
    va, vb = va[:16], vb[:16]
    enc = trainer.init_encoder(spec.obs_dim, [16, 16], 16, np.random.default_rng(seed + 1))
    net = init_potential(8, np.random.default_rng(seed + 2), hidden_dim=16, depth=2, alpha=1.0, scale=0.5)
    settings = trainer._build_settings(cfg)

    def loss_and_grads(enc2, net2):
        caches = trainer.projection_caches(
            enc.out_dim // 2, settings, np.random.default_rng(seed + 3), np.random.default_rng(seed + 4)
        )
        return hamjepa_loss_and_grads(enc2, net2, va, vb, settings, caches, 0)

    _, grads = loss_and_grads(enc, net)
    h = 1e-6
    rng = np.random.default_rng(seed + 5)
    names = sorted(grads)
    worst = 0.0
    for _ in range(5):
        name = names[int(rng.integers(0, len(names)))]
        g = grads[name]
        sel = tuple(int(rng.integers(0, s)) for s in g.shape)

        def perturbed(eps):
            e2, n2 = copy.deepcopy(enc), copy.deepcopy(net)
            params = named_params("enc", e2.weights, e2.biases)
            params.update(named_params("pot", n2.weights, n2.biases))
            params[name][sel] += eps
            return loss_and_grads(e2, n2)[0]["total"]

        fd = (perturbed(h) - perturbed(-h)) / (2 * h)
        worst = max(worst, abs(g[sel] - fd) / max(abs(fd), 1e-6))
    return worst


# --- geometry checks ----------------------------------------------------------------


def check_minimax(seed: int) -> tuple[bool, dict]:
    """The oracle covariance attains worst-case variance c/d, and no sampled
    budget-feasible covariance beats it."""
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    worst_margin = np.inf
    for _ in range(20):
        d = int(rng.integers(2, 7))
        hmat = _random_spd(rng, d, 0.3)
        h = SPDOperator(hmat)
        c = float(rng.uniform(0.5, 4.0))
        b = GeometryBudget(h, c)
        star = minimax_covariance(b)
        v = worst_case_variance(star, h).value
        worst_rel = max(worst_rel, abs(v - c / d) / (c / d))

        # independent evaluation of sampled alternatives (LAPACK eigensolver),
        # in batches that draw the stream one 10,000-sample call would
        hroot = np.linalg.cholesky(hmat)
        floor = c / d - TOLERANCES["minimax_slack"]
        for start in range(0, 10_000, MINIMAX_BATCH):
            samples = sample_feasible_covariance(b, min(MINIMAX_BATCH, 10_000 - start), rng)
            vals = np.linalg.eigvalsh(hroot.T @ samples @ hroot)[:, -1]
            worst_margin = min(worst_margin, float(vals.min()) - floor)
    ok = worst_rel <= TOLERANCES["minimax_rel"] and worst_margin >= 0
    return ok, {"max_value_rel_err": worst_rel, "min_sample_margin": worst_margin}


def check_price_of_isotropy(seed: int) -> tuple[bool, dict]:
    """The isotropy price matches its closed form exactly and the
    direction-sampling oracle within tolerance, with 1 <= rho <= d."""
    rng = np.random.default_rng(seed)
    worst_formula = worst_oracle = 0.0
    bounds_ok = True
    slack = TOLERANCES["rho_range_slack"]
    for _ in range(200):
        d = int(rng.integers(2, 9))
        h = SPDOperator(_random_spd(rng, d, 0.2))
        c = float(rng.uniform(0.5, 3.0))
        b = GeometryBudget(h, c)
        sigma_iso, v_iso, rho = price_of_isotropy(b)
        eigs = np.linalg.eigvalsh(h.entries)
        formula = d * eigs[-1] / eigs.sum()
        worst_formula = max(worst_formula, abs(rho - formula))
        bounds_ok = bounds_ok and 1.0 - slack <= rho <= d + slack
        sampled = sampled_worst_case_variance(sigma_iso, h, 100_000, rng)
        worst_oracle = max(worst_oracle, abs(v_iso - sampled) / v_iso)
    _, _, rho_eye = price_of_isotropy(GeometryBudget(SPDOperator(np.eye(4)), 1.0))
    ok = (
        worst_formula <= TOLERANCES["price_analytic"]
        and worst_oracle <= TOLERANCES["price_oracle_rel"]
        and bounds_ok
        and rho_eye == 1.0
    )
    return ok, {
        "max_formula_err": worst_formula, "max_oracle_rel_err": worst_oracle, "rho_identity": rho_eye,
    }


def check_no_universal_target(seed: int) -> tuple[bool, dict]:
    """The adversarial geometry drives the fixed-target regret toward the
    dimension, monotonically in delta."""
    rng = np.random.default_rng(seed)
    d = 4
    targets = [SPDOperator(np.eye(d)), SPDOperator(_random_spd(rng, d))]
    deltas = [0.1, 0.01, 0.001]
    min_margin = np.inf
    worst_formula = 0.0
    monotone = True
    for m in targets:
        regrets = []
        for delta in deltas:
            hdelta = adversarial_geometry(m, delta)
            _, regret = fixed_target_regret(m, hdelta, 1.0)
            regrets.append(regret)
            min_margin = min(min_margin, regret - d * (1 - 2 * delta * d))
            worst_formula = max(worst_formula, abs(regret - d / (1 + (d - 1) * delta)))
        monotone = monotone and regrets[0] < regrets[1] < regrets[2] < d
    ok = min_margin >= 0 and monotone and worst_formula <= TOLERANCES["regret_formula_max"]
    return ok, {"min_margin": min_margin, "monotone": monotone, "max_formula_err": worst_formula}


def check_coupling(seed: int) -> tuple[bool, dict]:
    """All couplings share the marginal exactly while the empirical
    conditional-mean slope recovers the coupling strength."""
    rng = np.random.default_rng(seed)
    sigma = SPDOperator(_random_spd(rng, 2, 0.5))
    worst_slope = 0.0
    shared = True
    predictors = []
    for t in (-0.9, 0.0, 0.5, 0.9):
        coupling = gaussian_coupling(sigma, t)
        shared = shared and np.array_equal(coupling.sigma.entries, sigma.entries)
        predictors.append(coupling.predictor)
        z_a, z_b = coupling_sample(coupling, 100_000, rng)
        denom = float(np.sum(z_a * z_a))
        slope = float(np.sum(z_a * z_b)) / denom
        del z_a, z_b  # freed before the next strength draws its pair
        worst_slope = max(worst_slope, abs(slope - t))
    distinct = all(
        not np.allclose(predictors[i], predictors[j])
        for i in range(len(predictors))
        for j in range(i + 1, len(predictors))
    )
    ok = shared and distinct and worst_slope <= TOLERANCES["coupling_slope"]
    details = {"max_slope_err": worst_slope, "marginals_shared": shared, "predictors_distinct": distinct}
    return ok, details


def check_gibbs_lift(seed: int) -> tuple[bool, dict]:
    """Empirical covariances and mean energy of the phase-space Gibbs law
    match their targets within three Monte Carlo standard errors.

    Covariance deviations are scored entrywise against the exact Gaussian
    fourth-moment standard errors SE(C_ij) = sqrt((C_ii C_jj + C_ij^2) / n).
    """
    rng = np.random.default_rng(seed)
    n = 100_000
    worst_sigma = 0.0
    max_norm_errors = []
    cases = [
        (SPDOperator(np.diag([4.0, 1.0])), 2.0),
        (SPDOperator(_random_spd(rng, 3)), float(rng.uniform(1.0, 3.0))),
    ]
    for h, c in cases:
        q_err, p_err, _ = gibbs_lift_check(GeometryBudget(h, c), n, rng)
        max_norm_errors.append((q_err, p_err))
        worst_sigma = max(worst_sigma, _gibbs_deviation_sigmas(h, c, n, rng))
    ok = worst_sigma <= TOLERANCES["gibbs_sigmas"]
    return ok, {"worst_deviation_sigmas": worst_sigma, "max_norm_errors": max_norm_errors}


def _gibbs_deviation_sigmas(h: SPDOperator, c: float, n: int, rng) -> float:
    """Largest deviation, in standard errors, of the empirical covariances
    and mean energy of n fresh draws of the Gibbs law from their targets.
    Its samples are freed on return, before the next case draws its own."""
    d = h.dim
    scale = c / d
    eig = np.linalg.eigh(h.entries)
    q = rng.standard_normal((n, d))
    q *= np.sqrt(scale / eig.eigenvalues)
    q = q @ eig.eigenvectors.T
    p = rng.standard_normal((n, d))
    p *= np.sqrt(scale)
    worst = 0.0
    for samples, target in ((q, scale * spd_inverse(h).entries), (p, scale * np.eye(d))):
        emp = population_covariance(samples)
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        worst = max(worst, float((np.abs(emp - target) / se).max()))
    energy = 0.5 * np.einsum("ni,ij,nj->n", q, h.entries, q) + 0.5 * np.sum(p * p, axis=1)
    se_e = float(energy.std() / np.sqrt(n))
    return max(worst, abs(float(energy.mean()) - c) / se_e)


def check_joint_spectral(seed: int) -> tuple[bool, dict]:
    """No rejection-sampled covariance satisfying the three joint
    constraints violates the eigenvalue or conditioning bounds."""
    rng = np.random.default_rng(seed)
    k, c, r0, tau = 4, 4.0, 2.0, -1.0
    accepted = violations = 0
    attempts = 0
    while accepted < 1000 and attempts < 500_000:
        attempts += 1
        w = rng.standard_normal((k + 2, k))
        raw = w.T @ w
        raw *= c / np.trace(raw)
        ev = np.linalg.eigvalsh(raw)
        if ev.min() <= 0:
            continue
        pr = np.sum(ev) ** 2 / np.sum(ev**2)
        if pr < r0 or float(np.mean(np.log(ev))) < tau:
            continue
        accepted += 1
        ok, *_ = check_joint_spectral_bounds(SymMatrix(raw), c=c, r0=r0, tau=tau)
        violations += int(not ok)
    return accepted == 1000 and violations == 0, {"accepted": accepted, "violations": violations}


def check_maxent(seed: int) -> tuple[bool, dict]:
    """The entropy gap to the oracle Gaussian is nonnegative on feasible
    alternatives and zero at the oracle."""
    rng = np.random.default_rng(seed)
    h = SPDOperator(_random_spd(rng, 4))
    b = GeometryBudget(h, 3.0)
    gap_at_star = maxent_gaussian_entropy_gap(b, minimax_covariance(b))
    min_gap = np.inf
    for alt in sample_feasible_covariance(b, 1000, rng):
        min_gap = min(min_gap, maxent_gaussian_entropy_gap(b, SymMatrix(alt)))
    ok = min_gap >= TOLERANCES["maxent_floor"] and abs(gap_at_star) <= TOLERANCES["maxent_oracle_max"]
    return ok, {"min_gap": min_gap, "gap_at_oracle": gap_at_star}


def check_whiten_and_roundtrip(seed: int) -> tuple[bool, dict]:
    """Whitening the oracle covariance yields a multiple of the identity,
    and the geometry-from-covariance map round-trips the SPD cone."""
    rng = np.random.default_rng(seed)
    worst_white = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        h = SPDOperator(_random_spd(rng, d))
        hinv = spd_inverse(h).entries
        for alpha in (0.1, 1.0, 10.0):
            w = whiten(SymMatrix(alpha * hinv), h)
            worst_white = max(worst_white, float(np.abs(w.entries - alpha * np.eye(d)).max()))
    worst_round = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 17))
        sigma = SPDOperator(_random_spd(rng, d, 0.5))
        c = float(rng.uniform(0.5, 3.0))
        back = minimax_covariance(GeometryBudget(h_from_sigma(sigma, c), c))
        worst_round = max(
            worst_round,
            float(np.abs(back.entries - sigma.entries).max() / np.abs(sigma.entries).max()),
        )
    ok = worst_white <= TOLERANCES["whiten_max"] and worst_round <= TOLERANCES["roundtrip_rel"]
    return ok, {"max_whiten_err": worst_white, "max_roundtrip_rel": worst_round}


def check_symplectic_factorization(seed: int) -> tuple[bool, dict]:
    """Kick-drift-scaling factorization reconstructs composed leapfrog
    linearizations with symmetric shear blocks."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        d0 = int(rng.integers(1, 4))
        eye = np.eye(d0)
        zero = np.zeros((d0, d0))
        a = np.eye(2 * d0)
        for _ in range(5):
            kmat = _random_spd(rng, d0, 0.3)
            dt = float(rng.uniform(0.05, 0.3))
            kick = np.block([[eye, zero], [-(dt / 2) * kmat, eye]])
            drift = np.block([[eye, dt * eye], [zero, eye]])
            a = kick @ drift @ kick @ a
        B, d_block, C = symplectic_factorize(a)
        recon = (
            np.block([[eye, B], [zero, eye]])
            @ np.block([[np.linalg.inv(d_block).T, zero], [zero, d_block]])
            @ np.block([[eye, zero], [C, eye]])
        )
        worst = max(
            worst,
            float(np.abs(recon - a).max()),
            float(np.abs(B - B.T).max()),
            float(np.abs(C - C.T).max()),
        )
    return worst <= TOLERANCES["factorization_max"], {"max_residual": worst}


# --- objective witnesses ---------------------------------------------------------


def check_anti_collapse_witnesses(seed: int) -> tuple[bool, dict]:
    """Each regularizer's role: scale budgets permit rank collapse, volume
    floors catch it, volume alone permits spikes, PR alone ignores scale."""
    rng = np.random.default_rng(seed)
    details = {}

    w = rng.standard_normal((6, 4))
    cov = w.T @ w
    pr_ref = np.trace(cov) ** 2 / np.trace(cov @ cov)
    details["pr_scale_invariance"] = max(
        abs(np.trace((a * cov)) ** 2 / np.trace((a * cov) @ (a * cov)) - pr_ref) / pr_ref
        for a in (0.01, 1.0, 100.0)
    )

    k, tau, eps = 4, 0.0, 1e-4
    spike = np.array([np.exp(k * tau) * eps ** (-(k - 1))] + [eps] * (k - 1))
    details["spike_lvol_err"] = abs(float(np.mean(np.log(spike))) - tau)
    details["spike_pr"] = float(np.sum(spike) ** 2 / np.sum(spike**2))

    reg = RegularizerSpec(tau=-1.0, eps=1e-4, proj_dim=4)
    from .numlin import orthonormalize_columns

    proj = orthonormalize_columns(rng.standard_normal((4, 4)), rng)
    flat = np.tile(rng.standard_normal(4), (16, 1))
    loss_flat, diag_flat, _ = projected_logdet_floor(flat, reg, proj)
    details["collapse_floor_loss"] = loss_flat

    kk, tau2, m = 4, -1.0, 6.0
    bound = np.exp(kk * tau2) * (kk - 1) ** (kk - 1) / m ** (kk - 1)
    worst_margin = np.inf
    accepted = 0
    while accepted < 1000:
        w = rng.standard_normal((kk + 3, kk))
        cc = w.T @ w / (kk + 3)
        ev = np.linalg.eigvalsh(cc)
        if ev.min() <= 0 or np.sum(np.log(ev)) < kk * tau2 or np.sum(ev) > m:
            continue
        accepted += 1
        worst_margin = min(worst_margin, float(ev.min()) - bound)
    details["lmin_bound_margin"] = worst_margin

    ok = (
        details["pr_scale_invariance"] <= TOLERANCES["pr_invariance_max"]
        and details["spike_lvol_err"] <= TOLERANCES["spike_lvol_max"]
        and details["spike_pr"] < TOLERANCES["spike_pr_max"]
        and loss_flat > 0
        and worst_margin >= TOLERANCES["lmin_margin_floor"]
    )
    return ok, details


def check_sigreg_calibration(seed: int) -> tuple[bool, dict]:
    """The sliced-CF statistic is small and stable on the standard normal
    null and grows by an order of magnitude under a mean shift."""
    spec = SIGRegSpec()
    slices = RefreshCache(unit_slices, 8, 64, 16, np.random.default_rng(seed)).get(0)
    rng = np.random.default_rng(seed + 1)
    nulls = []
    for n in (10_000, 100_000):
        z = rng.standard_normal((n, 8))
        nulls.append(sigreg_value(z, spec, slices))
    z[:, 0] += 3.0  # the largest null sample, shifted in place
    loud = sigreg_value(z, spec, slices)
    ok = (
        max(nulls) <= TOLERANCES["sigreg_null_max"]
        and loud >= TOLERANCES["sigreg_shift_ratio_min"] * nulls[-1]
    )
    return ok, {"nulls": nulls, "shifted": loud, "ratio": loud / nulls[-1]}


# --- training checks ----------------------------------------------------------------


# The training runs the checks read, by name: each a raw config without its seed.
_RUNS = {
    "hjepa": {"hjepa": {}, "train": {"epochs": 30}},
    "baseline": {"train": {"epochs": 30}},
    # no anti-collapse weights and live targets: the run that must collapse
    "ablated": {
        "hjepa": {},
        "loss": {"detach_target": False},
        "train": {
            "epochs": 14,
            "lambda_budget": 0.0,
            "lambda_var": 0.0,
            "lambda_logdet": 0.0,
            "lambda_mean": 0.0,
        },
    },
}


@functools.lru_cache(maxsize=len(_RUNS))
def _trained(seed: int, run: str) -> tuple:
    """Train ``_RUNS[run]`` at ``seed``, once per process: the checks that
    read a run share it.  Returns (validated config, step records of its
    ``metrics.jsonl``, trained encoder), which callers only read; the run's
    data is not kept."""
    cfg = validate_config({"seed": seed, **_RUNS[run]})
    state = trainer.build_run(cfg)
    records = tuple(rec for rec in trainer.run_epochs(state) if "epoch_summary" not in rec)
    return cfg, records, state.encoder


def _knn_q20(seed: int, run: str) -> float:
    """kNN@20 of the q readout of ``_trained(seed, run)``, read out as
    ``diagnose`` reads it."""
    cfg, _, enc = _trained(seed, run)
    views_a, labels, cut = trainer.run_first_view(cfg)
    q = trainer.encode_readouts(enc, views_a)["q"]
    return knn_accuracy(q[:cut], labels[:cut], q[cut:], labels[cut:], 20)


def check_anti_collapse_training(seed: int) -> tuple[bool, dict]:
    """The default predictive run keeps the projected log-volume above its
    floor after warmup, while the ablation (no anti-collapse weights, live
    targets) collapses within the step budget."""
    cfg, records, _ = _trained(seed, "hjepa")
    tau = cfg["regularizer"]["q_logdet_floor"]
    warmup = max(cfg["train"]["warmup_epochs"], cfg["hjepa"]["residual_scale_warmup_epochs"])
    lvols = [min(r["lvol_q"], r["lvol_p"]) for r in records if r["epoch"] >= warmup]
    min_lvol = min(lvols, default=np.inf)
    drops = (
        r["step"] for r in _trained(seed, "ablated")[1]
        if r["step"] < TOLERANCES["collapse_steps"]
        and min(r["lvol_q"], r["lvol_p"]) < tau - TOLERANCES["collapse_drop"]
    )
    drop_step = next(drops, None)
    ok = min_lvol >= tau - TOLERANCES["lvol_margin"] and drop_step is not None
    return ok, {"min_lvol_after_warmup": min_lvol, "floor": tau, "collapse_step": drop_step}


def check_headline_gap(seed: int) -> tuple[bool, dict]:
    """The phase-space predictive run beats the mean-of-views baseline on
    the content-readout neighborhood accuracy by the frozen margin."""
    knn_h = _knn_q20(seed, "hjepa")
    knn_b = _knn_q20(seed, "baseline")
    gap = 100.0 * (knn_h - knn_b)
    ok = gap >= TOLERANCES["headline_gap_points"]
    return ok, {"knn_hjepa_q": knn_h, "knn_baseline_q": knn_b, "gap_points": gap}


def check_expressivity(seed: int) -> tuple[bool, dict]:
    """A separable predictor trained on noise-free quadratic transport gets
    within an order of magnitude of the pure-integrator error.

    The predictor is trained directly on the phase-space transport pairs;
    the claim concerns the predictor class, so the encoder is the identity
    here (joint encoder training adds an unrelated optimization floor).
    """
    rng = np.random.default_rng(seed)
    d0, n, dt, steps = 4, 2048, 0.1, 2
    h_true = trainer.default_stiffness(d0, 4.0)
    centers = rng.standard_normal((10, d0))
    labels = rng.integers(0, 10, size=n)
    q0 = centers[labels]
    p0 = rng.standard_normal((n, d0))
    qt, pt = exact_quadratic_flow(h_true, dt * steps, q0, p0)

    net = init_potential(d0, np.random.default_rng(seed + 1), hidden_dim=64, depth=2, alpha=2.0, scale=2.0)
    params = named_params("pot", net.weights, net.biases)
    opt = OptimizerState(weight_decay=0.0)
    spec = RolloutSpec(dt, steps)
    match = MatchSpec("qp", detach_target=True)
    epochs, batch = 150, 256
    sched = ScheduleSpec(
        warmup_epochs=2, total_epochs=epochs, min_lr_ratio=0.05,
        residual_scale_target=2.0, residual_warmup_epochs=0.0,
    )
    shuffle = np.random.default_rng(seed + 2)
    for epoch in range(epochs):
        order = shuffle.permutation(n)
        for b in range(n // batch):
            idx = order[b * batch : (b + 1) * batch]
            res = prediction_loss(
                net, PhaseState(q0[idx], p0[idx]), PhaseState(qt[idx], pt[idx]), spec, match
            )
            grads = named_params("pot", res.net_grads.d_weights, res.net_grads.d_biases)
            lr = lr_at(sched, 5e-3, epoch + (b + 1) / (n // batch))
            adamw_step(opt, params, grads, dict.fromkeys(params, lr))

    pred = rollout(net, PhaseState(q0, p0), spec)
    rmse_model = float(np.sqrt(np.mean((pred.q - qt) ** 2)))
    hmat = h_true.entries
    q, p = q0, p0
    g = q @ hmat.T
    for _ in range(steps):
        ph = p - 0.5 * dt * g
        q = q + dt * ph
        g = q @ hmat.T
        p = ph - 0.5 * dt * g
    rmse_int = float(np.sqrt(np.mean((q - qt) ** 2)))
    ratio = rmse_model / rmse_int
    ok = ratio <= TOLERANCES["expressivity_ratio_max"]
    return ok, {"trained_rmse": rmse_model, "integrator_rmse": rmse_int, "ratio": ratio}


def check_slice_demo(seed: int) -> tuple[bool, dict]:
    """Coarse forward-Euler transport shows a much larger directional
    discrepancy than coarse leapfrog at the same step size."""
    profiles = harmonic_slice_demo(0.3, 3.0, 4000, np.random.default_rng(seed))
    euler, leapfrog = profiles["euler"].mean_g, profiles["leapfrog"].mean_g
    ratio = euler / leapfrog
    ok = ratio >= TOLERANCES["slice_ratio_min"]
    return ok, {"euler_mean_g": euler, "leapfrog_mean_g": leapfrog, "ratio": ratio}


def check_determinism(seed: int) -> tuple[bool, dict]:
    """Identical config and seed give byte-identical training outputs, in
    both modes."""

    def tree_digest(root):
        digests = {}
        for dirpath, _, files in os.walk(root):
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                rel = os.path.relpath(path, root)
                with open(path, "rb") as fh:
                    digests[rel] = hashlib.sha256(fh.read()).hexdigest()
        return digests

    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        for mode, mode_cfg in (("hjepa", {"seed": seed, "hjepa": {}}), ("baseline", {"seed": seed})):
            cfg = dict(mode_cfg)
            cfg["data"] = {"n_samples": 512, "batch_size": 128}
            cfg["train"] = {"epochs": 2, "warmup_epochs": 1, "ckpt_dir": "unused"}
            a = os.path.join(tmp, mode, "a")
            bdir = os.path.join(tmp, mode, "b")
            train(copy.deepcopy(cfg), out_dir=a)
            train(copy.deepcopy(cfg), out_dir=bdir)
            identical = identical and tree_digest(a) == tree_digest(bdir)
    return identical, {"byte_identical": identical}


# --- registry ----------------------------------------------------------------------

CHECKS = {
    "symplecticity": check_symplecticity,
    "reversibility": check_reversibility,
    "reciprocal_singular_values": check_reciprocal_singular_values,
    "convergence_order": check_convergence_order,
    "shadow_energy": check_shadow_energy,
    "gradients": check_gradients,
    "minimax": check_minimax,
    "price_of_isotropy": check_price_of_isotropy,
    "no_universal_target": check_no_universal_target,
    "coupling_nonidentifiability": check_coupling,
    "gibbs_lift": check_gibbs_lift,
    "joint_spectral_bounds": check_joint_spectral,
    "maxent_gap": check_maxent,
    "whiten_and_roundtrip": check_whiten_and_roundtrip,
    "symplectic_factorization": check_symplectic_factorization,
    "anti_collapse_witnesses": check_anti_collapse_witnesses,
    "sigreg_calibration": check_sigreg_calibration,
    "anti_collapse_training": check_anti_collapse_training,
    "headline_gap": check_headline_gap,
    "expressivity": check_expressivity,
    "slice_demo": check_slice_demo,
    "determinism": check_determinism,
}


# The slow checks, slowest first, as pool jobs: the checks of one job run one
# after another in one worker, so the two that read the default hjepa run
# share ``_trained``'s copy of it.  Dispatching the longest jobs first keeps
# a worker from starting a long check when the others are nearly done
# (Graham 1969, SIAM J. Appl. Math. 17(2)).
_SLOW_JOBS = (
    ("anti_collapse_training", "headline_gap"),
    ("expressivity",),
    ("price_of_isotropy",),
    ("shadow_energy",),
    ("sigreg_calibration",),
    ("determinism",),
)


def _selected(names) -> list:
    """The checks ``names`` selects (all when empty), each named once."""
    if not names:
        return list(CHECKS)
    selected = list(names)
    if "" in selected:
        raise ConfigError("empty check name in the filter")
    repeated = sorted({n for n in selected if selected.count(n) > 1})
    if repeated:
        raise ConfigError(f"checks named more than once: {', '.join(repeated)}")
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {', '.join(unknown)}")
    return selected


def dispatch_plan(names=None) -> list:
    """The pool's jobs for the checks ``names`` selects, in dispatch order.

    Each job is a tuple of check names that run back to back in one worker:
    first the entries of ``_SLOW_JOBS``, each cut down to the selected
    checks and dropped when none is left, then every other selected check
    as a job of its own, in the order named.  Raises ConfigError for an
    empty, repeated or unknown name.
    """
    selected = _selected(names)
    jobs = [job for job in (tuple(n for n in slow if n in selected) for slow in _SLOW_JOBS) if job]
    planned = {n for job in jobs for n in job}
    return jobs + [(n,) for n in selected if n not in planned]


def worker_count(n_jobs: int) -> int:
    """Worker processes ``run_checks`` starts for ``n_jobs`` jobs: one per
    CPU this process may run on, at most one per job.  1 means the checks
    run in this process; so does a platform without fork."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, n_jobs))


def _run_one(name: str, seed: int) -> CheckResult:
    """Run and time the check ``name`` at ``seed`` in the calling process."""
    start = time.time()
    passed, details = CHECKS[name](seed)
    return CheckResult(name, bool(passed), details, time.time() - start)


def _run_group(names, seed: int) -> list:
    """Run one job of the dispatch plan, its checks in order, here."""
    return [_run_one(name, seed) for name in names]


def run_checks(names=None, seed: int = 42) -> list:
    """Run the named checks (all by default) and return their results in
    the order named.

    Each check is a pure function of its seed, so the jobs of
    ``dispatch_plan`` run in ``worker_count`` forked worker processes, which
    inherit this process's state: ``TOLERANCES`` and the
    ``trainer.setup_process`` settings included.  The jobs are submitted in
    plan order, slowest first.  Only ``_run_group``, a job's check names
    and the seed go to a worker, which looks each check up in its copy of
    ``CHECKS``.  With one worker the checks run here, one after another, in
    the order named: ``taskset -c 0 hamjepa verify`` is the serial run.
    Each result's ``seconds`` is timed where the check ran.  A check that
    raises stops the run with its exception and cancels the jobs not yet
    started; a worker that dies raises ``BrokenProcessPool``.
    """
    trainer.setup_process()
    selected = _selected(names)
    jobs = dispatch_plan(selected)
    workers = worker_count(len(jobs))
    if workers == 1:
        return [_run_one(name, seed) for name in selected]
    # imported here, as they would add ~5 ms to every command's start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_run_group, job, seed) for job in jobs]
        by_name = {n: r for job, f in zip(jobs, futures) for n, r in zip(job, f.result())}
    finally:
        pool.shutdown(cancel_futures=True)
    return [by_name[name] for name in selected]
