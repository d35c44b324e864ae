import tracemalloc

import numpy as np
import pytest

from hamjepa import hamflow, objectives
from hamjepa.hamflow import PhaseState, RolloutSpec, init_potential, rollout
from hamjepa.numlin import orthonormalize_columns
from hamjepa.objectives import (
    MatchSpec,
    RefreshCache,
    RegularizerSpec,
    SIGREG_ROW_BLOCK,
    SIGRegSpec,
    default_sigreg_knots,
    energy_budget,
    lejepa_prediction_loss,
    mean_penalty,
    orthonormal_projection,
    prediction_loss,
    projected_logdet_floor,
    sigreg_statistic,
    sigreg_value,
    unit_slices,
    variance_floor,
)

RNG = np.random.default_rng


def small_net(d0=2, scale=0.5, seed=7):
    return init_potential(d0, RNG(seed), hidden_dim=8, depth=2, alpha=1.0, scale=scale)


# --- prediction loss ----------------------------------------------------------


def test_prediction_loss_zero_on_self_consistent_pair():
    net = small_net()
    rng = RNG(1)
    s_a = PhaseState(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
    spec = RolloutSpec(0.1, 2)
    s_b = rollout(net, s_a, spec)
    for mode in ("q", "qp"):
        res = prediction_loss(net, s_a, s_b, spec, MatchSpec(mode=mode))
        assert res.loss <= 1e-28


def test_prediction_loss_squared_error_scale():
    # d0 = 1, batch 1, q residual 0.1 -> loss 0.01
    net = init_potential(1, RNG(0), hidden_dim=4, depth=1, alpha=0.0, scale=0.0)
    s_a = PhaseState(np.array([[0.5]]), np.array([[0.0]]))
    spec = RolloutSpec(0.1, 1)
    out = rollout(net, s_a, spec)
    s_b = PhaseState(out.q - 0.1, out.p)
    res = prediction_loss(net, s_a, s_b, spec, MatchSpec(mode="q", p_weight=0.0))
    assert abs(res.loss - 0.01) < 1e-14


def test_prediction_loss_bidirectional_consistent_pair():
    net = small_net(scale=0.8, seed=9)
    rng = RNG(2)
    s_a = PhaseState(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    spec = RolloutSpec(0.1, 2)
    s_b = rollout(net, s_a, spec)
    back = rollout(net, s_b, RolloutSpec(-0.1, 2))
    assert np.abs(back.q - s_a.q).max() <= 1e-11
    res = prediction_loss(net, s_a, s_b, spec, MatchSpec(mode="qp", bidirectional=True))
    assert res.forward_loss <= 1e-28
    assert res.backward_loss <= 1e-22


def test_prediction_loss_detached_target_gets_no_gradient():
    net = small_net()
    rng = RNG(3)
    s_a = PhaseState(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    s_b = PhaseState(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    spec = RolloutSpec(0.1, 2)
    res = prediction_loss(net, s_a, s_b, spec, MatchSpec(mode="q", detach_target=True))
    assert np.array_equal(res.d_target.q, np.zeros((4, 2)))
    assert np.array_equal(res.d_target.p, np.zeros((4, 2)))
    live = prediction_loss(net, s_a, s_b, spec, MatchSpec(mode="q", detach_target=False))
    assert np.abs(live.d_target.q).max() > 0


@pytest.mark.parametrize(
    "match",
    [
        MatchSpec(mode="q", p_weight=0.4, detach_target=False),
        MatchSpec(mode="q", detach_target=False),  # q_K alone: the rollout stops after its drift
    ],
    ids=["p_weight", "q_only"],
)
def test_prediction_loss_gradients_match_fd(match):
    net = small_net(d0=3, scale=0.6, seed=11)
    rng = RNG(4)
    s_a = PhaseState(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    s_b = PhaseState(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    spec = RolloutSpec(0.08, 2)
    res = prediction_loss(net, s_a, s_b, spec, match)

    h = 1e-6
    for b in range(3):
        for i in range(3):
            qp, qm = s_a.q.copy(), s_a.q.copy()
            qp[b, i] += h
            qm[b, i] -= h
            fd = (
                prediction_loss(net, PhaseState(qp, s_a.p), s_b, spec, match).loss
                - prediction_loss(net, PhaseState(qm, s_a.p), s_b, spec, match).loss
            ) / (2 * h)
            assert abs(res.d_source.q[b, i] - fd) <= 1e-4 * max(abs(fd), 1e-5)
            tp, tm = s_b.q.copy(), s_b.q.copy()
            tp[b, i] += h
            tm[b, i] -= h
            fd = (
                prediction_loss(net, s_a, PhaseState(tp, s_b.p), spec, match).loss
                - prediction_loss(net, s_a, PhaseState(tm, s_b.p), spec, match).loss
            ) / (2 * h)
            assert abs(res.d_target.q[b, i] - fd) <= 1e-4 * max(abs(fd), 1e-5)


def _count_force_kernels(monkeypatch) -> dict:
    """Count the calls of hamflow's force evaluation and its reverse pass."""
    calls = {"_eval_force": 0, "_force_backward": 0}
    for name in calls:
        kernel = getattr(hamflow, name)

        def counted(*args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(hamflow, name, counted)
    return calls


def _full_rollout(net, state, spec, record=False, final_kick=True):
    """``rollout`` that always takes the final kick."""
    return rollout(net, state, spec, record=record)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("steps", [1, 2, 8])
@pytest.mark.parametrize("bidirectional", [False, True], ids=["uni", "bi"])
@pytest.mark.parametrize("detach_target", [True, False], ids=["detached", "live"])
def test_q_only_match_stops_the_rollout_and_keeps_every_bit(
    monkeypatch, steps, bidirectional, detach_target
):
    net = small_net(d0=3, scale=0.6, seed=11)
    rng = RNG(6)
    s_a = PhaseState(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)))
    s_b = PhaseState(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)))
    spec = RolloutSpec(0.08, steps)
    match = MatchSpec(mode="q", detach_target=detach_target, bidirectional=bidirectional)
    directions = 2 if bidirectional else 1
    calls = _count_force_kernels(monkeypatch)

    res = prediction_loss(net, s_a, s_b, spec, match)
    # K force evaluations and K Hessian-vector products per direction
    assert calls == {"_eval_force": directions * steps, "_force_backward": directions * steps}

    # the reference: the full rollout and its tape's reverse pass with dp = 0
    monkeypatch.setattr(objectives, "rollout", _full_rollout)
    calls.update(_eval_force=0, _force_backward=0)
    ref = prediction_loss(net, s_a, s_b, spec, match)
    full = directions * (steps + 1)
    assert calls == {"_eval_force": full, "_force_backward": full}

    for field in ("loss", "forward_loss", "backward_loss"):
        assert _same_bits(getattr(res, field), getattr(ref, field)), field
    for got, want in ((res.d_source, ref.d_source), (res.d_target, ref.d_target)):
        assert _same_bits(got.q, want.q) and _same_bits(got.p, want.p)
    got_grads = res.net_grads.d_weights + res.net_grads.d_biases
    ref_grads = ref.net_grads.d_weights + ref.net_grads.d_biases
    assert all(_same_bits(got, want) for got, want in zip(got_grads, ref_grads))


@pytest.mark.parametrize(
    "match",
    [MatchSpec(mode="qp", bidirectional=True), MatchSpec(mode="q", p_weight=0.3, bidirectional=True)],
    ids=["qp", "p_weight"],
)
def test_a_match_that_reads_p_takes_the_final_kick(monkeypatch, match):
    net = small_net(d0=3, scale=0.6, seed=11)
    rng = RNG(7)
    s_a = PhaseState(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)))
    s_b = PhaseState(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)))
    calls = _count_force_kernels(monkeypatch)
    prediction_loss(net, s_a, s_b, RolloutSpec(0.08, 3), match)
    assert calls == {"_eval_force": 2 * 4, "_force_backward": 2 * 4}


def test_prediction_loss_rejects_mismatched_batches():
    net = small_net()
    a = PhaseState(np.zeros((3, 2)), np.zeros((3, 2)))
    b = PhaseState(np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        prediction_loss(net, a, b, RolloutSpec(0.1, 1), MatchSpec())


# --- baseline prediction loss ---------------------------------------------------


def test_lejepa_identical_views():
    z = np.tile(RNG(0).standard_normal((1, 4, 3)), (3, 1, 1))
    loss, grad = lejepa_prediction_loss(z)
    assert loss <= 1e-30  # the mean of three equal floats may round off them
    assert np.allclose(grad, 0.0)


def test_lejepa_two_point_example():
    z = np.array([0.0, 2.0]).reshape(2, 1, 1)
    loss, _ = lejepa_prediction_loss(z)
    assert abs(loss - 0.5) < 1e-15


def test_lejepa_quadratic_homogeneity():
    z = RNG(5).standard_normal((3, 6, 4))
    base, _ = lejepa_prediction_loss(z)
    scaled, _ = lejepa_prediction_loss(3.0 * z)
    assert abs(scaled - 9.0 * base) < 1e-12 * max(1.0, scaled)


def test_lejepa_gradient_matches_fd():
    z = RNG(6).standard_normal((3, 4, 2))
    _, grad = lejepa_prediction_loss(z)
    h = 1e-6
    rng = RNG(7)
    for _ in range(10):
        v, b, j = (int(rng.integers(0, s)) for s in z.shape)
        zp, zm = z.copy(), z.copy()
        zp[v, b, j] += h
        zm[v, b, j] -= h
        fd = (lejepa_prediction_loss(zp)[0] - lejepa_prediction_loss(zm)[0]) / (2 * h)
        assert abs(grad[v, b, j] - fd) <= 1e-5 * max(abs(fd), 1e-6)


# --- energy budget --------------------------------------------------------------


def test_energy_budget_exact_targets():
    reg = RegularizerSpec(alpha_q=1.0, alpha_p=1.0)
    z = np.concatenate([np.ones((4, 2)), -np.ones((4, 2))], axis=1)
    loss, grad = energy_budget(z, reg)
    assert loss == 0.0


def test_energy_budget_all_zero_batch():
    reg = RegularizerSpec(alpha_q=1.0, alpha_p=1.0)
    loss, _ = energy_budget(np.zeros((8, 6)), reg)
    assert abs(loss - 2.0) < 1e-15


def test_energy_budget_matches_naive_reference():
    rng = RNG(6)
    z = rng.standard_normal((10, 8))
    reg = RegularizerSpec(alpha_q=0.7, alpha_p=1.3)
    loss, _ = energy_budget(z, reg)
    mq = sum(z[n, i] ** 2 for n in range(10) for i in range(4)) / 40
    mp = sum(z[n, i] ** 2 for n in range(10) for i in range(4, 8)) / 40
    naive = (mq - 0.7) ** 2 + (mp - 1.3) ** 2
    assert abs(loss - naive) <= 1e-12


# --- variance floor --------------------------------------------------------------


def test_variance_floor_inactive_above_floor():
    x = RNG(8).standard_normal((50, 4)) * 2.0
    loss, grad = variance_floor(x, 0.5)
    assert loss == 0.0
    assert np.allclose(grad, 0.0)


def test_variance_floor_constant_column():
    x = np.full((10, 1), 3.0)
    loss, _ = variance_floor(x, 0.5)
    assert abs(loss - 0.25) < 1e-3


def test_variance_floor_small_batches_return_zero():
    assert variance_floor(np.ones((1, 3)), 0.5)[0] == 0.0


# --- projected log-det floor -------------------------------------------------------


def make_batch_with_projected_cov(eigs, proj, n, rng):
    """Rows whose centered projected covariance is diag(eigs) exactly."""
    k = proj.shape[1]
    g = rng.standard_normal((n, k))
    g -= g.mean(axis=0)
    q = orthonormalize_columns(g, rng)
    y = q * np.sqrt((n - 1) * np.asarray(eigs))
    return y @ proj.T


def test_logdet_floor_inactive_at_volume_target():
    tau, eps, k = -0.5, 1e-4, 4
    reg = RegularizerSpec(tau=tau, eps=eps, proj_dim=k)
    rng = RNG(9)
    proj = orthonormalize_columns(rng.standard_normal((8, k)), rng)
    x = make_batch_with_projected_cov([np.exp(tau) - eps] * k, proj, 32, rng)
    loss, diag, _ = projected_logdet_floor(x, reg, proj)
    assert abs(diag.logdet_per_dim - tau) < 1e-10
    assert diag.vol_loss <= 1e-20


def test_logdet_floor_detects_rank_collapse():
    reg = RegularizerSpec(tau=0.0, eps=1e-4, proj_dim=4)
    rng = RNG(10)
    proj = orthonormalize_columns(rng.standard_normal((8, 4)), rng)
    x = np.tile(rng.standard_normal(8), (16, 1))  # all rows equal
    loss, diag, _ = projected_logdet_floor(x, reg, proj)
    assert abs(diag.logdet_per_dim - np.log(1e-4)) < 1e-9
    assert loss > 80.0  # (0 - log 1e-4)^2 ~ 84.8


def test_logdet_floor_spike_spectrum_trips_pr_hinge():
    # covariance diag(4, eps, eps, eps): volume can be fine but PR ~ 1
    eps = 1e-4
    reg = RegularizerSpec(tau=-10.0, eps=eps, proj_dim=4, r0_norm=0.5)
    rng = RNG(11)
    proj = orthonormalize_columns(rng.standard_normal((8, 4)), rng)
    x = make_batch_with_projected_cov([4.0 - eps, 0.0, 0.0, 0.0], proj, 32, rng)
    loss, diag, _ = projected_logdet_floor(x, reg, proj)
    assert diag.pr < 1.1
    assert diag.pr_loss > 0.0


@pytest.mark.parametrize(
    "hinges",
    [
        {"tau": 2.0},  # the volume hinge alone
        {"tau": 2.0, "r0_norm": 0.9, "eigmax_frac_ceiling": 0.3},  # all three
    ],
)
def test_logdet_floor_gradient_matches_fd(hinges):
    rng = RNG(31)
    reg = RegularizerSpec(eps=1e-3, proj_dim=4, **hinges)
    proj = orthonormalize_columns(rng.standard_normal((6, 4)), rng)
    x = rng.standard_normal((12, 6)) * np.array([2.0, 1.0, 0.5, 0.3, 0.2, 0.1])
    loss, diag, dx = projected_logdet_floor(x, reg, proj)
    assert diag.vol_loss > 0.0
    h = 1e-6
    for r, c in [(0, 0), (3, 2), (7, 5), (11, 1)]:
        xp, xm = x.copy(), x.copy()
        xp[r, c] += h
        xm[r, c] -= h
        fd = (projected_logdet_floor(xp, reg, proj)[0] - projected_logdet_floor(xm, reg, proj)[0]) / (2 * h)
        assert abs(dx[r, c] - fd) <= 1e-6 * max(abs(fd), 1e-3)


def test_logdet_floor_nonfinite_batch_is_fatal():
    rng = RNG(32)
    reg = RegularizerSpec(proj_dim=2)
    proj = orthonormalize_columns(rng.standard_normal((4, 2)), rng)
    x = rng.standard_normal((8, 4))
    x[3, 1] = np.nan
    with pytest.raises(FloatingPointError, match="lost definiteness"):
        projected_logdet_floor(x, reg, proj)


def test_logdet_spike_family_keeps_volume_while_pr_collapses():
    # eigenvalue family (e^{k tau} eps^{-(k-1)}, eps, ..., eps)
    k, tau, eps = 4, 0.0, 1e-4
    eigs = np.array([np.exp(k * tau) * eps ** (-(k - 1))] + [eps] * (k - 1))
    lvol = np.mean(np.log(eigs))
    pr = np.sum(eigs) ** 2 / np.sum(eigs**2)
    assert abs(lvol - tau) < 1e-12
    assert pr < 1.1


def test_eigmax_ceiling_hinge():
    eps = 1e-6
    reg = RegularizerSpec(tau=-20.0, eps=eps, proj_dim=3, eigmax_frac_ceiling=0.5)
    rng = RNG(12)
    proj = orthonormalize_columns(rng.standard_normal((6, 3)), rng)
    x = make_batch_with_projected_cov([5.0, 0.1, 0.1], proj, 24, rng)
    loss, diag, _ = projected_logdet_floor(x, reg, proj)
    assert diag.eigmax_frac > 0.9
    assert diag.eig_loss > 0.0


def test_pr_scale_invariance():
    rng = RNG(13)
    w = rng.standard_normal((6, 4))
    cov = w.T @ w
    pr_ref = np.trace(cov) ** 2 / np.trace(cov @ cov)
    for a in (0.01, 1.0, 100.0):
        scaled = a * cov
        pr = np.trace(scaled) ** 2 / np.trace(scaled @ scaled)
        assert abs(pr - pr_ref) <= 1e-12 * pr_ref


def test_budget_does_not_prevent_rank_collapse():
    # rank-1 batch with a perfect energy budget but positive volume penalty
    reg = RegularizerSpec(alpha_q=1.0, alpha_p=1.0, tau=-1.0, eps=1e-4, proj_dim=4)
    n, d0 = 32, 4
    signs = np.resize([1.0, -1.0], n)[:, None]
    q = signs * np.sqrt(d0) * np.eye(d0)[0][None, :]
    p = signs * np.sqrt(d0) * np.eye(d0)[0][None, :]
    z = np.concatenate([q, p], axis=1)
    budget, _ = energy_budget(z, reg)
    assert budget <= 1e-24
    rng = RNG(14)
    proj = orthonormalize_columns(rng.standard_normal((d0, 4)), rng)
    loss, diag, _ = projected_logdet_floor(q, reg, proj)
    assert loss > 0.0
    assert diag.logdet_per_dim < reg.tau


def test_lambda_min_bound_on_rejection_samples():
    # matrices with log det >= k tau and trace <= m keep their smallest
    # eigenvalue above exp(k tau) (k-1)^(k-1) / m^(k-1)
    rng = RNG(15)
    k, tau, m = 4, -1.0, 6.0
    bound = np.exp(k * tau) * (k - 1) ** (k - 1) / m ** (k - 1)
    accepted = 0
    while accepted < 1000:
        w = rng.standard_normal((k + 3, k))
        cov = w.T @ w / (k + 3)
        ev = np.linalg.eigvalsh(cov)
        if ev.min() <= 0 or np.sum(np.log(ev)) < k * tau or np.sum(ev) > m:
            continue
        accepted += 1
        assert ev.min() >= bound * (1 - 1e-12)


# --- mean penalty ------------------------------------------------------------------


def test_mean_penalty_zero_mean():
    x = RNG(16).standard_normal((10, 4))
    loss, _ = mean_penalty(x - x.mean(axis=0))
    assert loss <= 1e-28


def test_mean_penalty_constant_batch():
    loss, _ = mean_penalty(np.full((7, 3), 2.0))
    assert abs(loss - 4.0) < 1e-14


def test_mean_penalty_matches_naive():
    x = RNG(17).standard_normal((9, 5))
    loss, _ = mean_penalty(x)
    naive = np.mean([np.mean(x[:, j]) ** 2 for j in range(5)])
    assert abs(loss - naive) <= 1e-14


# --- sliced characteristic-function statistic ----------------------------------------


def test_sigreg_point_mass_closed_form():
    spec = SIGRegSpec()
    slices = RefreshCache(unit_slices, 4, 16, 16, RNG(18)).get(0)
    n = 50
    stat, _ = sigreg_statistic(np.zeros((n, 4)), spec, slices)
    target = np.exp(-0.5 * spec.knots**2)
    expect = n * np.sum(spec.weights * (1.0 - target) ** 2)
    assert abs(stat - expect) <= 1e-12


def test_sigreg_null_is_small_and_shift_is_loud():
    spec = SIGRegSpec()
    slices = RefreshCache(unit_slices, 8, 64, 16, RNG(9)).get(0)
    z = RNG(123).standard_normal((100_000, 8))
    null, _ = sigreg_statistic(z, spec, slices)
    assert null <= 5.0
    shifted = z.copy()
    shifted[:, 0] += 3.0
    loud, _ = sigreg_statistic(shifted, spec, slices)
    assert loud >= 10.0 * null


def test_sigreg_permutation_invariant():
    spec = SIGRegSpec()
    slices = RefreshCache(unit_slices, 5, 8, 16, RNG(19)).get(0)
    z = RNG(20).standard_normal((200, 5))
    s1, _ = sigreg_statistic(z, spec, slices)
    s2, _ = sigreg_statistic(z[::-1].copy(), spec, slices)
    assert abs(s1 - s2) <= 1e-12


def test_sigreg_spec_validation():
    with pytest.raises(ValueError):
        SIGRegSpec(knots=np.array([1.0, 0.5]), weights=np.array([0.5, 0.5]))
    # the knot-power recurrence needs the grid t_j = j * t_1
    with pytest.raises(ValueError, match="evenly spaced"):
        SIGRegSpec(knots=np.array([0.5, 1.0, 2.0]), weights=np.ones(3))
    with pytest.raises(ValueError, match="evenly spaced"):
        SIGRegSpec(knots=np.array([1.0, 1.5, 2.0]), weights=np.ones(3))
    with pytest.raises(ValueError, match="nonempty"):
        SIGRegSpec(knots=np.array([]), weights=np.array([]))
    with pytest.raises(ValueError, match="one per knot"):
        SIGRegSpec(knots=np.array([1.0, 2.0]), weights=np.ones(3))
    for n_knots, t_max in ((1, 4.0), (17, 4.0), (5, 2.5)):
        knots, weights = default_sigreg_knots(n_knots, t_max)
        SIGRegSpec(knots=knots, weights=weights)


def direct_sigreg(z, spec, slices):
    """The statistic and its gradient from cos and sin of every t_j y."""
    n = z.shape[0]
    kslices = slices.shape[1]
    y = z @ slices  # (n, K)
    ty = y[:, :, None] * spec.knots[None, None, :]  # (n, K, T)
    cos_ty = np.cos(ty)
    sin_ty = np.sin(ty)
    c_hat = cos_ty.mean(axis=0)  # (K, T)
    s_hat = sin_ty.mean(axis=0)
    target = np.exp(-0.5 * spec.knots**2)
    dev_c = c_hat - target[None, :]
    per_slice = n * np.sum(spec.weights[None, :] * (dev_c**2 + s_hat**2), axis=1)
    wt = spec.weights * spec.knots
    dy = (2.0 / kslices) * (
        -(dev_c[None] * wt[None, None]) * sin_ty + (s_hat[None] * wt[None, None]) * cos_ty
    ).sum(axis=2)
    return float(per_slice.mean()), dy @ slices.T


@pytest.mark.parametrize("shift_scale", [(0.0, 1.0), (0.7, 2.5)], ids=["null", "shifted-scaled"])
@pytest.mark.parametrize("n_slices", [1, 8, 64])
@pytest.mark.parametrize("n_knots", [1, 17])
@pytest.mark.parametrize(
    "n", [2, 256, SIGREG_ROW_BLOCK - 1, SIGREG_ROW_BLOCK, SIGREG_ROW_BLOCK + 1, 2500]
)
def test_sigreg_matches_direct_reference(n, n_knots, n_slices, shift_scale):
    knots, weights = default_sigreg_knots(n_knots, 4.0)
    spec = SIGRegSpec(knots=knots, weights=weights)
    slices = unit_slices(RNG(31), 6, n_slices)
    shift, scale = shift_scale
    z = shift + scale * RNG(32).standard_normal((n, 6))
    stat, grad = sigreg_statistic(z, spec, slices)
    assert sigreg_value(z, spec, slices) == stat  # bitwise: the same first pass
    ref_stat, ref_grad = direct_sigreg(z, spec, slices)
    assert abs(stat - ref_stat) <= 1e-12 * abs(ref_stat)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_sigreg_gradient_matches_central_differences():
    spec = SIGRegSpec()
    slices = unit_slices(RNG(33), 3, 5)
    z = 0.3 + 1.4 * RNG(34).standard_normal((7, 3))
    _, grad = sigreg_statistic(z, spec, slices)
    h = 1e-6
    fd = np.empty_like(z)
    for idx in np.ndindex(*z.shape):
        zp, zm = z.copy(), z.copy()
        zp[idx] += h
        zm[idx] -= h
        up, down = sigreg_statistic(zp, spec, slices)[0], sigreg_statistic(zm, spec, slices)[0]
        fd[idx] = (up - down) / (2 * h)
    assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad))


def test_sigreg_memory_is_bounded_by_the_row_block():
    spec = SIGRegSpec()
    slices = unit_slices(RNG(35), 8, 64)
    z = RNG(36).standard_normal((100_000, 8))
    tracemalloc.start()
    try:
        sigreg_statistic(z, spec, slices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_sigreg_value_memory_is_bounded_by_two_block_arrays():
    spec = SIGRegSpec()
    slices = unit_slices(RNG(35), 8, 64)
    z = RNG(36).standard_normal((100_000, 8))
    tracemalloc.start()
    try:
        sigreg_value(z, spec, slices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two (1024, 64) complex arrays are 2 MB; the statistic's buffer is 18 MB
    assert peak <= 4 * 2**20


# --- caches ----------------------------------------------------------------------


@pytest.mark.parametrize("draw", [orthonormal_projection, unit_slices], ids=["projection", "slices"])
def test_projection_cache_refresh_schedule(draw):
    cache = RefreshCache(draw, 8, 4, refresh_interval=16, rng=RNG(21))
    r0 = cache.get(0)
    assert np.array_equal(cache.get(7), r0)  # unchanged within the interval
    assert np.array_equal(cache.get(15), r0)
    r1 = cache.get(16)
    assert not np.array_equal(r1, r0)
    assert np.array_equal(cache.get(16), r1)  # one draw per refresh step
    # the same generator drawn directly gives the same sequence
    rng = RNG(21)
    assert np.array_equal(draw(rng, 8, 4), r0)
    assert np.array_equal(draw(rng, 8, 4), r1)


def test_projection_draw_is_orthonormal():
    r = orthonormal_projection(RNG(21), 8, 4)
    assert np.abs(r.T @ r - np.eye(4)).max() <= 1e-10


def test_slice_cache_unit_columns():
    cache = RefreshCache(unit_slices, 6, 10, refresh_interval=4, rng=RNG(22))
    a = cache.get(0)
    assert np.abs(np.sqrt(np.sum(a * a, axis=0)) - 1.0).max() <= 1e-12


def test_regularizers_finite_at_minimum_batch():
    reg = RegularizerSpec(proj_dim=2)
    rng = RNG(24)
    small = rng.standard_normal((2, 4))
    proj = orthonormalize_columns(rng.standard_normal((2, 2)), rng)
    for value in (
        energy_budget(small, reg)[0],
        variance_floor(small[:, :2], 0.5)[0],
        mean_penalty(small)[0],
        projected_logdet_floor(small[:, :2], reg, proj)[0],
    ):
        assert np.isfinite(value)
