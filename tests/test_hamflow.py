import copy
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hamjepa import hamflow
from hamjepa.geomtheory import symplectic_form
from hamjepa.hamflow import (
    PhaseState,
    PotentialGrads,
    PotentialNet,
    RolloutSpec,
    energy_path,
    flow_jacobian_fd,
    init_potential,
    load_potential,
    potential_eval,
    rollout,
    save_potential,
)


def quadratic_net(d0=1, alpha=1.0):
    return init_potential(d0, np.random.default_rng(0), hidden_dim=4, depth=1, alpha=alpha, scale=0.0)


def free_net(d0=2):
    return init_potential(d0, np.random.default_rng(0), hidden_dim=4, depth=1, alpha=0.0, scale=0.0)


# --- potential ---------------------------------------------------------------


def test_potential_pure_quadratic():
    net = quadratic_net(2)
    value, grad, _ = potential_eval(net, np.array([1.0, 2.0]))
    assert abs(value - 2.5) < 1e-14
    assert np.allclose(grad, [1.0, 2.0])


def test_potential_zero_net():
    net = free_net(3)
    value, grad, _ = potential_eval(net, np.array([0.3, -0.1, 2.0]))
    assert value == 0.0
    assert np.allclose(grad, 0.0)


def test_potential_grad_matches_finite_differences():
    net = init_potential(3, np.random.default_rng(4), hidden_dim=8, depth=2, alpha=0.7, scale=0.9)
    q = np.random.default_rng(5).standard_normal((4, 3))
    _, grad, _ = potential_eval(net, q)
    h = 1e-6
    for b in range(4):
        for i in range(3):
            qp, qm = q.copy(), q.copy()
            qp[b, i] += h
            qm[b, i] -= h
            fd = (potential_eval(net, qp)[0][b] - potential_eval(net, qm)[0][b]) / (2 * h)
            assert abs(grad[b, i] - fd) <= 1e-5 * max(abs(fd), 1e-6)


def test_potential_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        potential_eval(quadratic_net(2), np.array([1.0, 2.0, 3.0]))


def test_potential_nonfinite_fatal_names_layer():
    net = quadratic_net(2)
    with pytest.raises((FloatingPointError, ValueError)):
        potential_eval(net, np.array([np.inf, 0.0]))


# --- energy ------------------------------------------------------------------


def test_energy_kinetic_only():
    net = free_net(2)
    e = energy_path(net, PhaseState(np.zeros(2), np.array([3.0, 4.0])), RolloutSpec(0.1, 1))
    assert abs(e[0] - 12.5) < 1e-14


def test_energy_potential_only():
    net = quadratic_net(2)
    e = energy_path(net, PhaseState(np.array([1.0, 0.0]), np.zeros(2)), RolloutSpec(0.1, 1))
    assert abs(e[0] - 0.5) < 1e-14


def test_energy_is_sum_of_parts():
    net = init_potential(3, np.random.default_rng(1), hidden_dim=8, depth=2, alpha=0.5, scale=0.7)
    rng = np.random.default_rng(2)
    st = PhaseState(rng.standard_normal(3), rng.standard_normal(3))
    v, _, _ = potential_eval(net, st.q)
    t = 0.5 * np.sum(st.p**2)
    assert energy_path(net, st, RolloutSpec(0.1, 1))[0] == t + v


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("dt", [0.07, -0.07])
def test_energy_path_matches_potential_eval_along_the_rollout_bitwise(batched, dt):
    net = init_potential(3, np.random.default_rng(3), hidden_dim=8, depth=2, alpha=0.6, scale=0.9)
    rng = np.random.default_rng(4)
    shape = (5, 3) if batched else (3,)
    st = PhaseState(rng.standard_normal(shape), rng.standard_normal(shape))
    for steps in range(1, 6):
        energy = energy_path(net, st, RolloutSpec(dt, steps))
        assert energy.shape == ((steps + 1, 5) if batched else (steps + 1,))
        for k in range(steps + 1):
            state = st if k == 0 else rollout(net, st, RolloutSpec(dt, k))
            q2d, p2d = np.atleast_2d(state.q), np.atleast_2d(state.p)
            expect = 0.5 * np.sum(p2d * p2d, axis=1) + potential_eval(net, q2d)[0]
            assert _same_bits(energy[k], expect if batched else expect[0])


# --- single steps ------------------------------------------------------------


def test_leapfrog_hand_arithmetic():
    net = quadratic_net(1)
    out = rollout(net, PhaseState(np.array([1.0]), np.array([0.0])), RolloutSpec(0.1, 1))
    # p_half = -0.05, q1 = 0.995, p1 = -0.09975
    assert abs(out.q[0] - 0.995) < 1e-15
    assert abs(out.p[0] - (-0.09975)) < 1e-15


def test_leapfrog_free_particle():
    net = free_net(2)
    st = PhaseState(np.array([1.0, -1.0]), np.array([0.5, 2.0]))
    out = rollout(net, st, RolloutSpec(0.3, 1))
    assert np.allclose(out.q, st.q + 0.3 * st.p)
    assert np.allclose(out.p, st.p)


def test_leapfrog_inverts_with_negated_dt():
    net = init_potential(3, np.random.default_rng(8), hidden_dim=16, depth=2, alpha=1.0, scale=0.8)
    rng = np.random.default_rng(9)
    st = PhaseState(rng.standard_normal(3), rng.standard_normal(3))
    back = rollout(net, rollout(net, st, RolloutSpec(0.1, 1)), RolloutSpec(-0.1, 1))
    assert np.abs(back.q - st.q).max() <= 1e-12
    assert np.abs(back.p - st.p).max() <= 1e-12


# --- rollout -----------------------------------------------------------------


def test_rollout_single_step_reduces_to_step():
    # bit-for-bit against an explicit half-kick / drift / half-kick, for
    # both step signs and for single and batched states
    net = init_potential(2, np.random.default_rng(10), hidden_dim=8, depth=2, alpha=0.9, scale=0.4)
    q1, p1 = np.array([0.2, 0.5]), np.array([-0.3, 0.8])
    for q, p in ((q1, p1), (np.stack([q1, -p1]), np.stack([p1, q1]))):
        for dt in (0.07, -0.07):
            p_half = p - 0.5 * dt * potential_eval(net, q)[1]
            q_new = q + dt * p_half
            p_new = p_half - 0.5 * dt * potential_eval(net, q_new)[1]
            out = rollout(net, PhaseState(q, p), RolloutSpec(dt, 1))
            assert np.array_equal(out.q, q_new)
            assert np.array_equal(out.p, p_new)


def test_rollout_reversibility():
    net = init_potential(3, np.random.default_rng(11), hidden_dim=16, depth=2, alpha=1.0, scale=0.7)
    rng = np.random.default_rng(12)
    st = PhaseState(rng.standard_normal(3), rng.standard_normal(3))
    fwd = rollout(net, st, RolloutSpec(0.1, 2))
    back = rollout(net, fwd, RolloutSpec(-0.1, 2))
    assert np.abs(back.q - st.q).max() <= 1e-11
    assert np.abs(back.p - st.p).max() <= 1e-11


def test_rollout_harmonic_oscillator_accuracy():
    net = quadratic_net(1)
    st = PhaseState(np.array([1.0]), np.array([0.0]))
    out = rollout(net, st, RolloutSpec(0.01, 100))
    err = np.hypot(out.q[0] - np.cos(1.0), out.p[0] + np.sin(1.0))
    assert err <= 2.0 * 0.01**2  # within O(dt^2) of the closed form
    out_half = rollout(net, st, RolloutSpec(0.005, 200))
    err_half = np.hypot(out_half.q[0] - np.cos(1.0), out_half.p[0] + np.sin(1.0))
    assert 3.0 <= err / err_half <= 5.0


def test_rollout_convergence_order_two():
    net = quadratic_net(1)
    st = PhaseState(np.array([1.0]), np.array([0.0]))
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = []
    for dt in dts:
        out = rollout(net, st, RolloutSpec(dt, round(1.0 / dt)))
        errs.append(np.hypot(out.q[0] - np.cos(1.0), out.p[0] + np.sin(1.0)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_rollout_nonfinite_reports_step():
    # an explosive potential: huge alpha with big dt diverges quickly
    net = quadratic_net(1, alpha=1e8)
    st = PhaseState(np.array([1.0]), np.array([0.0]))
    with pytest.raises(FloatingPointError, match="step"):
        rollout(net, st, RolloutSpec(10.0, 50))


def _potential3():
    return init_potential(3, np.random.default_rng(0), hidden_dim=5, depth=2, alpha=1.0, scale=1.0)


def _poisoned_net(where, value):
    net = _potential3()
    kind, layer = where
    (net.weights if kind == "w" else net.biases)[layer].flat[0] = value
    return net


_FINITE_STATE = PhaseState(
    np.random.default_rng(1).standard_normal((4, 3)), np.random.default_rng(2).standard_normal((4, 3))
)


def _step_in_message(exc):
    match = re.search(r"rollout step (\d+)", str(exc))
    return None if match is None else int(match.group(1))


# a poisoned parameter raises in the first force evaluation, before any
# step, so the message names no step
@pytest.mark.parametrize(
    "where, value",
    [
        (where, value)
        for where in (("w", 0), ("w", 1), ("w", 2), ("b", 0), ("b", 2))
        for value in (np.nan, np.inf)
        if where != ("b", 0) or not np.isinf(value)
    ],
)
def test_rollout_nonfinite_weights_raise_at_pinned_step(where, value):
    net = _poisoned_net(where, value)
    with pytest.raises(FloatingPointError) as info:
        rollout(net, _FINITE_STATE, RolloutSpec(0.1, 3), record=True)
    assert _step_in_message(info.value) is None


def test_rollout_saturating_inf_bias_stays_finite():
    # tanh(+inf) = 1 and its derivative is 0, so an infinite first-layer
    # bias leaves every value and gradient finite
    net = _poisoned_net(("b", 0), np.inf)
    out, tape = rollout(net, _FINITE_STATE, RolloutSpec(0.1, 3), record=True)
    assert np.all(np.isfinite(out.q)) and np.all(np.isfinite(out.p))
    dq, dp, _ = tape.backward(np.ones((4, 3)), np.ones((4, 3)))
    assert np.all(np.isfinite(dq)) and np.all(np.isfinite(dp))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_rollout_input_is_rejected_by_the_state(value):
    q = np.zeros(3)
    q[0] = value
    with pytest.raises(ValueError, match="non-finite"):
        PhaseState(q, np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        PhaseState(np.zeros(3), q)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_potential_eval_nonfinite_input_raises(value):
    net = _potential3()
    with pytest.raises(FloatingPointError) as info:
        potential_eval(net, np.array([value, 0.0, 0.0]))
    assert _step_in_message(info.value) is None


@pytest.mark.parametrize(
    "state, dt, steps, step",
    [
        # an unstable step size grows the state until the force overflows
        ("stiff", 10.0, 50, 15),
        # a momentum near the float64 limit overflows the first drift
        ("fast", 10.0, 5, 0),
    ],
)
def test_rollout_overflow_names_the_step(state, dt, steps, step):
    if state == "stiff":
        net = quadratic_net(1, alpha=1e8)
        st = PhaseState(np.array([1.0]), np.array([0.0]))
    else:
        net = _potential3()
        st = PhaseState(_FINITE_STATE.q, _FINITE_STATE.p * 1e307)
    with pytest.raises(FloatingPointError) as info:
        rollout(net, st, RolloutSpec(dt, steps))
    assert _step_in_message(info.value) == step


def test_rollout_spec_validation():
    for dt in (0.0, -0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and nonzero"):
            RolloutSpec(dt, 1)
    with pytest.raises(ValueError):
        RolloutSpec(0.1, 0)
    # a negative dt is a backward step, with the bits of the step
    # h = direction * dt for direction -1 and dt 0.1
    net = init_potential(2, np.random.default_rng(10), hidden_dim=8, depth=2, alpha=0.9, scale=0.4)
    q, p = np.array([0.2, 0.5]), np.array([-0.3, 0.8])
    h = -1 * 0.1
    p_half = p - 0.5 * h * potential_eval(net, q)[1]
    q_new = q + h * p_half
    p_new = p_half - 0.5 * h * potential_eval(net, q_new)[1]
    out = rollout(net, PhaseState(q, p), RolloutSpec(-0.1, 1))
    assert np.array_equal(out.q, q_new) and np.array_equal(out.p, p_new)


# --- FD Jacobian and symplecticity -------------------------------------------


def test_jacobian_free_particle_is_shear():
    net = free_net(2)
    st = PhaseState(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    dt = 0.13
    jac = flow_jacobian_fd(net, st, RolloutSpec(dt, 1), 1e-5)
    expect = np.block(
        [[np.eye(2), dt * np.eye(2)], [np.zeros((2, 2)), np.eye(2)]]
    )
    assert np.abs(jac - expect).max() <= 1e-9


def test_jacobian_symplectic_and_volume_preserving():
    rng = np.random.default_rng(13)
    for _ in range(10):
        d0 = int(rng.integers(2, 5))
        net = init_potential(
            d0, rng, hidden_dim=16, depth=2,
            alpha=float(rng.uniform(0.2, 1.5)), scale=float(rng.uniform(0, 1)),
        )
        st = PhaseState(rng.standard_normal(d0), rng.standard_normal(d0))
        spec = RolloutSpec(float(rng.uniform(0.01, 0.2)), int(rng.integers(1, 4)))
        jac = flow_jacobian_fd(net, st, spec, 1e-5)
        J = symplectic_form(d0)
        assert np.abs(jac.T @ J @ jac - J).max() <= 1e-5
        assert abs(np.linalg.det(jac) - 1.0) <= 1e-5


def test_reciprocal_singular_values():
    rng = np.random.default_rng(14)
    for _ in range(5):
        d0 = int(rng.integers(2, 4))
        net = init_potential(d0, rng, hidden_dim=16, depth=2, alpha=1.0, scale=0.8)
        st = PhaseState(rng.standard_normal(d0), rng.standard_normal(d0))
        jac = flow_jacobian_fd(net, st, RolloutSpec(0.15, 3), 1e-5)
        sv = np.sort(np.linalg.svd(jac, compute_uv=False))
        assert np.abs(sv * sv[::-1] - 1.0).max() <= 1e-4


def test_shadow_energy_bounded_short_run():
    net = quadratic_net(1)
    dt = 0.05
    st = PhaseState(np.array([1.0]), np.array([0.0]))
    energy = energy_path(net, st, RolloutSpec(dt, 1000))
    assert np.abs(energy[1:] - energy[0]).max() <= 5 * dt * dt


# --- gradients through the rollout --------------------------------------------


def test_zero_scale_zeroes_residual_gradients_of_state_loss():
    net = init_potential(2, np.random.default_rng(15), hidden_dim=8, depth=2, alpha=1.0, scale=0.0)
    st = PhaseState(np.array([0.5, -0.5]), np.array([0.2, 0.1]))
    out, tape = rollout(net, st, RolloutSpec(0.1, 2), record=True)
    dq, _, grads = tape.backward(np.ones(2), np.zeros(2))
    for dw in grads.d_weights:
        assert np.allclose(dw, 0.0)
    for db in grads.d_biases:
        assert np.allclose(db, 0.0)
    assert not np.allclose(dq, np.ones(2))  # the quadratic base still acts on the state


def _assert_rollout_gradients_match_fd(final_kick, p_weight):
    net = init_potential(3, np.random.default_rng(4), hidden_dim=8, depth=2, alpha=0.7, scale=0.9)
    rng = np.random.default_rng(5)
    st = PhaseState(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)))
    tgt = rng.standard_normal((2, 3))
    tgt_p = rng.standard_normal((2, 3))
    spec = RolloutSpec(0.08, 2)

    def loss(net2, q0, p0):
        out = rollout(net2, PhaseState(q0, p0), spec, final_kick=final_kick)
        return 0.5 * np.sum((out.q - tgt) ** 2) + 0.5 * p_weight * np.sum((out.p - tgt_p) ** 2)

    out, tape = rollout(net, st, spec, record=True, final_kick=final_kick)
    dq0, dp0, grads = tape.backward(out.q - tgt, p_weight * (out.p - tgt_p))

    h = 1e-6
    for b in range(2):
        for i in range(3):
            qp, qm = st.q.copy(), st.q.copy()
            qp[b, i] += h
            qm[b, i] -= h
            fd = (loss(net, qp, st.p) - loss(net, qm, st.p)) / (2 * h)
            assert abs(dq0[b, i] - fd) <= 1e-4 * max(abs(fd), 1e-4)
            pp, pm = st.p.copy(), st.p.copy()
            pp[b, i] += h
            pm[b, i] -= h
            fd = (loss(net, st.q, pp) - loss(net, st.q, pm)) / (2 * h)
            assert abs(dp0[b, i] - fd) <= 1e-4 * max(abs(fd), 1e-4)

    coords = [(0, 1, 2), (1, 3, 4), (2, 0, 3)]
    for li, r, c in coords:
        np_, nm = copy.deepcopy(net), copy.deepcopy(net)
        np_.weights[li][r, c] += h
        nm.weights[li][r, c] -= h
        fd = (loss(np_, st.q, st.p) - loss(nm, st.q, st.p)) / (2 * h)
        assert abs(grads.d_weights[li][r, c] - fd) <= 1e-4 * max(abs(fd), 1e-4)
    for li, r in [(0, 1), (1, 2)]:
        np_, nm = copy.deepcopy(net), copy.deepcopy(net)
        np_.biases[li][r] += h
        nm.biases[li][r] -= h
        fd = (loss(np_, st.q, st.p) - loss(nm, st.q, st.p)) / (2 * h)
        assert abs(grads.d_biases[li][r] - fd) <= 1e-4 * max(abs(fd), 1e-4)


def test_rollout_gradients_match_finite_differences():
    _assert_rollout_gradients_match_fd(final_kick=True, p_weight=0.0)


def test_stopped_rollout_adjoint_matches_finite_differences():
    # the tape of (q_0, p_0) -> (q_K, p_{K-1/2}) with a loss that reads p too
    _assert_rollout_gradients_match_fd(final_kick=False, p_weight=0.7)


# Reference force kernels: the plain form that recomputes 1 - a^2 and
# u_i = v_i (1 - a^2) wherever the reverse pass needs them and allocates a
# new array for every adjoint.  The taped kernels must match them bit for bit.


def _reference_eval_force(net, q2d):
    L = len(net.weights)
    a = q2d
    acts = []
    for i in range(L - 1):
        a = np.tanh(a @ net.weights[i].T + net.biases[i])
        acts.append(a)
    f = ((acts[-1] if acts else q2d) @ net.weights[-1].T + net.biases[-1])[:, 0]
    B = q2d.shape[0]
    vs = [None] * L
    vs[L - 1] = np.broadcast_to(net.weights[-1][0], (B, net.weights[-1].shape[1])).copy()
    for i in range(L - 1, 0, -1):
        u = vs[i] * (1.0 - acts[i - 1] ** 2)
        vs[i - 1] = u @ net.weights[i - 1]
    grad = net.alpha * q2d + net.scale * vs[0]
    value = 0.5 * net.alpha * np.sum(q2d * q2d, axis=1) + net.scale * f
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(value))):
        raise FloatingPointError("non-finite potential value or gradient")
    return SimpleNamespace(q=q2d, acts=acts, vs=vs, value=value, grad=grad)


def _reference_force_backward(net, rec, g_bar, grads):
    L = len(net.weights)
    q_bar = net.alpha * g_bar
    v_bar = net.scale * g_bar
    a_bars = [None] * L
    for i in range(1, L):
        act = rec.acts[i - 1]
        u_i = rec.vs[i] * (1.0 - act**2)
        u_bar = v_bar @ net.weights[i - 1].T
        grads.d_weights[i - 1] += u_i.T @ v_bar
        v_bar = u_bar * (1.0 - act**2)
        a_bars[i] = u_bar * rec.vs[i] * (-2.0 * act)
    grads.d_weights[-1][0] += v_bar.sum(axis=0)
    a_bar = np.zeros_like(rec.acts[-1]) if L > 1 else None
    for i in range(L - 1, 0, -1):
        act = rec.acts[i - 1]
        total = a_bars[i] if a_bar is None else a_bars[i] + a_bar
        z_bar = total * (1.0 - act**2)
        prev = rec.acts[i - 2] if i >= 2 else rec.q
        grads.d_weights[i - 1] += z_bar.T @ prev
        grads.d_biases[i - 1] += z_bar.sum(axis=0)
        if i >= 2:
            a_bar = z_bar @ net.weights[i - 1]
        else:
            q_bar = q_bar + z_bar @ net.weights[i - 1]
    return q_bar


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_grads(a, b):
    pairs = zip(a.d_weights + a.d_biases, b.d_weights + b.d_biases)
    return all(_same_bits(x, y) for x, y in pairs)


_KERNEL_CASES = [(depth, batch) for depth in (1, 2, 3) for batch in (1, 4, 256)]


def _kernel_problem(depth, batch):
    net = init_potential(5, np.random.default_rng(depth), hidden_dim=16, depth=depth, alpha=0.8, scale=0.7)
    for b in net.biases:
        b += np.random.default_rng(10 + depth).standard_normal(b.shape) * 0.3
    rng = np.random.default_rng(100 * depth + batch)
    return net, rng.standard_normal((batch, 5)), rng.standard_normal((batch, 5))


@pytest.mark.parametrize("depth, batch", _KERNEL_CASES)
def test_force_kernels_match_reference_bitwise(depth, batch):
    net, q, g_bar = _kernel_problem(depth, batch)
    rec = hamflow._eval_force(net, q)
    ref = _reference_eval_force(net, q)
    assert _same_bits(rec.value, ref.value) and _same_bits(rec.grad, ref.grad)
    grads, ref_grads = PotentialGrads.zeros_like(net), PotentialGrads.zeros_like(net)
    q_bar = hamflow._force_backward(net, rec, g_bar, grads)
    ref_q_bar = _reference_force_backward(net, ref, g_bar, ref_grads)
    assert _same_bits(q_bar, ref_q_bar)
    assert _same_grads(grads, ref_grads)


@pytest.mark.parametrize("depth, batch", _KERNEL_CASES)
def test_rollout_tape_matches_reference_kernels_bitwise(monkeypatch, depth, batch):
    net, q, p = _kernel_problem(depth, batch)
    spec = RolloutSpec(0.1, 3)
    dq_final, dp_final = np.cos(q), np.sin(p)

    def run():
        out, tape = rollout(net, PhaseState(q, p), spec, record=True)
        return out, tape.backward(dq_final, dp_final)

    out, (dq, dp, grads) = run()
    monkeypatch.setattr(hamflow, "_eval_force", _reference_eval_force)
    monkeypatch.setattr(hamflow, "_force_backward", _reference_force_backward)
    ref_out, (ref_dq, ref_dp, ref_grads) = run()
    assert _same_bits(out.q, ref_out.q) and _same_bits(out.p, ref_out.p)
    assert _same_bits(dq, ref_dq) and _same_bits(dp, ref_dp)
    assert _same_grads(grads, ref_grads)


def _rollout_problem(batch):
    net = init_potential(4, np.random.default_rng(20), hidden_dim=64, depth=2, alpha=2.0, scale=2.0)
    rng = np.random.default_rng(21)
    return net, PhaseState(rng.standard_normal((batch, 4)), rng.standard_normal((batch, 4)))


@pytest.mark.parametrize("steps", [1, 2, 8])
def test_unrecorded_rollout_ends_in_the_recorded_state(steps):
    net, state = _rollout_problem(64)
    spec = RolloutSpec(-0.1, steps)
    out = rollout(net, state, spec)
    recorded, tape = rollout(net, state, spec, record=True)
    assert _same_bits(out.q, recorded.q) and _same_bits(out.p, recorded.p)
    assert len(tape.records) == steps + 1
    # stopped after the last drift: the same q_K, no record at it
    stopped = rollout(net, state, spec, final_kick=False)
    stopped_rec, short_tape = rollout(net, state, spec, record=True, final_kick=False)
    assert _same_bits(stopped.q, stopped_rec.q) and _same_bits(stopped.p, stopped_rec.p)
    assert _same_bits(stopped_rec.q, recorded.q)
    assert len(short_tape.records) == steps
    # its momentum is the last half kick's: p_{K-1/2} = p_{K-1} - dt/2 grad V(q_{K-1})
    prev = rollout(net, state, RolloutSpec(spec.dt, steps - 1)) if steps > 1 else state
    assert _same_bits(stopped.p, prev.p - 0.5 * spec.dt * potential_eval(net, prev.q)[1])
    for short, full in zip(short_tape.records, tape.records):
        assert _same_bits(short.q, full.q) and _same_bits(short.grad, full.grad)


def test_unrecorded_rollout_memory_does_not_grow_with_steps():
    net, state = _rollout_problem(2048)
    runs = {
        "eval": lambda: potential_eval(net, state.q),
        2: lambda: rollout(net, state, RolloutSpec(0.1, 2)),
        8: lambda: rollout(net, state, RolloutSpec(0.1, 8)),
        "energy": lambda: energy_path(net, state, RolloutSpec(0.1, 8)),
    }
    peaks = {}
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] <= 1.05 * peaks[2]
    # one force record is live at a time: a second one would double the peak
    assert max(peaks[8], peaks["energy"]) <= 1.25 * peaks["eval"]


def test_param_gradients_requires_matching_tape():
    net = init_potential(2, np.random.default_rng(16), hidden_dim=8, depth=1, alpha=1.0, scale=0.5)
    st = PhaseState(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    _, tape = rollout(net, st, RolloutSpec(0.1, 1), record=True)
    with pytest.raises(ValueError):
        tape.backward(np.ones(3), np.ones(3))


# --- serialization -------------------------------------------------------------


def test_potential_save_load_roundtrip(tmp_path):
    net = init_potential(3, np.random.default_rng(17), hidden_dim=8, depth=2, alpha=0.8, scale=0.3)
    prefix = str(tmp_path / "pot")
    save_potential(net, prefix)
    loaded = load_potential(prefix)
    assert loaded.alpha == net.alpha
    assert loaded.scale == net.scale
    for a, b in zip(loaded.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, net.biases):
        assert np.array_equal(a, b)


def test_potential_save_deterministic_bytes(tmp_path):
    net = init_potential(2, np.random.default_rng(18), hidden_dim=4, depth=1, alpha=1.0, scale=0.1)
    save_potential(net, str(tmp_path / "a"))
    save_potential(net, str(tmp_path / "b"))
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
