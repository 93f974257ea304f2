"""Numerical kernels against independent references."""
import numpy as np
import pytest

from levring import _kernels, steady_state
from levring.constants import CODATA2018
from levring.errors import LevringError
from levring.model import delta0_from_config, derive_constants

from conftest import KAPPA_SCALE, reference_config

KAP = KAPPA_SCALE


def reference_mean_field_chunk(state, n_steps, dt, mass, gamma, hbar_g, k,
                               kappa, delta0, g, E, A_q, c0, R):
    """The mean-field RK4 kernel as first written: four unrolled stages on
    numpy scalars.  `mean_field_chunk` must reproduce it bit for bit."""
    x = state[0]
    p = state[1]
    ar = state[2]
    ai = state[3]
    x_min = x
    x_max = x
    x_sum = 0.0
    p_sum = 0.0
    ar_sum = 0.0
    ai_sum = 0.0
    for _ in range(n_steps):
        # k1
        a2 = ar * ar + ai * ai
        s = c0 + x
        u = s / R
        f = -hbar_g * k * np.sin(2.0 * k * x) * a2 - A_q * s * (1.0 + u * u) ** -1.5
        h = delta0 + g * np.cos(k * x) ** 2
        k1x = p / mass
        k1p = f - 0.5 * gamma * p
        k1r = -h * ai - 0.5 * kappa * ar
        k1i = h * ar - 0.5 * kappa * ai - E
        # k2
        x2 = x + 0.5 * dt * k1x
        p2 = p + 0.5 * dt * k1p
        ar2 = ar + 0.5 * dt * k1r
        ai2 = ai + 0.5 * dt * k1i
        a2 = ar2 * ar2 + ai2 * ai2
        s = c0 + x2
        u = s / R
        f = -hbar_g * k * np.sin(2.0 * k * x2) * a2 - A_q * s * (1.0 + u * u) ** -1.5
        h = delta0 + g * np.cos(k * x2) ** 2
        k2x = p2 / mass
        k2p = f - 0.5 * gamma * p2
        k2r = -h * ai2 - 0.5 * kappa * ar2
        k2i = h * ar2 - 0.5 * kappa * ai2 - E
        # k3
        x3 = x + 0.5 * dt * k2x
        p3 = p + 0.5 * dt * k2p
        ar3 = ar + 0.5 * dt * k2r
        ai3 = ai + 0.5 * dt * k2i
        a2 = ar3 * ar3 + ai3 * ai3
        s = c0 + x3
        u = s / R
        f = -hbar_g * k * np.sin(2.0 * k * x3) * a2 - A_q * s * (1.0 + u * u) ** -1.5
        h = delta0 + g * np.cos(k * x3) ** 2
        k3x = p3 / mass
        k3p = f - 0.5 * gamma * p3
        k3r = -h * ai3 - 0.5 * kappa * ar3
        k3i = h * ar3 - 0.5 * kappa * ai3 - E
        # k4
        x4 = x + dt * k3x
        p4 = p + dt * k3p
        ar4 = ar + dt * k3r
        ai4 = ai + dt * k3i
        a2 = ar4 * ar4 + ai4 * ai4
        s = c0 + x4
        u = s / R
        f = -hbar_g * k * np.sin(2.0 * k * x4) * a2 - A_q * s * (1.0 + u * u) ** -1.5
        h = delta0 + g * np.cos(k * x4) ** 2
        k4x = p4 / mass
        k4p = f - 0.5 * gamma * p4
        k4r = -h * ai4 - 0.5 * kappa * ar4
        k4i = h * ar4 - 0.5 * kappa * ai4 - E

        x += dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p += dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        ar += dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        ai += dt / 6.0 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)

        if x < x_min:
            x_min = x
        if x > x_max:
            x_max = x
        x_sum += x
        p_sum += p
        ar_sum += ar
        ai_sum += ai
    out = np.empty(10)
    out[0] = x
    out[1] = p
    out[2] = ar
    out[3] = ai
    out[4] = x_min
    out[5] = x_max
    out[6] = x_sum
    out[7] = p_sum
    out[8] = ar_sum
    out[9] = ai_sum
    return out


def criterion6_draws(n, seed=303):
    """The first n solvable draws of acceptance criterion 6's box:
    (derived, delta0, c0, gamma, x_s)."""
    rng = np.random.default_rng(seed)
    lam = 1064e-9
    draws = []
    while len(draws) < n:
        cfg = reference_config(
            ring_field=rng.uniform(0.05, 0.6) * 7.25e10,
            ring_offset_c0=rng.uniform(0.3, 2.0) * lam,
            detuning_over_kappa=rng.uniform(0.2, 1.2))
        derived = derive_constants(cfg)
        delta0 = delta0_from_config(cfg, derived)
        gamma = rng.uniform(0.1, 0.3) * derived.kappa
        try:
            x_s = steady_state.solve_xs(derived, delta0,
                                        cfg.ring_offset_c0).x_s
        except LevringError:
            continue
        draws.append((derived, delta0, cfg.ring_offset_c0, gamma, x_s))
    return draws


def mean_field_draws():
    """(derived, delta0, c0, gamma, x_s, x_start) for the kernel parity
    test: four criterion-6 draws started at their rest points, then
    draws where a factor the kernel forms before its loop, or a sign,
    could slip: C0 < 0 (the mirror image of a criterion-6 draw), A_q = 0
    (mcp_epsilon = 0), gamma = 0, and a start on the far side of x = 0
    from the rest point."""
    base = criterion6_draws(4)
    draws = [draw + (draw[4],) for draw in base]
    derived, delta0, c0, gamma, x_s = base[0]
    draws.append((derived, delta0, -c0, gamma, -x_s, -x_s))
    cfg = reference_config(mcp_epsilon=0.0)
    uncharged = derive_constants(cfg)
    assert uncharged.A_q == 0.0
    draws.append((uncharged, delta0_from_config(cfg, uncharged),
                  cfg.ring_offset_c0, 0.2 * uncharged.kappa, 0.0, 0.0))
    derived, delta0, c0, _, x_s = base[1]
    draws.append((derived, delta0, c0, 0.0, x_s, x_s))
    derived, delta0, c0, gamma, x_s = base[2]
    draws.append((derived, delta0, c0, gamma, x_s, -x_s))
    return draws


@pytest.mark.parametrize("n_steps", [0, 1, 5000])
def test_mean_field_chunk_matches_reference_kernel(n_steps):
    # bit for bit, from seeded states around each start point, whether
    # the arguments arrive as numpy scalars or as Python floats
    rng = np.random.default_rng(11)
    for derived, delta0, c0, gamma, x_s, x_start in mean_field_draws():
        a_s = steady_state.cavity_steady_field(derived, delta0, x_s)
        state = np.array([
            x_start + rng.normal() * 1e-9,
            rng.normal() * derived.mass * derived.kappa * 1e-9,
            a_s.real * rng.uniform(0.5, 1.5),
            a_s.imag * rng.uniform(0.5, 1.5)])
        args = np.array([
            rng.uniform(0.5, 1.0) * 0.01 / derived.kappa, derived.mass,
            gamma, CODATA2018.hbar * derived.g, derived.k, derived.kappa,
            delta0, derived.g, derived.E_drive, derived.A_q, c0,
            derived.ring_radius])
        want = reference_mean_field_chunk(state, n_steps, *args)
        got_np = _kernels.mean_field_chunk(state, n_steps, *args)
        got_py = _kernels.mean_field_chunk(
            tuple(state.tolist()), n_steps, *args.tolist())
        assert all(type(v) is float for v in got_np + got_py)
        assert np.array_equal(np.array(got_np), want)
        assert np.array_equal(np.array(got_py), want)
        if n_steps:
            assert not np.array_equal(want[:4], state)
        if n_steps > 1 and x_start == -x_s != 0.0:
            # the run really crosses x = 0 on its way to the rest point
            assert want[4] < 0.0 < want[5]


def relax(derived, delta0, c0, gamma, x_s):
    x0 = round(x_s * 1e9) / 1e9
    return steady_state.integrate_mean_field(
        derived, delta0, c0,
        initial_state=(x0, 0.0, steady_state.cavity_steady_field(
            derived, delta0, x0)),
        t_max=4000.0 / derived.kappa, gamma=gamma)


def test_integrate_mean_field_matches_reference_kernel(monkeypatch):
    draws = criterion6_draws(20)
    got = [relax(*draw) for draw in draws]
    monkeypatch.setattr(steady_state, "mean_field_chunk",
                        reference_mean_field_chunk)
    want = [relax(*draw) for draw in draws]
    for g, w in zip(got, want):
        assert (g.x_bar, g.p_bar, g.a_bar, g.t_final) == (
            w.x_bar, w.p_bar, w.a_bar, w.t_final)
        for name in ("window_times", "window_means", "window_amps"):
            assert np.array_equal(getattr(g, name), getattr(w, name))


def test_a_tenth_of_the_step_keeps_the_window_means():
    # over the windows each draw's relaxation takes, RK4 at the step
    # integrate_mean_field takes and at a tenth of it, over the same span
    lam = 1064e-9
    for derived, delta0, c0, gamma, x_s in criterion6_draws(8):
        dt, n = steady_state._mean_field_step(derived, delta0)
        windows = relax(derived, delta0, c0, gamma, x_s).window_means.size
        x0 = round(x_s * 1e9) / 1e9
        a0 = steady_state.cavity_steady_field(derived, delta0, x0)
        args = (derived.mass, gamma, CODATA2018.hbar * derived.g, derived.k,
                derived.kappa, delta0,
                steady_state._detuning(derived, 0.0, 1.0), derived.E_drive,
                derived.A_q, c0, derived.ring_radius)
        coarse = fine = (x0, 0.0, a0.real, a0.imag)
        for _ in range(windows):
            coarse = _kernels.mean_field_chunk(coarse, n, dt, *args)
            fine = _kernels.mean_field_chunk(fine, 10 * n, dt / 10.0, *args)
            assert abs(coarse[6] / n - fine[6] / (10 * n)) < 1e-6 * lam
            coarse, fine = coarse[:4], fine[:4]


def stepped_rk4(A, D, dt, max_steps, check_every, tol_abs):
    """Reference relaxation: RK4 one step at a time, dV/dt checked every
    check_every steps; returns (V, steps, converged) like cov_rk4."""
    V = np.zeros_like(A)
    steps = 0
    converged = False

    def rhs(M):
        return A @ M + M @ A.T + D

    while steps < max_steps:
        limit = min(check_every, max_steps - steps)
        for _ in range(limit):
            K1 = rhs(V)
            K2 = rhs(V + 0.5 * dt * K1)
            K3 = rhs(V + 0.5 * dt * K2)
            K4 = rhs(V + dt * K3)
            V = V + dt / 6.0 * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
            steps += 1
        if np.linalg.norm(rhs(V)) <= tol_abs:
            converged = True
            break
    return V, steps, converged


def test_cov_rk4_matches_stepped_rk4():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 4)) * KAP
    A -= 3.0 * KAP * np.eye(4)  # firmly Hurwitz
    D = np.diag(rng.uniform(0.1, 2.0, size=4)) * KAP
    dt = 0.02 / KAP
    tol = 1e-12 * np.linalg.norm(D)
    # The RK4 fixed point is the Lyapunov solution whatever the stage
    # weights, so fixed step counts are compared first: 64 is reached by
    # doubling alone, 101 also by composing the remaining steps.
    for steps in (64, 101):
        W1, m1, ok1 = _kernels.cov_rk4(A, D, dt, steps, 0.0)
        W2, m2, _ = stepped_rk4(A, D, dt, steps, steps, 0.0)
        assert m1 == m2 == steps and not ok1
        assert np.allclose(W1, W2, rtol=1e-12, atol=0.0)
    # Converged: the first power of two that meets the stop rule.
    V1, n1, ok1 = _kernels.cov_rk4(A, D, dt, 200000, tol)
    V2, n2, ok2 = stepped_rk4(A, D, dt, n1, n1, tol)
    assert ok1 and ok2 and n2 == n1
    assert np.allclose(V1, V2, rtol=1e-12, atol=0.0)
    _, _, ok_half = stepped_rk4(A, D, dt, n1 // 2, n1 // 2, tol)
    assert not ok_half
