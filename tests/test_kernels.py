"""Numerical kernels against independent references."""
import numpy as np

from levring import _kernels

from conftest import KAPPA_SCALE

KAP = KAPPA_SCALE


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


def test_durand_kerner_against_numpy_roots():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        roots, iters = _kernels.durand_kerner(c.astype(np.complex128),
                                              1e-14, 500)
        assert iters < 500
        ref = list(np.roots(np.concatenate(([1.0 + 0j], c))))
        for z in roots:
            d = [abs(z - r) for r in ref]
            i = int(np.argmin(d))
            assert d[i] < 1e-8 * max(1.0, abs(ref[i]))
            ref.pop(i)
