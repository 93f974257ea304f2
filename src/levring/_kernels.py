"""Hot numerical kernels: the two fixed-step RK4 oracles.

``mean_field_chunk`` steps the classical mean field, and ``cov_rk4``
relaxes the covariance by doubling the exact RK4 step map.  Its
Kronecker sum, `_kron_sum`, is also the one the Lyapunov solve forms.

``mean_field_chunk`` runs on Python floats: arithmetic on numpy scalars
costs about three times as much per operation, and Python's +, -, *,
``math.sin`` and ``math.cos`` round to the same bits.  It squares cos(kx)
as the product c * c, as the whole package does (`steady_state._detuning`).
It writes its four RK4 stages out in the loop, with the state-independent
factors formed once: a call per stage costs more than the arithmetic it
wraps.
"""
import math

import numpy as np

__all__ = ["JIT_ENABLED", "mean_field_chunk", "cov_rk4"]

JIT_ENABLED = False  # nothing is compiled; kept for levbench provenance


def mean_field_chunk(state, n_steps, dt, mass, gamma, hbar_g, k, kappa,
                     delta0, slope, E, A_q, c0, R):
    """Advance the classical mean field by n_steps of fixed-step RK4.

    state = (x, p, re a, im a).  Returns a tuple of ten floats: the
    updated state, then the window statistics (x_min, x_max, x_sum,
    p_sum, re_a_sum, im_a_sum) used by the convergence logic in the
    caller.

    The right-hand side, with s = C0 + x and the caller's slope fixing the
    sign of Delta(x) = Delta0 + slope cos^2(kx), is the nonlinear mean
    field: the full optical gradient force, the full on-axis ring force
    -q E(x) (`model.ring_field`; A_q = q Q / (4 pi eps0 R^3)), the viscous
    force and the driven, damped field:

        dx/dt = p / mass
        dp/dt = -hbar g k sin(2kx) |a|^2 - A_q s [1 + (s/R)^2]^(-3/2)
                - gamma/2 p
        d(re a)/dt = -Delta(x) im a - kappa/2 re a
        d(im a)/dt = Delta(x) re a - kappa/2 im a - E

    The four RK4 stages are written out in the loop: on Python floats a
    call per stage costs more than the arithmetic it wraps.  The factors
    that do not depend on the state (-hbar g k, 2k, gamma/2, kappa/2) are
    formed once, each the leading product of the left-to-right
    expression it stands in for, so every stage rounds as a right-hand
    side evaluated per call does.
    """
    x, p, ar, ai = (float(v) for v in state)
    dt, mass, gamma, hbar_g, k, kappa, delta0, slope, E, A_q, c0, R = (
        float(v) for v in (dt, mass, gamma, hbar_g, k, kappa, delta0, slope,
                           E, A_q, c0, R))
    sin, cos = math.sin, math.cos
    opt = -hbar_g * k
    two_k = 2.0 * k
    half_gamma = 0.5 * gamma
    half_kappa = 0.5 * kappa
    half = 0.5 * dt
    sixth = dt / 6.0
    x_min = x_max = x
    x_sum = p_sum = ar_sum = ai_sum = 0.0
    for _ in range(n_steps):
        s = c0 + x
        u = s / R
        c = cos(k * x)
        h = delta0 + slope * (c * c)
        k1x = p / mass
        k1p = (opt * sin(two_k * x) * (ar * ar + ai * ai)
               - A_q * s * (1.0 + u * u) ** -1.5 - half_gamma * p)
        k1r = -h * ai - half_kappa * ar
        k1i = h * ar - half_kappa * ai - E

        x2 = x + half * k1x
        p2 = p + half * k1p
        ar2 = ar + half * k1r
        ai2 = ai + half * k1i
        s = c0 + x2
        u = s / R
        c = cos(k * x2)
        h = delta0 + slope * (c * c)
        k2x = p2 / mass
        k2p = (opt * sin(two_k * x2) * (ar2 * ar2 + ai2 * ai2)
               - A_q * s * (1.0 + u * u) ** -1.5 - half_gamma * p2)
        k2r = -h * ai2 - half_kappa * ar2
        k2i = h * ar2 - half_kappa * ai2 - E

        x3 = x + half * k2x
        p3 = p + half * k2p
        ar3 = ar + half * k2r
        ai3 = ai + half * k2i
        s = c0 + x3
        u = s / R
        c = cos(k * x3)
        h = delta0 + slope * (c * c)
        k3x = p3 / mass
        k3p = (opt * sin(two_k * x3) * (ar3 * ar3 + ai3 * ai3)
               - A_q * s * (1.0 + u * u) ** -1.5 - half_gamma * p3)
        k3r = -h * ai3 - half_kappa * ar3
        k3i = h * ar3 - half_kappa * ai3 - E

        x4 = x + dt * k3x
        p4 = p + dt * k3p
        ar4 = ar + dt * k3r
        ai4 = ai + dt * k3i
        s = c0 + x4
        u = s / R
        c = cos(k * x4)
        h = delta0 + slope * (c * c)
        k4x = p4 / mass
        k4p = (opt * sin(two_k * x4) * (ar4 * ar4 + ai4 * ai4)
               - A_q * s * (1.0 + u * u) ** -1.5 - half_gamma * p4)
        k4r = -h * ai4 - half_kappa * ar4
        k4i = h * ar4 - half_kappa * ai4 - E

        x += sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p += sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        ar += sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        ai += sixth * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        if x < x_min:
            x_min = x
        if x > x_max:
            x_max = x
        x_sum += x
        p_sum += p
        ar_sum += ar
        ai_sum += ai
    return x, p, ar, ai, x_min, x_max, x_sum, p_sum, ar_sum, ai_sum


def _kron_sum(A: np.ndarray) -> np.ndarray:
    """I (x) A + A (x) I for an n x n matrix or a stack of them, entry for
    entry the products and sums `np.kron` forms."""
    n = A.shape[-1]
    eye = np.eye(n)
    M = eye[:, None, :, None] * A[..., None, :, None, :]
    M += A[..., :, None, :, None] * eye[None, :, None, :]
    return M.reshape(A.shape[:-2] + (n * n, n * n))


# gamma_9 = 9u / (1 - 9u), u = eps / 2: the rounding bound of a sum of
# nine products (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., section 3.1)
_GAMMA_9 = 4.5 * np.finfo(float).eps / (1.0 - 4.5 * np.finfo(float).eps)


def cov_rk4(A, D, dt, max_steps, tol_abs):
    """Relax dV/dt = A V + V A^T + D from V = 0 by fixed-step RK4.

    One RK4 step is an exact affine map v -> T v + c on vec(V), with
    M = dt (I (x) A + A (x) I) (`_kron_sum`),
    T = I + M + M^2/2 + M^3/6 + M^4/24 and
    c = dt (I + M/2 + M^2/6 + M^3/24) vec(D).
    Doubling (c <- T c + c, T <- T^2; Smith, SIAM J. Appl. Math. 16,
    1968) gives the state after 1, 2, 4, ... steps.  Stops at the first
    of them whose Frobenius norm of dV/dt is at most
    max(tol_abs, floor); otherwise composes the remaining steps up to
    max_steps and checks once more.  Returns (V, steps_used,
    converged_flag).

    The floor is the rounding error of evaluating dV/dt itself.  Each
    entry of A V + V A^T + D is a sum of nine products (four from each
    matrix product, one from D), so in floating point it carries an
    error of at most gamma_9 times the same sum of absolute values
    (Higham, section 3.1), gamma_9 = 9u / (1 - 9u) ~ 4.5 eps.  Taking
    Frobenius norms, with || |A| |V| || <= ||A|| ||V||:

        floor = gamma_9 (2 ||A|| ||V|| + ||D||).

    Below it the computed residual cannot tell a settled V from an
    unsettled one; on slowly decaying models, where ||A|| ||V|| is large
    against ||D||, it lies above a tol_abs of 1e-12 ||D||.  The rule
    only ever stops sooner than tol_abs alone.
    """
    n = A.shape[0]
    M = dt * _kron_sum(A)
    M2 = M @ M
    M3 = M2 @ M
    T = np.eye(n * n) + M + M2 / 2.0 + M3 / 6.0 + M3 @ M / 24.0
    d = D.reshape(-1)
    c = dt * (d + M @ d / 2.0 + M2 @ d / 6.0 + M3 @ d / 24.0)
    norm_A = np.linalg.norm(A)
    norm_D = np.linalg.norm(D)

    def settled(v):
        V = v.reshape(n, n)
        floor = _GAMMA_9 * (2.0 * norm_A * np.linalg.norm(V) + norm_D)
        return bool(np.linalg.norm(A @ V + V @ A.T + D)
                    <= max(tol_abs, floor))

    if max_steps < 1:
        return np.zeros((n, n)), 0, False
    maps = [(T, c)]     # maps[j] advances vec(V) by 2^j steps
    steps = 1
    while not settled(c):
        if 2 * steps > max_steps:
            # Powers of one affine map commute: add the rest bit by bit.
            rest = max_steps - steps
            for j, (Tj, cj) in enumerate(maps):
                if rest >> j & 1:
                    c = Tj @ c + cj
            return c.reshape(n, n), max_steps, settled(c)
        c = T @ c + c
        T = T @ T
        steps *= 2
        maps.append((T, c))
    return c.reshape(n, n), steps, True
