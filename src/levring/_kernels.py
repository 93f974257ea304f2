"""Hot numerical kernels: the two fixed-step RK4 oracles and the quartic roots.

``mean_field_chunk`` steps the classical mean field, ``cov_rk4`` relaxes
the covariance by doubling the exact RK4 step map, and ``durand_kerner``
finds the roots of the characteristic quartic.
"""
import numpy as np

__all__ = ["JIT_ENABLED", "mean_field_chunk", "cov_rk4", "durand_kerner"]

JIT_ENABLED = False  # nothing is compiled; kept for levbench provenance


def mean_field_chunk(state, n_steps, dt, mass, gamma, hbar_g, k, kappa,
                     delta0, g, E, A_q, c0, R):
    """Advance the classical mean field by n_steps of fixed-step RK4.

    state = (x, p, re a, im a).  Returns the updated state plus window
    statistics (x_min, x_max, x_sum, p_sum, re_a_sum, im_a_sum) used by
    the convergence logic in the caller.

    Force budget per the linearised model this integrator backs:
    optical gradient -hbar g k sin(2kx) |a|^2, ring force
    -A_q (C0+x) [1 + ((C0+x)/R)^2]^(-3/2), viscous -gamma/2 p.
    """
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


def cov_rk4(A, D, dt, max_steps, tol_abs):
    """Relax dV/dt = A V + V A^T + D from V = 0 by fixed-step RK4.

    One RK4 step is an exact affine map v -> T v + c on vec(V), with
    M = dt (A (x) I + I (x) A),
    T = I + M + M^2/2 + M^3/6 + M^4/24 and
    c = dt (I + M/2 + M^2/6 + M^3/24) vec(D).
    Doubling (c <- T c + c, T <- T^2; Smith, SIAM J. Appl. Math. 16,
    1968) gives the state after 1, 2, 4, ... steps.  Stops at the first
    of them whose Frobenius norm of dV/dt is at most tol_abs; otherwise
    composes the remaining steps up to max_steps and checks once more.
    Returns (V, steps_used, converged_flag).
    """
    n = A.shape[0]
    eye = np.eye(n)
    M = dt * (np.kron(A, eye) + np.kron(eye, A))
    M2 = M @ M
    M3 = M2 @ M
    T = np.eye(n * n) + M + M2 / 2.0 + M3 / 6.0 + M3 @ M / 24.0
    d = D.reshape(-1)
    c = dt * (d + M @ d / 2.0 + M2 @ d / 6.0 + M3 @ d / 24.0)

    def settled(v):
        V = v.reshape(n, n)
        return bool(np.linalg.norm(A @ V + V @ A.T + D) <= tol_abs)

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


def durand_kerner(coeffs, tol, max_iter):
    """All roots of a monic polynomial by Durand-Kerner iteration.

    coeffs are the non-leading coefficients (c[0] x^(n-1) + ... + c[n-1])
    of a monic degree-n polynomial, complex.  Returns (roots, iterations);
    iterations == max_iter signals non-convergence to the caller.
    """
    n = coeffs.shape[0]
    roots = np.empty(n, dtype=np.complex128)
    seed = 0.4 + 0.9j
    z = 1.0 + 0.0j
    for i in range(n):
        z = z * seed
        roots[i] = z
    it = 0
    while it < max_iter:
        max_step = 0.0
        for i in range(n):
            zi = roots[i]
            num = 1.0 + 0.0j
            for c in coeffs:
                num = num * zi + c
            den = 1.0 + 0.0j
            for j in range(n):
                if j != i:
                    den *= zi - roots[j]
            if den == 0.0:
                den = tol + 0.0j
            step = num / den
            roots[i] = zi - step
            mag = abs(step) / max(1.0, abs(roots[i]))
            if mag > max_step:
                max_step = mag
        it += 1
        if max_step < tol:
            break
    return roots, it
