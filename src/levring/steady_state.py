"""Constrained steady state of the driven sphere-cavity system.

The equilibrium displacement x_s zeroes the force balance

    f(x) = A_q (C0 + x) + hbar g k E^2 sin(2kx) / (kappa^2/4 + Delta(x)^2),

with Delta(x) = Delta0 + g cos^2(kx), restricted to the trap interval
(-pi/4k, pi/4k) where the optical curvature cos(2kx) stays positive.
Roots are located by a grid finder, shared with the resonance solver,
that evaluates the whole 4001-point grid at once and bisects every sign
change (robust against the multi-root structure of the transcendental
balance), then screened for stability of the linearised dynamics.  The
screen builds the state-space model of each candidate; the solvers
return the model of the accepted root, so spectra and entanglement read
the very model that was screened.

Two further solvers live here: the resonance-matching solver that picks
the ring charge Q making the effective detuning equal the mechanical
frequency, and the classical mean-field integrator used as an
independent dynamical check on the root finder.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics
from ._kernels import mean_field_chunk
from .constants import CODATA2018
from .errors import (AllRootsUnstable, NoResonantSolution, NoRootInInterval,
                     NotConverged, NumericalError, UnstableResonance,
                     UnstableTrap)
from .model import DerivedParams

N_SCAN = 4001
N_SCAN_RESONANT = 2001
BISECT_REL_TOL = 1e-15          # of the full interval width
RESIDUAL_REL_TOL = 1e-12


@dataclass(frozen=True)
class OperatingPoint:
    """Steady-state solution and the linearised parameters it fixes."""

    x_s: float          # equilibrium displacement, m
    a_s: float          # steady intracavity amplitude, dimensionless, > 0
    omega_m: float      # optical-trap mechanical frequency, rad/s
    Omega_m: float      # effective mechanical frequency incl. ring spring
    delta_eff: float    # effective detuning Delta(x_s), rad/s
    G: float            # effective optomechanical coupling, rad/s
    A_q: float          # ring spring constant, N/m
    residual: float     # force balance evaluated at x_s, N


@dataclass(frozen=True)
class MeanFieldResult:
    x_bar: float
    p_bar: float
    a_bar: complex
    t_final: float
    window_times: np.ndarray
    window_means: np.ndarray
    window_amps: np.ndarray


def force_balance(x, derived: DerivedParams, delta0: float, c0: float):
    """f(x) in newtons; vectorised over x."""
    delta = delta0 + derived.g * np.cos(derived.k * x) ** 2
    opt = (CODATA2018.hbar * derived.g * derived.k * derived.E_drive ** 2
           * np.sin(2.0 * derived.k * x)
           / (derived.kappa ** 2 / 4.0 + delta * delta))
    return derived.A_q * (c0 + x) + opt


def residual_scale(derived: DerivedParams, c0: float) -> float:
    """Magnitude against which the root residual is judged."""
    opt = (CODATA2018.hbar * derived.g * derived.k * derived.E_drive ** 2
           * 4.0 / derived.kappa ** 2)
    return max(abs(derived.A_q * c0), opt)


def steady_amplitude(derived: DerivedParams, delta_eff: float) -> float:
    """Real positive intracavity amplitude 2E / sqrt(4 Delta^2 + kappa^2)."""
    return 2.0 * derived.E_drive / np.sqrt(4.0 * delta_eff ** 2
                                           + derived.kappa ** 2)


def mechanical_frequency(derived: DerivedParams, a_s: float, x_s: float) -> float:
    """Optical-trap frequency sqrt(2 hbar g k^2 a_s^2 cos(2 k x_s) / m)."""
    c2 = np.cos(2.0 * derived.k * x_s)
    if c2 < 0.0:
        raise UnstableTrap(
            f"cos(2 k x_s) = {c2:.3e} < 0 at x_s = {x_s:.3e} m")
    return np.sqrt(2.0 * CODATA2018.hbar * derived.g * derived.k ** 2
                   * a_s ** 2 * c2 / derived.mass)


def cavity_steady_field(derived: DerivedParams, delta0: float, x: float) -> complex:
    """Steady intracavity field for the sphere clamped at x (complex)."""
    h = delta0 + derived.g * np.cos(derived.k * x) ** 2
    return -1j * derived.E_drive / (derived.kappa / 2.0 - 1j * h)


def operating_point_at(derived: DerivedParams, delta0: float, c0: float,
                       x_s: float) -> OperatingPoint:
    """Close the steady-state definitions over a given displacement."""
    delta_eff = delta0 + derived.g * np.cos(derived.k * x_s) ** 2
    a_s = steady_amplitude(derived, delta_eff)
    omega_m = mechanical_frequency(derived, a_s, x_s)
    if omega_m <= 0.0:
        raise UnstableTrap(
            f"vanishing trap frequency at x_s = {x_s:.3e} m (a_s = {a_s:.3e})")
    Omega_m = omega_m + derived.A_q / (derived.mass * omega_m)
    G = (np.sqrt(2.0 * CODATA2018.hbar / (derived.mass * omega_m))
         * derived.k * derived.g * a_s * np.sin(2.0 * derived.k * x_s))
    return OperatingPoint(
        x_s=float(x_s), a_s=float(a_s), omega_m=float(omega_m),
        Omega_m=float(Omega_m), delta_eff=float(delta_eff), G=float(G),
        A_q=derived.A_q,
        residual=float(force_balance(x_s, derived, delta0, c0)))


def _bisect(fun, a, b, fa, tol_x):
    while b - a > tol_x:
        mid = 0.5 * (a + b)
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _grid_roots(fun, xs, tol_x):
    """Yield the roots of the vectorised `fun` on the grid xs, in grid order.

    `fun` is evaluated once on the whole grid. An exact grid zero is a
    root; a sign change between two nonzero neighbours is bisected down
    to tol_x. Roots are yielded lazily, so a caller that stops at the
    first one bisects only its bracket.
    """
    fs = fun(xs)
    zero = fs == 0.0
    change = np.append(fs[:-1] * fs[1:] < 0.0, False)
    for i in np.flatnonzero(zero | change):
        if zero[i]:
            yield float(xs[i])
            continue
        a, b = (i, i + 1) if xs[i] < xs[i + 1] else (i + 1, i)
        yield _bisect(lambda x: float(fun(x)), float(xs[a]), float(xs[b]),
                      float(fs[a]), tol_x)


def scan_roots(derived: DerivedParams, delta0: float, c0: float):
    """All force-balance roots in the open trap interval, ascending.

    Scan the N_SCAN-point grid at once, bisect every sign change down to
    BISECT_REL_TOL of the interval width.
    """
    half = np.pi / (4.0 * derived.k) * (1.0 - 1e-9)
    xs = np.linspace(-half, half, N_SCAN)
    return list(_grid_roots(
        lambda x: force_balance(x, derived, delta0, c0), xs,
        BISECT_REL_TOL * (2.0 * half)))


def solve_model(derived: DerivedParams, delta0: float,
                c0: float) -> dynamics.StateSpaceModel:
    """Solve the force balance and return the model at the selected root.

    Among the roots, taken in order of |x_s|, the first whose drift matrix
    is Hurwitz (damping from the attached closure at its omega_m) wins;
    the model built by that screen is returned, its `derived` completed
    with the damping.

    The degenerate decoupled inputs A_q = 0 (no bound charge or no ring
    charge) and C0 = 0 yield x_s = 0 exactly; their model is returned
    unscreened, since instability there is a verdict, not an error.
    """
    if derived.A_q == 0.0 or c0 == 0.0:
        op = operating_point_at(derived, delta0, c0, 0.0)
        return dynamics.build_model(op, derived.with_damping(op.omega_m))

    roots = scan_roots(derived, delta0, c0)
    if not roots:
        raise NoRootInInterval(
            f"no force-balance root in (-pi/4k, pi/4k) at delta0 = {delta0:.6e}")
    roots.sort(key=abs)
    tol = RESIDUAL_REL_TOL * residual_scale(derived, c0)
    unstable_seen = 0
    for x_root in roots:
        try:
            op = operating_point_at(derived, delta0, c0, x_root)
        except UnstableTrap:
            continue
        if abs(op.residual) > tol:
            raise NumericalError(
                f"root refinement residual {op.residual:.3e} exceeds {tol:.3e}")
        model = dynamics.build_model(op, derived.with_damping(op.omega_m))
        if model.stable:
            return model
        unstable_seen += 1
    if unstable_seen:
        raise AllRootsUnstable(
            f"{unstable_seen} root(s) found, none Hurwitz at delta0 = {delta0:.6e}")
    raise NoRootInInterval(
        f"no admissible root at delta0 = {delta0:.6e}")


def solve_xs(derived: DerivedParams, delta0: float,
             c0: float) -> OperatingPoint:
    """Operating point of the root `solve_model` selects."""
    return solve_model(derived, delta0, c0).op


def solve_resonant_ring_charge(derived: DerivedParams, delta0: float,
                               c0: float) -> dynamics.StateSpaceModel:
    """Ring charge putting the effective detuning on the mechanical sideband.

    Strategy: at fixed Delta0 solve the resonance condition (in cleared
    form, 8 hbar g k^2 E^2 cos(2kx) / (kappa^2 + 4 Delta(x)^2) =
    m Delta(x)^2, equivalent to omega_m = Delta(x_s)) for x_s on the
    half-interval whose sign makes the ring charge positive, then read Q
    off the force balance.

    The mismatch is evaluated at once on the grid from x = 0 outward, and
    the first grid root other than x = 0 itself is taken as `op.x_s`.
    Returns the screened model at that point; its `derived` carries the
    solved `ring_charge` and `A_q` and the damping at `op.omega_m`.
    """
    if c0 == 0.0 or derived.q_mcp == 0.0:
        raise NoResonantSolution(
            "resonance matching needs C0 != 0 and a nonzero bound charge")
    hbar = CODATA2018.hbar
    k, g, E, kap, m = (derived.k, derived.g, derived.E_drive,
                       derived.kappa, derived.mass)

    def mismatch(x):
        delta = delta0 + g * np.cos(k * x) ** 2
        lhs = (8.0 * hbar * g * k ** 2 * E ** 2 * np.cos(2.0 * k * x)
               / (kap ** 2 + 4.0 * delta * delta))
        return lhs - m * delta * delta

    half = np.pi / (4.0 * k) * (1.0 - 1e-9)
    xs = np.linspace(0.0, -np.sign(c0) * half, N_SCAN_RESONANT)
    roots = _grid_roots(mismatch, xs, BISECT_REL_TOL * (2.0 * half))
    x_root = next((x for x in roots if x != 0.0), None)
    if x_root is None:
        raise NoResonantSolution(
            f"resonance condition has no root at delta0 = {delta0:.6e}")

    delta = delta0 + g * np.cos(k * x_root) ** 2
    if delta <= 0.0:
        raise NoResonantSolution(
            f"effective detuning {delta:.3e} not on the stable sideband")
    a_q = (-4.0 * hbar * g * k * E ** 2 * np.sin(2.0 * k * x_root)
           / ((kap ** 2 + 4.0 * delta * delta) * (x_root + c0)))
    if a_q < 0.0:
        raise NoResonantSolution(
            "force balance at the resonant point needs a negative ring charge")
    geom = 4.0 * np.pi * CODATA2018.eps0 * derived.ring_radius ** 3
    resolved = dataclasses.replace(derived, A_q=a_q,
                                   ring_charge=a_q * geom / derived.q_mcp)
    op = operating_point_at(resolved, delta0, c0, x_root)
    model = dynamics.build_model(op, resolved.with_damping(op.omega_m))
    if not model.stable:
        raise UnstableResonance(
            f"resonant point at delta0 = {delta0:.6e} is not Hurwitz")
    return model


def integrate_mean_field(derived: DerivedParams, delta0: float, c0: float,
                         initial_state=None, t_max: Optional[float] = None,
                         dt: Optional[float] = None,
                         gamma: Optional[float] = None,
                         amp_tol: Optional[float] = None,
                         mean_tol: Optional[float] = None) -> MeanFieldResult:
    """Relax the classical (noise-free) mean field and report its rest point.

    Fixed-step RK4 on (x, p, a) with the optical-gradient force, the ring
    force and viscous damping; serves as the dynamical cross-check on
    `solve_xs`.  Averages over oscillation windows; converged when the
    window amplitude and the drift of the window mean both fall below
    their tolerances (defaults 1e-4 and 1e-5 wavelengths).

    The rest point does not depend on gamma, so strongly underdamped
    configurations are best verified with an artificially raised gamma
    (pass `gamma=`); at the physical damping of a levitated sphere the
    envelope contraction time is astronomically long.  The integrator
    relaxes into whatever basin the initial state selects: start inside
    the trap interval (e.g. a coarse root estimate with the matching
    clamped-cavity field) when a strong ring force makes the well at
    x = -C0 competitive.

    Raises NotConverged if the envelope has not contracted by t_max.
    """
    wavelength = 2.0 * np.pi / derived.k
    if initial_state is None:
        initial_state = (0.0, 0.0, 0.0 + 0.0j)
    x0, p0, a0 = initial_state
    a0 = complex(a0)

    a_s0 = steady_amplitude(derived, delta0 + derived.g)
    try:
        omega_est = mechanical_frequency(derived, a_s0, 0.0)
    except UnstableTrap:
        omega_est = 0.0
    omega_ref = omega_est if omega_est > 0.0 else derived.kappa
    if dt is None:
        dt = min(0.01 / derived.kappa, 0.01 / omega_ref)
    if t_max is None:
        t_max = 4000.0 / derived.kappa
    if gamma is None:
        if derived.gamma is not None:
            gamma = derived.gamma
        elif derived.damping_at is not None:
            gamma = derived.damping_at(omega_ref)[2]
        else:
            gamma = 0.0
    if amp_tol is None:
        amp_tol = 1e-4 * wavelength
    if mean_tol is None:
        mean_tol = 1e-5 * wavelength

    window_steps = max(64, int(math.ceil(3.0 * 2.0 * np.pi / omega_ref / dt)))
    n_windows = max(2, int(math.ceil(t_max / (window_steps * dt))))

    state = np.array([x0, p0, a0.real, a0.imag])
    hbar_g = CODATA2018.hbar * derived.g
    times, means, amps = [], [], []
    p_mean = 0.0
    a_mean = 0.0 + 0.0j
    prev_mean = None
    converged = False
    t = 0.0
    for _ in range(n_windows):
        out = mean_field_chunk(state, window_steps, dt, derived.mass, gamma,
                               hbar_g, derived.k, derived.kappa, delta0,
                               derived.g, derived.E_drive, derived.A_q, c0,
                               derived.ring_radius)
        state = out[:4].copy()
        t += window_steps * dt
        amp = float(out[5] - out[4])
        mean_x = float(out[6] / window_steps)
        p_mean = float(out[7] / window_steps)
        a_mean = complex(out[8] / window_steps, out[9] / window_steps)
        times.append(t)
        means.append(mean_x)
        amps.append(amp)
        if (amp < amp_tol and prev_mean is not None
                and abs(mean_x - prev_mean) < mean_tol):
            converged = True
            break
        prev_mean = mean_x
    if not converged:
        raise NotConverged(
            f"mean-field envelope still {amps[-1]:.3e} m wide at t = {t:.3e} s "
            f"(tolerance {amp_tol:.3e} m)")
    return MeanFieldResult(
        x_bar=means[-1], p_bar=p_mean, a_bar=a_mean, t_final=t,
        window_times=np.array(times), window_means=np.array(means),
        window_amps=np.array(amps))
