"""Stationary covariance and mechanics-light entanglement.

The stationary second moments of the linearised Gaussian state solve the
Lyapunov equation A V + V A^T = -D.  The solve is done by vectorisation:
(I (x) A + A (x) I) vec(V) = -vec(D), a 16x16 dense system with partial
pivoting -- exact to machine precision at this size.  An RK4 relaxation
of dV/dt = A V + V A^T + D, evaluated by doubling the RK4 step map,
provides an independent route used as an oracle in the tests.

Entanglement of the 2x2-block bipartition is scored by the logarithmic
negativity E_n = max(0, -ln 2 eta_minus), with eta_minus the lowest
symplectic eigenvalue of the partially transposed covariance:

    eta_minus = sqrt((sigma - sqrt(sigma^2 - 4 det V)) / 2),
    sigma = det B1 + det B2 - 2 det B3,

B1, B2 the mechanical/optical diagonal blocks and B3 the off-diagonal
block.  Natural logarithm: the two-mode squeezed family then satisfies
E_n = 2r.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import cov_rk4
from .dynamics import StateSpaceModel
from .errors import (LevringError, NotConverged, NumericalError,
                     SingularSystem, UnphysicalCovariance, UnstableModel)
from .model import SystemConfig
from .pipeline import solve_point

LYAPUNOV_RESIDUAL_TOL = 1e-10
PHYSICALITY_SLACK = 1e-10


@dataclass(frozen=True)
class EntanglementResult:
    eta_minus: float
    sigma: float
    E_n: float
    detB1: float
    detB2: float
    detB3: float
    detV: float


@dataclass(frozen=True)
class EntanglementPoint:
    """One row of a detuning sweep; E_n is None when no stationary state."""

    delta0_over_kappa: float
    E_n: Optional[float]
    stable: bool
    x_s: Optional[float]
    omega_m: Optional[float]
    Q_used: Optional[float]
    E_x: Optional[float]
    error: str = ""


def lyapunov_residual(model: StateSpaceModel, V: np.ndarray) -> float:
    D = model.D
    return float(np.linalg.norm(model.A @ V + V @ model.A.T + D)
                 / np.linalg.norm(D))


def lyapunov_solve(model: StateSpaceModel) -> np.ndarray:
    """Stationary covariance of a stable model; symmetrised after solve."""
    if not model.stable:
        raise UnstableModel(
            f"no stationary state: max Re eigenvalue = "
            f"{model.verdict.max_real_part:.3e}")
    A, D = model.A, model.D
    eye = np.eye(4)
    M = np.kron(eye, A) + np.kron(A, eye)
    try:
        V = np.linalg.solve(M, -D.reshape(-1)).reshape(4, 4)
        V = 0.5 * (V + V.T)
        # iterative refinement: weakly damped mechanical modes make the
        # system ill-conditioned enough that one LU pass can miss the
        # residual target in double precision
        resid = lyapunov_residual(model, V)
        for _ in range(3):
            if resid < LYAPUNOV_RESIDUAL_TOL:
                break
            R = A @ V + V @ A.T + D
            correction = np.linalg.solve(M, -R.reshape(-1)).reshape(4, 4)
            V_new = V + 0.5 * (correction + correction.T)
            resid_new = lyapunov_residual(model, V_new)
            if not resid_new < resid:
                break
            V, resid = V_new, resid_new
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Lyapunov system degenerated: {exc}")
    if not resid < LYAPUNOV_RESIDUAL_TOL:
        raise SingularSystem(
            f"Lyapunov residual {resid:.3e} exceeds {LYAPUNOV_RESIDUAL_TOL:.0e} "
            "(marginal stability)")
    return V


def covariance_by_integration(model: StateSpaceModel,
                              t_max: Optional[float] = None,
                              dt: Optional[float] = None) -> np.ndarray:
    """Covariance by RK4 relaxation from V(0) = 0; oracle for the solver.

    Relaxes until ||dV/dt|| <= 1e-12 ||D|| (Frobenius), reaching 1, 2,
    4, ... RK4 steps by doubling the step map (see ``cov_rk4``), so the
    cost grows with log2 of the steps, and no linear system is solved.
    For a linear flow with constant forcing the RK4 fixed point equals
    the true stationary covariance, so the step size only sets rate and
    stability.
    """
    if not model.stable:
        raise UnstableModel("covariance relaxation needs a Hurwitz drift matrix")
    eigs = model.verdict.eigenvalues
    fastest = float(np.max(np.abs(eigs)))
    slowest = float(np.min(-eigs.real))
    if dt is None:
        dt = 0.2 / fastest
    if t_max is None:
        t_max = 60.0 / slowest
    max_steps = int(math.ceil(t_max / dt))
    tol_abs = 1e-12 * float(np.linalg.norm(model.D))
    V, steps, converged = cov_rk4(model.A, model.D, dt, max_steps, tol_abs)
    if not converged:
        raise NotConverged(
            f"covariance relaxation not settled after {steps} steps "
            f"(t = {steps * dt:.3e} s)")
    return 0.5 * (V + V.T)


def _block_dets(V: np.ndarray):
    b1 = float(np.linalg.det(V[:2, :2]))
    b2 = float(np.linalg.det(V[2:, 2:]))
    b3 = float(np.linalg.det(V[:2, 2:]))
    dv = float(np.linalg.det(V))
    return b1, b2, b3, dv


def symplectic_eigenvalues(V: np.ndarray):
    """Both symplectic eigenvalues of V itself (no partial transpose)."""
    b1, b2, b3, dv = _block_dets(V)
    sig = b1 + b2 + 2.0 * b3
    disc = max(sig ** 2 - 4.0 * dv, 0.0)
    lo = math.sqrt(max((sig - math.sqrt(disc)) / 2.0, 0.0))
    hi = math.sqrt((sig + math.sqrt(disc)) / 2.0)
    return lo, hi


def is_physical(V: np.ndarray, slack: float = PHYSICALITY_SLACK) -> bool:
    """Symplectic positivity: both eigenvalues of V itself >= 1/2 - slack."""
    lo, _ = symplectic_eigenvalues(V)
    return lo >= 0.5 - slack


def log_negativity(V: np.ndarray, base: str = "e") -> EntanglementResult:
    """Logarithmic negativity of the mechanics-light bipartition.

    base: 'e' (default, natural log), '2' or '10' for comparison plots.
    """
    b1, b2, b3, dv = _block_dets(V)
    if dv <= 0.0:
        raise UnphysicalCovariance(f"det V = {dv:.3e} <= 0")
    sigma = b1 + b2 - 2.0 * b3
    disc = sigma ** 2 - 4.0 * dv
    if disc < 0.0:
        if disc < -1e-10 * max(sigma ** 2, 1.0):
            raise UnphysicalCovariance(
                f"sigma^2 - 4 det V = {disc:.3e} < 0: complex eta_minus")
        disc = 0.0
    eta2 = (sigma - math.sqrt(disc)) / 2.0
    if eta2 <= 0.0:
        raise UnphysicalCovariance(f"eta_minus^2 = {eta2:.3e} <= 0")
    eta_minus = math.sqrt(eta2)
    log_scale = {"e": 1.0, "2": math.log(2.0), "10": math.log(10.0)}[base]
    e_n = max(0.0, -math.log(2.0 * eta_minus) / log_scale)
    return EntanglementResult(eta_minus=eta_minus, sigma=sigma, E_n=e_n,
                              detB1=b1, detB2=b2, detB3=b3, detV=dv)


def entanglement_point(cfg: SystemConfig, delta0_over_kappa: float,
                       ring_mode: str = "fixed_charge") -> EntanglementPoint:
    """Full pipeline at one detuning; numerical failures recorded in-row.

    The row solves `cfg` with its detuning set to delta0_over_kappa.  A
    ConfigInvalid is not a row failure: it propagates.
    """
    row_cfg = dataclasses.replace(cfg, detuning_delta0=None,
                                  detuning_over_kappa=delta0_over_kappa)
    try:
        sol = solve_point(row_cfg, ring_mode=ring_mode)
    except NumericalError as exc:
        return EntanglementPoint(
            delta0_over_kappa=delta0_over_kappa, E_n=None, stable=False,
            x_s=None, omega_m=None, Q_used=None, E_x=None,
            error=f"{type(exc).__name__}: {exc}")
    row = EntanglementPoint(
        delta0_over_kappa=delta0_over_kappa, E_n=None,
        stable=sol.model.stable, x_s=sol.op.x_s, omega_m=sol.op.omega_m,
        Q_used=sol.derived.ring_charge, E_x=sol.field_at_xs)
    if not sol.model.stable:
        return dataclasses.replace(row, error="no stationary state")
    try:
        value = log_negativity(lyapunov_solve(sol.model)).E_n
    except LevringError as exc:
        return dataclasses.replace(row, error=f"{type(exc).__name__}: {exc}")
    return dataclasses.replace(row, E_n=value)


def entanglement_sweep(cfg: SystemConfig, delta0_over_kappa_grid,
                       ring_mode: str = "fixed_charge"):
    """E_n over a detuning grid; one row per point, never aborts a row."""
    return [entanglement_point(cfg, float(d0), ring_mode)
            for d0 in delta0_over_kappa_grid]
