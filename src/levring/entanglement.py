"""Stationary covariance and mechanics-light entanglement.

The stationary second moments of the linearised Gaussian state solve the
Lyapunov equation A V + V A^T = -D.  The solve is done by vectorisation:
(I (x) A + A (x) I) vec(V) = -vec(D), a 16x16 dense system with partial
pivoting -- exact to machine precision at this size.  A stack of
drift and diffusion matrices, of any number of systems, is solved in
one stacked solve (`_lyapunov_stack`, which `lyapunov_solve` and the
sweep call), and accepted as one stack: the solutions are symmetrised
and their residuals ||A V + V A^T + D||_F / ||D||_F formed at once, and
only a solution that misses the 1e-10 target is refined on its own.
An RK4 relaxation of dV/dt = A V + V A^T + D, evaluated by doubling the
RK4 step map, provides an independent route used as an oracle in the
tests.

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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import _kron_sum, cov_rk4
from .dynamics import StateSpaceModel, _stable
from .errors import (ConfigError, LevringError, NotConverged,
                     SingularSystem, UnphysicalCovariance, UnstableModel,
                     caught, error_cell, one)
from .model import SystemConfig, _record
from .pipeline import _field_at_xs, solve_grid
from .steady_state import _resonant_charge

LYAPUNOV_RESIDUAL_TOL = 1e-10


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
    """`_residuals` of one model at a covariance V, as a stack of one."""
    return _residuals(model.A[None], model.D[None], V[None]).item()


def _residuals(A: np.ndarray, D: np.ndarray, V: np.ndarray) -> np.ndarray:
    """||A V + V A^T + D||_F / ||D||_F of each model of a stack, drift
    matrices A and diffusion matrices D [N, 4, 4], at covariances V:
    each matrix product is the one a 4x4 product forms, and `np.vecdot`
    of a flattened row with itself the dot product `np.linalg.norm`
    takes, so a model has the same bits alone and stacked."""
    n = len(A)
    R = (A @ V + V @ A.swapaxes(-1, -2) + D).reshape(n, -1)
    D = D.reshape(n, -1)
    return np.sqrt(np.vecdot(R, R)) / np.sqrt(np.vecdot(D, D))


def _solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Lyapunov system degenerated: {exc}")


def _refined(A: np.ndarray, D: np.ndarray, M: np.ndarray, V: np.ndarray,
             resid: float) -> np.ndarray:
    """Refine a symmetrised solve V of M vec(V) = -vec(D), M the Kronecker
    sum of the drift matrix A, of residual resid (`_residuals`).

    Iterative refinement: weakly damped mechanical modes make the system
    ill-conditioned enough that one LU pass can miss the residual target
    in double precision.
    """
    for _ in range(3):
        if resid < LYAPUNOV_RESIDUAL_TOL:
            break
        R = A @ V + V @ A.T + D
        correction = _solve(M, -R.reshape(-1)).reshape(4, 4)
        V_new = V + 0.5 * (correction + correction.T)
        resid_new = _residuals(A[None], D[None], V_new[None]).item()
        if not resid_new < resid:
            break
        V, resid = V_new, resid_new
    if not resid < LYAPUNOV_RESIDUAL_TOL:
        raise SingularSystem(
            f"Lyapunov residual {resid:.3e} exceeds {LYAPUNOV_RESIDUAL_TOL:.0e} "
            "(marginal stability)")
    return V


def lyapunov_solve(model: StateSpaceModel) -> np.ndarray:
    """Stationary covariance of a stable model, its system solved as a
    stack of one (`_lyapunov_stack`); UnstableModel for a model without
    a stationary state."""
    if not model.stable:
        raise UnstableModel(f"no stationary state: max Re eigenvalue = "
                            f"{model.verdict.max_real_part:.3e}")
    return one(_lyapunov_stack(model.A[None], model.D[None]))


def _lyapunov_stack(A: np.ndarray, D: np.ndarray) -> list:
    """The stationary covariance of each system of the stacks of Hurwitz
    drift and diffusion matrices A and D [N, 4, 4], N >= 1, or the
    NumericalError solving it raises.  One stacked `np.linalg.solve`,
    whose solutions have the bits of solves on their own; each solution
    is symmetrised, and kept if its residual (`_residuals`, formed at
    once) is within LYAPUNOV_RESIDUAL_TOL, else refined (`_refined`).  A
    singular stack is solved system by system, each as a stack of one,
    so the singular system alone gets the SingularSystem."""
    M = _kron_sum(A)
    try:
        V = _solve(M, -D.reshape(-1, 16, 1)).reshape(-1, 4, 4)
    except SingularSystem as exc:
        if len(A) == 1:
            return [exc.with_traceback(None)]
        return [V_i for i in range(len(A))
                for V_i in _lyapunov_stack(A[i:i + 1], D[i:i + 1])]
    V = 0.5 * (V + V.swapaxes(-1, -2))
    return [V_i if resid < LYAPUNOV_RESIDUAL_TOL
            else caught(_refined, A[i], D[i], M[i], V_i, resid)
            for i, (V_i, resid) in enumerate(zip(
                V, _residuals(A, D, V).tolist()))]


def covariance_by_integration(model: StateSpaceModel,
                              t_max: Optional[float] = None) -> np.ndarray:
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


def _block_dets(V: np.ndarray) -> np.ndarray:
    """(det B1, det B2, det B3, det V) of a covariance V [4, 4], or of
    each in a stack [N, 4, 4], as an array [4] or [N, 4].

    The three blocks go to one `np.linalg.det` call; a stacked call
    gives each matrix the bits of a call on it alone.  A determinant
    that overflows is inf or nan, without a warning; `_discriminant`
    rejects it.
    """
    blocks = np.stack((V[..., :2, :2], V[..., 2:, 2:], V[..., :2, 2:]),
                      axis=-3)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate((np.linalg.det(blocks),
                               np.linalg.det(V)[..., None]), axis=-1)


def _discriminant(sigma: float, dv: float) -> float:
    """sigma^2 - 4 det V; UnphysicalCovariance if it overflows."""
    try:
        disc = sigma ** 2 - 4.0 * dv
    except OverflowError:       # |sigma| above the root of the largest float
        disc = math.nan
    if not math.isfinite(disc):
        raise UnphysicalCovariance(
            f"determinants overflow: sigma = {sigma:.3e}, det V = {dv:.3e}")
    return disc


def symplectic_eigenvalues(V: np.ndarray):
    """Both symplectic eigenvalues of V itself (no partial transpose);
    UnphysicalCovariance if its determinants overflow."""
    b1, b2, b3, dv = _block_dets(V).tolist()
    sig = b1 + b2 + 2.0 * b3
    disc = max(_discriminant(sig, dv), 0.0)
    lo = math.sqrt(max((sig - math.sqrt(disc)) / 2.0, 0.0))
    hi = math.sqrt((sig + math.sqrt(disc)) / 2.0)
    return lo, hi


def log_negativity(V: np.ndarray) -> EntanglementResult:
    """Logarithmic negativity of the mechanics-light bipartition, in
    natural-log units."""
    b1, b2, b3, dv = _block_dets(V).tolist()
    sigma, eta_minus, e_n = _negativity_terms(b1, b2, b3, dv)
    return _record(EntanglementResult, eta_minus=eta_minus, sigma=sigma,
                   E_n=e_n, detB1=b1, detB2=b2, detB3=b3, detV=dv)


def _negativity_terms(b1, b2, b3, dv):
    """(sigma, eta_minus, E_n) of `log_negativity`, without its record."""
    if dv <= 0.0:
        raise UnphysicalCovariance(f"det V = {dv:.3e} <= 0")
    sigma = b1 + b2 - 2.0 * b3
    disc = _discriminant(sigma, dv)
    if disc < 0.0:
        if disc < -1e-10 * max(sigma ** 2, 1.0):
            raise UnphysicalCovariance(
                f"sigma^2 - 4 det V = {disc:.3e} < 0: complex eta_minus")
        disc = 0.0
    eta2 = (sigma - math.sqrt(disc)) / 2.0
    if eta2 <= 0.0:
        raise UnphysicalCovariance(f"eta_minus^2 = {eta2:.3e} <= 0")
    eta_minus = math.sqrt(eta2)
    return sigma, eta_minus, max(0.0, -math.log(2.0 * eta_minus))


def entanglement_sweep(cfg: SystemConfig, delta0_over_kappa_grid,
                       ring_mode: str = "fixed_charge"):
    """E_n over a detuning grid; one row per point, never aborts a row.

    Row i solves `cfg` with its detuning set to delta0_over_kappa_grid[i];
    a numerical failure is recorded in the row.  A ConfigInvalid is not
    a row failure: it propagates.  The rows are solved as one batch
    (`pipeline.solve_grid`) and read off its table at each row's
    accepted candidate (`Outcomes.candidate`), building no model; the
    stable rows' covariances are solved as one stack (`_lyapunov_stack`)
    and their determinants formed as stacks (`_block_dets`), with the
    bits of the point path.
    """
    grid = [float(d0) for d0 in delta0_over_kappa_grid]
    cells = solve_grid(cfg, grid, ring_mode=ring_mode)
    v, A, D, found, resonant = cells.table or (None,) * 5
    rows, stable = [], []       # each row's fields; (fields, j) if stable
    for d0, cell in zip(grid, map(cells.candidate, range(len(cells)))):
        if isinstance(cell, ConfigError):
            raise cell
        row = dict(delta0_over_kappa=d0, E_n=None, stable=False, x_s=None,
                   omega_m=None, Q_used=None, E_x=None)
        if isinstance(cell, LevringError):
            row["error"] = error_cell(cell)
        else:
            j, derived = cell
            charge = (_resonant_charge(derived, v.A_q[j]) if resonant
                      else derived.ring_charge)
            row.update(
                stable=_stable(v.s1[j], v.s2[j], v.marginal[j],
                               found[j][1])[1],
                x_s=v.x_s[j], omega_m=v.omega_m[j], Q_used=charge,
                E_x=_field_at_xs(cfg, ring_mode, v.x_s[j], charge),
                error="no stationary state")
            if row["stable"]:
                stable.append((row, j))
        rows.append(row)
    js = [j for _, j in stable]
    solves = _lyapunov_stack(A[js], D[js]) if js else []
    dets = iter(_block_dets(np.reshape(
        [V for V in solves if not isinstance(V, LevringError)],
        (-1, 4, 4))).tolist())
    for (row, _), V in zip(stable, solves):
        try:
            if isinstance(V, LevringError):
                raise V
            row.update(E_n=_negativity_terms(*next(dets))[2], error="")
        except LevringError as exc:
            row["error"] = error_cell(exc)
    return [_record(EntanglementPoint, row) for row in rows]
