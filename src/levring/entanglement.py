"""Stationary covariance and mechanics-light entanglement.

The stationary second moments of the linearised Gaussian state solve the
Lyapunov equation A V + V A^T = -D.  The solve is done by vectorisation:
(I (x) A + A (x) I) vec(V) = -vec(D), a 16x16 dense system with partial
pivoting -- exact to machine precision at this size.  Any number of
stable models is solved in one stacked solve (`lyapunov_solves`, of
which `lyapunov_solve` is the one-model case), and accepted as one
stack: the solutions are symmetrised and their residuals
||A V + V A^T + D||_F / ||D||_F formed at once, and only a solution
that misses the 1e-10 target is refined on its own.  The cell count
picks a kernel only in the steady state, in `steady_state._grid_roots`
and `model._tabulate`.
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
from .dynamics import StateSpaceModel
from .errors import (LevringError, NotConverged, NumericalError,
                     SingularSystem, UnphysicalCovariance, UnstableModel,
                     caught, error_cell, one)
from .model import SystemConfig, _record
from .pipeline import PointSolution, solutions

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
    D = model.D
    return float(np.linalg.norm(model.A @ V + V @ model.A.T + D)
                 / np.linalg.norm(D))


def _residuals(A: np.ndarray, D: np.ndarray, V: np.ndarray) -> np.ndarray:
    """`lyapunov_residual` of each model of a stack, drift matrices A and
    diffusion matrices D [N, 4, 4], at the covariances V [N, 4, 4], with
    its bits: each matrix product is the one a 4x4 product forms, and
    `np.vecdot` of a flattened row with itself the dot product
    `np.linalg.norm` takes."""
    n = len(A)
    R = (A @ V + V @ A.swapaxes(-1, -2) + D).reshape(n, -1)
    D = D.reshape(n, -1)
    return np.sqrt(np.vecdot(R, R)) / np.sqrt(np.vecdot(D, D))


def _solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Lyapunov system degenerated: {exc}")


def _refined(model: StateSpaceModel, M: np.ndarray, V: np.ndarray,
             resid: float) -> np.ndarray:
    """Refine a symmetrised solve V of M vec(V) = -vec(D), of residual
    resid (`lyapunov_residual`).

    Iterative refinement: weakly damped mechanical modes make the system
    ill-conditioned enough that one LU pass can miss the residual target
    in double precision.
    """
    A, D = model.A, model.D
    for _ in range(3):
        if resid < LYAPUNOV_RESIDUAL_TOL:
            break
        R = A @ V + V @ A.T + D
        correction = _solve(M, -R.reshape(-1)).reshape(4, 4)
        V_new = V + 0.5 * (correction + correction.T)
        resid_new = lyapunov_residual(model, V_new)
        if not resid_new < resid:
            break
        V, resid = V_new, resid_new
    if not resid < LYAPUNOV_RESIDUAL_TOL:
        raise SingularSystem(
            f"Lyapunov residual {resid:.3e} exceeds {LYAPUNOV_RESIDUAL_TOL:.0e} "
            "(marginal stability)")
    return V


def _solve_refined(model: StateSpaceModel, M: np.ndarray) -> np.ndarray:
    """Solve M vec(V) = -vec(D), M the model's Kronecker sum, symmetrise
    and refine."""
    V = _solve(M, -model.D.reshape(-1)).reshape(4, 4)
    V = 0.5 * (V + V.T)
    return _refined(model, M, V, lyapunov_residual(model, V))


def lyapunov_solve(model: StateSpaceModel) -> np.ndarray:
    """Stationary covariance of a stable model; symmetrised after solve.

    The solve is that of `lyapunov_solves` on the one model.
    """
    return one(lyapunov_solves([model]))


def lyapunov_solves(models):
    """The stationary covariance of each of a batch of models.

    Entry b is the covariance of models[b], or the NumericalError solving
    it raises (UnstableModel for a model without a stationary state).
    The stable models, however many, are solved in one stacked
    `np.linalg.solve`, whose solutions have the bits of solves on their
    own.  The stack is then accepted as a whole: every solution is
    symmetrised and its residual formed at once (`_residuals`), a row
    within LYAPUNOV_RESIDUAL_TOL is taken as it is, and only a row that
    misses the target is refined (`_refined`).  If any system is
    singular, the stacked solve fails as a whole and each system is
    solved and refined on its own (`_solve_refined`).
    """
    out = [None if model.stable else UnstableModel(
        f"no stationary state: max Re eigenvalue = "
        f"{model.verdict.max_real_part:.3e}") for model in models]
    stable = [b for b, error in enumerate(out) if error is None]
    if not stable:
        return out
    A = np.array([models[b].A for b in stable])
    D = np.array([models[b].D for b in stable])
    M = _kron_sum(A)
    try:
        V = np.linalg.solve(M, -D.reshape(-1, 16, 1)).reshape(-1, 4, 4)
    except np.linalg.LinAlgError:
        for i, b in enumerate(stable):
            out[b] = caught(_solve_refined, models[b], M[i])
        return out
    V = 0.5 * (V + V.swapaxes(-1, -2))
    resids = _residuals(A, D, V).tolist()
    for i, (b, V_b, resid) in enumerate(zip(stable, V, resids)):
        out[b] = (V_b if resid < LYAPUNOV_RESIDUAL_TOL
                  else caught(_refined, models[b], M[i], V_b, resid))
    return out


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
    return _negativity(*_block_dets(V).tolist())


def _negativity(b1, b2, b3, dv) -> EntanglementResult:
    """`log_negativity` from the determinants `_block_dets` gives."""
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
    e_n = max(0.0, -math.log(2.0 * eta_minus))
    return _record(EntanglementResult, eta_minus=eta_minus, sigma=sigma,
                   E_n=e_n, detB1=b1, detB2=b2, detB3=b3, detV=dv)


def entanglement_sweep(cfg: SystemConfig, delta0_over_kappa_grid,
                       ring_mode: str = "fixed_charge"):
    """E_n over a detuning grid; one row per point, never aborts a row.

    Row i solves `cfg` with its detuning set to delta0_over_kappa_grid[i];
    a numerical failure is recorded in the row.  A ConfigInvalid is not
    a row failure: it propagates.  The rows are solved as one batch
    (`pipeline.solutions` of `pipeline.solve_grid`), the Lyapunov
    systems of the stable ones in one stacked solve (`lyapunov_solves`)
    and the determinants of their covariances as stacks (`_block_dets`),
    with the bits of the point path.
    """
    grid = [float(d0) for d0 in delta0_over_kappa_grid]
    solved = solutions(cfg, grid, ring_mode)
    solves = lyapunov_solves(
        [sol.model for sol in solved
         if isinstance(sol, PointSolution) and sol.model.stable])
    covariances = iter(solves)
    dets = iter(_block_dets(np.reshape(
        [V for V in solves if not isinstance(V, LevringError)],
        (-1, 4, 4))).tolist())
    rows = []
    for d0, sol in zip(grid, solved):
        if isinstance(sol, NumericalError):
            rows.append(_record(
                EntanglementPoint, delta0_over_kappa=d0, E_n=None,
                stable=False, x_s=None, omega_m=None, Q_used=None, E_x=None,
                error=error_cell(sol)))
            continue
        e_n, error = None, "no stationary state"
        if sol.model.stable:
            try:
                V = next(covariances)
                if isinstance(V, LevringError):
                    raise V
                e_n, error = _negativity(*next(dets)).E_n, ""
            except LevringError as exc:
                error = error_cell(exc)
        rows.append(_record(
            EntanglementPoint, delta0_over_kappa=d0, E_n=e_n,
            stable=sol.model.stable, x_s=sol.op.x_s, omega_m=sol.op.omega_m,
            Q_used=sol.derived.ring_charge, E_x=sol.field_at_xs,
            error=error))
    return rows
