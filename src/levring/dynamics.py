"""Linearised fluctuation dynamics: drift/diffusion matrices and stability.

The state vector is (dx, dp, dX, dY): dimensionless mechanical position
and momentum quadratures followed by the optical amplitude and phase
quadratures.  The drift matrix has exactly seven nonzero entries; the
diffusion matrix is diag(0, Gamma, kappa/2, kappa/2).

Stability is decided twice, by design: the two closed-form
Routh-Hurwitz conditions, and the eigenvalues of the drift matrix from
an explicit quartic characteristic polynomial solved with Durand-Kerner
iteration.  The pair of verdicts must agree away from marginal points;
tests enforce that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._kernels import durand_kerner, durand_kerner_batch
from .errors import IterationDiverged, NumericalError, caught
from .model import DerivedParams

if TYPE_CHECKING:  # pragma: no cover - type-only import keeps modules acyclic
    from .steady_state import OperatingPoint

# relative dead zone below which a Routh-Hurwitz value is "marginal"
RH_MARGINAL_EPS = 1e-12
_DK_TOL = 1e-14
_DK_MAX_ITER = 500
EIG_RESIDUAL_BOUND = 1e-10


@dataclass(frozen=True)
class StabilityVerdict:
    s1: float
    s2: float
    rh_stable: bool
    rh_marginal: bool
    eigenvalues: np.ndarray      # 4 complex roots, sorted by real part
    max_real_part: float
    eig_stable: bool


@dataclass(frozen=True)
class StateSpaceModel:
    A: np.ndarray                # 4x4 drift matrix, rad/s entries
    D: np.ndarray                # 4x4 diagonal diffusion matrix
    op: "OperatingPoint"
    derived: DerivedParams       # completed (damping fields set)
    verdict: StabilityVerdict

    @property
    def stable(self) -> bool:
        return self.verdict.eig_stable

    @property
    def gamma(self) -> float:
        return self.derived.gamma

    @property
    def kappa(self) -> float:
        return self.derived.kappa


def drift_matrix(op: "OperatingPoint", gamma: float, kappa: float) -> np.ndarray:
    """The 4x4 drift matrix; only its seven structural entries are set."""
    A = np.zeros((4, 4))
    A[0, 1] = op.omega_m
    A[1, 0] = -op.Omega_m
    A[1, 1] = -gamma / 2.0
    A[1, 2] = -op.G
    A[2, 2] = -kappa / 2.0
    A[3, 3] = -kappa / 2.0
    A[2, 3] = op.delta_eff
    A[3, 2] = -op.delta_eff
    A[3, 0] = -op.G
    return A


def char_poly_coefficients(op: "OperatingPoint", gamma: float, kappa: float):
    """Monic quartic coefficients (a3, a2, a1, a0) of det(lambda I - A).

    Closed-form expansion of the sparse 4x4 determinant:
    p(l) = (l^2 + (gamma/2) l + om*Om) ((l + kappa/2)^2 + Delta^2)
           - G^2 om Delta.
    """
    W = op.omega_m * op.Omega_m
    c = kappa ** 2 / 4.0 + op.delta_eff ** 2
    a3 = kappa + gamma / 2.0
    a2 = c + gamma * kappa / 2.0 + W
    a1 = gamma * c / 2.0 + kappa * W
    a0 = W * c - op.G ** 2 * op.omega_m * op.delta_eff
    return a3, a2, a1, a0


def _rh_values(op: "OperatingPoint", gamma: float, kappa: float):
    """The two Routh-Hurwitz condition values and their marginality flag."""
    d = op.delta_eff
    W = op.omega_m * op.Omega_m
    four_d2 = 4.0 * d ** 2
    t1 = W * (four_d2 + kappa ** 2)
    t2 = 4.0 * op.G ** 2 * d * op.omega_m
    s1 = t1 - t2

    b1 = kappa * (four_d2 + (gamma + kappa) ** 2) + 2.0 * gamma * W
    b2 = gamma * (four_d2 + kappa ** 2) + 8.0 * kappa * W
    u1 = b1 * b2
    u2 = 2.0 * (gamma + 2.0 * kappa) ** 2 * s1
    s2 = 2.0 * (gamma + 2.0 * kappa) * (u1 - u2)

    marginal = (abs(s1) < RH_MARGINAL_EPS * max(abs(t1), abs(t2))
                or abs(s2) < RH_MARGINAL_EPS
                * (2.0 * (gamma + 2.0 * kappa)) * max(abs(u1), abs(u2)))
    return s1, s2, marginal


def _scaled_quartic(op: "OperatingPoint", gamma: float, kappa: float):
    """(rho, c): the root scale and the quartic rescaled to O(1) coefficients.

    c is None when rho == 0, where every eigenvalue is zero.  Raises
    NumericalError when a coefficient or a power of rho overflows.
    """
    a3, a2, a1, a0 = coeffs = char_poly_coefficients(op, gamma, kappa)
    rho = max(abs(a3), abs(a2) ** 0.5, abs(a1) ** (1.0 / 3.0),
              abs(a0) ** 0.25)
    if rho == 0.0:
        return rho, None
    try:
        c = np.array([a3 / rho, a2 / rho ** 2, a1 / rho ** 3, a0 / rho ** 4],
                     dtype=np.complex128)
    except OverflowError:
        c = None
    if c is None or not all(map(math.isfinite, coeffs)):
        raise NumericalError(
            f"characteristic quartic of scale {rho:.3e} rad/s overflows")
    return rho, c


def _finish_roots(roots, iters, c, rho):
    """Polish, check, unscale and sort Durand-Kerner roots.

    roots and c are [4] for one quartic or [B, 4] for a batch; iters is
    the iteration count or counts, and rho the scale, broadcastable
    against roots.  Each quartic gets two Newton steps on its scaled
    polynomial; one whose iteration hit the cap is checked against the
    residual bound; the roots are unscaled by rho and sorted by real
    part.  Returns the eigenvalues, shaped like roots, and a list
    holding, per quartic, the IterationDiverged it raises, or None.
    """
    # numpy scalars for one quartic, [B, 1] columns for a batch: the
    # same per-element arithmetic, and scalar operands are the cheaper
    c0, c1, c2, c3 = c if c.ndim == 1 else c.T[:, :, None]

    def poly(z):
        return (((z + c0) * z + c1) * z + c2) * z + c3

    def dpoly(z):
        return ((4.0 * z + 3.0 * c0) * z + 2.0 * c1) * z + c2

    for _ in range(2):
        dp = dpoly(roots)
        dp = np.where(dp == 0, 1.0, dp)
        roots = roots - poly(roots) / dp

    coeffs = c.reshape(-1, 4)
    errors = [None] * len(coeffs)
    capped = np.flatnonzero(np.reshape(iters, -1) >= _DK_MAX_ITER)
    if capped.size:
        residuals = np.abs(poly(roots)).reshape(-1, 4)
        for b in capped:
            bound = EIG_RESIDUAL_BOUND * max(1.0, float(np.linalg.norm(
                np.concatenate(([1.0 + 0j], coeffs[b])))))
            if np.any(residuals[b] > bound):
                errors[b] = IterationDiverged(
                    f"eigenvalue iteration residual {residuals[b].max():.3e} "
                    f"exceeds bound {bound:.3e}")
    eigs = roots * rho
    # quantise the primary key: conjugate pairs differ in the last ulp
    scale = np.abs(eigs).max(axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    order = np.lexsort((eigs.imag, (eigs.real / scale).round(12)), axis=-1)
    return np.take_along_axis(eigs, order, axis=-1), errors


def drift_eigenvalues(op: "OperatingPoint", gamma: float, kappa: float) -> np.ndarray:
    """Roots of the characteristic quartic by scaled Durand-Kerner iteration.

    The polynomial is rescaled to O(1) coefficients before iterating;
    each root is polished with two Newton steps and, if the iteration
    ran to its cap, verified against a residual bound on the scaled
    polynomial.
    """
    rho, c = _scaled_quartic(op, gamma, kappa)
    if rho == 0.0:
        return np.zeros(4, dtype=complex)
    roots, iters = durand_kerner(c, _DK_TOL, _DK_MAX_ITER)
    eigs, (error,) = _finish_roots(roots, iters, c, rho)
    if error is not None:
        raise error
    return eigs


def _assemble(op: "OperatingPoint", derived: DerivedParams,
              eigs: np.ndarray) -> StateSpaceModel:
    gamma, kappa = derived.gamma, derived.kappa
    A = drift_matrix(op, gamma, kappa)
    D = np.diag([0.0, derived.Gamma_diff, kappa / 2.0, kappa / 2.0])
    s1, s2, marginal = _rh_values(op, gamma, kappa)
    max_re = float(np.max(eigs.real))
    verdict = StabilityVerdict(
        s1=float(s1), s2=float(s2),
        rh_stable=(s1 > 0.0 and s2 > 0.0 and not marginal),
        rh_marginal=marginal,
        eigenvalues=eigs, max_real_part=max_re,
        eig_stable=(max_re < 0.0))
    return StateSpaceModel(A=A, D=D, op=op, derived=derived, verdict=verdict)


def _require_damping(derived: DerivedParams) -> None:
    if derived.gamma is None or derived.Gamma_diff is None:
        raise ValueError(
            "derived params lack damping; call with_damping(omega_m) first")


def build_model(op: "OperatingPoint", derived: DerivedParams) -> StateSpaceModel:
    """Assemble drift/diffusion matrices and record both stability verdicts.

    Instability is a verdict, not an error.  `derived` must carry damping
    for the operating point's omega_m (see DerivedParams.with_damping).
    """
    _require_damping(derived)
    return _assemble(op, derived,
                     drift_eigenvalues(op, derived.gamma, derived.kappa))


def build_models(ops, deriveds):
    """`build_model` over a batch, with one Durand-Kerner run for all.

    The eigenvalues of every entry are found at the call; the models are
    assembled as the returned iterator reaches them, so a caller that
    drops each in turn holds one at a time.  Entry b is the model
    `build_model(ops[b], deriveds[b])` returns, or the NumericalError it
    raises; both are bit for bit the same.
    """
    for derived in deriveds:
        _require_damping(derived)
    scaled = [caught(_scaled_quartic, op, d.gamma, d.kappa)
              for op, d in zip(ops, deriveds)]
    finished = {b: (None, error) for b, error in enumerate(scaled)
                if isinstance(error, NumericalError)}
    rows = [b for b, sc in enumerate(scaled)
            if b not in finished and sc[0] != 0.0]
    if rows:
        c = np.array([scaled[b][1] for b in rows])
        rho = np.array([scaled[b][0] for b in rows])
        roots, iters = durand_kerner_batch(c, _DK_TOL, _DK_MAX_ITER)
        finished.update(zip(rows, zip(*_finish_roots(roots, iters, c,
                                                     rho[:, None]))))

    def models():
        for b, (op, derived) in enumerate(zip(ops, deriveds)):
            eigs, error = finished.get(b, (np.zeros(4, dtype=complex), None))
            yield error if error is not None else _assemble(op, derived, eigs)

    return models()
