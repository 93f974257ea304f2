"""Linearised fluctuation dynamics: drift/diffusion matrices and stability.

The state vector is (dx, dp, dX, dY): dimensionless mechanical position
and momentum quadratures followed by the optical amplitude and phase
quadratures.  The drift matrix has exactly seven nonzero entries; the
diffusion matrix is diag(0, Gamma, kappa/2, kappa/2).

Stability is decided twice, by design, on two independent routes: the
two closed-form Routh-Hurwitz conditions on the coefficients of the
characteristic quartic det(lambda I - A), and the eigenvalues of the
drift matrix A itself, from LAPACK's geev (`np.linalg.eigvals`).  The
pair of verdicts must agree away from marginal points, and the quartic
must match the matrix; tests enforce both.  The Routh-Hurwitz values
come first: a model whose S1 or S2 is not finite is a NumericalError,
and its eigenvalues are not sought.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, caught, one
from .model import DerivedParams, _record

if TYPE_CHECKING:  # pragma: no cover - type-only import keeps modules acyclic
    from .steady_state import OperatingPoint

# relative dead zone below which a Routh-Hurwitz value is "marginal"
RH_MARGINAL_EPS = 1e-12


@dataclass(frozen=True)
class StabilityVerdict:
    s1: float
    s2: float
    rh_stable: bool
    rh_marginal: bool
    eigenvalues: np.ndarray      # 4 complex, sorted by (real, imag)
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


def _drift_row(op: "OperatingPoint", gamma: float, kappa: float) -> list:
    """The drift matrix as a flat row of its 16 entries, row-major: the
    seven structural entries, each written once, and zeros."""
    G, d, h = op.G, op.delta_eff, -kappa / 2.0
    return [0.0, op.omega_m, 0.0, 0.0,
            -op.Omega_m, -gamma / 2.0, -G, 0.0,
            0.0, 0.0, h, d,
            -G, 0.0, -d, h]


def drift_matrix(op: "OperatingPoint", gamma: float, kappa: float) -> np.ndarray:
    """The 4x4 drift matrix; only its seven structural entries are set."""
    return np.array(_drift_row(op, gamma, kappa)).reshape(4, 4)


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


def _quartic_verdict(op: "OperatingPoint", gamma: float, kappa: float):
    """(S1, S2, marginal) from Routh-Hurwitz, formed once per candidate on
    Python floats; NumericalError unless S1 and S2 are finite.  A product
    that overflows is a silent inf, a `**` raises OverflowError: both
    S values are then nan, and the finiteness check names S1."""
    d = op.delta_eff
    W = op.omega_m * op.Omega_m
    try:
        four_d2 = 4.0 * d ** 2
        t1 = W * (four_d2 + kappa ** 2)
        t2 = 4.0 * op.G ** 2 * d * op.omega_m
        s1 = t1 - t2

        b1 = kappa * (four_d2 + (gamma + kappa) ** 2) + 2.0 * gamma * W
        b2 = gamma * (four_d2 + kappa ** 2) + 8.0 * kappa * W
        u1 = b1 * b2
        u2 = 2.0 * (gamma + 2.0 * kappa) ** 2 * s1
        s2 = 2.0 * (gamma + 2.0 * kappa) * (u1 - u2)
    except OverflowError:
        s1 = s2 = math.nan
    for name, value in (("S1", s1), ("S2", s2)):
        if not math.isfinite(value):
            raise NumericalError(
                f"Routh-Hurwitz value {name} = {value} is not finite")
    marginal = (abs(s1) < RH_MARGINAL_EPS * max(abs(t1), abs(t2))
                or abs(s2) < RH_MARGINAL_EPS
                * (2.0 * (gamma + 2.0 * kappa)) * max(abs(u1), abs(u2)))
    return s1, s2, marginal


def _eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a drift matrix [4, 4], or of each of a stack
    [B, 4, 4], by LAPACK's geev: complex [4] or [B, 4], each row sorted
    by (real, imag).

    geev runs on each matrix of a stack alone, so a matrix gets the same
    bits alone and stacked; for a real matrix it returns the two members
    of a complex pair as exact conjugates, so the sort needs no
    tolerance.  Raises NumericalError when geev fails or an eigenvalue
    is not finite.
    """
    try:
        eigs = np.linalg.eigvals(A).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"drift matrix eigenvalues: {exc}") from None
    if not np.isfinite(eigs).all():
        raise NumericalError("drift matrix has a non-finite eigenvalue")
    return np.sort(eigs, axis=-1)


def _diffusion_row(derived: DerivedParams) -> list:
    """diag(0, Gamma, kappa/2, kappa/2) as a flat row, like `_drift_row`."""
    h = derived.kappa / 2.0
    return [0.0, 0.0, 0.0, 0.0,
            0.0, derived.Gamma_diff, 0.0, 0.0,
            0.0, 0.0, h, 0.0,
            0.0, 0.0, 0.0, h]


def _assemble(op: "OperatingPoint", derived: DerivedParams, A: np.ndarray,
              D: np.ndarray, rh, eigs: np.ndarray) -> StateSpaceModel:
    s1, s2, marginal = rh
    max_re = float(eigs[-1].real)     # eigs are sorted by real part
    verdict = _record(
        StabilityVerdict, s1=float(s1), s2=float(s2),
        rh_stable=(s1 > 0.0 and s2 > 0.0 and not marginal),
        rh_marginal=marginal,
        eigenvalues=eigs, max_real_part=max_re,
        eig_stable=(max_re < 0.0))
    return _record(StateSpaceModel, A=A, D=D, op=op, derived=derived,
                   verdict=verdict)


def build_model(op: "OperatingPoint", derived: DerivedParams) -> StateSpaceModel:
    """Assemble drift/diffusion matrices and record both stability verdicts.

    Instability is a verdict, not an error.  `derived` must carry damping
    for the operating point's omega_m (see DerivedParams.with_damping).
    The build is that of `build_models` on the one entry.
    """
    return one(build_models([op], [derived]))


def build_models(ops, deriveds):
    """The model of each of a batch of operating points, with one
    `eigvals` call for all.

    Entry b of the returned list is the model of ops[b] with the damped
    constants deriveds[b], or the NumericalError building it raises.
    The eigenvalues of every entry whose Routh-Hurwitz values pass
    `_quartic_verdict` come from one stacked call (`_eigenvalues`); a
    failing stack is repeated matrix by matrix, so the error lands on
    the entry it belongs to.
    """
    for derived in deriveds:
        if derived.gamma is None or derived.Gamma_diff is None:
            raise ValueError(
                "derived params lack damping; call with_damping(omega_m) first")
    # one stack of each matrix for the batch, entry b its [b] slice; a
    # [0, 4, 4] stack, for no entries or no rows, has no eigenvalues
    A = np.array([_drift_row(op, d.gamma, d.kappa)
                  for op, d in zip(ops, deriveds)]).reshape(-1, 4, 4)
    D = np.array([_diffusion_row(d) for d in deriveds]).reshape(-1, 4, 4)
    rhs = [caught(_quartic_verdict, op, d.gamma, d.kappa)
           for op, d in zip(ops, deriveds)]
    eigs = [rh if isinstance(rh, NumericalError) else None for rh in rhs]
    rows = [b for b, found in enumerate(eigs) if found is None]
    stacked = caught(_eigenvalues, A[rows])
    if isinstance(stacked, NumericalError):  # name the failing entries
        stacked = [caught(_eigenvalues, A[b]) for b in rows]
    for b, found in zip(rows, stacked):
        eigs[b] = found
    return [found if isinstance(found, NumericalError)
            else _assemble(op, derived, A[b], D[b], rh, found)
            for b, (op, derived, rh, found)
            in enumerate(zip(ops, deriveds, rhs, eigs))]
