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

from .errors import NumericalError, caught
from .model import _FLOATS, DerivedParams, _record

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
    op: OperatingPoint
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


def _drift_row(omega_m, Omega_m, d, G, gamma, kappa, zero=0.0) -> list:
    """The drift matrix as a flat row of its 16 entries, row-major: the
    seven structural entries, each written once, and zeros (`zero`, an
    array of them for rows of arrays)."""
    h = -kappa / 2.0
    return [zero, omega_m, zero, zero,
            -Omega_m, -gamma / 2.0, -G, zero,
            zero, zero, h, d,
            -G, zero, -d, h]


def drift_matrix(op: OperatingPoint, gamma: float, kappa: float) -> np.ndarray:
    """The 4x4 drift matrix; only its seven structural entries are set."""
    return np.array(_drift_row(op.omega_m, op.Omega_m, op.delta_eff, op.G,
                               gamma, kappa)).reshape(4, 4)


def char_poly_coefficients(op: OperatingPoint, gamma: float, kappa: float):
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


def _quartic_verdict(ev, omega_m, Omega_m, d, G, gamma, kappa):
    """(S1, S2, marginal, finite) from Routh-Hurwitz, on Python floats or
    arrays (ev, a `model._Evaluator`); finite is whether S1 and S2 both
    are, and marginal is only read where they are.

    Each `**` is libm pow on Python floats (`_array_square` on arrays).
    A product that overflows is a silent inf.  Where a `**` overflows,
    Python raises, and both S values are nan, so the finiteness check
    (`_routh_hurwitz_error`) names S1: its square is nan, which makes S2
    nan, and S1 too unless the square is (gamma + kappa)^2 or
    (gamma + 2 kappa)^2, where S1 is set to nan here.
    """
    four_d2 = 4.0 * ev.square(d)
    kappa2 = ev.square(kappa)
    W = omega_m * Omega_m
    t1 = W * (four_d2 + kappa2)
    t2 = 4.0 * ev.square(G) * d * omega_m
    s1 = t1 - t2

    sums = gamma + kappa, gamma + 2.0 * kappa
    sum2 = [ev.square(v) for v in sums]
    b1 = kappa * (four_d2 + sum2[0]) + 2.0 * gamma * W
    b2 = gamma * (four_d2 + kappa2) + 8.0 * kappa * W
    u1 = b1 * b2
    u2 = 2.0 * sum2[1] * s1
    scale = 2.0 * sums[1]
    s2 = scale * (u1 - u2)
    overflow = ((sum2[0] != sum2[0]) & (sums[0] == sums[0])
                | (sum2[1] != sum2[1]) & (sums[1] == sums[1]))
    s1 = ev.where(overflow, math.nan, s1)
    marginal = ((abs(s1) < RH_MARGINAL_EPS * ev.maximum(abs(t1), abs(t2)))
                | (abs(s2) < RH_MARGINAL_EPS * scale
                   * ev.maximum(abs(u1), abs(u2))))
    return s1, s2, marginal, ev.isfinite(s1) & ev.isfinite(s2)


def _routh_hurwitz_error(s1: float, s2: float) -> NumericalError:
    """The NumericalError of a model whose S1 or S2 is not finite, S1
    named first."""
    name, value = ("S1", s1) if not math.isfinite(s1) else ("S2", s2)
    return NumericalError(f"Routh-Hurwitz value {name} = {value} is not finite")


def _model_values(ev, omega_m, Omega_m, d, G, gamma, kappa, Gamma_diff):
    """((S1, S2, marginal), (drift row, diffusion row)) of models, on
    Python floats or arrays (ev), for `model._tabulate`."""
    zero = ev.zeros(omega_m)
    return (_quartic_verdict(ev, omega_m, Omega_m, d, G, gamma, kappa),
            (_drift_row(omega_m, Omega_m, d, G, gamma, kappa, zero),
             _diffusion_row(Gamma_diff, kappa, zero)))


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


def _diffusion_row(Gamma_diff, kappa, zero=0.0) -> list:
    """diag(0, Gamma, kappa/2, kappa/2) as a flat row, like `_drift_row`."""
    h = kappa / 2.0
    return [zero, zero, zero, zero,
            zero, Gamma_diff, zero, zero,
            zero, zero, h, zero,
            zero, zero, zero, h]


def _eigenvalue_rows(A: np.ndarray, rows):
    """The eigenvalues of the drift matrices A[rows] of a [B, 4, 4] stack,
    rows ascending, from one stacked `eigvals` call, as two lists with
    one entry per row: a sorted complex [4] row of one array, or the
    NumericalError that matrix gives; and its largest real part, the
    last, as a Python float (nan for an error).  A failing stack is
    repeated matrix by matrix, so the error lands on the row it belongs
    to."""
    if not rows:
        return [], []
    # all rows, as a one-cell grid's usually are, need no gathered copy
    stacked = caught(_eigenvalues, A if len(rows) == len(A) else A[rows])
    if not isinstance(stacked, NumericalError):
        return list(stacked), stacked[:, -1].real.tolist()
    eigs = [caught(_eigenvalues, A[b]) for b in rows]  # name the failures
    return eigs, [math.nan if isinstance(e, NumericalError)
                  else float(e[-1].real) for e in eigs]


def _stable(s1: float, s2: float, marginal: bool, max_re: float):
    """(rh_stable, eig_stable) from the Routh-Hurwitz values (finite) and
    the largest eigenvalue real part: the one place they are decided."""
    return s1 > 0.0 and s2 > 0.0 and not marginal, max_re < 0.0


def _assemble(op: OperatingPoint, derived: DerivedParams, A: np.ndarray,
              D: np.ndarray, s1: float, s2: float, marginal: bool,
              eigs: np.ndarray, max_re: float) -> StateSpaceModel:
    """The model of one entry, its verdict's flags by `_stable`."""
    rh_stable, eig_stable = _stable(s1, s2, marginal, max_re)
    verdict = _record(
        StabilityVerdict, s1=s1, s2=s2, rh_stable=rh_stable,
        rh_marginal=marginal, eigenvalues=eigs, max_real_part=max_re,
        eig_stable=eig_stable)
    return _record(StateSpaceModel, A=A, D=D, op=op, derived=derived,
                   verdict=verdict)


def build_model(op: OperatingPoint, derived: DerivedParams) -> StateSpaceModel:
    """Assemble drift/diffusion matrices and record both stability verdicts.

    Instability is a verdict, not an error.  `derived` must carry damping
    for the operating point's omega_m (see DerivedParams.with_damping).
    The values are the grid solvers' screen's (`_model_values` on Python
    floats, `_eigenvalues`): a non-finite S1 or S2, or failing
    eigenvalues, raise a NumericalError.
    """
    if derived.gamma is None or derived.Gamma_diff is None:
        raise ValueError(
            "derived params lack damping; call with_damping(omega_m) first")
    (s1, s2, marginal, finite), (drift, diffusion) = _model_values(
        _FLOATS, op.omega_m, op.Omega_m, op.delta_eff, op.G, derived.gamma,
        derived.kappa, derived.Gamma_diff)
    if not finite:
        raise _routh_hurwitz_error(s1, s2)
    A = np.array(drift).reshape(4, 4)
    eigs = _eigenvalues(A)
    return _assemble(op, derived, A, np.array(diffusion).reshape(4, 4),
                     s1, s2, marginal, eigs, float(eigs[-1].real))
