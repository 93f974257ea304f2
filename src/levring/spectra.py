"""Symmetric spectra of the cavity output quadratures.

Frequency-domain solution of the linearised dynamics: each internal
quadrature is a rational transfer from the thermal force and the two
input-noise quadratures, with common denominator

    d(w) = chi_c^-1(w) chi_m^-1(w) - G^2 omega_m Delta,

chi_c^-1 = Delta^2 + (kappa/2 - iw)^2,  chi_m^-1 = om Om - w^2 - iw gamma/2.

The output spectrum follows from the input-output relation
J_out = sqrt(kappa) J - J_in.  Squaring it out exactly gives

    S_JJ(w) = 1/2 + kappa Gamma |a_J|^2 / |d|^2
              + (kappa^2/2) (|b_J|^2 + |c_J|^2) / |d|^2
              - kappa Re[q_J(w) d(-w)] / |d|^2,

where a_J, b_J and c_J (times 1/d) are the responses of J to the thermal
force and to the X and Y input noise, and q_J is the response to the
input noise that J_out subtracts.  J_out subtracts each quadrature's own
input noise, so q_X = b_X and q_Y = c_Y, which are one function,
(kappa/2 - iw) chi_m^-1.  The cross term then cancels the cavity's
filtering of that noise: at G = 0 both output spectra are exactly the
shot-noise floor 1/2, as the output of a lossless cavity must be.

The shot-noise baseline used for the normalised columns is S0 = 1/2 at
every frequency (the exact decoupled output value); "thermal noise"
labels elsewhere refer to the same flat floor.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import StateSpaceModel
from .errors import NonFiniteResult

BASELINE = 0.5


@dataclass(frozen=True)
class TransferCoefficients:
    """Frequency-response pieces at one (or an array of) omega."""

    chi_c_inv: np.ndarray
    chi_m_inv: np.ndarray
    d: np.ndarray
    a_X: np.ndarray
    b_X: np.ndarray
    c_X: np.ndarray
    a_Y: np.ndarray
    b_Y: np.ndarray
    c_Y: np.ndarray


@dataclass(frozen=True)
class SpectrumTable:
    omega: np.ndarray
    omega_over_kappa: np.ndarray
    S_XX: np.ndarray
    S_YY: np.ndarray
    S_XX_norm: np.ndarray
    S_YY_norm: np.ndarray
    unstable: bool

    def __len__(self):
        return self.omega.size


def transfer_coefficients(model: StateSpaceModel, omega) -> TransferCoefficients:
    """Evaluate the nine response quantities; vectorised over omega.

    b_X and c_Y are both kw chi_m^-1 and are returned as one array.
    """
    omega = np.asarray(omega, dtype=float)
    op = model.op
    kappa, gamma = model.kappa, model.gamma
    delta, om, Om, G = op.delta_eff, op.omega_m, op.Omega_m, op.G
    iw = 1j * omega
    kw = kappa / 2.0 - iw
    chi_c_inv = delta ** 2 + kw ** 2
    chi_m_inv = om * Om - omega ** 2 - (iw * gamma) * 0.5
    d = chi_c_inv * chi_m_inv - G ** 2 * om * delta
    kw_chi_m_inv = kw * chi_m_inv
    return TransferCoefficients(
        chi_c_inv=chi_c_inv, chi_m_inv=chi_m_inv, d=d,
        a_X=np.broadcast_to(G * om * delta + 0j, omega.shape).copy(),
        b_X=kw_chi_m_inv,
        c_X=delta * chi_m_inv,
        a_Y=G * om * kw,
        b_Y=-delta * chi_m_inv + om * G ** 2,
        c_Y=kw_chi_m_inv)


@np.errstate(all="ignore")
def _output_spectra(model: StateSpaceModel, omega):
    """(S_XX, S_YY) from one evaluation of the transfer coefficients.

    Each term is formed once: |b_X|^2 = |c_Y|^2 serves both spectra, and
    so does the cross term kappa Re[b_X d*] / |d|^2, b_X = c_Y; |a_X|^2 is
    the square of the scalar |G omega_m Delta|.  They are formed with
    numpy's floating-point warnings off and checked: a |d|^2 that
    underflows to zero or is not finite, or a spectrum value that is not
    finite, raises NonFiniteResult.
    """
    tc = transfer_coefficients(model, omega)
    kappa = model.kappa
    Gamma = model.derived.Gamma_diff
    abs_d2 = np.abs(tc.d) ** 2
    if np.any(abs_d2 == 0.0):
        raise NonFiniteResult("transfer denominator underflowed to zero")
    if not np.isfinite(abs_d2).all():
        raise NonFiniteResult("transfer denominator |d|^2 is not finite")
    d_minus = np.conj(tc.d)  # d(-w) = d(w)*

    cross = kappa * np.real(tc.b_X * d_minus) / abs_d2

    def spectrum(a2, b2, c2):
        return (BASELINE
                + kappa * Gamma * a2 / abs_d2
                + kappa ** 2 / 2.0 * (b2 + c2) / abs_d2
                - cross)

    op = model.op
    a_X = abs(op.G * op.omega_m * op.delta_eff)
    b_X2 = np.abs(tc.b_X) ** 2
    spectra = (spectrum(a_X * a_X, b_X2, np.abs(tc.c_X) ** 2),
               spectrum(np.abs(tc.a_Y) ** 2, np.abs(tc.b_Y) ** 2, b_X2))
    if not all(np.isfinite(s).all() for s in spectra):
        raise NonFiniteResult("output spectrum is not finite")
    return spectra


def output_spectrum(model: StateSpaceModel, omega, quadrature: str = "Y"):
    """Symmetric output spectrum S_JJ(omega), dimensionless.

    Stable models give values >= 0 with 1/2 as the shot-noise floor;
    evaluation at unstable points is allowed for map-making but carries
    no stationary-state meaning (a warning is emitted once per call).
    """
    if quadrature not in ("X", "Y"):
        raise ValueError(f"quadrature must be 'X' or 'Y', got {quadrature!r}")
    if not model.stable:
        warnings.warn("output spectrum evaluated on an unstable model",
                      stacklevel=2)
    return _output_spectra(model, omega)["XY".index(quadrature)]


def spectrum_sweep(model: StateSpaceModel, omega_grid) -> SpectrumTable:
    """Evaluate both output spectra over a strictly increasing grid, from
    one evaluation of the transfer coefficients."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    if np.any(np.diff(omega_grid) <= 0.0):
        raise ValueError("omega grid must be strictly increasing")
    try:
        s_xx, s_yy = _output_spectra(model, omega_grid)
    except NonFiniteResult as exc:
        raise NonFiniteResult(
            f"{exc} within grid [{omega_grid[0]:.3e}, {omega_grid[-1]:.3e}]")
    return SpectrumTable(
        omega=omega_grid,
        omega_over_kappa=omega_grid / model.kappa,
        S_XX=s_xx, S_YY=s_yy,
        S_XX_norm=s_xx / BASELINE, S_YY_norm=s_yy / BASELINE,
        unstable=not model.stable)
