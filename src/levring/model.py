"""System configuration and derived constants.

All raw experimental inputs live in :class:`SystemConfig` (SI internally;
the config-file layer converts Torr, nm, mW, ...).  :func:`derive_constants`
evaluates every derived quantity of the model: cavity wavenumber and
linewidth, mode volume, sphere mass, ponderomotive coupling, drive
amplitude, bound-charge value and the electrostatic spring constant of the
charged ring.

Mechanical damping and diffusion depend on the mechanical frequency of the
operating point, which is only known after the steady state is solved, so
:func:`derive_constants` leaves those fields unset and attaches a
closure-of-record (``damping_at``); :meth:`DerivedParams.with_damping`
completes the record once omega_m is known.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import CODATA2018, PhysicalConstants
from .errors import ConfigInvalid, NonPositiveFrequency

TORR_TO_PA = 133.322368
DEFAULT_GAS_MASS_U = 28.97  # mean molecular mass of air, in u

# validation thresholds for the "much smaller / much larger" requirements
_MAX_RADIUS_OVER_WAVELENGTH = 0.1
_MIN_RING_OVER_SPHERE_RADIUS = 100.0
_MAX_OFFSET_OVER_CAVITY_LENGTH = 0.01


@dataclass(frozen=True)
class SystemConfig:
    """Raw experimental inputs, all SI.

    The ring may be specified either by its total charge ``ring_charge``
    (C) or by the electrostatic field ``ring_field`` (V/m) it produces on
    the axis at the trap antinode x = 0.  The detuning may be given in
    rad/s (``detuning_delta0``) or in cavity linewidths
    (``detuning_over_kappa``).  Exactly one of each pair must be set.
    """

    sphere_radius: float          # m
    density: float                # kg/m^3
    permittivity: float           # relative, dimensionless
    wavelength: float             # m
    cavity_length: float          # m
    finesse: float                # dimensionless
    input_power: float            # W
    ring_radius: float            # m
    ring_offset_c0: float         # m
    mcp_epsilon: float            # bound-charge fraction, q = epsilon * e0
    temperature: float            # K
    gas_pressure: float           # Pa
    ring_charge: Optional[float] = None       # C
    ring_field: Optional[float] = None        # V/m at x = 0
    detuning_delta0: Optional[float] = None   # rad/s
    detuning_over_kappa: Optional[float] = None
    gas_molecule_mass: float = DEFAULT_GAS_MASS_U * CODATA2018.u  # kg
    spectrum_form: str = "supplement"

    def validate(self) -> None:
        """Raise ConfigInvalid naming the first violated requirement."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigInvalid(f"{field.name} must be finite, got {value}")
        positive = [
            "sphere_radius", "density", "wavelength", "cavity_length",
            "finesse", "input_power", "ring_radius", "temperature",
            "gas_molecule_mass",
        ]
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ConfigInvalid(f"{name} must be strictly positive")
        if self.gas_pressure < 0.0:
            raise ConfigInvalid("gas_pressure must be non-negative")
        if self.mcp_epsilon < 0.0:
            raise ConfigInvalid("mcp_epsilon must be non-negative")
        if not self.permittivity > 1.0:
            raise ConfigInvalid("permittivity must exceed 1")
        if self.sphere_radius > _MAX_RADIUS_OVER_WAVELENGTH * self.wavelength:
            raise ConfigInvalid(
                "sphere_radius must be far below the wavelength "
                f"(limit {_MAX_RADIUS_OVER_WAVELENGTH} * wavelength)")
        if self.ring_radius < _MIN_RING_OVER_SPHERE_RADIUS * self.sphere_radius:
            raise ConfigInvalid(
                "ring_radius must be far above sphere_radius "
                f"(limit {_MIN_RING_OVER_SPHERE_RADIUS} * sphere_radius)")
        if abs(self.ring_offset_c0) > _MAX_OFFSET_OVER_CAVITY_LENGTH * self.cavity_length:
            raise ConfigInvalid(
                "ring_offset_c0 must be far below cavity_length "
                f"(limit {_MAX_OFFSET_OVER_CAVITY_LENGTH} * cavity_length)")
        if (self.ring_charge is None) == (self.ring_field is None):
            raise ConfigInvalid(
                "exactly one of ring_charge / ring_field must be given")
        if self.ring_field is not None and self.ring_offset_c0 == 0.0:
            raise ConfigInvalid(
                "ring_field requires ring_offset_c0 != 0 "
                "(the on-axis field vanishes at the ring plane)")
        if (self.detuning_delta0 is None) == (self.detuning_over_kappa is None):
            raise ConfigInvalid(
                "exactly one of detuning_delta0 / detuning_over_kappa must be given")
        if self.spectrum_form not in ("supplement", "maintext"):
            raise ConfigInvalid("spectrum_form must be 'supplement' or 'maintext'")


@dataclass(frozen=True)
class DerivedParams:
    """Computed constants of the configured system (SI).

    gamma_ph / gamma_gas / gamma / Gamma_diff depend on the operating
    mechanical frequency; they stay None until ``with_damping`` is called.
    """

    k: float              # drive wavenumber, 1/m
    omega_c: float        # cavity angular frequency, rad/s
    V_s: float            # sphere volume, m^3
    V_c: float            # cavity mode volume, m^3
    waist: float          # mode waist, m
    mass: float           # sphere mass, kg
    g: float              # ponderomotive coupling, rad/s
    kappa: float          # cavity linewidth, rad/s
    E_drive: float        # drive amplitude, 1/s
    q_mcp: float          # bound charge, C
    ring_charge: float    # ring charge, C (resolved from field if needed)
    ring_radius: float    # m, carried through for the exact ring force
    A_q: float            # electrostatic spring constant, N/m
    damping_at: Optional[Callable[[float], tuple]] = dataclasses.field(
        default=None, repr=False, compare=False)
    gamma_ph: Optional[float] = None      # 1/s
    gamma_gas: Optional[float] = None     # 1/s
    gamma: Optional[float] = None         # 1/s
    Gamma_diff: Optional[float] = None    # 1/s

    def with_damping(self, omega_m: float) -> "DerivedParams":
        """Return a completed copy with damping evaluated at omega_m."""
        if self.damping_at is None:
            raise ValueError("no damping closure attached to these parameters")
        gph, ggas, gam, Gam = self.damping_at(omega_m)
        return dataclasses.replace(
            self, gamma_ph=gph, gamma_gas=ggas, gamma=gam, Gamma_diff=Gam)


def resolve_ring_charge(cfg: SystemConfig,
                        consts: PhysicalConstants = CODATA2018) -> float:
    """Total ring charge in C.

    When the config specifies the on-axis field at x = 0 instead of the
    charge, invert the exact field expression there (not its small-offset
    linearisation).
    """
    if cfg.ring_charge is not None:
        return cfg.ring_charge
    c0, R = cfg.ring_offset_c0, cfg.ring_radius
    bracket = (1.0 + (c0 / R) ** 2) ** 1.5
    return cfg.ring_field * 4.0 * np.pi * consts.eps0 * R ** 3 * bracket / c0


def ring_potential(x, cfg: SystemConfig,
                   consts: PhysicalConstants = CODATA2018):
    """On-axis scalar potential of the charged ring at sphere position x (V).

    Even in (C0 + x); maximal at x = -C0.  Accepts scalar or ndarray x.
    """
    Q = resolve_ring_charge(cfg, consts)
    u = (cfg.ring_offset_c0 + x) / cfg.ring_radius
    return Q / (4.0 * np.pi * consts.eps0 * cfg.ring_radius) / np.sqrt(1.0 + u * u)


def ring_field(x, cfg: SystemConfig,
               consts: PhysicalConstants = CODATA2018):
    """On-axis electrostatic field of the ring at x (V/m); equals -d(potential)/dx."""
    Q = resolve_ring_charge(cfg, consts)
    R = cfg.ring_radius
    s = cfg.ring_offset_c0 + x
    u = s / R
    return Q * s / (4.0 * np.pi * consts.eps0 * R ** 3 * (1.0 + u * u) ** 1.5)


def electrostatic_spring(cfg: SystemConfig,
                         consts: PhysicalConstants = CODATA2018,
                         x_s: float = 0.0,
                         exact: bool = False) -> float:
    """Electrostatic spring constant A_q (N/m).

    Approximate mode: q Q / (4 pi eps0 R^3), the (C0 + x_s) << R limit.
    Exact mode multiplies by [1 - 2 u^2][1 + u^2]^(-5/2), u = (C0+x_s)/R,
    the curvature of the full on-axis potential.
    """
    q = cfg.mcp_epsilon * consts.e0
    Q = resolve_ring_charge(cfg, consts)
    a_q = q * Q / (4.0 * np.pi * consts.eps0 * cfg.ring_radius ** 3)
    if exact:
        u2 = ((cfg.ring_offset_c0 + x_s) / cfg.ring_radius) ** 2
        a_q *= (1.0 - 2.0 * u2) * (1.0 + u2) ** -2.5
    return a_q


def damping_and_diffusion(cfg: SystemConfig, consts: PhysicalConstants,
                          omega_m: float):
    """Mechanical damping channels and diffusion constant at omega_m.

    Returns (gamma_ph, gamma_gas, gamma, Gamma_diff), all 1/s:
    photon-recoil damping, residual-gas damping, their sum, and the
    momentum diffusion rate gamma * kB T / (hbar omega_m).

    The stated formulas assume a Markovian thermal force, which holds for
    hbar omega_m << kB T; they are applied unchanged at any configured
    temperature.
    """
    if not omega_m > 0.0:
        raise NonPositiveFrequency(f"omega_m = {omega_m} must be positive")
    eps = cfg.permittivity
    V_s = 4.0 / 3.0 * np.pi * cfg.sphere_radius ** 3
    mass = cfg.density * V_s
    kBT = consts.kB * cfg.temperature
    gamma_ph = (4.0 * np.pi ** 2 / 5.0) * (eps - 1.0) / (eps + 2.0) \
        * (V_s / cfg.wavelength ** 3) * omega_m * (consts.hbar * omega_m / kBT)
    v_gas = np.sqrt(3.0 * kBT / cfg.gas_molecule_mass)
    gamma_gas = 4.0 * np.pi * cfg.sphere_radius ** 2 * cfg.gas_pressure / (mass * v_gas)
    gamma = gamma_ph + gamma_gas
    Gamma_diff = gamma * kBT / (consts.hbar * omega_m)
    return float(gamma_ph), float(gamma_gas), float(gamma), float(Gamma_diff)


def derive_constants(cfg: SystemConfig,
                     consts: PhysicalConstants = CODATA2018) -> DerivedParams:
    """Evaluate every derived constant of the configured system.

    Pure: identical inputs give bit-identical outputs.  The drive
    frequency is taken equal to the cavity frequency in the drive
    amplitude E = sqrt(kappa P / hbar omega_L); the detunings involved
    are ~kappa ~ 1e6 rad/s against omega_c ~ 1e15, a relative error
    below 1e-8.
    """
    cfg.validate()
    k = 2.0 * np.pi / cfg.wavelength
    omega_c = consts.c * k
    V_s = 4.0 / 3.0 * np.pi * cfg.sphere_radius ** 3
    mass = cfg.density * V_s
    kappa = consts.c * np.pi / (2.0 * cfg.cavity_length * cfg.finesse)
    waist = np.sqrt(cfg.wavelength * cfg.cavity_length / (2.0 * np.pi))
    V_c = np.pi * waist ** 2 * cfg.cavity_length / 4.0
    g = 3.0 * V_s / (2.0 * V_c) \
        * (cfg.permittivity - 1.0) / (cfg.permittivity + 2.0) * omega_c
    E_drive = np.sqrt(kappa * cfg.input_power / (consts.hbar * omega_c))
    q_mcp = cfg.mcp_epsilon * consts.e0
    ring_charge = resolve_ring_charge(cfg, consts)
    A_q = q_mcp * ring_charge / (4.0 * np.pi * consts.eps0 * cfg.ring_radius ** 3)

    def damping_at(omega_m: float):
        return damping_and_diffusion(cfg, consts, omega_m)

    return DerivedParams(
        k=float(k), omega_c=float(omega_c), V_s=float(V_s), V_c=float(V_c),
        waist=float(waist), mass=float(mass), g=float(g), kappa=float(kappa),
        E_drive=float(E_drive), q_mcp=float(q_mcp),
        ring_charge=float(ring_charge), ring_radius=cfg.ring_radius,
        A_q=float(A_q), damping_at=damping_at)


def delta0_from_config(cfg: SystemConfig, derived: DerivedParams) -> float:
    """Bare detuning in rad/s, converting from linewidth units if needed."""
    if cfg.detuning_delta0 is not None:
        return cfg.detuning_delta0
    return cfg.detuning_over_kappa * derived.kappa
