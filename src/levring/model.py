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
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import CODATA2018
from .errors import ConfigInvalid, NonPositiveFrequency

TORR_TO_PA = 133.322368
DEFAULT_GAS_MASS_U = 28.97  # mean molecular mass of air, in u
SPECTRUM_FORMS = ("supplement", "maintext")  # spectra cross-term conventions

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
        if not CODATA2018.kB * self.temperature > 0.0:
            raise ConfigInvalid(f"temperature {self.temperature} underflows kB T")
        try:
            self.ring_radius ** 3       # as the ring's field and spring do
        except OverflowError:
            raise ConfigInvalid(f"ring_radius = {self.ring_radius} m "
                                "overflows when cubed") from None
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
        if self.spectrum_form not in SPECTRUM_FORMS:
            raise ConfigInvalid("spectrum_form must be "
                                + " or ".join(map(repr, SPECTRUM_FORMS)))


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
        # a copy of the instance dict: `dataclasses.replace` would rerun
        # __init__ over all eighteen fields, once per candidate root
        done = object.__new__(type(self))
        done.__dict__.update(self.__dict__, gamma_ph=gph, gamma_gas=ggas,
                             gamma=gam, Gamma_diff=Gam)
        return done


def resolve_ring_charge(cfg: SystemConfig) -> float:
    """Total ring charge in C.

    When the config specifies the on-axis field at x = 0 instead of the
    charge, invert the exact field expression there (not its small-offset
    linearisation).
    """
    if cfg.ring_charge is not None:
        return cfg.ring_charge
    c0, R = cfg.ring_offset_c0, cfg.ring_radius
    bracket = (1.0 + (c0 / R) ** 2) ** 1.5
    return (cfg.ring_field * 4.0 * np.pi * CODATA2018.eps0 * R ** 3 * bracket
            / c0)


def ring_potential(x, cfg: SystemConfig):
    """On-axis scalar potential of the charged ring at sphere position x (V).

    Even in (C0 + x); maximal at x = -C0.  Accepts scalar or ndarray x.
    """
    Q = resolve_ring_charge(cfg)
    u = (cfg.ring_offset_c0 + x) / cfg.ring_radius
    return (Q / (4.0 * np.pi * CODATA2018.eps0 * cfg.ring_radius)
            / np.sqrt(1.0 + u * u))


def ring_field_value(ring_charge: float, ring_radius: float, c0: float, x):
    """On-axis field (V/m) at x of a ring of the given charge and radius
    at offset c0; accepts scalar or ndarray x."""
    s = c0 + x
    u = s / ring_radius
    return ring_charge * s / (4.0 * np.pi * CODATA2018.eps0
                              * ring_radius ** 3 * (1.0 + u * u) ** 1.5)


def ring_field(x, cfg: SystemConfig):
    """On-axis electrostatic field of the ring at x (V/m); equals -d(potential)/dx."""
    return ring_field_value(resolve_ring_charge(cfg), cfg.ring_radius,
                            cfg.ring_offset_c0, x)


def electrostatic_spring(cfg: SystemConfig, x_s: float = 0.0,
                         exact: bool = False) -> float:
    """Electrostatic spring constant A_q (N/m).

    Approximate mode: q Q / (4 pi eps0 R^3), the (C0 + x_s) << R limit.
    Exact mode multiplies by [1 - 2 u^2][1 + u^2]^(-5/2), u = (C0+x_s)/R,
    the curvature of the full on-axis potential.
    """
    q = cfg.mcp_epsilon * CODATA2018.e0
    Q = resolve_ring_charge(cfg)
    a_q = q * Q / (4.0 * np.pi * CODATA2018.eps0 * cfg.ring_radius ** 3)
    if exact:
        u2 = ((cfg.ring_offset_c0 + x_s) / cfg.ring_radius) ** 2
        a_q *= (1.0 - 2.0 * u2) * (1.0 + u2) ** -2.5
    return a_q


def damping_and_diffusion(cfg: SystemConfig, omega_m: float):
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
    hbar, kBT = CODATA2018.hbar, CODATA2018.kB * cfg.temperature
    gamma_ph = (4.0 * np.pi ** 2 / 5.0) * (eps - 1.0) / (eps + 2.0) \
        * (V_s / cfg.wavelength ** 3) * omega_m * (hbar * omega_m / kBT)
    v_gas = np.sqrt(3.0 * kBT / cfg.gas_molecule_mass)
    gamma_gas = 4.0 * np.pi * cfg.sphere_radius ** 2 * cfg.gas_pressure / (mass * v_gas)
    gamma = gamma_ph + gamma_gas
    Gamma_diff = gamma * kBT / (hbar * omega_m)
    return float(gamma_ph), float(gamma_gas), float(gamma), float(Gamma_diff)


# the SystemConfig fields each derived constant is computed from;
# ring_charge and A_q also take those of the ring specification in use
_SOURCES = {
    "k": ("wavelength",),
    "omega_c": ("wavelength",),
    "V_s": ("sphere_radius",),
    "V_c": ("wavelength", "cavity_length"),
    "waist": ("wavelength", "cavity_length"),
    "mass": ("density", "sphere_radius"),
    "g": ("sphere_radius", "permittivity", "wavelength", "cavity_length"),
    "kappa": ("cavity_length", "finesse"),
    "E_drive": ("cavity_length", "finesse", "input_power", "wavelength"),
    "q_mcp": ("mcp_epsilon",),
    "ring_charge": (),
    "A_q": ("mcp_epsilon",),
}


def _sources(cfg: SystemConfig, *names) -> str:
    """The config fields the derived constants `names` come from."""
    ring = (("ring_charge",) if cfg.ring_charge is not None
            else ("ring_field", "ring_offset_c0", "ring_radius"))
    fields = []
    for name in names:
        for field in _SOURCES[name] + (
                ring if name in ("ring_charge", "A_q") else ()):
            if field not in fields:
                fields.append(field)
    return ", ".join(fields)


def _check_balance_bound(cfg: SystemConfig, constants) -> None:
    """Raise ConfigInvalid unless the bound on the force balance over the
    trap interval, |A_q| (|C0| + pi/4k) + 4 hbar g k E^2 / kappa^2, has a
    finite square.  The root scan compares signs and never squares the
    balance; the check makes inputs this large a config error naming
    their fields, where the solvers would end in a numerical error (no
    force-balance root, or an overflowing characteristic quartic).

    The fields named are those of A_q, and those of the optical term
    too unless the ring term alone overflows.  A kappa of zero (the
    product cavity_length * finesse overflowing) makes the bound inf.
    """
    c = constants
    ring = abs(c["A_q"]) * (abs(cfg.ring_offset_c0)
                            + math.pi / (4.0 * c["k"]))
    e_over_kappa = c["E_drive"] / c["kappa"] if c["kappa"] else math.inf
    bound = ring + (4.0 * CODATA2018.hbar * c["g"] * c["k"]
                    * e_over_kappa * e_over_kappa)
    if math.isfinite(bound * bound):
        return
    names = ("A_q", "g", "E_drive") if math.isfinite(ring * ring) else ("A_q",)
    raise ConfigInvalid(
        f"force-balance bound {bound:.3e} N cannot be squared "
        f"(from {_sources(cfg, *names)})")


def derive_constants(cfg: SystemConfig) -> DerivedParams:
    """Evaluate every derived constant of the configured system.

    Pure: identical inputs give bit-identical outputs.  A constant that
    overflows to inf (or nan) raises ConfigInvalid naming it and the
    config fields it comes from, and so does a force balance whose bound
    cannot be squared (`_check_balance_bound`).  The drive
    frequency is taken equal to the cavity frequency in the drive
    amplitude E = sqrt(kappa P / hbar omega_L); the detunings involved
    are ~kappa ~ 1e6 rad/s against omega_c ~ 1e15, a relative error
    below 1e-8.
    """
    cfg.validate()
    k = 2.0 * np.pi / cfg.wavelength
    omega_c = CODATA2018.c * k
    V_s = 4.0 / 3.0 * np.pi * cfg.sphere_radius ** 3
    mass = cfg.density * V_s
    # nan, rejected below, where the product underflows to 0
    kappa = CODATA2018.c * np.pi / (2.0 * cfg.cavity_length * cfg.finesse
                                    or math.nan)
    waist = np.sqrt(cfg.wavelength * cfg.cavity_length / (2.0 * np.pi))
    V_c = np.pi * waist ** 2 * cfg.cavity_length / 4.0
    g = 3.0 * V_s / (2.0 * V_c) \
        * (cfg.permittivity - 1.0) / (cfg.permittivity + 2.0) * omega_c
    E_drive = np.sqrt(kappa * cfg.input_power / (CODATA2018.hbar * omega_c))
    q_mcp = cfg.mcp_epsilon * CODATA2018.e0
    ring_charge = resolve_ring_charge(cfg)
    A_q = electrostatic_spring(cfg)
    constants = {name: float(value) for name, value in dict(
        k=k, omega_c=omega_c, V_s=V_s, V_c=V_c, waist=waist, mass=mass, g=g,
        kappa=kappa, E_drive=E_drive, q_mcp=q_mcp, ring_charge=ring_charge,
        A_q=A_q).items()}
    for name, value in constants.items():
        if not math.isfinite(value):
            raise ConfigInvalid(
                f"derived constant {name} = {value} is not finite "
                f"(from {_sources(cfg, name)})")
    _check_balance_bound(cfg, constants)

    def damping_at(omega_m: float):
        return damping_and_diffusion(cfg, omega_m)

    return DerivedParams(**constants, ring_radius=cfg.ring_radius,
                         damping_at=damping_at)


def check_detuning(delta0: float, derived: DerivedParams, field: str) -> float:
    """delta0 in rad/s, once 4 (|Delta0| + g)^2 is finite.

    That bounds the 4 Delta(x)^2 the steady state and the resonance
    mismatch form; a detuning that fails it raises ConfigInvalid naming
    the config field it comes from.
    """
    bound = 2.0 * (abs(float(delta0)) + derived.g)
    if not math.isfinite(bound * bound):
        raise ConfigInvalid(
            f"{field} gives Delta0 = {delta0:.3e} rad/s, too large for "
            f"4 (|Delta0| + g)^2")
    return delta0


def delta0_from_config(cfg: SystemConfig, derived: DerivedParams) -> float:
    """Bare detuning in rad/s, converting from linewidth units if needed,
    and bounded by `check_detuning`."""
    if cfg.detuning_delta0 is not None:
        return check_detuning(cfg.detuning_delta0, derived, "detuning_delta0")
    return check_detuning(cfg.detuning_over_kappa * derived.kappa, derived,
                          "detuning_over_kappa")
