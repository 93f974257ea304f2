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

The ring, of charge Q and radius R with its plane at x = -C0, has the
on-axis potential V_ring (`ring_potential`) and field E = -dV_ring/dx
(`ring_field`).  The sign: the model's ring energy is U_ring = -q V_ring,
so its force is -q E(x), which pulls a charge q of the sign of Q toward
the ring plane, and A_q = U_ring''(-C0) = q Q / (4 pi eps0 R^3)
(`electrostatic_spring`).  Coulomb's law gives U = +q V_ring, the force
+q E(x), which pushes it away: the model's ring acts on q as Coulomb's
ring acts on -q.  Whether the source writes the ring as this restoring
spring, +1/2 A_q (C0 + x)^2, is ROADMAP item 16's open question; a flip
moves every pinned output.  The field, the spring and the resonant
solver's charge read the one geometric factor 4 pi eps0 R^3
(`_ring_geometry`).
"""
from __future__ import annotations

import collections
import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import CODATA2018
from .errors import ConfigInvalid, NonPositiveFrequency

TORR_TO_PA = 133.322368
DEFAULT_GAS_MASS_U = 28.97  # mean molecular mass of air, in u

# validation thresholds for the "much smaller / much larger" requirements
_MAX_RADIUS_OVER_WAVELENGTH = 0.1
_MIN_RING_OVER_SPHERE_RADIUS = 100.0
_MAX_OFFSET_OVER_CAVITY_LENGTH = 0.01


def _record(cls, base=(), **fields):
    """A frozen dataclass `cls` whose instance dict is `base` updated with
    `fields`, as `cls(**base, **fields)` would build it from all its
    fields: one dict update, where __init__ calls object.__setattr__
    once per field.  No __post_init__ runs."""
    record = object.__new__(cls)
    record.__dict__.update(base, **fields)
    return record


def _guarded(fun, *args):
    """fun(*args), or nan where its Python-float arithmetic raises an
    ArithmeticError (a `**` that overflows, a division by zero).  That
    arithmetic never warns: a product or quotient that overflows is inf."""
    try:
        return fun(*args)
    except ArithmeticError:
        return math.nan


def _float_square(v):
    """v ** 2 by libm pow, or nan where that overflows (Python raises)."""
    try:
        return v ** 2
    except OverflowError:
        return math.nan


def _array_square(v):
    """`_float_square` of each entry of an array, on Python floats: an
    array's `v ** 2` squares by product and `np.power` with an array
    exponent by its own loop, and either differs from pow in the last
    bit of some squares (172 and 5,507 of 200,000 seeded doubles, numpy
    2.4 on x86-64 with AVX-512)."""
    values = v.tolist()
    try:
        return np.array([x ** 2 for x in values])
    except OverflowError:
        return np.array([_float_square(x) for x in values])


# The elementary functions of a formula written once for Python floats
# and for arrays, as `_tabulate` picks them.  Each array function gives
# the Python-float function's bits, and nan where the Python-float one
# raises: sqrt below 0, a square that overflows, a quotient by 0.
# maximum is only read on finite values, where max and np.maximum agree.
_Evaluator = collections.namedtuple(
    "_Evaluator", "cos sin sqrt square quotient maximum where zeros isfinite")
_FLOATS = _Evaluator(
    math.cos, math.sin, lambda v: math.sqrt(v) if v >= 0.0 else math.nan,
    _float_square, lambda n, d: n / d if d else math.nan, max,
    lambda mask, a, b: a if mask else b, lambda like: 0.0, math.isfinite)
_ARRAYS = _Evaluator(
    np.cos, np.sin, np.sqrt, _array_square,
    lambda n, d: np.where(d == 0.0, np.nan, n / d), np.maximum, np.where,
    np.zeros_like, np.isfinite)


def _tabulate(fun, columns, one_cell: bool):
    """fun(ev, *entries) at every candidate of a grid, given its
    `columns` of inputs, one entry per candidate: (values, stacks).
    fun returns (values, rows), a tuple of values and one of rows of
    entries; values becomes one sequence of Python floats or bools per
    value, and stacks one [n, len(row)] array per row.

    The cell count picks the evaluator here only.  One cell runs fun
    once per candidate on Python floats (`_FLOATS`: math's cos, sin and
    sqrt, Python's `**`), as the one-cell root finder does; more cells
    run it once on arrays of all candidates (`_ARRAYS`), with numpy's
    warnings off, since the Python-float arithmetic raises or overflows
    silently where numpy would warn.  Both give the same bits.
    """
    if one_cell:
        values, rows = zip(*[fun(_FLOATS, *entries)
                             for entries in zip(*columns)])
        return list(zip(*values)), [np.array(row) for row in zip(*rows)]
    with np.errstate(all="ignore"):
        values, rows = fun(_ARRAYS, *map(np.asarray, columns))
        return ([v.tolist() for v in values],
                [np.stack(row, axis=-1) for row in rows])


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

    def validate(self) -> None:
        """Raise ConfigInvalid naming the first violated requirement."""
        # the instance dict holds the fields in their declared order, as
        # __init__ sets them
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigInvalid(f"{name} must be finite, got {value}")
        positive = [
            "sphere_radius", "density", "wavelength", "cavity_length",
            "finesse", "input_power", "ring_radius", "temperature",
            "gas_molecule_mass",
        ]
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ConfigInvalid(f"{name} must be strictly positive")
        _guard("kB T", CODATA2018.kB * self.temperature, "normal", self)
        _guard("R^3", _guarded(pow, self.ring_radius, 3), "normal", self)
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


@dataclass(frozen=True)
class DerivedParams:
    """Computed constants of the configured system (SI).

    gamma_ph / gamma_gas / gamma / Gamma_diff depend on the operating
    mechanical frequency; they stay None until ``with_damping`` is called.
    cfg is the config they were derived from: the guards at the solved
    point name its fields.
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
    ring_radius: float    # m, for the kernel's ring force and solved charge
    A_q: float            # electrostatic spring constant, N/m
    damping_at: Optional[Callable[[float], tuple]] = dataclasses.field(
        default=None, repr=False, compare=False)
    gamma_ph: Optional[float] = None      # 1/s
    gamma_gas: Optional[float] = None     # 1/s
    gamma: Optional[float] = None         # 1/s
    Gamma_diff: Optional[float] = None    # 1/s
    cfg: Optional[SystemConfig] = dataclasses.field(
        default=None, repr=False, compare=False)

    def with_damping(self, omega_m: float) -> "DerivedParams":
        """Return a completed copy with damping evaluated at omega_m."""
        if self.damping_at is None:
            raise ValueError("no damping closure attached to these parameters")
        gph, ggas, gam, Gam = self.damping_at(omega_m)
        # `dataclasses.replace` would rerun __init__ over all nineteen fields
        return _record(type(self), self.__dict__, gamma_ph=gph,
                       gamma_gas=ggas, gamma=gam, Gamma_diff=Gam)


def _ring_geometry(ring_radius: float) -> float:
    """4 pi eps0 R^3 in F m^2, the one geometric factor of the ring's
    field, spring and solved charge, formed the one way so each keeps
    its bits."""
    return 4.0 * np.pi * CODATA2018.eps0 * ring_radius ** 3


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
    # the field leads the product, so 4 pi eps0 R^3 is never rounded on
    # its own here: `ring_field * _ring_geometry(R) * ...` rounds it
    # first and changes the charge's bits in 78,366 of 200,000 seeded
    # draws, and every pinned output of a field-specified ring with them
    return (cfg.ring_field * 4.0 * np.pi * CODATA2018.eps0 * R ** 3 * bracket
            / c0)


def ring_potential(x, ring_charge: float, ring_radius: float, c0: float):
    """On-axis potential V_ring (V) at x of a ring of the given charge
    and radius whose plane is at x = -c0; accepts scalar or ndarray x.

    Q / (4 pi eps0 R sqrt(1 + u^2)), u = (c0 + x)/R: even in c0 + x,
    maximal at x = -c0.
    """
    u = (c0 + x) / ring_radius
    return (ring_charge * ring_radius ** 2
            / (_ring_geometry(ring_radius) * np.sqrt(1.0 + u * u)))


def ring_field(x, ring_charge: float, ring_radius: float, c0: float):
    """On-axis field E = -dV_ring/dx (V/m) at x of the ring of
    `ring_potential`; accepts scalar or ndarray x.  The charge is an
    argument because the resonant solver's is solved, not configured."""
    s = c0 + x
    u = s / ring_radius
    return ring_charge * s / (_ring_geometry(ring_radius)
                              * (1.0 + u * u) ** 1.5)


def electrostatic_spring(q: float, ring_charge: float,
                         ring_radius: float) -> float:
    """Electrostatic spring constant A_q = q Q / (4 pi eps0 R^3) (N/m) of
    a bound charge q: U_ring''(-C0), the curvature of the ring energy at
    the ring plane (see the module docstring for its sign)."""
    return q * ring_charge / _ring_geometry(ring_radius)


def damping_and_diffusion(cfg: SystemConfig, omega_m: float):
    """Mechanical damping channels and diffusion constant at omega_m.

    Returns (gamma_ph, gamma_gas, gamma, Gamma_diff), all 1/s:
    photon-recoil damping, residual-gas damping, their sum, and the
    momentum diffusion rate gamma * kB T / (hbar omega_m).

    The stated formulas assume a Markovian thermal force, which holds for
    hbar omega_m << kB T; they are applied unchanged at any configured
    temperature.  The rates are non-negative Python floats (nan where the
    arithmetic raises), so one `_guard`, that Gamma_diff has a finite
    square (the Lyapunov residual squares it), covers all four.
    """
    return _damping(cfg)(omega_m)


def _damping(cfg: SystemConfig):
    """`damping_and_diffusion` of cfg as a function of omega_m, its
    omega_m-free factors formed once: gamma_gas, the photon-recoil
    prefix up to `* omega_m`, and kB T.  Each is the leading product of
    the same left-to-right expression, so the rates keep their bits; a
    factor whose arithmetic raises is nan, and so is Gamma_diff at every
    omega_m, which the guard rejects.  The function carries the factors
    as `factors`, (recoil, gamma_gas, kB T), for `_damping_rates` on
    arrays."""
    eps = cfg.permittivity
    kBT = CODATA2018.kB * cfg.temperature
    try:
        V_s = 4.0 / 3.0 * np.pi * cfg.sphere_radius ** 3
        mass = cfg.density * V_s
        recoil = ((4.0 * np.pi ** 2 / 5.0) * (eps - 1.0) / (eps + 2.0)
                  * (V_s / cfg.wavelength ** 3))
        gamma_gas = (4.0 * np.pi * cfg.sphere_radius ** 2 * cfg.gas_pressure
                     / (mass * math.sqrt(3.0 * kBT / cfg.gas_molecule_mass)))
    except ArithmeticError:
        recoil = gamma_gas = math.nan

    def damping_at(omega_m: float):
        if not omega_m > 0.0:
            raise NonPositiveFrequency(f"omega_m = {omega_m} must be positive")
        gamma_ph, gamma, Gamma_diff = _damping_rates(
            _FLOATS, recoil, gamma_gas, kBT, omega_m)
        _guard("Gamma_diff", Gamma_diff, "finite square", cfg, omega_m)
        return gamma_ph, gamma_gas, gamma, Gamma_diff
    damping_at.factors = (recoil, gamma_gas, kBT)
    return damping_at


def _damping_rates(ev, recoil, gamma_gas, kBT, omega_m):
    """(gamma_ph, gamma, Gamma_diff) from the factors of `_damping`, on
    Python floats or arrays (ev, an `_Evaluator`); Gamma_diff is nan
    where hbar omega_m is 0, as the Python-float division raises there."""
    hbar = CODATA2018.hbar
    gamma_ph = recoil * omega_m * (hbar * omega_m / kBT)
    gamma = gamma_ph + gamma_gas
    return gamma_ph, gamma, ev.quotient(gamma * kBT, hbar * omega_m)


# What each guarded quantity is computed from: config fields, and other
# entries, which stand for their own sources.  "ring" stands for the
# fields of the ring specification in use.
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
    "ring_charge": ("ring",),
    "A_q": ("mcp_epsilon", "ring", "ring_radius"),
    "kB T": ("temperature",),
    "R^3": ("ring_radius",),
    "kappa^2": ("kappa",),
    "force-balance bound": ("A_q", "ring_offset_c0", "g", "k", "E_drive",
                            "kappa"),
    "2 (|Delta0| + g)": ("detuning_delta0", "g"),
    "2 (|d kappa| + g)": ("detuning_over_kappa", "kappa", "g"),
    "Gamma_diff": ("permittivity", "sphere_radius", "wavelength",
                   "temperature", "gas_pressure", "density",
                   "gas_molecule_mass"),
    "trap radicand": ("E_drive", "g", "k", "kappa", "mass"),
    "Omega_m": ("A_q", "mass", "trap radicand"),
    "E_x at x_s": ("ring", "ring_radius", "ring_offset_c0"),
    # the solved charge A_q 4 pi eps0 R^3 / q, A_q from the optical force
    # at x_s, bounded by 4 hbar g k E^2 / (kappa^2 |C0 + x_s|)
    "E_x at the resonant x_s": ("mcp_epsilon", "ring_radius",
                                "ring_offset_c0", "g", "k", "E_drive",
                                "kappa"),
}


def _fields(cfg: Optional[SystemConfig], name: str):
    """The config fields of `name`, an entry of `_SOURCES` or a field."""
    if name == "ring":
        return (("ring_charge",) if cfg.ring_charge is not None
                else ("ring_field", "ring_offset_c0", "ring_radius"))
    if name not in _SOURCES:
        return (name,)
    return [field for source in _SOURCES[name]
            for field in _fields(cfg, source)]


def _guard(name: str, value, rule: str, cfg: Optional[SystemConfig],
           omega_m: Optional[float] = None):
    """value, if it keeps `rule`; else ConfigInvalid naming the guarded
    quantity `name` and, once each, the config fields `_SOURCES` lists
    for it.  cfg gives the ring specification in use.

    rule is "finite", "normal" (a finite magnitude no smaller than the
    smallest normal float) or "finite square".  omega_m is the solved
    frequency the value was formed at, if any.
    """
    if rule == "finite":
        kept = math.isfinite(value)
    elif rule == "normal":
        kept = sys.float_info.min <= abs(value) <= sys.float_info.max
    else:
        kept = math.isfinite(value * value)
    if kept:
        return value
    problem = ("is not finite" if not math.isfinite(value)
               else "underflows" if rule == "normal"
               else "has no finite square")
    at = "" if omega_m is None else f" at omega_m = {omega_m:.6e} rad/s"
    fields = ", ".join(dict.fromkeys(_fields(cfg, name)))
    raise ConfigInvalid(
        f"derived constant {name} = {value} {problem}{at} (from {fields})")


def derive_constants(cfg: SystemConfig) -> DerivedParams:
    """Evaluate every derived constant of the configured system.

    Pure: identical inputs give bit-identical outputs.  Each passes
    `_guard`: every constant is finite; the mass (a divisor) is normal,
    and so is the bound charge unless mcp_epsilon is 0, and kappa^2; the
    bound on the force balance over the trap interval,
    |A_q| (|C0| + pi/4k) + 4 hbar g k E^2 / kappa^2, which a kappa of 0
    makes inf, has a finite square.  The drive frequency is
    taken equal to the cavity frequency in the drive amplitude
    E = sqrt(kappa P / hbar omega_L); the detunings involved are
    ~kappa ~ 1e6 rad/s against omega_c ~ 1e15, a relative error below 1e-8.
    """
    cfg.validate()
    k = 2.0 * np.pi / cfg.wavelength
    omega_c = CODATA2018.c * k
    V_s = 4.0 / 3.0 * np.pi * cfg.sphere_radius ** 3
    mass = cfg.density * V_s
    # nan, rejected below, where the product underflows to 0
    kappa = _guarded(lambda: CODATA2018.c * np.pi
                     / (2.0 * cfg.cavity_length * cfg.finesse))
    # a Python float, so V_c overflows to inf without a numpy warning
    waist = math.sqrt(cfg.wavelength * cfg.cavity_length / (2.0 * np.pi))
    V_c = np.pi * waist ** 2 * cfg.cavity_length / 4.0
    # nan, rejected below, where V_c underflows to 0
    g = _guarded(lambda: 3.0 * V_s / (2.0 * V_c) * (cfg.permittivity - 1.0)
                 / (cfg.permittivity + 2.0) * omega_c)
    E_drive = math.sqrt(kappa * cfg.input_power / (CODATA2018.hbar * omega_c))
    q_mcp = cfg.mcp_epsilon * CODATA2018.e0
    ring_charge = _guarded(resolve_ring_charge, cfg)
    A_q = _guarded(electrostatic_spring, q_mcp, ring_charge, cfg.ring_radius)
    c = {name: float(value) for name, value in dict(
        k=k, omega_c=omega_c, V_s=V_s, V_c=V_c, waist=waist, mass=mass, g=g,
        kappa=kappa, E_drive=E_drive, q_mcp=q_mcp, ring_charge=ring_charge,
        A_q=A_q).items()}
    # a divisor, the mass and a configured bound charge (the resonant
    # solver divides by it), must be normal
    normal = {"mass", "q_mcp"} if cfg.mcp_epsilon > 0.0 else {"mass"}
    for name, value in c.items():
        _guard(name, value, "normal" if name in normal else "finite", cfg)
    e_over_kappa = c["E_drive"] / c["kappa"] if c["kappa"] else math.inf
    _guard("force-balance bound",
           abs(c["A_q"]) * (abs(cfg.ring_offset_c0) + math.pi / (4.0 * c["k"]))
           + (4.0 * CODATA2018.hbar * c["g"] * c["k"]
              * e_over_kappa * e_over_kappa), "finite square", cfg)
    _guard("kappa^2", kappa * kappa, "normal", cfg)

    # as `DerivedParams(**c, ...)` builds it, without one __setattr__ per
    # field (a one-cell solve derives its constants once)
    return _record(DerivedParams, c, ring_radius=cfg.ring_radius,
                   damping_at=_damping(cfg), gamma_ph=None, gamma_gas=None,
                   gamma=None, Gamma_diff=None, cfg=cfg)


def check_detuning(delta0: float, derived: DerivedParams, name: str) -> float:
    """delta0 in rad/s, once 2 (|Delta0| + g), named `name` in `_SOURCES`,
    has a finite square: that bounds the 4 Delta(x)^2 the steady state and
    the resonance mismatch form."""
    _guard(name, 2.0 * (abs(float(delta0)) + derived.g), "finite square",
           derived.cfg)
    return delta0


def delta0_grid(delta0_over_kappa, derived: DerivedParams) -> list:
    """A grid of detunings in linewidths, in rad/s.

    Each value must be finite and pass `check_detuning`; the first that
    does not raises ConfigInvalid naming detuning_over_kappa, with the
    message a config of that detuning gives.
    """
    grid = []
    for d0 in delta0_over_kappa:
        if not math.isfinite(d0):
            raise ConfigInvalid(f"detuning_over_kappa must be finite, got {d0}")
        grid.append(check_detuning(float(d0) * derived.kappa, derived,
                                   "2 (|d kappa| + g)"))
    return grid


def delta0_from_config(cfg: SystemConfig, derived: DerivedParams) -> float:
    """Bare detuning in rad/s, converting from linewidth units if needed,
    and bounded by `check_detuning`."""
    if cfg.detuning_delta0 is not None:
        return check_detuning(cfg.detuning_delta0, derived,
                              "2 (|Delta0| + g)")
    return delta0_grid([cfg.detuning_over_kappa], derived)[0]
