"""Derived constants, ring electrostatics and damping channels.

Expected values are frozen from an independent 50-digit evaluation of
the defining formulas (CODATA-2018 inputs), not from running the
package.
"""
import dataclasses
import re

import numpy as np
import pytest

from levring import model
from levring._kernels import mean_field_chunk
from levring.cli import parse_config
from levring.constants import CODATA2018, PhysicalConstants
from levring.errors import ConfigInvalid, NonPositiveFrequency
from levring.model import (DerivedParams, damping_and_diffusion,
                           delta0_from_config, derive_constants,
                           electrostatic_spring, resolve_ring_charge,
                           ring_field, ring_potential)
from levring.steady_state import solve_models, solve_resonant_models

from conftest import CONFIG_DIR, reference_config

C = CODATA2018


def rel(a, b):
    return abs(a - b) / abs(b)


class TestDeriveConstants:
    # independently hand-evaluated, 12 significant digits
    EXPECTED = {
        "k": 5905249.34885,
        "omega_c": 1.7703492174e15,
        "V_s": 5.23598775598e-22,
        "mass": 1.38753675534e-18,
        "kappa": 941825.783654,
        "waist": 4.11510460924e-5,
        "V_c": 1.33e-11,
        "g": 31606.1851913,
        "E_drive": 71026061937.3,
    }

    def test_reference_values(self, ref_cfg):
        derived = derive_constants(ref_cfg)
        for name, want in self.EXPECTED.items():
            assert rel(getattr(derived, name), want) < 1e-9, name

    def test_ring_charge_from_field(self, ref_cfg):
        # inverting the exact on-axis field at x = 0, E_x = 7.25e10 V/m
        assert rel(resolve_ring_charge(ref_cfg), 0.947687200415) < 1e-9

    def test_purity(self, ref_cfg):
        a = derive_constants(ref_cfg)
        b = derive_constants(ref_cfg)
        for field in ("k", "omega_c", "V_s", "V_c", "waist", "mass", "g",
                      "kappa", "E_drive", "q_mcp", "ring_charge", "A_q"):
            assert getattr(a, field) == getattr(b, field)

    def test_positivity(self, ref_cfg):
        derived = derive_constants(ref_cfg)
        for field in ("k", "omega_c", "V_s", "V_c", "waist", "mass", "g",
                      "kappa", "E_drive", "q_mcp", "ring_charge", "A_q"):
            assert getattr(derived, field) > 0.0, field

    def test_coupling_ratio_identity(self, ref_cfg):
        derived = derive_constants(ref_cfg)
        eps = ref_cfg.permittivity
        want = 3.0 * derived.V_s / (2.0 * derived.V_c) * (eps - 1) / (eps + 2)
        assert rel(derived.g / derived.omega_c, want) < 1e-14

    @pytest.mark.parametrize("changes, constant, fields", [
        (dict(finesse=1e-300), "kappa", "cavity_length, finesse"),
        (dict(input_power=1e297), "E_drive",
         "cavity_length, finesse, input_power, wavelength"),
        (dict(ring_field=1e300, ring_offset_c0=1e-300), "ring_charge",
         "ring_field, ring_offset_c0, ring_radius"),
        (dict(ring_field=None, ring_charge=1e300, mcp_epsilon=1e20), "A_q",
         "mcp_epsilon, ring_charge"),
        # pi waist^2 L overflows: named, without a numpy overflow warning
        (dict(cavity_length=1e298), "V_c", "wavelength, cavity_length"),
    ])
    def test_non_finite_constant_is_config_error(self, changes, constant,
                                                 fields):
        with pytest.raises(ConfigInvalid) as err:
            derive_constants(reference_config(**changes))
        assert str(err.value) == (
            f"derived constant {constant} = inf is not finite (from {fields})")

    @pytest.mark.parametrize("changes, mass", [
        (dict(sphere_radius=1e-309), "0.0"),
        (dict(density=1e-300), "5.24e-322"),
        (dict(density=5e-324), "0.0"),
    ])
    def test_underflowing_mass_is_config_error(self, changes, mass):
        # the solvers divide by the mass: zero or subnormal is a config
        # error naming its fields, not a warning in the solvers
        with pytest.raises(ConfigInvalid) as err:
            derive_constants(reference_config(**changes))
        assert str(err.value) == (f"derived constant mass = {mass} underflows "
                                  "(from density, sphere_radius)")

    # the fields of every term of the bound, whichever overflows
    OPTICAL = ("sphere_radius, permittivity, wavelength, cavity_length, "
               "finesse, input_power")

    @pytest.mark.parametrize("changes, fields", [
        (dict(ring_field=1e300),
         f"mcp_epsilon, ring_field, ring_offset_c0, ring_radius, {OPTICAL}"),
        (dict(ring_field=None, ring_charge=1e250),
         f"mcp_epsilon, ring_charge, ring_offset_c0, {OPTICAL}"),
        # the optical term overflows, not the ring term
        (dict(input_power=1e277),
         f"mcp_epsilon, ring_field, ring_offset_c0, ring_radius, {OPTICAL}"),
        # cavity_length * finesse overflows: kappa and E_drive are 0
        (dict(cavity_length=1e150, finesse=1e200),
         f"mcp_epsilon, ring_field, ring_offset_c0, ring_radius, {OPTICAL}"),
    ])
    def test_unsquarable_force_balance_bound_is_config_error(self, changes,
                                                             fields):
        # every constant is finite, but the bound's square is not: a
        # config error naming the fields, not a numerical error from the
        # solvers (no root, or an overflowing quartic)
        with pytest.raises(ConfigInvalid) as err:
            derive_constants(reference_config(**changes))
        assert re.fullmatch(
            r"derived constant force-balance bound = \S+ (has no finite "
            rf"square|is not finite) \(from {fields}\)", str(err.value))

    G_FIELDS = "sphere_radius, permittivity, wavelength, cavity_length"

    @pytest.mark.parametrize("changes, name, fields", [
        (dict(detuning_over_kappa=1e150), r"2 \(\|d kappa\| \+ g\)",
         "detuning_over_kappa, cavity_length, finesse, sphere_radius, "
         "permittivity, wavelength"),
        (dict(detuning_over_kappa=None, detuning_delta0=-1e160),
         r"2 \(\|Delta0\| \+ g\)", f"detuning_delta0, {G_FIELDS}"),
        # (|Delta0| + g)^2 is finite, 4 Delta(x)^2 is not
        (dict(detuning_over_kappa=None, detuning_delta0=1e154),
         r"2 \(\|Delta0\| \+ g\)", f"detuning_delta0, {G_FIELDS}"),
    ])
    def test_unsquarable_detuning_is_config_error(self, changes, name,
                                                  fields):
        cfg = reference_config(**changes)
        with pytest.raises(ConfigInvalid) as err:
            delta0_from_config(cfg, derive_constants(cfg))
        assert re.fullmatch(
            rf"derived constant {name} = \S+ has no finite square "
            rf"\(from {fields}\)", str(err.value))
        cfg = reference_config(detuning_over_kappa=None, detuning_delta0=6e153)
        assert delta0_from_config(cfg, derive_constants(cfg)) == 6e153

    def test_a_q_vanishes_without_charge(self):
        assert derive_constants(reference_config(mcp_epsilon=0.0)).A_q == 0.0
        cfg = reference_config(ring_field=None, ring_charge=0.0)
        assert derive_constants(cfg).A_q == 0.0


def test_physical_constants_must_be_positive():
    with pytest.raises(ValueError, match="constant c must be positive"):
        PhysicalConstants(c=0.0)


class TestConfigValidation:
    def test_radius_vs_wavelength(self):
        with pytest.raises(ConfigInvalid, match="sphere_radius"):
            reference_config(sphere_radius=120e-9).validate()

    def test_ring_much_larger_than_sphere(self):
        with pytest.raises(ConfigInvalid, match="ring_radius"):
            reference_config(ring_radius=1e-6).validate()

    def test_offset_far_below_cavity_length(self):
        with pytest.raises(ConfigInvalid, match="ring_offset_c0"):
            reference_config(ring_offset_c0=1e-3).validate()

    def test_permittivity_above_one(self):
        with pytest.raises(ConfigInvalid, match="permittivity"):
            reference_config(permittivity=0.9).validate()

    def test_ring_spec_exclusive(self):
        with pytest.raises(ConfigInvalid, match="ring_charge / ring_field"):
            reference_config(ring_charge=1.0).validate()
        with pytest.raises(ConfigInvalid, match="ring_charge / ring_field"):
            reference_config(ring_field=None).validate()

    def test_field_needs_offset(self):
        with pytest.raises(ConfigInvalid, match="ring_offset_c0"):
            reference_config(ring_offset_c0=0.0).validate()

    def test_detuning_exclusive(self):
        with pytest.raises(ConfigInvalid, match="detuning"):
            reference_config(detuning_delta0=1e5).validate()

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigInvalid, match="mcp_epsilon"):
            reference_config(mcp_epsilon=-1e-6).validate()


def ring_of(cfg):
    """(charge, radius, offset) of cfg's ring, the arguments of
    `ring_potential` and `ring_field`."""
    return resolve_ring_charge(cfg), cfg.ring_radius, cfg.ring_offset_c0


class TestRingElectrostatics:
    def ring_cfg(self, **kw):
        return reference_config(ring_field=None, ring_charge=3.25, **kw)

    def test_potential_peak(self):
        # Q/(4 pi eps0 R) at the ring plane
        cfg = self.ring_cfg()
        phi = ring_potential(-cfg.ring_offset_c0, *ring_of(cfg))
        assert rel(phi, 5.84190866497e12) < 1e-9

    def test_potential_zero_charge(self):
        cfg = reference_config(ring_field=None, ring_charge=0.0)
        xs = np.linspace(-5e-6, 5e-6, 11)
        assert np.all(ring_potential(xs, *ring_of(cfg)) == 0.0)

    def test_potential_unit_ratio(self):
        cfg = self.ring_cfg()
        peak = ring_potential(-cfg.ring_offset_c0, *ring_of(cfg))
        at_r = ring_potential(cfg.ring_radius - cfg.ring_offset_c0,
                              *ring_of(cfg))
        assert rel(at_r, peak / np.sqrt(2.0)) < 1e-12

    def test_potential_even_about_ring_plane(self):
        cfg = self.ring_cfg()
        d = np.linspace(1e-7, 3e-6, 7)
        left = ring_potential(-cfg.ring_offset_c0 - d, *ring_of(cfg))
        right = ring_potential(-cfg.ring_offset_c0 + d, *ring_of(cfg))
        assert np.allclose(left, right, rtol=1e-14, atol=0.0)

    def test_field_reference_value(self):
        # Q = 3.25 C, C0 = wavelength: 2.4863e11 V/m at the antinode,
        # consistent with the quoted 2.5e11 V/m for that charge
        cfg = self.ring_cfg()
        assert rel(ring_field(0.0, *ring_of(cfg)), 2.48631615893e11) < 1e-9
        assert rel(ring_field(0.0, *ring_of(cfg)), 2.5e11) < 0.01

    def test_field_antisymmetry_point(self):
        cfg = self.ring_cfg()
        assert ring_field(-cfg.ring_offset_c0, *ring_of(cfg)) == 0.0

    def test_field_is_minus_gradient(self):
        # central differences of the potential, h small against the ring
        # radius but large enough to survive cancellation
        cfg = self.ring_cfg()
        lam = cfg.wavelength
        xs = np.linspace(-10 * lam, 10 * lam, 241)
        h = 1e-6
        grad = (ring_potential(xs + h, *ring_of(cfg))
                - ring_potential(xs - h, *ring_of(cfg))) / (2 * h)
        field = ring_field(xs, *ring_of(cfg))
        # mixed tolerance: the field crosses zero at x = -C0 inside the span
        err = np.abs(field + grad)
        scale = np.abs(field) + 1e-3 * np.max(np.abs(field))
        assert np.max(err / scale) < 1e-6

    def test_configured_field_is_the_field_at_the_antinode(self, ref_cfg):
        # resolve_ring_charge inverts ring_field at x = 0
        field = ring_field(0.0, *ring_of(ref_cfg))
        assert rel(field, ref_cfg.ring_field) < 1e-14


# a fig1-like ring given by its field, and a charge-specified one, on
# both sides of the ring plane
SIGN_RINGS = [dict(), dict(ring_offset_c0=-1064e-9),
              dict(ring_field=None, ring_charge=3.25),
              dict(ring_field=None, ring_charge=3.25, ring_offset_c0=-1064e-9)]


class TestRingSign:
    """The ring energy is U_ring = -q V_ring (see the `model` docstring):
    the force is -q E(x), and A_q = U_ring''(-C0)."""

    @pytest.mark.parametrize("ring", SIGN_RINGS)
    def test_kernel_ring_force_is_minus_q_field(self, ring):
        # one RK4 step from rest with no light, no damping and a mass
        # so large that x stays put: every stage's force is the ring
        # term at x, and p / dt reads it
        cfg = reference_config(**ring)
        derived = derive_constants(cfg)
        c0, R = cfg.ring_offset_c0, derived.ring_radius
        rng = np.random.default_rng(16)
        xs = rng.uniform(-0.25, 0.25, 16) * cfg.wavelength
        dt = 1e-6
        for x in xs.tolist():
            out = mean_field_chunk((x, 0.0, 0.0, 0.0), 1, dt, 1e300, 0.0,
                                   0.0, derived.k, derived.kappa, 0.0, 0.0,
                                   0.0, derived.A_q, c0, R)
            assert out[0] == x
            want = -derived.q_mcp * ring_field(x, derived.ring_charge, R, c0)
            assert want != 0.0
            assert abs(out[1] / dt - want) <= 8 * np.spacing(abs(want))

    @pytest.mark.parametrize("ring", SIGN_RINGS)
    def test_spring_is_the_curvature_of_the_ring_energy(self, ring):
        # A_q = -q V_ring'' at the ring plane, by central differences
        # with h = R / 1e4: truncation 0.75 (h/R)^2, rounding eps (R/h)^2
        cfg = reference_config(**ring)
        derived = derive_constants(cfg)
        R, c0 = derived.ring_radius, cfg.ring_offset_c0
        h = 1e-4 * R
        v = [ring_potential(-c0 + d, derived.ring_charge, R, c0)
             for d in (-h, 0.0, h)]
        curvature = (v[0] - 2.0 * v[1] + v[2]) / (h * h)
        assert rel(derived.A_q, -derived.q_mcp * curvature) < 1e-6


class TestElectrostaticSpring:
    def test_reference_value(self):
        cfg = reference_config(ring_field=None, ring_charge=3.25)
        assert rel(electrostatic_spring(cfg.mcp_epsilon * C.e0, 3.25,
                                        cfg.ring_radius),
                   3.74390782439e-7) < 1e-9

    def test_zero_charge(self):
        cfg = reference_config(ring_field=None, ring_charge=3.25)
        assert electrostatic_spring(0.0, 3.25, cfg.ring_radius) == 0.0

    @pytest.mark.parametrize("ring", [dict(), dict(ring_field=None,
                                                   ring_charge=3.25)])
    def test_derive_resolves_the_charge_once(self, monkeypatch, ring):
        # A_q is formed from the charge derive_constants resolved, with
        # the bits of electrostatic_spring on the charge resolved apart
        cfg = reference_config(**ring)
        want = electrostatic_spring(cfg.mcp_epsilon * C.e0,
                                    resolve_ring_charge(cfg), cfg.ring_radius)
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return resolve_ring_charge(cfg)

        monkeypatch.setattr(model, "resolve_ring_charge", counted)
        derived = derive_constants(cfg)
        assert len(calls) == 1
        assert derived.A_q.hex() == want.hex()
        assert derived.ring_charge == resolve_ring_charge(cfg)


class TestDamping:
    OMEGA = 1.0348e6

    def test_reference_values(self, ref_cfg):
        gph, ggas, gam, Gam = damping_and_diffusion(ref_cfg, self.OMEGA)
        assert rel(ggas, 5.93942353432e-7) < 1e-9
        assert rel(gph, 2.8289341023e-5) < 1e-9
        assert rel(Gam, 1096.27249431) < 1e-9
        assert gam == gph + ggas

    def test_gas_velocity_via_pressure_scaling(self, ref_cfg):
        # gamma_gas is linear in pressure with v = 508.234 m/s folded in
        doubled = dataclasses.replace(ref_cfg,
                                      gas_pressure=2 * ref_cfg.gas_pressure)
        _, g1, _, _ = damping_and_diffusion(ref_cfg, self.OMEGA)
        _, g2, _, _ = damping_and_diffusion(doubled, self.OMEGA)
        assert rel(g2, 2 * g1) < 1e-14

    def test_zero_pressure(self):
        cfg = reference_config(gas_pressure=0.0)
        gph, ggas, gam, _ = damping_and_diffusion(cfg, self.OMEGA)
        assert ggas == 0.0
        assert gam == gph

    def test_diffusion_damping_identity(self, ref_cfg):
        _, _, gam, Gam = damping_and_diffusion(ref_cfg, self.OMEGA)
        back = Gam * C.hbar * self.OMEGA / (C.kB * ref_cfg.temperature)
        assert rel(back, gam) < 1e-14

    def test_rejects_nonpositive_frequency(self, ref_cfg):
        with pytest.raises(NonPositiveFrequency):
            damping_and_diffusion(ref_cfg, 0.0)
        with pytest.raises(NonPositiveFrequency):
            damping_and_diffusion(ref_cfg, -1.0)

    @pytest.mark.parametrize("changes, omega_m, rate", [
        (dict(gas_pressure=1e300), OMEGA, "Gamma_diff = inf"),
        # hbar omega_m underflows to zero: the division raises
        (dict(), 1e-320, "Gamma_diff = nan"),
    ])
    def test_non_finite_rate_is_config_error(self, changes, omega_m, rate):
        # a rate that overflows at the solved omega_m: a config error
        # naming the fields of the rate, not a RuntimeWarning
        with pytest.raises(ConfigInvalid) as err:
            damping_and_diffusion(reference_config(**changes), omega_m)
        assert str(err.value) == (
            f"derived constant {rate} is not finite at omega_m = "
            f"{omega_m:.6e} rad/s (from permittivity, sphere_radius, "
            "wavelength, temperature, gas_pressure, density, "
            "gas_molecule_mass)")

    def test_rates_have_the_bits_of_one_expression(self, ref_cfg):
        # the closure forms its omega_m-free factors once; at seeded
        # omega_m its rates keep the bits of each rate written out
        # left to right, as one expression
        cfg = ref_cfg
        damping_at = derive_constants(cfg).damping_at
        eps, hbar, kBT = cfg.permittivity, C.hbar, C.kB * cfg.temperature
        V_s = 4.0 / 3.0 * np.pi * cfg.sphere_radius ** 3
        for omega_m in np.random.default_rng(5).uniform(1e3, 1e8, 50):
            omega_m = float(omega_m)
            gph = ((4.0 * np.pi ** 2 / 5.0) * (eps - 1.0) / (eps + 2.0)
                   * (V_s / cfg.wavelength ** 3) * omega_m
                   * (hbar * omega_m / kBT))
            ggas = (4.0 * np.pi * cfg.sphere_radius ** 2 * cfg.gas_pressure
                    / (cfg.density * V_s
                       * np.sqrt(3.0 * kBT / cfg.gas_molecule_mass)))
            Gam = (gph + ggas) * kBT / (hbar * omega_m)
            want = (gph, ggas, gph + ggas, Gam)
            assert [r.hex() for r in damping_at(omega_m)] == [
                float(r).hex() for r in want]

    def test_factor_that_raises_fails_at_each_omega(self):
        # wavelength^3 overflows (a config validate() would reject):
        # a non-positive omega_m is still NonPositiveFrequency, and any
        # other the Gamma_diff guard's ConfigInvalid
        cfg = reference_config(wavelength=1e200)
        with pytest.raises(NonPositiveFrequency):
            damping_and_diffusion(cfg, 0.0)
        with pytest.raises(ConfigInvalid, match="Gamma_diff = nan is not "
                           "finite at omega_m = 1.034800e"):
            damping_and_diffusion(cfg, self.OMEGA)

    def test_with_damping_completes_record(self, ref_cfg):
        derived = derive_constants(ref_cfg)
        assert derived.gamma is None
        full = derived.with_damping(self.OMEGA)
        assert full.gamma == full.gamma_ph + full.gamma_gas
        assert full.Gamma_diff > 0.0

    def test_with_damping_equals_replace(self, ref_cfg):
        # the dict copy is the record dataclasses.replace would build, and
        # leaves the original and its closure as they were
        derived = derive_constants(ref_cfg)
        full = derived.with_damping(self.OMEGA)
        gph, ggas, gam, Gam = damping_and_diffusion(ref_cfg, self.OMEGA)
        want = dataclasses.replace(derived, gamma_ph=gph, gamma_gas=ggas,
                                   gamma=gam, Gamma_diff=Gam)
        assert full == want and type(full) is DerivedParams
        assert vars(full) == vars(want)
        assert full.damping_at is derived.damping_at
        assert derived.gamma is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            full.gamma = 0.0

    def test_with_damping_needs_a_closure(self, ref_cfg):
        bare = dataclasses.replace(derive_constants(ref_cfg), damping_at=None)
        with pytest.raises(ValueError, match="no damping closure"):
            bare.with_damping(self.OMEGA)

    def test_custom_gas_mass(self):
        helium = reference_config(gas_molecule_mass=4.002602 * C.u)
        air = reference_config()
        _, g_he, _, _ = damping_and_diffusion(helium, self.OMEGA)
        _, g_air, _, _ = damping_and_diffusion(air, self.OMEGA)
        # lighter gas, faster molecules, weaker drag at equal pressure
        assert g_he < g_air
        assert rel(g_he, g_air * np.sqrt(4.002602 / 28.97)) < 1e-12


def test_records_are_built_as_init_builds_them():
    # the operating point, verdict and model the screen builds, each by
    # one dict update, and the constants the resonant solve resolves
    # and damps, equal the records __init__ or dataclasses.replace
    # builds, field for field, and stay frozen
    built = []
    for name, solver in (("fig1.cfg", solve_models),
                         ("fig2.cfg", solve_resonant_models)):
        cfg = parse_config(str(CONFIG_DIR / name))
        derived = derive_constants(cfg)
        [m] = solver([(derived, delta0_from_config(cfg, derived),
                       cfg.ring_offset_c0)])
        built += [(r, dataclasses.replace(r)) for r in (m, m.op, m.verdict)]
    d = m.derived               # fig2's, resolved and damped
    built.append((d, dataclasses.replace(
        derived, A_q=d.A_q, ring_charge=d.ring_charge, gamma_ph=d.gamma_ph,
        gamma_gas=d.gamma_gas, gamma=d.gamma, Gamma_diff=d.Gamma_diff)))
    assert d.A_q != derived.A_q and d.ring_charge != derived.ring_charge
    for record, want in built:
        assert type(record) is type(want)
        assert vars(record) == vars(want) and record == want
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, 0.0)
