"""Derived constants, ring electrostatics and damping channels.

Expected values are frozen from an independent 50-digit evaluation of
the defining formulas (CODATA-2018 inputs), not from running the
package.
"""
import dataclasses

import numpy as np
import pytest

from levring.constants import CODATA2018
from levring.errors import ConfigInvalid, NonPositiveFrequency
from levring.model import (damping_and_diffusion, derive_constants,
                           electrostatic_spring, resolve_ring_charge,
                           ring_field, ring_potential)

from conftest import reference_config

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

    def test_a_q_vanishes_without_charge(self):
        assert derive_constants(reference_config(mcp_epsilon=0.0)).A_q == 0.0
        cfg = reference_config(ring_field=None, ring_charge=0.0)
        assert derive_constants(cfg).A_q == 0.0


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


class TestRingElectrostatics:
    def ring_cfg(self, **kw):
        return reference_config(ring_field=None, ring_charge=3.25, **kw)

    def test_potential_peak(self):
        # Q/(4 pi eps0 R) at the ring plane
        cfg = self.ring_cfg()
        phi = ring_potential(-cfg.ring_offset_c0, cfg)
        assert rel(phi, 5.84190866497e12) < 1e-9

    def test_potential_zero_charge(self):
        cfg = reference_config(ring_field=None, ring_charge=0.0)
        xs = np.linspace(-5e-6, 5e-6, 11)
        assert np.all(ring_potential(xs, cfg) == 0.0)

    def test_potential_unit_ratio(self):
        cfg = self.ring_cfg()
        peak = ring_potential(-cfg.ring_offset_c0, cfg)
        at_r = ring_potential(cfg.ring_radius - cfg.ring_offset_c0, cfg)
        assert rel(at_r, peak / np.sqrt(2.0)) < 1e-12

    def test_potential_even_about_ring_plane(self):
        cfg = self.ring_cfg()
        d = np.linspace(1e-7, 3e-6, 7)
        left = ring_potential(-cfg.ring_offset_c0 - d, cfg)
        right = ring_potential(-cfg.ring_offset_c0 + d, cfg)
        assert np.allclose(left, right, rtol=1e-14, atol=0.0)

    def test_field_reference_value(self):
        # Q = 3.25 C, C0 = wavelength: 2.4863e11 V/m at the antinode,
        # consistent with the quoted 2.5e11 V/m for that charge
        cfg = self.ring_cfg()
        assert rel(ring_field(0.0, cfg), 2.48631615893e11) < 1e-9
        assert rel(ring_field(0.0, cfg), 2.5e11) < 0.01

    def test_field_antisymmetry_point(self):
        cfg = self.ring_cfg()
        assert ring_field(-cfg.ring_offset_c0, cfg) == 0.0

    def test_field_is_minus_gradient(self):
        # central differences of the potential, h small against the ring
        # radius but large enough to survive cancellation
        cfg = self.ring_cfg()
        lam = cfg.wavelength
        xs = np.linspace(-10 * lam, 10 * lam, 241)
        h = 1e-6
        grad = (ring_potential(xs + h, cfg) - ring_potential(xs - h, cfg)) / (2 * h)
        field = ring_field(xs, cfg)
        # mixed tolerance: the field crosses zero at x = -C0 inside the span
        err = np.abs(field + grad)
        scale = np.abs(field) + 1e-3 * np.max(np.abs(field))
        assert np.max(err / scale) < 1e-6


class TestElectrostaticSpring:
    def test_reference_value(self):
        cfg = reference_config(ring_field=None, ring_charge=3.25)
        assert rel(electrostatic_spring(cfg), 3.74390782439e-7) < 1e-9

    def test_zero_charge(self):
        cfg = reference_config(ring_field=None, ring_charge=3.25,
                               mcp_epsilon=0.0)
        assert electrostatic_spring(cfg) == 0.0

    def test_exact_series_factor(self):
        # (1 - 2u^2)(1 + u^2)^(-5/2) = 1 - 4.5 u^2 + O(u^4)
        cfg = reference_config(ring_field=None, ring_charge=3.25)
        u = 1e-3
        x_s = u * cfg.ring_radius - cfg.ring_offset_c0
        ratio = (electrostatic_spring(cfg, x_s=x_s, exact=True)
                 / electrostatic_spring(cfg))
        assert abs((1.0 - ratio) - 4.5e-6) < 1e-10

    def test_exact_close_to_approx_at_small_offset(self):
        cfg = reference_config(ring_field=None, ring_charge=3.25)
        u = 4e-4
        x_s = u * cfg.ring_radius - cfg.ring_offset_c0
        ratio = (electrostatic_spring(cfg, x_s=x_s, exact=True)
                 / electrostatic_spring(cfg))
        assert abs(1.0 - ratio) < 1e-6


class TestDamping:
    OMEGA = 1.0348e6

    def test_reference_values(self, ref_cfg):
        gph, ggas, gam, Gam = damping_and_diffusion(ref_cfg, C, self.OMEGA)
        assert rel(ggas, 5.93942353432e-7) < 1e-9
        assert rel(gph, 2.8289341023e-5) < 1e-9
        assert rel(Gam, 1096.27249431) < 1e-9
        assert gam == gph + ggas

    def test_gas_velocity_via_pressure_scaling(self, ref_cfg):
        # gamma_gas is linear in pressure with v = 508.234 m/s folded in
        doubled = dataclasses.replace(ref_cfg,
                                      gas_pressure=2 * ref_cfg.gas_pressure)
        _, g1, _, _ = damping_and_diffusion(ref_cfg, C, self.OMEGA)
        _, g2, _, _ = damping_and_diffusion(doubled, C, self.OMEGA)
        assert rel(g2, 2 * g1) < 1e-14

    def test_zero_pressure(self):
        cfg = reference_config(gas_pressure=0.0)
        gph, ggas, gam, _ = damping_and_diffusion(cfg, C, self.OMEGA)
        assert ggas == 0.0
        assert gam == gph

    def test_diffusion_damping_identity(self, ref_cfg):
        _, _, gam, Gam = damping_and_diffusion(ref_cfg, C, self.OMEGA)
        back = Gam * C.hbar * self.OMEGA / (C.kB * ref_cfg.temperature)
        assert rel(back, gam) < 1e-14

    def test_rejects_nonpositive_frequency(self, ref_cfg):
        with pytest.raises(NonPositiveFrequency):
            damping_and_diffusion(ref_cfg, C, 0.0)
        with pytest.raises(NonPositiveFrequency):
            damping_and_diffusion(ref_cfg, C, -1.0)

    def test_with_damping_completes_record(self, ref_cfg):
        derived = derive_constants(ref_cfg)
        assert derived.gamma is None
        full = derived.with_damping(self.OMEGA)
        assert full.gamma == full.gamma_ph + full.gamma_gas
        assert full.Gamma_diff > 0.0

    def test_custom_gas_mass(self):
        helium = reference_config(gas_molecule_mass=4.002602 * C.u)
        air = reference_config()
        _, g_he, _, _ = damping_and_diffusion(helium, C, self.OMEGA)
        _, g_air, _, _ = damping_and_diffusion(air, C, self.OMEGA)
        # lighter gas, faster molecules, weaker drag at equal pressure
        assert g_he < g_air
        assert rel(g_he, g_air * np.sqrt(4.002602 / 28.97)) < 1e-12
