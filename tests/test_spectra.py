"""Output spectra: transfer identities, decoupling theorem, symmetries."""
import time

import numpy as np
import pytest

from levring.entanglement import lyapunov_solve
from levring.pipeline import solve_point
from levring.spectra import (internal_spectrum, output_spectrum,
                             spectrum_sweep, transfer_coefficients)

from conftest import KAPPA_SCALE, random_model, reference_config

KAP = KAPPA_SCALE


@pytest.fixture(scope="module")
def fig1_model():
    return solve_point(reference_config()).model


@pytest.fixture(scope="module")
def decoupled_model():
    return solve_point(reference_config(mcp_epsilon=0.0)).model


class TestTransferCoefficients:
    def test_conjugation_identity(self, fig1_model):
        rng = np.random.default_rng(1)
        w = rng.uniform(-3, 3, size=1000) * KAP
        tc_plus = transfer_coefficients(fig1_model, w)
        tc_minus = transfer_coefficients(fig1_model, -w)
        err = np.abs(np.conj(tc_plus.d) - tc_minus.d) / np.abs(tc_plus.d)
        assert np.max(err) < 1e-14

    def test_decoupled_structure(self, decoupled_model):
        w = np.linspace(-2, 2, 101) * KAP
        tc = transfer_coefficients(decoupled_model, w)
        assert np.all(tc.a_X == 0.0)
        assert np.all(tc.a_Y == 0.0)
        assert np.allclose(tc.b_Y, -tc.c_X, rtol=1e-14, atol=0.0)

    def test_origin_value_decoupled(self, decoupled_model):
        op = decoupled_model.op
        tc = transfer_coefficients(decoupled_model, 0.0)
        want = ((op.delta_eff ** 2 + decoupled_model.kappa ** 2 / 4)
                * op.omega_m * op.Omega_m)
        assert abs(tc.d.imag) == 0.0
        assert abs(tc.d.real - want) / want < 1e-14

    def test_denominator_definition(self, fig1_model):
        w = np.linspace(-2, 2, 51) * KAP
        tc = transfer_coefficients(fig1_model, w)
        op = fig1_model.op
        want = (tc.chi_c_inv * tc.chi_m_inv
                - op.G ** 2 * op.omega_m * op.delta_eff)
        assert np.allclose(tc.d, want, rtol=1e-14, atol=0.0)


class TestDecouplingTheorem:
    GRID = np.linspace(-3, 3, 3001)

    def test_no_bound_charge(self, decoupled_model):
        w = self.GRID * KAP
        for quad in ("X", "Y"):
            s = output_spectrum(decoupled_model, w, quad)
            assert np.max(np.abs(s - 0.5)) < 1e-14

    def test_zero_ring_offset(self):
        cfg = reference_config(ring_field=None, ring_charge=0.9476872,
                               ring_offset_c0=0.0)
        model = solve_point(cfg).model
        w = self.GRID * KAP
        for quad in ("X", "Y"):
            s = output_spectrum(model, w, quad)
            assert np.max(np.abs(s - 0.5)) < 1e-14


class TestOutputSpectrum:
    def test_even_in_frequency(self, fig1_model):
        w = np.linspace(0.01, 3, 400) * KAP
        for quad in ("X", "Y"):
            sp = output_spectrum(fig1_model, w, quad)
            sm = output_spectrum(fig1_model, -w, quad)
            assert np.max(np.abs(sp - sm) / sp) < 1e-12

    def test_matches_complex_assembly(self, fig1_model):
        # oracle: assemble the full expression in complex arithmetic and
        # check both the value and the smallness of the imaginary residue
        w = np.linspace(-3, 3, 301) * KAP
        tc = transfer_coefficients(fig1_model, w)
        kappa = fig1_model.kappa
        Gam = fig1_model.derived.Gamma_diff
        dm = np.conj(tc.d)
        dd = tc.d * dm
        for quad, (a, b, c, cr) in {
                "X": (tc.a_X, tc.b_X, tc.c_X, tc.b_X),
                "Y": (tc.a_Y, tc.b_Y, tc.c_Y, tc.c_Y)}.items():
            s_complex = (0.5 + kappa * Gam * a * np.conj(a) / dd
                         + kappa ** 2 / 2 * (b * np.conj(b) + c * np.conj(c)) / dd
                         - kappa * (cr * dm + np.conj(cr * dm)) / 2 / dd)
            assert np.max(np.abs(s_complex.imag)) < 1e-12 * np.max(np.abs(s_complex.real))
            s = output_spectrum(fig1_model, w, quad)
            assert np.allclose(s, s_complex.real, rtol=1e-12, atol=0.0)

    def test_positive_on_stable_models(self):
        rng = np.random.default_rng(9)
        w = np.linspace(-4, 4, 401) * KAP
        for _ in range(40):
            m = random_model(rng, stable=True)
            for quad in ("X", "Y"):
                assert np.all(output_spectrum(m, w, quad) >= 0.0)

    def test_high_frequency_limit(self, fig1_model):
        s = output_spectrum(fig1_model, 1e4 * KAP, "Y")
        assert abs(s - 0.5) < 1e-6

    def test_squeezing_and_resonance_feature(self, fig1_model):
        w = np.linspace(-3, 3, 3001) * KAP
        om = fig1_model.op.omega_m
        for quad in ("X", "Y"):
            s = output_spectrum(fig1_model, w, quad)
            assert s.min() < 0.5  # squeezing band exists
            mask = np.abs(w) > 0.05 * KAP
            peak = np.abs(w)[mask][np.argmax(np.abs(s - 0.5)[mask])]
            assert abs(peak - om) / om < 0.3

    def test_maintext_form_differs_only_in_phase_quadrature(self, fig1_model):
        w = np.linspace(-2, 2, 201) * KAP
        sx_s = output_spectrum(fig1_model, w, "X", form="supplement")
        sx_m = output_spectrum(fig1_model, w, "X", form="maintext")
        assert np.array_equal(sx_s, sx_m)
        sy_s = output_spectrum(fig1_model, w, "Y", form="supplement")
        sy_m = output_spectrum(fig1_model, w, "Y", form="maintext")
        assert np.max(np.abs(sy_s - sy_m)) > 1e-3

    def test_tiny_charge_leaves_narrow_weak_feature(self):
        # charge fraction 1e-8 at the reference field: output is no
        # longer thermal-flat, but the deviation is vanishingly small
        # and confined to a narrow band around the mechanical line
        model = solve_point(reference_config(mcp_epsilon=1e-8)).model
        w = np.linspace(-3, 3, 6001) * KAP
        for quad in ("X", "Y"):
            s = output_spectrum(model, w, quad)
            dev = np.abs(s - 0.5)
            assert 1e-8 < dev.max() < 1e-3
            assert s.min() < 0.5  # still squeezes, feebly
            assert np.mean(dev > 0.5 * dev.max()) < 0.01  # narrow line

    def test_unstable_model_warns(self):
        rng = np.random.default_rng(13)
        m = random_model(rng, stable=False)
        with pytest.warns(UserWarning):
            output_spectrum(m, 0.5 * KAP, "Y")

    def test_bad_quadrature_rejected(self, fig1_model):
        with pytest.raises(ValueError):
            output_spectrum(fig1_model, 0.0, "Z")


class TestSpectrumSweep:
    def test_empty_grid(self, fig1_model):
        table = spectrum_sweep(fig1_model, [])
        assert len(table) == 0

    def test_columns_and_normalisation(self, fig1_model):
        w = np.linspace(-3, 3, 501) * KAP
        table = spectrum_sweep(fig1_model, w)
        assert np.allclose(table.S_XX_norm, table.S_XX / 0.5, rtol=0, atol=0.0)
        assert np.allclose(table.omega_over_kappa, w / KAP, rtol=0, atol=0.0)
        assert table.unstable is False

    def test_deterministic(self, fig1_model):
        w = np.linspace(-3, 3, 501) * KAP
        t1 = spectrum_sweep(fig1_model, w)
        t2 = spectrum_sweep(fig1_model, w)
        assert np.array_equal(t1.S_XX, t2.S_XX)
        assert np.array_equal(t1.S_YY, t2.S_YY)

    def test_requires_increasing_grid(self, fig1_model):
        with pytest.raises(ValueError):
            spectrum_sweep(fig1_model, [0.0, 0.0, 1.0])

    def test_unstable_flag(self):
        rng = np.random.default_rng(21)
        m = random_model(rng, stable=False)
        table = spectrum_sweep(m, np.linspace(-1, 1, 11) * KAP)
        assert table.unstable is True

    def test_reference_grid_runtime(self, fig1_model):
        w = np.linspace(0, 3, 1500) * KAP
        w[0] = 1e-6 * KAP  # strictly increasing from a near-zero start
        start = time.perf_counter()
        spectrum_sweep(fig1_model, w)
        assert time.perf_counter() - start < 1.0


class TestCovarianceConsistency:
    def test_integral_matches_lyapunov_diagonal(self, fig1_model):
        # frequency-domain route vs the algebraic stationary covariance;
        # truncation at 60 kappa leaves a 1/w^2 tail on the optical
        # quadratures, compensated analytically by kappa/(2 pi W)
        V = lyapunov_solve(fig1_model)
        W = 60.0 * KAP
        w = np.linspace(-W, W, 400001)
        tail = KAP / (2.0 * np.pi * W)
        for i, which in enumerate(("x", "p", "X", "Y")):
            s = internal_spectrum(fig1_model, w, which)
            integral = np.trapezoid(s, w) / (2.0 * np.pi)
            if which in ("X", "Y"):
                integral += tail
            assert abs(integral - V[i, i]) / V[i, i] < 0.01, which
