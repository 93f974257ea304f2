"""Output spectra: transfer identities, decoupling theorem, symmetries."""
import contextlib
import dataclasses
import time
import warnings

import numpy as np
import pytest

from levring import spectra
from levring.cli import parse_config
from levring.entanglement import lyapunov_solve
from levring.errors import NonFiniteResult
from levring.pipeline import solve_point
from levring.spectra import (output_spectrum, spectrum_sweep,
                             transfer_coefficients)

from conftest import (CONFIG_DIR, KAPPA_SCALE, random_model,
                      reference_config, synthetic_model)

KAP = KAPPA_SCALE


def internal_spectrum(model, omega, which: str):
    """Symmetric spectrum of an internal quadrature ('x', 'p', 'X', 'Y').

    Used by the covariance cross-check: (1/2pi) * integral of each matches
    the corresponding diagonal entry of the stationary covariance.
    """
    tc = transfer_coefficients(model, omega)
    omega = np.asarray(omega, dtype=float)
    kappa = model.kappa
    Gamma = model.derived.Gamma_diff
    op = model.op
    abs_d2 = np.abs(tc.d) ** 2
    if which in ("x", "p"):
        kw = kappa / 2.0 - 1j * omega
        s = (Gamma * np.abs(tc.chi_c_inv * op.omega_m) ** 2
             + kappa / 2.0 * op.G ** 2 * op.omega_m ** 2
             * (np.abs(kw) ** 2 + op.delta_eff ** 2)) / abs_d2
        if which == "p":
            s = omega ** 2 / op.omega_m ** 2 * s
        return s
    if which == "X":
        a, b, c = tc.a_X, tc.b_X, tc.c_X
    elif which == "Y":
        a, b, c = tc.a_Y, tc.b_Y, tc.c_Y
    else:
        raise ValueError(f"unknown quadrature {which!r}")
    return (Gamma * np.abs(a) ** 2
            + kappa / 2.0 * (np.abs(b) ** 2 + np.abs(c) ** 2)) / abs_d2


def reference_output_spectra(model, omega):
    """(S_XX, S_YY) with every transfer coefficient and term formed
    separately: the reference for the shared terms of `spectrum_sweep`;
    the phase quadrature's cross term is formed from c_Y, not from the
    b_X that `spectrum_sweep` shares."""
    omega = np.asarray(omega, dtype=float)
    op = model.op
    kappa, gamma = model.kappa, model.gamma
    Gamma = model.derived.Gamma_diff
    delta, om, Om, G = op.delta_eff, op.omega_m, op.Omega_m, op.G
    kw = kappa / 2.0 - 1j * omega
    chi_c_inv = delta ** 2 + kw ** 2
    chi_m_inv = om * Om - omega ** 2 - 1j * omega * gamma / 2.0
    d = chi_c_inv * chi_m_inv - G ** 2 * om * delta
    a_X = np.broadcast_to(G * om * delta + 0j, omega.shape).copy()
    b_X = kw * chi_m_inv
    c_X = delta * chi_m_inv
    a_Y = G * om * kw
    b_Y = -delta * chi_m_inv + om * G ** 2
    c_Y = kw * chi_m_inv
    abs_d2 = np.abs(d) ** 2
    d_minus = np.conj(d)

    def spectrum(a, b, c, cross):
        return (0.5
                + kappa * Gamma * np.abs(a) ** 2 / abs_d2
                + kappa ** 2 / 2.0 * (np.abs(b) ** 2 + np.abs(c) ** 2) / abs_d2
                - kappa * np.real(cross * d_minus) / abs_d2)

    return (spectrum(a_X, b_X, c_X, b_X), spectrum(a_Y, b_Y, c_Y, c_Y))


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

    def test_vanishing_denominator_raises(self):
        # with G = 0 and gamma = 0, d(omega) = chi_c^-1 (omega_m Omega_m -
        # omega^2) is exactly zero at the grid point omega = 1
        m = synthetic_model(1.0, 1.0, 0.5, 0.0, 0.0, 1.0)
        with pytest.raises(NonFiniteResult) as err:
            spectrum_sweep(m, [0.5, 1.0, 1.5])
        assert str(err.value) == ("transfer denominator underflowed to zero "
                                  "within grid [5.000e-01, 1.500e+00]")

    def test_no_coupling_gives_shot_noise_floor(self):
        # with G = 0 each output quadrature subtracts its own input noise,
        # so both columns are 1/2 whatever the detuning, damping and
        # mechanical noise
        rng = np.random.default_rng(11)
        w = np.linspace(-3, 3, 3001) * KAP
        for _ in range(20):
            table = spectrum_sweep(random_model(rng, G_range=(0.0, 0.0)), w)
            assert np.max(np.abs(table.S_XX - 0.5)) < 1e-14
            assert np.max(np.abs(table.S_YY - 0.5)) < 1e-14

    def test_unstable_flag(self):
        rng = np.random.default_rng(21)
        m = random_model(rng, stable=False)
        table = spectrum_sweep(m, np.linspace(-1, 1, 11) * KAP)
        assert table.unstable is True

    def test_both_columns_equal_output_spectrum(self):
        # one linear-response pass gives each quadrature's bits
        cfg = parse_config(str(CONFIG_DIR / "fig1.cfg"))
        models = [solve_point(cfg, ring_mode).model
                  for ring_mode in ("fixed_charge", "resonant")]
        models.append(random_model(np.random.default_rng(21), stable=False))
        w = np.linspace(-3, 3, 601) * KAP
        for model in models:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = spectrum_sweep(model, w)
            expect = (contextlib.nullcontext() if model.stable
                      else pytest.warns(UserWarning))
            with expect:
                want_xx = output_spectrum(model, w, "X")
                want_yy = output_spectrum(model, w, "Y")
            assert table.S_XX.tobytes() == want_xx.tobytes()
            assert table.S_YY.tobytes() == want_yy.tobytes()
        assert [m.stable for m in models] == [True, True, False]

    def test_sweep_equals_unshared_reference(self):
        # each shared term gives the bits of the formulas written out
        # separately, on the shipped models and an unstable one; fig2
        # has a fixed-charge root only below 0.25 linewidths
        fig1 = parse_config(str(CONFIG_DIR / "fig1.cfg"))
        fig2 = parse_config(str(CONFIG_DIR / "fig2.cfg"))
        models = [solve_point(cfg, ring_mode).model for cfg, ring_mode in (
            (fig1, "fixed_charge"), (fig1, "resonant"),
            (dataclasses.replace(fig2, detuning_over_kappa=0.15),
             "fixed_charge"), (fig2, "resonant"))]
        models.append(random_model(np.random.default_rng(5), stable=False))
        w = np.linspace(-3, 3, 3001) * KAP
        for model in models:
            table = spectrum_sweep(model, w)
            want_xx, want_yy = reference_output_spectra(model, w)
            assert table.S_XX.tobytes() == want_xx.tobytes()
            assert table.S_YY.tobytes() == want_yy.tobytes()
        assert [m.stable for m in models] == [True] * 4 + [False]

    def test_mechanical_resonance_on_the_grid(self):
        # at omega = +-w0, where omega^2 equals omega_m Omega_m exactly,
        # the real part of chi_m^-1 is a zero whose sign alone could tell
        # (i omega gamma) * 0.5 from i omega gamma / 2: it gives their
        # bits, and so do both columns
        w0 = 0.75 * KAP
        model = synthetic_model(2.0 * w0, 0.5 * w0, 0.4 * KAP, 0.3 * KAP,
                                0.1 * KAP, 10.0 * KAP)
        w = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * w0
        op = model.op
        want = op.omega_m * op.Omega_m - w ** 2 - 1j * w * model.gamma / 2.0
        chi_m_inv = transfer_coefficients(model, w).chi_m_inv
        assert chi_m_inv.tobytes() == want.tobytes()
        assert chi_m_inv.real[[1, 3]].tolist() == [0.0, 0.0]
        table = spectrum_sweep(model, w)
        want_xx, want_yy = reference_output_spectra(model, w)
        assert table.S_XX.tobytes() == want_xx.tobytes()
        assert table.S_YY.tobytes() == want_yy.tobytes()

    def test_one_transfer_evaluation_per_sweep(self, fig1_model, monkeypatch):
        calls = []
        original = spectra.transfer_coefficients

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectra, "transfer_coefficients", counted)
        spectrum_sweep(fig1_model, np.linspace(-3, 3, 101) * KAP)
        assert len(calls) == 1

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
