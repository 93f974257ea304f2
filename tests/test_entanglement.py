"""Stationary covariance, logarithmic negativity, detuning sweeps."""
import dataclasses

import numpy as np
import pytest

from levring import model, pipeline
from levring.entanglement import (covariance_by_integration,
                                  entanglement_point, entanglement_sweep,
                                  is_physical, log_negativity,
                                  lyapunov_residual, lyapunov_solve,
                                  symplectic_eigenvalues)
from levring.errors import (ConfigInvalid, UnphysicalCovariance,
                            UnstableModel)
from levring.pipeline import solve_point

from conftest import (KAPPA_SCALE, random_model, reference_config,
                      synthetic_model)

KAP = KAPPA_SCALE


def two_mode_squeezed(r):
    c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    V = np.diag([c, c, c, c])
    V[0, 2] = V[2, 0] = s
    V[1, 3] = V[3, 1] = -s
    return V


class TestLyapunov:
    def test_decoupled_closed_form(self):
        # q != 0 but C0 = 0: mechanics and light decouple yet the ring
        # still stiffens the spring, so the first entry keeps Omega_m
        cfg = reference_config(ring_field=None, ring_charge=0.9476872,
                               ring_offset_c0=0.0)
        sol = solve_point(cfg)
        V = lyapunov_solve(sol.model)
        d = sol.derived
        op = sol.op
        want = np.diag([d.Gamma_diff * op.omega_m / (d.gamma * op.Omega_m),
                        d.Gamma_diff / d.gamma, 0.5, 0.5])
        assert np.allclose(V, want, rtol=1e-10, atol=1e-14 * want.max())
        assert np.all(V[:2, 2:] == 0.0)

    def test_residual_on_random_stable_models(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m = random_model(rng, stable=True)
            V = lyapunov_solve(m)
            assert lyapunov_residual(m, V) < 1e-10
            assert np.allclose(V, V.T, rtol=1e-12, atol=0.0)

    def test_positive_definite_when_stable(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            V = lyapunov_solve(random_model(rng, stable=True))
            assert np.all(np.linalg.eigvalsh(V) > 0.0)

    def test_unstable_rejected(self):
        rng = np.random.default_rng(19)
        m = random_model(rng, stable=False)
        with pytest.raises(UnstableModel):
            lyapunov_solve(m)
        with pytest.raises(UnstableModel):
            covariance_by_integration(m)

    def test_fig1_off_diagonal_coupling(self):
        sol = solve_point(reference_config())
        V = lyapunov_solve(sol.model)
        assert np.all(np.linalg.eigvalsh(V) > 0.0)
        assert np.abs(V[:2, 2:]).max() > 0.0


class TestCovarianceIntegration:
    def test_matches_algebraic_solution(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = random_model(rng, stable=True, gamma_range=(0.05, 0.5))
            V_alg = lyapunov_solve(m)
            V_int = covariance_by_integration(m)
            err = np.abs(V_int - V_alg).max() / np.abs(V_alg).max()
            assert err < 1e-6

    def test_decoupled_reaches_closed_form(self):
        m = synthetic_model(0.7 * KAP, 1.1 * KAP, 0.9 * KAP, 0.0,
                            0.05 * KAP, 40.0 * KAP)
        V = covariance_by_integration(m)
        gam, Gam = m.gamma, m.derived.Gamma_diff
        want = np.diag([Gam * 0.7 / (gam / KAP * 1.1 * KAP),
                        Gam / gam, 0.5, 0.5])
        assert np.allclose(V, want, rtol=1e-6)

    def test_unforced_contraction_to_zero(self):
        m = synthetic_model(0.7 * KAP, 1.1 * KAP, 0.9 * KAP, -0.2 * KAP,
                            0.1 * KAP, 1.0 * KAP)
        m = dataclasses.replace(m, D=np.zeros((4, 4)))
        V = covariance_by_integration(m, t_max=2000.0 / KAP)
        assert np.abs(V).max() < 1e-12


class TestLogNegativity:
    def test_vacuum_is_separable(self):
        res = log_negativity(np.diag([0.5, 0.5, 0.5, 0.5]))
        assert res.E_n == 0.0
        assert abs(res.eta_minus - 0.5) < 1e-15

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_two_mode_squeezed_family(self, r):
        res = log_negativity(two_mode_squeezed(r))
        assert abs(res.E_n - 2 * r) < 1e-10
        assert abs(res.eta_minus - np.exp(-2 * r) / 2) < 1e-12

    def test_log_base_switch(self):
        res2 = log_negativity(two_mode_squeezed(0.5), base="2")
        assert abs(res2.E_n - 1.0 / np.log(2)) < 1e-10
        res10 = log_negativity(two_mode_squeezed(0.5), base="10")
        assert abs(res10.E_n - 1.0 / np.log(10)) < 1e-10

    def test_thermal_state_clamps_to_zero(self):
        res = log_negativity(np.diag([3.0, 3.0, 0.8, 0.8]))
        assert res.E_n == 0.0
        assert res.eta_minus >= 0.5

    def test_sigma_definition(self):
        V = two_mode_squeezed(0.3)
        res = log_negativity(V)
        assert abs(res.sigma - (res.detB1 + res.detB2 - 2 * res.detB3)) == 0.0
        assert res.detB3 < 0.0  # anti-correlated p-quadratures

    def test_unphysical_rejected(self):
        V = np.diag([0.5, 0.5, 0.5, 0.5])
        V[0, 2] = V[2, 0] = 0.9  # correlation stronger than the variances
        with pytest.raises(UnphysicalCovariance):
            log_negativity(V)

    def test_physicality_helper(self):
        assert is_physical(np.diag([0.5, 0.5, 0.5, 0.5]))
        # slightly mixed squeezed state sits clear of the boundary
        assert is_physical(1.001 * two_mode_squeezed(0.7))
        assert not is_physical(np.diag([0.4, 0.4, 0.5, 0.5]))

    def test_symplectic_eigenvalues_of_squeezed_state(self):
        # pure state: both eigenvalues at the vacuum floor; the
        # sigma-formula cancels to ~sqrt(eps) there, hence the tolerance
        lo, hi = symplectic_eigenvalues(two_mode_squeezed(0.5))
        assert abs(lo - 0.5) < 1e-6
        assert abs(hi - 0.5) < 1e-6


class TestSweep:
    def test_row_schema_and_decoupled_zero(self):
        cfg = reference_config(mcp_epsilon=0.0)
        rows = entanglement_sweep(cfg, [0.2, 0.5, 0.8])
        assert [r.delta0_over_kappa for r in rows] == [0.2, 0.5, 0.8]
        for r in rows:
            assert r.E_n == 0.0
            assert r.stable is True
            assert r.x_s == 0.0
            assert r.error == ""

    def test_rows_survive_no_root_regions(self):
        cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3)
        rows = entanglement_sweep(cfg, np.linspace(0.05, 1.0, 12))
        assert len(rows) == 12
        failed = [r for r in rows if r.E_n is None]
        ok = [r for r in rows if r.E_n is not None]
        assert failed and ok
        assert all("NoRootInInterval" in r.error for r in failed)

    def test_tiny_charge_has_no_entanglement(self):
        # charge fraction 1e-8 at the reference field: stable stationary
        # states everywhere, all below the separability threshold
        cfg = reference_config(mcp_epsilon=1e-8)
        rows = entanglement_sweep(cfg, np.linspace(0.1, 1.0, 10))
        assert all(r.error == "" for r in rows)
        assert all(r.E_n == 0.0 for r in rows)

    def test_resonant_mode_reports_charge_and_field(self):
        cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3)
        rows = entanglement_sweep(cfg, [0.3], ring_mode="resonant")
        row = rows[0]
        assert row.E_n is not None and row.E_n > 0.0
        assert row.Q_used > 0.0
        assert row.E_x > 0.0
        assert row.omega_m > 0.0

    def test_covariance_physicality_along_sweep(self):
        cfg = reference_config(ring_field=2.5e11)
        for d0 in (0.2, 0.32, 0.6):
            sol = solve_point(cfg, delta0=d0 * KAP, ring_mode="resonant")
            V = lyapunov_solve(sol.model)
            lo, _ = symplectic_eigenvalues(V)
            assert lo >= 0.5 - 1e-10

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_one_derive_per_row(self, monkeypatch, ring_mode):
        calls = []
        original = model.derive_constants

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "derive_constants", counted)
        monkeypatch.setattr(pipeline, "derive_constants", counted)
        cfg = reference_config(ring_field=2.5e11)
        row = entanglement_point(cfg, 0.3, ring_mode=ring_mode)
        assert row.delta0_over_kappa == 0.3
        assert len(calls) == 1

    def test_row_detuning_is_over_kappa_times_kappa(self):
        cfg = reference_config(ring_field=2.5e11, detuning_delta0=1.0,
                               detuning_over_kappa=None)
        row = entanglement_point(cfg, 0.3, ring_mode="resonant")
        kappa = model.derive_constants(cfg).kappa
        sol = solve_point(cfg, delta0=0.3 * kappa, ring_mode="resonant")
        assert row.x_s == sol.op.x_s
        assert row.Q_used == sol.derived.ring_charge

    def test_config_invalid_propagates(self):
        cfg = reference_config(sphere_radius=-50e-9)
        with pytest.raises(ConfigInvalid, match="sphere_radius"):
            entanglement_point(cfg, 0.3)
