"""Stationary covariance, logarithmic negativity, detuning sweeps."""
import collections
import dataclasses
import math

import numpy as np
import pytest

from levring import entanglement, model, pipeline
from levring.cli import parse_config
from levring.entanglement import (EntanglementPoint, _kron_sum,
                                  covariance_by_integration,
                                  entanglement_sweep, log_negativity,
                                  lyapunov_residual, lyapunov_solve,
                                  lyapunov_solves, symplectic_eigenvalues)
from levring.errors import (ConfigInvalid, LevringError, NotConverged,
                            NumericalError, SingularSystem,
                            UnphysicalCovariance, UnstableModel)
from levring.pipeline import solve_grid, solve_point

from conftest import (CONFIG_DIR, KAPPA_SCALE, random_model,
                      reference_config, synthetic_model)

KAP = KAPPA_SCALE
PHYSICALITY_SLACK = 1e-10


def is_physical(V):
    """Symplectic positivity: both eigenvalues of V itself
    >= 1/2 - PHYSICALITY_SLACK."""
    lo, _ = symplectic_eigenvalues(V)
    return lo >= 0.5 - PHYSICALITY_SLACK


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

    def test_slow_decay_draw_meets_the_rounding_floor(self):
        # draw 121 of the criterion-4 box decays at 4.7e-4 kappa; its RK4
        # residual floors at 1.1e-12 ||D||, above 1e-12 ||D|| but below the
        # rounding floor of evaluating dV/dt
        rng = np.random.default_rng(7)
        for _ in range(121):
            m = random_model(rng, stable=True, gamma_range=(0.05, 0.5))
        assert -m.verdict.max_real_part < 5e-4 * KAP
        V_alg = lyapunov_solve(m)
        V_int = covariance_by_integration(m)
        assert np.abs(V_int - V_alg).max() / np.abs(V_alg).max() < 1e-6

    def test_unforced_contraction_to_zero(self):
        m = synthetic_model(0.7 * KAP, 1.1 * KAP, 0.9 * KAP, -0.2 * KAP,
                            0.1 * KAP, 1.0 * KAP)
        m = dataclasses.replace(m, D=np.zeros((4, 4)))
        V = covariance_by_integration(m, t_max=2000.0 / KAP)
        assert np.abs(V).max() < 1e-12

    @pytest.mark.parametrize("t_max, steps", [(0.0, 0), (1e-9, 1)])
    def test_too_short_relaxation_not_converged(self, t_max, steps):
        model = solve_point(reference_config()).model
        with pytest.raises(NotConverged,
                           match=f"not settled after {steps} steps "):
            covariance_by_integration(model, t_max=t_max)


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

    def test_rounding_negative_discriminant_clamps_to_zero(self):
        # (det B1, det B2, det B3, det V) with sigma^2 - 4 det V at -4e-14:
        # a rounding error, read as 0, so eta_minus^2 = sigma / 2
        dets = (0.1, 0.1, 0.0, 0.01 * (1.0 + 1e-12))
        assert -1e-10 < 0.2 ** 2 - 4.0 * dets[3] < 0.0
        sigma, eta_minus, e_n = entanglement._negativity_terms(*dets)
        assert sigma == 0.2
        assert eta_minus == math.sqrt(0.1)
        assert e_n == -math.log(2.0 * math.sqrt(0.1))

    @pytest.mark.parametrize("dets, message", [
        ((0.1, 0.1, 0.0, 0.010001),
         "sigma^2 - 4 det V = -4.000e-06 < 0: complex eta_minus"),
        ((-0.1, -0.1, 0.0, 0.001), "eta_minus^2 = -1.949e-01 <= 0"),
        ((1e200, 1e200, 0.0, math.inf),
         "determinants overflow: sigma = 2.000e+200, det V = inf"),
        ((8.1e153, 8.1e153, 0.0, 6.561e307),
         "determinants overflow: sigma = 1.620e+154, det V = 6.561e+307"),
        ((math.inf, 1.0, math.inf, 1.0),
         "determinants overflow: sigma = nan, det V = 1.000e+00"),
    ], ids=["complex-eta", "negative-eta-squared", "overflowing-det-V",
            "overflowing-sigma-squared", "nan-sigma"])
    def test_crafted_determinants_rejected(self, dets, message):
        with pytest.raises(UnphysicalCovariance) as err:
            entanglement._negativity_terms(*dets)
        assert str(err.value) == message

    @pytest.mark.parametrize("scale", [1e100, 9e76])
    def test_overflowing_covariance_rejected(self, scale):
        # det V overflows (1e100), or only sigma^2 does (9e76): an
        # UnphysicalCovariance, without an OverflowError or a RuntimeWarning
        with pytest.raises(UnphysicalCovariance, match="^determinants overflow"):
            log_negativity(np.eye(4) * scale)

    @pytest.mark.parametrize("scale", [1e200, 9e76])
    def test_overflowing_covariance_has_no_symplectic_eigenvalues(self, scale):
        # the determinants overflow (1e200, once a nan pair), or only
        # sigma^2 does (9e76, once an OverflowError)
        with pytest.raises(UnphysicalCovariance, match="^determinants overflow"):
            symplectic_eigenvalues(np.eye(4) * scale)

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
            sol = solve_point(dataclasses.replace(cfg, detuning_over_kappa=d0),
                              ring_mode="resonant")
            V = lyapunov_solve(sol.model)
            lo, _ = symplectic_eigenvalues(V)
            assert lo >= 0.5 - 1e-10

    @pytest.mark.parametrize("n_rows", [1, 200])
    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_one_derive_per_sweep(self, monkeypatch, ring_mode, n_rows):
        # the rows differ only in detuning, which no constant depends on
        calls = []
        original = model.derive_constants

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "derive_constants", counted)
        monkeypatch.setattr(pipeline, "derive_constants", counted)
        cfg = reference_config(ring_field=2.5e11)
        grid = [0.3] if n_rows == 1 else np.linspace(0.05, 1.0, n_rows)
        rows = entanglement_sweep(cfg, grid, ring_mode=ring_mode)
        assert [r.delta0_over_kappa for r in rows] == [float(d) for d in grid]
        assert len(calls) == 1

    def test_row_detuning_is_over_kappa_times_kappa(self):
        cfg = reference_config(ring_field=2.5e11, detuning_delta0=1.0,
                               detuning_over_kappa=None)
        row = entanglement_sweep(cfg, [0.3], ring_mode="resonant")[0]
        kappa = model.derive_constants(cfg).kappa
        sol = solve_point(dataclasses.replace(cfg, detuning_delta0=0.3 * kappa),
                          ring_mode="resonant")
        assert row.x_s == sol.op.x_s
        assert row.Q_used == sol.derived.ring_charge

    def test_config_invalid_propagates(self):
        cfg = reference_config(sphere_radius=-50e-9)
        with pytest.raises(ConfigInvalid, match="sphere_radius"):
            entanglement_sweep(cfg, [0.3])

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_damping_config_invalid_propagates(self, ring_mode):
        # Gamma_diff overflows at each row's omega_m: a config error of
        # the sweep, not a row error
        cfg = reference_config(gas_pressure=1e300)
        with pytest.raises(ConfigInvalid, match="gas_pressure"):
            entanglement_sweep(cfg, [0.3, 0.8], ring_mode)

    def test_non_finite_detuning_names_the_field(self):
        cfg = reference_config(ring_field=2.5e11)
        for bad in (np.nan, np.inf):
            for ring_mode in ("fixed_charge", "resonant"):
                with pytest.raises(ConfigInvalid,
                                   match="detuning_over_kappa must be finite"):
                    entanglement_sweep(cfg, [0.2, 0.3, bad, 0.5], ring_mode)

    def test_first_row_decides_which_field_is_named(self):
        # as row by row: the first row's config is validated first, and
        # finiteness comes before the other requirements
        cfg = reference_config(sphere_radius=-50e-9)
        with pytest.raises(ConfigInvalid, match="sphere_radius"):
            entanglement_sweep(cfg, [0.3, np.nan], "resonant")
        with pytest.raises(ConfigInvalid, match="detuning_over_kappa"):
            entanglement_sweep(cfg, [np.nan, 0.3], "resonant")

    def test_empty_grid_has_no_rows(self):
        # no row, so nothing is validated or solved
        cfg = reference_config(sphere_radius=-50e-9)
        assert entanglement_sweep(cfg, []) == []
        assert entanglement_sweep(cfg, np.array([]), "resonant") == []


def reference_row(cfg, delta0_over_kappa, ring_mode):
    """A sweep row built on its own: the row's config through solve_point,
    lyapunov_solve and log_negativity, as the sweep did one row at a time."""
    row_cfg = dataclasses.replace(cfg, detuning_delta0=None,
                                  detuning_over_kappa=delta0_over_kappa)
    try:
        sol = solve_point(row_cfg, ring_mode=ring_mode)
    except NumericalError as exc:
        return EntanglementPoint(
            delta0_over_kappa=delta0_over_kappa, E_n=None, stable=False,
            x_s=None, omega_m=None, Q_used=None, E_x=None,
            error=f"{type(exc).__name__}: {exc}")
    row = EntanglementPoint(
        delta0_over_kappa=delta0_over_kappa, E_n=None,
        stable=sol.model.stable, x_s=sol.op.x_s, omega_m=sol.op.omega_m,
        Q_used=sol.derived.ring_charge, E_x=sol.field_at_xs)
    if not sol.model.stable:
        return dataclasses.replace(row, error="no stationary state")
    try:
        value = log_negativity(lyapunov_solve(sol.model)).E_n
    except LevringError as exc:
        return dataclasses.replace(row, error=f"{type(exc).__name__}: {exc}")
    return dataclasses.replace(row, E_n=value)


def row_kind(row):
    return row.error.split(":")[0] if row.error else "E_n"


SWEEPS = {
    "fig2": ("fig2.cfg", np.linspace(0.05, 1.0, 200)),
    "fig2-wide": ("fig2.cfg", np.linspace(-0.5, 1.2, 35)),
    "fig1": ("fig1.cfg", np.linspace(0.05, 1.0, 50)),
    "decoupled": ("decoupled.cfg", np.linspace(-0.5, 1.0, 7)),
}


class TestSweepBatch:
    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_rows_equal_per_row_loop(self, sweep, ring_mode):
        # repr spells every float in full, so equal reprs are equal bits
        config, grid = SWEEPS[sweep]
        cfg = parse_config(str(CONFIG_DIR / config))
        rows = entanglement_sweep(cfg, grid, ring_mode)
        want = [reference_row(cfg, float(d0), ring_mode) for d0 in grid]
        assert [repr(r) for r in rows] == [repr(w) for w in want]
        if sweep == "fig2-wide":
            kinds = collections.Counter(row_kind(r) for r in rows)
            assert kinds["E_n"] >= 5
            assert kinds["AllRootsUnstable" if ring_mode == "fixed_charge"
                         else "NoResonantSolution"] >= 5

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_negative_offset_rows_equal_per_row_loop(self, ring_mode):
        cfg = reference_config(ring_field=2.5e11, ring_offset_c0=-1064e-9)
        grid = np.linspace(0.05, 1.0, 40)
        rows = entanglement_sweep(cfg, grid, ring_mode)
        want = [reference_row(cfg, float(d0), ring_mode) for d0 in grid]
        assert [repr(r) for r in rows] == [repr(w) for w in want]

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_covariance_failure_after_stable_solve(self, monkeypatch,
                                                   ring_mode):
        cfg = parse_config(str(CONFIG_DIR / "fig2.cfg"))
        grid = np.linspace(0.05, 1.0, 30)
        want = entanglement_sweep(cfg, grid, ring_mode)
        stable = [i for i, r in enumerate(want) if r.stable]
        forced = stable[len(stable) // 2]
        solves = entanglement._lyapunov_stack

        def failing(A, D):
            got = solves(A, D)
            got[stable.index(forced)] = SingularSystem("forced")
            return got

        monkeypatch.setattr(entanglement, "_lyapunov_stack", failing)
        rows = entanglement_sweep(cfg, grid, ring_mode)
        row = rows[forced]
        assert row.error == "SingularSystem: forced"
        assert row.E_n is None and row.stable is True
        assert want[forced].E_n is not None
        assert [repr(r) for i, r in enumerate(rows) if i != forced] == \
            [repr(w) for i, w in enumerate(want) if i != forced]

    @pytest.mark.parametrize("config, ring_mode, stable", [
        ("fig1.cfg", "fixed_charge", 180), ("fig1.cfg", "resonant", 184),
        ("fig2.cfg", "fixed_charge", 42), ("fig2.cfg", "resonant", 184)])
    def test_rows_equal_the_model_path(self, config, ring_mode, stable):
        # the sweep reads its rows off the solver's table; each row has the
        # bits of the model the same grid builds, and each stable row's
        # E_n those of that model's covariance
        cfg = parse_config(str(CONFIG_DIR / config))
        grid = list(np.linspace(0.05, 1.0, 200))
        rows = entanglement_sweep(cfg, grid, ring_mode)
        outcomes = solve_grid(cfg, grid, ring_mode=ring_mode)
        solved = 0
        for row, m in zip(rows, outcomes):
            if isinstance(m, LevringError):
                assert row.error == f"{type(m).__name__}: {m}"
                assert row.E_n is None and row.stable is False
                continue
            assert row.stable is m.stable
            assert [row.x_s.hex(), row.omega_m.hex(), row.Q_used.hex()] == [
                m.op.x_s.hex(), m.op.omega_m.hex(),
                m.derived.ring_charge.hex()]
            if m.stable:
                want = log_negativity(lyapunov_solve(m)).E_n
                assert row.E_n.hex() == want.hex() and row.error == ""
                solved += 1
            else:
                assert row.E_n is None
        assert solved == stable

    def test_point_is_a_sweep_of_one(self):
        cfg = reference_config(ring_field=2.5e11)
        for ring_mode in ("fixed_charge", "resonant"):
            for d0 in (-0.4, 0.3, 0.7):
                assert (repr(entanglement_sweep(cfg, [d0], ring_mode)[0])
                        == repr(reference_row(cfg, d0, ring_mode)))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_covariances(models):
    """lyapunov_solves gives, per model, lyapunov_solve's bits or error,
    and the bits of the model's system solved on its own."""
    got = lyapunov_solves(models)
    assert len(got) == len(models)
    kinds = collections.Counter()
    for g, m in zip(got, models):
        try:
            want = lyapunov_solve(m)
        except NumericalError as exc:
            assert type(g) is type(exc)
            assert str(g) == str(exc)
            kinds[type(exc).__name__] += 1
            continue
        assert isinstance(g, np.ndarray), g
        assert np.array_equal(g, want) and same_bits(g, want)
        assert same_bits(g, alone(m))
        kinds["solved"] += 1
    return kinds


def alone(m):
    """A model's covariance, or error, solved as a stack of one."""
    return entanglement._lyapunov_stack(m.A[None], m.D[None])[0]


def sweep_models(config, ring_mode):
    cfg = parse_config(str(CONFIG_DIR / config))
    return [m for m in solve_grid(cfg, list(np.linspace(0.05, 1.0, 200)),
                                  ring_mode=ring_mode)
            if not isinstance(m, LevringError)]


def needs_refinement():
    """A weakly damped random model whose first solve misses the target."""
    rng = np.random.default_rng(1)
    for _ in range(22):
        m = random_model(rng, stable=True, gamma_range=(1e-9, 1e-6))
    return m


def first_residual(m):
    """The residual of a model's symmetrised first solve, unrefined."""
    V = np.linalg.solve(_kron_sum(m.A), -m.D.reshape(-1)).reshape(4, 4)
    return lyapunov_residual(m, 0.5 * (V + V.T))


def rescaled(m, scale):
    """m with A and D scaled by a power of two: the system in another
    unit of time, whose every solve rounds as m's does."""
    return dataclasses.replace(m, A=m.A * scale, D=m.D * scale)


def stacked_residuals(models):
    """(first solves, their `_residuals`) of a batch of stable models."""
    A = np.array([m.A for m in models])
    D = np.array([m.D for m in models])
    V = np.linalg.solve(_kron_sum(A), -D.reshape(-1, 16, 1)).reshape(-1, 4, 4)
    V = 0.5 * (V + V.swapaxes(-1, -2))
    return V, entanglement._residuals(A, D, V)


class TestLyapunovBatch:
    def test_kron_sum_is_the_kronecker_sum(self):
        eye = np.eye(4)
        models = sweep_models("fig2.cfg", "resonant")
        rng = np.random.default_rng(5)
        mats = [m.A for m in models] + list(rng.standard_normal((20, 4, 4)))
        for A, M in zip(mats, _kron_sum(np.array(mats))):
            want = np.kron(eye, A) + np.kron(A, eye)
            assert same_bits(M, want)
            assert same_bits(_kron_sum(A), want)

    @pytest.mark.parametrize("config, ring_mode, solved", [
        ("fig1.cfg", "fixed_charge", 180), ("fig1.cfg", "resonant", 184),
        ("fig2.cfg", "fixed_charge", 42), ("fig2.cfg", "resonant", 184)])
    def test_sweep_models_equal_point_path(self, config, ring_mode, solved):
        kinds = assert_same_covariances(sweep_models(config, ring_mode))
        assert kinds == {"solved": solved}

    def test_random_and_refined_models_equal_point_path(self):
        m = needs_refinement()
        assert first_residual(m) >= 1e-10
        rng = np.random.default_rng(17)
        models = [random_model(rng, stable=True) for _ in range(30)]
        models.insert(7, m)
        models.insert(3, random_model(rng, stable=False))
        kinds = assert_same_covariances(models)
        assert kinds == {"solved": 31, "UnstableModel": 1}

    def test_singular_system_takes_the_point_path(self):
        models = sweep_models("fig2.cfg", "resonant")[:10]
        singular = dataclasses.replace(models[4], A=np.zeros((4, 4)))
        assert singular.stable
        with pytest.raises(SingularSystem, match="degenerated"):
            lyapunov_solve(singular)
        kinds = assert_same_covariances(models[:4] + [singular] + models[4:])
        assert kinds == {"solved": 10, "SingularSystem": 1}

    def test_empty_batch(self):
        assert lyapunov_solves([]) == []

    def test_stack_refines_a_miss_and_solves_a_singular_stack_alone(
            self, monkeypatch):
        # the stack core the sweep calls: a row that misses the target
        # takes `_refined`; a stack with a singular system is solved
        # system by system, each as a stack of one, the singular one an
        # error, every other one with the bits of the point path
        miss = needs_refinement()
        rng = np.random.default_rng(31)
        models = [random_model(rng, stable=True) for _ in range(4)]
        models.insert(2, miss)
        A = np.array([m.A for m in models])
        D = np.array([m.D for m in models])
        calls = collections.Counter()

        def spy(name):
            original = getattr(entanglement, name)

            def counted(A_b, *args):
                calls[name, A_b.tobytes()] += 1
                return original(A_b, *args)
            monkeypatch.setattr(entanglement, name, counted)
        spy("_refined")
        spy("_lyapunov_stack")
        got = entanglement._lyapunov_stack(A, D)
        assert calls == {("_refined", miss.A.tobytes()): 1,
                         ("_lyapunov_stack", A.tobytes()): 1}
        assert (lyapunov_residual(miss, got[2])
                < entanglement.LYAPUNOV_RESIDUAL_TOL)
        for g, m in zip(got, models):
            assert same_bits(g, lyapunov_solve(m))
        calls.clear()
        A[3] = 0.0
        systems = entanglement._lyapunov_stack(A, D)
        assert calls == {("_refined", miss.A.tobytes()): 1,
                         ("_lyapunov_stack", A.tobytes()): 1,
                         **{("_lyapunov_stack", A[i:i + 1].tobytes()): 1
                            for i in range(5)}}
        assert type(systems[3]) is SingularSystem
        assert str(systems[3]) == ("Lyapunov system degenerated: "
                                   "Singular matrix")
        for i in (0, 1, 2, 4):
            assert same_bits(systems[i], got[i])

    @pytest.mark.parametrize("config, ring_mode", [
        ("fig1.cfg", "fixed_charge"), ("fig1.cfg", "resonant"),
        ("fig2.cfg", "fixed_charge"), ("fig2.cfg", "resonant")])
    def test_stacked_residuals_equal_point_residuals(self, config,
                                                     ring_mode):
        models = [m for m in sweep_models(config, ring_mode) if m.stable]
        V, got = stacked_residuals(models)
        want = [lyapunov_residual(m, V_m) for m, V_m in zip(models, V)]
        assert [r.hex() for r in got.tolist()] == [r.hex() for r in want]

    def test_stacked_residuals_on_random_models(self):
        rng = np.random.default_rng(23)
        models = ([random_model(rng, stable=True) for _ in range(300)]
                  + [random_model(rng, stable=True, gamma_range=(1e-9, 1e-6))
                     for _ in range(100)] + [needs_refinement()])
        V, got = stacked_residuals(models)
        want = [lyapunov_residual(m, V_m) for m, V_m in zip(models, V)]
        assert [r.hex() for r in got.tolist()] == [r.hex() for r in want]
        assert got[-1] >= entanglement.LYAPUNOV_RESIDUAL_TOL

    def test_only_the_rows_that_miss_are_refined(self, monkeypatch):
        m = needs_refinement()
        misses = [m, rescaled(m, 2.0 ** -4), rescaled(m, 2.0 ** 6)]
        for miss in misses:
            assert first_residual(miss) >= entanglement.LYAPUNOV_RESIDUAL_TOL
        rng = np.random.default_rng(29)
        models = [random_model(rng, stable=True) for _ in range(12)]
        for at, miss in zip((2, 7, 11), misses):
            models.insert(at, miss)
        refined, calls = entanglement._refined, []

        def spy(A, D, M, V, resid):
            calls.append(A)
            return refined(A, D, M, V, resid)

        monkeypatch.setattr(entanglement, "_refined", spy)
        got = lyapunov_solves(models)
        monkeypatch.undo()
        assert [A.tobytes() for A in calls] == [m.A.tobytes() for m in misses]
        for g, model in zip(got, models):
            assert same_bits(g, alone(model))

    def test_one_model_that_meets_the_target_is_not_refined(self,
                                                            monkeypatch):
        m = random_model(np.random.default_rng(3), stable=True)
        calls = []
        monkeypatch.setattr(entanglement, "_refined",
                            lambda *args: calls.append(args))
        V = lyapunov_solve(m)
        assert calls == []
        assert lyapunov_residual(m, V) < entanglement.LYAPUNOV_RESIDUAL_TOL

    def test_every_batch_takes_one_stacked_solve(self, monkeypatch):
        # one stable model, as two, takes one stacked solve first; only a
        # refinement solves on its own
        solve, ranks = np.linalg.solve, []

        def counting(M, b):
            ranks.append(np.ndim(M))
            return solve(M, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        rng = np.random.default_rng(3)
        unstable = random_model(rng, stable=False)
        stable = [random_model(rng, stable=True) for _ in range(2)]
        got = lyapunov_solves([unstable, stable[0]])
        assert isinstance(got[0], UnstableModel) and got[1].shape == (4, 4)
        assert ranks[0] == 3 and ranks.count(3) == 1
        ranks.clear()
        lyapunov_solves(stable)
        assert ranks[0] == 3 and ranks.count(3) == 1


class TestBlockDets:
    @pytest.mark.parametrize("ring_mode, stable", [
        ("fixed_charge", 42), ("resonant", 184)])
    def test_stacked_dets_equal_per_row_calls(self, ring_mode, stable):
        # a sweep's stack against one det call per block of one row
        Vs = np.array([lyapunov_solve(m)
                       for m in sweep_models("fig2.cfg", ring_mode)
                       if m.stable])
        assert len(Vs) == stable
        for V, got in zip(Vs, entanglement._block_dets(Vs)):
            want = np.array([np.linalg.det(V[:2, :2]),
                             np.linalg.det(V[2:, 2:]),
                             np.linalg.det(V[:2, 2:]), np.linalg.det(V)])
            assert same_bits(got, want)
            assert same_bits(entanglement._block_dets(V), want)
