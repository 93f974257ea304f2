"""Steady-state solver, resonance matching and the mean-field oracle."""
import collections
import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest

import levring
import levring.cli
from levring import dynamics, steady_state
from levring.cli import parse_config
from levring.constants import CODATA2018
from levring.dynamics import build_model
from levring.errors import (AllRootsUnstable, LevringError,
                            NoResonantSolution, NoRootInInterval,
                            NotConverged, NumericalError, UnstableTrap)
from levring.model import delta0_from_config, derive_constants
from levring.pipeline import ring_field_value, solve_point
from levring.steady_state import (BISECT_REL_TOL, N_SCAN, N_SCAN_RESONANT,
                                  _bisect, _scan_cells, cavity_steady_field,
                                  force_balance,
                                  integrate_mean_field, mechanical_frequency,
                                  operating_point_at, residual_scale,
                                  scan_roots, solve_model, solve_models,
                                  solve_resonant_models,
                                  solve_resonant_ring_charge, solve_xs,
                                  steady_amplitude)

from conftest import CONFIG_DIR, reference_config

C = CODATA2018


def rel(a, b):
    return abs(a - b) / abs(b)


def reference_scan_roots(derived, delta0, c0):
    """Per-index scan loop: the reference for the shared grid finder."""
    half = np.pi / (4.0 * derived.k) * (1.0 - 1e-9)
    xs = np.linspace(-half, half, N_SCAN)
    fs = force_balance(xs, derived, delta0, c0)
    tol_x = BISECT_REL_TOL * (2.0 * half)

    def fun(x):
        return float(force_balance(x, derived, delta0, c0))

    roots = []
    for i in range(N_SCAN - 1):
        if fs[i] == 0.0:
            roots.append(float(xs[i]))
        elif fs[i] * fs[i + 1] < 0.0:
            roots.append(_bisect(fun, float(xs[i]), float(xs[i + 1]),
                                 float(fs[i]), tol_x))
    if fs[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def reference_resonant_root(derived, delta0, c0):
    """Per-point resonance scan from x = 0 outward, or None without a root."""
    k, g, E, kap, m = (derived.k, derived.g, derived.E_drive,
                       derived.kappa, derived.mass)

    def mismatch(x):
        delta = delta0 + g * np.cos(k * x) ** 2
        lhs = (8.0 * C.hbar * g * k ** 2 * E ** 2 * np.cos(2.0 * k * x)
               / (kap ** 2 + 4.0 * delta * delta))
        return lhs - m * delta * delta

    half = np.pi / (4.0 * k) * (1.0 - 1e-9)
    sign = -1.0 if c0 > 0.0 else 1.0
    xs = np.linspace(0.0, sign * half, N_SCAN_RESONANT)
    fs = np.array([mismatch(x) for x in xs])
    tol_x = BISECT_REL_TOL * (2.0 * half)
    for i in range(N_SCAN_RESONANT - 1):
        if fs[i] * fs[i + 1] < 0.0:
            lo, hi = sorted((float(xs[i]), float(xs[i + 1])))
            return _bisect(lambda x: float(mismatch(x)), lo, hi,
                           float(mismatch(lo)), tol_x)
        if fs[i] == 0.0 and i > 0:
            return float(xs[i])
    return None


def stokes_side_cases():
    """40 seeded (derived, delta0, c0) draws with Delta(x) > 0 throughout."""
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(40):
        cfg = reference_config(
            ring_field=rng.uniform(0.05, 3.0) * 7.25e10,
            ring_offset_c0=rng.uniform(0.2, 2.0) * 1064e-9,
            detuning_over_kappa=rng.uniform(0.0, 1.5))
        derived = derive_constants(cfg)
        cases.append((derived, delta0_from_config(cfg, derived),
                      cfg.ring_offset_c0))
    return cases


def anti_stokes_two_root_case():
    """Strong coupling (100 nm sphere, 1 mm cavity) deep on the anti-Stokes
    side, where the balance has two roots."""
    cfg = reference_config(sphere_radius=100e-9, cavity_length=1e-3,
                           ring_field=5.6123e11, detuning_over_kappa=0.0)
    derived = derive_constants(cfg)
    return derived, -1.7705 * derived.g, cfg.ring_offset_c0


@pytest.fixture(scope="module")
def fig1():
    cfg = reference_config()
    derived = derive_constants(cfg)
    delta0 = delta0_from_config(cfg, derived)
    return cfg, derived, delta0


class TestSteadyAmplitude:
    def test_resonant_limit(self, fig1):
        _, derived, _ = fig1
        assert rel(steady_amplitude(derived, 0.0),
                   2.0 * derived.E_drive / derived.kappa) < 1e-14

    def test_reference_point(self, fig1):
        # 2E / sqrt(4 (0.8 kappa)^2 + kappa^2), hand-evaluated
        _, derived, _ = fig1
        assert rel(steady_amplitude(derived, 0.8 * derived.kappa),
                   79937.7935765) < 1e-9

    def test_monotone_in_detuning_magnitude(self, fig1):
        _, derived, _ = fig1
        grid = np.linspace(0.0, 3.0, 40) * derived.kappa
        vals = [steady_amplitude(derived, d) for d in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMechanicalFrequency:
    def test_reference_point(self, fig1):
        _, derived, _ = fig1
        assert rel(mechanical_frequency(derived, 79937.7935765, 0.0),
                   1034682.89021) < 1e-9

    def test_zero_amplitude(self, fig1):
        _, derived, _ = fig1
        assert mechanical_frequency(derived, 0.0, 0.0) == 0.0
        dead = dataclasses.replace(derived, E_drive=0.0)
        with pytest.raises(UnstableTrap):
            operating_point_at(dead, 0.0, 0.0, 0.0)

    def test_quarter_wave_edge(self, fig1):
        _, derived, _ = fig1
        edge = np.pi / (4.0 * derived.k)
        assert mechanical_frequency(derived, 8e4, edge) < 1.0

    def test_negative_curvature_rejected(self, fig1):
        _, derived, _ = fig1
        with pytest.raises(UnstableTrap):
            mechanical_frequency(derived, 8e4, 0.3 * 2 * np.pi / derived.k)


class TestSolveXs:
    def test_fig1_root(self, fig1):
        cfg, derived, delta0 = fig1
        op = solve_xs(derived, delta0, cfg.ring_offset_c0)
        lam = cfg.wavelength
        assert op.x_s < 0.0
        assert abs(op.x_s) < np.pi / (4.0 * derived.k)
        assert abs(op.residual) < 1e-12 * residual_scale(derived,
                                                         cfg.ring_offset_c0)

    def test_fig1_against_dense_scan(self, fig1):
        # brute-force localisation on a 40x denser grid
        cfg, derived, delta0 = fig1
        op = solve_xs(derived, delta0, cfg.ring_offset_c0)
        half = np.pi / (4.0 * derived.k) * (1 - 1e-9)
        xs = np.linspace(-half, half, 160001)
        fs = force_balance(xs, derived, delta0, cfg.ring_offset_c0)
        idx = np.where(np.diff(np.sign(fs)) != 0)[0]
        assert len(idx) == 1
        assert abs(xs[idx[0]] - op.x_s) < 2 * (2 * half) / 160000

    def test_closure_identities(self, fig1):
        cfg, derived, delta0 = fig1
        op = solve_xs(derived, delta0, cfg.ring_offset_c0)
        delta = delta0 + derived.g * np.cos(derived.k * op.x_s) ** 2
        assert rel(op.delta_eff, delta) < 1e-12
        assert rel(op.a_s, steady_amplitude(derived, delta)) < 1e-12
        assert rel(op.omega_m,
                   mechanical_frequency(derived, op.a_s, op.x_s)) < 1e-12
        assert rel(op.Omega_m, op.omega_m
                   + derived.A_q / (derived.mass * op.omega_m)) < 1e-12
        G = (np.sqrt(2 * C.hbar / (derived.mass * op.omega_m)) * derived.k
             * derived.g * op.a_s * np.sin(2 * derived.k * op.x_s))
        assert rel(op.G, G) < 1e-12

    def test_no_charge_decouples(self, fig1):
        cfg, _, delta0 = fig1
        derived = derive_constants(reference_config(mcp_epsilon=0.0))
        op = solve_xs(derived, delta0, cfg.ring_offset_c0)
        assert op.x_s == 0.0
        assert op.G == 0.0

    def test_zero_offset_decouples(self, fig1):
        _, derived, delta0 = fig1
        op = solve_xs(derived, delta0, 0.0)
        assert op.x_s == 0.0
        assert op.G == 0.0

    def test_sign_structure(self):
        # C0 > 0, q > 0, Q > 0 pushes the rest point to negative x
        rng = np.random.default_rng(11)
        for _ in range(12):
            cfg = reference_config(
                ring_field=rng.uniform(0.05, 0.9) * 7.25e10,
                ring_offset_c0=rng.uniform(0.3, 2.0) * 1064e-9,
                detuning_over_kappa=rng.uniform(0.2, 1.2))
            derived = derive_constants(cfg)
            delta0 = delta0_from_config(cfg, derived)
            try:
                op = solve_xs(derived, delta0, cfg.ring_offset_c0)
            except NoRootInInterval:
                continue
            assert op.x_s < 0.0

    def test_no_root_raises(self):
        # strong ring at moderate detuning: |sin| > 1 would be needed
        cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3)
        derived = derive_constants(cfg)
        delta0 = delta0_from_config(cfg, derived)
        with pytest.raises(NoRootInInterval):
            solve_xs(derived, delta0, cfg.ring_offset_c0)

    def test_scan_roots_returns_sorted(self, fig1):
        cfg, derived, delta0 = fig1
        roots = scan_roots(derived, delta0, cfg.ring_offset_c0)
        assert roots == sorted(roots)
        assert len(roots) == 1

    def test_stokes_side_root_is_unique(self):
        # for Delta(x) > 0 everywhere both force terms are strictly
        # increasing on the trap interval, so at most one root exists
        for derived, delta0, c0 in stokes_side_cases():
            assert len(scan_roots(derived, delta0, c0)) <= 1

    def test_multi_root_anti_stokes_case(self):
        # the two roots both fail the stability screen
        derived, delta0, c0 = anti_stokes_two_root_case()
        roots = scan_roots(derived, delta0, c0)
        assert len(roots) == 2
        with pytest.raises(AllRootsUnstable):
            solve_xs(derived, delta0, c0)
        # both roots close into operating points; neither model is Hurwitz
        near, far = (operating_point_at(derived, delta0, c0, x)
                     for x in sorted(roots, key=abs))
        assert abs(near.x_s) < abs(far.x_s)
        assert {near.x_s, far.x_s} == set(roots)
        for op in (near, far):
            assert not build_model(
                op, derived.with_damping(op.omega_m)).stable

    def test_scan_roots_match_per_index_loop(self):
        cases = stokes_side_cases() + [anti_stokes_two_root_case()]
        found = 0
        for derived, delta0, c0 in cases:
            roots = scan_roots(derived, delta0, c0)
            assert roots == reference_scan_roots(derived, delta0, c0)
            found += len(roots)
        assert found >= 10

    def test_bisection_functions_equal_numpy_point_forms(self):
        # the bisections run on Python floats; at seeded x across the trap
        # interval they give the bits of the numpy-scalar point forms
        rng = np.random.default_rng(47)
        cases = stokes_side_cases() + [anti_stokes_two_root_case()]
        for name in ("fig1.cfg", "fig2.cfg"):
            cfg = parse_config(str(CONFIG_DIR / name))
            derived = derive_constants(cfg)
            cases.append((derived, delta0_from_config(cfg, derived),
                          cfg.ring_offset_c0))
        for derived, delta0, c0 in cases:
            k, half = derived.k, np.pi / (4.0 * derived.k)
            balance = steady_state._balance(derived)
            mismatch = steady_state._mismatch(derived)
            for x in rng.uniform(-half, half, 400).tolist():
                want = float(force_balance(x, derived, delta0, c0))
                got = balance(x, math.cos(k * x) ** 2, math.sin(2.0 * k * x),
                              delta0, c0, derived.A_q)
                assert got.hex() == want.hex()
                want = float(mismatch(np.cos(k * x) ** 2,
                                      np.cos(2.0 * k * x), delta0))
                got = mismatch(math.cos(k * x) ** 2, math.cos(2.0 * k * x),
                               delta0)
                assert got.hex() == want.hex()

    def test_sign_tests_survive_overflow_and_underflow(self):
        # the hit rule and both bisections compare signs: scaled by 1e-300
        # or 1e300, where products of neighbouring values underflow to
        # zero or overflow, a line and its negation give the hits and the
        # root bits they give at scale 1
        xs, sign = np.linspace(0.0, 1.0, 11), np.array([1.0, -1.0])
        results = []
        for scale in (1e-300, 1.0, 1e300):
            def line(x, idx=0, scale=scale):
                return sign[idx] * scale * (x - 0.37)

            cell, i, _, zero = steady_state._scan_hits(
                lambda rows: line(xs, np.arange(2)[rows, None]), 2)
            point = steady_state._bisect(line, 0.3, 0.4, line(0.3), 1e-15)
            lock_step = steady_state._bisect_all(
                line, np.full(2, 0.3), np.full(2, 0.4),
                line(0.3, np.arange(2)), 1e-15)
            results.append((cell.tolist(), i.tolist(), zero.tolist(),
                            point.hex(), [x.hex() for x in lock_step]))
        assert results[0][:3] == ([0, 1], [3, 3], [False, False])
        assert results[1][4] == [results[1][3]] * 2
        assert results[0] == results[1] == results[2]

    def test_scan_roots_mirror_in_c0(self):
        # f(-x; -C0) = -f(x; C0): the roots are negated and reversed, up to
        # the bisection tolerance (the +-half grid is not exactly symmetric)
        cases = [anti_stokes_two_root_case()]
        for over_kappa in (0.2, 0.3, 0.45, 0.6):
            cfg = reference_config(ring_field=2.5e11,
                                   detuning_over_kappa=over_kappa)
            derived = derive_constants(cfg)
            cases.append((derived, delta0_from_config(cfg, derived),
                          cfg.ring_offset_c0))
        found = 0
        for derived, delta0, c0 in cases:
            width = 2.0 * np.pi / (4.0 * derived.k)
            plus = scan_roots(derived, delta0, c0)
            minus = scan_roots(derived, delta0, -c0)
            assert len(minus) == len(plus)
            for a, b in zip(plus, reversed(minus)):
                assert abs(a + b) <= 2.0 * BISECT_REL_TOL * width
            found += len(plus)
        assert found == 3


class TestResonantRing:
    def test_residuals_and_resonance(self):
        cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3)
        derived = derive_constants(cfg)
        delta0 = delta0_from_config(cfg, derived)
        res = solve_resonant_ring_charge(derived, delta0, cfg.ring_offset_c0)
        op = res.op
        assert res.stable
        # resonance condition in both forms
        assert rel(op.omega_m, op.delta_eff) < 1e-10
        hbar = C.hbar
        lhs = (8 * hbar * derived.g * derived.k ** 2 * derived.E_drive ** 2
               * np.cos(2 * derived.k * op.x_s)
               / (derived.kappa ** 2 + 4 * op.delta_eff ** 2))
        assert rel(lhs, derived.mass * op.delta_eff ** 2) < 1e-10
        # force balance with the solved charge
        resolved = dataclasses.replace(derived, A_q=op.A_q)
        f = force_balance(op.x_s, resolved, delta0, cfg.ring_offset_c0)
        assert abs(f) < 1e-10 * residual_scale(resolved, cfg.ring_offset_c0)
        charge = res.derived.ring_charge
        assert 2.0 < charge < 4.0
        assert res.derived == dataclasses.replace(
            derived, A_q=op.A_q, ring_charge=charge).with_damping(op.omega_m)
        assert ring_field_value(charge, cfg.ring_radius,
                                cfg.ring_offset_c0, op.x_s) > 0.0

    def test_charge_scales_inverse_with_bound_charge(self):
        cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3)
        derived = derive_constants(cfg)
        delta0 = delta0_from_config(cfg, derived)
        c0 = cfg.ring_offset_c0
        halved = dataclasses.replace(derived, q_mcp=derived.q_mcp / 2)
        full = solve_resonant_ring_charge(derived, delta0, c0)
        half = solve_resonant_ring_charge(halved, delta0, c0)
        assert rel(half.derived.ring_charge,
                   2 * full.derived.ring_charge) < 1e-9
        assert half.op.x_s == full.op.x_s

    def test_root_matches_per_point_loop(self):
        rng = np.random.default_rng(17)
        solved = 0
        for over_kappa in rng.uniform(0.05, 1.0, 16):
            cfg = reference_config(ring_field=2.5e11,
                                   detuning_over_kappa=over_kappa)
            derived = derive_constants(cfg)
            delta0 = delta0_from_config(cfg, derived)
            c0 = cfg.ring_offset_c0
            expected = reference_resonant_root(derived, delta0, c0)
            if expected is None:
                with pytest.raises(NoResonantSolution, match="no root"):
                    solve_resonant_ring_charge(derived, delta0, c0)
                continue
            res = solve_resonant_ring_charge(derived, delta0, c0)
            assert res.op.x_s == expected
            solved += 1
        assert solved >= 12

    @pytest.mark.parametrize("over_kappa", [0.2, 0.3, 0.45, 0.6])
    def test_negative_offset_mirrors_the_scan(self, over_kappa):
        # C0 < 0 scans the ascending half-interval; the resonance condition
        # is even in x, so the root and the charge mirror exactly
        cfg = reference_config(ring_field=2.5e11,
                               detuning_over_kappa=over_kappa)
        derived = derive_constants(cfg)
        delta0 = delta0_from_config(cfg, derived)
        c0 = cfg.ring_offset_c0
        plus = solve_resonant_ring_charge(derived, delta0, c0)
        minus = solve_resonant_ring_charge(derived, delta0, -c0)
        assert plus.op.x_s < 0.0
        assert minus.op.x_s == -plus.op.x_s
        assert minus.derived.ring_charge == plus.derived.ring_charge

    def test_zero_offset_rejected(self):
        cfg = reference_config(ring_field=2.5e11)
        derived = derive_constants(cfg)
        with pytest.raises(NoResonantSolution):
            solve_resonant_ring_charge(derived, 0.3 * derived.kappa, 0.0)

    def test_negative_ring_charge_rejected(self):
        # at C0 = 20 nm the resonant point lies beyond -C0, where the
        # force balance needs A_q < 0; a one-cell and a two-cell grid say so
        cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3,
                               ring_offset_c0=20e-9)
        derived = derive_constants(cfg)
        cell = (derived, delta0_from_config(cfg, derived), cfg.ring_offset_c0)
        message = "force balance at the resonant point needs a negative ring"
        with pytest.raises(NoResonantSolution, match=message):
            solve_resonant_ring_charge(*cell)
        [error, _] = solve_resonant_models([cell, cell])
        assert isinstance(error, NoResonantSolution)
        assert str(error).startswith(message)


def rebuilt_model(cfg, ring_mode):
    """Reference: a second model built after the solve from fresh constants,
    with the resonant A_q and ring charge put in and the damping completed
    at op.omega_m."""
    derived = derive_constants(cfg)
    delta0 = delta0_from_config(cfg, derived)
    c0 = cfg.ring_offset_c0
    if ring_mode == "resonant":
        solved = solve_resonant_ring_charge(derived, delta0, c0)
        derived = dataclasses.replace(
            derived, A_q=solved.op.A_q,
            ring_charge=solved.derived.ring_charge)
        op = solved.op
    else:
        op = solve_xs(derived, delta0, c0)
    return build_model(op, derived.with_damping(op.omega_m))


def criterion_6_configs(n):
    """n seeded draws from the criterion-6 box of the acceptance suite."""
    rng = np.random.default_rng(303)
    return [reference_config(
        ring_field=rng.uniform(0.05, 0.6) * 7.25e10,
        ring_offset_c0=rng.uniform(0.3, 2.0) * 1064e-9,
        detuning_over_kappa=rng.uniform(0.2, 1.2)) for _ in range(n)]


class TestSolveModel:
    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_point_model_equals_rebuilt_model(self, ring_mode):
        cfgs = criterion_6_configs(24)
        if ring_mode == "fixed_charge":
            cfgs.append(parse_config(str(CONFIG_DIR / "decoupled.cfg")))
        solved = 0
        for cfg in cfgs:
            try:
                model = solve_point(cfg, ring_mode=ring_mode).model
            except LevringError:
                continue
            want = rebuilt_model(cfg, ring_mode)
            assert model.derived == want.derived
            assert model.op == want.op
            assert np.array_equal(model.A, want.A)
            assert np.array_equal(model.D, want.D)
            got, ref = model.verdict, want.verdict
            for field in ("s1", "s2", "rh_stable", "rh_marginal",
                          "max_real_part", "eig_stable"):
                assert getattr(got, field) == getattr(ref, field), field
            assert np.array_equal(got.eigenvalues, ref.eigenvalues)
            solved += 1
        assert solved >= 10

    def test_single_root_point_builds_one_model(self, fig1, monkeypatch):
        cfg, derived, delta0 = fig1
        assert len(scan_roots(derived, delta0, cfg.ring_offset_c0)) == 1
        calls = []
        original = dynamics.build_model

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dynamics, "build_model", counted)
        sol = solve_point(cfg)
        assert sol.model.stable
        assert len(calls) == 1

    def test_solve_xs_is_the_model_operating_point(self, fig1):
        cfg, derived, delta0 = fig1
        model = solve_model(derived, delta0, cfg.ring_offset_c0)
        assert solve_xs(derived, delta0, cfg.ring_offset_c0) == model.op
        assert model.derived == derived.with_damping(model.op.omega_m)

    def test_public_names_resolve(self):
        assert [name for name in levring.__all__
                if not hasattr(levring, name)] == []


def assert_same_outcome(got, cell, solve=solve_model):
    """The grid solver's entry for a cell equals what the point path
    `solve` gives."""
    try:
        want = solve(*cell)
    except NumericalError as exc:
        assert type(got) is type(exc)
        assert str(got) == str(exc)
        return type(exc).__name__
    assert isinstance(got, dynamics.StateSpaceModel), got
    assert got.derived == want.derived
    assert got.op == want.op
    assert np.array_equal(got.A, want.A)
    assert np.array_equal(got.D, want.D)
    for field in ("s1", "s2", "rh_stable", "rh_marginal", "max_real_part",
                  "eig_stable"):
        assert getattr(got.verdict, field) == getattr(want.verdict, field)
    assert np.array_equal(got.verdict.eigenvalues, want.verdict.eigenvalues)
    return "stable" if want.stable else "unstable"


def criterion_6_grid():
    """Cells of four seeded criterion-6 configs over detuning and +-C0."""
    cells = []
    for cfg in criterion_6_configs(4):
        derived = derive_constants(cfg)
        for over_kappa in np.linspace(-1.0, 1.5, 11):
            for c0 in (cfg.ring_offset_c0, -cfg.ring_offset_c0, 0.0):
                cells.append((derived, over_kappa * derived.kappa, c0))
    return cells


def anti_stokes_grid():
    """The two-root anti-Stokes case and its neighbours in delta0 and C0."""
    derived, delta0, c0 = anti_stokes_two_root_case()
    return [(derived, delta0 * scale, sign * c0)
            for scale in (1.0, 0.999, 1.001, 0.9) for sign in (1.0, -1.0)]


class TestSolveModels:
    @pytest.mark.parametrize("param2", ["c0_over_lambda", "charge_scale"])
    def test_shipped_map_cells_equal_point_path(self, monkeypatch, param2):
        # every cell the CLI hands the grid solver on a shipped map
        calls = []

        def recording(cells):
            calls.append((cells, list(solve_models(cells))))
            return iter(calls[-1][1])

        monkeypatch.setattr(levring.cli, "solve_models", recording)
        with contextlib.redirect_stdout(io.StringIO()):
            assert levring.cli.main(
                ["stability-map", "--config", str(CONFIG_DIR / "fig1.cfg"),
                 "--param2", param2]) == 0
        (cells, got), = calls
        assert len(cells) == 41 * 21
        kinds = collections.Counter(
            assert_same_outcome(g, cell) for g, cell in zip(got, cells))
        assert kinds["stable"] > 100 and kinds["NoRootInInterval"] > 10

    def test_seeded_grids_equal_point_path(self):
        kinds = collections.Counter()
        for cells in (criterion_6_grid(), anti_stokes_grid()):
            got = list(solve_models(cells))
            assert len(got) == len(cells)
            kinds.update(assert_same_outcome(g, cell)
                         for g, cell in zip(got, cells))
        assert kinds["stable"] >= 20
        assert kinds["AllRootsUnstable"] >= 8

    def test_scan_matches_scan_roots(self):
        for cases in (stokes_side_cases(), anti_stokes_grid()):
            derived = cases[0][0]
            delta0, c0, a_q = (np.array(v) for v in zip(
                *[(d0, c0, d.A_q) for d, d0, c0 in cases]))
            roots = _scan_cells(derived, delta0, c0, a_q)
            assert roots == [scan_roots(*case) for case in cases]
        assert [len(r) for r in roots[:2]] == [2, 2]

    def test_decoupled_cells_are_not_scanned(self, monkeypatch):
        derived = derive_constants(
            parse_config(str(CONFIG_DIR / "decoupled.cfg")))
        monkeypatch.setattr(steady_state, "_scan_cells", None)
        cells = [(derived, d0 * derived.kappa, c0)
                 for d0 in (-0.5, 0.0, 0.8) for c0 in (0.0, 1e-6, -1e-6)]
        got = list(solve_models(cells))
        assert len(got) == len(cells)
        for g, cell in zip(got, cells):
            assert assert_same_outcome(g, cell) in ("stable", "unstable")
        assert list(solve_models([])) == []

    def test_capped_eigenvalue_iteration_fails_alike(self, fig1,
                                                     monkeypatch):
        # one Durand-Kerner step leaves the fig1 quartic far from its
        # roots: the cap check fails a one-cell and a two-cell grid alike
        cfg, derived, delta0 = fig1
        monkeypatch.setattr(dynamics, "_DK_MAX_ITER", 1)
        cell = (derived, delta0, cfg.ring_offset_c0)
        got, _ = solve_models([cell, cell])
        assert assert_same_outcome(got, cell) == "IterationDiverged"
        assert "eigenvalue iteration residual" in str(got)

    def test_residual_bound_ends_candidates_alike(self, fig1, monkeypatch):
        cfg, derived, delta0 = fig1
        monkeypatch.setattr(steady_state, "RESIDUAL_REL_TOL", 0.0)
        cell = (derived, delta0, cfg.ring_offset_c0)
        got, _ = solve_models([cell, cell])
        assert assert_same_outcome(got, cell) == "NumericalError"
        assert "root refinement residual" in str(got)

    def test_cells_must_share_the_optics(self):
        cells = stokes_side_cases()[:2] + [anti_stokes_two_root_case()]
        with pytest.raises(ValueError, match="share"):
            solve_models(cells)


@pytest.mark.parametrize("solver, config", [
    (solve_models, "fig1.cfg"), (solve_resonant_models, "fig2.cfg")])
def test_cell_count_picks_the_kernels(monkeypatch, solver, config):
    # one cell bisects on Python floats and builds its models one at a
    # time; two cells bisect in lock step and build in one batch
    cfg = parse_config(str(CONFIG_DIR / config))
    derived = derive_constants(cfg)
    cell = (derived, delta0_from_config(cfg, derived), cfg.ring_offset_c0)
    kernels = ((steady_state, "_bisect_all"), (dynamics, "build_models"))
    calls = collections.Counter()

    def refused(*args):
        raise AssertionError("a batch kernel ran for one cell")

    with monkeypatch.context() as patched:
        for module, name in kernels:
            patched.setattr(module, name, refused)
        one, = solver([cell])
    assert one.stable

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)
        return call

    for module, name in kernels:
        monkeypatch.setattr(module, name,
                            counted(name, getattr(module, name)))
    two = list(solver([cell, cell]))
    assert calls["_bisect_all"] >= 1 and calls["build_models"] == 1
    assert two[0].op == two[1].op == one.op


def assert_same_resonant_outcomes(cells):
    got = list(solve_resonant_models(cells))
    assert len(got) == len(cells)
    return collections.Counter(
        assert_same_outcome(g, cell, solve_resonant_ring_charge)
        for g, cell in zip(got, cells))


class TestSolveResonantModels:
    def test_fig2_rows_equal_point_path(self):
        cfg = parse_config(str(CONFIG_DIR / "fig2.cfg"))
        derived = derive_constants(cfg)
        cells = [(derived, d0 * derived.kappa, cfg.ring_offset_c0)
                 for d0 in np.linspace(0.05, 1.0, 200)]
        kinds = assert_same_resonant_outcomes(cells)
        assert kinds == {"stable": 184, "NoResonantSolution": 16}

    def test_seeded_grids_equal_point_path(self):
        # criterion-6 configs over detuning with +-C0 and C0 = 0, and rows
        # without bound charge; the configs differ in their ring charge
        cells = criterion_6_grid()
        no_charge = derive_constants(reference_config(mcp_epsilon=0.0))
        cells += [(no_charge, d0 * no_charge.kappa, c0)
                  for d0 in (0.3, 0.8) for c0 in (1064e-9, -1064e-9, 0.0)]
        kinds = assert_same_resonant_outcomes(cells)
        assert kinds["stable"] >= 30
        assert kinds["NoResonantSolution"] >= 80
        messages = collections.Counter(
            str(g).split(" ")[0] for g in solve_resonant_models(cells)
            if isinstance(g, NoResonantSolution))
        assert messages["resonance"] >= 50      # no root; no C0 or charge
        assert messages["effective"] >= 20      # not on the stable sideband

    def test_each_sign_of_c0_alone(self):
        cells = [cell for cell in criterion_6_grid() if cell[2] < 0.0]
        assert assert_same_resonant_outcomes(cells)["stable"] >= 10
        assert list(solve_resonant_models([])) == []

    def test_one_half_grid_serves_both_signs_of_c0(self):
        # the mismatch, as evaluated, is even in x bit for bit, so both
        # signs of C0 scan the ascending half-grid and C0 > 0 negates the
        # root; the reference scans the descending grid for C0 > 0 itself
        cfgs = [parse_config(str(CONFIG_DIR / "fig2.cfg"))]
        cfgs += criterion_6_configs(2)
        mirrored = 0
        for cfg in cfgs:
            derived = derive_constants(cfg)
            k, delta0 = derived.k, np.linspace(0.05, 1.2, 20) * derived.kappa
            xs, _ = steady_state._scan_grid(derived, resonant=True)

            def mismatch(x):
                return steady_state._mismatch(derived)(
                    np.cos(k * x) ** 2, np.cos(2.0 * k * x), delta0[:, None])

            assert mismatch(-xs).tobytes() == mismatch(xs).tobytes()
            assert (steady_state._pow_cos2(k * -xs).tobytes()
                    == steady_state._pow_cos2(k * xs).tobytes())
            c0 = abs(cfg.ring_offset_c0)
            roots = steady_state._resonance_roots(derived, delta0)
            for d0, root in zip(delta0, roots):
                want = reference_resonant_root(derived, d0, c0)
                assert (root is None) == (want is None)
                if root is not None:
                    assert -root == want
            got = list(solve_resonant_models(
                [(derived, d0, sign * c0) for d0 in delta0
                 for sign in (1.0, -1.0)]))
            for plus, minus in zip(got[::2], got[1::2]):
                assert type(plus) is type(minus)
                if isinstance(plus, dynamics.StateSpaceModel):
                    assert minus.op.x_s == -plus.op.x_s
                    mirrored += 1
        assert mirrored >= 20

    def test_cells_must_share_the_constants(self):
        cells = criterion_6_grid()[:3]
        heavier = dataclasses.replace(cells[0][0], mass=2.0 * cells[0][0].mass)
        with pytest.raises(ValueError, match="share"):
            solve_resonant_models(cells + [(heavier,) + cells[0][1:]])


class TestMeanField:
    def test_decoupled_relaxes_to_antinode(self, fig1):
        cfg, _, delta0 = fig1
        derived = derive_constants(reference_config(mcp_epsilon=0.0))
        lam = cfg.wavelength
        mf = integrate_mean_field(
            derived, delta0, cfg.ring_offset_c0,
            initial_state=(lam / 20.0, 0.0, 0j),
            t_max=4000.0 / derived.kappa, gamma=0.15 * derived.kappa)
        assert abs(mf.x_bar) < 1e-6 * lam
        a_expect = steady_amplitude(derived, delta0 + derived.g)
        assert rel(abs(mf.a_bar), a_expect) < 1e-6

    def test_fig1_cross_check(self, fig1):
        # rest point is independent of gamma; boosted damping makes the
        # contraction observable on simulation timescales
        cfg, derived, delta0 = fig1
        op = solve_xs(derived, delta0, cfg.ring_offset_c0)
        lam = cfg.wavelength
        x0 = round(op.x_s * 1e9) / 1e9
        a0 = cavity_steady_field(derived, delta0, x0)
        mf = integrate_mean_field(
            derived, delta0, cfg.ring_offset_c0,
            initial_state=(x0, 0.0, a0), t_max=4000.0 / derived.kappa,
            gamma=0.15 * derived.kappa)
        assert abs(mf.x_bar - op.x_s) < 1e-4 * lam
        assert rel(abs(mf.a_bar), op.a_s) < 1e-4

    def test_one_site_fixes_the_detuning_sign(self, monkeypatch):
        # with the sign of Delta(x) flipped in `_detuning` alone, fig1's
        # root and the `steady-state --verify` relaxation still agree:
        # the mean-field kernel takes its detuning slope from there too
        cfg = parse_config(str(CONFIG_DIR / "fig1.cfg"))
        derived = derive_constants(cfg)
        delta0 = delta0_from_config(cfg, derived)
        c0 = cfg.ring_offset_c0
        monkeypatch.setattr(steady_state, "_detuning",
                            lambda d, delta0, cos2: delta0 - d.g * cos2)
        model = solve_model(derived, delta0, c0)
        op, derived = model.op, model.derived
        assert op.delta_eff == delta0 - derived.g * np.cos(
            derived.k * op.x_s) ** 2
        x0 = round(op.x_s * 1e9) / 1e9
        mf = integrate_mean_field(
            derived, delta0, c0,
            initial_state=(x0, 0.0, cavity_steady_field(derived, delta0, x0)),
            gamma=max(derived.gamma, 0.15 * derived.kappa))
        assert abs(mf.x_bar - op.x_s) < 1e-4 * cfg.wavelength

    def test_undamped_never_converges(self, fig1):
        cfg, derived, delta0 = fig1
        lam = cfg.wavelength
        with pytest.raises(NotConverged):
            integrate_mean_field(
                derived, delta0, cfg.ring_offset_c0,
                initial_state=(lam / 20.0, 0.0, 0j),
                t_max=600.0 / derived.kappa, gamma=0.0)

    def test_windows_recorded(self, fig1):
        cfg, derived, delta0 = fig1
        mf = integrate_mean_field(
            derived, delta0, cfg.ring_offset_c0,
            initial_state=(0.0, 0.0, cavity_steady_field(derived, delta0, 0.0)),
            t_max=4000.0 / derived.kappa, gamma=0.2 * derived.kappa)
        assert mf.window_times.size == mf.window_means.size
        assert np.all(np.diff(mf.window_times) > 0)
        assert mf.t_final == mf.window_times[-1]
