"""Steady-state solver, resonance matching and the mean-field oracle."""
import collections
import contextlib
import dataclasses
import functools
import io
import math
import re
import warnings

import numpy as np
import pytest

import levring
import levring.cli
from levring import dynamics, steady_state
from levring.cli import parse_config
from levring.constants import CODATA2018
from levring.dynamics import build_model
from levring.errors import (AllRootsUnstable, ConfigInvalid, LevringError,
                            NoResonantSolution, NoRootInInterval,
                            NotConverged, NumericalError, UnstableResonance,
                            UnstableTrap, error_cell, one)
from levring.model import delta0_from_config, derive_constants, ring_field
from levring.pipeline import solve_point
from levring.steady_state import (BISECT_REL_TOL, N_SCAN, N_SCAN_RESONANT,
                                  _bisect, _grid_roots, cavity_steady_field,
                                  force_balance,
                                  integrate_mean_field, mechanical_frequency,
                                  operating_point_at, residual_scale,
                                  scan_roots, solve_models,
                                  solve_resonant_models, solve_xs,
                                  steady_amplitude)

from conftest import CONFIG_DIR, reference_config, table_verdict

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

    def test_python_float_forms_equal_vectorised_forms(self):
        # `_balance` and `_mismatch` on Python floats, as the one-cell
        # bisection and `operating_point_at` evaluate them, give the bits
        # of the vectorised numpy forms at seeded x across the trap
        # interval, and so does the residual of the operating point; both
        # sides square cos(kx) by product
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
            xs = rng.uniform(-half, half, 400)
            cos = np.cos(k * xs)
            forces = force_balance(xs, derived, delta0, c0).tolist()
            mismatches = mismatch(xs, cos * cos, np.cos(2.0 * k * xs),
                                  (delta0,)).tolist()
            for x, force, mism in zip(xs.tolist(), forces, mismatches):
                c = math.cos(k * x)
                got = balance(x, c * c, math.sin(2.0 * k * x),
                              (delta0, c0, derived.A_q))
                assert got.hex() == force.hex()
                residual = operating_point_at(derived, delta0, c0, x).residual
                assert residual.hex() == force.hex()
                got = mismatch(x, c * c, math.cos(2.0 * k * x), (delta0,))
                assert got.hex() == mism.hex()

    def test_every_cos2_the_finders_compare_is_the_product(self):
        # the scan, the one-cell bisection and the lock step all receive
        # cos^2(kx) as the product c * c, which numpy's square of an array
        # of at least one dimension equals (numpy scalars and 0-d arrays
        # square with pow); 100 criterion-6 cells, alone and as one grid
        cells = [(d, delta0_from_config(cfg, d), cfg.ring_offset_c0)
                 for cfg in criterion_6_configs(100)
                 for d in [derive_constants(cfg)]]
        derived = cells[0][0]
        k = derived.k
        checked, differ = collections.Counter(), collections.Counter()

        def spied(fun, batched):
            def spy(x, cos2, trig, params):
                want = np.cos(k * np.atleast_1d(x)) ** 2
                lock_step = batched and np.ndim(params[0]) == 1
                stage = ("bisection" if np.ndim(x) == 0
                         else "lock step" if lock_step else "scan")
                checked[stage] += want.size
                differ[stage] += int(np.sum(np.atleast_1d(cos2) != want))
                return fun(x, cos2, trig, params)
            spy.bound = fun.bound
            return spy

        for resonant, fun, rows in (
                (False, steady_state._balance(derived),
                 [(d0, c0, d.A_q) for d, d0, c0 in cells]),
                (True, steady_state._mismatch(derived),
                 [(d0,) for _, d0, _ in cells])):
            params = tuple(np.array(rows).T)
            for c in range(len(rows)):
                _grid_roots(k, resonant, spied(fun, False),
                            tuple(p[c:c + 1] for p in params))
            _grid_roots(k, resonant, spied(fun, True), params)
        assert differ == collections.Counter()
        assert checked["bisection"] >= 3000 and checked["lock step"] >= 3000
        assert checked["scan"] >= 100 * (N_SCAN + N_SCAN_RESONANT)

    def test_sign_tests_survive_overflow_and_underflow(self):
        # the hit rule and both bisections compare signs: scaled by 1e-300
        # or 1e300, where products of neighbouring values underflow to
        # zero or overflow, a line and its negation give the hits and the
        # root bits they give at scale 1
        xs, sign = np.linspace(0.0, 1.0, 11), np.array([1.0, -1.0])
        tables = steady_state._two_pass_tables((xs, xs, xs), stride=5)
        results = []
        for scale in (1e-300, 1.0, 1e300):
            def line(x, idx=0, scale=scale):
                return sign[idx] * scale * (x - 0.37)

            def cells(x, cos2, trig, params):
                return line(x, params[0])
            cells.bound = lambda params, scale=scale: (
                np.full(2, scale), np.full(2, steady_state.SCAN_SLACK * scale))
            cell, i, _, zero = steady_state._scan_hits(cells, tables,
                                                       (np.arange(2),))
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
        res = one(solve_resonant_models(
            [(derived, delta0, cfg.ring_offset_c0)]))
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
        assert ring_field(op.x_s, charge, cfg.ring_radius,
                          cfg.ring_offset_c0) > 0.0

    def test_charge_with_zero_divisor_is_config_error(self):
        # C0 = -x_s puts the sphere in the ring plane, where the charge
        # divides by zero: nan, which the guard on Omega_m names, on the
        # one cell and on that cell of a grid
        cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3)
        derived = derive_constants(cfg)
        delta0 = delta0_from_config(cfg, derived)
        x_root = -one(solve_resonant_models(
            [(derived, delta0, cfg.ring_offset_c0)])).op.x_s
        cell = (derived, delta0, x_root)
        with pytest.raises(ConfigInvalid, match="Omega_m = nan"):
            one(solve_resonant_models([cell]))
        got = solve_resonant_models([(derived, delta0, cfg.ring_offset_c0),
                                     cell])
        assert got[0].stable
        assert type(got[1]) is ConfigInvalid
        assert "Omega_m = nan" in str(got[1])

    def test_plan_takes_the_first_root_off_the_grid_zero(self):
        # the one site of the resonance root rule: the grid zero x = 0 is
        # skipped, the next root taken and mirrored onto the side of -C0;
        # none left is NoResonantSolution.  The plan is that one candidate,
        # whose errors are the cell's (no residual bound)
        cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3)
        derived = derive_constants(cfg)
        cell = (derived, delta0_from_config(cfg, derived), cfg.ring_offset_c0)
        solved = one(solve_resonant_models([cell]))
        r = -solved.op.x_s
        for roots in ([0.0, r], [r], [r, 2.0 * r]):
            for c0, x_s in ((cell[2], -r), (-cell[2], r)):
                assert steady_state._resonant_plan(cell[1], c0, roots) == (
                    [x_s], None)
        message = f"resonance condition has no root at delta0 = {cell[1]:.6e}"
        for roots in ([0.0], []):
            with pytest.raises(NoResonantSolution) as info:
                steady_state._resonant_plan(cell[1], cell[2], roots)
            assert str(info.value) == message

    def test_charge_scales_inverse_with_bound_charge(self):
        cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3)
        derived = derive_constants(cfg)
        delta0 = delta0_from_config(cfg, derived)
        c0 = cfg.ring_offset_c0
        halved = dataclasses.replace(derived, q_mcp=derived.q_mcp / 2)
        full = one(solve_resonant_models([(derived, delta0, c0)]))
        half = one(solve_resonant_models([(halved, delta0, c0)]))
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
                    one(solve_resonant_models([(derived, delta0, c0)]))
                continue
            res = one(solve_resonant_models([(derived, delta0, c0)]))
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
        plus = one(solve_resonant_models([(derived, delta0, c0)]))
        minus = one(solve_resonant_models([(derived, delta0, -c0)]))
        assert plus.op.x_s < 0.0
        assert minus.op.x_s == -plus.op.x_s
        assert minus.derived.ring_charge == plus.derived.ring_charge

    def test_zero_offset_rejected(self):
        cfg = reference_config(ring_field=2.5e11)
        derived = derive_constants(cfg)
        with pytest.raises(NoResonantSolution):
            one(solve_resonant_models([(derived, 0.3 * derived.kappa, 0.0)]))

    def test_negative_ring_charge_rejected(self):
        # at C0 = 20 nm the resonant point lies beyond -C0, where the
        # force balance needs A_q < 0; a one-cell and a two-cell grid say so
        cfg = reference_config(ring_field=2.5e11, detuning_over_kappa=0.3,
                               ring_offset_c0=20e-9)
        derived = derive_constants(cfg)
        cell = (derived, delta0_from_config(cfg, derived), cfg.ring_offset_c0)
        message = "force balance at the resonant point needs a negative ring"
        with pytest.raises(NoResonantSolution, match=message):
            one(solve_resonant_models([cell]))
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
        solved = one(solve_resonant_models([(derived, delta0, c0)]))
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

    def test_unknown_ring_mode_rejected(self):
        with pytest.raises(ValueError, match="ring_mode must be one of"):
            solve_point(reference_config(), ring_mode="fixed")

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_numbers_leave_the_solver_as_python_floats(self, ring_mode):
        # criterion-6 draws from a numpy Generator, as levbench draws them,
        # have np.float64 fields; the solved point holds Python floats with
        # the bits of the same draw with float fields
        def numbers(cfg):
            try:
                solution = solve_point(cfg, ring_mode=ring_mode)
            except LevringError as exc:
                return repr(exc)
            return dataclasses.astuple(solution.op) + (
                solution.derived.ring_charge, solution.derived.A_q)

        solved = 0
        for u in np.random.default_rng(5).random((100, 3)):
            fields = dict(ring_field=(0.05 + 0.55 * u[0]) * 7.25e10,
                          ring_offset_c0=(0.3 + 1.7 * u[1]) * 1064e-9,
                          detuning_over_kappa=0.2 + 1.0 * u[2])
            assert all(type(v) is np.float64 for v in fields.values())
            got = numbers(reference_config(**fields))
            want = numbers(reference_config(
                **{name: float(v) for name, v in fields.items()}))
            if isinstance(want, str):
                assert got == want
                continue
            assert all(type(v) is float for v in got), got
            assert [v.hex() for v in got] == [v.hex() for v in want]
            solved += 1
        assert solved >= 60

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_quartic_matches_drift_matrix(self, ring_mode):
        # the Routh-Hurwitz quartic is the characteristic polynomial of A,
        # whose eigenvalues come in exact conjugate pairs; build_model
        # builds the point path's models bit for bit
        models = []
        for cfg in criterion_6_configs(60):
            try:
                models.append(solve_point(cfg, ring_mode=ring_mode).model)
            except LevringError:
                continue
        assert len(models) >= 30
        for model in models:
            coeffs = np.array(dynamics.char_poly_coefficients(
                model.op, model.gamma, model.kappa))
            # the root scale of the quartic
            rho = np.max(np.abs(coeffs) ** (1.0 / np.arange(1, 5)))
            scale = rho ** np.arange(1, 5)
            assert np.all(np.abs(np.poly(model.A)[1:] - coeffs)
                          <= 1e-12 * scale), model.op
            eigs = model.verdict.eigenvalues
            assert np.array_equal(np.sort(eigs.conj()), eigs)
        for want in models:
            got = build_model(want.op, want.derived)
            for name in ("A", "D"):
                assert getattr(got, name).tobytes() == getattr(want,
                                                               name).tobytes()
            assert got.verdict.eigenvalues.tobytes() == (
                want.verdict.eigenvalues.tobytes())
            for field in ("s1", "s2", "rh_stable", "rh_marginal",
                          "max_real_part", "eig_stable"):
                assert getattr(got.verdict, field) == getattr(want.verdict,
                                                              field)

    def test_single_root_point_builds_one_model(self, fig1, monkeypatch):
        # one candidate, one eigenvalue row, one model built
        cfg, derived, delta0 = fig1
        assert len(scan_roots(derived, delta0, cfg.ring_offset_c0)) == 1
        rows, built = [], []
        eigenvalue_rows, model = dynamics._eigenvalue_rows, steady_state._model

        def counted_rows(A, found):
            rows.append(len(found))
            return eigenvalue_rows(A, found)

        def counted_model(*args):
            built.append(args[1])
            return model(*args)

        monkeypatch.setattr(dynamics, "_eigenvalue_rows", counted_rows)
        monkeypatch.setattr(steady_state, "_model", counted_model)
        sol = solve_point(cfg)
        assert sol.model.stable
        assert rows == [1] and built == [0]

    def test_solve_xs_is_the_model_operating_point(self, fig1):
        cfg, derived, delta0 = fig1
        model = one(solve_models([(derived, delta0, cfg.ring_offset_c0)]))
        assert solve_xs(derived, delta0, cfg.ring_offset_c0) == model.op
        assert model.derived == derived.with_damping(model.op.omega_m)

    def test_public_names_resolve(self):
        assert [name for name in levring.__all__
                if not hasattr(levring, name)] == []


def assert_same_record(got, want):
    """Two records of one type alike bit for bit: each float field by
    float.hex, each array by dtype, shape and bytes, and each number a
    Python float or bool (a numpy scalar would pass ==, and prints as
    np.float64(...)); the closure and config of constants are shared."""
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        ours, theirs = getattr(got, field.name), getattr(want, field.name)
        if field.name in ("damping_at", "cfg"):
            assert ours is theirs, field.name
        elif isinstance(theirs, np.ndarray):
            assert (ours.dtype, ours.shape, ours.tobytes()) == (
                theirs.dtype, theirs.shape, theirs.tobytes()), field.name
        else:
            assert type(theirs) in (float, bool), (field.name, theirs)
            assert type(ours) is type(theirs), (field.name, ours)
            assert (ours.hex() if type(ours) is float else ours) == (
                theirs.hex() if type(theirs) is float else theirs), field.name


def assert_same_outcome(got, cell, solve=solve_models):
    """The entry of the grid solver `solve` for a cell equals what its
    one-cell run gives, bit for bit (`assert_same_record`)."""
    try:
        want = one(solve([cell]))
    except LevringError as exc:
        assert type(got) is type(exc)
        assert str(got) == str(exc)
        return type(exc).__name__
    assert isinstance(got, dynamics.StateSpaceModel), got
    for name in ("A", "D"):
        ours, theirs = getattr(got, name), getattr(want, name)
        assert (ours.dtype, ours.shape, ours.tobytes()) == (
            theirs.dtype, theirs.shape, theirs.tobytes()), name
    for name in ("op", "derived", "verdict"):
        assert_same_record(getattr(got, name), getattr(want, name))
    return "stable" if want.stable else "unstable"


def assert_verdicts_alike(outcomes):
    """The verdict the table gives for each cell (`table_verdict`), read
    before any model is built, equals the verdict of the model
    `outcomes[i]` builds on every cell, field by field
    (`assert_same_record`), or is that cell's very error; the model's
    eigenvalues are the table's own row.  Returns the count of cells with
    a model."""
    verdicts = [table_verdict(outcomes, i) for i in range(len(outcomes))]
    for i, verdict in enumerate(verdicts):
        outcome = outcomes[i]
        if isinstance(outcome, LevringError):
            assert verdict is outcome
            continue
        assert_same_record(verdict, outcome.verdict)
        assert verdict.eigenvalues is outcome.verdict.eigenvalues
    return sum(not isinstance(v, LevringError) for v in verdicts)


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


class TestGridTables:
    """The scan grids and their trig columns, built once per wavenumber."""

    @pytest.mark.parametrize("wavelength", [1064e-9, 1550e-9])
    @pytest.mark.parametrize("resonant", [False, True])
    def test_tables_equal_the_grid_formulas(self, wavelength, resonant):
        derived = derive_constants(reference_config(wavelength=wavelength))
        k = derived.k
        half = np.pi / (4.0 * k) * (1.0 - 1e-9)
        want = (np.linspace(0.0, half, N_SCAN_RESONANT) if resonant
                else np.linspace(-half, half, N_SCAN))
        trig = np.cos if resonant else np.sin
        tol_x, tables = steady_state._grid_tables(k, resonant)
        xs, cos2, trig_2kx = tables[0]
        assert xs.tobytes() == want.tobytes()
        assert tol_x == BISECT_REL_TOL * (2.0 * half)
        assert cos2.tobytes() == (np.cos(k * want) ** 2).tobytes()
        assert trig_2kx.tobytes() == trig(2.0 * k * want).tobytes()
        tol, again = steady_state._grid_tables(derived.k, resonant)
        assert again[0][0] is xs and tol == tol_x

    @pytest.mark.parametrize("resonant", [False, True])
    def test_tables_are_read_only(self, fig1, resonant):
        grid, coarse, fine, _ = steady_state._grid_tables(fig1[1].k,
                                                          resonant)[1]
        for table in grid + coarse + fine:
            with pytest.raises(ValueError):
                table[0] = 0.0
            with pytest.raises(ValueError):
                table *= 1.0

    @pytest.mark.parametrize("resonant", [False, True])
    def test_each_wavelength_has_its_tables(self, resonant):
        first, second = (steady_state._grid_tables(
            derive_constants(reference_config(wavelength=w)).k, resonant)
            for w in (1064e-9, 1550e-9))
        assert first[0] != second[0]
        for a, b in zip(first[1][0], second[1][0]):
            assert not np.array_equal(a, b)

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_cold_and_warm_tables_solve_alike(self, ring_mode):
        def outcome(cfg):
            try:
                model = solve_point(cfg, ring_mode=ring_mode).model
            except LevringError as exc:
                return type(exc), str(exc)
            return (model.op.x_s, model.op.G,
                    model.verdict.eigenvalues.tobytes())

        solved = 0
        for cfg in criterion_6_configs(12):
            steady_state._grid_tables.cache_clear()
            cold = outcome(cfg)
            assert outcome(cfg) == cold
            solved += isinstance(cold[0], float)
        assert solved >= 5


def whole_grid_hits(fun, k, resonant, params):
    """Reference for the two-pass scan: each cell evaluated on the whole
    grid, as (cell, i, value bits) of every grid zero and of every sign
    change between i and i + 1."""
    xs, cos2, trig = steady_state._grid_tables(k, resonant)[1][0]
    hits = []
    for c in range(len(params[0])):
        fs = fun(xs, cos2, trig, tuple(p[c] for p in params))
        change = np.sign(fs[:-1]) * np.sign(fs[1:]) < 0.0
        for i in np.flatnonzero((fs == 0.0) | np.append(change, False)):
            hits.append((c, int(i), float(fs[i]).hex()))
    return hits


def scanned_hits(fun, tables, params):
    """`_scan_hits` as (cell, i, value bits), its zero flags checked."""
    cell, i, f_i, zero = steady_state._scan_hits(fun, tables, params)
    assert zero.tolist() == (f_i == 0.0).tolist()
    return [(c, j, f.hex()) for c, j, f in
            zip(cell.tolist(), i.tolist(), f_i.tolist())]


def shipped_case(name):
    cfg = parse_config(str(CONFIG_DIR / name))
    derived = derive_constants(cfg)
    return derived, delta0_from_config(cfg, derived), cfg.ring_offset_c0


def fold_cases():
    """The two-root anti-Stokes case, and that case with A_q scaled by
    1.2226997662 (its two roots 4.4e-11 m apart, between two grid points)
    and by 1.2226998406 (the fold, where they meet)."""
    derived, delta0, c0 = anti_stokes_two_root_case()
    return [(dataclasses.replace(derived, A_q=scale * derived.A_q), delta0, c0)
            for scale in (1.0, 1.2226997662, 1.2226998406)]


def line_cells(trig):
    """Cells a (x - r) + trig on the 65-point grid of [0, 1], whose coarse
    points are 0, 1/4, 1/2, 3/4 and 1; params = (a, r), slope bound |a|."""
    xs = np.linspace(0.0, 1.0, 65)

    def line(x, cos2, trig, params):
        return params[0] * (x - params[1]) + trig
    line.bound = lambda params: (
        np.abs(params[0]), steady_state.SCAN_SLACK * 2.0 * np.abs(params[0]))
    return line, steady_state._two_pass_tables((xs, xs, trig))


class TestTwoPassScan:
    """The certified coarse-to-fine scan finds the whole grid's hits."""

    def test_balance_roots_equal_reference(self):
        batches = (stokes_side_cases(), fold_cases(),
                   [shipped_case("fig1.cfg"), shipped_case("fig2.cfg")])
        counts = []
        for cases in batches:
            derived = steady_state._shared(cases, ("k", "g", "E_drive",
                                                   "kappa"))
            params = tuple(np.array([(d0, c0, d.A_q)
                                     for d, d0, c0 in cases]).T)
            roots = _grid_roots(derived.k, False,
                                steady_state._balance(derived), params)
            for got, case in zip(roots, cases):
                assert got == reference_scan_roots(*case)
            counts.append([len(r) for r in roots])
        assert sum(counts[0]) >= 10
        assert counts[1] == [2, 0, 0]       # the grid misses the close pair
        assert counts[2] == [1, 0]          # fig2's ring is for resonance

    def test_resonance_roots_equal_reference(self):
        fig2 = shipped_case("fig2.cfg")
        rows = [(fig2[0], d0 * fig2[0].kappa, c0)
                for d0 in np.linspace(0.05, 1.0, 20)
                for c0 in (1064e-9, -1064e-9)]
        batches = (stokes_side_cases(), anti_stokes_grid(),
                   [shipped_case("fig1.cfg"), fig2] + rows)
        solved = 0
        for cases in batches:
            derived = steady_state._shared(cases, ("k", "g", "E_drive",
                                                   "kappa", "mass"))
            delta0 = np.array([d0 for _, d0, _ in cases])
            roots = _grid_roots(derived.k, True,
                                steady_state._mismatch(derived), (delta0,))
            for got, case in zip(roots, cases):
                want = reference_resonant_root(*case)
                assert len(got) == (want is not None)
                if got:
                    assert (-got[0] if case[2] > 0.0 else got[0]) == want
                    solved += 1
        assert solved >= 40

    @pytest.mark.parametrize("param2", ["c0_over_lambda", "charge_scale"])
    def test_shipped_map_hits_equal_whole_grid(self, monkeypatch, param2):
        calls = []

        def recording(cells):
            calls.append(cells)
            return solve_models(cells)

        monkeypatch.setattr(levring.pipeline, "solve_models", recording)
        with contextlib.redirect_stdout(io.StringIO()):
            assert levring.cli.main(
                ["stability-map", "--config", str(CONFIG_DIR / "fig1.cfg"),
                 "--param2", param2]) == 0
        (cells,) = calls
        assert len(cells) == 41 * 21
        derived = cells[0][0]
        params = tuple(np.array([(d0, c0, d.A_q) for d, d0, c0 in cells
                                 if d.A_q != 0.0 and c0 != 0.0]).T)
        fun = steady_state._balance(derived)
        got = scanned_hits(fun, steady_state._grid_tables(derived.k, False)[1],
                           params)
        assert got == whole_grid_hits(fun, derived.k, False, params)
        assert len(params[0]) >= 800 and len(got) >= 400

    def test_zeros_and_sign_changes_at_coarse_points(self):
        # grid zeros at a coarse point (i = 16), at a fine point (i = 5),
        # at the first and last grid points; sign changes into (i = 15)
        # and out of (i = 16) a coarse point; a cell without a hit
        line, tables = line_cells(np.zeros(65))
        params = (np.array([1.0, -1.0, 1.0, -2.0, 1.0, -1.0, 3.0]),
                  np.array([16, 5, 0, 64, 15.5, 16.5, 80]) / 64.0)
        got = scanned_hits(line, tables, params)
        assert [(c, i) for c, i, _ in got] == [
            (0, 16), (1, 5), (2, 0), (3, 64), (4, 15), (5, 16)]
        assert [float.fromhex(f) == 0.0 for _, _, f in got] == [
            True, True, True, True, False, False]
        alone = [scanned_hits(line, tables, (a[c:c + 1], r[c:c + 1]))
                 for a, r in [params] for c in range(7)]
        assert got == [(c, i, f) for c, hits in enumerate(alone)
                       for _, i, f in hits]

    @pytest.mark.parametrize("bad, want", [
        ({16: math.nan}, [(0, 10)]),
        ({16: math.inf, 32: -math.inf}, [(0, 10), (0, 31), (0, 32)])])
    def test_nan_and_infinity_certify_nothing(self, bad, want):
        # a nan or an infinite value at a coarse point leaves both its
        # intervals to the fine pass: counted as large, it would certify
        # intervals that hold a sign change
        trig = np.zeros(65)
        for i, value in bad.items():
            trig[i] = value
        line, tables = line_cells(trig)
        params = (np.array([1.0, 1.0]), np.array([10.5, 42.5]) / 64.0)
        got = [(c, i) for c, i, _ in scanned_hits(line, tables, params)]
        assert [hit for hit in got if hit[0] == 0] == want
        alone = [scanned_hits(line, tables, (a[c:c + 1], r[c:c + 1]))
                 for a, r in [params] for c in range(2)]
        assert got == [(c, i) for c, hits in enumerate(alone)
                       for _, i, _ in hits]

    @pytest.mark.parametrize("resonant", [False, True])
    def test_slope_bound_holds_on_the_grid(self, resonant):
        # the largest difference quotient of each seeded cell over the
        # grid is at most its bound L, and comes near it
        rng = np.random.default_rng(59)
        ratios = []
        for geometry in ({}, dict(sphere_radius=100e-9, cavity_length=1e-3)):
            derived = derive_constants(reference_config(**geometry))
            n = 100
            params = (rng.uniform(-4.0, 4.0, n) * derived.kappa,
                      rng.uniform(-3.0, 3.0, n) * 1064e-9,
                      rng.uniform(0.0, 8.0, n) * derived.A_q)
            fun = steady_state._balance(derived)
            if resonant:
                params, fun = params[:1], steady_state._mismatch(derived)
            slope, slack = fun.bound(params)
            assert np.all(slack > 0.0)
            xs, cos2, trig = steady_state._grid_tables(derived.k,
                                                       resonant)[1][0]
            fs = fun(xs, cos2, trig, tuple(p[:, None] for p in params))
            rise = np.max(np.abs(np.diff(fs, axis=1)) / np.diff(xs), axis=1)
            ratios.extend((rise / slope).tolist())
        assert max(ratios) <= 1.0
        assert max(ratios) > 0.5


class TestSolveModels:
    @pytest.mark.parametrize("param2", ["c0_over_lambda", "charge_scale"])
    def test_shipped_map_cells_equal_point_path(self, monkeypatch, param2):
        # every cell the CLI hands the grid solver on a shipped map
        calls = []

        def recording(cells):
            calls.append((cells, solve_models(cells)))
            return calls[-1][1]

        monkeypatch.setattr(levring.pipeline, "solve_models", recording)
        with contextlib.redirect_stdout(io.StringIO()):
            assert levring.cli.main(
                ["stability-map", "--config", str(CONFIG_DIR / "fig1.cfg"),
                 "--param2", param2]) == 0
        (cells, got), = calls
        assert len(cells) == 41 * 21
        assert assert_verdicts_alike(got) > 100
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
            roots = _grid_roots(derived.k, False,
                                steady_state._balance(derived),
                                (delta0, c0, a_q))
            assert roots == [scan_roots(*case) for case in cases]
        assert [len(r) for r in roots[:2]] == [2, 2]

    def test_decoupled_cells_are_not_scanned(self, monkeypatch):
        derived = derive_constants(
            parse_config(str(CONFIG_DIR / "decoupled.cfg")))
        monkeypatch.setattr(steady_state, "_grid_roots", None)
        cells = [(derived, d0 * derived.kappa, c0)
                 for d0 in (-0.5, 0.0, 0.8) for c0 in (0.0, 1e-6, -1e-6)]
        got = list(solve_models(cells))
        assert len(got) == len(cells)
        for g, cell in zip(got, cells):
            assert assert_same_outcome(g, cell) in ("stable", "unstable")
        assert list(solve_models([])) == []

    @pytest.mark.parametrize("failure", ["LinAlgError", "nan"])
    def test_failed_eigenvalues_fail_alike(self, fig1, monkeypatch, failure):
        # geev failing, or returning a nan, fails each cell of a
        # two-cell grid as it fails the one cell
        cfg, derived, delta0 = fig1

        def eigvals(a):
            if failure == "LinAlgError":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return np.full(a.shape[:-1], np.nan)

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        cell = (derived, delta0, cfg.ring_offset_c0)
        got, _ = solve_models([cell, cell])
        assert assert_same_outcome(got, cell) == "NumericalError"
        assert str(got) == ("drift matrix eigenvalues: Eigenvalues did not "
                            "converge" if failure == "LinAlgError" else
                            "drift matrix has a non-finite eigenvalue")

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
    # one cell bisects and forms its candidates on Python floats, two
    # cells bisect in lock step and form them on arrays; either takes the
    # eigenvalues of all its candidates in one call
    cfg = parse_config(str(CONFIG_DIR / config))
    derived = derive_constants(cfg)
    cell = (derived, delta0_from_config(cfg, derived), cfg.ring_offset_c0)
    calls = collections.Counter()

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)
        return call

    for module, name in ((steady_state, "_bisect_all"),
                         (dynamics, "_eigenvalue_rows")):
        monkeypatch.setattr(module, name,
                            counted(name, getattr(module, name)))
    arrays = levring.model._ARRAYS
    monkeypatch.setattr(levring.model, "_ARRAYS", arrays._replace(
        square=counted("array square", arrays.square)))
    one, = solver([cell])
    assert one.stable
    assert calls == {"_eigenvalue_rows": 1}
    calls.clear()
    two = list(solver([cell, cell]))
    assert calls["_bisect_all"] >= 1 and calls["_eigenvalue_rows"] == 1
    assert calls["array square"] >= 1
    assert two[0].op == two[1].op == one.op


def cubic_cells(k, resonant):
    """Cells -3 (x - r1)(x - r2)(x - r3) on the scan grid at k, with exact
    grid zeros at its first and last points, as (fun, params, roots):
    roots holds each cell's grid zeros exactly and its bisected roots to
    the bisection tolerance.  fun's bound is nan, which certifies
    nothing, so the two-pass scan evaluates every interval."""
    def cubic(x, cos2, trig, params):
        c, r1, r2, r3 = params
        return c * (x - r1) * (x - r2) * (x - r3)
    cubic.bound = lambda params: (np.full(len(params[0]), np.nan),) * 2
    tol_x, tables = steady_state._grid_tables(k, resonant)
    xs = tables[0][0]
    first, last = float(xs[0]), float(xs[-1])
    out = 2.0 * abs(last)
    mid, near = 0.5 * float(xs[700] + xs[701]), 0.5 * float(xs[1])
    bisected = {x: pytest.approx(x, rel=0.0, abs=tol_x) for x in (mid, near)}
    if resonant:    # every root, the grid zero at x = 0 too
        cells = [((0.0, mid, last), [0.0, bisected[mid], last]),
                 ((0.0, last, out), [0.0, last]),
                 ((near, out, 2.0 * out), [bisected[near]]),
                 ((last, out, 2.0 * out), [last]),
                 ((0.0, out, 2.0 * out), [0.0])]
    else:
        cells = [((first, mid, last), [first, bisected[mid], last]),
                 ((last, out, 2.0 * out), [last]),
                 ((first, out, 2.0 * out), [first]),
                 ((-out, out, 2.0 * out), [])]
    params = tuple(np.array(v) for v in zip(*[(-3.0, *r) for r, _ in cells]))
    return cubic, params, [roots for _, roots in cells]


@pytest.mark.parametrize("resonant", [False, True])
def test_one_cell_roots_at_the_grid_ends(fig1, resonant):
    # exact zeros at the first and last grid points are roots, the last
    # with no bracket to its right, on the resonance half-grid too, whose
    # first point is x = 0 (`_resonant_plan` skips that root).  Each cell
    # alone equals the batch.
    k = fig1[1].k
    fun, params, roots = cubic_cells(k, resonant)
    together = _grid_roots(k, resonant, fun, params)
    assert together == roots
    for c in range(len(roots)):
        assert _grid_roots(k, resonant, fun,
                           tuple(p[c:c + 1] for p in params)) == [together[c]]


def assert_same_resonant_outcomes(cells):
    got = list(solve_resonant_models(cells))
    assert len(got) == len(cells)
    return collections.Counter(
        assert_same_outcome(g, cell, solve_resonant_models)
        for g, cell in zip(got, cells))


def admitted(cell, xs, tol, resonant=False):
    """`_admitted` on the candidates xs of one cell, their values formed
    on Python floats."""
    derived, delta0, c0 = cell
    row = (delta0, c0, derived.mass, derived.kappa,
           *derived.damping_at.factors, *(() if resonant else (derived.A_q,)))
    values, _ = levring.model._tabulate(
        functools.partial(steady_state._candidate_values, derived,
                          steady_state._balance(derived)),
        (xs, *zip(*[row] * len(xs))), True)
    return steady_state._admitted(steady_state._Candidates(*values),
                                  range(len(xs)), cell, tol, resonant)


class TestScreen:
    """The candidates a cell's screen walks, and `_screen` on each shape."""

    def test_candidates_end_on_the_cell_error(self, fig1):
        cfg, derived, delta0 = fig1
        cell = (derived, delta0, cfg.ring_offset_c0)
        stable = one(solve_models([cell]))
        r = stable.op.x_s
        at = f"at delta0 = {delta0:.6e}"
        tol = steady_state.RESIDUAL_REL_TOL * residual_scale(derived, cell[2])
        entries, end = admitted(cell, [r], tol)
        assert entries == [0] and type(end()) is AllRootsUnstable
        assert str(end()) == f"1 root(s) found, none Hurwitz {at}"
        # a root of negative trap curvature is skipped
        outside = 0.3 * cfg.wavelength
        entries, end = admitted(cell, [outside], tol)
        assert entries == [] and type(end()) is NoRootInInterval
        assert str(end()) == f"no admissible root {at}"
        entries, end = admitted(cell, [outside, r], tol)
        assert entries == [1] and type(end()) is AllRootsUnstable
        [model] = steady_state._screen_plans(
            [cell], [([outside, r], tol)], steady_state._balance(derived),
            False)
        assert model.op == stable.op and model.derived == stable.derived
        # a residual past the bound ends the candidates (k x_s = -0.54,
        # so 1.2 x_s and 1.3 x_s lie in the trap but are not roots)
        entries, end = admitted(cell, [r, 1.2 * r, 1.3 * r], tol)
        assert entries == [0] and type(end()) is NumericalError
        assert str(end()).startswith("root refinement residual ")
        # no root at all ends the cell before any candidate
        strong = derive_constants(reference_config(ring_field=2.5e11))
        with pytest.raises(NoRootInInterval, match="no force-balance root"):
            one(solve_models([(strong, 0.3 * strong.kappa, cell[2])]))
        # a decoupled cell's list is its one candidate, whose errors are
        # the cell's
        assert admitted((derived, delta0, 0.0), [0.0], None) == ([0], None)
        with pytest.raises(UnstableTrap, match="cos"):
            admitted(cell, [outside], None)

    def test_first_error_reached_is_the_outcome(self):
        screen = steady_state._screen
        eigs = np.zeros(4, dtype=complex)
        stable, unstable = (eigs, -1.0), (eigs, 1.0)
        built = NumericalError("drift matrix has a non-finite eigenvalue")
        residual = NumericalError("root refinement residual")
        failed = (built, math.nan)
        for found, error in (([unstable], residual),
                             ([unstable, failed, stable], built),
                             ([failed, stable], built)):
            assert screen(range(len(found)), lambda: residual,
                          dict(enumerate(found))) is error
        assert screen([0], lambda: residual, {0: stable}) == 0
        assert screen([0, 1, 2], lambda: residual,
                      dict(enumerate([unstable, stable, failed]))) == 1

    def test_decoupled_list_returns_its_model(self):
        for verdict in (-1.0, 1.0):
            assert steady_state._screen(
                [0], None, {0: (np.zeros(4), verdict)}) == 0

    def test_resonant_list_raises_only_when_unstable(self):
        def end():
            return UnstableResonance("resonant point is not Hurwitz")
        eigs = np.zeros(4)
        assert steady_state._screen([0], end, {0: (eigs, -1.0)}) == 0
        error = steady_state._screen([0], end, {0: (eigs, 1.0)})
        assert type(error) is UnstableResonance
        assert str(error) == "resonant point is not Hurwitz"


class TestOutcomes:
    """The grid solvers' `Outcomes`: models built on first access, and
    verdicts read without them."""

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_fig2_sweep_verdicts_equal_model_verdicts(self, ring_mode):
        cfg = parse_config(str(CONFIG_DIR / "fig2.cfg"))
        outcomes = levring.pipeline.solve_grid(
            cfg, list(np.linspace(0.05, 1.0, 200)), ring_mode=ring_mode)
        assert len(outcomes) == 200
        assert assert_verdicts_alike(outcomes) >= (
            150 if ring_mode == "resonant" else 1)

    def test_models_are_built_once_on_first_access(self, fig1,
                                                   monkeypatch):
        cfg, derived, delta0 = fig1
        built, model = [], steady_state._model

        def counted_model(*args):
            built.append(args[1])
            return model(*args)

        monkeypatch.setattr(steady_state, "_model", counted_model)
        cell = (derived, delta0, cfg.ring_offset_c0)
        outcomes = solve_models([cell, (derived, delta0, 0.0), cell])
        verdicts = [table_verdict(outcomes, i) for i in range(3)]
        assert built == []
        assert outcomes[-1] is outcomes[2]
        assert outcomes[0:2] == [outcomes[0], outcomes[1]]
        assert len(built) == 3
        assert list(outcomes) == outcomes[:] and len(built) == 3
        assert [v.eig_stable for v in verdicts] == [True, True, True]


class TestOverflowInTheRootScan:
    """A |delta0| past the `check_detuning` bound overflows `delta * delta`
    in the array passes of the root scan: silently, as on Python floats,
    and the cell fails on its trap radicand."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_huge_detuning_is_config_invalid_without_a_warning(self, fig1,
                                                                n):
        cfg, derived, _ = fig1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = list(solve_models([(derived, 1e160, 1e-8)] * n))
        assert len(got) == n
        for outcome in got:
            assert type(outcome) is ConfigInvalid
            assert str(outcome).startswith(
                "derived constant trap radicand = nan is not finite")


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
            xs = steady_state._grid_tables(k, True)[1][0][0]

            def mismatch(x):
                return steady_state._mismatch(derived)(
                    x, np.cos(k * x) ** 2, np.cos(2.0 * k * x),
                    (delta0[:, None],))

            assert mismatch(-xs).tobytes() == mismatch(xs).tobytes()
            assert ((np.cos(k * -xs) ** 2).tobytes()
                    == (np.cos(k * xs) ** 2).tobytes())
            c0 = abs(cfg.ring_offset_c0)
            roots = [r[0] if r else None for r in _grid_roots(
                k, True, steady_state._mismatch(derived), (delta0,))]
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


SOLVERS = {"fixed_charge": solve_models, "resonant": solve_resonant_models}


def assert_cells_alike(cells, ring_mode):
    """Solve cells as one grid (the candidates on arrays); each cell
    equals its one-cell solve (on Python floats).  Returns a function
    counting the outcomes whose kind, "stable", "unstable" or an error
    as a CSV cell writes it, starts with a given prefix."""
    solve = SOLVERS[ring_mode]
    assert_verdicts_alike(solve(cells))
    got = list(solve(cells))
    assert len(got) == len(cells) > 1
    for g, cell in zip(got, cells):
        assert_same_outcome(g, cell, solve)
    kinds = [error_cell(g) if isinstance(g, LevringError)
             else "stable" if g.stable else "unstable" for g in got]
    return lambda prefix: sum(kind.startswith(prefix) for kind in kinds)


def pow_and_product_cells(ring_mode, n):
    """n cells whose solved Delta(x_s) has a square by pow an ulp away
    from its square by product, found among seeded detunings (about 1 in
    1000 squares), and as many other cells: fig1, or fig2 resonant."""
    cfg = parse_config(str(CONFIG_DIR / ("fig1.cfg" if ring_mode ==
                                         "fixed_charge" else "fig2.cfg")))
    derived = derive_constants(cfg)
    rng = np.random.default_rng(34)
    cells = [(derived, d0 * derived.kappa, cfg.ring_offset_c0)
             for d0 in rng.uniform(0.05, 1.2, 20000)]
    apart, alike = [], []
    for cell, got in zip(cells, SOLVERS[ring_mode](cells)):
        if not isinstance(got, LevringError):
            d = got.op.delta_eff
            (apart if d * d != d ** 2 else alike).append(cell)
    assert len(apart) >= n
    return apart[:n] + alike[:n]


class TestGridCandidatesEqualOneCell:
    """Grids whose candidates meet what the array pass must get right,
    each cell against its one-cell solve, bit for bit."""

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_squares_by_pow_not_by_product(self, ring_mode):
        count = assert_cells_alike(pow_and_product_cells(ring_mode, 8),
                                   ring_mode)
        assert count("stable") >= 8

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_root_of_negative_trap_curvature(self, monkeypatch, ring_mode):
        # some cells get roots at 0.2 wavelengths, past the trap edge,
        # where cos(2kx) < 0 (and the resonant spring is positive): a
        # fixed-charge cell skips them, a resonant cell, whose one
        # candidate such a root becomes, fails with UnstableTrap
        cfg, grid_roots = reference_config(), steady_state._grid_roots
        outside = 0.2 * cfg.wavelength

        def with_outside_roots(k, resonant, fun, params):
            roots = grid_roots(k, resonant, fun, params)
            for delta0, found in zip(params[0].tolist(), roots):
                if int(delta0) % 4 == 1:
                    found[:] = [outside]
                elif int(delta0) % 4 == 3:
                    found += [outside, -outside]
            return roots

        monkeypatch.setattr(steady_state, "_grid_roots", with_outside_roots)
        derived = derive_constants(cfg)
        cells = [(derived, d0 * derived.kappa, c0)
                 for d0 in np.linspace(0.2, 1.2, 11)
                 for c0 in (cfg.ring_offset_c0, -cfg.ring_offset_c0)]
        count = assert_cells_alike(cells, ring_mode)
        assert count("stable") >= 4
        if ring_mode == "fixed_charge":
            assert count("NoRootInInterval: no admissible root") >= 2
        else:
            assert count("UnstableTrap: cos(2 k x_s) = -") >= 2

    def test_residual_past_the_bound(self, monkeypatch):
        # about every other cell gets a non-root at half its first root,
        # which the screen meets first: the residual ends its candidates
        grid_roots = steady_state._grid_roots

        def with_non_roots(k, resonant, fun, params):
            roots = grid_roots(k, resonant, fun, params)
            for delta0, found in zip(params[0].tolist(), roots):
                if int(delta0) % 2:
                    found[:] = [0.5 * x for x in found[:1]] + found
            return roots

        monkeypatch.setattr(steady_state, "_grid_roots", with_non_roots)
        count = assert_cells_alike(criterion_6_grid(), "fixed_charge")
        assert count("NumericalError: root refinement residual") >= 10
        assert count("stable") >= 10

    @pytest.mark.parametrize("fields, ring_mode, c0s, want", [
        # a sphere so dense that omega_m ~ 1e-143: Gamma_diff ~ 1e163
        # has no finite square; beside cells of fig1's sphere
        (dict(density=1e300, gas_pressure=1e300 * 133.322368),
         "fixed_charge", (1064e-9, 0.0), "ConfigInvalid: derived constant Gamma_diff"),
        # a_s^2 overflows in the trap frequency of the C0 = 0 cells, the
        # only ones with a root
        (dict(cavity_length=1e148, input_power=1e147), "fixed_charge",
         (1064e-9, 0.0, -1064e-9), "ConfigInvalid: derived constant trap radicand"),
        # a tiny mass makes A_q / (m omega_m) overflow in Omega_m
        (dict(sphere_radius=1e-59, ring_offset_c0=1e-159), "fixed_charge",
         (1e-159, 0.0, -1e-159), "ConfigInvalid: derived constant Omega_m = inf"),
        # C0 = -x_s: the resonant charge divides by zero, Omega_m is nan
        (dict(ring_field=2.5e11), "resonant", (1064e-9, None),
         "ConfigInvalid: derived constant Omega_m = nan"),
    ], ids=["Gamma_diff", "trap-radicand", "Omega_m", "resonant-Omega_m"])
    def test_config_invalid_at_a_candidate(self, fields, ring_mode, c0s,
                                           want):
        edited = derive_constants(reference_config(**fields))
        cells = [(edited, d0 * edited.kappa, c0)
                 for d0 in (0.3, 0.8) for c0 in c0s if c0 is not None]
        if "density" in fields:   # fig1's sphere in the same optics
            fig1 = derive_constants(reference_config())
            cells += [(fig1, d0 * fig1.kappa, 1064e-9) for d0 in (0.3, 0.8)]
        if ring_mode == "resonant":   # the ring plane at -x_s
            x_s = one(solve_resonant_models([cells[0]])).op.x_s
            cells.append((edited, cells[0][1], -x_s))
        count = assert_cells_alike(cells, ring_mode)
        assert count(want) >= 1
        if len(fields) != 2 or "density" in fields:
            assert count("stable") >= 1

    @pytest.mark.parametrize("ring_mode", ["fixed_charge", "resonant"])
    def test_routh_hurwitz_values_that_overflow(self, ring_mode):
        # Delta0 = 1e153 makes S1 inf and 1e100 S2, beside fig1's cells
        cfg = reference_config()
        derived = derive_constants(cfg)
        cells = [(derived, d0, c0) for d0 in (1e153, -3e153, 1e100,
                                              0.8 * derived.kappa)
                 for c0 in (1e-8, cfg.ring_offset_c0)]
        count = assert_cells_alike(cells, ring_mode)
        if ring_mode == "fixed_charge":
            assert count("NumericalError: Routh-Hurwitz value S1 = inf") >= 2
            assert count("NumericalError: Routh-Hurwitz value S2 = inf") >= 1
            assert count("stable") >= 1


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
        model = one(solve_models([(derived, delta0, c0)]))
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

    @pytest.mark.parametrize("start, named", [
        # x runs to inf, where math.cos raises
        (lambda op: (op.x_s, 1e300, op.a_s), "p = 1e+300 kg m/s"),
        # |a|^2 = inf times sin(0) = 0 makes a nan state, which math.cos
        # passes through without a word
        (lambda op: (0.0, 0.0, 1e200), "a = (1e+200+0j)"),
    ])
    def test_state_leaving_the_float_range_is_not_converged(self, fig1, start,
                                                            named):
        cfg, derived, delta0 = fig1
        op = solve_xs(derived, delta0, cfg.ring_offset_c0)
        with pytest.raises(NotConverged, match=(
                r"left the float range in the window from t = 0\.000e\+00 s,"
                r" .*" + re.escape(named))):
            integrate_mean_field(
                derived, delta0, cfg.ring_offset_c0, initial_state=start(op),
                gamma=0.15 * derived.kappa)

    def test_stop_rule_longer_than_t_max_fails_before_stepping(
            self, fig1, monkeypatch):
        cfg, derived, delta0 = fig1
        dt, window_steps = steady_state._mean_field_step(derived, delta0)
        window = window_steps * dt

        def stepped(*args):
            raise AssertionError("stepped past a t_max the stop rule misses")

        monkeypatch.setattr(steady_state, "mean_field_chunk", stepped)
        with pytest.raises(NotConverged, match=re.escape(
                f"{2.0 * window:.3e} s, beyond t_max = {1.9 * window:.3e} s")):
            integrate_mean_field(
                derived, delta0, cfg.ring_offset_c0,
                initial_state=(0.0, 0.0, 0j), t_max=1.9 * window,
                gamma=0.15 * derived.kappa)

    def test_windows_recorded(self, fig1):
        cfg, derived, delta0 = fig1
        mf = integrate_mean_field(
            derived, delta0, cfg.ring_offset_c0,
            initial_state=(0.0, 0.0, cavity_steady_field(derived, delta0, 0.0)),
            t_max=4000.0 / derived.kappa, gamma=0.2 * derived.kappa)
        assert mf.window_times.size == mf.window_means.size
        assert np.all(np.diff(mf.window_times) > 0)
        assert mf.t_final == mf.window_times[-1]
