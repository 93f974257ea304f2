"""Drift matrix structure and the two stability routes."""
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from levring.cli import parse_config
from levring import dynamics
from levring.dynamics import (StabilityVerdict, build_model,
                              char_poly_coefficients, drift_matrix)
from levring.errors import LevringError, NumericalError
from levring.model import _tabulate, derive_constants
from levring.pipeline import solve_grid, solve_point

from conftest import (CONFIG_DIR, KAPPA_SCALE, random_model,
                      reference_config, synthetic_derived, synthetic_model,
                      synthetic_op)

KAP = KAPPA_SCALE


def assert_same_spectrum(ours, ref, rtol=1e-8, atol=1e-6 * KAP):
    """Set-wise comparison robust to ordering of near-degenerate roots."""
    ref = list(ref)
    for lam in ours:
        dist = [abs(lam - r) for r in ref]
        i = int(np.argmin(dist))
        assert dist[i] <= atol + rtol * abs(ref[i]), (lam, ref)
        ref.pop(i)


class TestStructure:
    def test_entries_and_sparsity(self):
        m = synthetic_model(omega_m=0.7 * KAP, Omega_m=0.9 * KAP,
                            delta=0.8 * KAP, G=-0.2 * KAP,
                            gamma=0.01 * KAP, Gamma=3.0 * KAP)
        A, op = m.A, m.op
        expected = np.zeros((4, 4))
        expected[0, 1] = op.omega_m
        expected[1, 0] = -op.Omega_m
        expected[1, 1] = -m.gamma / 2
        expected[1, 2] = -op.G
        expected[2, 2] = expected[3, 3] = -m.kappa / 2
        expected[2, 3] = op.delta_eff
        expected[3, 2] = -op.delta_eff
        expected[3, 0] = -op.G
        assert np.array_equal(A, expected)
        # exactly seven structurally nonzero entries
        mask = np.zeros((4, 4), dtype=bool)
        for ij in [(0, 1), (1, 0), (1, 1), (1, 2), (2, 2), (3, 3), (2, 3),
                   (3, 2), (3, 0)]:
            mask[ij] = True
        assert np.all(A[~mask] == 0.0)

    def test_diffusion_matrix(self):
        m = synthetic_model(0.7 * KAP, 0.9 * KAP, 0.8 * KAP, -0.2 * KAP,
                            0.01 * KAP, 3.0 * KAP)
        assert np.array_equal(m.D, np.diag([0.0, 3.0 * KAP, KAP / 2, KAP / 2]))
        assert m.D[0, 0] == 0.0
        assert np.all(np.diag(m.D) >= 0.0)

    def test_decoupled_block_diagonal(self):
        m = synthetic_model(0.7 * KAP, 0.9 * KAP, 0.8 * KAP, 0.0,
                            0.01 * KAP, 3.0 * KAP)
        assert np.all(m.A[:2, 2:] == 0.0)
        assert np.all(m.A[2:, :2] == 0.0)

    def test_optical_block_eigenvalues(self):
        # analytic 2x2: -kappa/2 +- i Delta
        delta = 0.8 * KAP
        m = synthetic_model(0.7 * KAP, 0.9 * KAP, delta, 0.0,
                            0.01 * KAP, 3.0 * KAP)
        eigs = m.verdict.eigenvalues
        optical = eigs[np.isclose(eigs.real, -KAP / 2, rtol=1e-9)]
        assert optical.size == 2
        assert np.allclose(sorted(optical.imag), [-delta, delta], rtol=1e-9)

    def test_char_poly_matches_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_model(rng)
            a3, a2, a1, a0 = char_poly_coefficients(m.op, m.gamma, m.kappa)
            lam = rng.uniform(-2, 2) * KAP + 1j * rng.uniform(-2, 2) * KAP
            direct = np.linalg.det(lam * np.eye(4) - m.A)
            poly = (((lam + a3) * lam + a2) * lam + a1) * lam + a0
            assert abs(direct - poly) < 1e-8 * abs(direct)

    def test_routh_hurwitz_values_match_quartic(self):
        # S1 and S2 come from their own expansion; they are the Hurwitz
        # conditions of the quartic the tests match with A: S1 = 4 a0 and
        # S2 = 128 a3 Delta3, Delta3 = a3 a2 a1 - a1^2 - a3^2 a0, exact in
        # Fractions of the float coefficients.  fig2 at a fixed charge
        # has no force-balance root, so no model
        rng = np.random.default_rng(11)
        models = [random_model(rng) for _ in range(300)]
        for config, ring_mode in [("fig1.cfg", "fixed_charge"),
                                  ("fig1.cfg", "resonant"),
                                  ("fig2.cfg", "resonant")]:
            cfg = parse_config(str(CONFIG_DIR / config))
            models.append(solve_point(cfg, ring_mode=ring_mode).model)
        for m in models:
            a3, a2, a1, a0 = map(Fraction, char_poly_coefficients(
                m.op, m.gamma, m.kappa))
            delta3 = a3 * a2 * a1 - a1 ** 2 - a3 ** 2 * a0
            for got, want in ((m.verdict.s1, 4 * a0),
                              (m.verdict.s2, 128 * a3 * delta3)):
                assert abs(Fraction(got) - want) <= Fraction(1e-10) * abs(
                    want), (m.op, got, float(want))


class TestEigenvalues:
    def test_against_numpy_eigvals(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = random_model(rng)
            assert_same_spectrum(m.verdict.eigenvalues,
                                 np.linalg.eigvals(m.A))

    def test_characteristic_residual(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = random_model(rng)
            a3, a2, a1, a0 = char_poly_coefficients(m.op, m.gamma, m.kappa)
            rho = max(abs(a3), abs(a2) ** 0.5, abs(a1) ** (1 / 3),
                      abs(a0) ** 0.25)
            c = np.array([1.0, a3 / rho, a2 / rho ** 2, a1 / rho ** 3,
                          a0 / rho ** 4])
            z = m.verdict.eigenvalues / rho
            res = np.abs(np.polyval(c, z))
            assert np.all(res < 1e-10 * max(1.0, np.linalg.norm(c)))

    def test_decoupled_union_of_blocks(self):
        m = synthetic_model(0.7 * KAP, 1.1 * KAP, 0.9 * KAP, 0.0,
                            0.02 * KAP, 3.0 * KAP)
        mech = np.roots([1.0, m.gamma / 2,
                         m.op.omega_m * m.op.Omega_m])
        opt = np.array([-m.kappa / 2 + 1j * m.op.delta_eff,
                        -m.kappa / 2 - 1j * m.op.delta_eff])
        expected = np.concatenate([mech, opt])
        assert_same_spectrum(m.verdict.eigenvalues, expected, rtol=1e-9)


class TestStabilityVerdicts:
    def test_cross_oracle_agreement(self):
        rng = np.random.default_rng(7)
        n_stable = n_unstable = 0
        for _ in range(300):
            m = random_model(rng)
            if m.verdict.rh_marginal:
                continue
            v = m.verdict
            assert v.rh_stable == v.eig_stable, (v.s1, v.s2, v.eigenvalues)
            n_stable += v.eig_stable
            n_unstable += not v.eig_stable
        # the draw box must actually straddle the boundary
        assert n_stable > 30 and n_unstable > 30

    def test_decoupled_positive_damping_is_stable(self):
        m = synthetic_model(0.7 * KAP, 0.9 * KAP, 0.8 * KAP, 0.0,
                            0.01 * KAP, 3.0 * KAP)
        v = m.verdict
        assert v.s1 > 0 and v.s2 > 0 and v.rh_stable and m.stable

    def test_anti_stokes_unstable(self):
        # negative effective detuning at reference-scale coupling
        m = synthetic_model(0.74 * KAP, 0.86 * KAP, -0.82 * KAP, -0.2 * KAP,
                            3e-11 * KAP, 1e-3 * KAP)
        assert not m.stable
        assert not m.verdict.rh_stable

    def test_undamped_constants_rejected(self):
        sol = solve_point(reference_config())
        with pytest.raises(ValueError, match="lack damping"):
            build_model(sol.op, derive_constants(reference_config()))

    def test_fig1_point_is_stable(self):
        sol = solve_point(reference_config())
        assert sol.model.stable
        assert sol.model.verdict.rh_stable

    def test_boundary_alignment(self):
        # the G at which S1/S2 first fails matches the eigenvalue flip
        args = dict(omega_m=0.7 * KAP, Omega_m=0.9 * KAP, delta=0.8 * KAP,
                    gamma=0.01 * KAP, Gamma=3.0 * KAP)

        def rh_ok(G):
            m = synthetic_model(G=G, **args)
            return m.verdict.s1 > 0 and m.verdict.s2 > 0

        def eig_ok(G):
            return synthetic_model(G=G, **args).verdict.max_real_part < 0

        def flip(pred):
            lo, hi = 0.0, 3.0 * KAP
            assert pred(lo) and not pred(hi)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if pred(mid):
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        g_rh = flip(rh_ok)
        g_eig = flip(eig_ok)
        assert abs(g_rh - g_eig) < 1e-6 * g_rh

    def test_marginal_dead_zone(self):
        # tune G so S1 sits at its cancellation point
        om, Om, delta = 0.7 * KAP, 0.9 * KAP, 0.8 * KAP
        G = np.sqrt(om * Om * (4 * delta ** 2 + KAP ** 2)
                    / (4 * delta * om))
        m = synthetic_model(om, Om, delta, G, 0.01 * KAP, 3.0 * KAP)
        assert m.verdict.rh_marginal
        assert not m.verdict.rh_stable

    def test_eigenvalues_scale_invariance(self):
        # same model expressed in different frequency units agrees
        base = synthetic_model(0.7 * KAP, 0.9 * KAP, 0.8 * KAP, -0.3 * KAP,
                               0.05 * KAP, 1.0 * KAP)
        scaled_op = synthetic_op(0.7, 0.9, 0.8, -0.3)
        eigs = build_model(scaled_op, synthetic_derived(
            kappa=1.0, gamma=0.05, Gamma=1.0)).verdict.eigenvalues
        assert_same_spectrum(base.verdict.eigenvalues, eigs * KAP, rtol=1e-9)


def tabulated(ops, deriveds, one_cell=False):
    """((S1, S2, marginal, finite), (A, D)) of a batch of operating points
    and damped constants, as the grid solvers' pass forms them
    (`model._tabulate` of `dynamics._model_values`): on Python floats for
    one_cell, else on arrays; A and D are [n, 4, 4] stacks."""
    columns = ([op.omega_m for op in ops], [op.Omega_m for op in ops],
               [op.delta_eff for op in ops], [op.G for op in ops],
               [d.gamma for d in deriveds], [d.kappa for d in deriveds],
               [d.Gamma_diff for d in deriveds])
    values, stacks = _tabulate(dynamics._model_values, columns, one_cell)
    return values, [stack.reshape(-1, 4, 4) for stack in stacks]


def batch_entries(ops, deriveds):
    """Each entry of a batch as the grid solvers' screen forms it, on
    arrays, with one stacked `dynamics._eigenvalue_rows` call for the
    entries whose S1 and S2 are finite: (S1, S2, marginal, A, D,
    eigenvalues, max Re), or the entry's NumericalError."""
    (s1, s2, marginal, finite), (A, D) = tabulated(ops, deriveds)
    rows = [b for b, ok in enumerate(finite) if ok]
    found = dict(zip(rows, zip(*dynamics._eigenvalue_rows(A, rows))))
    return [dynamics._routh_hurwitz_error(s1[b], s2[b]) if not finite[b]
            else found[b][0] if isinstance(found[b][0], NumericalError)
            else (s1[b], s2[b], marginal[b], A[b], D[b], *found[b])
            for b in range(len(ops))]


def assert_entry_is_model(entry, model):
    """A batch entry (`batch_entries`) has the bits of a built model: its
    A, D and eigenvalues by bytes, each float by float.hex, and the
    verdict's flags, by `dynamics._stable`, equal."""
    s1, s2, marginal, A, D, eigs, max_re = entry
    for ours, theirs in ((A, model.A), (D, model.D),
                         (eigs, model.verdict.eigenvalues)):
        assert (ours.dtype, ours.shape, ours.tobytes()) == (
            theirs.dtype, theirs.shape, theirs.tobytes())
    v = model.verdict
    assert [float(x).hex() for x in (s1, s2, max_re)] == [
        float(x).hex() for x in (v.s1, v.s2, v.max_real_part)]
    assert (marginal, *dynamics._stable(s1, s2, marginal, max_re)) == (
        v.rh_marginal, v.rh_stable, v.eig_stable)


def test_batched_models_equal_single_builds():
    # the grid solvers' pass on arrays and on Python floats gives the
    # same values and matrices, and with one eigvals call for the batch,
    # bit for bit the models that build_model gives one at a time, in
    # input order: stacking leaves the bits alone; the all-zero drift
    # matrix and G = 0 draws included
    rng = np.random.default_rng(12)
    ops, deriveds = [], []
    for k in range(400):
        ops.append(synthetic_op(
            omega_m=rng.uniform(0.01, 3.0) * KAP,
            Omega_m=rng.uniform(-1.0, 3.0) * KAP,
            delta=rng.uniform(-2.0, 2.0) * KAP,
            G=0.0 if k % 7 == 0 else rng.uniform(-1.5, 1.5) * KAP))
        deriveds.append(synthetic_derived(gamma=rng.uniform(1e-6, 0.5) * KAP,
                                          Gamma=1.0 * KAP))
    ops.append(synthetic_op(0.0, 0.0, 0.0, 0.0))
    deriveds.append(synthetic_derived(kappa=0.0, gamma=0.0, Gamma=0.0))
    (arrays, stacks), (floats, rows) = (tabulated(ops, deriveds, one_cell)
                                        for one_cell in (False, True))
    for ours, theirs in zip(arrays, floats):
        assert len(ours) == len(ops)
        assert [(type(v), repr(v)) for v in ours] == [
            (type(v), repr(v)) for v in theirs]
    assert [s.tobytes() for s in stacks] == [r.tobytes() for r in rows]
    got = batch_entries(ops, deriveds)
    assert len(got) == len(ops)
    for entry, op, derived in zip(got, ops, deriveds):
        assert_entry_is_model(entry, build_model(op, derived))
    assert not np.any(got[-1][5])


@pytest.mark.parametrize("config, ring_mode", [("fig1.cfg", "fixed_charge"),
                                               ("fig2.cfg", "resonant")])
def test_stacked_batch_equals_one_entry_builds(config, ring_mode):
    # the screened models at seeded detunings equal their builds by
    # build_model bit for bit, and their A is drift_matrix's; rebuilt as
    # one batch on arrays with an entry whose S1 overflows in the
    # middle, every other entry keeps those bits and the failing entry,
    # which build_model raises, keeps its NumericalError on its own row
    cfg = parse_config(str(CONFIG_DIR / config))
    grid = np.random.default_rng(31).uniform(0.05, 1.0, 40)
    screened = [m for m in solve_grid(cfg, grid, ring_mode=ring_mode)
                if not isinstance(m, LevringError)]
    assert len(screened) >= 20
    for m in screened:
        built = build_model(m.op, m.derived)
        assert built.op is m.op and built.derived is m.derived
        for name in ("A", "D"):
            ours, theirs = getattr(m, name), getattr(built, name)
            assert (ours.dtype, ours.shape, ours.tobytes()) == (
                theirs.dtype, theirs.shape, theirs.tobytes())
        for field in dataclasses.fields(StabilityVerdict):
            ours, theirs = (getattr(v.verdict, field.name)
                            for v in (m, built))
            if isinstance(ours, np.ndarray):
                assert ours.tobytes() == theirs.tobytes()
            else:
                assert type(ours) is type(theirs)
                assert repr(ours) == repr(theirs)
        assert m.A.tobytes() == drift_matrix(m.op, m.derived.gamma,
                                             m.derived.kappa).tobytes()
        assert m.A.shape == m.D.shape == (4, 4)
    ops = [m.op for m in screened]
    deriveds = [m.derived for m in screened]
    middle = len(ops) // 2
    ops.insert(middle, dataclasses.replace(ops[middle], delta_eff=1e153))
    deriveds.insert(middle, deriveds[middle])
    message = "Routh-Hurwitz value S1 = inf is not finite"
    with pytest.raises(NumericalError) as err:
        build_model(ops[middle], deriveds[middle])
    assert type(err.value) is NumericalError and str(err.value) == message
    got = batch_entries(ops, deriveds)
    assert len(got) == len(ops)
    failed = got.pop(middle)
    assert type(failed) is NumericalError and str(failed) == message
    for entry, m in zip(got, screened):
        assert_entry_is_model(entry, m)


def test_overflowing_quartic_is_numerical_error():
    # finite operating points whose Routh-Hurwitz values overflow: a
    # product past the float range (omega_m ~ 1e80, or delta ~ 1e153),
    # or a `**` that would raise OverflowError (delta ~ 1e160, or
    # gamma ~ 1e160, whose (gamma + kappa)^2 alone overflows), which
    # leaves S1 and S2 nan.  build_model raises a NumericalError naming
    # the value, and a batch, formed on arrays, records the same error in
    # those entries beside entries that keep the bits of their builds,
    # formed on Python floats
    good = synthetic_op(0.7 * KAP, 0.9 * KAP, 0.8 * KAP, -0.3 * KAP)
    derived = synthetic_derived(gamma=0.05 * KAP, Gamma=1.0 * KAP)
    bad = [(synthetic_op(1e80, 1e80, 0.8 * KAP, -0.3 * KAP), derived),
           (synthetic_op(0.7 * KAP, 0.9 * KAP, 1e153, 0.0), derived),
           (synthetic_op(0.7 * KAP, 0.9 * KAP, 1e160, 0.0), derived),
           (good, synthetic_derived(gamma=1e160, Gamma=1.0 * KAP))]
    messages = [f"Routh-Hurwitz value {name} = {value} is not finite"
                for name, value in (("S2", "inf"), ("S1", "inf"),
                                    ("S1", "nan"), ("S1", "nan"))]
    for (op, d), message in zip(bad, messages):
        with pytest.raises(NumericalError) as err:
            build_model(op, d)
        assert type(err.value) is NumericalError
        assert str(err.value) == message
    rng = np.random.default_rng(34)
    goods = [synthetic_op(*(rng.uniform(0.2, 2.0, 3) * KAP), -0.3 * KAP)
             for _ in bad]
    entries = [entry for pair in zip([(op, derived) for op in goods], bad)
               for entry in pair]
    got = batch_entries(*zip(*entries))
    for entry, op in zip(got[::2], goods):
        assert_entry_is_model(entry, build_model(op, derived))
    assert [str(e) for e in got[1::2]] == messages
    assert all(type(e) is NumericalError for e in got[1::2])


def test_overflowing_routh_hurwitz_value_is_numerical_error():
    # kappa = 1e60: every quartic coefficient and rho^4 = 1e240 are
    # finite, but S2 ~ kappa^7 overflows; build_model raises a
    # NumericalError naming S2, and the batch records it in that entry
    # only
    op = synthetic_op(0.7 * KAP, 0.9 * KAP, 0.8 * KAP, -0.3 * KAP)
    derived = synthetic_derived(gamma=0.05 * KAP, Gamma=1.0 * KAP)
    wide = synthetic_derived(kappa=1e60, gamma=0.05 * KAP, Gamma=1.0 * KAP)
    message = "Routh-Hurwitz value S2 = inf is not finite"
    with pytest.raises(NumericalError) as err:
        build_model(op, wide)
    assert type(err.value) is NumericalError and str(err.value) == message
    got = batch_entries([op] * 3, [derived, wide, derived])
    assert type(got[1]) is NumericalError and str(got[1]) == message
    want = build_model(op, derived)
    for entry in got[::2]:
        assert_entry_is_model(entry, want)


@pytest.mark.parametrize("failure, message", [
    ("LinAlgError", "drift matrix eigenvalues: Eigenvalues did not converge"),
    ("nan", "drift matrix has a non-finite eigenvalue")])
def test_failed_eigenvalues_are_numerical_errors_alike(monkeypatch, failure,
                                                       message):
    # geev failing, or returning a nan, on one drift matrix: build_model
    # raises a NumericalError, and the batch, whose stacked call fails
    # as a whole, records the same error in that entry while the others
    # keep their bits
    good = synthetic_op(0.7 * KAP, 0.9 * KAP, 0.8 * KAP, -0.3 * KAP)
    bad = synthetic_op(0.6 * KAP, 0.9 * KAP, 0.8 * KAP, -0.3 * KAP)
    derived = synthetic_derived(gamma=0.05 * KAP, Gamma=1.0 * KAP)
    want = build_model(good, derived).verdict.eigenvalues
    bad_A = drift_matrix(bad, derived.gamma, derived.kappa)
    eigvals = np.linalg.eigvals

    def failing(a):
        hit = np.all(a == bad_A, axis=(-2, -1))
        if failure == "LinAlgError" and np.any(hit):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.where(hit[..., None], np.nan, eigvals(a))

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(NumericalError) as err:
        build_model(bad, derived)
    assert type(err.value) is NumericalError
    assert str(err.value) == message
    got = batch_entries([good, bad, good], [derived] * 3)
    assert type(got[1]) is NumericalError and str(got[1]) == message
    for entry in got[::2]:
        assert entry[5].tobytes() == want.tobytes()
