"""The four benchmark workloads: seeded inputs, one round of work, checks.

A workload runs in rounds. Each round draws its inputs from the seed and
the round number before any timing starts, then runs them through the
public levring API in one process, one call after another, and checks
every output. The package only ever sees the generated configs or models.

The sweep workloads run the shipped configs at their default grids, so
their CSV bytes can be pinned by a digest; there the seed only orders the
two sub-runs of a round. The point and oracle workloads draw fresh inputs
every round with a Latin hypercube, one sample per stratum of every axis,
so that the cost of a round depends little on the seed.

Every levring function is looked up through its module at call time
(``pipeline.solve_point``, not a local name), so that the tracer can wrap
it at the name the harness looks up.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import sys
import time
import traceback
from typing import List

import numpy as np

from levring import cli, dynamics, entanglement, model, pipeline, spectra, \
    steady_state
from levring.errors import AllRootsUnstable, LevringError, NoRootInInterval

HERE = pathlib.Path(__file__).resolve().parent
LAMBDA = 1064e-9
KAPPA_REF = 941825.7836544266   # linewidth of the reference geometry, rad/s

# The reference geometry of configs/fig1.cfg, in SI units.
BASE_CONFIG = dict(
    sphere_radius=50e-9, density=2650.0, permittivity=2.3,
    wavelength=LAMBDA, cavity_length=0.01, finesse=50000.0,
    input_power=1e-3, ring_radius=5e-3, ring_offset_c0=LAMBDA,
    mcp_epsilon=1e-5, temperature=300.0, gas_pressure=1e-10 * 133.322368,
    ring_field=7.25e10, detuning_over_kappa=0.8)

# The acceptance tolerances the oracle workload asserts.
LYAPUNOV_RESIDUAL_MAX = 1e-10
COVARIANCE_MISMATCH_MAX = 1e-6
MEAN_FIELD_DX_MAX = 1e-4 * LAMBDA

# Covariance-oracle models must decay at least this fast, in units of
# kappa. The RK4 relaxation may take up to 300 fastest/slowest steps, which
# has no bound near the stability edge: in the bare criterion-4 box 4 of
# 720 draws ran out of steps (NotConverged) and a single draw could take
# minutes. The margin drops ~3% of stable draws and keeps fastest/slowest
# below ~250.
STABILITY_MARGIN = 0.01

SPECTRUM_GRID = np.linspace(-3.0, 3.0, 3001)   # omega / kappa


@dataclasses.dataclass
class RoundResult:
    points: int = 0          # map cells, sweep rows, solved points or pairs
    attempted: int = 0       # operations whose output was checked
    failed: int = 0
    calls: List[float] = dataclasses.field(default_factory=list)  # seconds

    def add(self, other):
        """Fold another round's result into this one."""
        self.points += other.points
        self.attempted += other.attempted
        self.failed += other.failed
        self.calls.extend(other.calls)


def latin_hypercube(rng, n, d):
    """n points in [0, 1)^d with exactly one point in each 1/n stratum per axis."""
    u = (np.arange(n)[:, None] + rng.random((n, d))) / n
    for j in range(d):
        u[:, j] = rng.permutation(u[:, j])
    return u


def criterion6_config(u):
    """A config from the criterion-6 box; u holds three numbers in [0, 1)."""
    return model.SystemConfig(**dict(
        BASE_CONFIG,
        ring_field=(0.05 + 0.55 * u[0]) * 7.25e10,
        ring_offset_c0=(0.3 + 1.7 * u[1]) * LAMBDA,
        detuning_over_kappa=0.2 + 1.0 * u[2]))


def report_failure(what):
    print(f"levbench: check failed: {what}", file=sys.stderr)


class Workload:
    name = ""

    def __init__(self, root: pathlib.Path, seed: int):
        self.root = root
        self.seed = seed

    def rng(self, round_no):
        return np.random.default_rng([self.seed, round_no])

    def inputs(self, round_no):
        raise NotImplementedError

    def run_round(self, inputs, point_scope) -> RoundResult:
        raise NotImplementedError

    def first_call(self):
        """The smallest call of the workload path; the setup probe times it."""
        raise NotImplementedError


class SweepWorkload(Workload):
    """In-process `simulate` runs whose CSV bytes are pinned by digest."""

    config = ""
    subcommand = ""
    option = ""
    choices = ()
    first_call_args = ()

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.config_path = str(root / "configs" / self.config)
        with open(HERE / "reference_digests.json", encoding="utf-8") as fh:
            self.digests = json.load(fh)["digests"][self.name]

    def argv(self, choice):
        return [self.subcommand, "--config", self.config_path,
                self.option, choice]

    def inputs(self, round_no):
        order = self.rng(round_no).permutation(len(self.choices))
        return [self.choices[i] for i in order]

    def invoke(self, argv):
        """Run the CLI in-process with stdout captured; (exit code, CSV)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run_round(self, inputs, point_scope):
        result = RoundResult()
        for choice in inputs:
            result.attempted += 1
            try:
                code, csv = self.invoke(self.argv(choice))
            except Exception:
                traceback.print_exc()
                code, csv = None, ""
            digest = hashlib.sha256(csv.encode("utf-8")).hexdigest()
            if code != 0 or digest != self.digests[choice]:
                result.failed += 1
                report_failure(f"{self.name} {choice}: exit {code}, "
                               f"sha256 {digest}")
            result.points += max(csv.count("\n") - 3, 0)
        return result

    def first_call(self):
        for choice in self.choices:
            code, _ = self.invoke(self.argv(choice) + list(self.first_call_args))
            if code != 0:
                raise RuntimeError(f"{self.name} {choice}: exit {code}")


class StabilityMap(SweepWorkload):
    name = "stability_map"
    config = "fig1.cfg"
    subcommand = "stability-map"
    option = "--param2"
    choices = ("c0_over_lambda", "charge_scale")
    first_call_args = ("--grid-n", "2", "--p2-n", "2")


class EntanglementSweep(SweepWorkload):
    name = "entanglement_sweep"
    config = "fig2.cfg"
    subcommand = "entanglement"
    option = "--ring-mode"
    choices = ("fixed_charge", "resonant")
    first_call_args = ("--grid-n", "2")


class PointSolve(Workload):
    """The interactive path, one independent criterion-6 config per call."""

    name = "point_solve"
    per_round = 200

    def inputs(self, round_no):
        u = latin_hypercube(self.rng(round_no), self.per_round, 3)
        return [criterion6_config(row) for row in u]

    @staticmethod
    def solve(cfg):
        try:
            sol = pipeline.solve_point(cfg)
        except (NoRootInInterval, AllRootsUnstable):
            return True     # an expected physics result, not a failure
        table = spectra.spectrum_sweep(sol.model,
                                       SPECTRUM_GRID * sol.derived.kappa)
        e_n = entanglement.log_negativity(
            entanglement.lyapunov_solve(sol.model)).E_n
        return (math.isfinite(e_n) and e_n >= 0.0
                and bool(np.all(np.isfinite(table.S_XX)))
                and bool(np.all(np.isfinite(table.S_YY)))
                and bool(np.all(table.S_XX >= 0.0))
                and bool(np.all(table.S_YY >= 0.0)))

    def run_round(self, inputs, point_scope):
        result = RoundResult()
        clock = time.perf_counter
        for cfg in inputs:
            t0 = clock()
            try:
                with point_scope():
                    ok = self.solve(cfg)
            except Exception:
                traceback.print_exc()
                ok = False
            result.calls.append(clock() - t0)
            result.attempted += 1
            result.points += 1
            if not ok:
                result.failed += 1
                report_failure(f"point_solve {cfg}")
        return result

    def first_call(self):
        if not self.solve(self.inputs(0)[0]):
            raise RuntimeError("point_solve: first point failed its check")


def _both_conventions_stable(op, gamma, kappa):
    """The rest point attracts under either sign of the optical rotation.

    The mean-field integrator and the drift matrix differ in that sign;
    drawing only where both are clearly stable keeps the oracle meaningful
    whichever convention the package settles on.
    """
    flipped = dataclasses.replace(op, delta_eff=-op.delta_eff)
    return all(
        np.max(np.linalg.eigvals(dynamics.drift_matrix(o, gamma, kappa)).real)
        < -1e-3 * kappa
        for o in (op, flipped))


class OracleCheck(Workload):
    """Criterion-4 and criterion-6 recipes: solvers against RK4 oracles."""

    name = "oracle_check"
    n_cov = 12
    n_mean_field = 6

    def random_models(self, rng):
        """Criterion-4 models that decay faster than STABILITY_MARGIN."""
        models = []
        for u in latin_hypercube(rng, 4 * self.n_cov, 6):
            if len(models) == self.n_cov:
                break
            op = steady_state.OperatingPoint(
                x_s=0.0, a_s=1.0, omega_m=(0.2 + 1.8 * u[0]) * KAPPA_REF,
                Omega_m=(0.2 + 2.8 * u[1]) * KAPPA_REF,
                delta_eff=(-2.0 + 4.0 * u[2]) * KAPPA_REF,
                G=(-1.2 + 2.4 * u[3]) * KAPPA_REF, A_q=0.0, residual=0.0)
            derived = model.DerivedParams(
                k=1.0, omega_c=1.0, V_s=1.0, V_c=1.0, waist=1.0, mass=1.0,
                g=1.0, kappa=KAPPA_REF, E_drive=1.0, q_mcp=0.0,
                ring_charge=0.0, ring_radius=1.0, A_q=0.0, damping_at=None,
                gamma_ph=0.0, gamma_gas=0.0,
                gamma=(0.05 + 0.45 * u[4]) * KAPPA_REF,
                Gamma_diff=(0.1 + 99.9 * u[5]) * KAPPA_REF)
            candidate = dynamics.build_model(op, derived)
            if candidate.verdict.max_real_part < -STABILITY_MARGIN * KAPPA_REF:
                models.append(candidate)
        if len(models) < self.n_cov:
            raise RuntimeError("too few stable models in the draw")
        return models

    def inputs(self, round_no):
        rng = self.rng(round_no)
        jobs = [("cov", m) for m in self.random_models(rng)]
        for u in latin_hypercube(rng, self.n_mean_field, 4):
            jobs.append(("mean_field", (criterion6_config(u[:3]),
                                        0.1 + 0.2 * u[3])))
        order = rng.permutation(len(jobs))
        return [jobs[i] for i in order]

    @staticmethod
    def check_covariance(m):
        v = entanglement.lyapunov_solve(m)
        residual = entanglement.lyapunov_residual(m, v)
        v_int = entanglement.covariance_by_integration(m)
        mismatch = np.abs(v_int - v).max() / np.abs(v).max()
        return (residual < LYAPUNOV_RESIDUAL_MAX
                and mismatch < COVARIANCE_MISMATCH_MAX)

    @staticmethod
    def check_mean_field(job):
        """True or False for a checked pair; None for a draw outside the recipe."""
        cfg, gamma_frac = job
        derived = model.derive_constants(cfg)
        delta0 = model.delta0_from_config(cfg, derived)
        c0 = cfg.ring_offset_c0
        gamma_test = gamma_frac * derived.kappa
        try:
            op = steady_state.solve_xs(derived, delta0, c0)
        except LevringError:
            return None
        if not _both_conventions_stable(op, gamma_test, derived.kappa):
            return None
        x0 = round(op.x_s * 1e9) / 1e9
        mf = steady_state.integrate_mean_field(
            derived, delta0, c0,
            initial_state=(x0, 0.0,
                           steady_state.cavity_steady_field(derived, delta0,
                                                            x0)),
            t_max=4000.0 / derived.kappa, gamma=gamma_test)
        return abs(mf.x_bar - op.x_s) < MEAN_FIELD_DX_MAX

    def run_job(self, kind, job):
        if kind == "cov":
            return self.check_covariance(job)
        return self.check_mean_field(job)

    def run_round(self, inputs, point_scope):
        result = RoundResult()
        clock = time.perf_counter
        for kind, job in inputs:
            t0 = clock()
            try:
                with point_scope():
                    ok = self.run_job(kind, job)
            except Exception:
                traceback.print_exc()
                ok = False
            elapsed = clock() - t0
            if ok is None:
                continue
            result.calls.append(elapsed)
            result.attempted += 1
            result.points += 1
            if not ok:
                result.failed += 1
                report_failure(f"oracle_check {kind} {job}")
        return result

    def first_call(self):
        jobs = self.inputs(0)
        for wanted in ("cov", "mean_field"):
            kind, job = next(j for j in jobs if j[0] == wanted)
            if self.run_job(kind, job) is False:
                raise RuntimeError(f"oracle_check: first {kind} pair failed")


WORKLOADS = {w.name: w for w in (StabilityMap, EntanglementSweep, PointSolve,
                                 OracleCheck)}


def make(name, root, seed) -> Workload:
    return WORKLOADS[name](root, seed)
