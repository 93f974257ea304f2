"""Constrained steady state of the driven sphere-cavity system.

The equilibrium displacement x_s zeroes the force balance

    f(x) = A_q (C0 + x) + hbar g k E^2 sin(2kx) / (kappa^2/4 + Delta(x)^2),

with Delta(x) = Delta0 + g cos^2(kx), restricted to the trap interval
(-pi/4k, pi/4k) where the optical curvature cos(2kx) stays positive.
Roots are located by a grid finder, shared with the resonance solver,
that evaluates the whole 4001-point grid at once and bisects every sign
change (robust against the multi-root structure of the transcendental
balance), then screened for stability of the linearised dynamics.  The
screen builds the state-space model of each candidate; the solvers
return the model of the accepted root, so spectra and entanglement read
the very model that was screened.  One orchestration serves a single
point and a grid of cells, such as a stability map or an entanglement
sweep: `solve_models`, of which `solve_model` is the one-cell case.
The cell count alone picks the kernels.  One cell bisects each bracket
with `_bisect` on Python floats and builds its candidates' models one
at a time as the screen reaches them; more cells bisect in lock step
(`_bisect_all`) and find the eigenvalues of every candidate in one
batched Durand-Kerner run.  Both pairs of kernels give the same bits.

Two further solvers live here: the resonance-matching solver that picks
the ring charge Q making the effective detuning equal the mechanical
frequency (`solve_resonant_models`, of which `solve_resonant_ring_charge`
is the one-cell case), and the classical mean-field integrator used as
an independent dynamical check on the root finder.
"""
from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics
from ._kernels import mean_field_chunk
from .constants import CODATA2018
from .errors import (AllRootsUnstable, LevringError, NoResonantSolution,
                     NoRootInInterval, NotConverged, NumericalError,
                     UnstableResonance, UnstableTrap, caught)
from .model import DerivedParams

N_SCAN = 4001
N_SCAN_RESONANT = 2001
BISECT_REL_TOL = 1e-15          # of the full interval width
RESIDUAL_REL_TOL = 1e-12
SCAN_CHUNK = 4                  # cells per [SCAN_CHUNK, N_SCAN] scan block


@dataclass(frozen=True)
class OperatingPoint:
    """Steady-state solution and the linearised parameters it fixes."""

    x_s: float          # equilibrium displacement, m
    a_s: float          # steady intracavity amplitude, dimensionless, > 0
    omega_m: float      # optical-trap mechanical frequency, rad/s
    Omega_m: float      # effective mechanical frequency incl. ring spring
    delta_eff: float    # effective detuning Delta(x_s), rad/s
    G: float            # effective optomechanical coupling, rad/s
    A_q: float          # ring spring constant, N/m
    residual: float     # force balance evaluated at x_s, N


@dataclass(frozen=True)
class MeanFieldResult:
    x_bar: float
    p_bar: float
    a_bar: complex
    t_final: float
    window_times: np.ndarray
    window_means: np.ndarray
    window_amps: np.ndarray


def _detuning(derived: DerivedParams, delta0, cos2):
    """Delta(x) = Delta0 + g cos^2(kx) in rad/s from cos2 = cos^2(kx), the
    one site of its sign (the mean-field kernel takes its slope from here).
    The caller squares the cosine (see `_pow_cos2`)."""
    return delta0 + derived.g * cos2


def _balance(derived: DerivedParams):
    """The force balance in newtons, balance(x, cos^2(kx), sin(2kx),
    delta0, c0, A_q), its x-independent factors formed once; it runs on
    Python floats and on broadcast arrays or numpy scalars alike."""
    hbar_gkE2 = CODATA2018.hbar * derived.g * derived.k * derived.E_drive ** 2
    quarter_kappa2 = derived.kappa ** 2 / 4.0

    def balance(x, cos2, sin_2kx, delta0, c0, a_q):
        delta = _detuning(derived, delta0, cos2)
        return (a_q * (c0 + x)
                + hbar_gkE2 * sin_2kx / (quarter_kappa2 + delta * delta))
    return balance


def force_balance(x, derived: DerivedParams, delta0: float, c0: float):
    """f(x) in newtons; vectorised over x."""
    return _balance(derived)(x, np.cos(derived.k * x) ** 2,
                             np.sin(2.0 * derived.k * x), delta0, c0,
                             derived.A_q)


def residual_scale(derived: DerivedParams, c0: float) -> float:
    """Magnitude against which the root residual is judged."""
    opt = (CODATA2018.hbar * derived.g * derived.k * derived.E_drive ** 2
           * 4.0 / derived.kappa ** 2)
    return max(abs(derived.A_q * c0), opt)


def steady_amplitude(derived: DerivedParams, delta_eff: float) -> float:
    """Real positive intracavity amplitude 2E / sqrt(4 Delta^2 + kappa^2)."""
    return 2.0 * derived.E_drive / np.sqrt(4.0 * delta_eff ** 2
                                           + derived.kappa ** 2)


def mechanical_frequency(derived: DerivedParams, a_s: float, x_s: float) -> float:
    """Optical-trap frequency sqrt(2 hbar g k^2 a_s^2 cos(2 k x_s) / m)."""
    c2 = np.cos(2.0 * derived.k * x_s)
    if c2 < 0.0:
        raise UnstableTrap(
            f"cos(2 k x_s) = {c2:.3e} < 0 at x_s = {x_s:.3e} m")
    return np.sqrt(2.0 * CODATA2018.hbar * derived.g * derived.k ** 2
                   * a_s ** 2 * c2 / derived.mass)


def cavity_steady_field(derived: DerivedParams, delta0: float, x: float) -> complex:
    """Steady intracavity field for the sphere clamped at x (complex)."""
    h = _detuning(derived, delta0, np.cos(derived.k * x) ** 2)
    return -1j * derived.E_drive / (derived.kappa / 2.0 - 1j * h)


def operating_point_at(derived: DerivedParams, delta0: float, c0: float,
                       x_s: float) -> OperatingPoint:
    """Close the steady-state definitions over a given displacement."""
    delta_eff = _detuning(derived, delta0, np.cos(derived.k * x_s) ** 2)
    a_s = steady_amplitude(derived, delta_eff)
    omega_m = mechanical_frequency(derived, a_s, x_s)
    if omega_m <= 0.0:
        raise UnstableTrap(
            f"vanishing trap frequency at x_s = {x_s:.3e} m (a_s = {a_s:.3e})")
    Omega_m = omega_m + derived.A_q / (derived.mass * omega_m)
    G = (np.sqrt(2.0 * CODATA2018.hbar / (derived.mass * omega_m))
         * derived.k * derived.g * a_s * np.sin(2.0 * derived.k * x_s))
    return OperatingPoint(
        x_s=float(x_s), a_s=float(a_s), omega_m=float(omega_m),
        Omega_m=float(Omega_m), delta_eff=float(delta_eff), G=float(G),
        A_q=derived.A_q,
        residual=float(force_balance(x_s, derived, delta0, c0)))


def _scan_grid(derived: DerivedParams, resonant: bool = False):
    """The ascending scan grid and the bisection tolerance, BISECT_REL_TOL
    of the trap interval width.

    The force balance is scanned on N_SCAN points across the trap
    interval.  The resonance mismatch is even in x, bit for bit, so both
    signs of C0 scan N_SCAN_RESONANT points on [0, pi/4k);
    `_resonant_plan` mirrors the root onto the side of -C0.
    """
    half = np.pi / (4.0 * derived.k) * (1.0 - 1e-9)
    xs = (np.linspace(0.0, half, N_SCAN_RESONANT) if resonant
          else np.linspace(-half, half, N_SCAN))
    return xs, BISECT_REL_TOL * (2.0 * half)


def _scan_hits(block, n_cells):
    """The grid zeros and sign changes of n_cells functions on one grid.

    block(rows) evaluates the functions of the cells in the slice rows on
    the whole grid, as a [cells, grid] array; it is called for SCAN_CHUNK
    cells at a time, which bounds the temporaries.  Returns the cell, the
    grid index i, the value there and the exact-zero flag of every grid
    zero and of every sign change between i and i + 1, as flat arrays
    ordered by cell and then by i.  Signs are compared, not values
    multiplied, so no product can overflow or underflow to zero.
    """
    hits = []
    for first in range(0, n_cells, SCAN_CHUNK):
        fs = block(slice(first, first + SCAN_CHUNK))
        neg, pos = fs < 0.0, fs > 0.0
        hit = fs == 0.0
        hit[:, :-1] |= (neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:])
        cell, i = np.divmod(np.flatnonzero(hit), fs.shape[1])
        f_i = fs[cell, i]
        hits.append((cell + first, i, f_i, f_i == 0.0))
    return hits[0] if len(hits) == 1 else tuple(map(np.concatenate, zip(*hits)))


def _bisect(fun, a, b, fa, tol_x):
    """Bisect [a, b], fa = fun(a), on Python floats down to tol_x."""
    while b - a > tol_x:
        mid = 0.5 * (a + b)
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if fa < 0.0 < fm or fm < 0.0 < fa:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def scan_roots(derived: DerivedParams, delta0: float, c0: float):
    """All force-balance roots in the open trap interval, ascending:
    `_scan_cells` on the one cell."""
    return _scan_cells(derived, *np.array([(delta0, c0, derived.A_q)]).T)[0]


def _candidates(derived: DerivedParams, delta0: float, c0: float, roots):
    """The operating points the stability screen builds models for, in order.

    roots is None for a decoupled input (A_q = 0 or C0 = 0): its one
    candidate is x_s = 0 and any error there propagates.  Otherwise the
    roots are taken in order of |x_s|, a root with negative trap
    curvature is skipped, and a root whose residual exceeds the bound
    ends the list.  Returns the (op, damped derived) pairs and the error
    the screen raises once it reaches the end of the list, or None.
    """
    if roots is None:
        op = operating_point_at(derived, delta0, c0, 0.0)
        return [(op, derived.with_damping(op.omega_m))], None
    if not roots:
        raise NoRootInInterval(
            f"no force-balance root in (-pi/4k, pi/4k) at delta0 = {delta0:.6e}")
    tol = RESIDUAL_REL_TOL * residual_scale(derived, c0)
    pairs = []
    for x_root in sorted(roots, key=abs):
        try:
            op = operating_point_at(derived, delta0, c0, x_root)
        except UnstableTrap:
            continue
        if abs(op.residual) > tol:
            return pairs, NumericalError(
                f"root refinement residual {op.residual:.3e} exceeds {tol:.3e}")
        pairs.append((op, derived.with_damping(op.omega_m)))
    return pairs, None


def _screen(models, end_error, delta0: float, screened: bool):
    """The first Hurwitz model of `models` (or the first, unscreened).

    models yields the candidates' models in screen order, or the
    NumericalError building one raised; an error reached before an
    accepted model is raised.  Past the last model, end_error is raised,
    else AllRootsUnstable or NoRootInInterval.
    """
    unstable_seen = 0
    for model in models:
        if isinstance(model, NumericalError):
            raise model
        if model.stable or not screened:
            return model
        unstable_seen += 1
    if end_error is not None:
        raise end_error
    if unstable_seen:
        raise AllRootsUnstable(
            f"{unstable_seen} root(s) found, none Hurwitz at delta0 = {delta0:.6e}")
    raise NoRootInInterval(
        f"no admissible root at delta0 = {delta0:.6e}")


def solve_model(derived: DerivedParams, delta0: float,
                c0: float) -> dynamics.StateSpaceModel:
    """Solve the force balance and return the model at the selected root.

    Among the roots, taken in order of |x_s|, the first whose drift matrix
    is Hurwitz (damping from the attached closure at its omega_m) wins;
    the model built by that screen is returned, its `derived` completed
    with the damping.

    The degenerate decoupled inputs A_q = 0 (no bound charge or no ring
    charge) and C0 = 0 yield x_s = 0 exactly; their model is returned
    unscreened, since instability there is a verdict, not an error.

    The solve is that of `solve_models` on the one cell.
    """
    return _one_cell(solve_models, (derived, delta0, c0))


def _one_cell(solver, cell):
    """The entry of solver([cell]), raised if it is an error."""
    outcome, = solver([cell])
    if isinstance(outcome, LevringError):
        raise outcome
    return outcome


def _bisect_all(fun, a, b, fa, tol_x):
    """`_bisect` on arrays of brackets in lock step, bit for bit.

    fun(x, idx) evaluates at x the functions of brackets idx.  Every
    bracket takes the scalar loop's steps: mid = 0.5 (a + b), an exact
    zero ends it at mid, the signs of fa and fm pick the half, and it
    ends at 0.5 (a + b) once b - a <= tol_x.
    """
    root = 0.5 * (a + b)
    idx = np.flatnonzero(b - a > tol_x)
    a, b, fa = a[idx], b[idx], fa[idx]
    while idx.size:
        mid = 0.5 * (a + b)
        fm = fun(mid, idx)
        left = (fa < 0.0) & (fm > 0.0) | (fa > 0.0) & (fm < 0.0)
        b = np.where(left, mid, b)
        a = np.where(left, a, mid)
        fa = np.where(left, fa, fm)
        hit = fm == 0.0
        root[idx] = np.where(hit, mid, 0.5 * (a + b))
        go = ~hit & (b - a > tol_x)
        idx, a, b, fa = idx[go], a[go], b[go], fa[go]
    return root


def _pow_cos2(kx):
    """cos(kx)^2 as a one-cell bisection forms it for a scalar x.

    There the bisection runs on Python floats, whose `** 2` is libm pow;
    that is an ulp away from the array square x * x on some arguments,
    so the lock-step bisections square each cosine as a Python float too.
    """
    return np.array([v ** 2 for v in np.cos(kx).tolist()])


def _hit_roots(xs, hits, fun, tol_x, n_cells):
    """The roots at the hits `_scan_hits` returns on the ascending grid
    xs, as one ascending list per cell.

    A grid zero is its own root; the brackets [xs[i], xs[i + 1]] of the
    sign changes are bisected from f_i.  One cell's are bisected in turn
    by `_bisect`, with fun(x) evaluating at a Python float; more cells'
    in lock step by `_bisect_all`, with fun(x, cells) evaluating the
    functions of the given cells at x.
    """
    cell, i, f_i, zero = hits
    if n_cells == 1:
        return [[float(xs[j]) if z
                 else _bisect(fun, float(xs[j]), float(xs[j + 1]), f, tol_x)
                 for j, f, z in zip(i.tolist(), f_i.tolist(), zero.tolist())]]
    found = xs[i]
    bracket = np.flatnonzero(~zero)
    lo = i[bracket]
    found[bracket] = _bisect_all(lambda x, idx: fun(x, cell[bracket[idx]]),
                                 xs[lo], xs[lo + 1], f_i[bracket], tol_x)
    roots = [[] for _ in range(n_cells)]
    for c, x in zip(cell.tolist(), found.tolist()):
        roots[c].append(x)
    return roots


def _scan_cells(derived: DerivedParams, delta0, c0, a_q):
    """The force-balance roots of cells that differ only in the arrays
    delta0, c0 and A_q, as one ascending list per cell.

    The grid's cos^2(kx) and sin(2kx) are evaluated once; the force
    balance of SCAN_CHUNK cells at a time is evaluated on the N_SCAN-point
    grid, and every sign change is bisected (`_hit_roots`) down to
    BISECT_REL_TOL of the interval width.
    """
    xs, tol_x = _scan_grid(derived)
    k, balance = derived.k, _balance(derived)
    cos2, sin_2kx = np.cos(k * xs) ** 2, np.sin(2.0 * k * xs)
    hits = _scan_hits(
        lambda rows: balance(xs, cos2, sin_2kx, delta0[rows, None],
                             c0[rows, None], a_q[rows, None]),
        len(delta0))
    if len(delta0) == 1:
        d0, c, a = delta0.item(), c0.item(), a_q.item()
        cos, sin = math.cos, math.sin

        def bisected(x):
            return balance(x, cos(k * x) ** 2, sin(2.0 * k * x), d0, c, a)
    else:
        def bisected(x, at):
            return balance(x, _pow_cos2(k * x), np.sin(2.0 * k * x),
                           delta0[at], c0[at], a_q[at])

    return _hit_roots(xs, hits, bisected, tol_x, len(delta0))


def _shared(cells, names):
    """The constants of the first cell, or None for no cells; ValueError
    unless those of every cell agree with them in the attributes `names`."""
    get = operator.attrgetter(*names)
    ref = cells[0][0] if cells else None
    if any(get(d) != get(ref) for d, _, _ in cells):
        raise ValueError(
            f"cells must share {', '.join(names[:-1])} and {names[-1]}")
    return ref


def _screen_plans(cells, plans, screened):
    """`_screen` over the plans of a grid of cells, lazily.

    plans[i] is cell i's (pairs, end_error), as `_candidates` returns
    them, or the error making them raised; screened[i] says
    whether cell i's models are screened.  Entry i of the returned
    iterator is the model `_screen` accepts for cell i, or the
    NumericalError it raises; each cell is screened as it is reached.
    One cell's models are built in turn by `dynamics.build_model` as the
    screen reaches them; for more cells one Durand-Kerner run finds the
    eigenvalues of every candidate at the call (`dynamics.build_models`).
    """
    plans = [([], plan) if isinstance(plan, LevringError) else plan
             for plan in plans]
    if len(plans) == 1:
        models = iter([(dynamics.build_model(op, d) for op, d in plans[0][0])])
    else:
        pairs = [pair for cell_pairs, _ in plans for pair in cell_pairs]
        built = dynamics.build_models([op for op, _ in pairs],
                                      [d for _, d in pairs])
        models = ([next(built) for _ in cell_pairs] for cell_pairs, _ in plans)
    return (caught(_screen, cell_models, end_error, delta0, screen)
            for cell_models, (_, end_error), (_, delta0, _), screen
            in zip(models, plans, cells, screened))


def solve_models(cells):
    """The steady-state model of each of a grid of cells, at once.

    cells is a sequence of (derived, delta0, c0) whose constants share
    k, g, E_drive and kappa; the cells of a stability map differ only
    in delta0, c0, A_q and the ring charge.  Returns an iterator whose
    entry i is the model screened at cell i's selected root (see
    `solve_model`, the one-cell case), or the NumericalError it raises.

    The root scan of all cells runs as arrays (see `_scan_cells`) at the
    call, and so, for more than one cell, does the Durand-Kerner run
    for the candidate roots of every cell (`_screen_plans`); the
    operating points, residual checks and Routh-Hurwitz values are
    scalar code per candidate.
    """
    ref = _shared(cells, ("k", "g", "E_drive", "kappa"))
    # a decoupled cell, A_q = 0 or C0 = 0, is not scanned
    scanned = [i for i, (d, _, c0) in enumerate(cells)
               if d.A_q != 0.0 and c0 != 0.0]
    roots = {}
    if scanned:
        delta0, c0, a_q = np.array([(cells[i][1], cells[i][2],
                                     cells[i][0].A_q) for i in scanned]).T
        roots = dict(zip(scanned, _scan_cells(ref, delta0, c0, a_q)))
    plans = [caught(_candidates, *cell, roots.get(i))
             for i, cell in enumerate(cells)]
    return _screen_plans(cells, plans, [i in roots for i in range(len(cells))])


def solve_xs(derived: DerivedParams, delta0: float,
             c0: float) -> OperatingPoint:
    """Operating point of the root `solve_model` selects."""
    return solve_model(derived, delta0, c0).op


def _mismatch(derived: DerivedParams):
    """The cleared resonance mismatch, mismatch(cos^2(kx), cos(2kx),
    delta0), formed and evaluated like `_balance`."""
    lhs_scale = (8.0 * CODATA2018.hbar * derived.g * derived.k ** 2
                 * derived.E_drive ** 2)
    kappa2, mass = derived.kappa ** 2, derived.mass

    def mismatch(cos2, cos_2kx, delta0):
        delta = _detuning(derived, delta0, cos2)
        return (lhs_scale * cos_2kx / (kappa2 + 4.0 * delta * delta)
                - mass * delta * delta)
    return mismatch


def _resonant_plan(derived: DerivedParams, delta0: float, c0: float,
                   x_root: Optional[float]):
    """The one-candidate screen plan of the resonance root x_root on the
    half-grid (None: no root).

    Its candidate is the operating point at the mirror of x_root on the
    side of -C0, with the constants carrying the solved charge and the
    damping there; its end error is the UnstableResonance a non-Hurwitz
    model gives.
    """
    if x_root is None:
        raise NoResonantSolution(
            f"resonance condition has no root at delta0 = {delta0:.6e}")
    x_s = -x_root if c0 > 0.0 else x_root
    hbar = CODATA2018.hbar
    k, g, E, kap = derived.k, derived.g, derived.E_drive, derived.kappa
    delta = _detuning(derived, delta0, np.cos(k * x_s) ** 2)
    if delta <= 0.0:
        raise NoResonantSolution(
            f"effective detuning {delta:.3e} not on the stable sideband")
    a_q = (-4.0 * hbar * g * k * E ** 2 * np.sin(2.0 * k * x_s)
           / ((kap ** 2 + 4.0 * delta * delta) * (x_s + c0)))
    if a_q < 0.0:
        raise NoResonantSolution(
            "force balance at the resonant point needs a negative ring charge")
    geom = 4.0 * np.pi * CODATA2018.eps0 * derived.ring_radius ** 3
    resolved = dataclasses.replace(derived, A_q=a_q,
                                   ring_charge=a_q * geom / derived.q_mcp)
    op = operating_point_at(resolved, delta0, c0, x_s)
    return ([(op, resolved.with_damping(op.omega_m))], UnstableResonance(
        f"resonant point at delta0 = {delta0:.6e} is not Hurwitz"))


def solve_resonant_ring_charge(derived: DerivedParams, delta0: float,
                               c0: float) -> dynamics.StateSpaceModel:
    """Ring charge putting the effective detuning on the mechanical sideband.

    Strategy: at fixed Delta0 solve the resonance condition (in cleared
    form, 8 hbar g k^2 E^2 cos(2kx) / (kappa^2 + 4 Delta(x)^2) =
    m Delta(x)^2, equivalent to omega_m = Delta(x_s)) for x_s on the
    half-interval whose sign makes the ring charge positive, then read Q
    off the force balance.

    The condition is even in x, so the mismatch is evaluated at once on
    the ascending grid from x = 0 outward, its first grid root other
    than x = 0 itself is taken (`_resonance_roots`), and `op.x_s` is
    that root negated for C0 > 0.  Returns the screened model at that
    point; its `derived` carries the solved `ring_charge` and `A_q` and
    the damping at `op.omega_m`.

    The solve is that of `solve_resonant_models` on the one cell.
    """
    return _one_cell(solve_resonant_models, (derived, delta0, c0))


def _resonance_roots(derived: DerivedParams, delta0):
    """The half-grid resonance root of each of the cells that differ only
    in the array delta0, or None where there is none.

    The grid's cos^2(kx) and cos(2kx) are evaluated once.  A cell's root
    is at its first `_scan_hits` hit other than the grid zero x = 0,
    bisected by `_hit_roots`.
    """
    xs, tol_x = _scan_grid(derived, resonant=True)
    k, mismatch = derived.k, _mismatch(derived)
    cos2, cos_2kx = np.cos(k * xs) ** 2, np.cos(2.0 * k * xs)
    cell, i, f_i, zero = _scan_hits(
        lambda rows: mismatch(cos2, cos_2kx, delta0[rows, None]),
        len(delta0))
    taken = ~(zero & (i == 0))
    cell, first = np.unique(cell[taken], return_index=True)
    hits = (cell, *(v[taken][first] for v in (i, f_i, zero)))
    if len(delta0) == 1:
        d0, cos = delta0.item(), math.cos

        def bisected(x):
            return mismatch(cos(k * x) ** 2, cos(2.0 * k * x), d0)
    else:
        def bisected(x, at):
            return mismatch(_pow_cos2(k * x), np.cos(2.0 * k * x),
                            delta0[at])

    return [roots[0] if roots else None for roots in
            _hit_roots(xs, hits, bisected, tol_x, len(delta0))]


def solve_resonant_models(cells):
    """The resonant-charge model of each of a grid of cells, at once.

    cells is a sequence of (derived, delta0, c0) whose constants share
    k, g, E_drive, kappa and mass, the constants of the resonance
    condition.  Returns an iterator whose entry i is the screened model
    at cell i's resonant point (see `solve_resonant_ring_charge`, the
    one-cell case), or the NumericalError it raises.

    The resonance scan of all cells runs as arrays (see
    `_resonance_roots`) at the call, and so, for more than one cell,
    does the Durand-Kerner run for every resonant point
    (`_screen_plans`); the charge, the operating point and their checks
    are scalar code per cell.
    """
    ref = _shared(cells, ("k", "g", "E_drive", "kappa", "mass"))
    plans = [None if c0 != 0.0 and d.q_mcp != 0.0 else NoResonantSolution(
        "resonance matching needs C0 != 0 and a nonzero bound charge")
        for d, _, c0 in cells]
    scanned = [i for i, plan in enumerate(plans) if plan is None]
    if scanned:
        delta0 = np.array([cells[i][1] for i in scanned])
        for i, x_root in zip(scanned, _resonance_roots(ref, delta0)):
            plans[i] = caught(_resonant_plan, *cells[i], x_root)
    return _screen_plans(cells, plans, [True] * len(cells))


def integrate_mean_field(derived: DerivedParams, delta0: float, c0: float,
                         *, initial_state, gamma: float,
                         t_max: Optional[float] = None) -> MeanFieldResult:
    """Relax the classical (noise-free) mean field and report its rest point.

    Fixed-step RK4 on (x, p, a) with the optical-gradient force, the ring
    force and viscous damping gamma; serves as the dynamical cross-check
    on `solve_model`.  Averages over oscillation windows; converged when
    the window amplitude falls below 1e-4 wavelengths and the window mean
    moves by less than 1e-5 wavelengths.

    The rest point does not depend on gamma, so strongly underdamped
    configurations are best verified with an artificially raised gamma;
    at the physical damping of a levitated sphere the envelope
    contraction time is astronomically long.  The integrator relaxes
    into whatever basin initial_state = (x, p, a) selects: start inside
    the trap interval (e.g. a coarse root estimate with the matching
    clamped-cavity field) when a strong ring force makes the well at
    x = -C0 competitive.

    Raises NotConverged if the envelope has not contracted by t_max.
    """
    wavelength = 2.0 * np.pi / derived.k
    x0, p0, a0 = initial_state
    a0 = complex(a0)

    a_s0 = steady_amplitude(derived, _detuning(derived, delta0, 1.0))
    omega_est = mechanical_frequency(derived, a_s0, 0.0)
    omega_ref = omega_est if omega_est > 0.0 else derived.kappa
    dt = min(0.01 / derived.kappa, 0.01 / omega_ref)
    if t_max is None:
        t_max = 4000.0 / derived.kappa
    amp_tol = 1e-4 * wavelength
    mean_tol = 1e-5 * wavelength

    window_steps = max(64, int(math.ceil(3.0 * 2.0 * np.pi / omega_ref / dt)))
    n_windows = max(2, int(math.ceil(t_max / (window_steps * dt))))

    state = (x0, p0, a0.real, a0.imag)
    hbar_g, slope = CODATA2018.hbar * derived.g, _detuning(derived, 0.0, 1.0)
    times, means, amps = [], [], []
    p_mean = 0.0
    a_mean = 0.0 + 0.0j
    prev_mean = None
    converged = False
    t = 0.0
    for _ in range(n_windows):
        out = mean_field_chunk(state, window_steps, dt, derived.mass, gamma,
                               hbar_g, derived.k, derived.kappa, delta0,
                               slope, derived.E_drive, derived.A_q, c0,
                               derived.ring_radius)
        state = out[:4]
        x_min, x_max, x_sum, p_sum, ar_sum, ai_sum = out[4:]
        t += window_steps * dt
        amp = x_max - x_min
        mean_x = x_sum / window_steps
        p_mean = p_sum / window_steps
        a_mean = complex(ar_sum / window_steps, ai_sum / window_steps)
        times.append(t)
        means.append(mean_x)
        amps.append(amp)
        if (amp < amp_tol and prev_mean is not None
                and abs(mean_x - prev_mean) < mean_tol):
            converged = True
            break
        prev_mean = mean_x
    if not converged:
        raise NotConverged(
            f"mean-field envelope still {amps[-1]:.3e} m wide at t = {t:.3e} s "
            f"(tolerance {amp_tol:.3e} m)")
    return MeanFieldResult(
        x_bar=means[-1], p_bar=p_mean, a_bar=a_mean, t_final=t,
        window_times=np.array(times), window_means=np.array(means),
        window_amps=np.array(amps))
