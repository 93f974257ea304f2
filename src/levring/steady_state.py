"""Constrained steady state of the driven sphere-cavity system.

The equilibrium displacement x_s zeroes the force balance

    f(x) = A_q (C0 + x) + hbar g k E^2 sin(2kx) / (kappa^2/4 + Delta(x)^2),

with Delta(x) = Delta0 + g cos^2(kx), restricted to the trap interval
(-pi/4k, pi/4k) where the optical curvature cos(2kx) stays positive.
Its ring term is the linear spring of the ring's force -q E(x) (see
`model` for the sign); the mean-field kernel keeps the full on-axis
force A_q s (1 + u^2)^(-3/2), s = C0 + x, u = s/R, a relative 1.5 u^2
away.
Roots are located by `_grid_roots`, the grid finder of the force balance
and of the resonance mismatch alike: it finds every grid zero and sign
change and bisects each sign change (robust against the multi-root
structure of the transcendental balance).  The roots are then screened
for stability of the linearised dynamics.  The screen builds the
state-space model of each candidate; the solvers return the model of the
accepted root, so spectra and entanglement read the very model that was
screened.  One orchestration serves a point and every grid of cells
(`pipeline.solve_grid`; a point is its grid with no axes):
`solve_models`.  The cell count picks the kernels in one place only,
`_grid_roots`.  One cell is evaluated on the whole grid and bisects
with `_bisect` on Python floats; more cells are evaluated on every
16th grid point, and on the fine grid only where a
slope bound cannot rule out a hit (`_scan_hits`, which gives the whole
grid's hits), and bisect in lock step (`_bisect_all`).  Both give the
one-cell bits, by construction, since every cos^2(kx) is the correctly
rounded product c * c of c = cos(kx) (`_detuning`).  The models of
every candidate of every cell, one cell's too, are built in one batch
with one stacked `np.linalg.eigvals` call (`_screen_plans`).
`_grid_tables` is the one cache, of the grids and columns.

Two further solvers live here: the resonance-matching solver that picks
the ring charge Q making the effective detuning equal the mechanical
frequency (`solve_resonant_models`), and the classical mean-field
integrator used as an independent dynamical check on the root finder.
"""
from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics
from ._kernels import mean_field_chunk
from .constants import CODATA2018
from .errors import (AllRootsUnstable, LevringError,
                     NoResonantSolution, NoRootInInterval, NotConverged,
                     NumericalError, UnstableResonance, UnstableTrap, caught,
                     one)
from .model import DerivedParams, _guard, _guarded, _record, _ring_geometry

N_SCAN = 4001
N_SCAN_RESONANT = 2001
BISECT_REL_TOL = 1e-15          # of the full interval width
RESIDUAL_REL_TOL = 1e-12
SCAN_STRIDE = 16                # grid steps per coarse scan interval
SCAN_CHUNK = 16                 # cells per coarse block of a scan
SCAN_SLACK = 2.0 ** -40         # of a cell's magnitude bound (`_scan_hits`)


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

    The caller squares the cosine, always as the correctly rounded product
    c * c of c = cos(kx): on Python floats in the per-candidate steps and
    the one-cell bisection, on arrays in the grid tables, the lock-step
    bisection and the vectorised `force_balance`.  So every cos^2(kx) in
    the package has the same bits, wherever it is formed.
    """
    return delta0 + derived.g * cos2


def _balance(derived: DerivedParams):
    """The force balance in newtons, balance(x, cos^2(kx), sin(2kx),
    (delta0, c0, A_q)), its x-independent factors formed once; it runs on
    Python floats and on broadcast arrays alike.

    balance.bound(params) is the (slope, slack) of each cell for
    `_scan_hits`: |f'| <= |A_q| plus the slope bound of the Lorentzian
    term (`_lorentzian_bound`, p = hbar g k E^2), and the magnitude bound
    B = |A_q| (|C0| + pi/4k) + p/q + p S r.  The closure also carries
    the grid's constant factors of other expressions, each the leading
    product of the left-to-right expression it stands in for, so every
    bit holds: optical_scale, the optical force scale
    4 hbar g k E^2 / kappa^2 of `residual_scale`, formed from p;
    trap_scale, the 2 hbar g k^2 of `mechanical_frequency`; and
    spring_scale and kappa2, the -4 hbar g k E^2 and kappa^2 of the
    resonant spring (`_resonant_plan`).
    """
    hbar_gkE2 = CODATA2018.hbar * derived.g * derived.k * derived.E_drive ** 2
    kappa2 = derived.kappa ** 2
    quarter_kappa2 = kappa2 / 4.0

    def balance(x, cos2, sin_2kx, params):
        delta0, c0, a_q = params
        delta = _detuning(derived, delta0, cos2)
        return (a_q * (c0 + x)
                + hbar_gkE2 * sin_2kx / (quarter_kappa2 + delta * delta))

    def bound(params):
        delta0, c0, a_q = params
        slope, size, _ = _lorentzian_bound(derived, hbar_gkE2, quarter_kappa2,
                                           delta0)
        ring = abs(a_q)
        return ring + slope, SCAN_SLACK * (
            ring * (abs(c0) + math.pi / (4.0 * derived.k)) + size)
    balance.bound = bound
    balance.optical_scale = hbar_gkE2 * 4.0 / kappa2
    balance.trap_scale = 2.0 * CODATA2018.hbar * derived.g * derived.k ** 2
    balance.spring_scale = (-4.0 * CODATA2018.hbar * derived.g * derived.k
                            * derived.E_drive ** 2)
    balance.kappa2 = kappa2
    return balance


def _lorentzian_bound(derived: DerivedParams, p, q, delta0):
    """Bounds over the trap interval on the Lorentzian term
    p trig(2kx) / (q + Delta(x)^2), p >= 0 and q = kappa^2/4, of both
    scanned equations, per cell: (slope, size, r).

    r = max |Delta(x)|: cos^2(kx) lies in [1/2, 1], so Delta(x) lies
    between Delta at cos^2 = 1/2 and at 1, and r = |Delta(3/4)| + |g|/4.
    With |trig| <= 1, |trig'| <= 2k and |Delta'| = |g k sin(2kx)| <= |g| k,
    the term's slope is at most slope = p (2k/q + S |g| k), where
        S = max_D |d/dD 1/(q + D^2)| = max_D 2|D| / (q + D^2)^2
          = 9 sqrt(q/3) / (8 q^2), taken at D^2 = q/3.
    size = p/q + p S r bounds the term and its rounding sensitivity to
    Delta (see `_scan_hits`).  Where S divides by zero or is not a normal
    float the bounds are nan, and a nan bound certifies nothing.
    """
    g = abs(derived.g)
    r = abs(_detuning(derived, delta0, 0.75)) + 0.25 * g
    steep = _guarded(lambda: 9.0 / (8.0 * math.sqrt(3.0 * q) * q))
    if not steep >= sys.float_info.min:         # nan, or subnormal: inexact
        return math.nan, math.nan, r
    k = derived.k
    return p * (2.0 * k / q + steep * g * k), p / q + p * steep * r, r


def force_balance(x, derived: DerivedParams, delta0: float, c0: float):
    """f(x) in newtons; vectorised over x."""
    c = np.cos(derived.k * x)
    return _balance(derived)(x, c * c, np.sin(2.0 * derived.k * x),
                             (delta0, c0, derived.A_q))


def residual_scale(derived: DerivedParams, c0: float, balance=None) -> float:
    """Magnitude against which the root residual is judged; balance is as
    in `operating_point_at`, its optical force scale formed once."""
    return max(abs(derived.A_q * c0),
               (balance or _balance(derived)).optical_scale)


def steady_amplitude(derived: DerivedParams, delta_eff: float) -> float:
    """Real positive intracavity amplitude 2E / sqrt(4 Delta^2 + kappa^2)."""
    return 2.0 * derived.E_drive / math.sqrt(4.0 * delta_eff ** 2
                                             + derived.kappa ** 2)


def mechanical_frequency(derived: DerivedParams, a_s: float, x_s: float,
                         balance=None) -> float:
    """Optical-trap frequency sqrt(2 hbar g k^2 a_s^2 cos(2 k x_s) / m);
    balance is as in `operating_point_at`, its trap_scale 2 hbar g k^2.

    The radicand overflows to inf without a warning, as Python-float
    products do; unless it is finite, `_guard` raises ConfigInvalid
    naming the config fields of g, k, mass and of E_drive and kappa,
    which bound a_s <= 2 E_drive / kappa.
    """
    c2 = math.cos(2.0 * derived.k * x_s)
    if c2 < 0.0:
        raise UnstableTrap(
            f"cos(2 k x_s) = {c2:.3e} < 0 at x_s = {x_s:.3e} m")
    radicand = ((balance or _balance(derived)).trap_scale
                * (a_s * a_s) * c2 / derived.mass)
    return math.sqrt(_guard("trap radicand", radicand, "finite", derived.cfg))


def cavity_steady_field(derived: DerivedParams, delta0: float, x: float) -> complex:
    """Steady intracavity field for the sphere clamped at x (complex)."""
    c = math.cos(derived.k * x)
    h = _detuning(derived, delta0, c * c)
    return -1j * derived.E_drive / (derived.kappa / 2.0 - 1j * h)


def operating_point_at(derived: DerivedParams, delta0: float, c0: float,
                       x_s: float, balance=None) -> OperatingPoint:
    """Close the steady-state definitions over a given displacement, on
    Python floats; the residual is `_balance` on the same cos^2(kx) and
    sin(2kx).  balance, if given, is the `_balance` of constants that
    share k, g, E_drive and kappa with derived, formed once per grid.

    Omega_m = omega_m + A_q / (m omega_m) passes `_guard`: unless it is
    finite, ConfigInvalid names it and its config fields."""
    balance = balance or _balance(derived)
    c = math.cos(derived.k * x_s)
    cos2, sin_2kx = c * c, math.sin(2.0 * derived.k * x_s)
    delta_eff = _detuning(derived, delta0, cos2)
    a_s = steady_amplitude(derived, delta_eff)
    omega_m = mechanical_frequency(derived, a_s, x_s, balance)
    if omega_m <= 0.0:
        raise UnstableTrap(
            f"vanishing trap frequency at x_s = {x_s:.3e} m (a_s = {a_s:.3e})")
    # overflows to inf without a warning; nan where m omega_m is 0
    Omega_m = omega_m + _guarded(operator.truediv, derived.A_q,
                                 derived.mass * omega_m)
    _guard("Omega_m", Omega_m, "finite", derived.cfg, omega_m)
    G = (math.sqrt(2.0 * CODATA2018.hbar / (derived.mass * omega_m))
         * derived.k * derived.g * a_s * sin_2kx)
    return _record(
        OperatingPoint, x_s=x_s, a_s=a_s, omega_m=omega_m, Omega_m=Omega_m,
        delta_eff=delta_eff, G=G, A_q=derived.A_q,
        residual=balance(x_s, cos2, sin_2kx, (delta0, c0, derived.A_q)))


# trig(2kx) of each scan as (Python-float, array) functions: sin(2kx) in
# the force balance, cos(2kx) in the resonance mismatch (resonant)
_TRIG = {False: (math.sin, np.sin), True: (math.cos, np.cos)}


@functools.lru_cache(maxsize=8)
def _grid_tables(k: float, resonant: bool):
    """(tol_x, tables) of the scan grid at wavenumber k, built once per
    (k, resonant) and shared read-only: tables is the `_two_pass_tables`
    view of the grid (xs, cos^2(kx), trig(2kx)).

    The force balance is scanned on N_SCAN points across the trap
    interval, trig = sin(2kx).  The resonance mismatch is even in x, bit
    for bit, so both signs of C0 scan N_SCAN_RESONANT points on
    [0, pi/4k), trig = cos(2kx); `_resonant_plan` mirrors the root onto
    the side of -C0.  tol_x is BISECT_REL_TOL of the interval width.
    """
    half = np.pi / (4.0 * k) * (1.0 - 1e-9)
    xs = (np.linspace(0.0, half, N_SCAN_RESONANT) if resonant
          else np.linspace(-half, half, N_SCAN))
    c = np.cos(k * xs)
    grid = (xs, c * c, _TRIG[resonant][1](2.0 * k * xs))
    for table in grid:
        table.flags.writeable = False
    return BISECT_REL_TOL * (2.0 * half), _two_pass_tables(grid)


def _two_pass_tables(grid, stride=SCAN_STRIDE):
    """(grid, coarse, fine, width) of `_scan_hits` over a grid's tables
    grid = (x, cos^2(kx), trig(2kx)).

    coarse holds every stride-th entry of each table, both ends
    included; row j of a fine table holds the stride + 1 entries of
    coarse interval j, grid indices j stride to (j + 1) stride; width is
    the widest coarse interval.  stride must divide the grid's steps.
    """
    steps = len(grid[0]) - 1
    if steps % stride:
        raise ValueError(f"stride {stride} does not divide {steps} grid steps")
    coarse = tuple(np.ascontiguousarray(t[::stride]) for t in grid)
    rows = np.arange(0, steps, stride)[:, None] + np.arange(stride + 1)
    fine = tuple(t[rows] for t in grid)
    for table in coarse + fine:
        table.flags.writeable = False
    return grid, coarse, fine, float(np.max(np.diff(coarse[0])))


def _hit_mask(fs):
    """Along the last axis of fs, the points that are exact zeros or whose
    sign differs from the next point's.  Signs are compared, not values
    multiplied, so no product can overflow or underflow to zero."""
    neg, pos = fs < 0.0, fs > 0.0
    hit = fs == 0.0
    hit[..., :-1] |= ((neg[..., :-1] & pos[..., 1:])
                      | (pos[..., :-1] & neg[..., 1:]))
    return hit


def _scan_hits(fun, tables, params):
    """The grid zeros and sign changes of cells' functions on one grid.

    fun(x, cos^2(kx), trig(2kx), params) is a cell's function, params a
    tuple of arrays of one value per cell, and tables the
    `_two_pass_tables` of the grid.  Returns the cell, the grid index i,
    the value there and the exact-zero flag of every grid zero and of
    every sign change between i and i + 1 (`_hit_mask`), as flat arrays
    ordered by cell and then by i.

    The hits are those of the whole-grid evaluation, bit for bit, from
    two passes that evaluate the fine grid only where a slope bound
    cannot rule a hit out:
    - coarse pass: f on every coarse point, SCAN_CHUNK cells at a time,
      which bounds the temporaries.  Gathered from the grid's tables,
      each value has the bits of the whole-grid evaluation.  A coarse
      interval [a, b], of width at most H, is certified free of hits
      when |F_a| + |F_b| > L H + slack (a Lipschitz exclusion test;
      Moore, Interval Analysis, 1966), where (L, slack) = fun.bound(params)
      per cell.  A nan or an infinity certifies nothing;
    - fine pass: the stride + 1 points of each uncertified interval are
      evaluated, SCAN_CHUNK * SCAN_STRIDE intervals at a time, and the
      hit rule applied there.  An interval's last point is the next
      one's first, so a zero there is counted by the next interval, or
      by the last one at the end of the grid.

    Why the hits are exact.  Let f be the function in exact arithmetic at
    the stored grid points, |f'| <= L, and let each computed value lie
    within E of f.  If f vanished at z in [a, b], |f(a)| + |f(b)| <=
    L (z - a) + L (b - z) <= L H; so computed values of opposite signs,
    or a zero at an end, give |F_a| + |F_b| < L H + 3E.  If they share a
    sign and |F_a| + |F_b| - L H > 4E, f keeps that sign on [a, b] with
    |f| > (|F_a| + |F_b| - 2E - L H) / 2 > E, so every computed fine
    value keeps it and none is zero.  A slack of 4E plus the test's own
    rounding therefore drops no hit.  For the two equations (`_balance`,
    `_mismatch`; p, q, S and r as in `_lorentzian_bound`, m the mass,
    u = 2^-53, numpy's sin and cos within 4 ulp): each sin or cos entry
    is within 10u of its function and each cos^2 entry within 22u, so the
    computed Delta(x) is within 23u |g| + u r <= 93u r (r >= |g|/4); then
    the force balance is within
    u (3.2 |A_q| (|C0| + pi/4k) + 16.3 p/q + 94.5 p S r) <= 256u B and
    the mismatch within u (15.3 p/q + 94 p S r + 193 m r^2) <= 256u B,
    B being the cell's magnitude bound.  At stride 16, k H <= 0.0063, so
    L H <= 0.06 B and the test itself rounds within 5u B.  The slack
    SCAN_SLACK B = 2^-40 B = 8192u B is nearly eight times the
    4 x 256u B + 5u B needed.  The bounds assume that no intermediate
    value is subnormal.
    """
    _, coarse, fine, width = tables
    # a bound or a sum that overflows is inf and certifies nothing: the
    # fine pass evaluates its intervals again, and warns of an overflow
    with np.errstate(over="ignore"):
        slope, slack = fun.bound(params)
        limit = (slope * width + slack)[:, None]
        spans = []
        for first in range(0, len(params[0]), SCAN_CHUNK):
            rows = slice(first, first + SCAN_CHUNK)
            ends = np.abs(fun(*coarse, tuple(p[rows, None] for p in params)))
            ends = ends[:, :-1] + ends[:, 1:]
            cell, j = np.nonzero(~((ends > limit[rows]) & (ends < np.inf)))
            spans.append((cell + first, j))
    cells, opened = map(np.concatenate, zip(*spans))
    hits, block = [], SCAN_CHUNK * SCAN_STRIDE
    for first in range(0, max(len(opened), 1), block):  # once if none open
        cell, j = cells[first:first + block], opened[first:first + block]
        fs = fun(*(t[j] for t in fine), tuple(p[cell, None] for p in params))
        hit = _hit_mask(fs)
        hit[:, -1] &= j == len(fine[0]) - 1
        row, at = np.nonzero(hit)
        f_i = fs[row, at]
        hits.append((cell[row], j[row] * (fs.shape[1] - 1) + at, f_i,
                     f_i == 0.0))
    return tuple(map(np.concatenate, zip(*hits)))


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
    `_grid_roots` on the one cell."""
    params = tuple(np.array([(delta0, c0, derived.A_q)]).T)
    return _grid_roots(derived.k, False, _balance(derived), params)[0]


def _candidates(derived: DerivedParams, delta0: float, c0: float, roots,
                balance=None):
    """The list the stability screen walks for one cell (`_screen`);
    balance is as in `operating_point_at`.

    roots is None for a decoupled input (A_q = 0 or C0 = 0): the list is
    its one candidate, x_s = 0, and any error there propagates.
    Otherwise the roots are taken in order of |x_s|, a root with negative
    trap curvature is skipped, and the (op, damped derived) candidates
    are followed by the error the cell gets when none is Hurwitz: the
    NumericalError of a root whose residual exceeds the bound, which
    ends the candidates; else AllRootsUnstable, or NoRootInInterval when
    no root is admissible.
    """
    if roots is None:
        op = operating_point_at(derived, delta0, c0, 0.0, balance)
        return [(op, derived.with_damping(op.omega_m))]
    if not roots:
        raise NoRootInInterval(
            f"no force-balance root in (-pi/4k, pi/4k) at delta0 = {delta0:.6e}")
    tol = RESIDUAL_REL_TOL * residual_scale(derived, c0, balance)
    entries = []
    for x_root in sorted(roots, key=abs):
        try:
            op = operating_point_at(derived, delta0, c0, x_root, balance)
        except UnstableTrap:
            continue
        if abs(op.residual) > tol:
            return entries + [NumericalError(
                f"root refinement residual {op.residual:.3e} exceeds {tol:.3e}")]
        entries.append((op, derived.with_damping(op.omega_m)))
    if entries:
        return entries + [AllRootsUnstable(
            f"{len(entries)} root(s) found, none Hurwitz at delta0 = "
            f"{delta0:.6e}")]
    return [NoRootInInterval(f"no admissible root at delta0 = {delta0:.6e}")]


def _screen(entries):
    """The model of one cell's list, its candidates' models built.

    entries holds, in screen order, models, the NumericalError building
    one raised, and the cell's terminal error (`_candidates`,
    `_resonant_plan`).  The first error reached is raised and the first
    stable model returned; else the last entry, a decoupled cell's one
    model, stable or not.
    """
    for entry in entries:
        if isinstance(entry, LevringError):
            raise entry
        if entry.stable:
            return entry
    return entry


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


def _grid_roots(k: float, resonant: bool, fun, params):
    """The roots of cells that differ only in params, a tuple of arrays
    of one value per cell, as one ascending list per cell.

    fun(x, cos^2(kx), trig(2kx), params) is the force balance
    (`_balance`) or, resonant, the resonance mismatch (`_mismatch`), and
    fun.bound its slope bound.  Its grid zeros, each its own root, and
    sign changes (`_hit_mask`) on the grid of `_grid_tables` are found
    for one cell on the whole grid, in fewer numpy calls than the two
    passes of `_scan_hits`, which more cells take, with the same hits.
    Every hit of every cell is a root, on either grid: `resonant` picks
    only the tables and the trig function.  The brackets
    [xs[i], xs[i + 1]] are bisected from f_i: one cell's on Python
    floats by `_bisect`, more cells' in lock step by `_bisect_all`, both
    squaring cos(kx) by product, as the tables do.
    """
    tol_x, tables = _grid_tables(k, resonant)
    xs = tables[0][0]
    float_trig, array_trig = _TRIG[resonant]
    if len(params[0]) == 1:
        fs = fun(*tables[0], params)
        i = np.flatnonzero(_hit_mask(fs))
        cell_params, cos = tuple(p.item() for p in params), math.cos

        def bisected(x):
            c = cos(k * x)
            return fun(x, c * c, float_trig(2.0 * k * x), cell_params)
        return [[float(xs[j]) if f == 0.0
                 else _bisect(bisected, float(xs[j]), float(xs[j + 1]), f,
                              tol_x)
                 for j, f in zip(i.tolist(), fs[i].tolist())]]
    cell, i, f_i, zero = _scan_hits(fun, tables, params)
    found = xs[i]
    bracket = np.flatnonzero(~zero)
    lo, at = i[bracket], cell[bracket]

    def bisected_all(x, idx):
        c = np.cos(k * x)
        return fun(x, c * c, array_trig(2.0 * k * x),
                   tuple(p[at[idx]] for p in params))
    found[bracket] = _bisect_all(bisected_all, xs[lo], xs[lo + 1],
                                 f_i[bracket], tol_x)
    roots = [[] for _ in range(len(params[0]))]
    for c, x in zip(cell.tolist(), found.tolist()):
        roots[c].append(x)
    return roots


def _shared(cells, names):
    """The constants of the first cell, or None for no cells; ValueError
    unless those of every cell agree with them in the attributes `names`."""
    get = operator.attrgetter(*names)
    ref = cells[0][0] if cells else None
    if any(get(d) != get(ref) for d, _, _ in cells):
        raise ValueError(
            f"cells must share {', '.join(names[:-1])} and {names[-1]}")
    return ref


def _screen_plans(plans):
    """`_screen` over the plans of a grid of cells.

    plans[i] is cell i's list, as `_candidates` or `_resonant_plan`
    returns it, or the error making it raised.  The models of every
    cell's candidates are built in one batch (`dynamics.build_models`);
    entry i of the returned list is the model `_screen` accepts for
    cell i, or the NumericalError it raises.
    """
    plans = [[plan] if isinstance(plan, LevringError) else plan
             for plan in plans]
    pairs = [entry for plan in plans for entry in plan
             if not isinstance(entry, LevringError)]
    built = iter(dynamics.build_models([op for op, _ in pairs],
                                       [d for _, d in pairs]))
    return [caught(_screen, [entry if isinstance(entry, LevringError)
                             else next(built) for entry in plan])
            for plan in plans]


def solve_models(cells):
    """The steady-state model of each of a grid of cells, at once.

    cells is a sequence of (derived, delta0, c0) whose constants share
    k, g, E_drive and kappa; the cells of a stability map differ only
    in delta0, c0, A_q and the ring charge.  Returns a list whose entry
    i is the model screened at cell i's selected root, or the
    NumericalError it raises; a point is the one-cell grid.

    Among a cell's roots, taken in order of |x_s|, the first whose drift
    matrix is Hurwitz (damping from the attached closure at its omega_m)
    wins; the model built by that screen is returned, its `derived`
    completed with the damping.  The degenerate decoupled inputs A_q = 0
    (no bound charge or no ring charge) and C0 = 0 yield x_s = 0
    exactly; their model is returned unscreened, since instability there
    is a verdict, not an error.

    The root scan of all cells runs as arrays (see `_grid_roots`) at the
    call, and so does the model build of the candidate roots of every
    cell, with one eigenvalue call (`_screen_plans`); the operating
    points, residual checks and Routh-Hurwitz values are
    scalar code per candidate, on Python floats: each cell's delta0 and
    c0 are cast once, here.
    """
    cells = [(d, float(delta0), float(c0)) for d, delta0, c0 in cells]
    ref = _shared(cells, ("k", "g", "E_drive", "kappa"))
    if ref is None:
        return []
    balance = _balance(ref)
    # a decoupled cell, A_q = 0 or C0 = 0, is not scanned
    scanned = [i for i, (d, _, c0) in enumerate(cells)
               if d.A_q != 0.0 and c0 != 0.0]
    roots = {}
    if scanned:
        params = tuple(np.array([(cells[i][1], cells[i][2], cells[i][0].A_q)
                                 for i in scanned]).T)
        roots = dict(zip(scanned, _grid_roots(ref.k, False, balance, params)))
    plans = [caught(_candidates, *cell, roots.get(i), balance)
             for i, cell in enumerate(cells)]
    return _screen_plans(plans)


def solve_xs(derived: DerivedParams, delta0: float,
             c0: float) -> OperatingPoint:
    """Operating point of the root `solve_models` selects on the one cell."""
    return one(solve_models([(derived, delta0, c0)])).op


def _mismatch(derived: DerivedParams):
    """The cleared resonance mismatch, mismatch(x, cos^2(kx), cos(2kx),
    (delta0,)), formed and evaluated like `_balance`; it ignores x.

    Its Lorentzian term is p cos(2kx) / (q + Delta^2) with p = 2 hbar g k^2
    E^2 and q = kappa^2/4, so mismatch.bound(params) gives, per cell,
    |f'| <= the term's slope bound (`_lorentzian_bound`) + 2 m |g| k r and
    the magnitude bound B = p/q + p S r + m r^2.
    """
    lhs_scale = (8.0 * CODATA2018.hbar * derived.g * derived.k ** 2
                 * derived.E_drive ** 2)
    kappa2, mass = derived.kappa ** 2, derived.mass

    def mismatch(x, cos2, cos_2kx, params):
        delta = _detuning(derived, params[0], cos2)
        return (lhs_scale * cos_2kx / (kappa2 + 4.0 * delta * delta)
                - mass * delta * delta)

    def bound(params):
        slope, size, r = _lorentzian_bound(derived, lhs_scale / 4.0,
                                           kappa2 / 4.0, params[0])
        return (slope + 2.0 * mass * abs(derived.g) * derived.k * r,
                SCAN_SLACK * (size + mass * r * r))
    mismatch.bound = bound
    return mismatch


def _resonant_plan(derived: DerivedParams, delta0: float, c0: float, roots,
                   balance=None):
    """The screen list of the resonance root on the half-grid, roots
    ascending as `_grid_roots` gives them; balance is as in
    `operating_point_at`.

    x_root is the first root other than the grid zero x = 0 (a bisected
    root is never exactly 0.0); with none, NoResonantSolution.  The
    candidate is the operating point at the mirror of x_root on the
    side of -C0, with the constants carrying the solved charge and the
    damping there, followed by the UnstableResonance a non-Hurwitz model
    gives.
    """
    x_root = next((x for x in roots if x != 0.0), None)
    if x_root is None:
        raise NoResonantSolution(
            f"resonance condition has no root at delta0 = {delta0:.6e}")
    x_s = -x_root if c0 > 0.0 else x_root
    balance = balance or _balance(derived)
    k = derived.k
    c = math.cos(k * x_s)
    delta = _detuning(derived, delta0, c * c)
    if delta <= 0.0:
        raise NoResonantSolution(
            f"effective detuning {delta:.3e} not on the stable sideband")
    # nan where the divisor is 0, which the guard on Omega_m then rejects
    a_q = _guarded(lambda: balance.spring_scale * math.sin(2.0 * k * x_s)
                   / ((balance.kappa2 + 4.0 * delta * delta) * (x_s + c0)))
    if a_q < 0.0:
        raise NoResonantSolution(
            "force balance at the resonant point needs a negative ring charge")
    # the record `dataclasses.replace` gives, without rerunning __init__
    resolved = _record(DerivedParams, derived.__dict__, A_q=a_q,
                       ring_charge=a_q * _ring_geometry(derived.ring_radius)
                       / derived.q_mcp)
    op = operating_point_at(resolved, delta0, c0, x_s, balance)
    return [(op, resolved.with_damping(op.omega_m)), UnstableResonance(
        f"resonant point at delta0 = {delta0:.6e} is not Hurwitz")]


def solve_resonant_models(cells):
    """The resonant-charge model of each of a grid of cells, at once.

    cells is a sequence of (derived, delta0, c0) whose constants share
    k, g, E_drive, kappa and mass, the constants of the resonance
    condition.  Returns a list whose entry i is the screened model at
    cell i's resonant point, or the NumericalError it raises; a point is
    the one-cell grid.

    Strategy: at fixed Delta0 solve the resonance condition (in cleared
    form, 8 hbar g k^2 E^2 cos(2kx) / (kappa^2 + 4 Delta(x)^2) =
    m Delta(x)^2, equivalent to omega_m = Delta(x_s)) for x_s on the
    half-interval whose sign makes the ring charge positive, then read Q
    off the force balance.  The condition is even in x, so the mismatch
    is scanned on the ascending grid from x = 0 outward, its first root
    other than x = 0 itself is taken (`_resonant_plan`), and `op.x_s` is
    that root negated for C0 > 0, the mirror onto the side of -C0.  The
    model's `derived` carries the solved `ring_charge` and `A_q` and the
    damping at `op.omega_m`.

    The resonance scan of all cells runs as arrays (see
    `_grid_roots`) at the call, and so does the model build of every
    resonant point, with one eigenvalue call (`_screen_plans`); the
    charge, the operating point and their checks
    are scalar code per cell, on Python floats: each cell's delta0 and c0
    are cast once, here.
    """
    cells = [(d, float(delta0), float(c0)) for d, delta0, c0 in cells]
    ref = _shared(cells, ("k", "g", "E_drive", "kappa", "mass"))
    plans = [None if c0 != 0.0 and d.q_mcp != 0.0 else NoResonantSolution(
        "resonance matching needs C0 != 0 and a nonzero bound charge")
        for d, _, c0 in cells]
    scanned = [i for i, plan in enumerate(plans) if plan is None]
    if scanned:
        params = (np.array([cells[i][1] for i in scanned]),)
        balance = _balance(ref)
        for i, roots in zip(scanned, _grid_roots(ref.k, True, _mismatch(ref),
                                                 params)):
            plans[i] = caught(_resonant_plan, *cells[i], roots, balance)
    return _screen_plans(plans)


def _mean_field_step(derived: DerivedParams, delta0: float):
    """(dt, window_steps) of `integrate_mean_field`: its RK4 step in s and
    the steps of one window, three periods of the trap frequency omega_ref
    (at least 60 pi > 188 steps, as dt <= 0.1 / omega_ref).

    The step is 0.1 over the fastest rate of the motion: the field decays
    at kappa/2 and rotates at |Delta(x)| <= |Delta0| + |g|, and the sphere
    oscillates at about omega_ref.  So each rate lambda of the linear
    motion has |h lambda| of about 0.1, far inside RK4's stability bound
    |h lambda| <= 2.83 on the imaginary axis (Hairer and Wanner, Solving
    ODEs II, sec. IV.2), and RK4 follows exp(h lambda) to a relative
    (h lambda)^5 / 120, about 1e-7, per step.  Without the rotation term
    a large detuning puts h |Delta| past that bound, and the field grows
    until the state leaves the float range.
    """
    a_s0 = steady_amplitude(derived, _detuning(derived, delta0, 1.0))
    omega_est = mechanical_frequency(derived, a_s0, 0.0)
    omega_ref = omega_est if omega_est > 0.0 else derived.kappa
    dt = 0.1 / max(derived.kappa, omega_ref, abs(delta0) + abs(derived.g))
    return dt, int(math.ceil(3.0 * 2.0 * np.pi / omega_ref / dt))


def integrate_mean_field(derived: DerivedParams, delta0: float, c0: float,
                         *, initial_state, gamma: float,
                         t_max: Optional[float] = None) -> MeanFieldResult:
    """Relax the classical (noise-free) mean field and report its rest point.

    Fixed-step RK4 on (x, p, a) with the optical-gradient force, the ring
    force and viscous damping gamma; serves as the dynamical cross-check
    on `solve_models`.  The step is dt = 0.1 / max(kappa, omega_ref,
    |Delta0| + |g|), a tenth of the time of the fastest rate in the motion
    (see `_mean_field_step`).  The step cannot bias the answer: a fixed
    point of the RK4 map with any step h is a zero of the right-hand side,
    so dt sets only the cost and how closely the transient is followed,
    not the rest point the window means converge to.

    Averages over windows of three mechanical periods; converged when the
    window amplitude falls below 1e-4 wavelengths and the window mean
    moves by less than 1e-5 wavelengths.

    The rest point does not depend on gamma, so strongly underdamped
    configurations are best verified with an artificially raised gamma;
    at the physical damping of a levitated sphere the envelope
    contraction time is astronomically long.  The integrator relaxes
    into whatever basin initial_state = (x, p, a) selects: start inside
    the trap interval (e.g. a coarse root estimate with the matching
    clamped-cavity field) when a strong ring force makes the well at
    x = -C0 competitive.

    Raises NotConverged if the envelope has not contracted by t_max;
    before any step if the two windows the stop rule needs do not fit in
    t_max; and if the state leaves the float range.
    """
    wavelength = 2.0 * np.pi / derived.k
    x0, p0, a0 = initial_state
    a0 = complex(a0)

    dt, window_steps = _mean_field_step(derived, delta0)
    if t_max is None:
        t_max = 4000.0 / derived.kappa
    amp_tol = 1e-4 * wavelength
    mean_tol = 1e-5 * wavelength

    window = window_steps * dt
    if 2.0 * window > t_max:
        raise NotConverged(
            f"the stop rule needs two windows of three mechanical periods, "
            f"{2.0 * window:.3e} s, beyond t_max = {t_max:.3e} s")
    n_windows = int(math.ceil(t_max / window))

    state = (x0, p0, a0.real, a0.imag)
    hbar_g, slope = CODATA2018.hbar * derived.g, _detuning(derived, 0.0, 1.0)
    times, means, amps = [], [], []
    prev_mean = None
    t = 0.0
    for _ in range(n_windows):
        try:
            out = mean_field_chunk(state, window_steps, dt, derived.mass,
                                   gamma, hbar_g, derived.k, derived.kappa,
                                   delta0, slope, derived.E_drive,
                                   derived.A_q, c0, derived.ring_radius)
            finite = all(map(math.isfinite, out))
        except ValueError:      # math.cos of an inf x
            finite = False
        if not finite:
            x, p, ar, ai = state
            raise NotConverged(
                f"mean-field state left the float range in the window from "
                f"t = {t:.3e} s, which started at x = {x!r} m, p = {p!r} "
                f"kg m/s, a = {complex(ar, ai)!r}")
        state = out[:4]
        x_min, x_max, x_sum, p_sum, ar_sum, ai_sum = out[4:]
        t += window
        amp = x_max - x_min
        mean_x = x_sum / window_steps
        times.append(t)
        means.append(mean_x)
        amps.append(amp)
        if (amp < amp_tol and prev_mean is not None
                and abs(mean_x - prev_mean) < mean_tol):
            break
        prev_mean = mean_x
    else:
        raise NotConverged(
            f"mean-field envelope still {amps[-1]:.3e} m wide at t = {t:.3e} s "
            f"(tolerance {amp_tol:.3e} m)")
    return MeanFieldResult(
        x_bar=means[-1], p_bar=p_sum / window_steps,
        a_bar=complex(ar_sum / window_steps, ai_sum / window_steps), t_final=t,
        window_times=np.array(times), window_means=np.array(means),
        window_amps=np.array(amps))
