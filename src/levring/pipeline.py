"""Glue: config -> derived constants -> operating point -> state-space model.

Every solve goes through `solve_grid`: a detuning axis, and optionally
a second axis (`AXES`), with the constants derived once per column.  The
stability map reads its cells' verdicts, and the entanglement sweep
reads its rows as `PointSolution`s (`solutions`).  `solve_point` is the
grid with no axes, the one cell at the configured detuning.  The grid
goes, as one batch, to the grid solver of the ring mode,
`steady_state.solve_models` or `steady_state.solve_resonant_models`.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .dynamics import StateSpaceModel
from .errors import ConfigError, LevringError, caught, one
from .model import (DerivedParams, SystemConfig, _guard, _record,
                    delta0_from_config, delta0_grid, derive_constants,
                    ring_field)
from .steady_state import (OperatingPoint, solve_models,
                           solve_resonant_models)

RING_MODES = ("fixed_charge", "resonant")
AXES = ("c0_over_lambda", "charge_scale")


@dataclass(frozen=True)
class PointSolution:
    derived: DerivedParams      # completed with damping at op.omega_m
    op: OperatingPoint
    model: StateSpaceModel      # built once, by the steady-state solver
    field_at_xs: float          # on-axis ring field at x_s, V/m


def solutions(cfg: SystemConfig, delta0_over_kappa=None,
              ring_mode: str = "fixed_charge"):
    """The PointSolution of each row of `solve_grid(cfg,
    delta0_over_kappa, ring_mode=ring_mode)`, or the NumericalError in
    its place.  The first ConfigError in order, of a row or of its ring
    field at x_s (`_guard`ed, named by the fields of the ring's charge:
    the configured one, or in resonant mode the solved one), is raised."""
    name = ("E_x at x_s" if ring_mode == "fixed_charge"
            else "E_x at the resonant x_s")
    rows = []
    for cell in solve_grid(cfg, delta0_over_kappa, ring_mode=ring_mode):
        if isinstance(cell, ConfigError):
            raise cell
        if not isinstance(cell, LevringError):
            field = _guard(name, ring_field(
                cell.op.x_s, cell.derived.ring_charge, cfg.ring_radius,
                cfg.ring_offset_c0), "finite", cfg)
            cell = _record(PointSolution, derived=cell.derived, op=cell.op,
                           model=cell, field_at_xs=field)
        rows.append(cell)
    return rows


def solve_point(cfg: SystemConfig,
                ring_mode: str = "fixed_charge") -> PointSolution:
    """Run the steady-state pipeline at the configured detuning.

    fixed_charge keeps the configured ring charge (`solve_models`);
    resonant re-solves the charge so the effective detuning sits on the
    mechanical sideband (`solve_resonant_models`).  Either solver returns
    the model its stability screen built; `derived` and `op` are read
    off it.  The solve is `solve_grid` with no axes.
    """
    return one(solutions(cfg, ring_mode=ring_mode))


def solve_grid(cfg: SystemConfig, delta0_over_kappa=None, axis=None,
               ring_mode: str = "fixed_charge"):
    """The model of `cfg` at each cell of a grid, or the LevringError
    solving it raises, in row order: one row per detuning of
    delta0_over_kappa, in linewidths, one cell per value of `axis`.

    delta0_over_kappa None is the one row at the configured detuning
    (`delta0_from_config`), with the constants of `cfg` as given.  A
    grid's constants are derived once, with its first detuning in place
    of the configured one (a ConfigInvalid, or the first detuning
    `delta0_grid` rejects, raises), so a sweep does not depend on the
    configured detuning.  axis is None or (name, values), name in AXES:
    C0 in wavelengths, or the ring charge in units of the configured
    one.  The constants are derived again per axis value with the ring
    charge pinned, so a C0 = 0 column is valid for a field-specified
    ring; a value whose constants fail fills its column with that error.
    charge_scale in resonant mode, whose solver picks the charge, is a
    ValueError, as is an unknown axis or ring mode.
    """
    if ring_mode not in RING_MODES:
        raise ValueError(f"ring_mode must be one of {RING_MODES}")
    solver = solve_resonant_models if ring_mode == "resonant" else solve_models
    name, values = axis or (None, None)
    if name not in (None, *AXES):
        raise ValueError(f"axis must be None or one of {AXES}, got {name!r}")
    if name == "charge_scale" and ring_mode == "resonant":
        raise ValueError("no charge_scale axis in resonant mode: its "
                         "solver picks the ring charge")
    if delta0_over_kappa is None:
        derived = derive_constants(cfg)
        delta0s = [delta0_from_config(cfg, derived)]
    elif len(delta0_over_kappa) == 0:
        return []
    else:
        derived = derive_constants(dataclasses.replace(
            cfg, detuning_delta0=None,
            detuning_over_kappa=delta0_over_kappa[0]))
        delta0s = delta0_grid(delta0_over_kappa, derived)
    columns = [(derived, cfg.ring_offset_c0)]
    if name is not None:
        pinned = dataclasses.replace(cfg, ring_charge=derived.ring_charge,
                                     ring_field=None)
        field, unit = (("ring_offset_c0", cfg.wavelength)
                       if name == "c0_over_lambda"
                       else ("ring_charge", derived.ring_charge))
        varied = [dataclasses.replace(pinned, **{field: value * unit})
                  for value in values]
        columns = [(caught(derive_constants, c), c.ring_offset_c0)
                   for c in varied]
    solved = iter(solver([(column, d0, c0) for d0 in delta0s
                          for column, c0 in columns
                          if not isinstance(column, LevringError)]))
    return [column if isinstance(column, LevringError) else next(solved)
            for _d0 in delta0s for column, _c0 in columns]
