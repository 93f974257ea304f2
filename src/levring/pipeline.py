"""Glue: config -> derived constants -> operating point -> state-space model.

`solve_point` serves the single-point CLI subcommands, and the
entanglement sweep solves its rows as one batch (`solve_sweep`).  Both
derive the constants once and send their rows to the grid solver of the
ring mode, `steady_state.solve_models` or
`steady_state.solve_resonant_models` (`_solve_rows`); a point is the
one-row case.  The stability map solves its cells as one batch through
`steady_state.solve_models`.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .dynamics import StateSpaceModel
from .errors import ConfigError, LevringError, one
from .model import (DerivedParams, SystemConfig, _guard, delta0_from_config,
                    delta0_grid, derive_constants, ring_field_value)
from .steady_state import (OperatingPoint, solve_models,
                           solve_resonant_models)

RING_MODES = ("fixed_charge", "resonant")


@dataclass(frozen=True)
class PointSolution:
    derived: DerivedParams      # completed with damping at op.omega_m
    op: OperatingPoint
    model: StateSpaceModel      # built once, by the steady-state solver
    field_at_xs: float          # on-axis ring field at x_s, V/m


def _solution(model: StateSpaceModel, cfg: SystemConfig) -> PointSolution:
    """The PointSolution of a model, its ring field at x_s `_guard`ed."""
    field = _guard("E_x at x_s", ring_field_value(
        model.derived.ring_charge, cfg.ring_radius, cfg.ring_offset_c0,
        model.op.x_s), "finite", cfg)
    return PointSolution(derived=model.derived, op=model.op, model=model,
                         field_at_xs=field)


def _solve_rows(cfg: SystemConfig, derived: DerivedParams, delta0s,
                ring_mode: str):
    """The PointSolution of `cfg` at each detuning of delta0s, in rad/s,
    or the NumericalError solving it raises: all rows at once, by the
    grid solver of the ring mode (ValueError for another mode).  A
    ConfigError of a row, such as a damping rate that overflows at its
    omega_m, is raised."""
    if ring_mode not in RING_MODES:
        raise ValueError(f"ring_mode must be one of {RING_MODES}")
    solver = solve_resonant_models if ring_mode == "resonant" else solve_models
    rows = []
    for outcome in solver([(derived, d0, cfg.ring_offset_c0)
                           for d0 in delta0s]):
        if isinstance(outcome, ConfigError):
            raise outcome
        rows.append(outcome if isinstance(outcome, LevringError)
                    else _solution(outcome, cfg))
    return rows


def solve_point(cfg: SystemConfig,
                ring_mode: str = "fixed_charge") -> PointSolution:
    """Run the steady-state pipeline at the configured detuning.

    fixed_charge keeps the configured ring charge (`solve_model`); resonant
    re-solves the charge so the effective detuning sits on the mechanical
    sideband (`solve_resonant_ring_charge`).  Either solver returns the
    model its stability screen built; `derived` and `op` are read off it.
    The solve is that of `_solve_rows` on the one row, raising its error.
    """
    derived = derive_constants(cfg)
    return one(_solve_rows(cfg, derived, [delta0_from_config(cfg, derived)],
                           ring_mode))


def solve_sweep(cfg: SystemConfig, delta0_over_kappa,
                ring_mode: str = "fixed_charge"):
    """`solve_point` over a detuning grid, in linewidths, as one batch.

    Entry i is the PointSolution for `cfg` with its detuning set to
    delta0_over_kappa[i], or the NumericalError solving it raises, the
    same as `solve_point` gives.  The constants do not depend on the
    detuning, so they are validated and derived once, with the first
    row's detuning; a ConfigInvalid propagates, and a detuning that is
    not finite, or that `check_detuning` rejects, raises the one naming
    detuning_over_kappa (`delta0_grid`).
    """
    if len(delta0_over_kappa) == 0:
        return []
    derived = derive_constants(dataclasses.replace(
        cfg, detuning_delta0=None, detuning_over_kappa=delta0_over_kappa[0]))
    return _solve_rows(cfg, derived, delta0_grid(delta0_over_kappa, derived),
                       ring_mode)
