"""Glue: config -> derived constants -> operating point -> state-space model.

`solve_point` serves the single-point CLI subcommands.
The entanglement sweep solves its rows as one batch (`solve_sweep`): the
constants are derived once and every row goes to the grid solver of its
ring mode, `steady_state.solve_models` or
`steady_state.solve_resonant_models`.  The stability map solves its
cells as one batch through `steady_state.solve_models`.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .dynamics import StateSpaceModel
from .errors import NumericalError
from .model import (DerivedParams, SystemConfig, check_detuning,
                    delta0_from_config, derive_constants, ring_field_value)
from .steady_state import (OperatingPoint, solve_model, solve_models,
                           solve_resonant_models, solve_resonant_ring_charge)

RING_MODES = ("fixed_charge", "resonant")


@dataclass(frozen=True)
class PointSolution:
    derived: DerivedParams      # completed with damping at op.omega_m
    op: OperatingPoint
    model: StateSpaceModel      # built once, by the steady-state solver
    field_at_xs: float          # on-axis ring field at x_s, V/m


def _solution(model: StateSpaceModel, cfg: SystemConfig) -> PointSolution:
    return PointSolution(
        derived=model.derived, op=model.op, model=model,
        field_at_xs=ring_field_value(model.derived.ring_charge,
                                     cfg.ring_radius, cfg.ring_offset_c0,
                                     model.op.x_s))


def _check_ring_mode(ring_mode: str) -> None:
    if ring_mode not in RING_MODES:
        raise ValueError(f"ring_mode must be one of {RING_MODES}")


def solve_point(cfg: SystemConfig,
                ring_mode: str = "fixed_charge") -> PointSolution:
    """Run the steady-state pipeline at the configured detuning.

    fixed_charge keeps the configured ring charge (`solve_model`); resonant
    re-solves the charge so the effective detuning sits on the mechanical
    sideband (`solve_resonant_ring_charge`).  Either solver returns the
    model its stability screen built; `derived` and `op` are read off it.
    """
    _check_ring_mode(ring_mode)
    derived = derive_constants(cfg)
    delta0 = delta0_from_config(cfg, derived)
    solver = (solve_resonant_ring_charge if ring_mode == "resonant"
              else solve_model)
    return _solution(solver(derived, delta0, cfg.ring_offset_c0), cfg)


def solve_sweep(cfg: SystemConfig, delta0_over_kappa,
                ring_mode: str = "fixed_charge"):
    """`solve_point` over a detuning grid, in linewidths, as one batch.

    Entry i is the PointSolution for `cfg` with its detuning set to
    delta0_over_kappa[i], or the NumericalError solving it raises, the
    same as `solve_point` gives.  The constants do not depend on the
    detuning, so they are validated and derived once; a ConfigInvalid
    propagates, and a non-finite detuning, or one `check_detuning`
    rejects, raises the one naming detuning_over_kappa.  All rows go to
    the grid solver of the ring mode, `solve_models` or
    `solve_resonant_models`.
    """
    if len(delta0_over_kappa) == 0:
        return []
    _check_ring_mode(ring_mode)

    def row_config(d0):
        return dataclasses.replace(cfg, detuning_delta0=None,
                                   detuning_over_kappa=d0)

    derived = derive_constants(row_config(delta0_over_kappa[0]))
    for d0 in delta0_over_kappa:
        if not math.isfinite(d0):
            row_config(d0).validate()
        check_detuning(float(d0) * derived.kappa, derived,
                       "detuning_over_kappa")
    solver = solve_resonant_models if ring_mode == "resonant" else solve_models
    return [outcome if isinstance(outcome, NumericalError)
            else _solution(outcome, cfg)
            for outcome in solver([(derived, d0 * derived.kappa,
                                    cfg.ring_offset_c0)
                                   for d0 in delta0_over_kappa])]
