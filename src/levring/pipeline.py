"""Glue: config -> derived constants -> operating point -> state-space model.

The point path, shared by the single-point CLI subcommands and the
entanglement sweep, which solves its rows one after another in grid
order.  The stability map solves its cells as one batch through
`steady_state.solve_models`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import CODATA2018
from .dynamics import StateSpaceModel
from .model import (DerivedParams, SystemConfig, delta0_from_config,
                    derive_constants)
from .steady_state import (OperatingPoint, solve_model,
                           solve_resonant_ring_charge)

RING_MODES = ("fixed_charge", "resonant")


@dataclass(frozen=True)
class PointSolution:
    derived: DerivedParams      # completed with damping at op.omega_m
    op: OperatingPoint
    model: StateSpaceModel      # built once, by the steady-state solver
    field_at_xs: float          # on-axis ring field at x_s, V/m


def ring_field_value(ring_charge: float, ring_radius: float, c0: float,
                     x: float) -> float:
    s = c0 + x
    u = s / ring_radius
    return ring_charge * s / (4.0 * np.pi * CODATA2018.eps0
                              * ring_radius ** 3 * (1.0 + u * u) ** 1.5)


def solve_point(cfg: SystemConfig, delta0: Optional[float] = None,
                ring_mode: str = "fixed_charge") -> PointSolution:
    """Run the steady-state pipeline for one detuning.

    fixed_charge keeps the configured ring charge (`solve_model`); resonant
    re-solves the charge so the effective detuning sits on the mechanical
    sideband (`solve_resonant_ring_charge`).  Either solver returns the
    model its stability screen built; `derived` and `op` are read off it.
    """
    if ring_mode not in RING_MODES:
        raise ValueError(f"ring_mode must be one of {RING_MODES}")
    derived = derive_constants(cfg)
    if delta0 is None:
        delta0 = delta0_from_config(cfg, derived)
    c0 = cfg.ring_offset_c0
    if ring_mode == "resonant":
        model = solve_resonant_ring_charge(derived, delta0, c0)
    else:
        model = solve_model(derived, delta0, c0)
    return PointSolution(
        derived=model.derived, op=model.op, model=model,
        field_at_xs=ring_field_value(model.derived.ring_charge,
                                     cfg.ring_radius, c0, model.op.x_s))
