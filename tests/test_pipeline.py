"""solve_grid: the one grid pipeline behind stability-map and entanglement."""
import dataclasses

import numpy as np
import pytest

from levring import pipeline, steady_state
from levring.cli import build_parser, parse_config
from levring.dynamics import StateSpaceModel
from levring.errors import LevringError
from levring.model import derive_constants
from levring.pipeline import solve_grid

from conftest import CONFIG_DIR, table_verdict

DETUNINGS = np.linspace(-1.0, 1.0, 9)
# a C0 = 0 column, and a last value whose constants fail: C0 past the
# cavity length, or a ring charge whose A_q overflows
VALUES = [-1.0, 0.0, 0.5, 1.0, 2.0, 1e300]


def fig1():
    """Field-specified ring."""
    return parse_config(str(CONFIG_DIR / "fig1.cfg"))


def charged_fig2():
    """fig2 with a charge-specified ring of the opposite sign."""
    cfg = parse_config(str(CONFIG_DIR / "fig2.cfg"))
    return dataclasses.replace(cfg, ring_field=None,
                               ring_charge=-derive_constants(cfg).ring_charge)


def column_config(cfg, name, value):
    """cfg with its ring charge pinned and the axis value applied."""
    charge = derive_constants(cfg).ring_charge
    pinned = dataclasses.replace(cfg, ring_charge=charge, ring_field=None)
    if name == "c0_over_lambda":
        return dataclasses.replace(pinned,
                                   ring_offset_c0=value * cfg.wavelength)
    return dataclasses.replace(pinned, ring_charge=charge * value)


def fingerprint(cell):
    """Op, verdict and eigenvalue bytes of a model, or an error's type
    and message."""
    if isinstance(cell, LevringError):
        return type(cell), str(cell)
    assert isinstance(cell, StateSpaceModel), cell
    v = cell.verdict
    return (dataclasses.astuple(cell.op), v.s1, v.s2, v.rh_stable,
            v.rh_marginal, v.eig_stable, v.max_real_part,
            v.eigenvalues.tobytes())


@pytest.mark.parametrize("ring_mode, name", [
    ("fixed_charge", "c0_over_lambda"), ("fixed_charge", "charge_scale"),
    ("resonant", "c0_over_lambda")])
@pytest.mark.parametrize("make_cfg", [fig1, charged_fig2])
def test_map_column_equals_grid_without_axis(make_cfg, ring_mode, name):
    cfg = make_cfg()
    cells = solve_grid(cfg, DETUNINGS, (name, VALUES), ring_mode)
    assert len(cells) == len(DETUNINGS) * len(VALUES)
    kinds = set()
    for j, value in enumerate(VALUES):
        column = cells[j::len(VALUES)]
        try:
            want = solve_grid(column_config(cfg, name, value), DETUNINGS,
                              ring_mode=ring_mode)
        except LevringError as exc:     # the column's constants fail
            want = [exc] * len(DETUNINGS)
        assert ([fingerprint(c) for c in column]
                == [fingerprint(c) for c in want]), value
        kinds.update(type(c).__name__ for c in column)
    assert "StateSpaceModel" in kinds and "ConfigInvalid" in kinds


def verdict_fingerprint(verdict):
    """A verdict's fields, its eigenvalues as bytes, or an error."""
    if isinstance(verdict, LevringError):
        return verdict
    return (verdict.s1, verdict.s2, verdict.rh_stable, verdict.rh_marginal,
            verdict.eig_stable, verdict.max_real_part,
            verdict.eigenvalues.tobytes())


@pytest.mark.parametrize("ring_mode, name", [
    ("fixed_charge", "c0_over_lambda"), ("fixed_charge", "charge_scale"),
    ("resonant", "c0_over_lambda")])
def test_verdicts_of_a_grid_with_failed_columns(ring_mode, name):
    # the verdict of each cell, read before any model is built, is that
    # of its model, or the cell's error: a solved cell's or its column's
    cells = solve_grid(fig1(), DETUNINGS, (name, VALUES), ring_mode)
    verdicts = [verdict_fingerprint(table_verdict(cells, i))
                for i in range(len(cells))]
    assert verdicts == [verdict_fingerprint(
        c if isinstance(c, LevringError) else c.verdict) for c in cells]
    assert any(type(v) is tuple for v in verdicts)
    assert sum(type(v).__name__ == "ConfigInvalid" for v in verdicts) == 9


def test_unknown_axis_is_value_error():
    with pytest.raises(ValueError, match="axis must be None or one of"):
        solve_grid(fig1(), DETUNINGS, ("gas_pressure", [1.0]))


def test_charge_scale_in_resonant_mode_is_value_error():
    with pytest.raises(ValueError, match="no charge_scale axis in resonant"):
        solve_grid(fig1(), DETUNINGS, ("charge_scale", [1.0]), "resonant")


def test_unknown_ring_mode_is_value_error():
    with pytest.raises(ValueError, match="ring_mode must be one of"):
        solve_grid(fig1(), DETUNINGS, ring_mode="fixed")


@pytest.mark.parametrize("axis", [None, ("c0_over_lambda", [0.0, 1.0])])
def test_empty_grid_is_empty(axis):
    assert list(solve_grid(fig1(), [], axis)) == []


def test_param2_choices_are_the_axes():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    param2, = (a for a in sub.choices["stability-map"]._actions
               if a.dest == "param2")
    assert param2.choices == pipeline.AXES


def assert_same_cell(got, want):
    """The same error, or a model with the same bytes and constants."""
    assert fingerprint(got) == fingerprint(want)
    if isinstance(want, StateSpaceModel):
        assert got.derived == want.derived
        assert got.A.tobytes() == want.A.tobytes()
        assert got.D.tobytes() == want.D.tobytes()


@pytest.mark.parametrize("ring_mode", pipeline.RING_MODES)
@pytest.mark.parametrize("make_cfg", [fig1, charged_fig2])
def test_point_is_the_grid_with_no_axes(make_cfg, ring_mode):
    # no detunings: the one cell at the configured detuning, with the
    # bits of the one-row grid of that detuning
    cfg = make_cfg()
    point = solve_grid(cfg, ring_mode=ring_mode)
    row = solve_grid(cfg, [cfg.detuning_over_kappa], ring_mode=ring_mode)
    assert len(point) == len(row) == 1
    assert_same_cell(point[0], row[0])


@pytest.mark.parametrize("ring_mode", pipeline.RING_MODES)
def test_point_keeps_a_detuning_in_rad_per_s(ring_mode):
    # a detuning_delta0 config is solved at that detuning, on the
    # constants of the config as given
    cfg = fig1()
    derived = derive_constants(cfg)
    cfg = dataclasses.replace(cfg, detuning_over_kappa=None,
                              detuning_delta0=0.8 * derived.kappa)
    solver = (steady_state.solve_resonant_models if ring_mode == "resonant"
              else steady_state.solve_models)
    [got] = solve_grid(cfg, ring_mode=ring_mode)
    [want] = solver([(derive_constants(cfg), cfg.detuning_delta0,
                      cfg.ring_offset_c0)])
    assert_same_cell(got, want)


@pytest.mark.parametrize("name", pipeline.AXES)
def test_axis_with_no_grid_is_one_row(name):
    cfg = fig1()
    got = solve_grid(cfg, axis=(name, VALUES))
    want = solve_grid(cfg, [cfg.detuning_over_kappa], (name, VALUES))
    assert len(got) == len(VALUES)
    assert [fingerprint(c) for c in got] == [fingerprint(c) for c in want]
