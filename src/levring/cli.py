"""Command-line harness: `simulate <subcommand> --config <file> ...`.

Subcommands: steady-state, spectrum, entanglement, stability-map.

Config files are flat `key = value` lines with `#` comments.  Units ride
in the key names (sphere_radius_nm, gas_pressure_torr, ...); everything
is converted to SI on load.  Unknown and duplicate keys are hard errors.

Every CSV starts with `# config: <canonical key=value list>` and
`# version: <semver>` comments and uses shortest round-trip decimal
formatting with Unix newlines, so identical inputs give byte-identical
output.  Exit codes: 0 success, 1 validation, 2 numerical failure,
3 I/O.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys

import numpy as np

from . import __version__
from .constants import CODATA2018
from .errors import ConfigError, LevringError, NotConverged, NumericalError, \
    ParseError, ValidationError, caught
from .model import (TORR_TO_PA, SystemConfig, check_detuning,
                    delta0_from_config, derive_constants)
from .pipeline import RING_MODES, solve_point
from .spectra import BASELINE, spectrum_sweep
from .steady_state import (cavity_steady_field, integrate_mean_field,
                           scan_roots, solve_models)
from .entanglement import entanglement_sweep

# config key -> (SystemConfig field, SI scale); None scale marks a string key
CONFIG_KEYS = {
    "sphere_radius_nm": ("sphere_radius", 1e-9),
    "density_kg_m3": ("density", 1.0),
    "permittivity": ("permittivity", 1.0),
    "wavelength_nm": ("wavelength", 1e-9),
    "cavity_length_cm": ("cavity_length", 1e-2),
    "finesse": ("finesse", 1.0),
    "input_power_mw": ("input_power", 1e-3),
    "ring_radius_mm": ("ring_radius", 1e-3),
    "ring_charge_c": ("ring_charge", 1.0),
    "ring_field_v_per_m": ("ring_field", 1.0),
    "ring_offset_c0_nm": ("ring_offset_c0", 1e-9),
    "mcp_epsilon": ("mcp_epsilon", 1.0),
    "detuning_delta0_rad_s": ("detuning_delta0", 1.0),
    "detuning_over_kappa": ("detuning_over_kappa", 1.0),
    "temperature_k": ("temperature", 1.0),
    "gas_pressure_torr": ("gas_pressure", TORR_TO_PA),
    "gas_pressure_pa": ("gas_pressure", 1.0),
    "gas_molecule_mass_u": ("gas_molecule_mass", CODATA2018.u),
    "spectrum_form": ("spectrum_form", None),
}

REQUIRED_KEYS = [
    "sphere_radius_nm", "density_kg_m3", "permittivity", "wavelength_nm",
    "cavity_length_cm", "finesse", "input_power_mw", "ring_radius_mm",
    "ring_offset_c0_nm", "mcp_epsilon", "temperature_k",
]
ONE_OF_GROUPS = [
    ("ring_charge_c", "ring_field_v_per_m"),
    ("detuning_delta0_rad_s", "detuning_over_kappa"),
    ("gas_pressure_torr", "gas_pressure_pa"),
]


def _read_items(path: str):
    """Raw key -> (value string, line number), with duplicate detection."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    items = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if not key or not value:
            raise ParseError(f"line {lineno}: empty key or value")
        if key in items:
            raise ParseError(
                f"duplicate key {key!r} at lines {items[key][1]} and {lineno}")
        items[key] = (value, lineno)
    return items


def _config_from_items(items) -> SystemConfig:
    for key, (_value, lineno) in items.items():
        if key not in CONFIG_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    missing = [k for k in REQUIRED_KEYS if k not in items]
    for group in ONE_OF_GROUPS:
        present = [k for k in group if k in items]
        if len(present) > 1:
            raise ValidationError(
                f"keys {group[0]} and {group[1]} are mutually exclusive")
        if not present:
            missing.append(" | ".join(group))
    if missing:
        raise ValidationError("missing required keys: " + ", ".join(missing))

    kwargs = {}
    for key, (value, lineno) in items.items():
        field, scale = CONFIG_KEYS[key]
        if scale is None:
            kwargs[field] = value
        else:
            try:
                kwargs[field] = float(value) * scale
            except ValueError:
                raise ParseError(f"line {lineno}: {key} needs a number, got {value!r}")
    cfg = SystemConfig(**kwargs)
    cfg.validate()
    return cfg


def parse_config(path: str) -> SystemConfig:
    """Load and validate a flat key=value config file."""
    return _config_from_items(_read_items(path))


def canonical_config_line(items) -> str:
    return " ".join(f"{k}={items[k][0]}" for k in sorted(items))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(stream, config_line: str, columns, rows) -> None:
    stream.write(f"# config: {config_line}\n")
    stream.write(f"# version: {__version__}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _emit_csv(path, config_line, columns, rows):
    if path is None or path == "-":
        write_csv(sys.stdout, config_line, columns, rows)
        return
    with open(path, "w", encoding="utf-8", newline="") as stream:
        write_csv(stream, config_line, columns, rows)


def write_svg(path, x, curves, xlabel, ylabel, baseline):
    """Minimal line chart: axes, polylines and a dashed baseline rule.

    Non-finite y values are missing points: the axes are scaled over the
    finite ones, and a curve's polyline breaks at each missing point.
    """
    width, height = 720.0, 460.0
    ml, mr, mt, mb = 64.0, 16.0, 20.0, 44.0
    xs = np.asarray(x, dtype=float)
    ys_all = np.append(np.concatenate(
        [np.asarray(c[1], dtype=float) for c in curves]), baseline)
    ys_all = ys_all[np.isfinite(ys_all)]
    if not ys_all.size:
        ys_all = np.zeros(1)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    pad = 0.05 * (y1 - y0) or 0.5
    y0, y1 = y0 - pad, y1 + pad

    def px(v):
        return ml + (v - x0) / (x1 - x0) * (width - ml - mr)

    def py(v):
        return height - mb - (v - y0) / (y1 - y0) * (height - mt - mb)

    colors = ("#1f77b4", "#d62728", "#2ca02c")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{ml:.1f}" y1="{height - mb:.1f}" x2="{width - mr:.1f}" '
        f'y2="{height - mb:.1f}" stroke="black"/>',
        f'<line x1="{ml:.1f}" y1="{mt:.1f}" x2="{ml:.1f}" '
        f'y2="{height - mb:.1f}" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(f'<text x="{px(xv):.1f}" y="{height - mb + 16:.1f}" '
                     f'font-size="11" text-anchor="middle">{xv:.3g}</text>')
        parts.append(f'<text x="{ml - 6:.1f}" y="{py(yv) + 4:.1f}" '
                     f'font-size="11" text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 8:.1f}" '
                 f'font-size="12" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="14" y="{(mt + height - mb) / 2:.1f}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 14 '
                 f'{(mt + height - mb) / 2:.1f})">{ylabel}</text>')
    parts.append(f'<line x1="{ml:.1f}" y1="{py(baseline):.1f}" '
                 f'x2="{width - mr:.1f}" y2="{py(baseline):.1f}" '
                 f'stroke="#444" stroke-dasharray="5 4"/>')
    for i, (label, ys) in enumerate(curves):
        ys = np.asarray(ys, dtype=float)
        color = colors[i % len(colors)]
        # one polyline per run of consecutive finite points
        missing = np.flatnonzero(~np.isfinite(ys))
        for run in np.split(np.arange(ys.size), missing):
            run = run[np.isfinite(ys[run])]
            if not run.size:
                continue
            pts = " ".join(f"{px(a):.2f},{py(b):.2f}"
                           for a, b in zip(xs[run], ys[run]))
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{width - mr - 8:.1f}" y="{mt + 16 + 16 * i:.1f}" '
                     f'font-size="12" text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def _grid(args, prefix: str) -> np.ndarray:
    """np.linspace over the --<prefix>-min/-max/-n options, once they hold.

    The bounds must be finite and the count at least 1; otherwise a
    ValidationError names the option, before any array is built.
    """
    lo, hi, n = (getattr(args, f"{prefix}_{end}")
                 for end in ("min", "max", "n"))
    for end, value in (("min", lo), ("max", hi)):
        if not math.isfinite(value):
            raise ValidationError(
                f"--{prefix}-{end} must be finite, got {value}")
    if n < 1:
        raise ValidationError(f"--{prefix}-n must be at least 1, got {n}")
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------- commands

def cmd_steady_state(args) -> int:
    items = _read_items(args.config)
    cfg = _config_from_items(items)
    sol = solve_point(cfg, ring_mode=args.ring_mode)
    derived, op, model = sol.derived, sol.op, sol.model
    delta0 = delta0_from_config(cfg, derived)
    wavelength = 2.0 * np.pi / derived.k
    kap = derived.kappa

    print(f"derived constants (SI): k={derived.k!r}  omega_c={derived.omega_c!r}")
    print(f"  V_s={derived.V_s!r}  V_c={derived.V_c!r}  waist={derived.waist!r}")
    print(f"  mass={derived.mass!r}  g={derived.g!r}  kappa={kap!r}")
    print(f"  E_drive={derived.E_drive!r}  q_mcp={derived.q_mcp!r}")
    print(f"  ring_charge={derived.ring_charge!r}  A_q={op.A_q!r}")
    print(f"  gamma={derived.gamma!r}  Gamma_diff={derived.Gamma_diff!r}")
    print(f"operating point: x_s={op.x_s!r} m ({op.x_s / wavelength:+.6f} wavelengths)")
    print(f"  a_s={op.a_s!r}  omega_m={op.omega_m!r} ({op.omega_m / kap:.4f} kappa)")
    print(f"  Omega_m={op.Omega_m!r}  delta_eff={op.delta_eff!r} "
          f"({op.delta_eff / kap:.4f} kappa)")
    print(f"  G={op.G!r} ({op.G / kap:+.4f} kappa)  residual={op.residual!r} N")
    v = model.verdict
    print(f"stability: S1={v.s1!r}  S2={v.s2!r}  routh_hurwitz={v.rh_stable}"
          f"{' (marginal)' if v.rh_marginal else ''}  eigenvalues={v.eig_stable}")
    for lam in v.eigenvalues:
        print(f"  eig: ({float(lam.real)!r}, {float(lam.imag)!r}j)")
    if args.ring_mode == "fixed_charge":
        roots = scan_roots(derived, delta0, cfg.ring_offset_c0)
        print("all force-balance roots (m): "
              + (", ".join(repr(r) for r in roots) if roots else "(none)"))
    if op.G == 0.0:
        print("note: decoupled (G = 0) -- output light is shot-noise flat")

    verify_rows = []
    if args.verify:
        gamma_boost = max(derived.gamma, 0.15 * kap)
        x0 = round(op.x_s * 1e9) / 1e9
        a0 = cavity_steady_field(derived, delta0, x0)
        try:
            mf = integrate_mean_field(
                derived, delta0, cfg.ring_offset_c0,
                initial_state=(x0, 0.0, a0), gamma=gamma_boost)
            dx = abs(mf.x_bar - op.x_s)
            ok = dx < 1e-4 * wavelength
            print(f"mean-field check (gamma boosted to {gamma_boost!r}): "
                  f"x_bar={mf.x_bar!r}  |x_bar - x_s|={dx!r} m "
                  f"({dx / wavelength:.2e} wavelengths) -> "
                  f"{'agrees' if ok else 'DISAGREES'}")
            print(f"  |a_bar|={abs(mf.a_bar)!r} vs a_s={op.a_s!r}")
            verify_rows = [("mean_field_x_bar", mf.x_bar),
                           ("mean_field_dx", dx)]
        except NotConverged as exc:
            print(f"mean-field check: not converged ({exc})")
            verify_rows = [("mean_field_x_bar", None)]

    if args.out:
        rows = [("k", derived.k), ("omega_c", derived.omega_c),
                ("V_s", derived.V_s), ("V_c", derived.V_c),
                ("waist", derived.waist), ("mass", derived.mass),
                ("g", derived.g), ("kappa", kap),
                ("E_drive", derived.E_drive), ("q_mcp", derived.q_mcp),
                ("ring_charge", derived.ring_charge), ("A_q", op.A_q),
                ("gamma_ph", derived.gamma_ph), ("gamma_gas", derived.gamma_gas),
                ("gamma", derived.gamma), ("Gamma_diff", derived.Gamma_diff),
                ("x_s", op.x_s), ("a_s", op.a_s), ("omega_m", op.omega_m),
                ("Omega_m", op.Omega_m), ("delta_eff", op.delta_eff),
                ("G", op.G), ("residual", op.residual),
                ("S1", v.s1), ("S2", v.s2),
                ("rh_stable", v.rh_stable), ("eig_stable", v.eig_stable),
                ("E_x_at_xs", sol.field_at_xs)] + verify_rows
        _emit_csv(args.out, canonical_config_line(items),
                  ["quantity", "value"], rows)
    return 0


def cmd_spectrum(args) -> int:
    omega_over_kappa = _grid(args, "grid")
    if np.any(np.diff(omega_over_kappa) <= 0.0):    # as spectrum_sweep needs
        raise ValidationError(f"--grid-min {args.grid_min} and --grid-max "
                              f"{args.grid_max} give no increasing grid")
    items = _read_items(args.config)
    cfg = _config_from_items(items)
    sol = solve_point(cfg, ring_mode=args.ring_mode)
    grid = omega_over_kappa * sol.derived.kappa
    table = spectrum_sweep(sol.model, grid, form=cfg.spectrum_form)
    rows = list(zip(table.omega_over_kappa, table.S_XX, table.S_YY,
                    table.S_XX_norm, table.S_YY_norm,
                    [table.unstable] * len(table)))
    _emit_csv(args.out, canonical_config_line(items),
              ["omega_over_kappa", "S_XX", "S_YY", "S_XX_norm", "S_YY_norm",
               "unstable"], rows)
    if args.svg:
        write_svg(args.svg, table.omega_over_kappa,
                  [("S_XX", table.S_XX), ("S_YY", table.S_YY)],
                  xlabel="omega / kappa", ylabel="S_JJ(omega)",
                  baseline=BASELINE)
    return 0


def cmd_entanglement(args) -> int:
    grid = _grid(args, "grid")
    items = _read_items(args.config)
    cfg = _config_from_items(items)
    rows = entanglement_sweep(cfg, grid, ring_mode=args.ring_mode)
    csv_rows = [(r.delta0_over_kappa, r.E_n, r.stable, r.x_s, r.omega_m,
                 r.Q_used, r.E_x, r.error) for r in rows]
    _emit_csv(args.out, canonical_config_line(items),
              ["delta0_over_kappa", "E_n", "stable", "x_s", "omega_m",
               "Q_used", "E_x", "error"], csv_rows)
    if args.svg:
        xs = np.array([r.delta0_over_kappa for r in rows])
        ys = np.array([r.E_n if r.E_n is not None else np.nan for r in rows])
        write_svg(args.svg, xs, [("E_n", ys)],
                  xlabel="Delta0 / kappa", ylabel="E_n", baseline=0.0)
    if all(r.E_n is None for r in rows):
        raise NumericalError("no sweep point produced a stationary state")
    return 0


def cmd_stability_map(args) -> int:
    d0_grid = _grid(args, "grid")
    p2_grid = _grid(args, "p2")
    items = _read_items(args.config)
    cfg = _config_from_items(items)
    base = derive_constants(cfg)
    for d0 in d0_grid:
        check_detuning(float(d0) * base.kappa, base, "detuning_over_kappa")
    # pin the charge so c0 = 0 rows stay valid even for field-specified rings
    cfg_charge = dataclasses.replace(cfg, ring_charge=base.ring_charge,
                                     ring_field=None)

    # a column varies only C0 or the ring charge: validate and derive once
    columns = []
    for p2 in p2_grid:
        if args.param2 == "c0_over_lambda":
            varied = dataclasses.replace(cfg_charge,
                                         ring_offset_c0=p2 * cfg.wavelength)
        else:
            varied = dataclasses.replace(
                cfg_charge, ring_charge=base.ring_charge * p2)
        columns.append((caught(derive_constants, varied),
                        varied.ring_offset_c0))

    grid = [(d0, p2, column) for d0 in d0_grid
            for p2, column in zip(p2_grid, columns)]
    solved = solve_models([
        (derived, d0 * base.kappa, c0)
        for d0, _, (derived, c0) in grid
        if not isinstance(derived, LevringError)])
    rows = []
    for d0, p2, (derived, _) in grid:
        outcome = (derived if isinstance(derived, LevringError)
                   else next(solved))
        if isinstance(outcome, LevringError):
            rows.append((d0, p2, None, None, None, None,
                         f"{type(outcome).__name__}: {outcome}"))
        else:
            v = outcome.verdict
            rows.append((d0, p2, v.s1, v.s2, v.rh_stable, v.eig_stable, ""))
    _emit_csv(args.out, canonical_config_line(items),
              ["delta0_over_kappa", args.param2, "S1", "S2", "rh_stable",
               "eig_stable", "error"], rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the validation code (2 means numerical failure).

    A negative number in exponent notation (`--grid-min -5e-1`) is a
    value, not an option: argparse's own pattern has no exponent.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simulate",
        description="Levitated-sphere ring-cavity simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default=None,
                       help="CSV output path (default: stdout)")

    def add_ring_mode(p):
        p.add_argument("--ring-mode", choices=RING_MODES,
                       default="fixed_charge")

    p = sub.add_parser("steady-state", help="solve the operating point")
    add_common(p)
    add_ring_mode(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check x_s against the mean-field integrator")
    p.set_defaults(func=cmd_steady_state)

    p = sub.add_parser("spectrum", help="output quadrature spectra")
    add_common(p)
    add_ring_mode(p)
    p.add_argument("--grid-min", type=float, default=-3.0)
    p.add_argument("--grid-max", type=float, default=3.0)
    p.add_argument("--grid-n", type=int, default=3001)
    p.add_argument("--svg", default=None, help="also write an SVG line plot")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("entanglement", help="log-negativity detuning sweep")
    add_common(p)
    add_ring_mode(p)
    p.add_argument("--grid-min", type=float, default=0.05)
    p.add_argument("--grid-max", type=float, default=1.0)
    p.add_argument("--grid-n", type=int, default=200)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_entanglement)

    p = sub.add_parser("stability-map", help="S1/S2/eigenvalue map over a 2D grid")
    add_common(p)
    p.add_argument("--grid-min", type=float, default=-1.0)
    p.add_argument("--grid-max", type=float, default=1.0)
    p.add_argument("--grid-n", type=int, default=41)
    p.add_argument("--param2", choices=["c0_over_lambda", "charge_scale"],
                   default="c0_over_lambda")
    p.add_argument("--p2-min", type=float, default=0.0)
    p.add_argument("--p2-max", type=float, default=2.0)
    p.add_argument("--p2-n", type=int, default=21)
    p.set_defaults(func=cmd_stability_map)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
