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
import functools
import itertools
import math
import re
import sys
from operator import attrgetter

import numpy as np

from . import __version__
from .constants import CODATA2018
from .dynamics import _stable
from .errors import ConfigError, LevringError, NotConverged, NumericalError, \
    ParseError, ValidationError, error_cell
from .model import (TORR_TO_PA, SystemConfig, delta0_from_config,
                    derive_constants)
from .pipeline import AXES, RING_MODES, solve_grid, solve_point
from .spectra import BASELINE, spectrum_sweep
from .steady_state import cavity_steady_field, integrate_mean_field, scan_roots
from .entanglement import entanglement_sweep

# config key -> (SystemConfig field, SI scale)
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
    """Raw key -> (value string, line number), with duplicate detection.

    One leading UTF-8 byte-order mark is dropped.  Each line is decoded
    as UTF-8 on its own, so a line that is not UTF-8 is a ParseError
    naming it.
    """
    with open(path, "rb") as fh:
        lines = fh.read().removeprefix(b"\xef\xbb\xbf").splitlines()
    items = {}
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"line {lineno}: not UTF-8 text ({exc.reason} "
                             f"at byte {exc.start + 1})") from None
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


def _load(path: str):
    """The validated config in `path` and its `# config:` line."""
    items = _read_items(path)
    return _config_from_items(items), canonical_config_line(items)


def _fmt_bool(value) -> str:
    return "true" if value else "false"


def _fmt_float(value) -> str:
    return repr(float(value))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return _fmt_bool(value)
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    return str(value)


# `_fmt` of the exact types CSV cells have, by one lookup on the type;
# any other type, another numpy scalar say, goes through `_fmt`
_FORMATS = {type(None): _fmt, bool: _fmt_bool, np.bool_: _fmt_bool,
            float: repr, np.float64: _fmt_float, int: str, str: str}


def _fmt_column(cells) -> list:
    """`_fmt` of each cell of a column: one lookup for a column of one
    type, or of one and None (the empty cell), else one per cell."""
    kinds = set(map(type, cells))
    if len(kinds) == 1:
        return list(map(_FORMATS.get(kinds.pop(), _fmt), cells))
    kinds.discard(type(None))
    if len(kinds) == 1:
        fmt = _FORMATS.get(kinds.pop(), _fmt)
        return ["" if v is None else fmt(v) for v in cells]
    fmt = _FORMATS.get
    return [fmt(type(v), _fmt)(v) for v in cells]


def write_csv(stream, config_line: str, columns, rows) -> None:
    """The CSV of rows, any iterable of equal-length tuples, under its
    `# config:` and `# version:` lines and the header `columns`; each
    cell as `_fmt` formats it, a column at a time (`_fmt_column`)."""
    stream.write(f"# config: {config_line}\n")
    stream.write(f"# version: {__version__}\n")
    stream.write(",".join(columns) + "\n")
    cells = map(_fmt_column, zip(*rows))
    stream.write("".join([line + "\n" for line in map(",".join,
                                                        zip(*cells))]))


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


def _add_grid(parser, prefix: str, lo: float, hi: float, n: int) -> None:
    """Declare the --<prefix>-min/-max/-n options that `_grid` reads."""
    parser.add_argument(f"--{prefix}-min", type=float, default=lo)
    parser.add_argument(f"--{prefix}-max", type=float, default=hi)
    parser.add_argument(f"--{prefix}-n", type=int, default=n)


def _grid(args, prefix: str) -> np.ndarray:
    """np.linspace over the --<prefix>-min/-max/-n options, once they hold.

    The bounds and their span must be finite and the count at least 1;
    otherwise a ValidationError names the options, before any array is
    built.
    """
    lo, hi, n = (getattr(args, f"{prefix}_{end}")
                 for end in ("min", "max", "n"))
    for end, value in (("min", lo), ("max", hi)):
        if not math.isfinite(value):
            raise ValidationError(
                f"--{prefix}-{end} must be finite, got {value}")
    if not math.isfinite(hi - lo):
        raise ValidationError(f"--{prefix}-min {lo} and --{prefix}-max {hi} "
                              f"span more than the float range")
    if n < 1:
        raise ValidationError(f"--{prefix}-n must be at least 1, got {n}")
    return np.linspace(lo, hi, n)


def _eighth_power(x: float) -> float:
    """x^8 on Python floats, inf where it overflows (x ** 8 would raise)."""
    x4 = (x * x) * (x * x)
    return x4 * x4


# ---------------------------------------------------------------- commands

def cmd_steady_state(args) -> int:
    cfg, config_line = _load(args.config)
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
        _emit_csv(args.out, config_line, ["quantity", "value"], rows)
    return 0


def cmd_spectrum(args) -> int:
    omega_over_kappa = _grid(args, "grid")
    if np.any(np.diff(omega_over_kappa) <= 0.0):    # as spectrum_sweep needs
        raise ValidationError(f"--grid-min {args.grid_min} and --grid-max "
                              f"{args.grid_max} give no increasing grid")
    cfg, config_line = _load(args.config)
    # the grid is checked before the solve, on the kappa of the constants,
    # which the solved model keeps.  On Python floats an overflow is a
    # silent inf, and the largest |omega / kappa| gives the largest
    # |omega|.  The spectra's denominator |d|^2 grows as omega^8: the
    # grid options carry its overflow where kappa^8 is finite and omega^8
    # is not; where kappa^8 overflows too, the model does, and the
    # spectra say so
    kappa = derive_constants(cfg).kappa
    omega = float(np.abs(omega_over_kappa).max()) * kappa
    if not math.isfinite(omega) or (math.isfinite(_eighth_power(kappa))
                                    and not math.isfinite(
                                        _eighth_power(omega))):
        raise ValidationError(
            f"--grid-min {args.grid_min} and --grid-max {args.grid_max} "
            f"reach past the float range in (rad/s)^8, the order of the "
            f"spectra's denominator (kappa = {kappa!r} rad/s)")
    sol = solve_point(cfg, ring_mode=args.ring_mode)
    grid = omega_over_kappa * kappa
    table = spectrum_sweep(sol.model, grid)
    columns = ("omega_over_kappa", "S_XX", "S_YY", "S_XX_norm", "S_YY_norm",
               "unstable")
    # the one `unstable` flag is broadcast to every row; Python floats
    # and bools, which `write_csv` formats a column at a time
    _emit_csv(args.out, config_line, columns,
              zip(*[column.tolist() for column in np.broadcast_arrays(
                  *attrgetter(*columns)(table))]))
    if args.svg:
        write_svg(args.svg, table.omega_over_kappa,
                  [("S_XX", table.S_XX), ("S_YY", table.S_YY)],
                  xlabel="omega / kappa", ylabel="S_JJ(omega)",
                  baseline=BASELINE)
    return 0


def cmd_entanglement(args) -> int:
    grid = _grid(args, "grid")
    cfg, config_line = _load(args.config)
    rows = entanglement_sweep(cfg, grid, ring_mode=args.ring_mode)
    columns = ("delta0_over_kappa", "E_n", "stable", "x_s", "omega_m",
               "Q_used", "E_x", "error")
    _emit_csv(args.out, config_line, columns, map(attrgetter(*columns), rows))
    if args.svg:
        # E_n None, no stationary state, is a missing (nan) point
        write_svg(args.svg, grid, [("E_n", [r.E_n for r in rows])],
                  xlabel="Delta0 / kappa", ylabel="E_n", baseline=0.0)
    if all(r.E_n is None for r in rows):
        raise NumericalError("no sweep point produced a stationary state")
    return 0


def cmd_stability_map(args) -> int:
    d0_grid = _grid(args, "grid")
    p2_grid = _grid(args, "p2")
    cfg, config_line = _load(args.config)
    cells = solve_grid(cfg, d0_grid, (args.param2, p2_grid))
    v, _, _, found, _ = cells.table or (None,) * 5
    rows = []
    # read off the solver's columns, as Python floats: no model is built
    for (d0, p2), cell in zip(itertools.product(d0_grid.tolist(),
                                                p2_grid.tolist()),
                              map(cells.candidate, range(len(cells)))):
        if isinstance(cell, LevringError):
            rows.append((d0, p2, None, None, None, None, error_cell(cell)))
        else:
            j = cell[0]
            rows.append((d0, p2, v.s1[j], v.s2[j], *_stable(
                v.s1[j], v.s2[j], v.marginal[j], found[j][1]), ""))
    _emit_csv(args.out, config_line,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: a parse fills a new
    namespace from the defaults, so no option carries over."""
    parser = _Parser(
        prog="simulate",
        description="Levitated-sphere ring-cavity simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default=None,
                       help="CSV output path (default: stdout)")
        p.set_defaults(func=func)
        return p

    def add_ring_mode(p):
        p.add_argument("--ring-mode", choices=RING_MODES,
                       default="fixed_charge")

    p = add_command("steady-state", cmd_steady_state,
                    "solve the operating point")
    add_ring_mode(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check x_s against the mean-field integrator")

    for name, func, summary, grid in (
            ("spectrum", cmd_spectrum, "output quadrature spectra",
             (-3.0, 3.0, 3001)),
            ("entanglement", cmd_entanglement, "log-negativity detuning sweep",
             (0.05, 1.0, 200))):
        p = add_command(name, func, summary)
        add_ring_mode(p)
        _add_grid(p, "grid", *grid)
        p.add_argument("--svg", default=None, help="also write an SVG line plot")

    p = add_command("stability-map", cmd_stability_map,
                    "S1/S2/eigenvalue map over a 2D grid")
    _add_grid(p, "grid", -1.0, 1.0, 41)
    p.add_argument("--param2", choices=AXES, default="c0_over_lambda")
    _add_grid(p, "p2", 0.0, 2.0, 21)
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
