"""Config parsing, subcommands, CSV determinism and exit codes."""
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import levring.cli
import levring.dynamics
import levring.entanglement
import levring.pipeline
import levring.steady_state
from levring.cli import main, parse_config
from levring.errors import NotConverged, ParseError, ValidationError
from levring.model import SystemConfig, derive_constants

ROOT = pathlib.Path(__file__).resolve().parents[1]

# sweep workload -> (shipped config, subcommand, option the digest varies)
SWEEPS = {
    "stability_map": ("fig1.cfg", "stability-map", "--param2"),
    "entanglement_sweep": ("fig2.cfg", "entanglement", "--ring-mode"),
}

FIG1_TEXT = """\
# reference squeezing setup
sphere_radius_nm = 50
density_kg_m3 = 2650
permittivity = 2.3
wavelength_nm = 1064
cavity_length_cm = 1
finesse = 50000
input_power_mw = 1
ring_radius_mm = 5
ring_field_v_per_m = 7.25e10
ring_offset_c0_nm = 1064
mcp_epsilon = 1e-5
detuning_over_kappa = 0.8
temperature_k = 300
gas_pressure_torr = 1e-10
"""

# the fields the guards of fig1.cfg's force-balance bound and of a
# detuning in linewidths name (model._SOURCES)
BOUND_FIELDS = ("(from mcp_epsilon, ring_field, ring_offset_c0, ring_radius, "
                "sphere_radius, permittivity, wavelength, cavity_length, "
                "finesse, input_power)")
DETUNING_FIELDS = ("(from detuning_over_kappa, cavity_length, finesse, "
                   "sphere_radius, permittivity, wavelength)")
DETUNING_ERROR_1E148 = (
    "config error: derived constant 2 (|d kappa| + g) = 2.260381880770624e+154 "
    f"has no finite square {DETUNING_FIELDS}")
DETUNING_ERROR_1E150 = (
    "config error: derived constant 2 (|d kappa| + g) = 1.8836515673088532e+156"
    f" has no finite square {DETUNING_FIELDS}")


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "ref.cfg"
    path.write_text(FIG1_TEXT)
    return str(path)


class TestParse:
    def test_units_converted_to_si(self, cfg_file):
        cfg = parse_config(cfg_file)
        assert cfg.sphere_radius == 50 * 1e-9
        assert cfg.wavelength == 1064 * 1e-9
        assert cfg.cavity_length == 1 * 1e-2
        assert cfg.input_power == 1 * 1e-3
        assert cfg.ring_radius == 5 * 1e-3
        assert cfg.ring_offset_c0 == 1064 * 1e-9
        assert cfg.gas_pressure == 1e-10 * 133.322368
        assert cfg.detuning_over_kappa == 0.8
        assert cfg.ring_field == 7.25e10
        assert cfg.ring_charge is None

    def test_shipped_configs_parse(self):
        here = os.path.dirname(__file__)
        for name in ("fig1.cfg", "fig2.cfg", "decoupled.cfg"):
            cfg = parse_config(os.path.join(here, "..", "configs", name))
            assert cfg.sphere_radius == 50 * 1e-9

    def test_every_key_is_a_float_scaled_field(self):
        # every config key names a field of SystemConfig and is read as a
        # number times its float unit scale; no key is string-valued
        fields = {f.name for f in dataclasses.fields(SystemConfig)}
        for key, (field, scale) in levring.cli.CONFIG_KEYS.items():
            assert field in fields, key
            assert type(scale) is float, key

    def test_empty_file_lists_required_keys(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        with pytest.raises(ValidationError) as err:
            parse_config(str(path))
        message = str(err.value)
        for key in ("sphere_radius_nm", "wavelength_nm", "finesse",
                    "detuning_delta0_rad_s | detuning_over_kappa"):
            assert key in message

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text(FIG1_TEXT + "finesse = 10000\n")
        with pytest.raises(ParseError, match=r"'finesse' at lines 7 and 16"):
            parse_config(str(path))

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text(FIG1_TEXT.replace("finesse", "finess"))
        with pytest.raises(ParseError, match="finess"):
            parse_config(str(path))

    def test_bad_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(FIG1_TEXT.replace("= 300", "= warm"))
        with pytest.raises(ParseError, match="line"):
            parse_config(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "noeq.cfg"
        path.write_text("finesse 50000\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_config(str(path))

    def test_non_utf8_line_is_parse_error(self, tmp_path, capsys):
        # a byte that is not UTF-8 names its line, as any config error,
        # not a UnicodeDecodeError traceback
        path = tmp_path / "latin1.cfg"
        path.write_bytes(FIG1_TEXT.replace("sphere_radius_nm = 50",
                                           "sphere_radius_nm = 50\xff")
                         .encode("latin-1"))
        with pytest.raises(ParseError, match="line 2: not UTF-8"):
            parse_config(str(path))
        assert main(["steady-state", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: line 2: not UTF-8 text (invalid start byte at "
            "byte 22)\n")

    def test_empty_value_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "empty_value.cfg"
        path.write_text(FIG1_TEXT.replace("finesse = 50000", "finesse ="))
        assert main(["steady-state", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "line 7" in err

    def test_mutually_exclusive_keys(self, tmp_path):
        path = tmp_path / "both.cfg"
        path.write_text(FIG1_TEXT + "ring_charge_c = 1.0\n")
        with pytest.raises(ValidationError, match="mutually exclusive"):
            parse_config(str(path))

    def test_pressure_in_pascal_alternative(self, tmp_path):
        text = FIG1_TEXT.replace("gas_pressure_torr = 1e-10",
                                 "gas_pressure_pa = 2e-8")
        path = tmp_path / "pa.cfg"
        path.write_text(text)
        assert parse_config(str(path)).gas_pressure == 2e-8

    def test_detuning_in_rad_s_alternative(self, cfg_file, tmp_path):
        # the same detuning in rad/s gives every output row of linewidths
        kappa = derive_constants(parse_config(cfg_file)).kappa
        path = tmp_path / "rad_s.cfg"
        path.write_text(FIG1_TEXT.replace(
            "detuning_over_kappa = 0.8",
            f"detuning_delta0_rad_s = {0.8 * kappa!r}"))
        assert parse_config(str(path)).detuning_delta0 == 0.8 * kappa
        outs = []
        for config in (cfg_file, str(path)):
            out = tmp_path / "steady.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["steady-state", "--config", config,
                             "--out", str(out)]) == 0
            outs.append(out.read_text().splitlines())
        assert "detuning_delta0_rad_s" in outs[1][0]
        assert outs[0][1:] == outs[1][1:]


class TestCommands:
    def test_steady_state_exit_zero(self, cfg_file, capsys):
        assert main(["steady-state", "--config", cfg_file]) == 0
        out = capsys.readouterr().out
        assert "operating point" in out
        assert "stability" in out

    def test_steady_state_decoupled_note(self, tmp_path, capsys):
        path = tmp_path / "dec.cfg"
        path.write_text(FIG1_TEXT.replace("mcp_epsilon = 1e-5",
                                          "mcp_epsilon = 0"))
        assert main(["steady-state", "--config", str(path)]) == 0
        assert "decoupled" in capsys.readouterr().out

    def test_steady_state_verify(self, cfg_file, capsys):
        assert main(["steady-state", "--config", cfg_file, "--verify"]) == 0
        assert "agrees" in capsys.readouterr().out

    def test_steady_state_verify_not_converged(self, cfg_file, tmp_path,
                                               monkeypatch, capsys):
        def stalled(*args, **kwargs):
            raise NotConverged("forced")

        monkeypatch.setattr(levring.cli, "integrate_mean_field", stalled)
        out = tmp_path / "verify.csv"
        assert main(["steady-state", "--config", cfg_file, "--verify",
                     "--out", str(out)]) == 0
        assert ("mean-field check: not converged (forced)"
                in capsys.readouterr().out)
        lines = out.read_text().splitlines()
        assert lines[-1] == "mean_field_x_bar,"
        assert not [l for l in lines if l.startswith("mean_field_dx")]

    def test_steady_state_verify_at_a_large_detuning(self, tmp_path, capsys):
        # the field rotates at |Delta0| + |g| ~ 30 kappa, which sets the
        # mean-field step; a step of 0.1 / kappa, blind to that rotation,
        # lets the state leave the float range here
        path = tmp_path / "detuned.cfg"
        path.write_text(FIG1_TEXT.replace("7.25e10", "7.25e6")
                        .replace("detuning_over_kappa = 0.8",
                                 "detuning_over_kappa = 30"))
        assert main(["steady-state", "--config", str(path), "--verify"]) == 0
        assert "-> agrees" in capsys.readouterr().out

    def test_steady_state_verify_stop_rule_past_t_max(self, tmp_path, capsys):
        # two windows of three trap periods outlast t_max = 4000 / kappa:
        # reported before any step, not by a run of minutes
        path = tmp_path / "slow_trap.cfg"
        path.write_text(FIG1_TEXT.replace("7.25e10", "7.25e4")
                        .replace("detuning_over_kappa = 0.8",
                                 "detuning_over_kappa = 300"))
        assert main(["steady-state", "--config", str(path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert ("mean-field check: not converged (the stop rule needs two "
                "windows of three mechanical periods, 1.159e-02 s, beyond "
                "t_max = 4.247e-03 s)") in out

    def test_steady_state_scans_at_configured_detuning(self, tmp_path,
                                                       monkeypatch, capsys):
        # rebuilding delta0 from op.delta_eff - g cos^2(k x_s) is off by
        # one ulp on this config
        path = tmp_path / "weak.cfg"
        path.write_text(FIG1_TEXT.replace("7.25e10", repr(0.2 * 7.25e10))
                        .replace("detuning_over_kappa = 0.8",
                                 "detuning_over_kappa = 0.7"))
        seen = []
        scan = levring.cli.scan_roots

        def recording(derived, delta0, c0):
            seen.append(delta0)
            return scan(derived, delta0, c0)

        monkeypatch.setattr(levring.cli, "scan_roots", recording)
        assert main(["steady-state", "--config", str(path)]) == 0
        kappa = derive_constants(parse_config(str(path))).kappa
        assert seen == [0.7 * kappa]

    def test_spectrum_csv_schema(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--config", cfg_file, "--grid-n", "101",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "# version: 0.1.0"
        assert lines[2] == ("omega_over_kappa,S_XX,S_YY,S_XX_norm,"
                            "S_YY_norm,unstable")
        assert len(lines) == 3 + 101

    def test_spectrum_decoupled_is_flat(self, tmp_path):
        path = tmp_path / "dec.cfg"
        path.write_text(FIG1_TEXT.replace("mcp_epsilon = 1e-5",
                                          "mcp_epsilon = 0"))
        out = tmp_path / "spec.csv"
        main(["spectrum", "--config", str(path), "--grid-n", "51",
              "--out", str(out)])
        rows = [l.split(",") for l in out.read_text().splitlines()[3:]]
        assert all(abs(float(r[1]) - 0.5) < 1e-14
                   and abs(float(r[2]) - 0.5) < 1e-14 for r in rows)

    def test_csv_byte_identical_between_runs(self, cfg_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            main(["spectrum", "--config", cfg_file, "--grid-n", "101",
                  "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["entanglement", "--config", str(ROOT / "configs" / "fig2.cfg"),
         "--grid-min", "-5e-1", "--grid-max", "0.5", "--grid-n", "5"],
        ["stability-map", "--config", str(ROOT / "configs" / "fig1.cfg"),
         "--grid-min", "-1e0", "--grid-n", "3", "--p2-n", "3"],
    ], ids=["entanglement", "stability-map"])
    def test_negative_exponent_bound_as_separate_argument(self, tmp_path,
                                                           argv):
        # `--grid-min -5e-1` is a value, exactly as `--grid-min=-5e-1`
        i = argv.index("--grid-min")
        joined = argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
        runs = []
        for n, args in enumerate((argv, joined)):
            out = tmp_path / f"{n}.csv"
            runs.append((main([*args, "--out", str(out)]), out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        assert f"\n{float(argv[i + 1])!r},".encode() in runs[0][1]

    def test_entanglement_csv_determinism(self, tmp_path):
        path = tmp_path / "fig2.cfg"
        path.write_text(FIG1_TEXT.replace("7.25e10", "2.5e11"))
        # the package from this checkout, installed or not
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"ent_{run}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "levring.cli", "entanglement",
                 "--config", str(path), "--ring-mode", "resonant",
                 "--grid-min", "0.1", "--grid-max", "0.6",
                 "--grid-n", "12", "--out", str(out)],
                check=True, capture_output=True, env=env)
            assert b"RuntimeWarning" not in proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[2]
        assert header == ("delta0_over_kappa,E_n,stable,x_s,omega_m,"
                          "Q_used,E_x,error")

    @pytest.mark.parametrize("workload, choice", [
        ("stability_map", "c0_over_lambda"),
        ("stability_map", "charge_scale"),
        ("entanglement_sweep", "fixed_charge"),
        ("entanglement_sweep", "resonant"),
    ])
    def test_sweep_csv_matches_pinned_digest(self, workload, choice):
        # the shipped configs at the default grids must keep writing the
        # bytes pinned in levbench/reference_digests.json
        config, subcommand, option = SWEEPS[workload]
        with open(ROOT / "levbench" / "reference_digests.json") as fh:
            digest = json.load(fh)["digests"][workload][choice]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([subcommand, "--config",
                         str(ROOT / "configs" / config), option, choice])
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    @staticmethod
    def assert_pinned_without(monkeypatch, workload, choice, builders):
        """The run of a sweep workload writes its pinned bytes (exit 0)
        without calling any of builders, (module, name) pairs."""
        built = []
        for module, name in builders:
            monkeypatch.setattr(module, name,
                                lambda *args, name=name: built.append(name))
        config, subcommand, option = SWEEPS[workload]
        with open(ROOT / "levbench" / "reference_digests.json") as fh:
            digest = json.load(fh)["digests"][workload][choice]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([subcommand, "--config",
                         str(ROOT / "configs" / config), option, choice]) == 0
        assert built == []
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    @pytest.mark.parametrize("choice", ["c0_over_lambda", "charge_scale"])
    def test_stability_map_builds_no_model(self, monkeypatch, choice):
        # a map reads its cells' values off the solver's table: no cell's
        # records, its verdict included, are built, and the pinned bytes
        # are written
        self.assert_pinned_without(
            monkeypatch, "stability_map", choice,
            [(levring.steady_state, "_model"),
             (levring.dynamics, "_assemble")])

    @pytest.mark.parametrize("choice", ["fixed_charge", "resonant"])
    def test_entanglement_sweep_builds_no_model(self, monkeypatch, choice):
        # a sweep reads its rows off the solver's table: no row's model,
        # verdict or EntanglementResult is built, and the pinned bytes are
        # written
        self.assert_pinned_without(
            monkeypatch, "entanglement_sweep", choice,
            [(levring.steady_state, "_model"),
             (levring.dynamics, "_assemble"),
             (levring.entanglement, "log_negativity")])

    def test_stability_map_includes_decoupled_line(self, cfg_file, tmp_path):
        out = tmp_path / "map.csv"
        code = main(["stability-map", "--config", cfg_file,
                     "--grid-min", "0.4", "--grid-max", "0.8",
                     "--grid-n", "3", "--p2-min", "0.0", "--p2-max", "1.0",
                     "--p2-n", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2] == ("delta0_over_kappa,c0_over_lambda,S1,S2,"
                            "rh_stable,eig_stable,error")
        zero_rows = [l for l in lines[3:] if l.split(",")[1] == "0.0"]
        assert zero_rows
        assert all(r.split(",")[4] == "true" and r.split(",")[5] == "true"
                   for r in zero_rows)

    @pytest.mark.parametrize("p2_range", [("0", "2"), ("-150", "150")])
    def test_stability_map_derives_once_per_column(self, cfg_file,
                                                   monkeypatch, p2_range):
        # a column varies only C0 or the ring charge: one derive_constants
        # per column plus one for the config at the first detuning,
        # however many detunings
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return derive_constants(cfg)

        monkeypatch.setattr(levring.pipeline, "derive_constants", counted)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["stability-map", "--config", cfg_file,
                         "--grid-n", "11", "--p2-min", p2_range[0],
                         "--p2-max", p2_range[1], "--p2-n", "7"]) == 0
        assert len(out.getvalue().splitlines()) == 3 + 11 * 7
        assert len(calls) == 7 + 1

    def test_svg_output(self, cfg_file, tmp_path):
        svg = tmp_path / "spec.svg"
        main(["spectrum", "--config", cfg_file, "--grid-n", "51",
              "--out", str(tmp_path / "s.csv"), "--svg", str(svg)])
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "stroke-dasharray" in text  # the 1/2 baseline rule

    def test_one_point_svg(self, cfg_file, tmp_path):
        # one frequency spans no x range: the axis is widened to unit width
        svg = tmp_path / "one.svg"
        assert main(["spectrum", "--config", cfg_file, "--grid-n", "1",
                     "--out", str(tmp_path / "s.csv"), "--svg",
                     str(svg)]) == 0
        text = svg.read_text()
        points = re.findall(r'points="([^"]*)"', text)
        assert [p.split(",")[0] for p in points] == ["64.00", "64.00"]
        assert_inside_the_chart(text)

    @pytest.mark.parametrize("config, ring_mode, code, runs", [
        ("fig2.cfg", "fixed_charge", 0, 1),     # 158 of 200 rows fail
        ("decoupled.cfg", "resonant", 2, 0),    # every row fails
    ])
    def test_entanglement_svg_skips_missing_rows(self, tmp_path, config,
                                                 ring_mode, code, runs):
        svg = tmp_path / "ent.svg"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["entanglement", "--config",
                         str(ROOT / "configs" / config), "--ring-mode",
                         ring_mode, "--svg", str(svg)]) == code
        text = svg.read_text()
        assert "nan" not in text
        assert text.count("<polyline") == runs
        assert_inside_the_chart(text)

    def test_svg_breaks_curves_at_missing_points(self, tmp_path):
        svg = tmp_path / "gaps.svg"
        ys = [0.1, 0.2, 0.3, np.nan, 0.5, 0.4, np.inf, np.nan, 0.2, 0.1]
        levring.cli.write_svg(str(svg), np.arange(10.0),
                              [("gaps", ys), ("none", [np.nan] * 10)],
                              xlabel="x", ylabel="y", baseline=0.0)
        text = svg.read_text()
        assert "nan" not in text and "inf" not in text
        polylines = re.findall(r'points="([^"]*)"', text)
        assert [len(p.split()) for p in polylines] == [3, 2, 2]
        assert_inside_the_chart(text)
        # the finite values and the baseline span the plot, 5% padded
        ys_px = [float(p.split(",")[1]) for p in " ".join(polylines).split()]
        assert min(ys_px) > 20.0 and max(ys_px) < 416.0

    def test_entanglement_svg_leaves_the_csv(self, tmp_path):
        with open(ROOT / "levbench" / "reference_digests.json") as fh:
            digest = json.load(fh)["digests"]["entanglement_sweep"][
                "fixed_charge"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["entanglement", "--config",
                         str(ROOT / "configs" / "fig2.cfg"),
                         "--svg", str(tmp_path / "ent.svg")]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    def test_one_parser_serves_every_call(self, tmp_path):
        # main builds its parser once per process; three runs in one
        # process, the second with --svg and the third with another
        # --param2, each write the bytes of a fresh run: stdout those
        # pinned in levbench/reference_digests.json, the SVG that of a
        # new interpreter
        assert levring.cli.build_parser() is levring.cli.build_parser()
        with open(ROOT / "levbench" / "reference_digests.json") as fh:
            pinned = json.load(fh)["digests"]
        fig1, fig2 = (str(ROOT / "configs" / c) for c in ("fig1.cfg",
                                                          "fig2.cfg"))
        svg = tmp_path / "ent.svg"
        runs = [(["stability-map", "--config", fig1],
                 pinned["stability_map"]["c0_over_lambda"]),
                (["entanglement", "--config", fig2, "--svg", str(svg)],
                 pinned["entanglement_sweep"]["fixed_charge"]),
                (["stability-map", "--config", fig1, "--param2",
                  "charge_scale"], pinned["stability_map"]["charge_scale"])]
        for argv, digest in runs:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == 0
            assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
                digest)
        fresh = tmp_path / "fresh.svg"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-m", "levring.cli", "entanglement",
                        "--config", fig2, "--svg", str(fresh)],
                       check=True, capture_output=True, env=env)
        assert svg.read_bytes() == fresh.read_bytes()


def per_cell_csv(config_line, columns, rows):
    """The CSV `write_csv` writes, formed row by row, cell by cell, by
    `cli._fmt`."""
    lines = [f"# config: {config_line}", f"# version: {levring.__version__}",
             ",".join(columns)]
    lines += [",".join(levring.cli._fmt(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


class TestWriteCsv:
    """`write_csv` formats a column at a time; each cell keeps the bytes
    `_fmt` gives it."""

    COLUMNS = ("a", "b", "c", "d", "e", "f", "g")

    def written(self, rows):
        out = io.StringIO()
        levring.cli.write_csv(out, "k=v", self.COLUMNS, rows)
        return out.getvalue()

    @pytest.mark.parametrize("rows", [
        # floats with None on error rows, as a map's S1 and S2
        [(0.1, -2.5e-300, None, True, "", 1, np.float64(3.0)),
         (1e300, float("nan"), 2.0, None, "NoRootInInterval: x", 2,
          np.float64(-0.0)),
         (float("inf"), -float("inf"), None, False, "", -3,
          np.float64(1e-310))],
        # bool beside np.bool_, in one column and in their own
        [(True, np.True_, np.False_, True, "a", 0, 5e-324),
         (False, np.False_, True, np.True_, "b", 7, 1.5)],
        # numpy types outside the lookup table, and an int column of
        # numpy ints
        [(np.float32(0.1), np.float32(3.0), np.int64(4), np.float16(0.5),
          np.str_("s"), np.uint8(9), np.longdouble(0.25)),
         (np.float32(-1e-40), 2.0, np.int64(-4), None, "t", 1,
          np.longdouble(-2.0))],
    ], ids=["float-None", "bools", "fallback"])
    def test_columns_equal_per_cell_format(self, rows):
        want = per_cell_csv("k=v", self.COLUMNS, rows)
        assert self.written(rows) == want
        assert self.written(iter(rows)) == want
        assert self.written(zip(*zip(*rows))) == want
        assert self.written(map(tuple, rows)) == want

    def test_zero_rows_write_the_header_only(self):
        want = per_cell_csv("k=v", self.COLUMNS, [])
        assert self.written([]) == want == (
            f"# config: k=v\n# version: {levring.__version__}\n"
            "a,b,c,d,e,f,g\n")
        assert self.written(iter([])) == want
        assert self.written(zip()) == want

    def test_a_seeded_table_equals_per_cell_format(self):
        rng = np.random.default_rng(35)
        kinds = [lambda: float(rng.normal() * 10.0 ** rng.integers(-300, 300)),
                 lambda: None, lambda: bool(rng.integers(2)),
                 lambda: np.bool_(rng.integers(2)), lambda: "e, x",
                 lambda: int(rng.integers(-9, 9)),
                 lambda: np.float64(rng.normal()),
                 lambda: np.float32(rng.normal())]
        # columns of one kind, and columns that mix two kinds
        picks = [(k, k) for k in range(len(kinds))] + [(0, 1), (2, 3),
                                                       (6, 7), (0, 6)]
        for first, second in picks:
            rows = [tuple(kinds[(first, second)[(r + c) % 2]]()
                          for c in range(len(self.COLUMNS)))
                    for r in range(40)]
            assert self.written(rows) == per_cell_csv("k=v", self.COLUMNS,
                                                      rows)


def assert_inside_the_chart(text):
    """Every coordinate of an SVG chart is a number inside its 720x460 box."""
    coords = re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', text)
    coords += re.findall(r'points="([^"]*)"', text)
    values = [float(v) for c in coords for v in c.replace(",", " ").split()]
    assert values and all(0.0 <= v <= 720.0 for v in values)


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["steady-state", "--config",
                     str(tmp_path / "nope.cfg")]) == 3

    @pytest.mark.parametrize("key, value, field", [
        ("sphere_radius_nm", "500", "sphere_radius"),
        ("gas_pressure_torr", "nan", "gas_pressure"),
        ("mcp_epsilon", "nan", "mcp_epsilon"),
        ("detuning_over_kappa", "nan", "detuning_over_kappa"),
        ("ring_offset_c0_nm", "nan", "ring_offset_c0"),
        ("input_power_mw", "inf", "input_power"),
    ])
    def test_invalid_config_is_validation_error(self, tmp_path, capsys,
                                                key, value, field):
        path = tmp_path / "bad.cfg"
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}",
                               FIG1_TEXT, flags=re.M))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["steady-state", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("subcommand", ["steady-state", "spectrum",
                                            "entanglement", "stability-map"])
    @pytest.mark.parametrize("key, value, message", [
        ("finesse", "1e-300",
         "derived constant kappa = inf is not finite "
         "(from cavity_length, finesse)"),
        ("input_power_mw", "1e300",
         "derived constant E_drive = inf is not finite "
         "(from cavity_length, finesse, input_power, wavelength)"),
        ("finesse", "5e-324",
         "derived constant kappa = nan is not finite "
         "(from cavity_length, finesse)"),
        ("ring_radius_mm", "1e300",
         "derived constant R^3 = nan is not finite (from ring_radius)"),
        ("temperature_k", "1e-320",
         "derived constant kB T = 0.0 underflows (from temperature)"),
        ("cavity_length_cm", "1e300",
         "derived constant V_c = inf is not finite "
         "(from wavelength, cavity_length)"),
        ("sphere_radius_nm", "1e-300",
         "derived constant mass = 0.0 underflows "
         "(from density, sphere_radius)"),
        ("density_kg_m3", "1e-300",
         "derived constant mass = 5.24e-322 underflows "
         "(from density, sphere_radius)"),
        ("density_kg_m3", "5e-324",
         "derived constant mass = 0.0 underflows "
         "(from density, sphere_radius)"),
    ])
    def test_non_finite_derived_constant_is_validation_error(
            self, tmp_path, capsys, subcommand, key, value, message):
        # finite inputs whose constants overflow or underflow (2 L F,
        # R^3, kB T): a config error, named, before any solver sees them
        path = tmp_path / "bad.cfg"
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}",
                               FIG1_TEXT, flags=re.M))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([subcommand, "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("key, value, argv, message", [
        ("detuning_over_kappa", "1e150", ["steady-state"],
         "derived constant 2 (|d kappa| + g) = 1.8836515673088532e+156 has "
         f"no finite square {DETUNING_FIELDS}"),
        ("detuning_over_kappa", "1e150",
         ["steady-state", "--ring-mode", "resonant"],
         "derived constant 2 (|d kappa| + g) = 1.8836515673088532e+156 has "
         f"no finite square {DETUNING_FIELDS}"),
        ("ring_field_v_per_m", "1e300", ["steady-state"],
         "derived constant force-balance bound = 1.8024488356827002e+276 has "
         f"no finite square {BOUND_FIELDS}"),
        ("ring_field_v_per_m", "1e300", ["stability-map"],
         "derived constant force-balance bound = 1.8024488356827002e+276 has "
         f"no finite square {BOUND_FIELDS}"),
    ])
    def test_overflowing_square_is_validation_error(self, tmp_path, capsys,
                                                    key, value, argv,
                                                    message):
        # finite inputs with an overflowing square (4 Delta^2 in the steady
        # state, or the force-balance bound's): a config error naming the
        # field, not a numerical error from a solver
        path = tmp_path / "bad.cfg"
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}",
                               FIG1_TEXT, flags=re.M))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--config", str(path),
                         "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("changes, argv, code, message, csv_error", [
        # resonant detunings of 1e100-1e148 kappa: the mismatch is finite
        # but the product of neighbouring values is not
        ({"detuning_over_kappa": "1e120"},
         ["steady-state", "--ring-mode", "resonant"], 2,
         "numerical error: resonance condition has no root", None),
        ({"detuning_over_kappa": "1e120"},
         ["spectrum", "--ring-mode", "resonant", "--grid-n", "5"], 2,
         "numerical error: resonance condition has no root", None),
        ({"detuning_over_kappa": "1e120"}, ["steady-state"], 2,
         "numerical error: no force-balance root", None),
        ({}, ["entanglement", "--ring-mode", "resonant", "--grid-min",
              "1e120", "--grid-max", "1e120", "--grid-n", "1"], 2,
         "numerical error: no sweep point", "NoResonantSolution"),
        # the decoupled c0 = 0 column: its Routh-Hurwitz value S2 overflows
        ({}, ["stability-map", "--grid-min", "1e120", "--grid-max", "1e120",
              "--grid-n", "1", "--p2-n", "1"], 0, None,
         "NumericalError: Routh-Hurwitz value S2 = inf is not finite"),
        # (|Delta0| + g)^2 is finite, 4 Delta(x)^2 is not
        ({"detuning_over_kappa": "1.2e148"},
         ["steady-state", "--ring-mode", "resonant"], 1,
         DETUNING_ERROR_1E148, None),
        ({"detuning_over_kappa": "1.2e148"}, ["steady-state"], 1,
         DETUNING_ERROR_1E148, None),
        ({"detuning_over_kappa": "1.2e148"}, ["spectrum", "--grid-n", "5"],
         1, DETUNING_ERROR_1E148, None),
        # detuning grids pass the same bound as a configured detuning
        ({}, ["entanglement", "--grid-min", "1e150", "--grid-max", "1e150",
              "--grid-n", "1"], 1, DETUNING_ERROR_1E150, None),
        ({}, ["entanglement", "--ring-mode", "resonant", "--grid-min",
              "1e150", "--grid-max", "1e150", "--grid-n", "1"], 1,
         DETUNING_ERROR_1E150, None),
        ({}, ["stability-map", "--grid-min", "1e150", "--grid-max", "1e150",
              "--grid-n", "1", "--p2-n", "1"], 1, DETUNING_ERROR_1E150, None),
        # |d|^2, or a spectrum value, overflows: a numerical error, not
        # nan or inf rows
        ({"finesse": "1e-40", "ring_field_v_per_m": "1e-300"},
         ["spectrum", "--grid-n", "5"], 2,
         "numerical error: transfer denominator |d|^2 is not finite within "
         "grid [-1.413e+51, 1.413e+51]\n", None),
        # a lower finesse overflows S2 ~ kappa^7 before the spectrum
        ({"finesse": "1e-50", "ring_field_v_per_m": "1e-300"},
         ["spectrum", "--grid-n", "5"], 2,
         "numerical error: Routh-Hurwitz value S2 = inf is not finite\n",
         None),
        ({"density_kg_m3": "1e-100", "temperature_k": "1e200"},
         ["spectrum", "--grid-n", "5"], 2,
         "numerical error: output spectrum is not finite within grid "
         "[-2.825e+06, 2.825e+06]\n", None),
        # finite constants, but S2 overflows at the solved point
        ({"ring_offset_c0_nm": "100", "ring_field_v_per_m": "1e170"},
         ["steady-state"], 2,
         "numerical error: Routh-Hurwitz value S2 = inf is not finite\n",
         None),
        ({"ring_offset_c0_nm": "100", "ring_field_v_per_m": "1e170"},
         ["spectrum", "--grid-n", "5"], 2,
         "numerical error: Routh-Hurwitz value S2 = inf is not finite\n",
         None),
        ({"ring_offset_c0_nm": "100", "ring_field_v_per_m": "1e170"},
         ["entanglement", "--grid-n", "3"], 2,
         "numerical error: no sweep point",
         "NumericalError: Routh-Hurwitz value S2 = inf is not finite"),
        ({"ring_offset_c0_nm": "100", "ring_field_v_per_m": "1e170"},
         ["stability-map", "--grid-n", "3", "--p2-n", "3"], 0, None,
         "NumericalError: Routh-Hurwitz value S2 = inf is not finite"),
        # the covariance's determinants overflow: a row error, not a
        # traceback from squaring sigma
        ({"temperature_k": "1e300"}, ["entanglement", "--grid-n", "3"], 2,
         "numerical error: no sweep point",
         "UnphysicalCovariance: determinants overflow"),
        ({"temperature_k": "1e200"},
         ["entanglement", "--ring-mode", "resonant", "--grid-n", "3"], 2,
         "numerical error: no sweep point",
         "UnphysicalCovariance: determinants overflow"),
    ])
    def test_extreme_input_exits_cleanly(self, tmp_path, capsys, changes,
                                         argv, code, message, csv_error):
        # in process, so any RuntimeWarning is an error (pytest's filter);
        # a failure is one stderr line, and a grid records its cells' errors
        text = FIG1_TEXT
        for key, value in changes.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text,
                          flags=re.M)
        path, out = tmp_path / "extreme.cfg", tmp_path / "out.csv"
        path.write_text(text)
        assert main([*argv, "--config", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if message is None:
            assert err == ""
        else:
            assert err.startswith(message) and err.count("\n") == 1
        if csv_error is not None:
            assert csv_error in out.read_text()

    @pytest.mark.parametrize("old, new, field", [
        ("gas_pressure_torr = 1e-10", "gas_pressure_pa = -1", "gas_pressure"),
    ])
    def test_invalid_optional_key_is_validation_error(self, tmp_path, capsys,
                                                      old, new, field):
        path = tmp_path / "bad.cfg"
        path.write_text(FIG1_TEXT.replace(old, new))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["steady-state", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("subcommand", ["steady-state", "spectrum"])
    @pytest.mark.parametrize("form", ["maintext", "supplement"])
    def test_spectrum_form_is_unknown_key(self, tmp_path, capsys, subcommand,
                                          form):
        # no config key selects a form of the output spectrum, whatever
        # value it is given
        path = tmp_path / "form.cfg"
        path.write_text(FIG1_TEXT + f"spectrum_form = {form}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([subcommand, "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: line 16: unknown key 'spectrum_form'\n")
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("subcommand, option, value", [
        ("spectrum", "--grid-n", "-3"),
        ("spectrum", "--grid-n", "0"),
        ("spectrum", "--grid-max", "nan"),
        ("spectrum", "--grid-min", "-inf"),
        ("spectrum", "--grid-n", "abc"),
        ("entanglement", "--grid-n", "-1"),
        ("entanglement", "--grid-n", "0"),
        ("entanglement", "--grid-max", "inf"),
        ("entanglement", "--grid-n", "1.5"),
        ("stability-map", "--grid-n", "-2"),
        ("stability-map", "--grid-n", "0"),
        ("stability-map", "--grid-max", "nan"),
        ("stability-map", "--p2-n", "-1"),
        ("stability-map", "--p2-n", "0"),
        ("stability-map", "--p2-min", "nan"),
        ("stability-map", "--p2-max", "inf"),
        ("stability-map", "--p2-n", "abc"),
        ("stability-map", "--ring-mode", "resonant"),
    ])
    def test_bad_grid_option_exits_one(self, cfg_file, capsys, subcommand,
                                       option, value):
        # counts below 1, non-finite bounds, unparsable values and options
        # the subcommand does not take are validation errors, not crashes,
        # empty outputs or numerical failures
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([subcommand, "--config", cfg_file,
                             f"{option}={value}"])
            except SystemExit as exc:   # an argparse usage error
                code = exc.code
        assert code == 1
        assert option in capsys.readouterr().err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("lo, hi, n, code", [
        ("3", "-3", "3001", 1), ("1", "1", "5", 1), ("1", "1", "1", 0)])
    def test_spectrum_grid_must_increase(self, cfg_file, capsys, lo, hi, n,
                                         code):
        # a grid that does not increase is a config error before the
        # solve, not a ValueError from spectrum_sweep; one point is a grid
        assert main(["spectrum", "--config", cfg_file, "--grid-min", lo,
                     "--grid-max", hi, "--grid-n", n]) == code
        assert capsys.readouterr().err == ("" if code == 0 else (
            f"config error: --grid-min {float(lo)} and --grid-max "
            f"{float(hi)} give no increasing grid\n"))

    @pytest.mark.parametrize("config, argv, options", [
        (None, ["spectrum", "--grid-min", "-1e308", "--grid-max", "1e308"],
         ["--grid-min", "--grid-max"]),
        (None, ["entanglement", "--grid-min", "-1e308", "--grid-max",
                "1e308"], ["--grid-min", "--grid-max"]),
        (None, ["stability-map", "--grid-min", "-1e308", "--grid-max",
                "1e308"], ["--grid-min", "--grid-max"]),
        (None, ["stability-map", "--param2", "c0_over_lambda", "--p2-min",
                "-1e308", "--p2-max", "1e308"], ["--p2-min", "--p2-max"]),
        (None, ["stability-map", "--param2", "charge_scale", "--p2-min",
                "-1e308", "--p2-max", "1e308"], ["--p2-min", "--p2-max"]),
        (None, ["spectrum", "--grid-max", "1e308"],
         ["--grid-min", "--grid-max"]),
        (None, ["spectrum", "--grid-max", "1e33"],
         ["--grid-min", "--grid-max"]),
        (None, ["spectrum", "--grid-max", "1e40"],
         ["--grid-min", "--grid-max"]),
        # fig2 at a fixed charge has no force-balance root: the grid is
        # checked before the solve
        ("fig2.cfg", ["spectrum", "--grid-max", "1e40"],
         ["--grid-min", "--grid-max"]),
    ], ids=["spectrum-span", "entanglement-span", "stability-map-span",
            "p2-span-c0_over_lambda", "p2-span-charge_scale",
            "spectrum-rad-per-s", "spectrum-eighth-power-1e33",
            "spectrum-eighth-power-1e40", "spectrum-before-the-solve"])
    def test_overflowing_grid_exits_one(self, cfg_file, tmp_path, capsys,
                                        config, argv, options):
        # finite bounds whose span, or whose largest value in rad/s,
        # overflows are validation errors naming the options, raised
        # before any array is built: no RuntimeWarning, no nan or inf
        out = tmp_path / "out.csv"
        if config is not None:
            cfg_file = str(ROOT / "configs" / config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--grid-n", "3", "--config", cfg_file,
                         "--out", str(out)]
                        + (["--p2-n", "3"] if "stability-map" in argv
                           else []))
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert all(option in err for option in options), err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert not out.exists() or not {"inf", "-inf", "nan"} & set(
            csv_fields(out.read_text()))

    def test_grid_below_the_eighth_power_limit_exits_zero(self, cfg_file,
                                                          tmp_path, capsys):
        # (3.6e32 kappa)^8 is finite on fig1: the spectra are written
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["spectrum", "--grid-max", "3.6e32", "--grid-n", "3",
                         "--config", cfg_file, "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert not {"inf", "-inf", "nan"} & set(csv_fields(out.read_text()))

    def test_numerical_failure_is_exit_two(self, tmp_path, capsys):
        # strong ring + moderate detuning: no force-balance root
        path = tmp_path / "noroot.cfg"
        path.write_text(FIG1_TEXT.replace("7.25e10", "2.5e11")
                        .replace("detuning_over_kappa = 0.8",
                                 "detuning_over_kappa = 0.3"))
        assert main(["steady-state", "--config", str(path)]) == 2
        assert "numerical error" in capsys.readouterr().err

    def test_negative_resonant_charge_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "near.cfg"
        path.write_text(re.sub(r"^ring_offset_c0_nm = .*$",
                               "ring_offset_c0_nm = 20",
                               (ROOT / "configs" / "fig2.cfg").read_text(),
                               flags=re.M))
        assert main(["steady-state", "--config", str(path),
                     "--ring-mode", "resonant"]) == 2
        assert capsys.readouterr().err == (
            "numerical error: force balance at the resonant point needs a "
            "negative ring charge\n")

    def test_resonant_field_overflow_names_the_solved_charge(
            self, tmp_path, capsys):
        # so small a bound charge, the smallest normal one, and so strong
        # an optical force that the charge solved for resonance,
        # A_q 4 pi eps0 R^3 / q, puts an inf field at x_s: exit 1 naming
        # mcp_epsilon and the solved charge's other fields, not the
        # ring_field that resonant mode does not use
        path, out = tmp_path / "faint.cfg", tmp_path / "out.csv"
        text = (ROOT / "configs" / "fig2.cfg").read_text()
        for key, value in (("mcp_epsilon", "1.4e-289"),
                           ("input_power_mw", "1e20"),
                           ("detuning_over_kappa", "1000")):
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text,
                          flags=re.M)
        path.write_text(text)
        # the sweep's rows at the configured detuning, the only ones with
        # a resonance root
        for argv in (*SMALL_GRID_RUNS[:2],
                     ["entanglement", "--grid-n", "2", "--grid-min", "999",
                      "--grid-max", "1000"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*argv, "--config", str(path), "--ring-mode",
                             "resonant", "--out", str(out)]) == 1, argv
            assert capsys.readouterr().err == (
                "config error: derived constant E_x at the resonant x_s = "
                "inf is not finite (from mcp_epsilon, ring_radius, "
                "ring_offset_c0, sphere_radius, permittivity, wavelength, "
                "cavity_length, finesse, input_power)\n"), argv


# the other key of each one-of pair, with the line of fig1.cfg it replaces
# (appended, it would only meet the "mutually exclusive" error)
ALTERNATES = {"ring_charge_c": "ring_field_v_per_m",
              "detuning_delta0_rad_s": "detuning_over_kappa",
              "gas_pressure_pa": "gas_pressure_torr"}
# every numeric key of fig1.cfg, the optional gas molecule mass and the
# one-of alternates
EXTREME_KEYS = re.findall(r"^(\w+) = ", FIG1_TEXT, flags=re.M) + [
    "gas_molecule_mass_u", *ALTERNATES]
SMALL_GRID_RUNS = (["steady-state"], ["spectrum", "--grid-n", "3"],
                   ["entanglement", "--grid-n", "2"],
                   ["stability-map", "--grid-n", "2", "--p2-n", "2"])


def edited_fig1(*lines):
    """FIG1_TEXT with each `key = value` line in place of the line of its
    key or of its one-of partner; a key without either is appended."""
    text = FIG1_TEXT
    for line in lines:
        key = line.split(" = ")[0]
        pattern = rf"^{ALTERNATES.get(key, key)} = .*$"
        text = (re.sub(pattern, line, text, flags=re.M)
                if re.search(pattern, text, flags=re.M) else f"{text}{line}\n")
    return text


def csv_fields(text):
    """Every field of the data lines of a CSV the CLI wrote."""
    return [field for line in text.splitlines() if not line.startswith("#")
            for field in line.split(",")]


def assert_runs_exit_cleanly(path, out, capsys, keys):
    """Every subcommand on the config at path, in process with small grids,
    gives an exit code of the documented family, one error line, and no
    traceback or RuntimeWarning; a config error names the field of one
    of the edited keys, and a run that exits 0 writes no inf or nan."""
    fields = [levring.cli.CONFIG_KEYS[key][0] for key in keys]
    for argv in SMALL_GRID_RUNS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], argv
        assert code in (0, 1, 2), argv
        if code == 0:
            assert err == "", argv
            assert not {"inf", "-inf", "nan"} & set(
                csv_fields(out.read_text())), argv
        else:
            prefix = "config error: " if code == 1 else "numerical error: "
            assert err.startswith(prefix) and err.count("\n") == 1, argv
            assert code == 2 or any(f in err for f in fields), (argv, err)


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{key}={value}") for key in EXTREME_KEYS
    for value in ("1e300", "1e-300", "5e-324")])
def test_extreme_value_of_every_numeric_key(tmp_path, capsys, key, value):
    path = tmp_path / "extreme.cfg"
    path.write_text(edited_fig1(f"{key} = {value}"))
    assert_runs_exit_cleanly(path, tmp_path / "out.csv", capsys, [key])


PAIR_VALUES = ("1e300", "-1e300", "1e200", "1e150", "1e100", "1e50", "1e20",
               "1e-20", "1e-50", "1e-100", "1e-150", "1e-200", "1e-300",
               "5e-324")


def seeded_pairs(seed, n):
    """n seeded edits of two distinct EXTREME_KEYS to PAIR_VALUES."""
    rng = random.Random(seed)
    return [tuple(f"{key} = {rng.choice(PAIR_VALUES)}"
                  for key in rng.sample(EXTREME_KEYS, 2)) for _ in range(n)]


@pytest.mark.parametrize("lines", [
    pytest.param(lines, id=",".join(lines).replace(" ", ""))
    for lines in seeded_pairs(0, 200)])
def test_extreme_values_of_seeded_key_pairs(tmp_path, capsys, lines):
    # two fields that pass one at a time can fail together, in the
    # constants or at the solved point: the same clean exits
    path = tmp_path / "pair.cfg"
    path.write_text(edited_fig1(*lines))
    assert_runs_exit_cleanly(path, tmp_path / "out.csv", capsys,
                             [line.split(" = ")[0] for line in lines])


@pytest.mark.parametrize("lines, message", [
    (["sphere_radius_nm = 1e-300", "ring_radius_mm = 1e-300"],
     "derived constant R^3 = 0.0 underflows (from ring_radius)"),
    (["sphere_radius_nm = 1e-300", "ring_radius_mm = 1e-300",
      "ring_charge_c = 1e-9"],
     "derived constant R^3 = 0.0 underflows (from ring_radius)"),
    (["cavity_length_cm = 1e160", "ring_offset_c0_nm = 1e165"],
     "derived constant V_c = inf is not finite "
     "(from wavelength, cavity_length)"),
    # (c0 / R)^2 overflows in the field-to-charge inversion alone
    (["cavity_length_cm = 1e156", "ring_offset_c0_nm = 1e161"],
     "derived constant ring_charge = nan is not finite "
     "(from ring_field, ring_offset_c0, ring_radius)"),
    # V_c underflows to 0, and g = 3 V_s / (2 V_c) divides by it
    (["cavity_length_cm = 1e-300", "ring_offset_c0_nm = 1e-300"],
     "derived constant g = nan is not finite "
     "(from sphere_radius, permittivity, wavelength, cavity_length)"),
    # kappa is finite, but kappa^2 overflows or underflows
    (["finesse = 1e-150", "detuning_over_kappa = 1e-300"],
     "derived constant kappa^2 = inf is not finite "
     "(from cavity_length, finesse)"),
    (["finesse = 1e-150", "detuning_over_kappa = 5e-324"],
     "derived constant kappa^2 = inf is not finite "
     "(from cavity_length, finesse)"),
    (["cavity_length_cm = 1e150", "finesse = 1e150"],
     "derived constant kappa^2 = 0.0 underflows "
     "(from cavity_length, finesse)"),
    (["wavelength_nm = 1e150", "finesse = 1e300"],
     "derived constant kappa^2 = 0.0 underflows "
     "(from cavity_length, finesse)"),
    # the pi/4k term of the bound overflows: wavelength is named
    (["wavelength_nm = 1e200"],
     "derived constant force-balance bound = 1.3646359710421444e+183 has "
     f"no finite square {BOUND_FIELDS}"),
    # Delta0 = d kappa overflows through kappa: its fields are named
    (["cavity_length_cm = 1e-100", "ring_offset_c0_nm = 1e-100"],
     "derived constant 2 (|d kappa| + g) = 6.321237038254713e+204 has "
     f"no finite square {DETUNING_FIELDS}"),
], ids=["tiny-ring", "tiny-ring-charge-given", "long-cavity",
        "far-ring-offset", "tiny-cavity-tiny-offset",
        "low-finesse-tiny-detuning", "low-finesse-subnormal-detuning",
        "long-fine-cavity", "long-wave-high-finesse", "long-wave",
        "tiny-cavity-tiny-offset-detuning"])
def test_two_field_edit_is_config_error(tmp_path, capsys, lines, message):
    # fields that pass one at a time fail together in the ring or cavity
    # constants: exit 1 and one config error line, on every subcommand
    path = tmp_path / "edited.cfg"
    path.write_text(edited_fig1(*lines))
    for argv in SMALL_GRID_RUNS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--config", str(path),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1, argv
        assert capsys.readouterr().err == f"config error: {message}\n", argv
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], argv


@pytest.mark.parametrize("lines, codes, message", [
    # a_s^2 overflows in the trap frequency of the map's C0 = 0 cells,
    # the only ones with a root
    (["cavity_length_cm = 1e150", "input_power_mw = 1e150"], (2, 2, 2, 0),
     r"derived constant trap radicand = nan is not finite "
     r"\(from cavity_length, finesse, input_power, wavelength, "
     r"sphere_radius, permittivity, density\)"),
    # omega_m ~ 1e-143 makes Gamma_diff ~ 1e163, whose square overflows
    (["density_kg_m3 = 1e300", "gas_pressure_torr = 1e300"], (1, 1, 1, 0),
     r"derived constant Gamma_diff = \S+ has no finite square at omega_m = "
     r"\S+ rad/s \(from permittivity, sphere_radius, wavelength, "
     r"temperature, gas_pressure, density, gas_molecule_mass\)"),
    # a tiny mass makes A_q / (m omega_m) overflow in Omega_m
    (["sphere_radius_nm = 1e-50", "ring_offset_c0_nm = 1e-150"],
     (1, 1, 1, 0),
     r"derived constant Omega_m = inf is not finite at omega_m = \S+ rad/s "
     r"\(from mcp_epsilon, ring_(field, ring_offset_c0, ring_radius|charge, "
     r"ring_radius), "
     r"density, sphere_radius, cavity_length, finesse, input_power, "
     r"wavelength, permittivity\)"),
    # A_q = 0, so the decoupled point solves, but the ring field at x_s
    # overflows; a map forms no E_x
    (["mcp_epsilon = 0", "ring_charge_c = 1e300"], (1, 1, 1, 0),
     r"derived constant E_x at x_s = inf is not finite "
     r"\(from ring_charge, ring_radius, ring_offset_c0\)"),
], ids=["long-cavity-high-power", "dense-sphere-high-pressure",
        "tiny-sphere-tiny-offset", "no-bound-charge-huge-ring-charge"])
def test_overflow_at_the_solved_point_is_config_error(tmp_path, capsys,
                                                      lines, codes, message):
    # fields that pass together in the constants overflow at the solved
    # point: a config error on each point, recorded per cell on a map
    # unless the map does not form the value, with warnings raised as
    # errors
    path, out = tmp_path / "edited.cfg", tmp_path / "out.csv"
    path.write_text(edited_fig1(*lines))
    for argv, code in zip(SMALL_GRID_RUNS, codes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--config", str(path),
                         "--out", str(out)]) == code, argv
        err = capsys.readouterr().err
        if code == 1:
            assert re.fullmatch(f"config error: {message}\n", err), argv
        elif code == 2:
            assert err.startswith("numerical error: "), argv
        else:
            recorded = re.search(f"ConfigInvalid: {message}\n",
                                 out.read_text())
            assert bool(recorded) != message.startswith(
                "derived constant E_x"), argv


@pytest.mark.parametrize("epsilon, q", [("1e-305", "0.0"),
                                         ("1e-302", "1.6e-321")])
def test_underflowing_bound_charge_is_config_error(tmp_path, capsys,
                                                   epsilon, q):
    # a configured bound charge that rounds to zero is no decoupled point
    # (fixed charge) and no missing resonance (resonant), and a subnormal
    # one no divisor of the resonant charge: exit 1 naming mcp_epsilon on
    # every subcommand, in both ring modes and on both map axes
    path, out = tmp_path / "faint.cfg", tmp_path / "out.csv"
    path.write_text(edited_fig1(f"mcp_epsilon = {epsilon}"))
    runs = [[*argv, "--ring-mode", mode] for argv in SMALL_GRID_RUNS[:3]
            for mode in ("fixed_charge", "resonant")]
    runs += [[*SMALL_GRID_RUNS[3], "--param2", axis]
             for axis in ("c0_over_lambda", "charge_scale")]
    for argv in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--config", str(path),
                         "--out", str(out)]) == 1, argv
        assert capsys.readouterr().err == (
            f"config error: derived constant q_mcp = {q} underflows "
            "(from mcp_epsilon)\n"), argv


S2_ERROR = "Routh-Hurwitz value S2 = inf is not finite"


@pytest.mark.parametrize("lines, point_error, s2_cell", [
    # every candidate, on the point and on each grid
    (["finesse = 1e-50", "ring_field_v_per_m = 1e-300"], S2_ERROR,
     lambda row: True),
    # only a map's C0 = 0 cells have a candidate
    (["finesse = 1e-50", "density_kg_m3 = 1e-20"],
     "no force-balance root in (-pi/4k, pi/4k) at delta0 = 3.767303e+60",
     lambda row: row[1] == "0.0"),
], ids=["low-finesse-weak-ring", "low-finesse-light-sphere"])
def test_overflowing_routh_hurwitz_value_is_numerical_error(
        tmp_path, capsys, lines, point_error, s2_cell):
    # every quartic coefficient is finite, but S2 ~ kappa^7 overflows: a
    # numerical error on the point, recorded per row or cell on a grid,
    # never an inf field
    path, out = tmp_path / "edited.cfg", tmp_path / "out.csv"
    path.write_text(edited_fig1(*lines))
    errors = (point_error, point_error,
              "no sweep point produced a stationary state", None)
    recorded = 0
    for argv, error in zip(SMALL_GRID_RUNS, errors):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--config", str(path), "--out", str(out)])
        assert code == (0 if error is None else 2), argv
        assert capsys.readouterr().err == (
            "" if error is None else f"numerical error: {error}\n"), argv
        if argv[0] in ("entanglement", "stability-map"):
            header, *data = out.read_text().splitlines()[2:]
            rows = [line.split(",", header.count(",")) for line in data]
            for row in rows:
                assert (row[-1] == f"NumericalError: {S2_ERROR}") == (
                    s2_cell(row)), (argv, row)
            recorded += sum(map(s2_cell, rows))
            assert not {"inf", "-inf", "nan"} & set(csv_fields(
                out.read_text())), argv
    assert recorded >= 2


# every subcommand in each ring mode it has, on its default grids
DEFAULT_RUNS = [[sub, "--ring-mode", mode]
                for sub in ("steady-state", "spectrum", "entanglement")
                for mode in levring.pipeline.RING_MODES] + [["stability-map"]]


@pytest.mark.parametrize("argv", DEFAULT_RUNS, ids=" ".join)
@pytest.mark.parametrize("config", ["fig1.cfg", "fig2.cfg"])
def test_field_specified_ring_and_its_charge_twin_are_one_ring(
        tmp_path, capsys, config, argv):
    # the shipped ring given by the charge its field resolves to, written
    # as repr: the same exit code, stdout, stderr and CSV bytes, but for
    # the `# config:` line
    text = (ROOT / "configs" / config).read_text()
    charge = derive_constants(parse_config(ROOT / "configs" / config)
                              ).ring_charge
    twin = tmp_path / config
    twin.write_text(re.sub(r"^ring_field_v_per_m = .*$",
                           f"ring_charge_c = {charge!r}", text, flags=re.M))
    assert parse_config(twin).ring_charge == charge
    runs = []
    for path in (ROOT / "configs" / config, twin):
        out = tmp_path / f"out_{path.parent.name}.csv"
        code = main([*argv, "--config", str(path), "--out", str(out)])
        stdout, stderr = capsys.readouterr()
        csv = (out.read_text().splitlines(keepends=True) if out.exists()
               else None)
        if csv is not None:
            assert csv[0].startswith("# config: ")
            csv = csv[1:]
        runs.append((code, stdout, stderr, csv))
    assert runs[0] == runs[1]
