"""Config parsing, subcommands, CSV determinism and exit codes."""
import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import levring.cli
import levring.pipeline
from levring.cli import main, parse_config
from levring.errors import NotConverged, ParseError, ValidationError
from levring.model import derive_constants

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

    def test_spectrum_form_read_from_file(self, cfg_file, tmp_path):
        # maintext changes only the phase quadrature's cross term
        path = tmp_path / "maintext.cfg"
        path.write_text(FIG1_TEXT + "spectrum_form = maintext\n")
        columns = []
        for config in (cfg_file, str(path)):
            out = tmp_path / "spec.csv"
            assert main(["spectrum", "--config", config, "--grid-n", "101",
                         "--out", str(out)]) == 0
            rows = [l.split(",") for l in out.read_text().splitlines()[3:]]
            columns.append(list(zip(*rows)))
        (w, sxx, syy), (w_m, sxx_m, syy_m) = (c[:3] for c in columns)
        assert w == w_m and sxx == sxx_m
        assert syy != syy_m

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
        # per column plus one for the config, however many detunings
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return derive_constants(cfg)

        for module in (levring.cli, levring.pipeline):
            monkeypatch.setattr(module, "derive_constants", counted)
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
         "ring_radius = 1e+297 m overflows when cubed"),
        ("temperature_k", "1e-320", "temperature 1e-320 underflows kB T"),
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
         "detuning_over_kappa gives Delta0 = 9.418e+155 rad/s, too large for "
         "4 (|Delta0| + g)^2"),
        ("detuning_over_kappa", "1e150",
         ["steady-state", "--ring-mode", "resonant"],
         "detuning_over_kappa gives Delta0 = 9.418e+155 rad/s, too large for "
         "4 (|Delta0| + g)^2"),
        ("ring_field_v_per_m", "1e300", ["steady-state"],
         "force-balance bound 1.802e+276 N cannot be squared "
         "(from mcp_epsilon, ring_field, ring_offset_c0, ring_radius)"),
        ("ring_field_v_per_m", "1e300", ["stability-map"],
         "force-balance bound 1.802e+276 N cannot be squared "
         "(from mcp_epsilon, ring_field, ring_offset_c0, ring_radius)"),
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
        # the decoupled c0 = 0 column: its quartic coefficients overflow
        ({}, ["stability-map", "--grid-min", "1e120", "--grid-max", "1e120",
              "--grid-n", "1", "--p2-n", "1"], 0, None,
         "NumericalError: characteristic quartic"),
        # (|Delta0| + g)^2 is finite, 4 Delta(x)^2 is not
        ({"detuning_over_kappa": "1.2e148"},
         ["steady-state", "--ring-mode", "resonant"], 1,
         "config error: detuning_over_kappa gives", None),
        ({"detuning_over_kappa": "1.2e148"}, ["steady-state"], 1,
         "config error: detuning_over_kappa gives", None),
        ({"detuning_over_kappa": "1.2e148"}, ["spectrum", "--grid-n", "5"],
         1, "config error: detuning_over_kappa gives", None),
        # detuning grids pass the same bound as a configured detuning
        ({}, ["entanglement", "--grid-min", "1e150", "--grid-max", "1e150",
              "--grid-n", "1"], 1,
         "config error: detuning_over_kappa gives", None),
        ({}, ["entanglement", "--ring-mode", "resonant", "--grid-min",
              "1e150", "--grid-max", "1e150", "--grid-n", "1"], 1,
         "config error: detuning_over_kappa gives", None),
        ({}, ["stability-map", "--grid-min", "1e150", "--grid-max", "1e150",
              "--grid-n", "1", "--p2-n", "1"], 1,
         "config error: detuning_over_kappa gives", None),
        # finite constants, but the quartic scale's fourth power overflows
        ({"ring_offset_c0_nm": "100", "ring_field_v_per_m": "1e170"},
         ["steady-state"], 2,
         "numerical error: characteristic quartic of scale 3.398e+85 rad/s "
         "overflows", None),
        ({"ring_offset_c0_nm": "100", "ring_field_v_per_m": "1e170"},
         ["spectrum", "--grid-n", "5"], 2,
         "numerical error: characteristic quartic", None),
        ({"ring_offset_c0_nm": "100", "ring_field_v_per_m": "1e170"},
         ["entanglement", "--grid-n", "3"], 2,
         "numerical error: no sweep point",
         "NumericalError: characteristic quartic"),
        ({"ring_offset_c0_nm": "100", "ring_field_v_per_m": "1e170"},
         ["stability-map", "--grid-n", "3", "--p2-n", "3"], 0, None,
         "NumericalError: characteristic quartic"),
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
        ("temperature_k = 300",
         "temperature_k = 300\nspectrum_form = squeezed", "spectrum_form"),
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
