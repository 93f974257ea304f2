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

import pytest

import levring.cli
from levring.cli import main, parse_config
from levring.errors import ParseError, ValidationError
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

    def test_entanglement_csv_determinism(self, tmp_path):
        path = tmp_path / "fig2.cfg"
        path.write_text(FIG1_TEXT.replace("7.25e10", "2.5e11"))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"ent_{run}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "levring.cli", "entanglement",
                 "--config", str(path), "--ring-mode", "resonant",
                 "--grid-min", "0.1", "--grid-max", "0.6",
                 "--grid-n", "12", "--out", str(out)],
                check=True, capture_output=True)
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

    def test_svg_output(self, cfg_file, tmp_path):
        svg = tmp_path / "spec.svg"
        main(["spectrum", "--config", cfg_file, "--grid-n", "51",
              "--out", str(tmp_path / "s.csv"), "--svg", str(svg)])
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "stroke-dasharray" in text  # the 1/2 baseline rule


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

    def test_numerical_failure_is_exit_two(self, tmp_path, capsys):
        # strong ring + moderate detuning: no force-balance root
        path = tmp_path / "noroot.cfg"
        path.write_text(FIG1_TEXT.replace("7.25e10", "2.5e11")
                        .replace("detuning_over_kappa = 0.8",
                                 "detuning_over_kappa = 0.3"))
        assert main(["steady-state", "--config", str(path)]) == 2
        assert "numerical error" in capsys.readouterr().err
