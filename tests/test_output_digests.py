"""Byte-identity pins for the `steady-state`, `spectrum`, `stability-map`
and `entanglement` subcommands.

The four sweep CSVs are pinned in test_cli.py against
levbench/reference_digests.json. This file pins the two single-point
subcommands on the shipped configs: the sha256 of the `--out` CSV and of
stdout, for fig1 in both ring modes, fig2 resonant and the decoupled
config with a fixed charge, and the same for `steady-state --verify`,
whose mean-field relaxation adds lines to stdout and rows to the CSV;
neither stdout may print a numpy scalar. fig1 saved with a UTF-8
byte-order mark must give the bytes of fig1.
It also pins small stability maps with the
row kinds the shipped maps lack: ConfigInvalid columns, negative offsets
and charges, C0 = 0 and zero-charge columns, an all-decoupled config and
a 1x1 grid. The entanglement pins hold the sha256 of stdout and the exit
code of sweeps beyond the two shipped fig2 ones: fig1 and the decoupled
config (every resonant row fails, exit 2) in both ring modes, a wide fig2
grid with AllRootsUnstable rows and resonant points off the stable
sideband, a negative ring offset and 1-row grids. Regenerate the tables with
`PYTHONPATH=src python tests/test_output_digests.py`, and only when an
output change is intended.
"""
import contextlib
import hashlib
import io
import pathlib
import sys

import pytest

from levring.cli import main

from conftest import CONFIG_DIR

CASES = [
    ("fig1.cfg", "fixed_charge"),
    ("fig1.cfg", "resonant"),
    ("fig2.cfg", "resonant"),
    ("decoupled.cfg", "fixed_charge"),
]

# (subcommand, config, ring mode) -> sha256 of (stdout, --out CSV)
DIGESTS = {
    ("steady-state", "fig1.cfg", "fixed_charge"): (
        "07a60ec4a914206a516b6a66c6b4b451edd0ac1f1d638bd06581bcb8f4295394",
        "3aa0b0ea72923e47f16dbe1428d76af3c61b281ba4e23aad90716911f1db86d5"),
    ("steady-state", "fig1.cfg", "resonant"): (
        "95ad181532232850b00cf6c6583d95307a7737e4188bb596d28bca19c8ed03d8",
        "c70d222e9f5a40750620973c1d0a1c297b9640ebf6c39a036e5bbe5e3f6149bf"),
    ("steady-state", "fig2.cfg", "resonant"): (
        "029d72dd92926e237555f5be58e47c41edee7072e3e287a77dd13e9961301ed3",
        "52619cf6450031639fcc2e834e5dd5306678843242b28cf27a7e149c8b7f320e"),
    ("steady-state", "decoupled.cfg", "fixed_charge"): (
        "8b489a352a905c76991974d2dfb6208157e70bc2eddb39967758dceee729a24a",
        "382e5652a0a8eeb3b05817254eff15070aeaf4336d59bdbf72c0f18ce375224a"),
    ("spectrum", "fig1.cfg", "fixed_charge"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "40e8ee3dbd921e8b606c80f761a1ffd728422b3cce8d0aee976b76dfb41cf2a4"),
    ("spectrum", "fig1.cfg", "resonant"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b60471ab83291d9ecdddf8ad9ef7d39ef4336ab77bd8c4b00b9c4483ab65cc8d"),
    ("spectrum", "fig2.cfg", "resonant"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "df54d8ddc7940585d03c6c2d259bad86100a4c36b78cc613112a0af237cd8c45"),
    ("spectrum", "decoupled.cfg", "fixed_charge"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "895b8e560a25ac018965a91abea10bb78188cfe7ddb16e6a34668d94dc371020"),
}

# config, ring mode -> sha256 of (stdout, --out CSV) of steady-state --verify
VERIFY_DIGESTS = {
    ("fig1.cfg", "fixed_charge"): (
        "7e3514021dbcbd925bbd1c87e9bfe85d4728d2436ad9f2dd2cf0e08a96003181",
        "eb7a0cc0348e1af0853dc098778a4f1e8f4094584b5f19b0cb5a44734d25f755"),
    ("fig1.cfg", "resonant"): (
        "152ab01b8867303e2907c4c9dfab3313e0ef16e0e9a64b3bff27e6a3e5d7662c",
        "9f8445c41c36be1bac0a806b3a42b902ab9204362768dadf05f8d9c15408991a"),
    ("fig2.cfg", "resonant"): (
        "73d17dd5d753a27272359738883e6e8c423aa8568da0325e622e123092b7381b",
        "c2cb043194e6f1d9f8b46becd4e7679f1ffa8e5d0fc46e15735a7c3858811b5b"),
    ("decoupled.cfg", "fixed_charge"): (
        "73ba74daeb3651d1318e7dfae1f350d19c939d9c3ee1cc8aa2b35e6747fff9b6",
        "0a84082b57974dcdf89c8f23e6f3609e1f217da6c9d7c00184e650120f7fb577"),
}


# stability-map arguments after the config -> sha256 of the CSV on stdout
MAP_DIGESTS = {
    "fig1.cfg --param2 c0_over_lambda --p2-min -150 --p2-max 150 --p2-n 7":
        "4aec67ab93a91209ec5efb5df5ff3b74612c1164c8be2f3e92404918be4d4728",
    "fig2.cfg --param2 c0_over_lambda --p2-min -2 --p2-max 2 --p2-n 9 "
    "--grid-n 21":
        "7b275e9d6768049a803b5e291389ac9d95c32b3c9f82f0ed716b22b269925123",
    "fig2.cfg --param2 charge_scale --p2-min -1.5 --p2-max 1.5 --p2-n 7 "
    "--grid-n 21":
        "1a910fa42848614fb557b9c5b4603aa99b8096583b2e267ae4ba8e0c8daad377",
    "decoupled.cfg --grid-n 11 --p2-n 5":
        "ac9b9a5e41e51dbffdd1086418997bb676862715870c96849e094d67ca0f0181",
    "fig1.cfg --grid-min 0.8 --grid-n 1 --p2-min 1 --p2-n 1":
        "f184bad518d0ac9e4a56e35b1404087439337e7db9988dc0e81b20d4c7db0f6d",
}


# entanglement arguments after the config -> (sha256 of stdout, exit code);
# fig2_neg_c0.cfg is fig2.cfg with ring_offset_c0_nm = -1064
SWEEP_DIGESTS = {
    "fig1.cfg --ring-mode fixed_charge":
        ("5829d7af66c7c023ac20cb431bef72df08769efbb95c093ab5909d2789f7a23e", 0),
    "fig1.cfg --ring-mode resonant":
        ("a80e13670348a8aa77cdab33ae2491661f55be9553208c6af1cc39a9f79ab660", 0),
    "decoupled.cfg --ring-mode fixed_charge":
        ("03524f66d79a9fbd7a2ef59745752a22fe08c816d3a4f9033022acf27efde3e8", 0),
    "decoupled.cfg --ring-mode resonant":
        ("26fc680ed92bb4e7f72d719d4cb25e839401c1afbdc7185e5acf6f2bcf90b7b4", 2),
    "fig2.cfg --ring-mode fixed_charge --grid-min -0.5 --grid-max 1.2 "
    "--grid-n 35":
        ("300f8068608f77119ecdb15803e9d804cc283c5d54258e85b2d16473bac4700d", 0),
    "fig2.cfg --ring-mode resonant --grid-min -0.5 --grid-max 1.2 "
    "--grid-n 35":
        ("008c90fd68118b0b583b333a0d3eacdff37836d17ea3717e8d4e35bffb46918b", 0),
    "fig2_neg_c0.cfg --ring-mode fixed_charge --grid-n 40":
        ("15c4e97df1f0cac282f7127db577950f0f4287c7897d04c4d8f67208e37b9d7f", 2),
    "fig2_neg_c0.cfg --ring-mode resonant --grid-n 40":
        ("be8e4a2256940e6a78eab05d859a5ed2bfa848c03cdfc3addec9926aff9acc19", 0),
    "fig1.cfg --ring-mode fixed_charge --grid-min 0.8 --grid-n 1":
        ("4bb944069eebb7ed14486317d8b944f0b8ebd697f279a50641b0e398253f21b6", 0),
    "fig2.cfg --ring-mode fixed_charge --grid-min 0.3 --grid-n 1":
        ("e867750e1e79acd065a16a3e09d94cbd03f26c8e6e57a542b16a71d3d41d698b", 2),
    "fig2.cfg --ring-mode resonant --grid-min 0.3 --grid-n 1":
        ("16e51869af63e028f05b9ae08b0fe75902e0a1f2768d233c47f26e7a3c70ec64", 0),
}


def run_digests(subcommand, config, ring_mode, out_path, *options):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([subcommand, "--config", str(CONFIG_DIR / config),
                     "--ring-mode", ring_mode, "--out", str(out_path)]
                    + list(options))
    assert code == 0
    return (hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
            hashlib.sha256(pathlib.Path(out_path).read_bytes()).hexdigest())


@pytest.mark.parametrize("subcommand", ["steady-state", "spectrum"])
@pytest.mark.parametrize("config, ring_mode", CASES)
def test_output_matches_pinned_digest(tmp_path, subcommand, config,
                                      ring_mode):
    got = run_digests(subcommand, config, ring_mode, tmp_path / "out.csv")
    assert got == DIGESTS[(subcommand, config, ring_mode)]


def test_byte_order_mark_is_dropped(tmp_path):
    # a config saved with a UTF-8 byte-order mark, as Windows editors
    # often save it, gives the bytes of the config without it
    path = tmp_path / "fig1_bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + (CONFIG_DIR / "fig1.cfg").read_bytes())
    got = run_digests("steady-state", path, "fixed_charge",
                      tmp_path / "out.csv")
    assert got == DIGESTS[("steady-state", "fig1.cfg", "fixed_charge")]


@pytest.mark.parametrize("config, ring_mode", CASES)
def test_verify_output_matches_pinned_digest(tmp_path, config, ring_mode):
    got = run_digests("steady-state", config, ring_mode,
                      tmp_path / "out.csv", "--verify")
    assert got == VERIFY_DIGESTS[(config, ring_mode)]


@pytest.mark.parametrize("options", [[], ["--verify"]])
@pytest.mark.parametrize("config, ring_mode", CASES)
def test_steady_state_prints_no_numpy_scalar(config, ring_mode, options):
    # a numpy scalar reaching the report would print as np.float64(...)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["steady-state", "--config", str(CONFIG_DIR / config),
                     "--ring-mode", ring_mode] + options)
    assert code == 0
    assert "np." not in stdout.getvalue()


def map_digest(case):
    config, *options = case.split()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["stability-map", "--config", str(CONFIG_DIR / config)]
                    + options)
    assert code == 0
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", MAP_DIGESTS)
def test_stability_map_matches_pinned_digest(case):
    assert map_digest(case) == MAP_DIGESTS[case]


def sweep_digest(case, tmp_dir):
    config, *options = case.split()
    if config == "fig2_neg_c0.cfg":
        path = pathlib.Path(tmp_dir) / config
        path.write_text((CONFIG_DIR / "fig2.cfg").read_text().replace(
            "ring_offset_c0_nm = 1064", "ring_offset_c0_nm = -1064"))
    else:
        path = CONFIG_DIR / config
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["entanglement", "--config", str(path)] + options)
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest(), code


@pytest.mark.parametrize("case", SWEEP_DIGESTS)
def test_entanglement_matches_pinned_digest(tmp_path, case):
    assert sweep_digest(case, tmp_path) == SWEEP_DIGESTS[case]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("steady-state", "spectrum"):
            for cfg, mode in CASES:
                digests = run_digests(sub, cfg, mode,
                                      pathlib.Path(tmp) / "out.csv")
                key = ", ".join(f'"{v}"' for v in (sub, cfg, mode))
                sys.stdout.write(f'    ({key}): (\n'
                                 f'        "{digests[0]}",\n'
                                 f'        "{digests[1]}"),\n')
        for cfg, mode in CASES:
            digests = run_digests("steady-state", cfg, mode,
                                  pathlib.Path(tmp) / "out.csv", "--verify")
            sys.stdout.write(f'    ("{cfg}", "{mode}"): (\n'
                             f'        "{digests[0]}",\n'
                             f'        "{digests[1]}"),\n')
        for case in MAP_DIGESTS:
            sys.stdout.write(f'    "{case}":\n        "{map_digest(case)}",\n')
        for case in SWEEP_DIGESTS:
            digest, code = sweep_digest(case, tmp)
            sys.stdout.write(f'    "{case}":\n        ("{digest}", {code}),\n')
