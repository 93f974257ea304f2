"""Byte-identity pins for the `steady-state` and `spectrum` subcommands.

The four sweep CSVs are pinned in test_cli.py against
levbench/reference_digests.json. This file pins the two single-point
subcommands on the shipped configs: the sha256 of the `--out` CSV and of
stdout, for fig1 in both ring modes, fig2 resonant and the decoupled
config with a fixed charge. Regenerate the table with
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
        "07b3dcef62986f22b79b6aedf980d5f3e5d84e259073b4f4a6b25a336db5fc5e",
        "3aa0b0ea72923e47f16dbe1428d76af3c61b281ba4e23aad90716911f1db86d5"),
    ("steady-state", "fig1.cfg", "resonant"): (
        "aec563dfd4a775223f2f9feb91cfa0f18f52deaa7f21319889f8e63c23ddc25e",
        "c70d222e9f5a40750620973c1d0a1c297b9640ebf6c39a036e5bbe5e3f6149bf"),
    ("steady-state", "fig2.cfg", "resonant"): (
        "0be90a4f9c5c2378ddcd3eebb3fc23b8fe981141e397d7eb6631ce854f8f6140",
        "52619cf6450031639fcc2e834e5dd5306678843242b28cf27a7e149c8b7f320e"),
    ("steady-state", "decoupled.cfg", "fixed_charge"): (
        "b24920340a2f26bf0ab4522ab488a7f158363005a23ab643a521daca9aa4e639",
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


def run_digests(subcommand, config, ring_mode, out_path):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([subcommand, "--config", str(CONFIG_DIR / config),
                     "--ring-mode", ring_mode, "--out", str(out_path)])
    assert code == 0
    return (hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
            hashlib.sha256(pathlib.Path(out_path).read_bytes()).hexdigest())


@pytest.mark.parametrize("subcommand", ["steady-state", "spectrum"])
@pytest.mark.parametrize("config, ring_mode", CASES)
def test_output_matches_pinned_digest(tmp_path, subcommand, config,
                                      ring_mode):
    got = run_digests(subcommand, config, ring_mode, tmp_path / "out.csv")
    assert got == DIGESTS[(subcommand, config, ring_mode)]


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
