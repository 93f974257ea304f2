"""Set-up probe: a fresh interpreter that gets one workload ready.

    python3 levbench/probe.py <workload>

Imports levring, builds the workload's configs and makes the first call of
its path, then prints ``ready``. run.py times this from process start to
that line. The probe always draws with seed 0, so that every run times the
same set-up work.
"""
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports levring)

workloads.make(sys.argv[1], ROOT, 0).first_call()
print("ready", flush=True)
