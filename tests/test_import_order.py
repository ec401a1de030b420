"""Every entry point into the fault and control packages imports cleanly
when a fresh interpreter loads it first.

``repro.control`` and ``repro.faults`` import each other through their
``__init__`` re-exports, so whether an import cycle closes depends on
which module a process loads first. Each case runs in its own
interpreter, because one import would otherwise settle every later one.
"""

import pathlib
import subprocess
import sys

import pytest

FIRST_IMPORTS = [
    "repro.faults",
    "repro.faults.scenario",
    "repro.control",
    "repro.control.resilience",
    "repro.cli",
]


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_module_imports_cleanly_first(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        cwd=pathlib.Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
