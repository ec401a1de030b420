"""Import boundaries, each checked in a fresh interpreter, because one
import would otherwise settle every later one.

Every entry point into the fault, control, state, offload and graph
packages imports cleanly when a process loads it first. The
``repro.control`` and ``repro.state`` packages import none of their
submodules, and the placement plan types live in the solver's module,
so the toolchain's path to ``repro.control.placement`` runs no data
plane code and no import cycle can close on it.

The toolchain commands (``lint``, ``check``, ``compile``, ``plan`` and
``fmt``) load the front end, the IR, the analyses, the compiler, the
placement solver, offload and the lint engine, and nothing of the data
plane: no simulator, runtime, wire, fault, overload, graph, baseline or
element-catalog module, and no controller, autoscaler or state
migration.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

FIRST_IMPORTS = [
    "repro.faults",
    "repro.faults.scenario",
    "repro.control",
    "repro.control.placement",
    "repro.control.resilience",
    "repro.runtime.processor",
    "repro.state",
    "repro.offload",
    "repro.offload.split",
    "repro.graph",
    "repro.cli",
]

#: packages no toolchain command may load, nor any module under them
DATA_PLANE_PACKAGES = (
    "repro.sim",
    "repro.runtime",
    "repro.net",
    "repro.faults",
    "repro.overload",
    "repro.graph",
    "repro.baselines",
    "repro.elements",
)
#: modules of the control and state packages no toolchain command may load
DATA_PLANE_MODULES = (
    "repro.control.controller",
    "repro.control.resilience",
    "repro.control.k8s",
    "repro.control.scaling",
    "repro.state.migration",
    "repro.state.checkpoint",
)

TOOLCHAIN_COMMANDS = [
    ("lint", "--stdlib"),
    ("check",),
    ("check", "--types", "--stdlib"),
    ("compile",),
    ("compile", "--verify"),
    ("plan",),
    ("fmt",),
]


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_module_imports_cleanly_first(module):
    result = _run(f"import {module}")
    assert result.returncode == 0, result.stderr[-2000:]


def test_toolchain_commands_load_no_data_plane_module():
    files = sorted(str(path.relative_to(ROOT))
                   for path in (ROOT / "examples").glob("*.adn"))
    assert files
    argvs = [list(command) + [path]
             for command in TOOLCHAIN_COMMANDS for path in files]
    script = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        main(argv)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = _run(script)
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert "repro.control.placement" in loaded
    assert "repro.lint.engine" in loaded
    assert [
        name for name in loaded
        if name in DATA_PLANE_MODULES
        or any(name == package or name.startswith(package + ".")
               for package in DATA_PLANE_PACKAGES)
    ] == []
