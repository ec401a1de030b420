"""Pinned diagnostics: every finding the linters and graph checkers emit.

Each digest is sha256 over the JSON of a list of
``Diagnostic.to_dict()`` values (or, for the CLI cases, the whole JSON
payload with the wall-clock ``analysis_ms`` stripped):

* ``lint_sources`` over every example DSL file plus every stdlib entry;
* ``repro graph --check --no-place --format json`` on each example
  topology spec and on both demo graphs;
* ``repro check examples/lint_demo.adn --graph SPEC --format json`` for
  each example spec;
* ``lint_source`` over the multi-chain apps the DSL graph-rule tests
  use.

A change to a rule's wording, span, severity or verdict on any of these
inputs must show up here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import test_graph
import test_graph_analysis
import test_multichain
from repro.cli import main
from repro.dsl.stdlib import STDLIB_SOURCES
from repro.lint import lint_source, lint_sources

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.adn"))
SPECS = sorted((ROOT / "examples").glob("*.graph.json"))


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def diagnostic_dicts(results):
    return [d.to_dict() for result in results for d in result.diagnostics]


def cli_payload(argv, capsys):
    main(argv)
    payload = json.loads(capsys.readouterr().out)
    payload.get("analysis", {}).pop("analysis_ms", None)
    return payload


LINT_DIGEST = (
    "81e115e497009d95f9346bdc8b46e59a958efc4339144dffc8ec3c156ac89bc7"
)

GRAPH_DIGESTS = {
    "bookinfo.graph.json": (
        "a01a7fa18462f3b61d71c0d44e5678ca87414179998cde35e5e2e3fcf7a67d67"
    ),
    "double_charge.graph.json": (
        "3383639376335b094fbdd581dbfddccaed0cee8c8429b518ff97669e68f25916"
    ),
    "retry_storm.graph.json": (
        "3d90a5b23228213b5aa69fb51721796564d8071ccaa94e4a56f19cfb725912d7"
    ),
    "--demo bookinfo": (
        "a01a7fa18462f3b61d71c0d44e5678ca87414179998cde35e5e2e3fcf7a67d67"
    ),
    "--demo hotel-mesh": (
        "af3fc89c5caf127407f45561621f6a8fbb942ef9a65abd0ddc1d1508fa060e1c"
    ),
}

CHECK_GRAPH_DIGESTS = {
    "bookinfo.graph.json": (
        "bee6513aa86903c6eb87f0428ffa7b08a287e7a79333fe7e5e0ed64381c9ff34"
    ),
    "double_charge.graph.json": (
        "906c75011276c9e87af11fc41fd87fdaad3555c6cc454bd55313bb1c8f7f6398"
    ),
    "retry_storm.graph.json": (
        "dbc5046b62af0062a71a5ad619e877a3d408e1a3b591bd99dfcdd1fcb0c87d58"
    ),
}

MULTICHAIN_APPS = {
    "mesh-logging-retry": test_graph.MESH_APP.format(
        upstream="Logging", downstream="Retry, Logging"
    ),
    "mesh-logging-admission": test_graph.MESH_APP.format(
        upstream="Logging", downstream="AdmissionControl"
    ),
    "mesh-retry-admission": test_graph.MESH_APP.format(
        upstream="Retry", downstream="AdmissionControl"
    ),
    "storm": test_graph_analysis.TestDslGraphFlowRules.STORM_APP,
    "shop": test_multichain.APP,
}

MULTICHAIN_DIGESTS = {
    "mesh-logging-retry": (
        "da2f1858094fe696a66117b8b695847c077658e7e7c5844a842a32be394542c4"
    ),
    "mesh-logging-admission": (
        "1375b54d02e5f8544adb9760294d27436623191f63a656de6c47b0de3528c650"
    ),
    "mesh-retry-admission": (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    ),
    "storm": (
        "98c9a12fe4be567fa413c6bd67e2bfd5e8b78731e2f3dfada7e688ac15dfb9cf"
    ),
    "shop": (
        "597fd8f97a82f36c9850fb3b38a3a8b538a2720d44ee4fd4cbf0de852befeb61"
    ),
}


def test_examples_and_stdlib_lint():
    items = [(str(path.relative_to(ROOT)), path.read_text())
             for path in EXAMPLES]
    items += [(f"<stdlib:{name}>", STDLIB_SOURCES[name])
              for name in sorted(STDLIB_SOURCES)]
    assert digest(diagnostic_dicts(lint_sources(items))) == LINT_DIGEST


@pytest.mark.parametrize("case", sorted(GRAPH_DIGESTS))
def test_graph_check(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    target = case.split() if case.startswith("--") else [f"examples/{case}"]
    payload = cli_payload(
        ["graph", *target, "--check", "--no-place", "--format", "json"],
        capsys,
    )
    assert digest(payload) == GRAPH_DIGESTS[case]


@pytest.mark.parametrize("spec", sorted(CHECK_GRAPH_DIGESTS))
def test_check_graph(spec, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    payload = cli_payload(
        ["check", "examples/lint_demo.adn", "--graph", f"examples/{spec}",
         "--format", "json"],
        capsys,
    )
    assert digest(payload) == CHECK_GRAPH_DIGESTS[spec]


@pytest.mark.parametrize("name", sorted(MULTICHAIN_APPS))
def test_multichain_app_lint(name):
    result = lint_source(MULTICHAIN_APPS[name])
    assert digest(diagnostic_dicts([result])) == MULTICHAIN_DIGESTS[name]


def test_every_example_spec_is_pinned():
    names = {path.name for path in SPECS}
    assert names == set(CHECK_GRAPH_DIGESTS)
    assert names <= set(GRAPH_DIGESTS)
