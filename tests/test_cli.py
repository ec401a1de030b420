"""CLI tests (``python -m repro``)."""

import hashlib
import json
import re

import pytest

from repro.cli import main

ELEMENT_SRC = """
element Stamp {
    on request { SELECT input.*, now() AS stamped_at FROM input; }
    on response { SELECT * FROM input; }
}
"""

APP_SRC = (
    ELEMENT_SRC
    + """
app Shop {
    service A;
    service B replicas 2;
    chain A -> B { Stamp, Acl }
}
"""
)


@pytest.fixture
def dsl_file(tmp_path):
    path = tmp_path / "app.adn"
    path.write_text(APP_SRC)
    return str(path)


@pytest.mark.parametrize("command", ["check", "fmt", "compile", "plan", "lint"])
def test_missing_input_file_is_a_diagnostic(command, tmp_path, capsys):
    path = str(tmp_path / "nonexistent.adn")
    assert main([command, path]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read {path}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, sweep", [
    ("overload", "repro.overload.sweep.run_overload_sweep"),
    ("offload", "repro.offload.sweep.run_offload_comparison"),
])
@pytest.mark.parametrize("option, value", [
    ("--multipliers", "x"),
    ("--multipliers", ","),
    ("--multipliers", "0"),
    ("--multipliers", "-1"),
    ("--multipliers", "inf"),
    ("--multipliers", "nan"),
    ("--duration", "0"),
    ("--duration", "-1"),
    ("--duration", "inf"),
    ("--duration", "nan"),
])
def test_bad_sweep_load_is_a_diagnostic(
    command, sweep, option, value, capsys, monkeypatch
):
    """A malformed load is one ``error:`` line and exit 1, never an
    exception out of ``main``, and no simulation starts."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(sweep, no_sweep)
    assert main([command, option, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option} wants ")
    assert err.count("\n") == 1


class TestCheck:
    def test_valid_file(self, dsl_file, capsys):
        assert main(["check", dsl_file]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "elements: 1" in out

    def test_analyze_flag(self, dsl_file, capsys):
        assert main(["check", dsl_file, "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "Stamp:" in out
        assert "stamped_at" in out

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.adn"
        path.write_text("element Broken { on request { SELECT; } }")
        assert main(["check", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_custom_schema_fields(self, tmp_path, capsys):
        path = tmp_path / "custom.adn"
        path.write_text(
            "element E { on request { SELECT input.tenant FROM input; } }"
        )
        # custom schemas exclude the stdlib (whose elements reference the
        # default fields)
        assert (
            main(["check", str(path), "--field", "tenant:str", "--no-stdlib"])
            == 0
        )

    def test_bad_field_spec(self, dsl_file, capsys):
        assert main(["check", dsl_file, "--field", "nocolon"]) == 1


class TestFmt:
    def test_prints_canonical(self, dsl_file, capsys):
        assert main(["fmt", dsl_file]) == 0
        out = capsys.readouterr().out
        assert "element Stamp {" in out
        assert "app Shop {" in out

    def test_in_place_round_trips(self, dsl_file, capsys):
        assert main(["fmt", dsl_file, "--in-place"]) == 0
        # formatted output must still check clean
        assert main(["check", dsl_file]) == 0

    def test_output_is_stable(self, dsl_file, capsys):
        main(["fmt", dsl_file])
        first = capsys.readouterr().out
        path = dsl_file
        with open(path, "w") as handle:
            handle.write(first)
        main(["fmt", path])
        second = capsys.readouterr().out
        assert first == second


class TestCompile:
    def test_legality_listing(self, dsl_file, capsys):
        assert main(["compile", dsl_file]) == 0
        out = capsys.readouterr().out
        assert "python" in out
        assert "OK" in out

    def test_emit_backend_source(self, dsl_file, capsys):
        assert main(["compile", dsl_file, "--element", "Acl", "--emit", "p4"]) == 0
        out = capsys.readouterr().out
        assert "#include <v1model.p4>" in out

    def test_unknown_element(self, dsl_file, capsys):
        assert main(["compile", dsl_file, "--element", "Ghost"]) == 1

    def test_explain_prints_pass_report(self, dsl_file, capsys):
        assert main(["compile", dsl_file, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "chain A -> B:" in out
        for pass_name in (
            "constant_folding",
            "predicate_pushdown",
            "reorder",
            "dead_fields",
            "fuse_elements",
            "parallelize",
        ):
            assert pass_name in out
        assert "fused " in out  # fusion actually fired
        assert "artifact cache:" in out

    def test_explain_without_app_falls_back_to_elements(self, tmp_path, capsys):
        path = tmp_path / "noapp.adn"
        path.write_text(ELEMENT_SRC)
        assert main(["compile", str(path), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "chain A -> B:" in out
        assert "Stamp" in out

    def test_explain_demo_example(self, capsys):
        import os

        demo = os.path.join(
            os.path.dirname(__file__), "..", "examples", "explain_demo.adn"
        )
        assert main(["compile", "--explain", demo]) == 0
        out = capsys.readouterr().out
        assert "dropped dead field 'audit_zone'" in out
        assert "fused AuditStamp + Logging + Fault + Acl" in out


#: a failing user-only element, then a failing override of the stdlib's
#: first element: validation meets the override first (it sits at the
#: stdlib's position in the merged program), so every command names
#: 'nosuch' on line 8, whatever the schema
EXTRA_THEN_LOGGING = """\
element Extra {
    on request {
        SELECT input.*, other AS tag FROM input;
    }
}

element Logging {
    on request { SELECT input.*, nosuch AS tag FROM input; }
}
"""

#: valid overrides of the only stdlib elements that fail under
#: payload:bytes + username:str; the overridden copies are never
#: validated, so the file is accepted under that schema
OVERRIDES = """\
element LbKeyHash {
    on request { SELECT * FROM input; }
}

element AccessControl {
    on request { SELECT * FROM input; }
}

element Cache {
    on request { SELECT * FROM input; }
}
"""

NARROW = ("--field", "payload:bytes", "--field", "username:str")

#: (argv, exit code, first 16 hex of the sha256 of the canonical
#: stdout or "" for none, canonical stderr); {extra} and {overrides}
#: name the files above
LOAD_PINS = [
    (("check", "examples/explain_demo.adn"), 0, "0cdaa370b271c500", ""),
    (("compile", "examples/explain_demo.adn"), 0, "24e5c994ef8cfc8e", ""),
    (("compile", "--verify", "examples/explain_demo.adn"), 0,
     "a358b6d51eabd4c4", ""),
    (("check", "--field", "x:int", "examples/explain_demo.adn"), 1, "",
     "<stdlib:Logging>: error: unknown input field 'payload' "
     "(line 5, column 68)\n"),
    (("compile", "--field", "x:int", "examples/explain_demo.adn"), 1, "",
     "<stdlib:Logging>: error: unknown input field 'payload' "
     "(line 5, column 68)\n"),
    (("compile", "--verify", "--field", "x:int",
      "examples/explain_demo.adn"), 1, "",
     "<stdlib:Logging>: error: unknown input field 'payload' "
     "(line 5, column 68)\n"),
    *(
        (command + fields + ("{extra}",), 1, "",
         ("<file>: " if command == ("check",) else "")
         + "error: unresolved name 'nosuch' (line 8, column 34)\n")
        for fields in ((), ("--field", "x:int"), ("--field", "username:str"))
        for command in (("check",), ("compile",), ("compile", "--verify"))
    ),
    (("check",) + NARROW + ("{overrides}",), 0, "687c480d1b9c0a8d", ""),
    (("compile",) + NARROW + ("{overrides}",), 0, "71f0b6ef3fdc46af", ""),
    (("compile", "--verify") + NARROW + ("{overrides}",), 0,
     "d688a9e4da224d5b", ""),
    (("check",) + NARROW + ("examples/lint_demo.adn",), 1, "",
     "<stdlib:LbKeyHash>: error: unknown input field 'obj_id' "
     "(line 7, column 49)\n"),
    (("compile",) + NARROW + ("examples/lint_demo.adn",), 1, "",
     "<stdlib:LbKeyHash>: error: unknown input field 'obj_id' "
     "(line 7, column 49)\n"),
    (("compile", "--verify") + NARROW + ("examples/lint_demo.adn",), 1, "",
     "<stdlib:LbKeyHash>: error: unknown input field 'obj_id' "
     "(line 7, column 49)\n"),
    (("check", "--no-stdlib", "examples/explain_demo.adn"), 1, "",
     "<file>: error: app 'ExplainDemo': chain uses unknown element "
     "'Logging' (line 25, column 5)\n"),
    (("check", "--no-stdlib", "{overrides}"), 0, "687c480d1b9c0a8d", ""),
    (("graph", "--check") + NARROW + ("examples/bookinfo.graph.json",), 1,
     "", "<stdlib:LbKeyHash>: error: unknown input field 'obj_id' "
     "(line 7, column 49)\n"),
    (("bench", "--chain", "Acl") + NARROW, 1, "",
     "<stdlib:LbKeyHash>: error: unknown input field 'obj_id' "
     "(line 7, column 49)\n"),
]


class TestLoadOutcomes:
    """``check``, ``compile`` and ``compile --verify`` all read a file
    through ``_load``, which validates it over the stdlib: these pin
    what each prints and returns, above all which error comes first
    when both the file and the stdlib fail under a schema. ``graph``
    and ``bench`` load the stdlib alone, and name a failing entry the
    same way."""

    @staticmethod
    def canonical(text, path):
        """``text`` with the input's path as ``<file>`` and timings
        masked (pass tables print ms and widen their columns to fit)."""
        text = re.sub(r"\d+\.\d+", "#", text.replace(path, "<file>"))
        return re.sub(r"-{2,}", "--", re.sub(r" {2,}", " ", text))

    @pytest.mark.parametrize(
        "argv, code, stdout, stderr", LOAD_PINS,
        ids=[" ".join(case[0]) for case in LOAD_PINS],
    )
    def test_outcome_pinned(
        self, argv, code, stdout, stderr, tmp_path, capsys
    ):
        files = {"{extra}": EXTRA_THEN_LOGGING, "{overrides}": OVERRIDES}
        path = argv[-1]
        if path in files:
            (tmp_path / "input.adn").write_text(files[path])
            path = str(tmp_path / "input.adn")
        assert main(list(argv[:-1]) + [path]) == code
        out, err = capsys.readouterr()
        out = self.canonical(out, path)
        digest = hashlib.sha256(out.encode()).hexdigest()[:16] if out else ""
        assert (digest, self.canonical(err, path)) == (stdout, stderr), out

    def test_stdlib_error_is_where_lint_puts_it(self, capsys):
        """``check --format json`` names the failing stdlib entry and
        gives the position ``lint --stdlib`` reports for it (ADN102)."""
        path = "examples/lint_demo.adn"
        assert main(["check", "--format", "json", *NARROW, path]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        argv = ["lint", "--stdlib", "--format", "json", *NARROW, path]
        assert main(argv) == 1
        (found,) = [
            diagnostic
            for result in json.loads(capsys.readouterr().out)
            if result["path"] == error["path"]
            for diagnostic in result["diagnostics"]
            if diagnostic["code"] == "ADN102"
        ]
        assert error == {
            key: found[key] for key in ("message", "path", "line", "column")
        }
        assert (error["path"], error["line"]) == ("<stdlib:LbKeyHash>", 7)


class TestPlan:
    def test_software_plan(self, dsl_file, capsys):
        assert main(["plan", dsl_file]) == 0
        out = capsys.readouterr().out
        assert "chain A -> B" in out
        assert "mrpc@client-host" in out

    def test_offload_plan_with_switch(self, dsl_file, capsys):
        assert main(
            ["plan", dsl_file, "--strategy", "offload", "--switch",
             "--smartnics"]
        ) == 0
        out = capsys.readouterr().out
        assert "switch" in out or "smartnic" in out or "kernel" in out

    def test_no_app(self, tmp_path, capsys):
        path = tmp_path / "noapp.adn"
        path.write_text(ELEMENT_SRC)
        assert main(["plan", str(path)]) == 1


class TestBench:
    def test_quick_adn_run(self, capsys):
        assert main(
            ["bench", "--chain", "Acl", "--rpcs", "300",
             "--concurrency", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "completed   : 300" in out
        assert "krps" in out

    def test_grpc_system(self, capsys):
        assert main(
            ["bench", "--system", "grpc", "--chain", "", "--rpcs", "100",
             "--concurrency", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "system      : grpc" in out

    def test_envoy_system(self, capsys):
        assert main(
            ["bench", "--system", "envoy", "--chain", "Fault",
             "--rpcs", "100", "--concurrency", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "system      : envoy" in out


class TestFaults:
    def test_default_crash_demo(self, capsys):
        assert main(["faults", "--rpcs", "800"]) == 0
        out = capsys.readouterr().out
        assert "machine_crash stats-host" in out
        assert "800/800 completed" in out
        assert "recovered in" in out
        assert "detection latency" in out

    def test_plan_file_round_trip(self, tmp_path, capsys):
        from repro.faults import default_crash_plan

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            default_crash_plan(seed=3, crash_at_s=0.008).to_json()
        )
        assert main(
            ["faults", "--plan", str(plan_path), "--seed", "3",
             "--rpcs", "800"]
        ) == 0
        out = capsys.readouterr().out
        assert "t=    8.00 ms  machine_crash stats-host" in out
        assert "800/800 completed" in out

    def test_malformed_plan_rejected(self, tmp_path, capsys):
        plan_path = tmp_path / "bad.json"
        plan_path.write_text('{"seed": 1}')
        assert main(["faults", "--plan", str(plan_path)]) == 1
        out = capsys.readouterr().out
        assert "ADN610" in out
        assert "events" in out
        assert "Traceback" not in out

    def test_unparseable_plan_rejected(self, tmp_path, capsys):
        plan_path = tmp_path / "garbage.json"
        plan_path.write_text("{not json")
        assert main(["faults", "--plan", str(plan_path)]) == 1
        out = capsys.readouterr().out
        assert "ADN610" in out
        assert "1 error(s)" in out

    def test_chaos_soak_json(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "soak.json"
        assert main(
            ["chaos", "--trials", "2", "--rpcs", "400",
             "--json", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["benchmark"] == "chaos"
        assert payload["schema_version"] == 1
        assert payload["results"]["total_stale_applied"] == 0
        assert len(payload["results"]["trials"]) == 2
