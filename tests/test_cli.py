"""CLI tests (``python -m repro``)."""

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
