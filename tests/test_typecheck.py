"""The abstract-interpretation type & effect checker (ADN501-ADN505):
domain algebra, per-element and chain-wide fault detection, the lint
rule family, stdlib cleanliness, the demo file's exact findings, and
the ``check --types`` CLI (including json/text exit-code parity)."""

import json

import pytest

from repro.analysis import (
    TOP,
    UNKNOWN,
    AbstractValue,
    check_chain,
    check_element,
    env_from_schema,
    join,
)
from repro.analysis.domains import arith_result, comparable, compatible
from repro.cli import main
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.parser import parse
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.lint import LintOptions, Severity, lint_source
from repro.lint.registry import all_rules

DEMO = "examples/typecheck_demo.adn"

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)


def build_ir(source, name=None, registry=None, schema=SCHEMA):
    from repro.dsl.validator import validate_element

    registry = registry or FunctionRegistry()
    program = parse(source)
    name = name or next(iter(program.elements))
    # validation resolves bare names (vars vs columns) before lowering,
    # exactly as the compiler and lint front ends do
    element = validate_element(program.elements[name], schema, registry)
    ir = build_element_ir(element)
    analyze_element(ir, registry)
    return ir


def element_findings(source, schema=SCHEMA, name=None):
    registry = FunctionRegistry()
    ir = build_ir(source, name=name, registry=registry, schema=schema)
    return check_element(ir, schema, registry).findings


def codes(findings):
    return [f.code for f in findings]


class TestDomains:
    def test_const_bool_is_not_int(self):
        assert AbstractValue.of_const(True).must_be(FieldType.BOOL)
        assert AbstractValue.of_const(1).must_be(FieldType.INT)

    def test_numeric_const_pins_interval(self):
        value = AbstractValue.of_const(7)
        assert (value.lo, value.hi) == (7.0, 7.0)
        assert not value.may_be_zero()

    def test_null_const_is_distinct_from_unknown(self):
        null = AbstractValue.of_const(None)
        assert null.is_null and null.known
        assert not TOP.known and TOP.const is UNKNOWN

    def test_join_unions_types_and_hulls_intervals(self):
        a = AbstractValue.of_const(1)
        b = AbstractValue.of_const(10)
        merged = join(a, b)
        assert merged.types == frozenset({FieldType.INT})
        assert (merged.lo, merged.hi) == (1.0, 10.0)
        assert not merged.known

    def test_comparable_numeric_cross_type(self):
        i = AbstractValue.typed(FieldType.INT)
        f = AbstractValue.typed(FieldType.FLOAT)
        s = AbstractValue.typed(FieldType.STR)
        assert comparable(i, f)
        assert not comparable(i, s)
        assert compatible(i, f) and not compatible(i, s)

    def test_division_always_yields_float(self):
        i = AbstractValue.typed(FieldType.INT)
        assert arith_result("/", i, i).types == frozenset({FieldType.FLOAT})
        assert arith_result("+", i, i).types == frozenset({FieldType.INT})

    def test_env_from_schema_has_meta_fields(self):
        env = env_from_schema(SCHEMA)
        assert "username" in env and "src" in env and "status" in env
        assert env["obj_id"].must_be(FieldType.INT)
        assert not env["username"].nullable


class TestElementChecks:
    def test_clean_element_has_no_findings(self):
        findings = element_findings(
            "element E { on request {"
            " SELECT input.*, len(input.username) AS n FROM input; } }"
        )
        assert findings == []

    def test_missing_field_is_adn501_error(self):
        # the front-end validator would reject this read outright; the
        # abstract checker sees it when the environment narrows *after*
        # validation (chain drops a field), modeled here by validating
        # open and checking closed
        registry = FunctionRegistry()
        ir = build_ir(
            "element E { on request {"
            " SELECT input.*, input.ghost AS g FROM input; } }",
            registry=registry,
            schema=None,
        )
        findings = check_element(ir, SCHEMA, registry).findings
        assert codes(findings) == ["ADN501"]
        (finding,) = findings
        assert finding.severity == "error"
        assert finding.span is not None and finding.span.line == 1

    def test_open_schema_tolerates_unknown_fields(self):
        findings = element_findings(
            "element E { on request {"
            " SELECT input.*, input.ghost AS g FROM input; } }",
            schema=None,
        )
        assert findings == []

    def test_division_by_literal_zero_is_adn503(self):
        findings = element_findings(
            "element E { on request {"
            " SELECT input.*, input.obj_id / 0 AS y FROM input; } }"
        )
        assert codes(findings) == ["ADN503"]
        assert findings[0].severity == "error"

    def test_modulo_by_widened_var_is_adn505(self):
        findings = element_findings(
            "element E { var d: int = 0; on request {"
            " SELECT input.*, input.obj_id % d AS y FROM input; } }"
        )
        assert codes(findings) == ["ADN505"]
        assert findings[0].severity == "warning"

    def test_insert_type_conflict_is_adn504(self):
        findings = element_findings(
            "element E { state t (k: str KEY, n: int);\n"
            "on request {\n"
            "    INSERT INTO t SELECT input.username, input.username "
            "FROM input;\n"
            "    SELECT * FROM input;\n"
            "} }"
        )
        assert "ADN504" in codes(findings)
        conflict = [f for f in findings if f.code == "ADN504"][0]
        assert conflict.severity == "error"

    def test_var_assignment_type_conflict_is_adn504(self):
        # the validator cannot type aggregate results (min_of's type
        # depends on the column); the abstract checker resolves it
        findings = element_findings(
            "element E { var n: int = 0; state t (k: str KEY, v: str);\n"
            "on request {\n"
            "    SET n = min_of(t, v);\n"
            "    SELECT * FROM input;\n"
            "} }"
        )
        assert "ADN504" in codes(findings)
        conflict = [f for f in findings if f.code == "ADN504"][0]
        assert "expects int" in conflict.message

    def test_nullable_aggregate_arithmetic_is_adn505(self):
        findings = element_findings(
            "element E { state t (k: str KEY, n: int); on request {"
            " SELECT input.*, min_of(t, n) + 1 AS head FROM input; } }"
        )
        assert codes(findings) == ["ADN505"]
        assert "NULL" in findings[0].message


class TestCoalesce:
    """A NULL argument's abstract value has no type, so ``coalesce`` takes
    the type of its other arguments: comparing ``coalesce(NULL, 'a')``
    with an int faults in both runtimes on every message."""

    SOURCE = (
        "element E {{\n"
        "    on request {{ SELECT * FROM input WHERE {} == 1; }}\n"
        "}}\n"
    )

    def test_checker_types_by_the_non_null_argument(self):
        findings = element_findings(self.SOURCE.format("coalesce(NULL, 'a')"))
        assert codes(findings) == ["ADN502"]
        assert findings[0].message == (
            "equality between str and int is always false"
        )
        assert findings[0].span.line == 2
        assert element_findings(self.SOURCE.format("coalesce(NULL, 1)")) == []

    def test_check_types_and_lint_report_it(self, tmp_path, capsys):
        path = tmp_path / "coalesce.adn"
        path.write_text(self.SOURCE.format("coalesce(NULL, 'a')"))
        main(["check", "--types", "--format", "json", str(path)])
        (finding,) = json.loads(capsys.readouterr().out)["typecheck"]
        assert (finding["code"], finding["line"]) == ("ADN502", 2)
        main(["lint", "--format", "json", str(path)])
        (result,) = json.loads(capsys.readouterr().out)
        assert [d["code"] for d in result["diagnostics"]] == ["ADN502"]

class TestChainChecks:
    def build(self, source, names, registry):
        program = load_stdlib(schema=SCHEMA).merged(parse(source))
        irs = []
        for name in names:
            ir = build_element_ir(program.elements[name])
            analyze_element(ir, registry)
            irs.append(ir)
        return irs

    def test_dropped_field_read_downstream_is_error(self):
        registry = FunctionRegistry()
        source = (
            "element Narrow { on request {"
            " SELECT input.obj_id AS obj_id FROM input; } }\n"
            "element Reads { on request {"
            " SELECT input.*, len(input.username) AS n FROM input; } }"
        )
        irs = self.build(source, ["Narrow", "Reads"], registry)
        report = check_chain(irs, SCHEMA, registry)
        errors = [f for f in report.findings if f.code == "ADN501"]
        assert errors and errors[0].severity == "error"
        assert errors[0].element == "Reads"

    def test_fanout_partial_emit_read_is_warning(self):
        registry = FunctionRegistry()
        source = (
            "element Forked { on request {\n"
            "    SELECT input.* FROM input;\n"
            "    SELECT input.obj_id AS obj_id FROM input;\n"
            "} }\n"
            "element Reads { on request {"
            " SELECT input.*, len(input.username) AS n FROM input; } }"
        )
        irs = self.build(source, ["Forked", "Reads"], registry)
        report = check_chain(irs, SCHEMA, registry)
        warnings = [f for f in report.findings if f.code == "ADN501"]
        assert warnings and warnings[0].severity == "warning"
        assert "some upstream paths" in warnings[0].message

    def test_paper_chain_is_clean(self):
        registry = FunctionRegistry()
        irs = self.build("", ["Logging", "Acl", "Fault"], registry)
        report = check_chain(irs, SCHEMA, registry)
        assert report.findings == []
        assert report.request_env is not None
        assert report.response_env is not None


class TestStdlibClean:
    def test_no_adn5_errors_anywhere(self):
        registry = FunctionRegistry()
        program = load_stdlib(schema=SCHEMA)
        for name, element in sorted(program.elements.items()):
            ir = build_element_ir(element)
            analyze_element(ir, registry)
            report = check_element(ir, None, registry)
            errors = [f for f in report.findings if f.severity == "error"]
            assert errors == [], f"{name}: {[f.message for f in errors]}"

    def test_known_lb_warnings_are_the_only_findings(self):
        registry = FunctionRegistry()
        program = load_stdlib(schema=SCHEMA)
        flagged = set()
        for name, element in sorted(program.elements.items()):
            ir = build_element_ir(element)
            analyze_element(ir, registry)
            if check_element(ir, None, registry).findings:
                flagged.add(name)
        assert flagged == {"LbKeyHash", "LbRoundRobin"}


class TestLintIntegration:
    def test_rules_registered_with_docs(self):
        by_code = {r.code: r for r in all_rules()}
        for code in ("ADN501", "ADN502", "ADN503", "ADN504", "ADN505"):
            assert code in by_code
            assert by_code[code].doc

    def test_findings_deduped_between_element_and_chain(self):
        source = (
            "element Div { on request {"
            " SELECT input.*, input.obj_id / 0 AS y FROM input; } }\n"
            "app A { service x; service y; chain x -> y { Div } }"
        )
        result = lint_source(source, options=LintOptions(schema=SCHEMA))
        adn503 = [d for d in result.diagnostics if d.code == "ADN503"]
        assert len(adn503) == 1

    def test_stdlib_chain_members_not_blamed(self):
        # LbRoundRobin carries an ADN505 of its own; a file that merely
        # chains it must not inherit the finding
        source = (
            "app A { service x; service y;"
            " chain x -> y { LbRoundRobin, Logging } }"
        )
        result = lint_source(source, options=LintOptions(schema=SCHEMA))
        assert [d for d in result.diagnostics if d.code == "ADN505"] == []


class TestDemoFile:
    @pytest.fixture(scope="class")
    def result(self):
        with open(DEMO) as handle:
            return lint_source(
                handle.read(), path=DEMO, options=LintOptions(schema=SCHEMA)
            )

    def test_expected_codes(self, result):
        adn5 = [d for d in result.diagnostics if d.code.startswith("ADN5")]
        assert sorted(d.code for d in adn5) == ["ADN501", "ADN505", "ADN505"]
        assert all(d.severity is Severity.WARNING for d in adn5)

    def test_modulo_divisor_position(self, result):
        (divisor,) = [
            d
            for d in result.diagnostics
            if d.code == "ADN505" and "divisor" in d.message
        ]
        assert (divisor.line, divisor.column) == (20, 25)

    def test_nullable_arithmetic_position(self, result):
        (nullable,) = [
            d
            for d in result.diagnostics
            if d.code == "ADN505" and "NULL" in d.message
        ]
        assert (nullable.line, nullable.column) == (22, 16)

    def test_maybe_absent_read_position(self, result):
        (absent,) = [
            d for d in result.diagnostics if d.code == "ADN501"
        ]
        assert (absent.line, absent.column) == (33, 39)
        assert "username" in absent.message

    def test_spans_point_at_real_source(self, result):
        lines = open(DEMO).read().splitlines()
        for diagnostic in result.diagnostics:
            assert diagnostic.line >= 1
            assert diagnostic.line <= len(lines)


class TestCheckCliTypes:
    def test_demo_passes_at_default_threshold(self, capsys):
        assert main(["check", "--types", DEMO]) == 0
        out = capsys.readouterr().out
        assert "ADN505" in out and "ADN501" in out
        assert "typecheck: 3 finding(s)" in out

    def test_fail_on_warning_rejects_demo(self, capsys):
        assert main(["check", "--types", "--fail-on", "warning", DEMO]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_and_text_exit_codes_agree(self, capsys):
        for fail_on, expected in (("error", 0), ("warning", 1)):
            text_code = main(["check", "--types", "--fail-on", fail_on, DEMO])
            capsys.readouterr()
            json_code = main(
                ["check", "--types", "--fail-on", fail_on, DEMO,
                 "--format", "json"]
            )
            payload = json.loads(capsys.readouterr().out)
            assert text_code == json_code == expected
            assert payload["ok"] is (expected == 0)
            assert len(payload["typecheck"]) == 3

    def test_stdlib_flag_is_error_clean(self, capsys):
        assert main(["check", "--types", "--stdlib", DEMO]) == 0
        out = capsys.readouterr().out
        # lb elements surface their divisor warnings, but no errors
        assert "error ADN5" not in out

    def test_plain_check_json_still_exits_zero(self, capsys):
        assert main(["check", DEMO, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "typecheck" not in payload


class TestLintCliExitParity:
    """`lint --format json` and text must agree on the exit code."""

    def test_error_file_fails_both_formats(self, tmp_path, capsys):
        path = tmp_path / "bad.adn"
        path.write_text("element Broken { on request { SELECT; } }")
        text_code = main(["lint", str(path)])
        capsys.readouterr()
        json_code = main(["lint", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert text_code == json_code == 1
        assert payload[0]["fails"] is True

    def test_clean_file_passes_both_formats(self, tmp_path, capsys):
        path = tmp_path / "ok.adn"
        path.write_text(
            "element Ok { on request { SELECT * FROM input; } }"
        )
        text_code = main(["lint", str(path)])
        capsys.readouterr()
        json_code = main(["lint", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert text_code == json_code == 0
        assert payload[0]["fails"] is False
