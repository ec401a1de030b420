"""The ``adn-lint`` framework: engine, rule catalog, demo file, CLI."""

import argparse
import json
import pathlib
import subprocess
import sys

import pytest

from repro.cli import (
    _default_schema,
    _lint_run,
    _schema_from_args,
    _typecheck_diagnostics,
    main,
)
from repro.control.placement import ClusterSpec
from repro.dsl.parser import parse
from repro.dsl.stdlib import STDLIB_SOURCES, load_stdlib
from repro.lint import (
    LintOptions,
    Severity,
    all_rules,
    lint_file,
    lint_source,
    lint_sources,
)

DEMO = "examples/lint_demo.adn"


def codes_of(result):
    return {d.code for d in result.diagnostics}


def find(result, code):
    return [d for d in result.diagnostics if d.code == code]


class TestRuleCatalog:
    def test_codes_are_stable_and_documented(self):
        rules = all_rules()
        codes = [r.code for r in rules]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        for registered in rules:
            assert registered.code.startswith("ADN")
            assert registered.doc, f"{registered.code} has no docstring"

    def test_expected_rules_present(self):
        codes = {r.code for r in all_rules()}
        assert {
            "ADN201", "ADN202", "ADN203", "ADN204", "ADN205",
            "ADN301", "ADN302", "ADN303", "ADN310", "ADN401", "ADN402",
            "ADN403", "ADN404", "ADN405", "ADN406",
            "ADN700", "ADN701", "ADN702", "ADN703",
        } <= codes

    def test_every_registered_rule_is_in_the_docs_table(self):
        """The consolidated catalog in docs/linting.md must stay in
        lockstep with the registry."""
        with open("docs/linting.md") as handle:
            docs = handle.read()
        table_rows = {
            line.split("|")[1].strip()
            for line in docs.splitlines()
            if line.startswith("| ADN")
        }
        missing = [
            r.code for r in all_rules() if r.code not in table_rows
        ]
        assert missing == [], (
            f"rules missing from the docs/linting.md catalog: {missing}"
        )


class TestExplain:
    def test_every_registered_rule_has_an_example(self):
        from repro.lint.explain import missing_examples

        assert missing_examples() == []

    def test_explain_text_carries_code_severity_and_doc(self):
        from repro.lint.explain import explain_rule

        for registered in all_rules():
            text = explain_rule(registered.code)
            assert text is not None
            assert registered.code in text
            assert registered.severity.value in text
            assert "Minimal triggering example:" in text

    def test_explain_is_case_insensitive(self):
        from repro.lint.explain import explain_rule

        assert explain_rule("adn301") is not None

    def test_unknown_code_returns_none(self):
        from repro.lint.explain import explain_rule

        assert explain_rule("ADN999") is None

    def test_cli_explain_known_rule(self, capsys):
        assert main(["lint", "--explain", "ADN700"]) == 0
        out = capsys.readouterr().out
        assert "ADN700" in out and "non-idempotent-under-retry" in out

    def test_cli_explain_unknown_rule(self, capsys):
        assert main(["lint", "--explain", "ADN999"]) == 1
        assert "unknown rule" in capsys.readouterr().err

    def test_cli_explain_needs_no_files(self, capsys):
        """--explain must not require positional lint targets."""
        assert main(["lint", "--explain", "ADN301"]) == 0

    @pytest.mark.parametrize("code", ["ADN405", "ADN601", "ADN602"])
    def test_graph_rule_example_finds_its_own_code(self, code):
        from repro.lint.explain import EXAMPLES

        assert code in codes_of(lint_source(EXAMPLES[code]))


class TestFrontEndCapture:
    def test_syntax_error_is_adn101(self):
        result = lint_source("element Broken { on request { SELECT; } }")
        (diagnostic,) = result.diagnostics
        assert diagnostic.code == "ADN101"
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.line == 1

    def test_validation_error_is_adn102_with_span(self):
        result = lint_source(
            "element Bad {\n"
            "    on request {\n"
            "        SELECT * FROM nosuch;\n"
            "    }\n"
            "}\n"
        )
        (diagnostic,) = result.diagnostics
        assert diagnostic.code == "ADN102"
        assert (diagnostic.line, diagnostic.column) == (3, 9)

    def test_one_bad_element_does_not_mask_the_rest(self):
        result = lint_source(
            "element Bad { on request { SELECT * FROM nosuch; } }\n"
            "element AlsoDead {\n"
            "    state t (x: int);\n"
            "    on request { SELECT * FROM input; }\n"
            "}\n"
        )
        assert {"ADN102", "ADN202"} <= codes_of(result)

    def test_clean_element_is_quiet(self):
        result = lint_source(
            "element Clean { on request { SELECT * FROM input; } }"
        )
        assert result.diagnostics == []


class TestDeadRules:
    def test_unused_table_adn202(self):
        result = lint_source(
            "element E {\n"
            "    state ghost (x: int);\n"
            "    on request { SELECT * FROM input; }\n"
            "}\n"
        )
        (diagnostic,) = find(result, "ADN202")
        assert (diagnostic.line, diagnostic.column) == (2, 5)

    def test_silent_handler_adn204(self):
        result = lint_source(
            "element Blackhole {\n"
            "    state log (ts: float);\n"
            "    on request {\n"
            "        INSERT INTO log SELECT now() FROM input;\n"
            "    }\n"
            "}\n"
        )
        assert find(result, "ADN204")

    def test_write_only_var_adn205(self):
        result = lint_source(
            "element E {\n"
            "    var n: int = 0;\n"
            "    on request {\n"
            "        SET n = 7;\n"
            "        SELECT * FROM input;\n"
            "    }\n"
            "}\n"
        )
        (diagnostic,) = find(result, "ADN205")
        assert diagnostic.line == 2

    def test_append_only_table_not_flagged_write_only(self):
        result = lint_source(
            "element E {\n"
            "    state APPEND log (ts: float);\n"
            "    on request {\n"
            "        INSERT INTO log SELECT now() FROM input;\n"
            "        SELECT * FROM input;\n"
            "    }\n"
            "}\n"
        )
        assert not find(result, "ADN201")


class TestStateRaceRules:
    def test_partitioned_table_adn303_hint(self):
        result = lint_source(
            "element P {\n"
            "    state sess (user: str KEY, n: int);\n"
            "    on request {\n"
            "        UPDATE sess SET n = 99\n"
            "            WHERE sess.user == input.username;\n"
            "        SELECT * FROM input;\n"
            "    }\n"
            "}\n"
        )
        (diagnostic,) = find(result, "ADN303")
        assert diagnostic.severity is Severity.HINT
        assert not find(result, "ADN301")


class TestPlacementRules:
    def test_no_feasible_processor_adn401(self):
        # 'mandatory' excludes the app binary; with no engine, sidecars,
        # kernel, SmartNIC, or switch, nothing can host the element.
        options = LintOptions(
            cluster=ClusterSpec(
                engine_available=False,
                sidecars_available=False,
                kernel_offload=False,
            )
        )
        result = lint_source(
            "element M {\n"
            "    meta { mandatory: true; }\n"
            "    on request { SELECT * FROM input; }\n"
            "}\n",
            options=options,
        )
        (diagnostic,) = find(result, "ADN401")
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.line == 1

    def test_adn401_lists_every_platform_refusal_in_order(self):
        # a payload UDF keeps the element off the kernel, the SmartNIC
        # and the switch; 'mandatory' keeps it out of the app binary
        options = LintOptions(
            cluster=ClusterSpec(
                engine_available=False,
                sidecars_available=False,
                kernel_offload=False,
                smartnics=True,
                programmable_switch=True,
            )
        )
        result = lint_source(
            "element Squash {\n"
            "    meta { mandatory: true; }\n"
            "    on request {\n"
            "        SELECT input.*, compress(input.payload) AS payload\n"
            "        FROM input;\n"
            "    }\n"
            "}\n",
            options=options,
        )
        (diagnostic,) = find(result, "ADN401")
        assert diagnostic.message == (
            "no feasible processor for element 'Squash': "
            "rpc_lib: element is 'mandatory' (must run outside the app "
            "binary); "
            "mrpc: not in this cluster; "
            "kernel_ebpf: not in this cluster; "
            "sidecar: not in this cluster; "
            "smartnic: payload UDF compress() has no kernel helper; "
            "switch_p4: payload UDF compress() touches bytes beyond the "
            "parse window"
        )

    def test_feasible_with_default_cluster(self):
        result = lint_source(
            "element M {\n"
            "    meta { mandatory: true; }\n"
            "    on request { SELECT * FROM input; }\n"
            "}\n"
        )
        assert not find(result, "ADN401")

    def test_contradictory_colocation_adn402(self):
        result = lint_source(
            "element Enc {\n"
            "    meta { position: sender; }\n"
            "    on request { SELECT * FROM input; }\n"
            "}\n"
            "app A {\n"
            "    service x;\n"
            "    service y;\n"
            "    chain x -> y { Enc }\n"
            "    constrain Enc colocate receiver;\n"
            "}\n"
        )
        (diagnostic,) = find(result, "ADN402")
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.line == 9

    # the contains() read is what makes this read-modify-write: a
    # pure "hits + 1" counter would classify as commutative
    RMW_COUNTER = (
        "element Tally {{\n"
        "{meta}"
        "    state t (k: str KEY, hits: int);\n"
        "    on request {{\n"
        "        INSERT INTO t SELECT input.username, 0 FROM input\n"
        "            WHERE NOT contains(t, input.username);\n"
        "        UPDATE t SET hits = hits + 1 WHERE k == input.username;\n"
        "        SELECT * FROM input;\n"
        "    }}\n"
        "}}\n"
        "app A {{\n"
        "    service x;\n"
        "    service y;\n"
        "    chain x -> y {{ Tally }}\n"
        "}}\n"
    )

    def test_unrecoverable_state_adn403(self):
        result = lint_source(self.RMW_COUNTER.format(meta=""))
        (diagnostic,) = find(result, "ADN403")
        assert diagnostic.severity is Severity.WARNING
        assert "read-modify-write" in diagnostic.message
        assert "checkpoint" in diagnostic.fix

    def test_checkpoint_meta_silences_adn403(self):
        result = lint_source(
            self.RMW_COUNTER.format(
                meta="    meta { checkpoint: true; }\n"
            )
        )
        assert not find(result, "ADN403")

    def test_replicable_state_no_adn403(self):
        # append-only logging commutes across replicas: no warning
        result = lint_source(
            "element Log {\n"
            "    state log_t (entry: str) APPEND ONLY;\n"
            "    on request {\n"
            "        INSERT INTO log_t SELECT input.username FROM input;\n"
            "        SELECT * FROM input;\n"
            "    }\n"
            "}\n"
            "app A {\n"
            "    service x;\n"
            "    service y;\n"
            "    chain x -> y { Log }\n"
            "}\n"
        )
        assert not find(result, "ADN403")

    def test_unplaced_element_no_adn403(self):
        # the warning is about placement: an element no chain uses is
        # not reported
        result = lint_source(self.RMW_COUNTER.format(meta="").split("app ")[0])
        assert not find(result, "ADN403")


class TestOverloadRules:
    """ADN404: retries without a deadline budget amplify overload."""

    UNBUDGETED = (
        "filter Eager {\n"
        "    meta { max_retries: 5; timeout_ms: 10.0; }\n"
        "    use operator retry;\n"
        "}\n"
    )

    def test_retry_without_deadline_adn404(self):
        result = lint_source(self.UNBUDGETED)
        (diagnostic,) = find(result, "ADN404")
        assert diagnostic.severity is Severity.WARNING
        assert "Eager" in diagnostic.message
        assert "deadline_budget_ms" in diagnostic.fix
        # a real span: the filter's own declaration site
        assert diagnostic.line >= 1 and diagnostic.column >= 1

    def test_deadline_budget_silences_adn404(self):
        result = lint_source(
            "filter Patient {\n"
            "    meta { max_retries: 5; timeout_ms: 10.0;"
            " deadline_budget_ms: 50.0; }\n"
            "    use operator retry;\n"
            "}\n"
        )
        assert not find(result, "ADN404")

    def test_non_retry_filters_are_quiet(self):
        result = lint_source(
            "filter JustTimeout {\n"
            "    meta { timeout_ms: 25.0; }\n"
            "    use operator timeout;\n"
            "}\n"
        )
        assert not find(result, "ADN404")


class TestDemoFile:
    """The acceptance-criteria file: >= 4 distinct codes including one
    state-race and one dead-state finding, with real positions."""

    @pytest.fixture(scope="class")
    def result(self):
        return lint_file(DEMO)

    def test_at_least_four_distinct_codes(self, result):
        assert len(codes_of(result)) >= 4

    def test_dead_state_findings(self, result):
        audit = [
            d for d in find(result, "ADN201") if "'audit'" in d.message
        ]
        assert audit and (audit[0].line, audit[0].column) == (13, 9)
        false_arm = find(result, "ADN203")
        assert false_arm and (false_arm[0].line, false_arm[0].column) == (16, 9)

    def test_state_race_findings(self, result):
        quota = find(result, "ADN301")
        assert quota and (quota[0].line, quota[0].column) == (14, 9)
        seq = find(result, "ADN302")
        assert seq and seq[0].line == 17  # where seq is read back

    def test_cross_element_finding(self, result):
        pair = find(result, "ADN310")
        assert any("Logging and Acl" in d.message for d in pair)
        assert all(d.severity is Severity.HINT for d in pair)

    def test_spans_point_at_real_source(self, result):
        lines = open(DEMO).read().splitlines()
        for diagnostic in result.diagnostics:
            assert diagnostic.line >= 1
            text = lines[diagnostic.line - 1]
            assert len(text) >= diagnostic.column

    def test_fails_on_warning_not_error(self, result):
        assert result.fails(Severity.WARNING)
        assert not result.fails(Severity.ERROR)


class TestStdlibClean:
    def test_stdlib_has_no_errors(self):
        from repro.dsl.stdlib import STDLIB_SOURCES

        for name, source in STDLIB_SOURCES.items():
            result = lint_source(source, path=f"<stdlib:{name}>")
            errors = [
                d for d in result.diagnostics
                if d.severity is Severity.ERROR
            ]
            assert not errors, f"{name}: {errors}"


#: the schemas a lint run is compared under: none, the CLI's default,
#: and one under which three stdlib elements fail validation (ADN102)
SCHEMAS = {
    "open": None,
    "cli": _default_schema(),
    "narrow": _schema_from_args(["payload:bytes", "username:str"]),
}


class TestLintSources:
    """One lint run over many sources loads the stdlib once and finds
    exactly what linting each source on its own finds."""

    @pytest.fixture(scope="class")
    def files(self):
        from pathlib import Path

        return [
            (str(path), path.read_text())
            for path in sorted(Path("examples").glob("*.adn"))
        ]

    @pytest.fixture(scope="class")
    def items(self, files):
        return files + [
            (f"<stdlib:{name}>", STDLIB_SOURCES[name])
            for name in sorted(STDLIB_SOURCES)
        ]

    def test_matches_per_source_lints(self, files, items):
        """The CLI's ``--stdlib`` run finds, for each file and each
        ``<stdlib:NAME>`` entry, the very diagnostics linting that text
        alone finds: same messages, same lines and columns, also where
        an entry's own ADN102 message embeds its position."""
        for schema, fields in SCHEMAS.items():
            options = LintOptions(schema=fields)
            batch = _lint_run(files, options, True)
            assert [result.path for result in batch] == [p for p, _ in items]
            for (path, source), result in zip(items, batch):
                assert result.diagnostics == lint_source(
                    source, path=path, options=options
                ).diagnostics, (schema, path)
            failing = sorted(
                result.path
                for result in batch[len(files):]
                if "ADN102" in codes_of(result)
            )
            assert failing == (
                ["<stdlib:AccessControl>", "<stdlib:Cache>",
                 "<stdlib:LbKeyHash>"]
                if schema == "narrow" else []
            ), schema

    def test_loads_the_stdlib_once(self, files, items, monkeypatch):
        from repro.lint import engine

        loads = []
        real_load = engine.load_stdlib

        def counting_load(*args, **kwargs):
            loads.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(engine, "load_stdlib", counting_load)
        lint_sources(items)
        assert len(loads) == 1
        lint_sources(files, stdlib_entries=sorted(STDLIB_SOURCES))
        assert len(loads) == 2
        lint_sources(items, LintOptions(include_stdlib=False))
        assert len(loads) == 2

    def test_lowers_each_stdlib_element_once(self, files, monkeypatch):
        """The examples' chains and the ``<stdlib:NAME>`` entries share
        one lowering of each stdlib element."""
        import collections

        from repro.lint import engine

        lowered = collections.Counter()
        real_lower = engine.build_element_ir

        def counting_lower(element):
            lowered[element.name] += 1
            return real_lower(element)

        monkeypatch.setattr(engine, "build_element_ir", counting_lower)
        _lint_run(files, LintOptions(), True)
        assert set(lowered) >= set(load_stdlib().elements)
        assert set(lowered.values()) == {1}

    def test_parsed_program_is_not_parsed_again(self, monkeypatch):
        from repro.dsl.parser import parse
        from repro.lint import engine

        with open(DEMO) as handle:
            source = handle.read()
        program = parse(source)
        expected = lint_file(DEMO).diagnostics
        monkeypatch.setattr(engine, "parse", None)  # any parse would fail
        (result,) = lint_sources([(DEMO, source, program)])
        assert result.diagnostics == expected


EXAMPLES = sorted(str(path) for path in pathlib.Path("examples").glob("*.adn"))


class TestCheckTypesMatchesLint:
    """``check --types`` reports exactly the ADN5xx findings a full
    ``lint`` run makes with the same schema, over the file and the
    stdlib entries."""

    @pytest.mark.parametrize("schema", SCHEMAS)
    @pytest.mark.parametrize("path", EXAMPLES)
    def test_same_findings_as_lint(self, path, schema):
        with open(path) as handle:
            source = handle.read()
        args = argparse.Namespace(
            file=path, stdlib=True, no_stdlib=False, fail_on="error"
        )
        options = LintOptions(schema=SCHEMAS[schema])
        found, _failed = _typecheck_diagnostics(
            args, options.schema, source, parse(source)
        )
        assert found == [
            diagnostic
            for result in _lint_run([(path, source)], options, True)
            for diagnostic in result.diagnostics
            if diagnostic.code.startswith("ADN5")
        ]

    @pytest.mark.parametrize("path", EXAMPLES)
    def test_json_matches_lint_json(self, path, capsys):
        main(["check", "--types", "--stdlib", "--format", "json", path])
        checked = json.loads(capsys.readouterr().out)["typecheck"]
        fields = [
            f"--field={name}:{spec.type.value}"
            for name, spec in SCHEMAS["cli"].fields.items()
        ]
        main(["lint", "--stdlib", "--format", "json", *fields, path])
        linted = [
            diagnostic
            for result in json.loads(capsys.readouterr().out)
            for diagnostic in result["diagnostics"]
            if diagnostic["code"].startswith("ADN5")
        ]
        assert checked == linted


#: read before any test clears the stdlib memos
STDLIB_ELEMENTS = set(load_stdlib().elements)


class TestWorkPerCall:
    """One ``check --types --stdlib`` call takes each stdlib definition
    through the front end once and runs only the type rules, which read
    no element analysis."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Count program parses, validations and lowerings by name, and
        analyses, from cold stdlib memos."""
        import collections

        from repro.dsl import parser, stdlib, validator
        from repro.lint import engine

        counts = {
            "parse": 0,
            "validate": collections.Counter(),
            "lower": collections.Counter(),
            "analyze": 0,
        }
        real_parse = parser.Parser.parse_program
        real_validate = validator.ElementValidator.validate
        real_lower = engine.build_element_ir
        real_analyze = engine.analyze_element

        def counting_parse(self):
            counts["parse"] += 1
            return real_parse(self)

        def counting_validate(self):
            counts["validate"][self.element.name] += 1
            return real_validate(self)

        def counting_lower(element):
            counts["lower"][element.name] += 1
            return real_lower(element)

        def counting_analyze(*args, **kwargs):
            counts["analyze"] += 1
            return real_analyze(*args, **kwargs)

        monkeypatch.setattr(parser.Parser, "parse_program", counting_parse)
        monkeypatch.setattr(
            validator.ElementValidator, "validate", counting_validate
        )
        monkeypatch.setattr(engine, "build_element_ir", counting_lower)
        monkeypatch.setattr(engine, "analyze_element", counting_analyze)
        stdlib._parse.cache_clear()
        stdlib._validated.cache_clear()
        return counts

    @pytest.mark.parametrize("path", [
        "examples/explain_demo.adn",
        "examples/lint_demo.adn",
        "examples/typecheck_demo.adn",
    ])
    def test_each_stdlib_definition_once(self, path, counts, capsys):
        argv = ["check", "--types", "--stdlib", "--format", "json", path]
        main(argv)
        own = set(json.loads(capsys.readouterr().out)["elements"])
        # the stdlib text and the file
        assert counts["parse"] == 2
        assert {
            name: count for name, count in counts["validate"].items()
            if name in STDLIB_ELEMENTS
        } == dict.fromkeys(STDLIB_ELEMENTS, 1)
        assert counts["lower"] == dict.fromkeys(STDLIB_ELEMENTS | own, 1)
        assert counts["analyze"] == 0
        counts["parse"] = 0
        counts["validate"].clear()
        main(argv)
        assert counts["parse"] == 1  # the file
        assert not STDLIB_ELEMENTS & set(counts["validate"])
        assert counts["analyze"] == 0

    @pytest.fixture
    def facts(self, monkeypatch):
        """Count the rule table's builds, stdlib joins and column
        environments per call, and keep every expression node whose
        references are built (alive, so their ids stay distinct)."""
        import collections

        from repro.analysis import typecheck
        from repro.ir import expr_utils
        from repro.lint import engine, registry

        facts = collections.Counter()
        facts.nodes = []
        real_load = registry._load_builtin_rules
        real_parsed = engine.parsed_stdlib
        real_envs = typecheck._column_envs
        real_element = typecheck.check_element
        real_chain = typecheck.check_chain
        real_walk = expr_utils._walk_refs

        def counting_load():
            facts["rule tables"] += 1
            real_load()

        def counting_parsed():
            facts["stdlib joins"] += 1
            return real_parsed()

        def counting_envs(ir):
            facts["column envs"] += 1
            return real_envs(ir)

        def counting_element(ir, *args, **kwargs):
            facts["element checks"] += 1
            return real_element(ir, *args, **kwargs)

        def counting_chain(elements, *args, **kwargs):
            facts["element checks"] += len(elements)
            return real_chain(elements, *args, **kwargs)

        def keeping_walk(expr):
            facts.nodes.append(expr)
            return real_walk(expr)

        # a fresh table, as in a new process
        monkeypatch.setattr(registry, "_SORTED", [])
        monkeypatch.setattr(registry, "_load_builtin_rules", counting_load)
        monkeypatch.setattr(engine, "parsed_stdlib", counting_parsed)
        monkeypatch.setattr(typecheck, "_column_envs", counting_envs)
        monkeypatch.setattr(typecheck, "check_element", counting_element)
        monkeypatch.setattr(typecheck, "check_chain", counting_chain)
        monkeypatch.setattr(expr_utils, "_walk_refs", keeping_walk)
        return facts

    @pytest.mark.parametrize("command", [
        ["lint", "--stdlib"],
        ["check", "--types", "--stdlib"],
    ])
    @pytest.mark.parametrize("path", [
        "examples/explain_demo.adn",
        "examples/lint_demo.adn",
        "examples/typecheck_demo.adn",
    ])
    def test_each_fact_once(self, command, path, facts, capsys):
        """The rule table is built once per process, the stdlib text
        joined once per run, each element's column environments built
        once per check, and each expression's references once."""
        argv = command + ["--format", "json", path]
        main(argv)
        assert facts["rule tables"] == 1
        assert facts["stdlib joins"] == 1
        assert facts["element checks"] > 0
        assert facts["column envs"] == facts["element checks"]
        facts.clear()
        main(argv)
        assert facts["rule tables"] == 0
        assert facts["stdlib joins"] == 1
        assert facts["column envs"] == facts["element checks"]
        assert len({id(node) for node in facts.nodes}) == len(facts.nodes)
        assert capsys.readouterr().out

    def test_typed_values_are_shared(self):
        from repro.analysis import AbstractValue
        from repro.dsl import FieldType

        for field_type in FieldType:
            for nullable in (False, True):
                assert AbstractValue.typed(
                    field_type, nullable
                ) is AbstractValue.typed(field_type, nullable)

    def test_expr_refs_reject_mutation(self):
        """An expression's references are shared by every reader of its
        node, so none may change them."""
        import dataclasses

        from repro.dsl.parser import Parser
        from repro.ir.expr_utils import collect_refs

        refs = collect_refs(Parser("input.a == 1").parse_expr())
        assert refs.input_fields == {"a"}
        with pytest.raises(dataclasses.FrozenInstanceError):
            refs.input_fields = set()
        with pytest.raises(AttributeError):
            refs.input_fields.add("b")

    def test_lint_asks_no_restricted_backend(self, monkeypatch, capsys):
        """On the default cluster ADN401 stops at the first platform
        that accepts an element, the app binary or the engine, so it
        never asks a restricted platform's backend."""
        from repro.compiler import backends

        asked = []
        for cls in (backends.EbpfBackend, backends.NicBackend,
                    backends.P4Backend, backends.WasmBackend):
            def counting_check(self, element, real=cls.check):
                asked.append(self.name)
                return real(self, element)

            monkeypatch.setattr(cls, "check", counting_check)
        main(["lint", "--stdlib", "--format", "json",
              "examples/explain_demo.adn", "examples/lint_demo.adn",
              "examples/typecheck_demo.adn"])
        assert json.loads(capsys.readouterr().out)
        assert asked == []


class TestLintCli:
    def test_demo_passes_at_error_threshold(self, capsys):
        assert main(["lint", DEMO]) == 0
        out = capsys.readouterr().out
        assert "ADN301" in out and "finding(s)" in out

    def test_demo_fails_at_warning_threshold(self, capsys):
        assert main(["lint", DEMO, "--fail-on", "warning"]) == 1

    def test_json_format(self, capsys):
        assert main(["lint", DEMO, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        diagnostics = payload[0]["diagnostics"]
        codes = {d["code"] for d in diagnostics}
        assert len(codes) >= 4
        assert all(d["line"] >= 1 for d in diagnostics)

    def test_stdlib_flag_error_clean(self, capsys):
        assert main(["lint", "--stdlib"]) == 0

    def test_syntax_error_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.adn"
        bad.write_text("element Broken { on request { SELECT; } }")
        assert main(["lint", str(bad)]) == 1
        assert "ADN101" in capsys.readouterr().out


    def test_bad_filter_meta_is_adn102_not_a_traceback(self, tmp_path, capsys):
        # a multi-chain app lowers its retry filters' max_retries with
        # int(); the validator must reject the value before that
        bad = tmp_path / "bad_meta.adn"
        bad.write_text(
            """
filter R { meta { max_retries: "x"; } use operator retry; }
app A {
    service front; service mid; service back;
    chain front -> mid { R, Logging }
    chain mid -> back { Logging }
}
"""
        )
        assert main(["lint", str(bad), "--stdlib"]) == 1
        out = capsys.readouterr().out
        assert "ADN102: filter 'R': meta 'max_retries' must be a number" in out


class TestCheckJson:
    def test_check_json_ok(self, capsys):
        assert main(["check", DEMO, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["elements"] == ["LintDemo"]

    def test_check_json_failure_carries_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.adn"
        bad.write_text(
            "element Bad {\n    on request { SELECT * FROM nosuch; }\n}\n"
        )
        assert main(["check", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["error"]["line"] == 2


def test_lint_run_loads_no_graph_modules():
    """The graph rules import repro.graph and repro.analysis.graph only
    once a file has a multi-chain app; a lint run without one must not
    pay for loading them."""
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "main(['lint', 'examples/lint_demo.adn', '--stdlib'])\n"
        "print(sorted(m for m in sys.modules if m == 'repro.graph'\n"
        "      or m.startswith('repro.graph.')\n"
        "      or m == 'repro.analysis.graph'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=pathlib.Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "[]"
