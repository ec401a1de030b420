"""Per-pass translation validation: every optimizer pass is checked
against the pre-pass chain (abstract environments + concolic replay),
the verdict lands in its PassReport, a deliberately-miscompiling mutant
pass is rejected with a span-carrying counterexample, and ``compile
--verify`` refuses to emit artifacts for a failed pipeline."""

import dataclasses

import pytest

from repro.analysis.validate import ValidationVerdict, validate_rewrite
from repro.cli import main
from repro.compiler.compiler import AdnCompiler
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import Literal
from repro.dsl.parser import parse
from repro.dsl.validator import validate_program
from repro.errors import TranslationValidationError
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.ir.nodes import HandlerIR, Project, StatementIR
from repro.ir.optimizer import ChainContext, OptimizerOptions, optimize_chain
from repro.ir.passes.reorder import inversions
from repro.ir.passmgr import (
    Pass,
    PassManager,
    PassOutcome,
    default_pipeline,
    format_report_table,
)

from conftest import make_rpc

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)
PAPER_CHAIN = ("Logging", "Acl", "Fault")


def build_chain(names, registry):
    program = load_stdlib(schema=SCHEMA)
    irs = []
    for name in names:
        ir = build_element_ir(program.elements[name])
        analyze_element(ir, registry)
        irs.append(ir)
    return irs


@pytest.fixture
def registry():
    return FunctionRegistry()


@pytest.fixture
def paper_chain(registry):
    return build_chain(PAPER_CHAIN, registry)


def corrupt_first_projection(ir, registry):
    """Rewrite the first Project item of the request handler to a bogus
    constant — a model miscompile that type-checks but changes values."""
    handler = ir.handlers["request"]
    statements = []
    changed = False
    for stmt in handler.statements:
        ops = []
        for op in stmt.ops:
            if isinstance(op, Project) and op.items and not changed:
                items = list(op.items)
                alias, old = items[0]
                items[0] = (alias, Literal(value=12345, span=old.span))
                op = dataclasses.replace(op, items=tuple(items))
                changed = True
            ops.append(op)
        statements.append(StatementIR(ops=tuple(ops), span=stmt.span))
    handlers = dict(ir.handlers)
    handlers["request"] = HandlerIR(
        kind="request", statements=tuple(statements)
    )
    mutated = dataclasses.replace(ir, handlers=handlers)
    analyze_element(mutated, registry)
    return mutated


class MutantPass(Pass):
    """A registered pass that silently miscompiles the first element."""

    name = "mutant"
    level = "chain"

    def enabled(self, options):
        return True

    def run(self, state, context):
        state.elements[0] = corrupt_first_projection(
            state.elements[0], context.registry
        )
        return PassOutcome(rewrites=1)


def stamp_rewritten_to(value, registry):
    """A one-element chain that stamps ``1 AS obj_id``, and the same
    element with that literal's value replaced by ``value``."""
    program = validate_program(
        parse(
            "element Stamp {\n"
            "    on request { SELECT input.*, 1 AS obj_id FROM input; }\n"
            "}\n"
        ),
        schema=SCHEMA,
    )
    before = build_element_ir(program.elements["Stamp"])
    analyze_element(before, registry)
    handler = before.handlers["request"]
    (statement,) = handler.statements
    scan, project, emit = statement.ops
    (alias, one), = project.items
    assert one == Literal(1)
    project = dataclasses.replace(
        project, items=((alias, dataclasses.replace(one, value=value)),)
    )
    statement = dataclasses.replace(statement, ops=(scan, project, emit))
    after = dataclasses.replace(before, handlers={
        "request": dataclasses.replace(handler, statements=(statement,)),
    })
    analyze_element(after, registry)
    return before, after


class TestValidateRewrite:
    def test_identical_chains_validate_structurally(
        self, paper_chain, registry
    ):
        verdict = validate_rewrite(
            paper_chain, list(paper_chain), SCHEMA, registry
        )
        assert verdict.ok is True
        assert any("structurally identical" in n for n in verdict.notes)

    def test_mutant_rewrite_rejected_with_span(self, paper_chain, registry):
        mutated = [
            corrupt_first_projection(paper_chain[0], registry)
        ] + paper_chain[1:]
        verdict = validate_rewrite(
            paper_chain, mutated, SCHEMA, registry, pass_name="mutant"
        )
        assert verdict.ok is False
        assert verdict.counterexample
        assert verdict.span is not None
        assert verdict.span.line > 0

    def test_no_schema_yields_unknown_verdict(self, paper_chain, registry):
        mutated = [
            corrupt_first_projection(paper_chain[0], registry)
        ] + paper_chain[1:]
        verdict = validate_rewrite(paper_chain, mutated, None, registry)
        assert verdict.ok is None

    def test_illegal_swap_rejected_by_certificate(
        self, paper_chain, registry
    ):
        # Acl drops RPCs, Logging records them: swapping changes what is
        # logged, and dependency analysis knows they do not commute.
        swapped = [paper_chain[1], paper_chain[0], paper_chain[2]]
        verdict = validate_rewrite(
            paper_chain, swapped, SCHEMA, registry, pass_name="reorder"
        )
        assert verdict.ok is False
        assert "commute" in verdict.counterexample

    def test_literal_of_another_type_is_not_identical(self, registry):
        """``1`` and ``True`` are equal in Python but not as literals: the
        rewritten element emits ``obj_id = True``."""
        before, after = stamp_rewritten_to(True, registry)
        verdict = validate_rewrite([before], [after], SCHEMA, registry)
        assert verdict.ok is False

    def test_replay_tells_int_from_float(self, registry):
        """``1`` and ``1.0`` pass the abstract check (an int and a float
        compare), so the replay must tell the emitted values apart."""
        before, after = stamp_rewritten_to(1.0, registry)
        verdict = validate_rewrite([before], [after], SCHEMA, registry)
        assert verdict.ok is False
        assert verdict.counterexample.startswith(
            "request divergence on exemplar message"
        )
        before_text, after_text = verdict.counterexample.split(" after=")
        assert "('obj_id', 1)" in before_text
        assert "('obj_id', 1.0)" in after_text

    def test_bogus_stages_rejected(self, paper_chain, registry):
        verdict = validate_rewrite(
            paper_chain,
            list(paper_chain),
            SCHEMA,
            registry,
            stages=(("Acl",), ("Logging", "Fault")),
        )
        assert verdict.ok is False
        assert "partition" in verdict.counterexample


class TestInversions:
    def test_detects_flipped_pairs(self):
        assert inversions(["a", "b", "c"], ["b", "a", "c"]) == [("a", "b")]

    def test_ignores_fused_away_names(self):
        # fusion replaces members with a combined element; absent names
        # must not read as order violations
        assert inversions(["a", "b", "c"], ["a", "b__c"]) == []

    def test_identity_has_no_inversions(self):
        assert inversions(["a", "b"], ["a", "b"]) == []


class TestPassManagerVerify:
    def test_all_passes_validated_on_paper_chain(self, paper_chain, registry):
        context = ChainContext(registry=registry, schema=SCHEMA)
        options = OptimizerOptions(fusion=True, verify=True)
        chain = optimize_chain(paper_chain, context, options)
        ran = [r for r in chain.pass_reports if not r.skipped]
        assert len(ran) == 6
        for report in ran:
            assert report.validated is True, (
                f"{report.name}: {report.counterexample}"
            )
            assert report.verify_ms >= 0.0

    def test_verify_off_leaves_reports_unvalidated(
        self, paper_chain, registry
    ):
        context = ChainContext(registry=registry, schema=SCHEMA)
        chain = optimize_chain(paper_chain, context, OptimizerOptions())
        assert all(r.validated is None for r in chain.pass_reports)

    def test_mutant_pass_flagged_in_report(self, paper_chain, registry):
        manager = PassManager(passes=default_pipeline() + [MutantPass()])
        context = ChainContext(registry=registry, schema=SCHEMA)
        options = OptimizerOptions(verify=True)
        chain = optimize_chain(
            paper_chain, context, options, manager=manager
        )
        by_name = {r.name: r for r in chain.pass_reports}
        assert by_name["mutant"].validated is False
        assert by_name["mutant"].counterexample
        assert by_name["mutant"].counterexample_span is not None
        assert any(
            "VALIDATION FAILED" in note for note in by_name["mutant"].notes
        )

    def test_report_table_gains_verified_column(self, paper_chain, registry):
        context = ChainContext(registry=registry, schema=SCHEMA)
        chain = optimize_chain(
            paper_chain, context, OptimizerOptions(verify=True)
        )
        table = format_report_table(chain.pass_reports)
        assert "verified" in table
        assert "ok (" in table
        plain = optimize_chain(
            build_chain(PAPER_CHAIN, registry), context, OptimizerOptions()
        )
        assert "verified" not in format_report_table(plain.pass_reports)


class TestCompilerRefusal:
    def test_failed_validation_blocks_artifacts(self, registry, monkeypatch):
        import repro.ir.optimizer as optimizer_module

        monkeypatch.setattr(
            optimizer_module,
            "PassManager",
            lambda: PassManager(passes=default_pipeline() + [MutantPass()]),
        )
        compiler = AdnCompiler(
            registry=registry, options=OptimizerOptions(verify=True)
        )
        program = load_stdlib(schema=SCHEMA)
        from repro.dsl.ast_nodes import ChainDecl

        with pytest.raises(TranslationValidationError) as excinfo:
            compiler.compile_chain(
                ChainDecl(src="A", dst="B", elements=PAPER_CHAIN),
                program,
                SCHEMA,
            )
        error = excinfo.value
        assert error.pass_name == "mutant"
        assert error.counterexample
        assert error.span is not None
        assert compiler.cache_stats.lookups == 0  # nothing emitted/cached

    def test_verify_off_compiles_same_chain(self, registry):
        compiler = AdnCompiler(registry=registry)
        program = load_stdlib(schema=SCHEMA)
        from repro.dsl.ast_nodes import ChainDecl

        chain = compiler.compile_chain(
            ChainDecl(src="A", dst="B", elements=PAPER_CHAIN),
            program,
            SCHEMA,
        )
        assert set(chain.elements) == set(PAPER_CHAIN)


class TestCliVerify:
    def test_verify_green_on_examples(self, capsys):
        assert main(["compile", "--verify", "examples/explain_demo.adn"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "FAILED" not in out

    def test_verify_reports_replayed_messages(self, capsys):
        assert (
            main(["compile", "--verify", "examples/typecheck_demo.adn"]) == 0
        )
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "identical" in out


class TestFactReuse:
    """One ``compile --verify`` type-checks, replays and sizes each
    pipeline state once: a verdict takes the previous verdict's
    after-side facts as its before side, and replays that side again
    only when it mines other exemplar messages."""

    @staticmethod
    def count_calls(monkeypatch, module, name, counts):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    @pytest.mark.parametrize("example, check_chains, replays, analyses", [
        ("explain_demo", 4, 4, 4),
        ("lint_demo", 3, 3, 3),
        # dead_fields changes the chain's literals, so fuse_elements
        # replays its before side on other messages
        ("typecheck_demo", 3, 4, 3),
    ])
    def test_each_state_checked_once(
        self, example, check_chains, replays, analyses, monkeypatch, capsys
    ):
        import collections
        import os

        import repro.analysis.validate as validate_module
        import repro.ir.passmgr as passmgr_module

        counts = collections.Counter()
        for module, name in (
            (validate_module, "check_chain"),
            (validate_module, "_run_trace"),
            (passmgr_module, "chain_ir_size"),
            (passmgr_module, "analyze_element"),
        ):
            self.count_calls(monkeypatch, module, name, counts)
        path = os.path.join(
            os.path.dirname(__file__), "..", "examples", f"{example}.adn"
        )
        assert main(["compile", "--verify", path]) == 0
        assert "FAILED" not in capsys.readouterr().out
        # one chain per example: its six passes see seven states
        assert counts == {
            "check_chain": check_chains,
            "_run_trace": replays,
            "chain_ir_size": 7,
            "analyze_element": analyses,
        }

    def test_mutant_after_reused_facts_still_fails(
        self, paper_chain, registry, monkeypatch
    ):
        import collections

        import repro.analysis.validate as validate_module

        real_validate = validate_module.validate_rewrite
        counts = collections.Counter()
        calls = []

        def recording(before, after, *args, **kwargs):
            counts.clear()
            verdict = real_validate(before, after, *args, **kwargs)
            calls.append((list(before), list(after), kwargs, dict(counts)))
            return verdict

        monkeypatch.setattr(validate_module, "validate_rewrite", recording)
        for name in ("check_chain", "_run_trace"):
            self.count_calls(monkeypatch, validate_module, name, counts)
        manager = PassManager(passes=default_pipeline() + [MutantPass()])
        # without fusion, which reorders the chain's literals, the
        # mutant mines the same messages as the reorder verdict before it
        chain = optimize_chain(
            paper_chain,
            ChainContext(registry=registry, schema=SCHEMA),
            OptimizerOptions(verify=True),
            manager=manager,
        )
        report = chain.pass_reports[-1]
        assert report.name == "mutant" and report.validated is False
        before, after, kwargs, spent = calls[-1]
        # the before side came from the reorder verdict's facts: only
        # the mutated chain was type-checked and replayed
        assert kwargs["facts"] is not None
        assert spent == {"check_chain": 1, "_run_trace": 1}
        fresh = real_validate(
            before, after, SCHEMA, registry, pass_name="mutant"
        )
        assert fresh.ok is False
        assert (report.counterexample, report.counterexample_span) == (
            fresh.counterexample, fresh.span
        )

    @staticmethod
    def init_drawing_chain(paper_chain, registry, call):
        """The paper chain led by an element whose init block stores
        ``call``'s result, analyzed under ``registry``."""
        from repro.dsl import parse
        from repro.dsl.validator import validate_program

        program = validate_program(parse(f"""
            element Seeded {{
                var seed: float = 0.0;
                init {{ SET seed = {call}; }}
                on request {{ SELECT input.*, seed AS s FROM input; }}
            }}
        """), schema=SCHEMA, registry=registry)
        seeded = build_element_ir(program.elements["Seeded"])
        analyze_element(seeded, registry)
        return [seeded] + paper_chain[1:]

    @staticmethod
    def trace_kept(chain, registry):
        mutated = [corrupt_first_projection(chain[0], registry)] + chain[1:]
        verdict = validate_rewrite(chain, mutated, SCHEMA, registry)
        assert verdict.facts.types is not None
        return verdict.facts.trace is not None

    def test_replay_that_draws_rand_in_init_is_kept(
        self, paper_chain, registry
    ):
        # the replay pins rand() before the init blocks run, as it does
        # before each message
        assert self.trace_kept(paper_chain, registry)
        chain = self.init_drawing_chain(paper_chain, registry, "rand()")
        assert self.trace_kept(chain, registry)

    def test_replay_that_draws_in_init_is_not_kept(
        self, paper_chain, registry
    ):
        from repro.dsl.functions import FunctionSpec

        # a nondeterministic call the replay does not pin moves on
        # between replays, in an init block as in a handler
        draws = iter(range(1_000_000))
        registry.register(FunctionSpec(
            "draw", arity=(0,), result_type=FieldType.FLOAT,
            impl=lambda: float(next(draws)), deterministic=False,
        ))
        chain = self.init_drawing_chain(paper_chain, registry, "draw()")
        assert not self.trace_kept(chain, registry)


class TestFoldingFollowsTheRuntime:
    """Constant folding decides a value only as the runtime would, and
    the replay pins what an init block draws: ``compile --verify``
    accepts the folds in each element, and the compiled element emits
    what the unoptimized one does."""

    SOURCES = {
        name: (
            f"element {name} {{ on request {{ SELECT * FROM input WHERE "
            f"{where}; }} }}"
        )
        for name, where in (
            ("FoldedCallThenFault", "coalesce(NULL, 'a') == 1"),
            ("TruthyLeft", "1 AND input.obj_id > 3"),
            ("FaultBeforeFalse", "input.obj_id / 0 == 1 AND false"),
        )
    }
    SOURCES["Seeded"] = """element Seeded {
        var seed: float = 0.0;
        init { SET seed = rand(); }
        on request { SELECT * FROM input WHERE 1 + 1 == 2; }
    }"""

    @staticmethod
    def written(tmp_path, source):
        path = tmp_path / "element.adn"
        path.write_text(source)
        return str(path)

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_compile_verify_accepts_the_fold(self, name, tmp_path, capsys):
        path = self.written(tmp_path, self.SOURCES[name])
        assert main(["compile", "--verify", path]) == 0
        assert "FAILED" not in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["FoldedCallThenFault", "TruthyLeft"])
    def test_compiled_element_emits_what_the_plain_one_does(
        self, name, registry
    ):
        from repro.dsl import parse
        from repro.dsl.ast_nodes import ChainDecl
        from repro.dsl.validator import validate_program
        from repro.ir.interp import ElementInstance

        program = validate_program(
            parse(self.SOURCES[name]), schema=SCHEMA, registry=registry
        )
        plain = build_element_ir(program.elements[name])
        analyze_element(plain, registry)
        chain = AdnCompiler(registry=registry).compile_chain(
            ChainDecl(src="A", dst="B", elements=(name,)), program, SCHEMA
        )
        compiled = chain.elements[name]
        instances = [
            ElementInstance(plain, registry),
            ElementInstance(compiled.ir, registry),
            compiled.artifact("python").factory(),
        ]

        def outcome(instance, rpc):
            try:
                return instance.process(dict(rpc), "request")
            except Exception as error:
                return type(error).__name__

        for obj_id in (7, 1):
            rpc = make_rpc(obj_id=obj_id)
            outcomes = [outcome(instance, rpc) for instance in instances]
            assert outcomes[1] == outcomes[0]
            assert outcomes[2] == outcomes[0]

    def test_lint_finds_no_constant_predicate(self, tmp_path, capsys):
        main(["lint", self.written(tmp_path, self.SOURCES["TruthyLeft"])])
        assert "ADN203" not in capsys.readouterr().out
