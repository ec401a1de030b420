"""Optimization pass unit tests: constant folding, predicate pushdown,
reordering, parallel staging."""

import pytest

from repro.dsl import FieldType, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import BinaryOp, CaseExpr, ColumnRef, FuncCall, Literal
from repro.dsl.parser import Parser, parse_element
from repro.dsl.validator import validate_element
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.ir.interp import ElementInstance
from repro.ir.nodes import FilterRows, JoinState, Scan
from repro.ir.passes import (
    fold_constants_element,
    fold_expr,
    parallel_stages,
    pushdown_element,
    reorder_for_early_drop,
)

from conftest import make_rpc


def expr(text):
    return Parser(text).parse_expr()


class TestConstantFolding:
    def test_arithmetic(self):
        assert fold_expr(expr("1 + 2 * 3")) == Literal(7)

    def test_comparison(self):
        assert fold_expr(expr("2 > 1")) == Literal(True)

    def test_boolean_identities(self):
        # only the runtime's short-circuit: it decides these from the
        # left operand alone
        assert fold_expr(expr("false and x")) == Literal(False)
        assert fold_expr(expr("true or x")) == Literal(True)
        # these it does not: x still runs, and may fault, and `x and
        # true` is truthy(x), not x
        for text in ("x == 1 and true", "x == 1 or true",
                     "x == 1 and false", "true and x"):
            assert fold_expr(expr(text)) == expr(text)

    def test_operands_are_judged_by_truth_not_identity(self):
        assert fold_expr(expr("0 or x")) == expr("0 or x")
        assert fold_expr(expr("1 and x")) == expr("1 and x")
        assert fold_expr(expr("0 and x")) == Literal(False)

    def test_what_the_runtime_faults_on_stays(self):
        for text in ("'alice' == 7", "-'a'", "NULL + 1"):
            assert fold_expr(expr(text)) == expr(text)
        # the call folds; the comparison it feeds faults, so it stays
        assert fold_expr(expr("coalesce(NULL, 'a') == 1")) == expr("'a' == 1")

    def test_pure_function_folded(self):
        folded = fold_expr(expr("max(2, 3)"))
        assert folded == Literal(3)

    def test_nondeterministic_not_folded(self):
        folded = fold_expr(expr("rand() >= 0.02"))
        assert isinstance(folded, BinaryOp)

    def test_hash_folded(self):
        folded = fold_expr(expr("hash('k') % 4"))
        assert isinstance(folded, Literal)
        assert 0 <= folded.value < 4

    def test_case_dead_branch_pruned(self):
        folded = fold_expr(expr("CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END"))
        assert folded == Literal("b")

    def test_case_statically_taken(self):
        folded = fold_expr(expr("CASE WHEN 2 > 1 THEN 'a' ELSE 'b' END"))
        assert folded == Literal("a")

    def test_division_by_zero_left_alone(self):
        folded = fold_expr(expr("1 / 0"))
        assert isinstance(folded, BinaryOp)  # fold failure is not an error

    def test_column_refs_untouched(self):
        folded = fold_expr(expr("input.a + 0 * 3"))
        assert isinstance(folded, BinaryOp)
        assert folded.right == Literal(0)

    def test_fold_element_removes_true_filter(self):
        element = validate_element(
            parse_element(
                "element E { on request { SELECT * FROM input WHERE 1 < 2; } }"
            )
        )
        ir = fold_constants_element(build_element_ir(element))
        ops = ir.handlers["request"].statements[0].ops
        assert not any(isinstance(op, FilterRows) for op in ops)

    def test_folded_element_behaves_identically(self):
        source = """
        element E {
            on request {
                SELECT input.*, (2 + 3) * input.a AS scaled FROM input
                WHERE input.a > 1 * 0;
            }
        }
        """
        element = validate_element(parse_element(source))
        plain_ir = build_element_ir(element)
        folded_ir = fold_constants_element(build_element_ir(element))
        analyze_element(plain_ir)
        analyze_element(folded_ir)
        rpc = make_rpc(a=4) if False else dict(make_rpc(), a=4)
        plain_out = ElementInstance(plain_ir).process(dict(rpc), "request")
        folded_out = ElementInstance(folded_ir).process(dict(rpc), "request")
        assert plain_out == folded_out
        assert folded_out[0]["scaled"] == 20


class TestPredicatePushdown:
    SOURCE = """
    element E {
        state t (k: int KEY, v: int);
        init { INSERT INTO t VALUES (5, 50); }
        on request {
            SELECT input.* FROM input JOIN t ON t.k == input.a
            WHERE input.b > 0 AND t.v > 10;
        }
    }
    """

    def test_input_conjunct_moves_before_join(self):
        element = validate_element(parse_element(self.SOURCE))
        ir = pushdown_element(build_element_ir(element))
        ops = ir.handlers["request"].statements[0].ops
        kinds = [type(op) for op in ops]
        # Scan, early Filter, Join, late Filter, ...
        assert kinds[0] is Scan
        assert kinds[1] is FilterRows
        assert kinds[2] is JoinState
        assert kinds[3] is FilterRows

    def test_behaviour_preserved(self):
        element = validate_element(parse_element(self.SOURCE))
        plain_ir = build_element_ir(element)
        pushed_ir = pushdown_element(build_element_ir(element))
        analyze_element(plain_ir)
        analyze_element(pushed_ir)
        for a, b in [(5, 1), (5, -1), (9, 1)]:
            rpc = dict(make_rpc(), a=a, b=b)
            plain = ElementInstance(plain_ir).process(dict(rpc), "request")
            pushed = ElementInstance(pushed_ir).process(dict(rpc), "request")
            plain = [
                {k: v for k, v in r.items() if isinstance(k, str)} for r in plain
            ]
            pushed = [
                {k: v for k, v in r.items() if isinstance(k, str)} for r in pushed
            ]
            assert plain == pushed, (a, b)

    def test_no_join_untouched(self):
        element = validate_element(
            parse_element(
                "element E { on request { SELECT * FROM input WHERE input.a > 0; } }"
            )
        )
        ir = build_element_ir(element)
        assert pushdown_element(ir).handlers["request"] == ir.handlers["request"]


@pytest.fixture(scope="module")
def stdlib_analyses():
    schema = RpcSchema.of(
        "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
    )
    program = load_stdlib(schema=schema)
    result = {}
    for name, element in program.elements.items():
        result[name] = analyze_element(build_element_ir(element))
    return result


class TestReorder:
    def test_droppers_bubble_forward(self, stdlib_analyses):
        order, changed = reorder_for_early_drop(
            ["Compression", "Acl"], stdlib_analyses
        )
        assert changed
        assert order == ["Acl", "Compression"]

    def test_effectful_barrier_respected(self, stdlib_analyses):
        order, changed = reorder_for_early_drop(
            ["Logging", "Acl"], stdlib_analyses
        )
        assert order == ["Logging", "Acl"]
        assert not changed

    def test_pinned_pair_not_swapped(self, stdlib_analyses):
        order, _changed = reorder_for_early_drop(
            ["Compression", "Acl"],
            stdlib_analyses,
            pinned_pairs=[("Compression", "Acl")],
        )
        assert order == ["Compression", "Acl"]

    def test_stable_when_already_sorted(self, stdlib_analyses):
        order, changed = reorder_for_early_drop(
            ["Acl", "Fault", "Compression"], stdlib_analyses
        )
        assert not changed or order[0] in ("Acl", "Fault")

    def test_result_reachable_by_legal_swaps(self, stdlib_analyses):
        from repro.ir.dependency import ordering_violations

        original = ["LbKeyHash", "Compression", "AccessControl", "Encryption"]
        order, _ = reorder_for_early_drop(original, stdlib_analyses)
        assert ordering_violations(order, original, stdlib_analyses) == []


class TestParallelStages:
    def test_independent_droppers_grouped(self, stdlib_analyses):
        stages = parallel_stages(["Acl", "Fault"], stdlib_analyses)
        assert stages == (("Acl", "Fault"),)

    def test_conflicting_pair_split(self, stdlib_analyses):
        stages = parallel_stages(
            ["Compression", "Decompression"], stdlib_analyses
        )
        assert stages == (("Compression",), ("Decompression",))

    def test_singleton(self, stdlib_analyses):
        assert parallel_stages(["Logging"], stdlib_analyses) == (("Logging",),)

    def test_stage_order_preserves_chain_order(self, stdlib_analyses):
        order = ["Logging", "Acl", "Fault"]
        stages = parallel_stages(order, stdlib_analyses)
        flattened = [name for stage in stages for name in stage]
        assert flattened == order
