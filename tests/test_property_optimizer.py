"""Property-based tests for the optimizer: every reorder/staging the
chain optimizer produces on a random chain is provably legal, and
constant folding never changes what an expression evaluates to,
faults included."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import BinaryOp, CaseExpr, Literal, UnaryOp
from repro.ir.builder import build_element_ir
from repro.ir.dependency import can_parallelize, ordering_violations
from repro.ir.expr_utils import EvalEnv, evaluate
from repro.ir.optimizer import optimize_chain
from repro.ir.passes import (
    fold_constants_element,
    fold_expr,
    pushdown_element,
)

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)
PROGRAM = load_stdlib(schema=SCHEMA)

#: elements safe to combine arbitrarily (no payload-format coupling like
#: Compression→Decompression, which is order-sensitive by design)
POOL = [
    "Logging",
    "Acl",
    "Fault",
    "LbKeyHash",
    "Compression",
    "Metrics",
    "RateLimit",
    "Admission",
    "Mirror",
    "Encryption",
    "Router",
]

chains = st.lists(st.sampled_from(POOL), min_size=1, max_size=6, unique=True)


class TestChainOptimizerProperties:
    @given(names=chains)
    @settings(max_examples=60, deadline=None)
    def test_reorder_always_legal(self, names):
        chain = optimize_chain(
            [build_element_ir(PROGRAM.elements[n]) for n in names]
        )
        analyses = {e.name: e.analysis for e in chain.elements}
        assert (
            ordering_violations(list(chain.element_names), list(names), analyses)
            == []
        )

    @given(names=chains)
    @settings(max_examples=60, deadline=None)
    def test_stages_partition_the_chain(self, names):
        chain = optimize_chain(
            [build_element_ir(PROGRAM.elements[n]) for n in names]
        )
        flattened = [name for stage in chain.stages for name in stage]
        assert flattened == list(chain.element_names)

    @given(names=chains)
    @settings(max_examples=60, deadline=None)
    def test_stage_members_pairwise_parallelizable(self, names):
        chain = optimize_chain(
            [build_element_ir(PROGRAM.elements[n]) for n in names]
        )
        analyses = {e.name: e.analysis for e in chain.elements}
        for stage in chain.stages:
            for i, first in enumerate(stage):
                for second in stage[i + 1 :]:
                    assert can_parallelize(analyses[first], analyses[second])


# -- constant folding: fold(e) evaluates as e does, fault for fault -------

numeric = st.integers(min_value=-50, max_value=50)
floats = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)
#: every field type's exemplar values, and NULL
EXEMPLARS = [
    value
    for field_type in FieldType
    for value in field_type.exemplar_values()
] + [None]


@st.composite
def literal_expressions(draw, depth=0):
    """Random literal-only expressions (no column refs: fully foldable)
    over values of every field type and NULL, so many of them fault."""
    if depth >= 3 or draw(st.booleans()):
        return Literal(
            draw(st.one_of(numeric, floats, st.sampled_from(EXEMPLARS)))
        )
    shape = draw(st.sampled_from(["binary", "unary", "case"]))
    if shape == "binary":
        op = draw(
            st.sampled_from(["+", "-", "*", "/", "%", "==", "!=", "<", "<=",
                             ">", ">=", "and", "or"])
        )
        return BinaryOp(
            op,
            draw(literal_expressions(depth=depth + 1)),
            draw(literal_expressions(depth=depth + 1)),
        )
    if shape == "unary":
        op = draw(st.sampled_from(["-", "not"]))
        return UnaryOp(op, draw(literal_expressions(depth=depth + 1)))
    return CaseExpr(
        whens=(
            (
                draw(literal_expressions(depth=depth + 1)),
                draw(literal_expressions(depth=depth + 1)),
            ),
        ),
        default=draw(literal_expressions(depth=depth + 1)),
    )


class TestFoldingProperties:
    @given(expr=literal_expressions())
    @settings(max_examples=150, deadline=None)
    def test_fold_preserves_value(self, expr):
        """The folded expression evaluates to the same value (by repr,
        which tells 1, 1.0 and True apart) or faults as the original
        does."""
        registry = FunctionRegistry(rng=random.Random(0))
        env = EvalEnv(row={}, vars={}, registry=registry)

        def outcome(expression):
            try:
                return ("ok", repr(evaluate(expression, env)))
            except Exception:
                return ("fault",)

        assert outcome(fold_expr(expr, registry)) == outcome(expr)

    @given(expr=literal_expressions())
    @settings(max_examples=100, deadline=None)
    def test_fold_idempotent(self, expr):
        registry = FunctionRegistry(rng=random.Random(0))
        once = fold_expr(expr, registry)
        twice = fold_expr(once, registry)
        assert once == twice


class TestElementOptimizationPreservesBehaviour:
    """The pipeline's element passes (constant folding, then predicate
    pushdown) must be observationally equivalent to the unoptimized IR
    on randomized inputs."""

    DET_POOL = ["Acl", "LbKeyHash", "Metrics", "Router", "Admission", "Cache"]

    @given(
        name=st.sampled_from(DET_POOL),
        username=st.text(max_size=10),
        obj_id=st.integers(min_value=0, max_value=2**31),
        payload=st.binary(max_size=64),
        method=st.sampled_from(["get", "put", "admin"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_optimized_equals_plain(
        self, name, username, obj_id, payload, method
    ):
        from repro.dsl import FunctionRegistry
        from repro.ir.interp import ElementInstance
        from repro.ir.analysis import analyze_element

        registry = FunctionRegistry(rng=random.Random(0))
        plain_ir = build_element_ir(PROGRAM.elements[name])
        analyze_element(plain_ir, registry)
        optimized_ir = pushdown_element(
            fold_constants_element(
                build_element_ir(PROGRAM.elements[name]), registry
            )
        )
        analyze_element(optimized_ir, registry)
        plain = ElementInstance(plain_ir, registry)
        optimized = ElementInstance(optimized_ir, registry)
        for instance in (plain, optimized):
            if "endpoints" in instance.state.tables:
                instance.state.table("endpoints").insert_values([0, "B.1"])
                instance.state.table("endpoints").insert_values([1, "B.2"])
        rpc = {
            "src": "A.0",
            "dst": "B",
            "rpc_id": 1,
            "method": method,
            "kind": "request",
            "status": "ok",
            "payload": payload,
            "username": username,
            "obj_id": obj_id,
        }

        def strip(rows):
            return [
                {k: v for k, v in row.items() if isinstance(k, str)}
                for row in rows
            ]

        assert strip(plain.process(dict(rpc), "request")) == strip(
            optimized.process(dict(rpc), "request")
        )
