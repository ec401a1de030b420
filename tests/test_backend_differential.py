"""Interpreter-vs-backend differential gate on generated inputs.

Every stdlib element (built unoptimized), the two fused elements the full
optimizer pipeline makes of (Metrics, GlobalQuota, Cache) and of
(Logging, Acl, Fault), and a synthetic keyed-write element run through
both the generated Python module and the reference interpreter. Inputs
are Hypothesis-drawn: tables preloaded with random rows, then 1-40
request/response rows whose ``username``, ``method`` and ``obj_id`` come
from small pools (so keys repeat), occasionally NULL, absent or of the
wrong type.

Per step the two must emit the same rows, raise together, and report the
same costed registry calls. At the end their state snapshots, delta logs
and table-observer event streams must be equal.

The boundary tests pin which predicates compile to a keyed lookup and
which stay scans, and one sha256 pins every static fact the shared
key-pinning walk feeds.
"""

import hashlib
import pathlib
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.backends import make_backends
from repro.compiler.backends.python_backend import PythonBackend
from repro.compiler.compiler import AdnCompiler
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl
from repro.dsl.parser import parse
from repro.dsl.validator import validate_program
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.errors import RuntimeFault
from repro.ir.expr_utils import TABLE_ARG_FUNCS, compare, truthy
from repro.ir.interp import ElementInstance
from repro.ir.nodes import AdvanceInput
from repro.ir.optimizer import OptimizerOptions

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)
REGISTRY = FunctionRegistry()
PROGRAM = load_stdlib(schema=SCHEMA)

SYNTHETIC = """
element KeyedWrites {
    state pairs (username: str KEY, obj_id: int KEY, hits: int);
    state seen (method: str KEY, n: int);
    on request {
        UPDATE pairs SET hits = hits + 1
            WHERE username == input.username AND obj_id == input.obj_id
              AND hits < 3;
        DELETE FROM seen WHERE method == input.method;
        SELECT input.* FROM input
        JOIN pairs ON pairs.obj_id == input.obj_id
                  AND pairs.username == input.username
        WHERE pairs.hits > 1;
    }
    on response {
        INSERT INTO seen SELECT input.method, 1 FROM input;
        DELETE FROM pairs
            WHERE obj_id == input.obj_id AND username == input.username
              AND hits >= 2;
        SELECT * FROM input;
    }
}
"""


def _program(source):
    return validate_program(parse(source), schema=SCHEMA, registry=REGISTRY)


def _unoptimized(definition):
    ir = build_element_ir(definition)
    analyze_element(ir, REGISTRY)
    return ir


def _fused(names):
    compiler = AdnCompiler(
        registry=REGISTRY, options=OptimizerOptions(fusion=True)
    )
    chain = compiler.compile_chain(
        ChainDecl(src="A", dst="B", elements=names), PROGRAM, SCHEMA
    )
    (element,) = chain.elements.values()
    return element.ir


ELEMENTS = {name: _unoptimized(d) for name, d in PROGRAM.elements.items()}
ELEMENTS.update(
    (ir.name, ir)
    for ir in (
        _fused(("Metrics", "GlobalQuota", "Cache")),
        _fused(("Logging", "Acl", "Fault")),
        _unoptimized(_program(SYNTHETIC).elements["KeyedWrites"]),
    )
)
ARTIFACTS = {}


def _artifact(name):
    if name not in ARTIFACTS:
        ARTIFACTS[name] = PythonBackend(REGISTRY).emit(ELEMENTS[name])
    return ARTIFACTS[name]


# -- generated inputs ---------------------------------------------------------

ABSENT = "<absent>"
USERS = ("usr1", "usr2", "usr3")
METHODS = ("get", "put", "del")
OBJ_IDS = (0, 1, 2, 3)
PAYLOADS = (b"", b"hello world", zlib.compress(b"hello world", 1))


def _field(pool, wrong):
    """Mostly pool values; now and then NULL, absent, or mistyped."""
    return st.sampled_from(pool * 4 + (None, ABSENT, wrong))


def _rpc(fields):
    return {k: v for k, v in fields.items() if v != ABSENT}


RPCS = st.fixed_dictionaries(
    {
        "src": st.just("A.0"),
        "dst": st.just("B"),
        "rpc_id": st.integers(0, 3),
        "status": st.sampled_from(("ok", "aborted:Acl")),
        "payload": st.sampled_from(PAYLOADS),
        "username": _field(USERS, 7),
        "method": _field(METHODS, 1),
        "obj_id": _field(OBJ_IDS, "1"),
    }
).map(_rpc)
STEPS = st.lists(
    st.tuples(st.sampled_from(("request", "response")), RPCS),
    min_size=1,
    max_size=40,
)

COLUMN_VALUES = {
    FieldType.STR: USERS + METHODS + ("R", "W", "B.1"),
    FieldType.INT: OBJ_IDS,
    FieldType.BOOL: (True, False),
    FieldType.BYTES: (b"", b"x"),
    FieldType.FLOAT: (0.0, 1.5),
}


def _table_rows(decl):
    """Rows of one table: type-correct values, now and then NULL."""
    columns = {
        col.name: st.sampled_from(COLUMN_VALUES[col.type] * 4 + (None,))
        for col in decl.columns
    }
    return st.lists(st.fixed_dictionaries(columns), max_size=6)


# -- running both sides ---------------------------------------------------------


class _Recorder:
    """Table observer logging every mutation notification in order."""

    def __init__(self):
        self.events = []

    def on_insert(self, table, row, previous):
        self.events.append(("insert", table.name, _items(row), _items(previous)))

    def on_update(self, table, before, after):
        self.events.append(("update", table.name, _items(before), _items(after)))

    def on_delete(self, table, row):
        self.events.append(("delete", table.name, _items(row)))


def _items(row):
    return None if row is None else tuple(sorted(row.items()))


class _Side:
    """One runnable element (generated or interpreted) with its probes."""

    def __init__(self, instance, calls):
        self.instance = instance
        self.calls = calls
        self.recorder = _Recorder()

    def preload(self, tables):
        for name, rows in tables.items():
            table = self.instance.state.table(name)
            for row in rows:
                table.insert(row)
        for table in self.instance.state.tables.values():
            table.observer = self.recorder
            table.start_delta_log()

    def step(self, kind, rpc, seed):
        REGISTRY.bind_rng(random.Random(seed))
        del self.calls[:]
        try:
            rows = self.instance.process(dict(rpc, kind=kind), kind)
        except Exception:
            return "raised", list(self.calls)
        emitted = [
            {k: v for k, v in row.items() if isinstance(k, str)}
            for row in rows
        ]
        return emitted, list(self.calls)

    def final(self):
        tables = self.instance.state.tables
        return (
            self.instance.state.snapshot(),
            {name: t.drain_delta_log() for name, t in tables.items()},
            self.recorder.events,
        )


def _sides(name):
    """(generated, interpreted) instances of one element."""
    sides = []
    for build in (
        lambda hook: _artifact(name).factory(on_func_call=hook),
        lambda hook: ElementInstance(ELEMENTS[name], REGISTRY, on_func_call=hook),
    ):
        calls = []

        def hook(spec, size, calls=calls):
            # count/contains/*_of are charged only by the interpreter
            if spec.name not in TABLE_ARG_FUNCS:
                calls.append((spec.name, size))

        sides.append(_Side(build(hook), calls))
    return sides


def _fused_ir(ir):
    return any(
        isinstance(op, AdvanceInput)
        for handler in ir.handlers.values()
        for stmt in handler.statements
        for op in stmt.ops
    )


class TestGeneratedAgreesWithInterpreter:
    @pytest.mark.parametrize("name", sorted(ELEMENTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_element(self, name, data):
        ir = ELEMENTS[name]
        tables = {
            decl.name: data.draw(_table_rows(decl), label=decl.name)
            for decl in ir.states
        }
        steps = data.draw(STEPS, label="steps")
        generated, interpreted = _sides(name)
        for side in (generated, interpreted):
            side.preload(tables)
        for index, (kind, rpc) in enumerate(steps):
            got = generated.step(kind, rpc, index)
            want = interpreted.step(kind, rpc, index)
            assert got == want, (index, kind, rpc)
            if _fused_ir(ir):
                assert (
                    generated.instance.fused_progress
                    == interpreted.instance.fused_progress
                ), (index, kind, rpc)
        assert generated.final() == interpreted.final()


# -- boundary cases --------------------------------------------------------------


def _element(state, body):
    """One synthetic element: ``body`` then a forward, on requests."""
    ir = _unoptimized(
        _program(
            f"""
element E {{
    state {state};
    on request {{
        {body}
        SELECT * FROM input;
    }}
    on response {{ SELECT * FROM input; }}
}}
"""
        ).elements["E"]
    )
    return PythonBackend(REGISTRY).emit(ir), ir


def _run_both(element, preload, rpcs):
    """Each request's rows (or "raised") and the final snapshot, after
    checking that the generated module and the interpreter agree."""
    artifact, ir = element
    outcomes = []
    for instance in (artifact.factory(), ElementInstance(ir, REGISTRY)):
        for name, rows in preload.items():
            for row in rows:
                instance.state.table(name).insert(row)
        results = []
        for rpc in rpcs:
            try:
                results.append(instance.process(dict(rpc), "request"))
            except Exception:
                results.append("raised")
        outcomes.append((results, instance.state.snapshot()))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


NULL_KEY = ("t (u: str KEY, v: int)",
            "UPDATE t SET v = v + 1 WHERE u == input.username;")
ONE_KEY = ("t (k: int KEY, v: int)",
           "UPDATE t SET v = v + 1 WHERE k == input.obj_id;")
TWO_KEYS = ("t (u: str KEY, k: int KEY, v: int)",
            "UPDATE t SET v = v + 1 "
            "WHERE u == input.username AND k == input.obj_id;")
KEYED_DELETE = ("t (k: int KEY, v: int)",
                "DELETE FROM t WHERE k == input.obj_id AND v > 0;")


class TestKeyedSemantics:
    """What a key-pinned statement must do, lookup or scan."""

    def test_null_key_never_matches_a_null_keyed_row(self):
        _results, snapshot = _run_both(
            _element(*NULL_KEY),
            {"t": [{"u": None, "v": 0}, {"u": "usr1", "v": 0}]},
            [{"username": None}, {"username": "usr1"}],
        )
        assert snapshot["tables"]["t"] == [
            {"u": None, "v": 0}, {"u": "usr1", "v": 1}
        ]

    def test_missing_field_faults_only_on_a_non_empty_table(self):
        element = _element(*ONE_KEY)
        results, _snapshot = _run_both(element, {}, [{"username": "a"}])
        assert results == [[{"username": "a"}]]
        results, _snapshot = _run_both(
            element, {"t": [{"k": 1, "v": 0}]}, [{"username": "a"}]
        )
        assert results == ["raised"]

    def test_second_key_faults_only_when_the_first_matches(self):
        results, _snapshot = _run_both(
            _element(*TWO_KEYS),
            {"t": [{"u": "usr1", "k": 1, "v": 0}]},
            [{"username": "usr2"}, {"username": "usr1"}],
        )
        assert results == [[{"username": "usr2"}], "raised"]

    def test_mistyped_key_faults_like_the_scan(self):
        # a str column compared with an int faults; NULL compares false
        results, _snapshot = _run_both(
            _element(*NULL_KEY),
            {"t": [{"u": None, "v": 0}, {"u": "usr1", "v": 0}]},
            [{"username": 7}],
        )
        assert results == ["raised"]
        results, _snapshot = _run_both(
            _element(*NULL_KEY), {"t": [{"u": None, "v": 0}]}, [{"username": 7}]
        )
        assert results == [[{"username": 7}]]

    def test_keyed_delete_removes_only_the_pinned_row(self):
        _results, snapshot = _run_both(
            _element(*KEYED_DELETE),
            {"t": [{"k": 1, "v": 1}, {"k": 2, "v": 1}, {"k": 3, "v": 0}]},
            [{"obj_id": 1}, {"obj_id": 3}, {"obj_id": None}],
        )
        assert snapshot["tables"]["t"] == [{"k": 2, "v": 1}, {"k": 3, "v": 0}]


class TestLookupOrScan:
    """Which predicates the backend answers from the key."""

    @pytest.mark.parametrize(
        "name", ["Metrics", "GlobalQuota", "Acl", "AccessControl", "Router",
                 "LbRoundRobin"]
    )
    def test_key_pinned_stdlib_statements_are_lookups(self, name):
        source = _artifact(name).source
        assert ".lookup(lambda: (" in source
        assert "update_where(" not in source
        assert ".rows()" not in source

    def test_fused_elements_keep_their_lookups(self):
        fused = _artifact("Metrics__GlobalQuota__Cache").source
        assert fused.count(".lookup(") == 2
        assert ".lookup(" in _artifact("Logging__Fault__Acl").source

    @pytest.mark.parametrize(
        "state, body", [NULL_KEY, ONE_KEY, TWO_KEYS, KEYED_DELETE]
    )
    def test_synthetic_key_pins_are_lookups(self, state, body):
        source = _element(state, body)[0].source
        assert "_t.lookup(lambda: (" in source
        assert "_where(" not in source

    def test_keyed_delete_deletes_through_the_row_method(self):
        source = _artifact("KeyedWrites").source
        assert "delete_where(" not in source
        assert source.count("_t.delete_row(_srow)") == 2

    def test_lb_key_hash_stays_a_scan(self):
        # its pin counts the table and calls hash(): both need the scan
        assert "_tables['endpoints'].rows()" in _artifact("LbKeyHash").source

    def test_unkeyed_table_stays_a_scan(self):
        own = parse((EXAMPLES / "lint_demo.adn").read_text())
        program = validate_program(load_stdlib().merged(own), schema=SCHEMA)
        ir = _unoptimized(program.elements["LintDemo"])
        source = PythonBackend(REGISTRY).emit(ir).source
        assert "_tables['quota'].update_where(" in source

    @pytest.mark.parametrize(
        "state, body",
        [
            # NaN makes == and a dict lookup disagree
            ("t (k: float KEY, v: int)",
             "UPDATE t SET v = v + 1 WHERE k == 1.5;"),
            # the pin does not lead: the residual runs on every row
            ("t (k: int KEY, v: int)",
             "UPDATE t SET v = v + 1 WHERE v > 0 AND k == input.obj_id;"),
            # only part of the key is pinned
            ("t (k: int KEY, u: str KEY, v: int)",
             "UPDATE t SET v = v + 1 WHERE k == input.obj_id;"),
            # a registry call is charged once per scanned row
            ("t (k: int KEY, v: int)",
             "UPDATE t SET v = v + 1 "
             "WHERE k == input.obj_id AND len(input.payload) > v;"),
            # the pin counts the table it pins
            ("t (k: int KEY, v: int)",
             "UPDATE t SET v = v + 1 WHERE k == count(t);"),
        ],
    )
    def test_predicates_that_stay_scans(self, state, body):
        source = _element(state, body)[0].source
        assert "_tables['t'].update_where(" in source
        assert ".lookup(" not in source


# -- one comparison for both runtimes -----------------------------------------------


def _eager(left, right, op):
    """The comparison both runtimes used to inline: all six at once."""
    if left is None or right is None:
        return False
    return {
        "==": left == right,
        "!=": left != right,
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
    }[op]


MATRIX = [None, 0, 1, -2, 2**70, 1.0, 0.5, float("nan"), True, False,
          "", "a", "1", b"", b"a"]


class TestSharedComparison:
    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_compare_matches_the_eager_table(self, op):
        for left in MATRIX:
            for right in MATRIX:
                try:
                    want = _eager(left, right, op)
                except TypeError:
                    want = "fault"
                try:
                    got = compare(left, right, op)
                except RuntimeFault:
                    got = "fault"
                assert got == want, (left, op, right)

    def test_mismatched_equality_faults(self):
        with pytest.raises(RuntimeFault, match="cannot compare str with int"):
            compare("a", 1, "==")

    def test_generated_code_binds_the_shared_helpers(self):
        instance = _artifact("Acl").factory()
        namespace = type(instance).on_request.__globals__
        assert namespace["_cmp"] is compare
        assert namespace["_truthy"] is truthy

    def test_both_runtimes_fault_alike_on_a_mismatched_comparison(self):
        artifact, ir = _element(
            "t (k: int KEY, v: int)",
            "UPDATE t SET v = 1 WHERE input.username == 'a';",
        )
        for instance in (artifact.factory(), ElementInstance(ir, REGISTRY)):
            instance.state.table("t").insert({"k": 1, "v": 0})
            with pytest.raises(RuntimeFault, match="cannot compare int with str"):
                instance.process({"username": 5}, "request")


# -- static facts fed by the key-pinning walk -----------------------------------

#: sha256 of :func:`_static_facts`; a change to the shared walk or one of
#: its readers must leave every verdict as it was
STATIC_FACTS_SHA256 = (
    "54b3f17652b7351bafa068295673be478f1aaf943314c18d3f4a8134f21c6ce2"
)


def _static_facts():
    schema = RpcSchema.of(
        "cli",
        payload=FieldType.BYTES,
        username=FieldType.STR,
        obj_id=FieldType.INT,
    )
    definitions = dict(load_stdlib(schema=schema).elements)
    for path in sorted(EXAMPLES.glob("*.adn")):
        own = parse(path.read_text())
        program = validate_program(load_stdlib().merged(own), schema=schema)
        for name in own.elements:
            definitions[f"{path.name}:{name}"] = program.elements[name]
    registry = FunctionRegistry()
    backends = make_backends(registry)
    lines = []
    for label, definition in sorted(definitions.items()):
        ir = build_element_ir(definition)
        analysis = analyze_element(ir, registry)
        for kind, handler in sorted(analysis.handlers.items()):
            lines.append(f"{label} {kind} can_multiply={handler.can_multiply}")
        lines.append(f"{label} replication {analysis.replication!r}")
        lines.append(f"{label} refined {analysis.refined_replication!r}")
        lines.append(f"{label} effects {analysis.effects!r}")
        for backend_name, backend in sorted(backends.items()):
            report = backend.check(ir)
            lines.append(
                f"{label} {backend_name} {report.violations!r} {report.notes!r}"
            )
    return "\n".join(lines)


def test_static_facts_are_pinned():
    digest = hashlib.sha256(_static_facts().encode()).hexdigest()
    assert digest == STATIC_FACTS_SHA256
