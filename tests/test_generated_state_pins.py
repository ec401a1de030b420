"""Pinned state-access verdicts on generated elements.

A seeded template grammar writes 300 element sources: keyed, keyless,
append-only, float-keyed and two-key tables, and an optional int var;
JOINs pinned, unpinned and pinned through ``count(t)``; UPDATEs that
self-increment, overwrite, read their own table, are guarded by
``contains``/``sum_of`` or keyed by ``input.rpc_id``; DELETEs pinned,
unpinned and without WHERE; ``INSERT ... SELECT`` keyed, appended,
carrying ``input.rpc_id`` or ``now()``; ``INSERT ... VALUES``; SETs
that self-increment, overwrite or are guarded by state; WHEREs over
vars and tables; ``SELECT t.*``; emitting and non-emitting statements
in both handlers. Every source goes through the real parser and
validator.

Per element the log holds its source, the ``repr`` of its coarse
replication verdict, its effect-refined verdict and its effect summary,
its ADN3xx/ADN70x diagnostics from ``lint_source``, and its
``can_parallelize`` verdict against the next element. The elements are
also placed ten at a time on a fan-out graph (``a->b`` with three
attempts, ``a->c``) and ``analyze_graph``'s diagnostics are logged.

One sha256 pins the whole log. On a mismatch, per-block digest prefixes
name the first element (or graph) whose log differs.
"""

import hashlib
import json
import random

import pytest

from repro.analysis.graph import analyze_graph
from repro.dsl import parse, validate_element
from repro.dsl.ast_nodes import Program
from repro.graph import MESH_SCHEMA, GraphBuilder
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.ir.dependency import can_parallelize
from repro.ir.state_access import SHAPES
from repro.lint import LintOptions, lint_source

SEED = 2026
COUNT = 300
GRAPH_SIZE = 10

TABLES = {
    "keyed": "(k: int KEY, n: int, f: float)",
    "keyless": "(k: int, n: int, f: float)",
    "append": "(k: int, n: int, f: float) APPEND",
    "float-key": "(k: float KEY, n: int, f: float)",
    "two-key": "(k: int KEY, n: int KEY, f: float)",
}

# ``{t}`` is the statement's table, ``{u}`` another (or the same) table
# of the element. An APPEND table may only be inserted into, deleted
# from, counted or probed with contains(), so it draws from ANY_TABLE
# alone; statements naming ``v`` need the element's var.
ANY_TABLE = (
    "DELETE FROM {t} WHERE k == input.obj_id;",
    "DELETE FROM {t} WHERE n > input.obj_id;",
    "DELETE FROM {t};",
    "DELETE FROM {t} WHERE k == input.rpc_id;",
    "DELETE FROM {t} WHERE k == input.obj_id AND f < now();",
    "INSERT INTO {t} SELECT input.obj_id, 1, 0.5 FROM input;",
    "INSERT INTO {t} SELECT input.obj_id, 1, 0.5 FROM input "
    "WHERE input.priority > 2;",
    "INSERT INTO {t} SELECT input.rpc_id, input.priority, 0.5 FROM input;",
    "INSERT INTO {t} SELECT input.obj_id, 1, now() FROM input;",
    "INSERT INTO {t} VALUES (1, 2, 0.5);",
    "SELECT * FROM input WHERE count({t}) < 5;",
    "SELECT * FROM input WHERE not contains({t}, input.obj_id);",
)
READABLE_TABLE = (
    "SELECT * FROM input JOIN {t} ON {t}.k == input.obj_id;",
    "SELECT input.*, {t}.n AS priority FROM input "
    "JOIN {t} ON {t}.k == input.obj_id;",
    "SELECT * FROM input JOIN {t} ON {t}.n > input.obj_id;",
    "SELECT * FROM input JOIN {t} ON {t}.k == count({t});",
    "SELECT * FROM input JOIN {t} ON {t}.k == count({u});",
    "SELECT input.*, {t}.* FROM input JOIN {t} ON {t}.k == input.obj_id;",
    "SELECT input.username, {t}.n AS priority FROM input "
    "JOIN {t} ON {t}.k == input.obj_id WHERE {t}.f < 1.0;",
    "SELECT input.*, sum_of({t}, n) AS priority FROM input;",
    "INSERT INTO {t} SELECT {t}.k, {t}.n + 1, {t}.f FROM input "
    "JOIN {t} ON {t}.k == input.obj_id;",
    "UPDATE {t} SET n = n + 1 WHERE k == input.obj_id;",
    "UPDATE {t} SET n = n + 1;",
    "UPDATE {t} SET n = n - input.priority WHERE k == input.obj_id;",
    "UPDATE {t} SET n = input.priority WHERE k == input.obj_id;",
    "UPDATE {t} SET n = n * 2 WHERE k == input.obj_id;",
    "UPDATE {t} SET f = now() WHERE k == input.obj_id;",
    "UPDATE {t} SET n = n + 1, f = now() WHERE k == input.obj_id;",
    "UPDATE {t} SET n = n + 1 WHERE k == input.obj_id "
    "AND contains({t}, input.obj_id);",
    "UPDATE {t} SET n = n + 1 WHERE k == input.obj_id "
    "AND sum_of({t}, n) < 100;",
    "UPDATE {t} SET n = input.priority WHERE k == input.obj_id "
    "AND not contains({u}, input.obj_id);",
    "UPDATE {t} SET n = n + 1 WHERE k == input.rpc_id;",
    "SET v = sum_of({t}, n);",
)
WITH_VAR = (
    "SET v = v + 1;",
    "SET v = v + count({t});",
    "SET v = v + 1 WHERE v < 100;",
    "SET v = input.priority;",
    "SET v = hash(now());",
    "SET v = 1 WHERE contains({t}, input.obj_id);",
    "SELECT * FROM input WHERE v < 10;",
    "SELECT input.*, v AS priority FROM input;",
    "INSERT INTO {t} SELECT input.obj_id, v, 0.5 FROM input;",
)
EMITS = (
    "SELECT * FROM input;",
    "SELECT input.username, input.obj_id FROM input;",
)


def generate(rng: random.Random, name: str) -> str:
    tables = {
        f"t{j}": rng.choice(sorted(TABLES)) for j in range(rng.randint(1, 2))
    }
    has_var = rng.random() < 0.5
    lines = [f"element {name} {{"]
    for table, kind in tables.items():
        lines.append(f"    state {table} {TABLES[kind]};")
    if has_var:
        lines.append("    var v: int = 0;")
    for handler in ("request", "response"):
        if handler == "response" and rng.random() < 0.5:
            continue
        lines.append(f"    on {handler} {{")
        for _ in range(rng.randint(1, 4)):
            table = rng.choice(sorted(tables))
            other = rng.choice(sorted(tables))
            pool = ANY_TABLE + (WITH_VAR if has_var else ())
            if tables[table] != "append":
                pool += READABLE_TABLE
            template = rng.choice(pool)
            if "SET v" in template and not has_var:
                template = EMITS[0]
            lines.append("        " + template.format(t=table, u=other))
        if rng.random() < 0.8:
            lines.append("        " + rng.choice(EMITS))
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _diagnostic_lines(diagnostics, codes=None):
    return [
        "diag " + json.dumps(d.to_dict(), sort_keys=True)
        for d in diagnostics
        if codes is None or d.code.startswith(codes)
    ]


def build_logs():
    """One log block per element, then one per graph of ten."""
    rng = random.Random(SEED)
    sources, elements, analyses = [], [], []
    for index in range(COUNT):
        name = f"G{index:03d}"
        source = generate(rng, name)
        element = validate_element(parse(source).elements[name], MESH_SCHEMA)
        sources.append(source)
        elements.append(element)
        analyses.append(analyze_element(build_element_ir(element)))
    options = LintOptions(schema=MESH_SCHEMA, include_stdlib=False)
    blocks = []
    for index, (source, element, analysis) in enumerate(
        zip(sources, elements, analyses)
    ):
        following = analyses[(index + 1) % COUNT]
        verdict = can_parallelize(analysis, following)
        lines = [
            f"== {element.name}",
            source,
            f"coarse {analysis.replication!r}",
            f"refined {analysis.refined_replication!r}",
            f"effects {analysis.effects!r}",
            *_diagnostic_lines(
                lint_source(source, options=options).diagnostics,
                ("ADN3", "ADN70"),
            ),
            f"parallel {following.name} {verdict.commutes} "
            f"{verdict.reasons!r}",
        ]
        blocks.append((element.name, "\n".join(lines)))
    for start in range(0, COUNT, GRAPH_SIZE):
        group = elements[start:start + GRAPH_SIZE]
        names = [element.name for element in group]
        graph = (
            GraphBuilder(f"generated{start // GRAPH_SIZE}")
            .edge("a", "b", elements=names[:6], max_attempts=3)
            .edge("a", "c", elements=names[4:])
            .build()
        )
        program = Program(elements={e.name: e for e in group})
        analysis = analyze_graph(graph, program, MESH_SCHEMA)
        label = f"graph {names[0]}..{names[-1]}"
        lines = [f"== {label}", *_diagnostic_lines(analysis.diagnostics)]
        blocks.append((label, "\n".join(lines)))
    return blocks


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 over every block of :func:`build_logs`, joined by newlines
LOG_SHA256 = (
    "597586f742be948054c385c714b4ca4ed18ddeced9adc9ad5c653448a3bef407"
)

#: the first four hex digits of each block's sha256, in block order —
#: only used to name the first block that differs
BLOCK_PREFIXES = (
    "2a3e f4b7 e3f2 1456 d794 fe5d afaf f5c5 0ef7 68bd 0afd 3dee 49e9 59ec "
    "8fe1 6e0f 16af 4f49 8161 8576 23e2 9076 0cf2 5b5f 36fa efc2 84c8 6a62 "
    "39e7 2cd6 be79 e1c9 32e5 9f13 4426 91a2 1856 8f6b dbde a8d9 5a25 e34b "
    "597f a188 bd71 0de4 907e 3d58 6af6 44fa 6981 1a09 aa42 1910 bc74 cb3f "
    "796d 6efd 5891 b257 f769 0e89 eacf f37f 10ad 8b67 869c 1f54 98d4 3e5c "
    "0824 6ce6 0e53 b9de af57 4f47 dbbe abee f04d 8406 afa8 6515 b03d 0877 "
    "c404 aa3c 91d2 e51a c767 7c62 c1a6 6430 b5db 67a6 b756 95aa 8918 77ea "
    "e2ff a0b0 3382 0508 d984 be09 4efc fc76 bf63 e207 c6cd ce4c 98e8 c501 "
    "712d 60c6 749b e966 e5e3 3787 61de df05 6cf0 ae35 079b 6601 5423 6831 "
    "a56c 9f1a 35bb ff31 fca4 e650 9d61 1f7b e113 2d79 a705 13c2 05a2 a06d "
    "45de 3efb 2694 8c62 6038 178e 6142 4aab 36ea b930 0e22 4c3e 06e5 245f "
    "22ac 6db1 3df0 be2f 339b 6579 c3f4 5274 f806 8833 97eb b449 fcdb b3cb "
    "d54c 9e52 c65c 7eb0 9250 f9ac 2c73 6cda a039 cae9 cd2a 41d5 f731 436c "
    "4337 93dc 6885 7176 f0cd 589e 5d04 8790 dbb7 36ac dc31 5474 b72c 5573 "
    "29fe 7471 9747 6ea7 5f79 30c5 80b8 f697 8242 33ce 24ff e61f f00d 23b8 "
    "b9cf 29fd a964 cc87 0597 95c3 14d7 585b 5aa1 7c60 165f 192b ccb5 5f12 "
    "f124 5365 ed05 3d24 37fa 197d c1d8 6cdd 349b 6d7e 8382 7f38 219a 9086 "
    "9e67 c6dd 40f4 878c d4c5 be84 f387 7bec 97d1 1c80 b3c0 4d66 99ed 6338 "
    "8456 4d04 8bcd 80a7 887d 947e 609f 1af1 1a5e 7d2d e071 aff4 6915 d7ff "
    "cdf5 90ad f45f 7158 13e1 6137 fc63 9606 1305 ad1a 14e9 db2d e7d0 ce44 "
    "cda5 0b7a 8680 c301 21fb 8bb9 f821 4fde aa55 4907 faa9 bcb8 3340 54b0 "
    "db73 5da8 682a 886a 6ffb cbbf e65e c09a 477e 7b18 0450 cff6 357e f5d9 "
    "1b8a f8d8 a6b6 2d29 9dc2 5a0f 96f1 60e9 30dd 1ce6 e407 4d26 b360 0aec "
    "fc9f 16aa 641a d36f 9b85 c0c5 9bac 91c5 "
)


@pytest.fixture(scope="module")
def blocks():
    return build_logs()


def test_grammar_reaches_every_shape_and_the_rare_codes(blocks):
    text = "\n".join(block for _, block in blocks)
    for code in ("ADN303", "ADN702"):
        assert f'"code": "{code}"' in text, f"{code} never fires"
    for shape in SHAPES:
        assert f"shape='{shape}'" in text, f"no {shape} site generated"


def test_generated_verdicts_are_pinned(blocks):
    digest = _sha("\n".join(block for _, block in blocks))
    if digest == LOG_SHA256:
        return
    pinned = BLOCK_PREFIXES.split()
    for index, (label, block) in enumerate(blocks):
        if index >= len(pinned) or _sha(block)[:4] != pinned[index]:
            pytest.fail(f"log of {label} differs from the pin:\n{block}")
    pytest.fail(f"log digest {digest} differs from the pin")
