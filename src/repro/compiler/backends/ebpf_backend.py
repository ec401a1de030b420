"""eBPF backend: legality checking and C source generation.

Models what an in-kernel placement can actually host (paper §2/§3: parsing
and processing for standardized protocols is almost impossible to offload,
but ADN's custom flat headers make it feasible). The verifier-driven
constraints we enforce:

* **No unbounded loops** — a join must be a unique-key map lookup
  (``BPF_MAP_TYPE_HASH``); scanning a table is rejected.
* **No heavyweight UDFs** — payload operations (compression, encryption)
  have no kernel helpers and are rejected.
* **No string manipulation** — only fixed-width comparisons; building new
  strings is rejected.
* **Map-shaped state only** — keyed tables become hash maps; append-only
  tables become ring buffers; unkeyed bags are rejected.
* **Floats** are converted to Q32.32 fixed point (noted, not rejected),
  because the BPF ISA has no FPU access.

The generated source is representative eBPF C (maps, ctx accessors, a
``SEC("adn/<element>")`` program per handler) — it is not loaded into a
kernel here, but it is what the paper's compiler would hand to clang.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ...dsl.ast_nodes import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    UnaryOp,
    VarRef,
)
from ...dsl.schema import FieldType
from ...ir.analysis import join_is_unique  # shared join-shape analysis
from ...ir.expr_utils import collect_refs, walk
from ...ir.nodes import (
    AssignVar,
    DeleteRows,
    ElementIR,
    EmitRows,
    FilterRows,
    InsertLiterals,
    InsertRows,
    JoinState,
    Project,
    Scan,
    UpdateRows,
    op_exprs,
)
from .base import Backend, CompiledArtifact, LegalityReport

#: functions with kernel helper equivalents
_EBPF_FUNCS = {
    "hash": "bpf_crc32c",
    "rand": "bpf_get_prandom_u32",
    "now": "bpf_ktime_get_ns",
    "min": "__min",
    "max": "__max",
    "abs": "__abs",
    "floor": "/* integer floor */",
    "len": "__builtin_strlen /* bounded */",
    "count": "map_count",
    "contains": "bpf_map_lookup_elem",
    "coalesce": "__coalesce",
}

_C_TYPES = {
    FieldType.INT: "__s64",
    FieldType.FLOAT: "__s64 /* Q32.32 */",
    FieldType.BOOL: "__u8",
    FieldType.STR: "char[32]",
    FieldType.BYTES: "__u8*",
}


class EbpfBackend(Backend):
    """Generates eBPF C and enforces the verifier-shaped subset."""

    name = "ebpf"

    # -- legality ----------------------------------------------------------

    def check(self, element: ElementIR) -> LegalityReport:
        report = LegalityReport(element=element.name, backend=self.name)
        analysis = element.analysis
        if analysis is None:
            report.violations.append("element not analyzed")
            return report
        if "fused_from" in element.meta:
            report.violations.append(
                "fused element: kernel programs stay per-element (tail "
                "calls chain them); compile the members individually"
            )
            return report
        for func_name in sorted(
            {f for h in analysis.handlers.values() for f in h.functions}
        ):
            spec = self.registry.get(func_name)
            if spec.payload_op:
                report.violations.append(
                    f"payload UDF {func_name}() has no kernel helper"
                )
            elif func_name not in _EBPF_FUNCS:
                report.violations.append(
                    f"function {func_name}() has no eBPF mapping"
                )
        key_columns = {
            decl.name: tuple(c.name for c in decl.columns if c.is_key)
            for decl in element.states
        }
        for decl in element.states:
            if not decl.append_only and not any(c.is_key for c in decl.columns):
                report.violations.append(
                    f"table {decl.name!r} is an unkeyed bag; eBPF state "
                    "must be a keyed map or a ring buffer"
                )
        for handler in element.handlers.values():
            for stmt in handler.statements:
                for op in stmt.ops:
                    if isinstance(op, JoinState) and not join_is_unique(
                        op, key_columns
                    ):
                        report.violations.append(
                            f"join on {op.table!r} is not a unique-key "
                            "lookup (unbounded loop)"
                        )
                    if isinstance(op, (UpdateRows, DeleteRows)):
                        if op.where is not None and not _bounded_where(
                            op, key_columns
                        ):
                            report.violations.append(
                                f"{type(op).__name__} on {op.table!r} "
                                "scans the table (predicate is not a "
                                "key lookup)"
                            )
                    self._check_op_exprs(op, report)
        if _uses_floats(element):
            report.notes.append(
                "float arithmetic converted to Q32.32 fixed point"
            )
        if analysis.append_only_state:
            report.notes.append(
                "append-only tables lowered to BPF ring buffers"
            )
        return report

    def _check_op_exprs(self, op, report: LegalityReport) -> None:
        for expr in _op_exprs(op):
            for node in walk(expr):
                if (
                    isinstance(node, BinaryOp)
                    and node.op in ("<", "<=", ">", ">=")
                    and _is_stringy(node.left)
                ):
                    report.violations.append(
                        "string ordering comparison is not supported in eBPF"
                    )

    # -- emission --------------------------------------------------------------

    def emit(self, element: ElementIR) -> CompiledArtifact:
        self._require_legal(element)
        lines: List[str] = [
            "// auto-generated by ADN compiler — eBPF backend",
            f"// element: {element.name}",
            '#include "adn_ebpf.h"',
            "",
        ]
        for decl in element.states:
            if decl.append_only:
                lines.append(
                    f"ADN_RINGBUF({decl.name}, 1 << 20);"
                )
            else:
                key = [c for c in decl.columns if c.is_key]
                value = [c for c in decl.columns if not c.is_key]
                key_type = ", ".join(
                    f"{_C_TYPES[c.type]} {c.name}" for c in key
                )
                value_type = ", ".join(
                    f"{_C_TYPES[c.type]} {c.name}" for c in value
                ) or "__u8 _unused"
                lines.append(
                    f"ADN_HASH_MAP({decl.name}, {{ {key_type} }}, "
                    f"{{ {value_type} }}, 65536);"
                )
        for var in element.vars:
            lines.append(
                f"ADN_GLOBAL({_C_TYPES[var.type].split(' ')[0]}, "
                f"{var.name}, {_c_literal(var.init.value)});"
            )
        lines.append("")
        for kind, handler in sorted(element.handlers.items()):
            lines.append(f'SEC("adn/{element.name}/{kind}")')
            lines.append(
                f"int {element.name.lower()}_{kind}(struct adn_ctx *ctx) {{"
            )
            lines.append("    struct adn_hdr *hdr = adn_hdr(ctx);")
            emitted = self._emit_handler_body(element, handler, lines)
            if not emitted:
                lines.append("    return ADN_PASS;")
            lines.append("}")
            lines.append("")
        source = "\n".join(lines)
        return CompiledArtifact(
            element=element.name,
            backend=self.name,
            source=source,
            op_count=sum(
                element.analysis.handler_ops(k) for k in element.handlers
            )
            if element.analysis
            else 0,
        )

    def _emit_handler_body(self, element, handler, lines: List[str]) -> bool:
        compiler = _CExprCompiler()
        wrote = False
        for stmt in handler.statements:
            for op in stmt.ops:
                if isinstance(op, Scan):
                    continue
                if isinstance(op, JoinState):
                    lines.append(
                        f"    struct {op.table}_value *{op.table}_v = "
                        f"bpf_map_lookup_elem(&{op.table}, "
                        f"&({compiler.key_expr(op)}));"
                    )
                    lines.append(
                        f"    if (!{op.table}_v) return ADN_DROP;"
                    )
                    wrote = True
                elif isinstance(op, FilterRows):
                    lines.append(
                        f"    if (!({compiler.compile(op.predicate)})) "
                        "return ADN_DROP;"
                    )
                    wrote = True
                elif isinstance(op, Project):
                    for name, expr in op.items:
                        lines.append(
                            f"    hdr->{name} = {compiler.compile(expr)};"
                        )
                        wrote = True
                elif isinstance(op, EmitRows):
                    pass  # falling through to ADN_PASS emits
                elif isinstance(op, (InsertRows, InsertLiterals)):
                    lines.append(
                        f"    adn_ringbuf_or_map_write(&{op.table}, hdr);"
                    )
                    wrote = True
                elif isinstance(op, UpdateRows):
                    for col, expr in op.assignments:
                        lines.append(
                            f"    __sync_fetch_and_add(&{op.table}_v->{col}, "
                            f"{compiler.compile(expr)} - {op.table}_v->{col});"
                        )
                    wrote = True
                elif isinstance(op, AssignVar):
                    guard = ""
                    if op.where is not None:
                        guard = f"if ({compiler.compile(op.where)}) "
                    lines.append(
                        f"    {guard}{op.var} = {compiler.compile(op.expr)};"
                    )
                    wrote = True
                elif isinstance(op, DeleteRows):
                    lines.append(
                        f"    bpf_map_delete_elem(&{op.table}, "
                        f"&({compiler.key_expr_for_delete(op)}));"
                    )
                    wrote = True
        lines.append("    return ADN_PASS;")
        return True


def _op_exprs(op) -> List[Expr]:
    return list(op_exprs(op))


def _bounded_where(op, key_columns: Dict[str, tuple]) -> bool:
    """An update/delete predicate is map-friendly when it pins the key
    columns by equality (single map lookup instead of a scan)."""
    keys: Set[str] = set(key_columns.get(op.table, ()))
    if not keys:
        return False
    refs = collect_refs(op.where)
    pinned = {col for tbl, col in refs.table_columns if tbl == op.table}
    return keys <= pinned


def _uses_floats(element: ElementIR) -> bool:
    if any(var.type is FieldType.FLOAT for var in element.vars):
        return True
    for handler in element.handlers.values():
        for stmt in handler.statements:
            for op in stmt.ops:
                for expr in _op_exprs(op):
                    for node in walk(expr):
                        if isinstance(node, Literal) and isinstance(
                            node.value, float
                        ):
                            return True
    return False


def _is_stringy(expr: Expr) -> bool:
    return isinstance(expr, Literal) and isinstance(expr.value, str)


def _c_literal(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"ADN_FIXED({value})"
    if isinstance(value, str):
        return f'"{value}"'
    return repr(value)


class _CExprCompiler:
    """DSL expression → C fragment (for representative source only)."""

    def compile(self, expr: Expr) -> str:
        if isinstance(expr, Literal):
            return _c_literal(expr.value)
        if isinstance(expr, VarRef):
            return expr.name
        if isinstance(expr, ColumnRef):
            if expr.table in (None, "input"):
                return f"hdr->{expr.name}"
            return f"{expr.table}_v->{expr.name}"
        if isinstance(expr, FuncCall):
            if expr.name == "count":
                table = expr.args[0]
                assert isinstance(table, ColumnRef)
                return f"map_count(&{table.name})"
            if expr.name == "contains":
                table = expr.args[0]
                assert isinstance(table, ColumnRef)
                key = self.compile(expr.args[1])
                return f"(bpf_map_lookup_elem(&{table.name}, &({key})) != 0)"
            helper = _EBPF_FUNCS.get(expr.name, expr.name)
            args = ", ".join(self.compile(a) for a in expr.args)
            return f"{helper}({args})"
        if isinstance(expr, BinaryOp):
            op = {"and": "&&", "or": "||"}.get(expr.op, expr.op)
            return f"({self.compile(expr.left)} {op} {self.compile(expr.right)})"
        if isinstance(expr, UnaryOp):
            op = "!" if expr.op == "not" else expr.op
            return f"({op}{self.compile(expr.operand)})"
        if isinstance(expr, CaseExpr):
            out = (
                self.compile(expr.default) if expr.default is not None else "0"
            )
            for condition, value in reversed(expr.whens):
                out = (
                    f"({self.compile(condition)} ? "
                    f"{self.compile(value)} : {out})"
                )
            return out
        return "/* ? */"

    def key_expr(self, op: JoinState) -> str:
        # the unique-join key is the non-table side of the equality
        for node in walk(op.on):
            if isinstance(node, BinaryOp) and node.op == "==":
                for side, other in ((node.left, node.right), (node.right, node.left)):
                    if (
                        isinstance(side, ColumnRef)
                        and side.table == op.table
                    ):
                        return self.compile(other)
        return "0"

    def key_expr_for_delete(self, op: DeleteRows) -> str:
        if op.where is None:
            return "0"
        for node in walk(op.where):
            if isinstance(node, BinaryOp) and node.op == "==":
                for side, other in ((node.left, node.right), (node.right, node.left)):
                    if isinstance(side, ColumnRef) and side.table == op.table:
                        return self.compile(other)
        return "0"
