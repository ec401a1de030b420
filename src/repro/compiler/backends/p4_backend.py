"""P4 backend: legality checking and P4-16 source generation for
programmable-switch placement.

A switch pipeline is the most constrained ADN processor (paper §2/§3,
Figure 2 configuration 3). We enforce:

* **Header-window access only** — the element may read only fields the
  header layout puts in the first ~200 bytes; payload operations are
  rejected outright (checked here), and the exact window check runs at
  placement time against the hop's :class:`HeaderLayout`.
* **Match-action state** — joins must be unique-key lookups (they become
  match-action tables whose entries the controller installs). Data-plane
  inserts and deletes are rejected; the only data-plane writes allowed
  are register-style numeric updates (``SET x = ...`` on numeric vars,
  ``UPDATE t SET c = c + k``-shaped counter bumps).
* **No string computation** — equality on short fixed-width strings is
  allowed (exact-match on padded bytes); ordering or construction is not.
* **No packet replication** — multi-emit elements need clone sessions,
  which this model does not provision.
"""

from __future__ import annotations

from typing import List

from ...dsl.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    UnaryOp,
    VarRef,
)
from ...dsl.schema import FieldType
from ...ir.analysis import join_is_unique
from ...ir.expr_utils import walk
from ...ir.nodes import (
    AssignVar,
    DeleteRows,
    ElementIR,
    FilterRows,
    InsertRows,
    JoinState,
    Project,
    UpdateRows,
)
from .base import Backend, CompiledArtifact, LegalityReport

#: DSL functions with P4 equivalents.
_P4_FUNCS = {
    "hash": "hash(..., HashAlgorithm.crc32, ...)",
    "rand": "random(...)",
    "now": "standard_metadata.ingress_global_timestamp",
    "min": "min",
    "max": "max",
    "count": "register read",
    "contains": "table hit",
    "coalesce": "ternary",
    "abs": "abs",
    "floor": "shift",
}

_P4_TYPES = {
    FieldType.INT: "bit<64>",
    FieldType.FLOAT: "bit<64> /* fixed-point */",
    FieldType.BOOL: "bit<8>",
    FieldType.STR: "bit<256> /* padded ascii */",
    FieldType.BYTES: "/* not parseable */",
}


class P4Backend(Backend):
    """Generates P4-16 and enforces switch-pipeline legality."""

    name = "p4"

    def check(self, element: ElementIR) -> LegalityReport:
        report = LegalityReport(element=element.name, backend=self.name)
        analysis = element.analysis
        if analysis is None:
            report.violations.append("element not analyzed")
            return report
        if "fused_from" in element.meta:
            report.violations.append(
                "fused element: a switch stage hosts one match-action "
                "element; compile the members individually"
            )
            return report
        for func_name in sorted(
            {f for h in analysis.handlers.values() for f in h.functions}
        ):
            spec = self.registry.get(func_name)
            if spec.payload_op:
                report.violations.append(
                    f"payload UDF {func_name}() touches bytes beyond the "
                    "parse window"
                )
            elif func_name not in _P4_FUNCS:
                report.violations.append(
                    f"function {func_name}() has no P4 equivalent"
                )
        if analysis.can_multiply:
            report.violations.append(
                "packet replication (multi-emit) needs clone sessions"
            )
        key_columns = {
            decl.name: tuple(c.name for c in decl.columns if c.is_key)
            for decl in element.states
        }
        for decl in element.states:
            if decl.append_only:
                report.violations.append(
                    f"append-only table {decl.name!r}: switches cannot "
                    "stream logs to files"
                )
            elif not any(c.is_key for c in decl.columns):
                report.violations.append(
                    f"unkeyed table {decl.name!r} cannot be a match-action "
                    "table"
                )
        for handler in element.handlers.values():
            for stmt in handler.statements:
                for op in stmt.ops:
                    self._check_op(op, key_columns, report)
        if analysis.fields_read or analysis.fields_written:
            report.notes.append(
                "placement must verify read fields sit in the "
                "200-byte parse window (HeaderLayout check)"
            )
        return report

    def _check_op(self, op, key_columns, report: LegalityReport) -> None:
        if isinstance(op, JoinState):
            if not join_is_unique(op, key_columns):
                report.violations.append(
                    f"join on {op.table!r} is not an exact-match lookup"
                )
        elif isinstance(op, InsertRows):
            report.violations.append(
                f"data-plane insert into {op.table!r}: table entries are "
                "control-plane only"
            )
        elif isinstance(op, DeleteRows):
            report.violations.append(
                f"data-plane delete from {op.table!r}: table entries are "
                "control-plane only"
            )
        elif isinstance(op, UpdateRows):
            for col, expr in op.assignments:
                if not _is_counter_bump(col, expr, op.table):
                    report.violations.append(
                        f"UPDATE {op.table}.{col}: only register-style "
                        "counter bumps are supported on the switch"
                    )
        elif isinstance(op, (FilterRows, Project, AssignVar)):
            for expr in _exprs_of(op):
                self._check_expr(expr, report)

    def _check_expr(self, expr: Expr, report: LegalityReport) -> None:
        for node in walk(expr):
            if isinstance(node, BinaryOp) and node.op in ("<", "<=", ">", ">="):
                if _side_is_string(node.left) or _side_is_string(node.right):
                    report.violations.append(
                        "string ordering comparison is not expressible in "
                        "match-action"
                    )

    # -- emission ------------------------------------------------------------

    def emit(self, element: ElementIR) -> CompiledArtifact:
        self._require_legal(element)
        lines: List[str] = [
            "// auto-generated by ADN compiler — P4-16 backend",
            f"// element: {element.name}",
            "#include <core.p4>",
            "#include <v1model.p4>",
            "",
            "header adn_hdr_t {",
        ]
        analysis = element.analysis
        fields = sorted(analysis.fields_read | analysis.fields_written)
        for field_name in fields:
            lines.append(f"    bit<64> {field_name};")
        lines.append("}")
        lines.append("")
        for decl in element.states:
            keys = [c for c in decl.columns if c.is_key]
            lines.append(f"table {decl.name}_t {{")
            lines.append("    key = {")
            for key in keys:
                lines.append(f"        hdr.adn.{key.name}: exact;")
            lines.append("    }")
            lines.append(
                f"    actions = {{ {decl.name}_hit; adn_miss; }}"
            )
            lines.append("    size = 65536;")
            lines.append("}")
        for var in element.vars:
            lines.append(
                f"register<bit<64>>(1) reg_{var.name};"
            )
        lines.append("")
        lines.append(f"control {element.name}Ingress(inout headers hdr,")
        lines.append("                  inout metadata meta,")
        lines.append(
            "                  inout standard_metadata_t standard_metadata) {"
        )
        lines.append("    apply {")
        for kind, handler in sorted(element.handlers.items()):
            lines.append(f"        // on {kind}")
            lines.append(
                f"        if (hdr.adn.kind == ADN_{kind.upper()}) {{"
            )
            for stmt in handler.statements:
                for op in stmt.ops:
                    if isinstance(op, JoinState):
                        lines.append(
                            f"            {op.table}_t.apply();"
                        )
                    elif isinstance(op, FilterRows):
                        lines.append(
                            "            if (!("
                            + _p4_expr(op.predicate)
                            + ")) { mark_to_drop(standard_metadata); return; }"
                        )
                    elif isinstance(op, Project):
                        for name, expr in op.items:
                            lines.append(
                                f"            hdr.adn.{name} = "
                                f"{_p4_expr(expr)};"
                            )
                    elif isinstance(op, UpdateRows):
                        for col, _expr in op.assignments:
                            lines.append(
                                f"            reg_{op.table}_{col}.read(tmp, idx);"
                            )
                            lines.append(
                                f"            reg_{op.table}_{col}.write(idx, tmp + 1);"
                            )
                    elif isinstance(op, AssignVar):
                        lines.append(
                            f"            reg_{op.var}.write(0, "
                            f"{_p4_expr(op.expr)});"
                        )
            lines.append("        }")
        lines.append("    }")
        lines.append("}")
        source = "\n".join(lines) + "\n"
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


def _exprs_of(op) -> List[Expr]:
    if isinstance(op, FilterRows):
        return [op.predicate]
    if isinstance(op, Project):
        return [expr for _, expr in op.items]
    if isinstance(op, AssignVar):
        exprs = [op.expr]
        if op.where is not None:
            exprs.append(op.where)
        return exprs
    return []


def _side_is_string(expr: Expr) -> bool:
    return isinstance(expr, Literal) and isinstance(expr.value, str)


def _is_counter_bump(col: str, expr: Expr, table: str) -> bool:
    """col = col + <numeric literal or simple numeric expr>."""
    if not isinstance(expr, BinaryOp) or expr.op not in ("+", "-"):
        return False
    base = expr.left
    return (
        isinstance(base, ColumnRef)
        and base.name == col
        and base.table in (table, None)
    )


def _p4_expr(expr: Expr) -> str:
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            return "1w1" if expr.value else "1w0"
        if isinstance(expr.value, float):
            return f"64w{int(expr.value * (1 << 32))} /* Q32.32 */"
        if isinstance(expr.value, str):
            return f"ADN_STR({expr.value!r})"
        return f"64w{expr.value}"
    if isinstance(expr, VarRef):
        return f"meta.{expr.name}"
    if isinstance(expr, ColumnRef):
        if expr.table in (None, "input"):
            return f"hdr.adn.{expr.name}"
        return f"meta.{expr.table}_{expr.name}"
    if isinstance(expr, FuncCall):
        args = ", ".join(_p4_expr(a) for a in expr.args if not _is_table_ref(a))
        mapped = {
            "hash": "crc32",
            "rand": "adn_random",
            "now": "standard_metadata.ingress_global_timestamp",
        }.get(expr.name, expr.name)
        if expr.name == "now":
            return mapped
        if expr.name == "count":
            table = expr.args[0]
            assert isinstance(table, ColumnRef)
            return f"meta.{table.name}_count"
        if expr.name == "contains":
            table = expr.args[0]
            assert isinstance(table, ColumnRef)
            return f"meta.{table.name}_hit"
        return f"{mapped}({args})"
    if isinstance(expr, BinaryOp):
        op = {"and": "&&", "or": "||"}.get(expr.op, expr.op)
        return f"({_p4_expr(expr.left)} {op} {_p4_expr(expr.right)})"
    if isinstance(expr, UnaryOp):
        op = "!" if expr.op == "not" else expr.op
        return f"({op}{_p4_expr(expr.operand)})"
    return "/* case */ 64w0"


def _is_table_ref(expr: Expr) -> bool:
    return isinstance(expr, ColumnRef) and expr.table is None
