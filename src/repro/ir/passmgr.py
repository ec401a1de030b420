"""Pass manager: registered IR passes, pipelines, per-pass diagnostics.

The optimizer is structured the way the paper's compiler (and any query
optimizer) is: a pipeline of registered passes over the IR, each pass
reporting what it did (IR size before/after, rewrites applied, wall
time) and re-checking its own legality obligation after running. The
pipeline for a compilation is selected by
:class:`~repro.ir.optimizer.OptimizerOptions`; a disabled pass still
appears in the report, marked skipped, so ablation output is
positionally stable.

Pass levels:

* ``element`` — rewrites statement pipelines inside each element
  independently (constant folding, predicate pushdown);
* ``chain`` — rearranges or merges whole elements (early-drop
  reordering, dead-field elimination, cross-element fusion,
  parallelization grouping).

Ordering of the default pipeline matters: element-local cleanups first;
reordering next so positions are final; dead-field elimination on the
final order (liveness is positional); fusion after dead-field
elimination so the liveness computation sees per-member granularity;
parallelization last, over the fused chain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.span import Span
from .analysis import ElementAnalysis, analyze_element
from .dependency import can_parallelize, ordering_violations
from .expr_utils import op_count
from .nodes import ElementIR, StatementIR, op_exprs
from .passes import (
    eliminate_dead_fields,
    fold_constants_element,
    fuse_elements,
    parallel_stages,
    pushdown_element,
    reorder_for_early_drop,
)


@dataclass(frozen=True)
class PassReport:
    """What one pass did to one chain (or element set).

    When the pipeline runs with ``verify`` enabled, ``validated`` records
    the translation validator's verdict for this pass (None = validation
    not run or not applicable), ``verify_ms`` its cost, and on failure
    ``counterexample``/``counterexample_span`` describe the divergence.
    """

    name: str
    level: str  # "element" | "chain"
    ir_size_before: int
    ir_size_after: int
    rewrites: int
    wall_ms: float
    legality_ok: bool = True
    skipped: bool = False
    notes: Tuple[str, ...] = ()
    validated: Optional[bool] = None
    verify_ms: float = 0.0
    counterexample: str = ""
    counterexample_span: Optional[Span] = None

    @property
    def ir_delta(self) -> int:
        return self.ir_size_after - self.ir_size_before


@dataclass
class PassOutcome:
    """What a pass's ``run`` tells the manager."""

    rewrites: int = 0
    legality_ok: bool = True
    notes: Tuple[str, ...] = ()
    skipped: bool = False


@dataclass
class PipelineState:
    """Mutable chain state threaded through the pipeline."""

    elements: List[ElementIR]
    original_order: Tuple[str, ...]
    reordered: bool = False
    stages: Tuple[Tuple[str, ...], ...] = ()

    @property
    def order(self) -> List[str]:
        return [element.name for element in self.elements]

    def analyses(self) -> Dict[str, ElementAnalysis]:
        return {
            element.name: element.analysis  # type: ignore[misc]
            for element in self.elements
        }


class Pass:
    """Base class: a named, levelled IR transform with a report."""

    name: str = "<unnamed>"
    level: str = "chain"

    def enabled(self, options) -> bool:  # pragma: no cover - interface
        return True

    def run(self, state: PipelineState, context) -> PassOutcome:
        raise NotImplementedError


# -- IR size metric ------------------------------------------------------


def _statements_size(statements: Sequence[StatementIR]) -> int:
    total = 0
    for stmt in statements:
        total += len(stmt.ops)
        for op in stmt.ops:
            for expr in op_exprs(op):
                total += op_count(expr)
    return total


def element_ir_size(element: ElementIR) -> int:
    """IR nodes in one element: ops plus expression nodes."""
    total = _statements_size(element.init)
    for handler in element.handlers.values():
        total += _statements_size(handler.statements)
    return total


def chain_ir_size(elements: Sequence[ElementIR]) -> int:
    return sum(element_ir_size(element) for element in elements)


# -- concrete passes -----------------------------------------------------


class ConstantFoldingPass(Pass):
    name = "constant_folding"
    level = "element"

    def enabled(self, options) -> bool:
        return options.constant_folding

    def run(self, state: PipelineState, context) -> PassOutcome:
        rewrites = 0
        for index, element in enumerate(state.elements):
            folded = fold_constants_element(element, context.registry)
            if folded.handlers != element.handlers or folded.init != element.init:
                rewrites += 1
                analyze_element(folded, context.registry)
                state.elements[index] = folded
        return PassOutcome(rewrites=rewrites)


class PredicatePushdownPass(Pass):
    name = "predicate_pushdown"
    level = "element"

    def enabled(self, options) -> bool:
        return options.predicate_pushdown

    def run(self, state: PipelineState, context) -> PassOutcome:
        rewrites = 0
        for index, element in enumerate(state.elements):
            pushed = pushdown_element(element)
            if pushed.handlers != element.handlers:
                rewrites += 1
                analyze_element(pushed, context.registry)
                state.elements[index] = pushed
        return PassOutcome(rewrites=rewrites)


class ReorderPass(Pass):
    name = "reorder"
    level = "chain"

    def enabled(self, options) -> bool:
        return options.reorder

    def run(self, state: PipelineState, context) -> PassOutcome:
        analyses = state.analyses()
        before = state.order
        order, changed = reorder_for_early_drop(
            before, analyses, context.pinned_pairs
        )
        violations = ordering_violations(order, before, analyses)
        by_name = {element.name: element for element in state.elements}
        state.elements = [by_name[name] for name in order]
        state.reordered = state.reordered or changed
        moved = sum(1 for a, b in zip(before, order) if a != b)
        notes = tuple(violations) or (
            (f"order: {' -> '.join(order)}",) if changed else ()
        )
        return PassOutcome(
            rewrites=moved, legality_ok=not violations, notes=notes
        )


class DeadFieldPass(Pass):
    name = "dead_fields"
    level = "chain"

    def enabled(self, options) -> bool:
        return options.dead_fields

    def run(self, state: PipelineState, context) -> PassOutcome:
        schema = getattr(context, "schema", None)
        if schema is None:
            return PassOutcome(
                skipped=True, notes=("no app schema: liveness unknown",)
            )
        elements, removed = eliminate_dead_fields(
            state.elements, schema, context.registry
        )
        state.elements = list(elements)
        notes = tuple(
            f"{element}.{kind}: dropped dead field {name!r}"
            for element, kind, name in removed
        )
        return PassOutcome(
            rewrites=len(removed),
            legality_ok=self._recheck(state, removed),
            notes=notes,
        )

    @staticmethod
    def _recheck(state: PipelineState, removed) -> bool:
        """Re-verify liveness against the *post-pass* analyses: nothing
        downstream (its direction's traversal order) reads a removed
        field."""
        order = state.order
        position = {name: i for i, name in enumerate(order)}
        for element_name, kind, field_name in removed:
            index = position[element_name]
            if kind == "request":
                downstream = state.elements[index + 1 :]
                readers = [
                    e.analysis.handlers.get("request") for e in downstream
                ] + [
                    e.analysis.handlers.get("response") for e in state.elements
                ]
            else:
                downstream = state.elements[:index]
                readers = [
                    e.analysis.handlers.get("response") for e in downstream
                ]
            for handler in readers:
                if handler is not None and field_name in handler.fields_read:
                    return False
        return True


class FusionPass(Pass):
    name = "fuse_elements"
    level = "chain"

    def enabled(self, options) -> bool:
        return options.fusion

    def run(self, state: PipelineState, context) -> PassOutcome:
        elements, groups, refusals = fuse_elements(
            state.elements, context.pinned_pairs, context.registry
        )
        state.elements = list(elements)
        rewrites = sum(len(group) - 1 for group in groups)
        notes = [f"fused {' + '.join(group)}" for group in groups]
        notes.extend(refusals)
        legality_ok = all(
            element.analysis is not None and not element.analysis.can_multiply
            for element in state.elements
            if "fused_from" in element.meta
        )
        return PassOutcome(
            rewrites=rewrites, legality_ok=legality_ok, notes=tuple(notes)
        )


class ParallelizePass(Pass):
    name = "parallelize"
    level = "chain"

    def enabled(self, options) -> bool:
        return options.parallelize

    def run(self, state: PipelineState, context) -> PassOutcome:
        analyses = state.analyses()
        stages = parallel_stages(state.order, analyses)
        state.stages = stages
        grouped = sum(len(stage) for stage in stages if len(stage) > 1)
        legality_ok = all(
            bool(can_parallelize(analyses[a], analyses[b]))
            for stage in stages
            for i, a in enumerate(stage)
            for b in stage[i + 1 :]
        )
        notes = tuple(
            "stage: " + " | ".join(stage) for stage in stages if len(stage) > 1
        )
        return PassOutcome(rewrites=grouped, legality_ok=legality_ok, notes=notes)


# -- the manager ---------------------------------------------------------


def default_pipeline() -> List[Pass]:
    """The standard compilation pipeline, in order."""
    return [
        ConstantFoldingPass(),
        PredicatePushdownPass(),
        ReorderPass(),
        DeadFieldPass(),
        FusionPass(),
        ParallelizePass(),
    ]


@dataclass
class PassManager:
    """Runs a pipeline of passes over a chain, collecting reports."""

    passes: List[Pass] = field(default_factory=default_pipeline)

    def run(
        self,
        elements: Sequence[ElementIR],
        context,
        options,
    ) -> Tuple[PipelineState, List[PassReport]]:
        state = PipelineState(
            elements=list(elements),
            original_order=tuple(element.name for element in elements),
        )
        for element in state.elements:
            if element.analysis is None:
                analyze_element(element, context.registry)
        verify = bool(getattr(options, "verify", False))
        reports: List[PassReport] = []
        # each pipeline state's size and validation facts are computed
        # once: what one pass leaves is what the next one starts from
        size_before = chain_ir_size(state.elements)
        facts = None
        for pass_ in self.passes:
            if not pass_.enabled(options):
                reports.append(
                    PassReport(
                        name=pass_.name,
                        level=pass_.level,
                        ir_size_before=size_before,
                        ir_size_after=size_before,
                        rewrites=0,
                        wall_ms=0.0,
                        skipped=True,
                        notes=("disabled by options",),
                    )
                )
                continue
            snapshot = list(state.elements) if verify else []
            start = time.perf_counter()
            outcome = pass_.run(state, context)
            wall_ms = (time.perf_counter() - start) * 1000.0
            validated: Optional[bool] = None
            verify_ms = 0.0
            counterexample = ""
            counterexample_span = None
            notes = outcome.notes
            if verify and not outcome.skipped:
                from ..analysis.validate import validate_rewrite

                verify_start = time.perf_counter()
                verdict = validate_rewrite(
                    snapshot,
                    state.elements,
                    getattr(context, "schema", None),
                    context.registry,
                    pass_name=pass_.name,
                    stages=state.stages if pass_.name == "parallelize" else (),
                    facts=facts,
                )
                verify_ms = (time.perf_counter() - verify_start) * 1000.0
                facts = verdict.facts
                validated = verdict.ok
                counterexample = verdict.counterexample
                counterexample_span = verdict.span
                if verdict.counterexample:
                    notes = notes + (
                        f"VALIDATION FAILED: {verdict.counterexample}",
                    )
                elif verdict.notes:
                    notes = notes + verdict.notes
            size_after = chain_ir_size(state.elements)
            reports.append(
                PassReport(
                    name=pass_.name,
                    level=pass_.level,
                    ir_size_before=size_before,
                    ir_size_after=size_after,
                    rewrites=outcome.rewrites,
                    wall_ms=wall_ms,
                    legality_ok=outcome.legality_ok,
                    skipped=outcome.skipped,
                    notes=notes,
                    validated=validated,
                    verify_ms=verify_ms,
                    counterexample=counterexample,
                    counterexample_span=counterexample_span,
                )
            )
            size_before = size_after
        if not state.stages:
            state.stages = tuple((name,) for name in state.order)
        return state, reports


def format_report_table(reports: Sequence[PassReport]) -> str:
    """Render pass reports as the aligned table ``--explain`` prints.

    A ``verified`` column (verdict plus validator cost) appears only when
    at least one pass actually ran under ``--verify``."""
    verified = any(report.validated is not None for report in reports)
    headers = ("pass", "level", "ir before", "ir after", "rewrites", "ms", "legal")
    if verified:
        headers = headers + ("verified",)
    rows = [headers]
    for report in reports:
        row = (
            report.name,
            report.level,
            str(report.ir_size_before),
            "skipped" if report.skipped else str(report.ir_size_after),
            "-" if report.skipped else str(report.rewrites),
            "-" if report.skipped else f"{report.wall_ms:.2f}",
            "-" if report.skipped else ("ok" if report.legality_ok else "VIOLATED"),
        )
        if verified:
            if report.validated is None:
                row = row + ("-",)
            elif report.validated:
                row = row + (f"ok ({report.verify_ms:.2f}ms)",)
            else:
                row = row + ("FAILED",)
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    for report in reports:
        for note in report.notes:
            if not report.skipped:
                lines.append(f"    [{report.name}] {note}")
    return "\n".join(lines)
