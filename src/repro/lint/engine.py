"""The lint engine: parse → validate → analyze → run rules.

Front-end failures become diagnostics instead of exceptions:

* a :class:`~repro.errors.DslSyntaxError` yields one ``ADN101`` and
  stops (nothing else is trustworthy after a parse failure);
* each element/filter/app is validated *individually*, so one invalid
  element yields an ``ADN102`` while the rest of the file still gets the
  full rule battery.

Deeper rules run over the lowered IR and its analyses — the same
analyses the optimizer and placement solver consume, so lint findings
and compiler behaviour can't drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..control.placement import ClusterSpec
from ..dsl.ast_nodes import ElementDef, FilterDef, Program
from ..dsl.functions import DEFAULT_REGISTRY, FunctionRegistry
from ..dsl.parser import parse
from ..dsl.schema import RpcSchema
from ..dsl.stdlib import load_stdlib
from ..dsl.validator import validate_app, validate_element, validate_filter
from ..errors import DslSyntaxError, DslValidationError
from ..ir.analysis import ElementAnalysis, analyze_element
from ..ir.builder import build_element_ir
from ..ir.nodes import ElementIR
from .diagnostics import Diagnostic, Severity, sort_key
from .registry import run_rules


@dataclass
class LintOptions:
    """Knobs for one lint run."""

    schema: Optional[RpcSchema] = None  # None = open schema
    registry: Optional[FunctionRegistry] = None
    include_stdlib: bool = True  # resolve chain references via stdlib
    cluster: ClusterSpec = field(default_factory=ClusterSpec)


@dataclass
class LintContext:
    """Everything a rule may consult, prepared once per file."""

    path: str
    source: str
    options: LintOptions
    registry: FunctionRegistry
    #: the parsed program (own definitions only, unvalidated)
    program: Program
    #: the validated stdlib chains resolve against, loaded once per lint
    #: run (empty when ``options.include_stdlib`` is off)
    stdlib: Program
    #: own definitions that passed validation, by name
    elements: Dict[str, ElementDef] = field(default_factory=dict)
    filters: Dict[str, FilterDef] = field(default_factory=dict)
    #: lowered IR for every valid element (own + chain-referenced stdlib)
    irs: Dict[str, ElementIR] = field(default_factory=dict)
    #: analyses (with ``replication`` attached) for every IR above
    analyses: Dict[str, ElementAnalysis] = field(default_factory=dict)
    #: names defined in this file (rules report only on these, but may
    #: consult stdlib analyses for cross-element checks)
    own_elements: List[str] = field(default_factory=list)
    own_apps: List[str] = field(default_factory=list)
    #: scratch space for rules that share an expensive computation (e.g.
    #: the ADN5xx family runs the abstract interpreter once, not 5 times)
    cache: Dict[str, object] = field(default_factory=dict)

    def diag(
        self,
        code: str,
        severity: Severity,
        message: str,
        span=None,
        element: str = "",
        fix: str = "",
    ) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=severity,
            message=message,
            path=self.path,
            span=span,
            element=element,
            fix=fix,
        )


@dataclass
class LintResult:
    """All findings for one file, sorted by position."""

    path: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def worst_rank(self) -> int:
        return max((d.severity.rank for d in self.diagnostics), default=0)

    def fails(self, threshold: Severity) -> bool:
        return self.worst_rank() >= threshold.rank


def lint_source(
    source: str,
    path: str = "<string>",
    options: Optional[LintOptions] = None,
) -> LintResult:
    """Lint one DSL source text."""
    return lint_sources([(path, source)], options)[0]


def lint_sources(
    items: Iterable[tuple],
    options: Optional[LintOptions] = None,
) -> List[LintResult]:
    """Lint each ``(path, source)`` pair, in order, against one stdlib
    loaded once for the whole run. An item may carry a third member,
    the source's already-parsed :class:`Program`, so it is not parsed
    again."""
    options = options or LintOptions()
    stdlib = load_stdlib() if options.include_stdlib else Program()
    return [_lint(options, stdlib, *item) for item in items]


def _lint(
    options: LintOptions,
    stdlib: Program,
    path: str,
    source: str,
    program: Optional[Program] = None,
) -> LintResult:
    registry = options.registry or DEFAULT_REGISTRY
    result = LintResult(path=path)
    if program is None:
        try:
            program = parse(source)
        except DslSyntaxError as error:
            result.diagnostics.append(
                Diagnostic(
                    code="ADN101",
                    severity=Severity.ERROR,
                    message=str(error),
                    path=path,
                    span=_error_span(error),
                    fix="fix the syntax error; later rules need a parse tree",
                )
            )
            return result

    context = LintContext(
        path=path,
        source=source,
        options=options,
        registry=registry,
        program=program,
        stdlib=stdlib,
        own_elements=list(program.elements),
        own_apps=list(program.apps),
    )
    _validate_front_end(context, result)
    _build_analyses(context)
    result.diagnostics.extend(run_rules(context))
    result.diagnostics.sort(key=sort_key)
    return result


def lint_file(path: str, options: Optional[LintOptions] = None) -> LintResult:
    """Lint one ``.adn`` file."""
    with open(path) as handle:
        source = handle.read()
    return lint_source(source, path=path, options=options)


# -- front-end capture ----------------------------------------------------


def _error_span(error) -> Optional[object]:
    from ..dsl.span import Span

    line = getattr(error, "line", 0)
    if line > 0:
        return Span(line, getattr(error, "column", 0))
    return None


def _validate_front_end(context: LintContext, result: LintResult) -> None:
    """Validate each definition on its own; failures become ADN102."""
    options = context.options
    for name, element in context.program.elements.items():
        try:
            context.elements[name] = validate_element(
                element, options.schema, context.registry
            )
        except DslValidationError as error:
            result.diagnostics.append(
                context.diag(
                    "ADN102",
                    Severity.ERROR,
                    str(error),
                    span=_error_span(error),
                    element=name,
                    fix="resolve the validation error; deeper analyses "
                    "skip this element until it validates",
                )
            )
    for name, filter_def in context.program.filters.items():
        try:
            context.filters[name] = validate_filter(filter_def)
        except DslValidationError as error:
            result.diagnostics.append(
                context.diag(
                    "ADN102",
                    Severity.ERROR,
                    str(error),
                    span=_error_span(error),
                    element=name,
                )
            )
    # apps are validated against the stdlib-merged namespace so chains
    # may reference stdlib elements without redefining them
    resolution = context.stdlib.merged(
        Program(elements=context.elements, filters=context.filters)
    )
    for name, app in context.program.apps.items():
        try:
            validate_app(app, resolution)
        except DslValidationError as error:
            result.diagnostics.append(
                context.diag(
                    "ADN102",
                    Severity.ERROR,
                    str(error),
                    span=_error_span(error),
                    element=name,
                )
            )


def _build_analyses(context: LintContext) -> None:
    """Lower and analyze valid own elements plus any stdlib elements the
    file's chains reference (cross-element rules need both sides)."""
    referenced: List[str] = []
    for app in context.program.apps.values():
        for chain in app.chains:
            referenced.extend(chain.elements)
    for name in list(context.elements) + referenced:
        if name in context.irs:
            continue
        element = context.elements.get(name)
        if element is None:
            candidate = context.stdlib.elements.get(name)
            if candidate is None:
                continue  # unknown name: already an ADN102 on the app
            try:
                element = validate_element(
                    candidate, context.options.schema, context.registry
                )
            except DslValidationError:
                continue
        ir = build_element_ir(element)
        context.irs[name] = ir
        context.analyses[name] = analyze_element(ir, context.registry)
