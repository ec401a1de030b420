"""The lint engine: parse → validate → lower → run rules.

Front-end failures become diagnostics instead of exceptions:

* a :class:`~repro.errors.DslSyntaxError` yields one ``ADN101`` and
  stops (nothing else is trustworthy after a parse failure);
* each element/filter/app is validated *individually*, so one invalid
  element yields an ``ADN102`` while the rest of the file still gets the
  full rule battery.

Deeper rules run over the lowered IR and its analyses — the same
analyses the optimizer and placement solver consume, so lint findings
and compiler behaviour can't drift apart. An element is analyzed only
when a rule asks for its analysis (:meth:`LintContext.analysis`).

One run (:func:`lint_sources`) takes each stdlib definition through the
front end once. A ``<stdlib:NAME>`` entry is linted over the definition
:func:`~repro.dsl.stdlib.load_stdlib` parsed from the concatenated
stdlib text, validated once under the run's schema, and its findings
move back to the entry's own lines. Each stdlib element is lowered
once, for its entry and every file chain that references it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Collection, Dict, Iterable, List, Optional, Tuple

from ..control.placement import ClusterSpec
from ..dsl.ast_nodes import ElementDef, FilterDef, Program
from ..dsl.functions import DEFAULT_REGISTRY, FunctionRegistry
from ..dsl.parser import parse
from ..dsl.schema import RpcSchema
from ..dsl.span import Span
from ..dsl.stdlib import (
    STDLIB_SOURCES,
    load_stdlib,
    parsed_stdlib,
    stdlib_first_lines,
)
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
    #: names defined in this file (rules report only on these, but may
    #: consult stdlib analyses for cross-element checks)
    own_elements: List[str] = field(default_factory=list)
    own_apps: List[str] = field(default_factory=list)
    #: scratch space for rules that share an expensive computation (e.g.
    #: the ADN5xx family runs the abstract interpreter once, not 5 times)
    cache: Dict[str, object] = field(default_factory=dict)
    _analyses: Dict[str, ElementAnalysis] = field(
        default_factory=dict, repr=False
    )

    def analysis(self, name: str) -> Optional[ElementAnalysis]:
        """The analysis of ``irs[name]``, or None when ``name`` has no IR
        here. Computed on first use, so a run whose rules read no
        analysis analyzes nothing."""
        ir = self.irs.get(name)
        if ir is None:
            return None
        if name not in self._analyses:
            self._analyses[name] = analyze_element(ir, self.registry)
        return self._analyses[name]

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
    rules: Optional[Collection[str]] = None,
    stdlib_entries: Iterable[str] = (),
) -> List[LintResult]:
    """Lint each ``(path, source)`` pair, in order, then each stdlib
    entry named in ``stdlib_entries`` as ``<stdlib:NAME>``, in one run
    that loads the stdlib once. An item may carry a third member, the
    source's already-parsed :class:`Program`, so it is not parsed again.

    ``rules`` holds the codes of the rules to run (default: every
    registered rule); front-end findings (ADN101/ADN102) are reported
    whatever it holds. An entry finds what linting its own text finds,
    at the same positions, but its definitions come from the run's
    stdlib: parsed once for the process, validated once per schema when
    the whole stdlib validates, and lowered once per run."""
    stdlib_entries = list(stdlib_entries)
    run = _Run(options or LintOptions(), rules, bool(stdlib_entries))
    results = [run.lint(*item) for item in items]
    results.extend(run.lint_entry(name) for name in stdlib_entries)
    return results


class _Run:
    """What the sources of one lint run share: the stdlib, and each
    stdlib element validated under the run's schema and lowered, at most
    once."""

    def __init__(self, options: LintOptions, rules, entries: bool) -> None:
        self.options = options
        self.rules = rules
        self.registry = options.registry or DEFAULT_REGISTRY
        #: the whole stdlib validated under the run's schema and registry
        #: (None when a definition fails there, or nothing needs it)
        self.validated: Optional[Program] = None
        if options.include_stdlib or entries:
            try:
                self.validated = load_stdlib(
                    schema=options.schema, registry=options.registry
                )
            except DslValidationError:
                pass
        #: what chains resolve against: under no schema when a stdlib
        #: definition fails under the run's
        self.stdlib = Program()
        if options.include_stdlib:
            self.stdlib = (
                self.validated if self.validated is not None
                else load_stdlib()
            )
        self._lowered: Dict[str, Optional[Tuple[ElementDef, ElementIR]]] = {}
        #: the line of the concatenated stdlib text each entry starts on
        self.first_lines = stdlib_first_lines(*STDLIB_SOURCES)

    @cached_property
    def parsed(self) -> Program:
        """:func:`parsed_stdlib`, asked once per run (never mutate it)."""
        return parsed_stdlib()

    def stdlib_element(
        self, name: str
    ) -> Optional[Tuple[ElementDef, ElementIR]]:
        """The stdlib element ``name`` validated under the run's schema
        and registry, and its IR; None when it fails validation."""
        if name not in self._lowered:
            lowered = None
            try:
                element = (
                    self.validated.elements[name]
                    if self.validated is not None
                    else validate_element(
                        self.parsed.elements[name],
                        self.options.schema,
                        self.registry,
                    )
                )
                lowered = element, build_element_ir(element)
            except DslValidationError:
                pass
            self._lowered[name] = lowered
        return self._lowered[name]

    def context(
        self, path: str, source: str, program: Program
    ) -> LintContext:
        return LintContext(
            path=path,
            source=source,
            options=self.options,
            registry=self.registry,
            program=program,
            stdlib=self.stdlib,
            own_elements=list(program.elements),
            own_apps=list(program.apps),
        )

    def finish(self, context: LintContext, result: LintResult) -> LintResult:
        result.diagnostics.extend(run_rules(context, self.rules))
        result.diagnostics.sort(key=sort_key)
        return result

    def lint(
        self, path: str, source: str, program: Optional[Program] = None
    ) -> LintResult:
        """One source, parsed (unless ``program`` is its parse),
        validated and lowered here."""
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
                        fix="fix the syntax error; later rules need a "
                        "parse tree",
                    )
                )
                return result
        context = self.context(path, source, program)
        _validate_front_end(context, result)
        self._lower(context)
        return self.finish(context, result)

    def _lower(self, context: LintContext) -> None:
        """Lower valid own elements, and take the run's IR of each
        stdlib element the file's chains reference (cross-element rules
        need both sides)."""
        for name, element in context.elements.items():
            context.irs[name] = build_element_ir(element)
        for app in context.program.apps.values():
            for chain in app.chains:
                for name in chain.elements:
                    if name in context.irs:
                        continue
                    if name not in context.stdlib.elements:
                        continue  # a filter, or an unknown name (ADN102)
                    lowered = self.stdlib_element(name)
                    if lowered is not None:
                        context.irs[name] = lowered[1]

    def lint_entry(self, name: str) -> LintResult:
        """The stdlib entry ``name`` as ``<stdlib:NAME>``, over the
        run's stdlib definition, with findings moved to the entry's own
        lines. A definition that fails validation is linted from the
        entry's own text instead: its ADN102 message embeds the
        position."""
        path, source = f"<stdlib:{name}>", STDLIB_SOURCES[name]
        parsed = self.parsed
        if name in parsed.elements:
            context = self.context(
                path, source, Program(elements={name: parsed.elements[name]})
            )
            lowered = self.stdlib_element(name)
            if lowered is None:
                return self.lint(path, source)
            context.elements[name], context.irs[name] = lowered
        else:
            filter_def = parsed.filters[name]
            context = self.context(
                path, source, Program(filters={name: filter_def})
            )
            try:
                context.filters[name] = (
                    self.validated.filters[name]
                    if self.validated is not None
                    else validate_filter(filter_def)
                )
            except DslValidationError:
                return self.lint(path, source)
        result = self.finish(context, LintResult(path=path))
        lines = self.first_lines[name] - 1
        result.diagnostics = [_moved(d, lines) for d in result.diagnostics]
        return result


def _moved(diagnostic: Diagnostic, lines: int) -> Diagnostic:
    """``diagnostic`` with its span ``lines`` lines earlier."""
    span = diagnostic.span
    if span is None or not lines:
        return diagnostic
    return replace(diagnostic, span=Span(span.line - lines, span.column))


def lint_file(path: str, options: Optional[LintOptions] = None) -> LintResult:
    """Lint one ``.adn`` file."""
    with open(path) as handle:
        source = handle.read()
    return lint_source(source, path=path, options=options)


# -- front-end capture ----------------------------------------------------


def _error_span(error) -> Optional[Span]:
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
