"""Exception hierarchy for the ADN reproduction.

Every error raised by the library derives from :class:`AdnError` so callers
can catch one type at the API boundary. Subpackages raise the most specific
subclass that applies.
"""

from __future__ import annotations


class AdnError(Exception):
    """Base class for all errors raised by this library."""


class DslSyntaxError(AdnError):
    """The DSL source text could not be tokenized or parsed.

    Carries the source position so tooling can point at the offending text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DslValidationError(AdnError):
    """The DSL parsed but is semantically invalid (unknown table, type
    mismatch, write to read-only table, duplicate element name, ...).

    Like :class:`DslSyntaxError`, carries the source position (1-based;
    0 means unknown) so tooling can point at the offending text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line > 0:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class CompileError(AdnError):
    """The compiler could not lower or optimize a program."""


class BackendError(CompileError):
    """A backend rejected an element (platform legality failure).

    ``reasons`` lists each constraint the element violates on the target
    platform, e.g. unbounded loops for eBPF or payload access for P4.
    """

    def __init__(self, message: str, reasons: list | None = None):
        super().__init__(message)
        self.reasons = list(reasons or [])


class TranslationValidationError(CompileError):
    """A compiler pass produced a chain the translation validator could
    not prove equivalent to its input.

    Carries the failing pass name, a human-readable counterexample
    (diverging message plus the first observable difference), and the
    source span of the rewritten statement nearest the divergence.
    """

    def __init__(
        self,
        message: str,
        pass_name: str = "",
        counterexample: str = "",
        span=None,
    ):
        super().__init__(message)
        self.pass_name = pass_name
        self.counterexample = counterexample
        self.span = span


class HeaderLayoutError(CompileError):
    """A wire-header layout violates a platform constraint (for example,
    a field needed by a switch element falls outside the 200-byte parse
    window of the P4 pipeline model)."""


class PlacementError(AdnError):
    """The placement solver could not satisfy all constraints with the
    available processors."""


class GraphError(AdnError):
    """A service-graph specification is invalid (unknown endpoint,
    cycle, duplicate edge, malformed topology file, ...)."""


class StateError(AdnError):
    """Invalid state-table operation (schema mismatch, bad merge/split,
    migrating a table that is not keyed, ...)."""


class SimulationError(AdnError):
    """The discrete-event simulator detected an inconsistency (event in
    the past, negative duration, resource misuse)."""


class SimulationTimeout(SimulationError):
    """``run_until_complete`` hit its limit before the process finished:
    the run was too short, not a fault in the simulated program."""


class RuntimeFault(AdnError):
    """A data-plane processor failed while executing an element.

    Carries the source span of the offending expression when known
    (``span`` is a :class:`repro.dsl.ast_nodes.Span` or None), so tooling
    can point at the exact DSL text that faulted.
    """

    def __init__(self, message: str, span=None):
        if span is not None and getattr(span, "line", 0) > 0:
            message = f"{message} (line {span.line}, column {span.column})"
        super().__init__(message)
        self.span = span


class ControlPlaneError(AdnError):
    """Cluster-manager or controller failure (unknown resource kind,
    conflicting update, reconfiguration protocol violation)."""


class StaleEpochError(ControlPlaneError):
    """A configuration push carried an epoch at or below the one the
    data plane already runs — a deposed or partitioned controller trying
    to apply a superseded plan. The fence rejects it so a waking old
    leader can never double-apply placement (split brain)."""


class RpcAborted(AdnError):
    """An RPC was aborted by the network (ACL denial, fault injection,
    admission control). Carries the element that aborted it."""

    def __init__(self, message: str, element: str = ""):
        super().__init__(message)
        self.element = element
