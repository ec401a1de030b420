"""Semantic analyses over ElementIR (paper §5.2's correctness backstop).

Two consumers share the abstract machinery in :mod:`domains`:

* :mod:`typecheck` — an abstract interpreter that infers the type
  environment flowing through every handler statement and reports
  guaranteed-fault sites (the ``ADN5xx`` lint family);
* :mod:`validate` — a translation validator that checks each optimizer
  pass's output chain against its input chain, abstractly (type
  environments must agree) and concretely (differential execution on
  schema-derived exemplar messages via the reference interpreter).
"""

from .domains import TOP, AbstractValue, UNKNOWN, join
from .typecheck import (
    ChainTypeReport,
    TypeFinding,
    check_chain,
    check_element,
    env_from_schema,
)
from .validate import ValidationVerdict, validate_rewrite

__all__ = [
    "TOP",
    "UNKNOWN",
    "AbstractValue",
    "join",
    "TypeFinding",
    "ChainTypeReport",
    "check_chain",
    "check_element",
    "env_from_schema",
    "ValidationVerdict",
    "validate_rewrite",
    # interprocedural (service-graph) layer — imported from .graph by
    # consumers directly to keep this package importable without the
    # graph/compiler layers:
    #   analyze_graph, GraphAnalysis, GraphAnalysisOptions,
    #   eliminate_dead_fields_graph, GraphFieldPlan, compute_mesh_liveness,
    #   retry_amplification
]
