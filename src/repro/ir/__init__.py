"""Intermediate representation: lowering, analysis, interpretation,
dependency analysis, and optimization passes."""

from .analysis import ElementAnalysis, HandlerAnalysis, analyze_element
from .builder import build_element_ir
from .interp import ElementInstance
from .nodes import ChainIR, ElementIR, HandlerIR, StatementIR

__all__ = [
    "ChainIR",
    "ElementAnalysis",
    "ElementIR",
    "ElementInstance",
    "HandlerAnalysis",
    "HandlerIR",
    "StatementIR",
    "analyze_element",
    "build_element_ir",
]

from .dependency import CommuteVerdict, can_parallelize, commute, ordering_violations
from .optimizer import ChainContext, OptimizerOptions, optimize_chain

__all__ += [
    "ChainContext",
    "CommuteVerdict",
    "OptimizerOptions",
    "can_parallelize",
    "commute",
    "optimize_chain",
    "ordering_violations",
]
