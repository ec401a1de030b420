"""Optimizer entry point, built on the pass manager.

``optimize_chain`` runs the full chain pipeline — element passes
(constant folding, predicate pushdown), early-drop reordering,
dead-field elimination, cross-element fusion, parallel staging —
composed and reported by :class:`repro.ir.passmgr.PassManager`.
Every chain-level transform is guarded by :mod:`repro.ir.dependency`;
the resulting :class:`~repro.ir.nodes.ChainIR` carries the per-pass
:class:`~repro.ir.passmgr.PassReport` list so callers (the CLI's
``compile --explain``, benches, tests) can see exactly what ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..dsl.functions import DEFAULT_REGISTRY, FunctionRegistry
from .nodes import ChainIR, ElementIR
from .passmgr import PassManager


@dataclass
class OptimizerOptions:
    """Which passes to apply (benches toggle these for the ablation
    experiment). Fusion is opt-in: it trades per-element placement
    freedom for dispatch savings, a choice the caller makes."""

    constant_folding: bool = True
    predicate_pushdown: bool = True
    reorder: bool = True
    parallelize: bool = True
    dead_fields: bool = True
    fusion: bool = False
    #: run the translation validator after every pass, recording the
    #: verdict in each PassReport (compile --verify); needs a schema for
    #: the abstract/concolic checks to run
    verify: bool = False


@dataclass
class ChainContext:
    """Inputs to chain optimization beyond the elements themselves."""

    app: str = "app"
    src: str = "client"
    dst: str = "server"
    #: (first, second) ordering constraints from the app spec
    pinned_pairs: Tuple[Tuple[str, str], ...] = ()
    registry: FunctionRegistry = field(default_factory=lambda: DEFAULT_REGISTRY)
    #: the app's RpcSchema; required for dead-field elimination (its
    #: fields are always live), None skips that pass
    schema: Optional[object] = None


def optimize_chain(
    elements: Sequence[ElementIR],
    context: Optional[ChainContext] = None,
    options: Optional[OptimizerOptions] = None,
    manager: Optional[PassManager] = None,
) -> ChainIR:
    """Optimize an ordered element chain into a :class:`ChainIR`."""
    context = context or ChainContext()
    options = options or OptimizerOptions()
    manager = manager or PassManager()
    state, reports = manager.run(elements, context, options)
    return ChainIR(
        app=context.app,
        src=context.src,
        dst=context.dst,
        elements=tuple(state.elements),
        stages=state.stages,
        reordered=state.reordered,
        pass_reports=tuple(reports),
    )
