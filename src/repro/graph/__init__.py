"""Service-graph layer (repro.graph): multi-service application graphs.

The paper's prototype (and this repo's first five PRs) runs one element
chain between one caller and one callee. Real applications — the ones
ADN's "application-defined" pitch is about — are *graphs* of services,
each RPC edge carrying its own chain. This package is that layer:

* :mod:`.model` — :class:`ServiceGraph`: services, edges, per-edge
  chains and reliability profiles; builder, JSON topology specs, DAG
  validation;
* :mod:`.placement` — assign services to machines, then run the
  existing per-chain placement solver per edge under the shared hosts;
* :mod:`.runtime` — :class:`GraphRuntime`: one ADN hop per edge,
  composed so deadline budgets and priorities propagate through
  fan-out and failures surface with their class intact;
* :mod:`.workload` — :class:`MeshWorkload`: the shared open-loop
  driver with a diurnal rate, Zipf-skewed users (millions, O(1) per
  draw) and a priority mix;
* :mod:`.scenario` — bookinfo and a 12-service hotel mesh, plus
  :func:`run_graph_scenario` wiring workload + faults + overload
  control end to end.
"""

from .lint import (
    check_control_plane_single_point,
    check_deadline_propagation,
    spec_cluster_block,
)
from .model import EdgeSpec, GraphBuilder, ServiceGraph, ServiceSpec
from .placement import (
    GraphPlacement,
    MachineSpec,
    assign_service_machines,
    default_machine_pool,
    solve_graph_placement,
)
from .runtime import EdgeStats, GraphRuntime, build_graph_cluster
from .scenario import (
    MESH_SCHEMA,
    GraphScenarioResult,
    bookinfo_graph,
    hotel_mesh_graph,
    mesh_program,
    run_graph_scenario,
)
from .workload import MeshWorkload, MeshWorkloadConfig, ZipfSampler

__all__ = [
    "EdgeSpec",
    "EdgeStats",
    "GraphBuilder",
    "GraphPlacement",
    "GraphRuntime",
    "GraphScenarioResult",
    "MESH_SCHEMA",
    "MachineSpec",
    "MeshWorkload",
    "MeshWorkloadConfig",
    "ServiceGraph",
    "ServiceSpec",
    "ZipfSampler",
    "assign_service_machines",
    "bookinfo_graph",
    "build_graph_cluster",
    "check_control_plane_single_point",
    "check_deadline_propagation",
    "default_machine_pool",
    "hotel_mesh_graph",
    "mesh_program",
    "run_graph_scenario",
    "solve_graph_placement",
    "spec_cluster_block",
]
