"""Discrete-event simulation substrate: engine, resources, cluster,
cost model, workload generators, and metrics."""

from .cluster import Cluster, Machine, Switch, two_machine_cluster
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .engine import MS, US, AllOf, AnyOf, Event, Process, Simulator, Timeout
from .metrics import LatencySeries, RunMetrics
from .resources import Resource, ResourceGroup, Store
from .workload import ClosedLoopClient, OpenLoopClient

__all__ = [
    "AllOf",
    "AnyOf",
    "ClosedLoopClient",
    "Cluster",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Event",
    "LatencySeries",
    "MS",
    "Machine",
    "OpenLoopClient",
    "Process",
    "Resource",
    "ResourceGroup",
    "RunMetrics",
    "Simulator",
    "Store",
    "Switch",
    "Timeout",
    "US",
    "two_machine_cluster",
]
