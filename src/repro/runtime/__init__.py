"""Data-plane runtime: RPC messages, placed processors, and the
ADN-over-mRPC path."""

from .message import (
    RpcOutcome,
    Row,
    is_aborted,
    make_abort,
    make_request,
    make_response,
    payload_bytes,
    reset_rpc_ids,
)
from .filters import (
    RetryPolicy,
    RetryStats,
    apply_filter,
    apply_filters,
    wrap_retry_policy,
    wrap_circuit_breaker,
    wrap_congestion_control,
    wrap_rate_shaper,
    wrap_retry,
    wrap_timeout,
)
from .gateway import (
    EgressGateway,
    IngressGateway,
    PeeringReport,
    downshift_transfer,
    peer_translate,
    peering_savings,
)
from .mrpc import AdnMrpcStack, default_plan
from .telemetry import ProcessorReport, TelemetryCollector, TelemetryStore
from .processor import ProcessorRuntime, SegmentResult

__all__ = [
    "AdnMrpcStack",
    "ProcessorRuntime",
    "RpcOutcome",
    "Row",
    "SegmentResult",
    "apply_filter",
    "apply_filters",
    "default_plan",
    "downshift_transfer",
    "EgressGateway",
    "IngressGateway",
    "PeeringReport",
    "peer_translate",
    "peering_savings",
    "ProcessorReport",
    "RetryPolicy",
    "RetryStats",
    "TelemetryCollector",
    "TelemetryStore",
    "wrap_circuit_breaker",
    "wrap_congestion_control",
    "wrap_rate_shaper",
    "wrap_retry",
    "wrap_retry_policy",
    "wrap_timeout",
    "is_aborted",
    "make_abort",
    "make_request",
    "make_response",
    "payload_bytes",
    "reset_rpc_ids",
]
