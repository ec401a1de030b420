"""RPC message model.

An RPC is a tuple of named fields (paper §5.1). At runtime we represent
it as a plain dict (what elements process) plus helpers to construct
requests/responses and compute sizes. Meta-fields (src, dst, rpc_id,
method, kind, status) are always present; application fields come from
the app's :class:`~repro.dsl.schema.RpcSchema`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from ..dsl.schema import RpcSchema

Row = Dict[str, object]

_rpc_ids: Iterator[int] = itertools.count(1)


def reset_rpc_ids() -> None:
    """Restart the id sequence (call between independent experiments so
    runs are reproducible)."""
    global _rpc_ids
    _rpc_ids = itertools.count(1)


def make_request(
    schema: RpcSchema,
    src: str,
    dst: str,
    method: str = "call",
    rpc_id: Optional[int] = None,
    **app_fields: object,
) -> Row:
    """Build a request tuple, validating application fields."""
    schema.validate_message_fields(app_fields.items())
    request: Row = {
        "src": src,
        "dst": dst,
        "rpc_id": next(_rpc_ids) if rpc_id is None else rpc_id,
        "method": method,
        "kind": "request",
        "status": "ok",
    }
    for name in schema.application_field_names():
        request[name] = app_fields.get(name)
    return request


def make_response(request: Row, **app_fields: object) -> Row:
    """Build the success response to ``request`` (src/dst swapped)."""
    response: Row = dict(request)
    response.update(app_fields)
    response["src"] = request["dst"]
    response["dst"] = request["src"]
    response["kind"] = "response"
    response["status"] = "ok"
    return response


def make_abort(request: Row, element: str) -> Row:
    """The error response generated when ``element`` dropped the request."""
    response: Row = dict(request)
    response["src"] = request["dst"]
    response["dst"] = request["src"]
    response["kind"] = "response"
    response["status"] = f"aborted:{element}"
    response["payload"] = b"" if "payload" in response else response.get("payload")
    return response


def is_aborted(message: Row) -> bool:
    return str(message.get("status", "")).startswith("aborted")


def payload_bytes(message: Row) -> int:
    """Size of the payload field, if any."""
    payload = message.get("payload")
    if isinstance(payload, (bytes, str)):
        return len(payload)
    return 0


@dataclass
class RpcOutcome:
    """What the client observes for one RPC."""

    request: Row
    response: Row
    issued_at: float
    completed_at: float
    aborted_by: str = ""
    mirrored: int = 0

    @classmethod
    def client_abort(
        cls, request: Row, reason: str, issued_at: float, completed_at: float
    ) -> "RpcOutcome":
        """An abort the client side answers itself, with no response
        from the path (a timeout, an open circuit breaker)."""
        return cls(
            request=dict(request),
            response={"status": f"aborted:{reason}", "kind": "response"},
            issued_at=issued_at,
            completed_at=completed_at,
            aborted_by=reason,
        )

    @property
    def latency_s(self) -> float:
        return self.completed_at - self.issued_at

    @property
    def ok(self) -> bool:
        return not self.aborted_by
