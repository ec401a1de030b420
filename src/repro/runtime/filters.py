"""Stream-shaping filter operators (paper §5.1).

"Another class of complex processing involves 'shaping' the RPC stream
via mechanisms such as timeouts, retries, and congestion control. We can
introduce special elements of type *filters* to express their
operation." Filters are declared in the DSL (``filter Retry { use
operator retry; }``) and bound to the platform-specific operators
implemented here. Each operator wraps the RPC call path:

* ``timeout`` — abort the caller's wait after a deadline (the in-flight
  work continues to consume resources, as in real systems);
* ``retry`` — re-issue on retryable aborts (injected faults, timeouts),
  up to a budget;
* ``rate_limit_shaper`` — pace issues to a target rate (leaky bucket);
* ``congestion_control`` — an AIMD window on in-flight RPCs.

Operators compose: ``apply_filters`` wraps the base call in declaration
order, so ``Retry`` outside ``Timeout`` retries timed-out attempts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from ..dsl.ast_nodes import FilterDef
from ..errors import RuntimeFault
from ..overload.budget import (
    CIRCUIT_OPEN,
    CircuitBreaker,
    CircuitBreakerPolicy,
    RetryBudget,
)
from ..sim.engine import Simulator
from .message import RpcOutcome

CallFn = Callable[..., Generator]

#: aborts considered transient (safe/useful to retry) by default.
#: Overload rejects (Shed, QueueFull, ...) are deliberately absent:
#: reflexively retrying an explicit shed is how retry storms start
DEFAULT_RETRYABLE = ("Fault", "Timeout")

#: additional attempts a ``retry`` filter makes when its meta sets no
#: ``max_retries`` (so 4 attempts per logical call)
DEFAULT_MAX_RETRIES = 3

#: outcomes a circuit breaker counts as downstream failure — silence
#: and explicit overload rejects, but not application-level aborts
#: (an ACL denial is the server working, not the server failing)
BREAKER_FAILURES = frozenset(
    {"Timeout", "DeadlineExceeded", "Shed", "QueueFull", "DeadlineExpired"}
)


class _TimeoutSentinel:
    """Marks the timer winning the race against the in-flight RPC."""


_TIMED_OUT = _TimeoutSentinel()


def wrap_timeout(sim: Simulator, call: CallFn, timeout_ms: float) -> CallFn:
    """Abort the caller's wait after ``timeout_ms``. The late response,
    if it ever arrives, is discarded (its resource usage still counts —
    timeouts do not refund work)."""
    timeout_s = timeout_ms * 1e-3

    def shaped(**fields) -> Generator:
        issued_at = sim.now
        in_flight = sim.process(call(**fields))
        timer = sim.timeout(timeout_s, value=_TIMED_OUT)
        winner = yield sim.any_of([in_flight, timer])
        if isinstance(winner, _TimeoutSentinel):
            return RpcOutcome.client_abort(
                fields, "Timeout", issued_at, sim.now
            )
        return winner

    return shaped


def wrap_retry(
    sim: Simulator,
    call: CallFn,
    max_retries: int,
    retry_on: Sequence[str] = DEFAULT_RETRYABLE,
    backoff_ms: float = 0.0,
    deadline_budget_ms: Optional[float] = None,
) -> CallFn:
    """Re-issue RPCs aborted by a retryable element, up to
    ``max_retries`` additional attempts with optional fixed backoff.
    With ``deadline_budget_ms`` the whole logical call (attempts and
    backoffs) is bounded: once the budget is spent, the outcome is
    returned as ``DeadlineExceeded`` instead of retrying further —
    without it, a blackholed downstream means unbounded retrying
    (lint ADN404 flags exactly this configuration)."""
    retryable = frozenset(retry_on)

    def shaped(**fields) -> Generator:
        attempts = 0
        deadline = (
            sim.now + deadline_budget_ms * 1e-3
            if deadline_budget_ms is not None
            else None
        )
        while True:
            outcome: RpcOutcome = yield sim.process(call(**fields))
            if outcome.ok or attempts >= max_retries:
                return outcome
            if outcome.aborted_by not in retryable:
                return outcome
            if deadline is not None and (
                sim.now + backoff_ms * 1e-3 >= deadline
            ):
                outcome.aborted_by = "DeadlineExceeded"
                outcome.response = {
                    "status": "aborted:DeadlineExceeded",
                    "kind": "response",
                }
                return outcome
            attempts += 1
            if backoff_ms > 0:
                yield backoff_ms * 1e-3

    return shaped


@dataclass(frozen=True)
class RetryPolicy:
    """A production-shaped retry budget (repro.faults): per-attempt
    timeout, capped exponential backoff with deterministic jitter, and
    an overall deadline budget per *logical* call.

    The per-attempt timeout is what makes fault injection survivable: an
    RPC blackholed by a crashed machine or a dropped frame never
    completes on its own — the timeout converts that silence into a
    retryable ``Timeout`` abort.
    """

    max_attempts: int = 4
    per_attempt_timeout_ms: float = 30.0
    base_backoff_ms: float = 1.0
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 50.0
    #: fraction of the backoff randomized (0 = none, 1 = ±50%); drawn
    #: from a policy-seeded RNG so runs replay exactly
    jitter: float = 0.5
    #: overall wall-clock budget for one logical call, all attempts and
    #: backoffs included; None = unbounded
    deadline_budget_ms: Optional[float] = None
    retry_on: Tuple[str, ...] = DEFAULT_RETRYABLE
    seed: int = 0

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff after ``attempt`` (1-based) failed attempts.

        The cap applies *after* jitter: the documented contract is that
        no sleep ever exceeds ``max_backoff_ms`` (jitter used to push it
        up to 25% past the cap).
        """
        raw = self.base_backoff_ms * (
            self.backoff_multiplier ** (attempt - 1)
        )
        capped = min(raw, self.max_backoff_ms)
        jittered = capped * (1.0 + self.jitter * (rng.random() - 0.5))
        bounded = min(max(0.0, jittered), self.max_backoff_ms)
        return bounded * 1e-3


@dataclass
class RetryStats:
    """Observability for one wrapped call path."""

    logical_calls: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    deadline_exceeded: int = 0
    backoff_s_total: float = 0.0
    #: retries forgone because the token-bucket retry budget was empty
    budget_exhausted: int = 0
    #: logical calls answered locally by an open circuit breaker
    short_circuited: int = 0

    def amplification(self) -> float:
        """Load amplification: attempts per logical call (1.0 = no
        retries; a retry storm shows up here before anywhere else)."""
        if self.logical_calls == 0:
            return 0.0
        return self.attempts / self.logical_calls


def wrap_retry_policy(
    sim: Simulator,
    call: CallFn,
    policy: RetryPolicy,
    stats: Optional[RetryStats] = None,
    budget: Optional[RetryBudget] = None,
    breaker: Optional[CircuitBreaker] = None,
    propagate_deadline: bool = False,
    sanitizer=None,
) -> CallFn:
    """Wrap ``call`` with a :class:`RetryPolicy`.

    Every attempt of one logical call carries the same ``rpc_id`` field
    (``AdnMrpcStack.call_raw`` issues its request under it), which is
    how the server side can count duplicate executions.

    Overload protection (repro.overload) layers on top:

    * ``budget`` — a :class:`~repro.overload.RetryBudget`; every retry
      must buy a token, and when the bucket runs dry the last failed
      outcome is returned as-is instead of amplifying the storm;
    * ``breaker`` — a :class:`~repro.overload.CircuitBreaker`; while it
      is open, logical calls are answered locally with ``CircuitOpen``
      at zero downstream cost, and half-open probes decide re-closing;
    * ``propagate_deadline`` — stamp the absolute deadline into the
      call's ``deadline_at`` field so a deadline-aware path (the ADN
      stack) can carry the remaining budget on the wire and drop
      expired RPCs before spending service time.
    """
    retryable = frozenset(policy.retry_on)
    rng = random.Random(policy.seed)
    ids = itertools.count(1_000_001)  # clear of make_request's sequence
    if stats is None:
        stats = RetryStats()

    def shaped(**fields) -> Generator:
        issued_at = sim.now
        stats.logical_calls += 1
        if budget is not None:
            budget.on_call()
        if breaker is not None and not breaker.allow():
            stats.short_circuited += 1
            return RpcOutcome.client_abort(
                fields, CIRCUIT_OPEN, issued_at, sim.now
            )
        fields.setdefault("rpc_id", next(ids))
        deadline = (
            issued_at + policy.deadline_budget_ms * 1e-3
            if policy.deadline_budget_ms is not None
            else None
        )
        # a caller-supplied absolute deadline (a graph parent's remaining
        # budget, see repro.graph) strictly bounds this hop: the child's
        # own budget can only tighten it, never extend it
        inherited = fields.get("deadline_at")
        if inherited is not None:
            deadline = (
                float(inherited)
                if deadline is None
                else min(deadline, float(inherited))
            )
        if propagate_deadline and deadline is not None:
            fields["deadline_at"] = deadline
        attempt = 0
        while True:
            attempt += 1
            stats.attempts += 1
            attempt_timeout = policy.per_attempt_timeout_ms * 1e-3
            if deadline is not None:
                attempt_timeout = min(attempt_timeout, deadline - sim.now)
            in_flight = sim.process(call(**fields))
            timer = sim.timeout(max(0.0, attempt_timeout), value=_TIMED_OUT)
            winner = yield sim.any_of([in_flight, timer])
            if isinstance(winner, _TimeoutSentinel):
                # the attempt is still parked somewhere (blackholed, or
                # just slow); the caller moves on — work is not refunded
                stats.timeouts += 1
                outcome = RpcOutcome.client_abort(
                    fields, "Timeout", issued_at, sim.now
                )
            else:
                outcome = winner
            if outcome.ok or attempt >= policy.max_attempts:
                return _finish(outcome)
            if outcome.aborted_by not in retryable:
                return _finish(outcome)
            backoff = policy.backoff_s(attempt, rng)
            if deadline is not None and sim.now + backoff >= deadline:
                stats.deadline_exceeded += 1
                outcome.aborted_by = "DeadlineExceeded"
                outcome.response = {
                    "status": "aborted:DeadlineExceeded",
                    "kind": "response",
                }
                return _finish(outcome)
            if budget is not None and not budget.try_spend():
                # budget exhausted: give up with the failure we have
                # rather than amplify offered load past the configured
                # retries-to-calls ratio
                stats.budget_exhausted += 1
                return _finish(outcome)
            stats.retries += 1
            if sanitizer is not None:
                # cross-check channel for the shadow state sanitizer: it
                # learns this rpc_id is about to re-execute (its attempt
                # counter at call_raw sees the duplicate independently)
                sanitizer.note_retry(fields.get("rpc_id"))
            if backoff > 0:
                stats.backoff_s_total += backoff
                yield backoff

    def _finish(outcome: RpcOutcome) -> RpcOutcome:
        if breaker is not None:
            failed = (not outcome.ok) and outcome.aborted_by in BREAKER_FAILURES
            breaker.record(not failed)
        return outcome

    shaped.policy = policy  # type: ignore[attr-defined]
    shaped.stats = stats  # type: ignore[attr-defined]
    shaped.budget = budget  # type: ignore[attr-defined]
    shaped.breaker = breaker  # type: ignore[attr-defined]
    return shaped


def wrap_rate_shaper(sim: Simulator, call: CallFn, rate_rps: float) -> CallFn:
    """Pace issues to at most ``rate_rps``: each issue reserves the next
    slot on a virtual clock (a leaky bucket with no burst)."""
    if rate_rps <= 0:
        raise RuntimeFault("rate_limit_shaper needs a positive rate")
    interval = 1.0 / rate_rps
    state = {"next_slot": 0.0}

    def shaped(**fields) -> Generator:
        slot = max(state["next_slot"], sim.now)
        state["next_slot"] = slot + interval
        if slot > sim.now:
            yield slot - sim.now
        outcome = yield sim.process(call(**fields))
        return outcome

    return shaped


class _AimdWindow:
    """Additive-increase / multiplicative-decrease in-flight window."""

    def __init__(self, sim: Simulator, initial: float = 4.0, floor: float = 1.0):
        self.sim = sim
        self.cwnd = initial
        self.floor = floor
        self.in_flight = 0
        self._waiters: List = []

    def acquire(self):
        event = self.sim.event()
        if self.in_flight < self.cwnd:
            self.in_flight += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self, ok: bool) -> None:
        if ok:
            self.cwnd += 1.0 / max(self.cwnd, 1.0)
        else:
            self.cwnd = max(self.floor, self.cwnd / 2.0)
        self.in_flight -= 1
        while self._waiters and self.in_flight < self.cwnd:
            self.in_flight += 1
            self._waiters.pop(0).succeed()


def wrap_congestion_control(
    sim: Simulator, call: CallFn, initial_window: float = 4.0
) -> CallFn:
    """Gate issues on an AIMD window: grow on success, halve on abort.
    Exposes the window object as ``shaped.window`` for observability."""
    window = _AimdWindow(sim, initial=initial_window)

    def shaped(**fields) -> Generator:
        yield window.acquire()
        try:
            outcome: RpcOutcome = yield sim.process(call(**fields))
        except BaseException:
            window.release(ok=False)
            raise
        window.release(ok=outcome.ok)
        return outcome

    shaped.window = window  # type: ignore[attr-defined]
    return shaped


def wrap_circuit_breaker(
    sim: Simulator,
    call: CallFn,
    failure_threshold: int = 5,
    reset_ms: float = 50.0,
) -> CallFn:
    """Short-circuit calls with a ``CircuitBreaker`` abort once
    ``failure_threshold`` calls in a row aborted (any abort counts);
    after ``reset_ms`` one probe goes through and its outcome re-closes
    or re-opens the breaker. It is the retry policy's
    :class:`~repro.overload.CircuitBreaker`, exposed as
    ``shaped.breaker``."""
    breaker = CircuitBreaker(
        sim,
        CircuitBreakerPolicy(
            failure_threshold=failure_threshold, open_ms=reset_ms
        ),
    )

    def shaped(**fields) -> Generator:
        if not breaker.allow():
            return RpcOutcome.client_abort(
                fields, "CircuitBreaker", sim.now, sim.now
            )
        outcome: RpcOutcome = yield sim.process(call(**fields))
        breaker.record(outcome.ok)
        return outcome

    shaped.breaker = breaker  # type: ignore[attr-defined]
    return shaped


def apply_filter(sim: Simulator, call: CallFn, filter_def: FilterDef) -> CallFn:
    """Wrap ``call`` with one declared filter."""
    meta = filter_def.meta
    operator = filter_def.operator
    if operator == "timeout":
        return wrap_timeout(sim, call, float(meta.get("timeout_ms", 25.0)))
    if operator == "retry":
        shaped = call
        timeout_ms = meta.get("timeout_ms")
        if timeout_ms is not None:
            # per-attempt deadline: the timeout sits inside the retry
            shaped = wrap_timeout(sim, shaped, float(timeout_ms))
        retry_on = meta.get("retry_on")
        retryable = (
            tuple(part.strip() for part in str(retry_on).split(","))
            if retry_on
            else DEFAULT_RETRYABLE
        )
        deadline_budget = meta.get("deadline_budget_ms")
        return wrap_retry(
            sim,
            shaped,
            max_retries=int(meta.get("max_retries", DEFAULT_MAX_RETRIES)),
            retry_on=retryable,
            backoff_ms=float(meta.get("backoff_ms", 0.0)),
            deadline_budget_ms=(
                float(deadline_budget) if deadline_budget is not None else None
            ),
        )
    if operator == "rate_limit_shaper":
        return wrap_rate_shaper(sim, call, float(meta.get("rate", 1000.0)))
    if operator == "congestion_control":
        return wrap_congestion_control(
            sim, call, float(meta.get("window", 4.0))
        )
    if operator == "circuit_breaker":
        return wrap_circuit_breaker(
            sim,
            call,
            failure_threshold=int(meta.get("failure_threshold", 5)),
            reset_ms=float(meta.get("reset_ms", 50.0)),
        )
    raise RuntimeFault(f"no runtime for filter operator {operator!r}")


def apply_filters(
    sim: Simulator,
    call: CallFn,
    filter_defs: Sequence[FilterDef],
    order: Optional[Sequence[str]] = None,
) -> CallFn:
    """Wrap ``call`` with every declared filter.

    Wrapping honours chain order: the *first* filter in the chain is the
    outermost wrapper (it sees the retries/timeouts of inner ones).
    """
    by_name = {f.name: f for f in filter_defs}
    names = list(order) if order is not None else list(by_name)
    shaped = call
    for name in reversed(names):
        if name in by_name:
            shaped = apply_filter(sim, shaped, by_name[name])
    return shaped
