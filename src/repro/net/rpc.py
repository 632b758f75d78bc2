"""Synchronous remote procedure calls over the simulated network.

The paper writes remote invocations as ``Send(<procedure>) to(<object>)``
with ARGUS-like semantics, deliberately eliding error responses.  This
layer supplies the elided part: a call to a crashed or partitioned node
raises :class:`~repro.core.errors.NodeDownError`, a call *from* a crashed
node raises :class:`~repro.core.errors.OriginDownError`, a call whose
request or reply a lossy network drops (see
:meth:`~repro.net.network.Network.install_faults`) raises
:class:`~repro.core.errors.RpcTimeoutError`, and callers (the suite's
quorum machinery) must cope.

An :class:`RpcEndpoint` is the client stub owned by one origin (a suite
front-end running on some node, or an external client with origin
``"client"``).  It resolves a (node, service) pair, accounts the traffic,
advances the simulated clock, and invokes the service method in-process.
When a :class:`~repro.obs.spans.RecordingTracer` is attached, every call
records an ``rpc:<service>.<method>`` span carrying its destination,
message count, and payload size; the default
:class:`~repro.obs.spans.NullTracer` reduces instrumentation to one
attribute check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.errors import (
    NodeDownError,
    OriginDownError,
    RpcTimeoutError,
)
from repro.net.network import Network
from repro.obs.spans import NULL_SPAN, NULL_TRACER


@dataclass
class RpcCall:
    """One member of a scatter batch: where to call, what, and with what.

    ``retries`` is this call's *own* in-batch re-issue budget for timed
    out exchanges (a batch re-issues only its failed members), and
    ``attempt`` the attempt number the first issue is labelled with —
    both per-descriptor, so batches never share the endpoint-level
    ``attempt`` field that serial retry loops publish.  ``key`` is an
    opaque correlation handle the caller uses to find this call's reply.
    """

    node_id: str
    service_name: str
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    payload_items: int = 1
    retries: int = 0
    attempt: int = 0
    key: Any = None


class RpcReply:
    """Outcome of one scatter-batch member.

    ``arrival`` is the *absolute* simulated time the caller learns this
    outcome (reply arrival for a delivered exchange, timeout expiry for
    a lost one, the send instant for an unreachable target).
    ``effect_applied`` records whether the remote method actually ran —
    True for every delivered exchange and for lost *replies*, False for
    lost requests and down targets — which is what decides whether the
    target must be enlisted in the surrounding transaction.
    """

    __slots__ = (
        "call", "value", "error", "app_error", "arrival",
        "attempts", "timeouts", "effect_applied",
    )

    def __init__(self, call: RpcCall) -> None:
        self.call = call
        self.value: Any = None
        self.error: Exception | None = None
        self.app_error = False  # error came from the service, not the net
        self.arrival = 0.0
        self.attempts = 0
        self.timeouts = 0
        self.effect_applied = False

    @property
    def ok(self) -> bool:
        """True if the call completed without any error."""
        return self.error is None

    def __repr__(self) -> str:
        status = "ok" if self.ok else type(self.error).__name__
        return f"RpcReply({self.call.method} -> {status} @{self.arrival:.1f})"


class RpcBatch:
    """A scatter of concurrent calls awaiting its gather.

    Produced by :meth:`RpcEndpoint.scatter`.  Every member has already
    been *simulated* — effects applied, traffic accounted, per-member
    arrival times computed — but the shared clock has not moved; one of
    the ``complete_*`` methods must be called exactly once to advance it
    to the arrival of the slowest member the caller actually waits on.

    The asyncio endpoint returns the same class over its wall clock:
    there every member has really resolved before the batch exists, so
    each arrival is an instant already reached and ``advance_to`` is a
    no-op — the gathers only select which replies the caller waits on.
    """

    def __init__(
        self,
        clock: Any,
        replies: list[RpcReply],
        span: Any,
        started: float,
    ) -> None:
        self.clock = clock
        self.replies = replies
        self.span = span  # the open ``fanout:`` span (NULL_SPAN untraced)
        self.started = started
        #: The replies the gather actually waited on (set by complete_*).
        self.waited: list[RpcReply] = []

    @property
    def width(self) -> int:
        """Number of calls in the batch."""
        return len(self.replies)

    @property
    def lock_deadline(self) -> float:
        """Latest arrival over members whose effect was applied.

        A member that executed the call holds representative-side state
        (locks, a vote in ``_seen_txns``) until its reply — or timeout —
        lands, so a hedged gather that returns early must still account
        this instant before releasing the transaction.  Members that
        never executed (down targets, lost requests) hold nothing and
        are excluded.
        """
        return max(
            (r.arrival for r in self.replies if r.effect_applied),
            default=self.started,
        )

    def complete_all(self) -> list[RpcReply]:
        """Wait for every member; the batch costs the max arrival."""
        return self._finish(list(self.replies), hedged=False)

    def complete_first(
        self, target: int, weight_of: Callable[[RpcReply], int]
    ) -> tuple[list[RpcReply], bool]:
        """Wait only until successful replies carry ``target`` weight.

        Replies are taken in arrival order (ties broken by issue order);
        the clock advances to the last reply of the minimal sufficient
        prefix, and later arrivals — stragglers — are left pending for
        the caller to account via :attr:`lock_deadline`.  If the batch
        cannot reach ``target`` even with every success, it degenerates
        to :meth:`complete_all` (the caller must sit out the failures'
        timeouts to learn it failed) and the flag comes back False.
        """
        ranked = sorted(
            (r for r in self.replies if r.ok),
            key=lambda r: (r.arrival, self.replies.index(r)),
        )
        waited: list[RpcReply] = []
        got = 0
        for reply in ranked:
            waited.append(reply)
            got += weight_of(reply)
            if got >= target:
                return self._finish(waited, hedged=True), True
        return self._finish(list(self.replies), hedged=True), False

    def _finish(self, waited: list[RpcReply], hedged: bool) -> list[RpcReply]:
        self.clock.advance_to(
            max((r.arrival for r in waited), default=self.started)
        )
        self.waited = waited
        if self.span is not NULL_SPAN:
            self.span.set("waited_on", len(waited))
            self.span.set("hedged", hedged)
            self.span.__exit__(None, None, None)
        return waited


class RpcEndpoint:
    """Client-side stub for issuing RPCs from a fixed origin."""

    def __init__(
        self, network: Network, origin: str = "client", tracer: Any = None
    ) -> None:
        self.network = network
        self.origin = origin
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Retrying callers (the suite's _call loop) publish which re-issue
        # this is so traced spans can distinguish first tries from
        # retries; 0 between retry loops, so the plain path never reads it.
        self.attempt = 0
        # The tracer is fixed for the endpoint's lifetime, so the traced
        # implementation is bound once here instead of branching on every
        # call — RPC issue is the hottest path in the simulator and the
        # untraced default must stay at seed cost.
        if self.tracer.enabled:
            self.call = self._traced_call

    def call(
        self,
        node_id: str,
        service_name: str,
        method: str,
        *args: Any,
        payload_items: int = 1,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``service.method(*args, **kwargs)`` on ``node_id``.

        Raises OriginDownError if this endpoint's own node is crashed and
        NodeDownError if the target is crashed or unreachable.
        Application exceptions raised by the service propagate to the
        caller unchanged (the reply message is still accounted: the
        remote node did the work and answered).
        """
        if self.origin in self.network._nodes:  # origin may be external
            origin_node = self.network.node(self.origin)
            if not origin_node.is_up:
                raise OriginDownError(self.origin)
        self.network.check_path(self.origin, node_id)
        service = self.network.node(node_id).service(service_name)
        bound = getattr(service, method)
        wire_name = f"{service_name}.{method}"
        if self.network.faults is not None:
            self._roll_faults(node_id, wire_name, bound, args, kwargs)
        self.network.transmit_round(
            self.origin, node_id, wire_name, payload_items
        )
        return bound(*args, **kwargs)

    def _roll_faults(
        self, node_id: str, wire_name: str, bound: Any, args: tuple, kwargs: dict
    ) -> None:
        """Consult the installed fault model for one exchange.

        Returns normally if the round survives (after any flaky extra
        latency); raises :class:`RpcTimeoutError` for a lost message.  A
        lost *reply* still executes the remote method — the effect is
        applied, only the answer (even an error answer) is dropped, so
        the caller cannot distinguish this from a lost request.
        """
        faults = self.network.faults
        verdict = faults.disposition(self.origin, node_id, wire_name)
        if verdict == "ok":
            extra = faults.delay(self.origin, node_id)
            if extra:
                self.network.clock.advance(extra)
            return
        phase = "request" if verdict == "drop_request" else "reply"
        self.network.transmit_lost(self.origin, node_id, wire_name, phase)
        if phase == "reply":
            try:
                bound(*args, **kwargs)
            except Exception:
                pass  # the error reply was lost along with the data reply
        raise RpcTimeoutError(node_id, method=wire_name, lost=phase)

    def _traced_call(
        self,
        node_id: str,
        service_name: str,
        method: str,
        *args: Any,
        payload_items: int = 1,
        **kwargs: Any,
    ) -> Any:
        """:meth:`call` wrapped in an ``rpc:`` span (see ``__init__``)."""
        with self.tracer.span(
            f"rpc:{service_name}.{method}",
            dst=node_id,
            origin=self.origin,
            payload_items=payload_items,
        ) as span:
            if self.attempt:
                span.set("attempt", self.attempt)
            if self.origin in self.network._nodes:
                origin_node = self.network.node(self.origin)
                if not origin_node.is_up:
                    raise OriginDownError(self.origin)
            self.network.check_path(self.origin, node_id)
            service = self.network.node(node_id).service(service_name)
            bound = getattr(service, method)
            wire_name = f"{service_name}.{method}"
            if self.network.faults is not None:
                try:
                    self._roll_faults(node_id, wire_name, bound, args, kwargs)
                except RpcTimeoutError as exc:
                    # Reconcile with transmit_lost: a lost request put one
                    # message on the wire, a lost reply two.
                    span.set("messages", 1 if exc.lost == "request" else 2)
                    span.set("lost", exc.lost)
                    raise
            self.network.transmit_round(
                self.origin, node_id, wire_name, payload_items
            )
            # Set only after transmit_round: a span's message count must
            # reconcile exactly with the network's traffic accounting,
            # and a call rejected before transmission sent nothing.
            span.set("messages", 2)
            return bound(*args, **kwargs)

    def scatter(
        self, calls: list[RpcCall], label: str | None = None
    ) -> RpcBatch:
        """Issue ``calls`` concurrently; gather with ``complete_*``.

        All requests leave at the same instant, so the batch's simulated
        cost is the **max** arrival time over the members the gather
        waits on — not the sum of round trips the serial :meth:`call`
        loop would charge.  Each member gets its own fault dispositions,
        its own :class:`RpcTimeoutError`, and its own in-batch re-issue
        budget (``call.retries``), and a lost member only charges the
        batch ``rpc_timeout`` if the gather actually waits on it.
        Effects (and traffic accounting) are applied immediately; only
        the clock waits for the gather.

        Raises OriginDownError up front if this endpoint's own node is
        crashed; every per-member failure is captured on its
        :class:`RpcReply` instead of raised.
        """
        if self.origin in self.network._nodes:
            if not self.network.node(self.origin).is_up:
                raise OriginDownError(self.origin)
        started = self.network.clock.now()
        traced = self.tracer.enabled
        if traced:
            name = label or (calls[0].method if calls else "empty")
            span = self.tracer.span(
                f"fanout:{name}", width=len(calls), origin=self.origin
            )
            span.__enter__()
        else:
            span = NULL_SPAN
        replies = [self._simulate_member(call, started, traced) for call in calls]
        return RpcBatch(self.network.clock, replies, span, started)

    def _simulate_member(
        self, call: RpcCall, started: float, traced: bool
    ) -> RpcReply:
        """Run one batch member's attempt chain in virtual time.

        Traffic is accounted and effects applied now; the clock is not
        touched — arrivals accumulate from ``started`` along this
        member's own timeline (each timeout delays only its own
        re-issue).  Fault dispositions are drawn member-by-member in
        issue order, the same stream order as the serial loop rolls.
        """
        net = self.network
        reply = RpcReply(call)
        wire_name = f"{call.service_name}.{call.method}"
        t = started
        budget = call.retries
        attempt_no = call.attempt
        while True:
            reply.attempts += 1
            attempt_start = t
            span = (
                self.tracer.span(
                    f"rpc:{wire_name}",
                    dst=call.node_id,
                    origin=self.origin,
                    payload_items=call.payload_items,
                )
                if traced
                else NULL_SPAN
            )
            retry = False
            try:
                # Raise-through-the-span so statuses match serial traces
                # (NodeDownError / RpcTimeoutError / the app error name).
                with span:
                    if attempt_no:
                        span.set("attempt", attempt_no)
                    net.check_path(self.origin, call.node_id)
                    service = net.node(call.node_id).service(call.service_name)
                    bound = getattr(service, call.method)
                    verdict = "ok"
                    extra = 0.0
                    if net.faults is not None:
                        verdict = net.faults.disposition(
                            self.origin, call.node_id, wire_name
                        )
                        if verdict == "ok":
                            extra = net.faults.delay(self.origin, call.node_id)
                    if verdict != "ok":
                        phase = (
                            "request" if verdict == "drop_request" else "reply"
                        )
                        timeout = net.send_lost(
                            self.origin, call.node_id, wire_name, phase
                        )
                        t = attempt_start + timeout
                        if phase == "reply":
                            # The request was delivered: the effect is
                            # applied, only the answer (even an error
                            # answer) is lost.
                            reply.effect_applied = True
                            try:
                                bound(*call.args, **call.kwargs)
                            except Exception:
                                pass
                        span.set("messages", 1 if phase == "request" else 2)
                        span.set("lost", phase)
                        raise RpcTimeoutError(
                            call.node_id, method=wire_name, lost=phase
                        )
                    offset = net.send_round(
                        self.origin, call.node_id, wire_name, call.payload_items
                    )
                    t = attempt_start + extra + offset
                    reply.effect_applied = True
                    span.set("messages", 2)
                    reply.value = bound(*call.args, **call.kwargs)
            except RpcTimeoutError as exc:
                reply.timeouts += 1
                if budget > 0:
                    budget -= 1
                    attempt_no += 1
                    retry = True
                else:
                    reply.error = exc
            except NodeDownError as exc:
                # Nothing was sent: the caller learns instantly, as in
                # the serial path where check_path raises pre-transmit.
                reply.error = exc
            except Exception as exc:
                # Application error: the reply message was delivered and
                # accounted; the error rides it back to the caller.
                reply.error = exc
                reply.app_error = True
            if traced:
                # Retime onto this member's own timeline: spans were
                # pushed/popped at the (un-advanced) scatter instant.
                span.start = attempt_start
                span.end = t
            if retry:
                continue
            reply.arrival = t
            return reply

    def try_call(
        self,
        node_id: str,
        service_name: str,
        method: str,
        *args: Any,
        default: Any = None,
        **kwargs: Any,
    ) -> Any:
        """Like :meth:`call` but returns ``default`` on network failure.

        Application exceptions still propagate; every NetworkError —
        NodeDownError (which includes OriginDownError), RpcTimeoutError,
        a partitioned path — is absorbed.  Used by best-effort paths
        such as background ghost cleanup and decision re-delivery.
        """
        from repro.core.errors import NetworkError

        try:
            return self.call(node_id, service_name, method, *args, **kwargs)
        except NetworkError:
            return default
