"""The wall-clock transport: representatives as asyncio socket servers.

:class:`AsyncioTransport` implements the
:class:`~repro.net.transport.Transport` protocol over real sockets and
real time.  One event loop runs in a background thread; every *node* is
an asyncio server on an ephemeral loopback port, hosting its services as
a simulated :class:`~repro.net.node.Node` does.  Suite front-ends run in
ordinary threads and hand each call, or each whole scatter, to the loop
in one ``run_coroutine_threadsafe``.  Remote methods execute *in the
loop thread*, which serializes every call landing on a node and makes
representative state thread-safe without locks.

One link per node: the loop opens one connection to each node as soon
as its server listens, reopens it lazily only if it is lost, and
multiplexes every call to the node onto it; there is no pool.  Both
ends are :class:`asyncio.Protocol` objects parsing a byte buffer in
``data_received``; the node end dispatches each request synchronously
and writes the replies of one read in one ``write``.

Frames: a 9-byte :data:`HEADER` (body length, request id, kind), then
the body.  A ``CALL`` body is ``service NUL method NUL payload``, the
payload one JSON document of the encoded ``[args, kwargs]``
(:mod:`repro.service.wire`).  A reply echoes the request id with kind
``OK`` (the encoded result), ``NODEDOWN`` or ``APPERR`` (the encoded
exception, re-raised as its own class).  A length above
:data:`~repro.service.protocol.MAX_FRAME` closes the link.

Faults: a crashed or unknown target raises
:class:`~repro.core.errors.NodeDownError` (a crashed node's server
answers ``NODEDOWN`` and runs nothing), and so does every call pending
on a lost link; a crashed origin raises
:class:`~repro.core.errors.OriginDownError`.  A call unanswered within
``rpc_timeout`` wall seconds fails from a ``call_later`` timer on its
future with :class:`~repro.core.errors.RpcTimeoutError`; the link stays
open and a late reply is dropped by request id.  As in the simulator
the outcome is *ambiguous* (the request may have run), so scatter
replies mark ``effect_applied`` and 2PC reaches the node to resolve it.

Time: :class:`WallClock` counts seconds since the transport started;
``advance(delta)`` sleeps ``delta * tick_seconds`` (default 1 ms per
simulated tick), so backoff written for the simulator stays a real,
bounded backoff here.
"""

from __future__ import annotations

import asyncio
import struct
import threading
import time
from typing import Any

from repro.core.errors import (
    NetworkError,
    NodeDownError,
    OriginDownError,
    RpcTimeoutError,
)
from repro.net.node import CrashAware
from repro.net.rpc import RpcBatch, RpcCall, RpcReply
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPAN, NULL_TRACER
from repro.service import protocol, wire

#: Frame header: body length, request id, kind.
HEADER = struct.Struct("!IIB")
CALL, OK, NODEDOWN, APPERR = range(4)


def _frame(rid: int, kind: int, body: bytes) -> bytes:
    return HEADER.pack(len(body), rid, kind) + body


class WallClock:
    """Real time presented through the :class:`~repro.net.transport.Clock` slice.

    ``now`` is monotonic seconds since construction.  ``advance`` maps
    simulated ticks onto short real sleeps (``tick_seconds`` each) so
    backoff loops written for the simulator behave sanely; ``advance_to``
    sleeps until the target instant, never backwards.
    """

    def __init__(self, tick_seconds: float = 0.001) -> None:
        self.tick_seconds = tick_seconds
        self._epoch = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def advance(self, delta: float) -> float:
        if delta > 0:
            time.sleep(delta * self.tick_seconds)
        return self.now()

    def advance_to(self, when: float) -> float:
        # Scatter arrivals and hedged-gather straggler deadlines are wall
        # instants already reached by the time the caller waits on them,
        # so those calls are no-ops; a future instant is waited out for
        # real.
        remaining = when - self.now()
        if remaining > 0:
            time.sleep(min(remaining, 1.0))
        return self.now()


class _AioNode:
    """One node: an asyncio server, its hosted services, and its link."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.services: dict[str, Any] = {}
        self.up = True
        self.server: asyncio.AbstractServer | None = None
        self.port: int | None = None
        #: The loop's one client connection to this node, and the
        #: reconnect in progress that concurrent callers share.
        self.link: _Link | None = None
        self.opening: asyncio.Task | None = None
        #: Transports of both ends of every live connection (for shutdown).
        self.transports: set[asyncio.BaseTransport] = set()

    def dispatch(self, rid: int, body: bytearray) -> bytes:
        """Execute one request frame; returns the framed reply.

        Runs in the loop thread, one frame at a time, which serializes
        all mutation of this node's services.
        """
        if not self.up:
            return _frame(rid, NODEDOWN, self.node_id.encode())
        try:
            service_name, method, payload = body.split(b"\0", 2)
            service = self.services[service_name.decode()]
            args, kwargs = wire.load(payload.decode())
            result = getattr(service, method.decode())(
                *[wire.decode_value(a) for a in args],
                **{k: wire.decode_value(v) for k, v in kwargs.items()},
            )
        except Exception as exc:  # application error: rides the reply back
            error = wire.dump(wire.encode_error(exc))
            return _frame(rid, APPERR, error.encode())
        return _frame(rid, OK, wire.dump(wire.encode_value(result)).encode())


class _Link(asyncio.Protocol):
    """Either end of a connection to a node: ``CALL`` frames are answered
    by the node, any other frame is a reply matched to its caller's
    future by request id."""

    def __init__(self, node: _AioNode, loop: asyncio.AbstractEventLoop) -> None:
        self.node = node
        self.loop = loop
        self.pending: dict[int, asyncio.Future] = {}
        self._last_id = 0
        self._buffer = bytearray()

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.node.transports.add(transport)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        offset, end, head = 0, len(buffer), HEADER.size
        replies = []
        while end - offset >= head:
            size, rid, kind = HEADER.unpack_from(buffer, offset)
            if size > protocol.MAX_FRAME:
                # A corrupt or hostile header: drop the link rather than
                # buffer towards it.
                self.transport.close()
                break
            start = offset + head
            if start + size > end:
                break
            body = buffer[start:start + size]
            offset = start + size
            if kind == CALL:
                replies.append(self.node.dispatch(rid, body))
                continue
            future = self.pending.pop(rid, None)
            if future is not None and not future.done():
                future.set_result((kind, body))
        del buffer[:offset]
        if replies:
            self.transport.write(b"".join(replies))

    def connection_lost(self, exc: Exception | None) -> None:
        self.node.transports.discard(self.transport)
        for future in self.pending.values():
            if not future.done():
                future.set_exception(NodeDownError(self.node.node_id))

    async def call(
        self, request: bytes, budget: float, label: str
    ) -> tuple[int, bytearray]:
        """Send one request; the reply's ``(kind, body)``."""
        if self.transport.is_closing():
            raise NodeDownError(self.node.node_id)
        self._last_id = rid = (self._last_id + 1) & 0xFFFFFFFF
        future = self.loop.create_future()
        self.pending[rid] = future
        self.transport.write(_frame(rid, CALL, request))
        timer = self.loop.call_later(budget, self._expire, rid, label)
        try:
            return await future
        finally:
            timer.cancel()
            self.pending.pop(rid, None)

    def _expire(self, rid: int, label: str) -> None:
        # The id leaves ``pending``, so a late reply is dropped on arrival.
        future = self.pending.pop(rid, None)
        if future is not None and not future.done():
            future.set_exception(RpcTimeoutError(self.node.node_id, method=label))


class AsyncioTransport:
    """Loopback socket substrate satisfying the ``Transport`` protocol."""

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        host: str = "127.0.0.1",
        rpc_timeout: float = 10.0,
        tick_seconds: float = 0.001,
    ) -> None:
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = WallClock(tick_seconds)
        self.host_addr = host
        self.rpc_timeout = rpc_timeout
        self._nodes: dict[str, _AioNode] = {}
        self._closed = False
        self._lock = threading.Lock()
        self._calls = self._metrics.counter("service.rpc.calls")
        self._errors = self._metrics.counter("service.rpc.errors")
        self._latency = self._metrics.histogram("service.rpc.seconds")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-aio-transport", daemon=True
        )
        self._thread.start()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The transport's event loop (front doors attach servers here)."""
        return self._loop

    def submit(self, coro: Any) -> Any:
        """Run a coroutine on the loop from any thread; returns its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # -- Transport protocol --------------------------------------------------

    @property
    def clock(self) -> WallClock:
        return self._clock

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def endpoint(self, origin: str = "client", tracer: Any = None) -> "AsyncioEndpoint":
        return AsyncioEndpoint(self, origin=origin, tracer=tracer)

    def ensure_node(self, node_id: str) -> None:
        with self._lock:
            if node_id in self._nodes or self._closed:
                return
            node = _AioNode(node_id)
            self._nodes[node_id] = node
        self.submit(self._start_server(node))

    def host(self, node_id: str, service_name: str, service: Any) -> None:
        node = self._node(node_id)
        if service_name in node.services:
            raise ValueError(
                f"service {service_name!r} already hosted on {node_id}"
            )
        node.services[service_name] = service

    def local_service(self, node_id: str, service_name: str) -> Any:
        node = self._node(node_id)
        if not node.up:
            raise NodeDownError(node_id)
        try:
            return node.services[service_name]
        except KeyError:
            raise KeyError(
                f"no service {service_name!r} on node {node_id}"
            ) from None

    def is_up(self, node_id: str) -> bool:
        return self._node(node_id).up

    def reachable(self, src: str, dst: str) -> bool:
        src_node = self._nodes.get(src)
        if src_node is not None and not src_node.up:
            return False
        dst_node = self._nodes.get(dst)
        return dst_node is not None and dst_node.up

    def crash(self, node_id: str) -> None:
        node = self._node(node_id)
        if not node.up:
            return
        node.up = False
        for service in node.services.values():
            if isinstance(service, CrashAware):
                service.on_crash()

    def recover(self, node_id: str) -> None:
        node = self._node(node_id)
        if node.up:
            return
        for service in node.services.values():
            if isinstance(service, CrashAware):
                service.on_recover()
        node.up = True

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), self._loop
                ).result(timeout=10)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        if not self._loop.is_running():
            self._loop.close()

    async def _shutdown(self) -> None:
        for node in self._nodes.values():
            if node.server is not None:
                node.server.close()
            for transport in list(node.transports):
                transport.close()
        for node in self._nodes.values():
            if node.server is not None:
                await node.server.wait_closed()
        current = asyncio.current_task()
        stragglers = [t for t in asyncio.all_tasks() if t is not current]
        if stragglers:
            await asyncio.wait(stragglers, timeout=5)

    def _node(self, node_id: str) -> _AioNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    async def _start_server(self, node: _AioNode) -> None:
        server = await self._loop.create_server(
            lambda: _Link(node, self._loop), host=self.host_addr, port=0
        )
        node.server = server
        node.port = server.sockets[0].getsockname()[1]
        await self._open(node)

    # -- client side ---------------------------------------------------------

    async def _open(self, node: _AioNode) -> _Link:
        """(Re)open the node's link; concurrent callers share one attempt."""
        if node.opening is None:
            node.opening = self._loop.create_task(
                self._loop.create_connection(
                    lambda: _Link(node, self._loop), self.host_addr, node.port
                )
            )
        try:
            _, node.link = await node.opening
        except OSError:
            raise NodeDownError(node.node_id) from None
        finally:
            node.opening = None
        return node.link

    async def call_async(
        self,
        node_id: str,
        service_name: str,
        method: str,
        args: tuple,
        kwargs: dict,
        timeout: float | None = None,
    ) -> Any:
        """One RPC over the node's link; raises the mapped error hierarchy."""
        node = self._nodes.get(node_id)
        if node is None or not node.up:
            raise NodeDownError(node_id)
        payload = wire.dump([
            [wire.encode_value(a) for a in args],
            {k: wire.encode_value(v) for k, v in kwargs.items()},
        ])
        request = f"{service_name}\0{method}\0{payload}".encode()
        budget = self.rpc_timeout if timeout is None else timeout
        started = time.perf_counter()
        self._calls.inc()
        try:
            link = node.link
            if link is None or link.transport.is_closing():
                link = await self._open(node)
            kind, body = await link.call(request, budget, f"{service_name}.{method}")
        except NetworkError:
            self._errors.inc()
            raise
        finally:
            self._latency.observe(time.perf_counter() - started)
        if kind == OK:
            return wire.decode_value(wire.load(body.decode()))
        if kind == NODEDOWN:
            raise NodeDownError(node_id)
        raise wire.decode_error(wire.load(body.decode()))


class AsyncioEndpoint:
    """The ``RpcEndpoint`` calling surface, marshalled onto the loop.

    Owned by one synchronous caller (a suite front-end or the 2PC
    coordinator); ``call`` blocks the calling thread on the loop-side
    coroutine, ``scatter`` hands every member to the loop at once and
    blocks until all have resolved.
    """

    def __init__(
        self, transport: AsyncioTransport, origin: str = "client", tracer: Any = None
    ) -> None:
        self.transport = transport
        self.origin = origin
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.attempt = 0

    def bind_tracer(self, tracer: Any) -> None:
        """Install a tracer after construction.

        The front door builds its per-shard ring tracers only once it
        owns the directory, well after the cluster wired this endpoint;
        ``call`` reads ``self.tracer`` on every invocation, so rebinding
        takes effect immediately.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _check_origin(self) -> None:
        node = self.transport._nodes.get(self.origin)
        if node is not None and not node.up:
            raise OriginDownError(self.origin)

    def call(
        self,
        node_id: str,
        service_name: str,
        method: str,
        *args: Any,
        payload_items: int = 1,
        **kwargs: Any,
    ) -> Any:
        self._check_origin()
        if self.tracer.enabled:
            with self.tracer.span(
                f"rpc:{service_name}.{method}",
                dst=node_id,
                origin=self.origin,
                payload_items=payload_items,
            ) as span:
                if self.attempt:
                    span.set("attempt", self.attempt)
                return self._invoke(node_id, service_name, method, args, kwargs)
        return self._invoke(node_id, service_name, method, args, kwargs)

    def _invoke(self, *request: Any) -> Any:
        # The call's own timer bounds it; the outer margin only guards
        # against a wedged loop.
        return asyncio.run_coroutine_threadsafe(
            self.transport.call_async(*request), self.transport._loop
        ).result(timeout=self.transport.rpc_timeout + 30.0)

    def try_call(
        self,
        node_id: str,
        service_name: str,
        method: str,
        *args: Any,
        default: Any = None,
        **kwargs: Any,
    ) -> Any:
        try:
            return self.call(node_id, service_name, method, *args, **kwargs)
        except NetworkError:
            return default

    def scatter(
        self, calls: list[RpcCall], label: str | None = None
    ) -> RpcBatch:
        self._check_origin()
        clock = self.transport.clock
        started = clock.now()
        replies = [RpcReply(call) for call in calls]
        asyncio.run_coroutine_threadsafe(
            self._gather(replies, clock), self.transport._loop
        ).result(
            timeout=(self.transport.rpc_timeout + 30.0)
            * (1 + max((c.retries for c in calls), default=0))
        )
        return RpcBatch(clock, replies, NULL_SPAN, started)

    async def _gather(self, replies: list[RpcReply], clock: WallClock) -> None:
        """Every member's attempt chain, concurrently, on the loop."""
        await asyncio.gather(*(self._member(reply, clock) for reply in replies))

    async def _member(self, reply: RpcReply, clock: WallClock) -> None:
        """One scatter member's attempt chain."""
        call = reply.call
        budget = call.retries
        while True:
            reply.attempts += 1
            try:
                reply.value = await self.transport.call_async(
                    call.node_id, call.service_name, call.method, call.args,
                    call.kwargs,
                )
            except RpcTimeoutError as exc:
                reply.timeouts += 1
                # Ambiguous outcome: the request may have executed, so
                # the member counts as effect-applied and 2PC will reach
                # the node to release whatever it holds.
                reply.effect_applied = True
                if budget > 0:
                    budget -= 1
                    continue
                reply.error = exc
            except NodeDownError as exc:
                reply.error = exc
            except Exception as exc:
                reply.error = exc
                reply.app_error = True
                reply.effect_applied = True
            else:
                reply.effect_applied = True
            reply.arrival = clock.now()
            return

    def __repr__(self) -> str:
        return f"AsyncioEndpoint(origin={self.origin!r})"
