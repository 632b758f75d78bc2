"""The client-facing front door: a sharded directory behind one socket.

:class:`DirectoryService` attaches a single listening socket to the
event loop of an :class:`~repro.service.aio.AsyncioTransport` that is
already hosting a :class:`~repro.shard.sharded.ShardedDirectory`'s
representatives.  Clients speak a small redis-like protocol
(:mod:`repro.service.protocol`) with plain string commands::

    PING                     -> +PONG
    LOOKUP key               -> *2  ("1"/"0", value or null bulk)
    INSERT key value         -> +OK          | -KEYEXISTS key
    UPDATE key value         -> +OK          | -NOTFOUND key
    DELETE key               -> +OK          | -NOTFOUND key
    GET key                  -> $value       | $-1
    SET key value            -> +OK             (insert-or-update)
    DEL key                  -> :1 / :0         (delete-if-present)
    SIZE                     -> :N
    SHARDS                   -> :N
    REJOIN [s<i>/]replica    -> +UP          | -ERR unknown replica ...
    STATS [window]           -> $json          (windowed rates, per shard)
    SLOW [n]                 -> $json          (slowest recent ops + spans)
    METRICS                  -> $json          (raw registry snapshot)
    SHARDMAP                 -> $json          (epoch, boundaries, owners)
    RESHARD STATUS           -> $json          (epoch + migration phase)
    RESHARD SPLIT boundary   -> $json          (live split, runs to DONE)

Requests may carry trailing ``@``-prefixed metadata elements (stripped
before arity checks, see :func:`repro.service.protocol.split_meta`).
Two fields are defined today: ``@trace=<id>``, the client-stamped trace
id the service adopts onto the root span of the operation it triggers,
and ``@epoch=<n>``, the shard-map epoch of the client's cached routing
map.  An epoch-stamped keyed request whose key moved since that epoch
is answered ``-MOVED <current-epoch>`` instead of being executed — the
client refreshes its map (``SHARDMAP``) and retries; epoch-stamped
requests also get their replies stamped with the server's current
``@epoch=``, so clients learn of a cutover on the first op after it.
Clients that stamp no epoch see neither redirects nor reply metadata.

``REJOIN`` is the operator verb for the replica lifecycle
(:mod:`repro.repl`): it recovers the named representative on shard
``i`` (default 0) and drives a full snapshot + catch-up + cutover join
against its peers, replying ``+UP`` once the replica votes again.  It
runs on the owning shard's worker thread, so it serializes against
client operations on that shard and needs no extra locking.

The strict verbs carry the paper's error contract across the wire; the
lenient ``GET``/``SET``/``DEL`` triple is what load generators and
casual ``nc`` sessions want.  Availability failures (quorum loss, node
down) reply ``-UNAVAILABLE`` and any other server-side exception
``-ERR`` — a client never sees a broken connection for an application
error.

Concurrency model: connections are *pipelined* — the per-connection
loop reads frames continuously, dispatches each as its own task, and a
per-connection replier writes the replies back strictly in request
order, so a client may keep many requests in flight on one socket and
still parse replies positionally.  The quorum algorithm underneath is
synchronous and per-shard stateful, so each shard keeps a dedicated
single-worker executor thread, and the only way a keyed op reaches it
is the *wave queue* in front of it (:class:`_ShardBatcher`).  Each of
the seven keyed verbs is described once, in :data:`_VERBS` — usage,
wave kind, reply encoder — and one handler serves them all.
Concurrent same-shard ops accumulate while the worker is busy and
drain in waves of up to ``batch_max``; each wave goes whole to
:meth:`~repro.core.suite.DirectorySuite.execute_batch`, which runs every
run of two or more groupable ops (``LOOKUP``/``GET``/``INSERT``/
``UPDATE``/``SET``) as **one** grouped quorum transaction (shared
quorum selection, one 2PC group commit, per-op error results preserved)
and every other op — ``DELETE``/``DEL`` and a wave's solitary ops —
through the classic one-op path.  Arrival order is preserved item by
item, so two pipelined ops on the same key observe each other exactly
as they would have one at a time.  Distinct shards proceed in parallel.
``batching=False`` is only another way to write ``batch_max=1``: every
wave then holds one op, which always takes the one-op path.

Live telemetry (:class:`ServiceTelemetry`, on by default) instruments
that per-shard thread: every drained wave runs inside one root span
recorded by a bounded per-shard :class:`~repro.obs.spans.RingTracer` —
``service:<VERB>`` with the op's key for a one-op wave,
``service:BATCH`` for a larger one — which is also bound into the
shard's suite and RPC endpoint, so the full op/quorum/rpc/commit tree
nests beneath it.  Each wave feeds a rolling latency window and a
slow-op ring; every op is offered to a space-saving hot-key sketch and
bumps the directory's ``shard.routed`` counter — which is what makes
the ``STATS`` windowed rates meaningful in service mode.  All of it is
answered from the loop thread without touching the shard threads.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.batch import BatchOp, BatchOutcome
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    NetworkError,
    QuorumUnavailableError,
    ReproError,
    StaleEpochError,
    TransactionError,
)
from repro.obs.live import RollingHistogram, SlowLog, SpaceSaving, WindowedView
from repro.obs.spans import RingTracer
from repro.service import protocol
from repro.shard.sharded import ShardedDirectory


class _ShardTelemetry:
    """One shard's live instrumentation, touched only by its worker thread.

    Installing it rebinds the shard suite's tracer and its RPC
    endpoint's tracer to a bounded :class:`RingTracer`, so the spans a
    wave opens below its ``service:`` root all land in the same
    per-shard ring.  Representatives keep their construction-
    time null tracer — their work happens on the transport's loop
    thread, where spans could never nest under the shard-thread root.
    """

    def __init__(
        self,
        index: int,
        cluster: Any,
        directory: ShardedDirectory,
        now: Any,
        recorded: Any,
        *,
        ring_capacity: int,
        slow_capacity: int,
        hot_capacity: int,
        latency_window: float,
    ) -> None:
        self.index = index
        self.cluster = cluster
        self._directory = directory
        self._recorded = recorded
        self.tracer = RingTracer(now, capacity=ring_capacity)
        cluster.suite.tracer = self.tracer
        cluster.suite.rpc.bind_tracer(self.tracer)
        self.latency = RollingHistogram(now, window=latency_window)
        self.hot_keys = SpaceSaving(hot_capacity)
        self.slow = SlowLog(slow_capacity)
        # Registered eagerly (not on first failure) so the name exists
        # in every snapshot; the shard-scoped view makes it
        # ``shard<i>.live.ops.failed``, a genuinely per-shard count —
        # unlike the suite op counters, which all shards share.
        self.failed = cluster.metrics.counter("live.ops.failed")

    def run(self, wave: "list[_WaveItem]") -> "list[BatchOutcome]":
        """Execute one drained wave on this shard, fully instrumented.

        One root span covers the wave: ``service:<VERB>`` carrying the
        op's key for a one-op wave, ``service:BATCH`` for a larger one,
        with the suite's ``op:`` trees nested beneath it.  Routed
        counts, hot-key offers and failure counts stay per op, so
        ``STATS`` numbers are exact under batching.
        """
        ops = [item.op for item in wave]
        self._directory.note_routed(self.index, len(ops))
        if len(wave) == 1:
            verb, key, trace = wave[0].verb, ops[0].key, wave[0].trace
            span = self.tracer.span(
                f"service:{verb}", key=key, shard=self.index
            )
        else:
            stamped = [item.trace for item in wave if item.trace is not None]
            verb, key = "BATCH", f"[{len(ops)} ops]"
            trace = stamped[-1] if stamped else None
            span = self.tracer.span(
                "service:BATCH", size=len(ops), shard=self.index
            )
        if trace is not None:
            span.attrs["trace"] = trace
        outcomes: "list[BatchOutcome] | None" = None
        try:
            with span:
                outcomes = self.cluster.suite.execute_batch(ops)
            return outcomes
        finally:
            # The ``with`` block sealed the span (end timestamp and
            # status) before this runs, success or failure.
            self.latency.observe(span.duration)
            for op in ops:
                self.hot_keys.offer(op.key)
            if outcomes is None:
                failures = len(ops)
            else:
                errors = [o.error for o in outcomes if o.error is not None]
                failures = len(errors)
                if errors and len(ops) == 1:
                    # A one-op root carries its op's own status.
                    span.status = type(errors[0]).__name__
            if failures:
                self.failed.inc(failures)
            self.slow.record(
                span, verb=verb, key=key, shard=self.index, trace=trace
            )
            self._recorded.inc(len(ops))


@dataclass(slots=True)
class _WaveItem:
    """One queued shard operation awaiting its wave."""

    verb: str
    op: BatchOp
    trace: Any
    future: Future


class _ShardBatcher:
    """The queue in front of one shard's worker thread.

    Every keyed op reaches its shard through here.  Ops submitted while
    the worker is busy accumulate in ``_pending`` (loop thread, under a
    lock) and drain in waves of up to ``batch_max`` on the shard
    executor; each wave goes whole to
    :meth:`~repro.core.suite.DirectorySuite.execute_batch`, which runs
    consecutive runs of groupable ops as one grouped quorum transaction
    and everything else — ``DELETE``/``DEL``, solitary ops — through the
    classic per-op path.  Arrival order is preserved item by item — a
    wave is the *same sequence* one-op waves would have run, just paid
    for with shared quorum rounds.

    The drain task re-submits itself between waves instead of looping,
    so admin work sharing the executor (``SIZE``, ``REJOIN``, a live
    reshard's phase steps) interleaves at wave granularity rather than
    starving behind a busy shard.
    """

    def __init__(
        self, service: "DirectoryService", index: int,
        executor: ThreadPoolExecutor,
    ) -> None:
        self.service = service
        self.index = index
        self.executor = executor
        self.batch_max = service.batch_max
        self._lock = threading.Lock()
        self._pending: "list[_WaveItem]" = []
        self._draining = False

    def submit(self, verb: str, op: BatchOp, trace: Any) -> "asyncio.Future":
        """Enqueue one op (loop thread); returns an awaitable result.

        Synchronous up to the returned future, so pipelined frames
        enqueue in exactly the order their tasks were created — the
        per-connection FIFO the reply writer depends on.
        """
        item = _WaveItem(verb, op, trace, Future())
        with self._lock:
            self._pending.append(item)
            start = not self._draining
            if start:
                self._draining = True
        if start:
            self.executor.submit(self._drain)
        return asyncio.wrap_future(item.future)

    # -- shard worker thread -------------------------------------------------

    def _drain(self) -> None:
        while True:
            with self._lock:
                wave = self._pending[: self.batch_max]
                del self._pending[: self.batch_max]
                if not wave:
                    self._draining = False
                    return
            try:
                self._process(wave)
            except BaseException as exc:  # never strand a waiting client
                for item in wave:
                    if not item.future.done():
                        item.future.set_exception(exc)
            try:
                self.executor.submit(self._drain)
                return
            except RuntimeError:
                # Executor shutting down: finish the backlog inline so
                # every queued future still resolves.
                continue

    def _process(self, wave: "list[_WaveItem]") -> None:
        # The shard is looked up at drain time, so a post-split rebind
        # is always current.
        telemetry = self.service.telemetry
        if telemetry is not None and self.index < len(telemetry.shards):
            outcomes = telemetry.shards[self.index].run(wave)
        else:
            suite = self.service.directory.clusters[self.index].suite
            outcomes = suite.execute_batch([item.op for item in wave])
        for item, outcome in zip(wave, outcomes):
            if outcome.error is not None:
                item.future.set_exception(outcome.error)
            else:
                item.future.set_result(outcome.value)


class ServiceTelemetry:
    """The front door's live plane: windows, sketches, rings, membership.

    Owns one :class:`WindowedView` over the whole registry plus one
    :class:`_ShardTelemetry` per shard, and assembles the ``STATS`` /
    ``SLOW`` / ``METRICS`` replies.  Readers run on the transport's loop
    thread; every structure they touch is internally locked, so the
    admin verbs never block a shard's worker.
    """

    def __init__(
        self,
        directory: ShardedDirectory,
        *,
        window: float = 60.0,
        history: int = 600,
        ring_capacity: int = 512,
        slow_capacity: int = 128,
        hot_capacity: int = 8,
    ) -> None:
        transport = directory.transport
        self.directory = directory
        self.clock = transport.clock
        self.metrics = transport.metrics
        self.window = window
        self.view = WindowedView(
            self.metrics, self.clock.now, window=window, history=history
        )
        self._admin = self.metrics.counter("live.admin.requests")
        self._samples = self.metrics.counter("live.window.samples")
        self._recorded = self.metrics.counter("live.ops.recorded")
        self._shard_params = {
            "ring_capacity": ring_capacity,
            "slow_capacity": slow_capacity,
            "hot_capacity": hot_capacity,
            "latency_window": window,
        }
        self.shards = [
            self._make_shard(i, cluster)
            for i, cluster in enumerate(directory.clusters)
        ]

    def _make_shard(self, index: int, cluster: Any) -> _ShardTelemetry:
        return _ShardTelemetry(
            index,
            cluster,
            self.directory,
            self.clock.now,
            self._recorded,
            **self._shard_params,
        )

    def ensure_shard(self, index: int) -> None:
        """Instrument shards a live split added since construction.

        Loop-thread only (the single writer of :attr:`shards`); called
        after a migration completes, so rebinding the new cluster's
        tracer races nothing.
        """
        while len(self.shards) <= index:
            i = len(self.shards)
            self.shards.append(self._make_shard(i, self.directory.clusters[i]))

    def sample(self) -> float:
        """Take a registry sample for the windowed view."""
        self._samples.inc()
        return self.view.sample()

    def stats(self, window: float | None = None) -> dict[str, Any]:
        """The ``STATS`` reply body (takes a fresh sample first)."""
        self._admin.inc()
        if self.directory.resharder is None:
            # Quiescent: adopt any shard a completed split added.
            self.ensure_shard(len(self.directory.clusters) - 1)
        self.sample()
        rates = self.view.rates(window)
        per_shard: dict[str, Any] = {}
        total_ops = 0.0
        for shard in self.shards:
            name = f"s{shard.index}"
            suite = shard.cluster.suite
            ops_rate = rates.get(f"shard.routed.{name}")
            total_ops += ops_rate
            per_shard[name] = {
                "ops_per_s": ops_rate,
                "routed": self.directory.routed[shard.index],
                "err_per_s": rates.get(f"shard{shard.index}.live.ops.failed"),
                "latency": shard.latency.snapshot(),
                "hot_keys": [list(row) for row in shard.hot_keys.top()],
                "membership": {
                    rep: suite.membership.state(rep).value
                    for rep in sorted(shard.cluster.representatives)
                },
            }
        service = {
            "ops": self.metrics.counter("service.front.ops").value,
            "errors": self.metrics.counter("service.front.errors").value,
            "ops_per_s": rates.get("service.front.ops"),
            "err_per_s": rates.get("service.front.errors"),
            "rpc_per_s": rates.get("service.rpc.calls"),
            "rpc_err_per_s": rates.get("service.rpc.errors"),
            "retry_per_s": sum(
                r
                for n, r in rates.rates.items()
                if n.endswith("suite.retry.attempts")
            ),
        }
        return {
            "clock": self.clock.now(),
            "shards": len(self.shards),
            "epoch": self.directory.epoch,
            "reshard": self.directory.reshard_status(),
            "window_seconds": rates.elapsed,
            "ops_per_s": total_ops,
            "service": service,
            "per_shard": per_shard,
            "windows": dict(sorted(rates.rates.items())),
        }

    def slow(self, n: int = 10) -> list[dict[str, Any]]:
        """The ``SLOW n`` reply body: slowest recent ops across shards."""
        self._admin.inc()
        entries = [op for shard in self.shards for op in shard.slow.slowest(n)]
        entries.sort(key=lambda op: op.duration, reverse=True)
        return [op.to_dict() for op in entries[:n]]

    def snapshot(self) -> dict[str, Any]:
        """The ``METRICS`` reply body: the raw registry snapshot."""
        self._admin.inc()
        return self.metrics.snapshot()


def _reply_ok(result: Any) -> bytes:
    return protocol.encode_simple("OK")


def _reply_lookup(result: Any) -> bytes:
    present, value = result
    return protocol.encode_array(
        ["1" if present else "0", _text(value) if present else None]
    )


def _reply_get(result: Any) -> bytes:
    present, value = result
    return protocol.encode_bulk(_text(value) if present else None)


def _reply_count(result: Any) -> bytes:
    return protocol.encode_integer(result)


#: The keyed verbs, each described once: usage line (which also fixes
#: the arity), wave kind (:data:`repro.core.batch.OP_KINDS`), and reply
#: encoder for the op's result.
_VERBS: "dict[str, tuple[str, str, Callable[[Any], bytes]]]" = {
    "LOOKUP": ("LOOKUP key", "lookup", _reply_lookup),
    "INSERT": ("INSERT key value", "insert", _reply_ok),
    "UPDATE": ("UPDATE key value", "update", _reply_ok),
    "DELETE": ("DELETE key", "delete", _reply_ok),
    "GET": ("GET key", "lookup", _reply_get),
    "SET": ("SET key value", "upsert", _reply_ok),
    "DEL": ("DEL key", "remove", _reply_count),
}


class DirectoryService:
    """Serve a :class:`ShardedDirectory` over one loopback socket."""

    def __init__(
        self,
        directory: ShardedDirectory,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        live: bool = True,
        stats_window: float = 60.0,
        batching: bool = True,
        batch_max: int = 128,
        pipeline_depth: int = 512,
    ) -> None:
        transport = directory.transport
        if not hasattr(transport, "submit"):
            raise TypeError(
                "DirectoryService needs a directory on an AsyncioTransport "
                f"(got {type(transport).__name__})"
            )
        self.directory = directory
        self.transport = transport
        self.host = host
        self.port: int | None = port or None
        self._server: asyncio.AbstractServer | None = None
        self._links: set[asyncio.StreamWriter] = set()
        self._closed = False
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1: {batch_max}")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1: {pipeline_depth}")
        # ``batching=False`` is another way to write ``batch_max=1``:
        # one-op waves, each on the per-op path.
        self.batch_max = batch_max if batching else 1
        self.pipeline_depth = pipeline_depth
        self._executors = [
            ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"repro-shard{i}"
            )
            for i in range(len(directory.clusters))
        ]
        self._batchers = [
            _ShardBatcher(self, i, executor)
            for i, executor in enumerate(self._executors)
        ]
        metrics = transport.metrics
        self._ops = metrics.counter("service.front.ops")
        self._failures = metrics.counter("service.front.errors")
        self.telemetry = (
            ServiceTelemetry(directory, window=stats_window) if live else None
        )
        if self.telemetry is not None:
            # A boot-time baseline sample: the very first STATS request
            # already has something to difference against.
            self.telemetry.sample()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "DirectoryService":
        """Bind and listen; returns self with :attr:`port` resolved."""
        self.transport.submit(self._start())
        return self

    async def _start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve, host=self.host, port=self.port or 0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def close(self) -> None:
        """Stop listening and drop live connections (idempotent).

        Does *not* close the directory — the caller owns it.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.transport.submit(self._stop())
        except Exception:
            pass
        for executor in self._executors:
            executor.shutdown(wait=True)

    async def _stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._links):
            writer.close()

    def __enter__(self) -> "DirectoryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the serving loop ----------------------------------------------------

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: a pipelined reader plus an in-order replier.

        Frames are read continuously — up to ``pipeline_depth`` may be
        in flight per connection (the bounded queue is the back-
        pressure) — and each dispatches as its own task.  The replier
        awaits those tasks strictly in arrival order, so replies come
        back positionally even when ops complete out of order across
        shards.  Dispatch order is deterministic: each task's first
        synchronous segment runs in creation order and enqueues onto
        its shard's batcher before yielding, so same-connection ops on
        one shard keep their wire order.
        """
        self._links.add(writer)
        queue: "asyncio.Queue[asyncio.Task | None]" = asyncio.Queue(
            maxsize=self.pipeline_depth
        )
        replier = asyncio.ensure_future(self._write_replies(queue, writer))
        try:
            while True:
                try:
                    frame = await protocol.read_frame(reader)
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except (protocol.ProtocolError, ValueError) as exc:
                    # The stream is out of step and cannot be resynced:
                    # answer after the replies already owed, then close.
                    self._failures.inc()
                    slot = asyncio.get_running_loop().create_future()
                    slot.set_result(
                        protocol.encode_error("ERR", f"protocol: {exc}")
                    )
                    await queue.put(slot)
                    break
                await queue.put(asyncio.ensure_future(self._dispatch(frame)))
        finally:
            # EOF mid-pipeline: in-flight requests still execute and
            # their replies still flush (the write side may outlive the
            # read side of a half-closed socket).
            await queue.put(None)
            await replier
            self._links.discard(writer)
            writer.close()

    async def _write_replies(
        self, queue: "asyncio.Queue", writer: asyncio.StreamWriter
    ) -> None:
        broken = False
        while True:
            task = await queue.get()
            if task is None:
                return
            try:
                reply = await task
            except Exception as exc:  # _dispatch never raises; belt-and-braces
                reply = protocol.encode_error(
                    "ERR", f"internal {type(exc).__name__}: {exc}"
                )
            if broken:
                continue  # keep awaiting tasks so shard work resolves
            try:
                writer.write(reply)
                if queue.empty():
                    await writer.drain()  # coalesce flushes per burst
            except (ConnectionError, OSError):
                broken = True

    async def _dispatch(self, frame: Any) -> bytes:
        if (
            not isinstance(frame, list)
            or not frame
            or not all(isinstance(p, str) for p in frame)
        ):
            return protocol.encode_error("ERR", "expected a command array")
        self._ops.inc()
        # Trailing @-metadata (trace id, client epoch) is stripped before
        # arity checks; unknown or malformed fields are ignored, never
        # errors.
        parts, trace, epoch = protocol.split_meta_full(frame)
        if not parts:
            self._failures.inc()
            return protocol.encode_error("ERR", "expected a command array")
        command, args = parts[0].upper(), parts[1:]
        keyed = command in self._KEYED
        handler = self._COMMANDS.get(command)
        if handler is None and not keyed:
            self._failures.inc()
            return protocol.encode_error("ERR", f"unknown command {command!r}")
        try:
            if not keyed:
                reply = await handler(self, args, trace)
            else:
                if epoch is not None and args:
                    # The client told us which map it routed with; refuse
                    # the op (cheaply, on the loop) if the key has since
                    # moved.
                    self.directory.require_epoch(args[0], epoch)
                reply = await self._keyed(command, args, trace)
            if epoch is not None:
                reply = protocol.stamp_epoch(reply, self.directory.epoch)
            return reply
        except StaleEpochError as exc:
            # A redirect, not a failure: the client refreshes and retries.
            return protocol.encode_error("MOVED", str(exc.epoch))
        except _Arity as exc:
            self._failures.inc()
            return protocol.encode_error("ERR", str(exc))
        except KeyAlreadyPresentError as exc:
            return protocol.encode_error("KEYEXISTS", str(exc.key))
        except KeyNotPresentError as exc:
            return protocol.encode_error("NOTFOUND", str(exc.key))
        except (QuorumUnavailableError, NetworkError, TransactionError) as exc:
            self._failures.inc()
            return protocol.encode_error(
                "UNAVAILABLE", f"{type(exc).__name__}: {exc}"
            )
        except ReproError as exc:
            self._failures.inc()
            return protocol.encode_error(
                "ERR", f"{type(exc).__name__}: {exc}"
            )
        except Exception as exc:  # the connection survives server bugs too
            self._failures.inc()
            return protocol.encode_error(
                "ERR", f"internal {type(exc).__name__}: {exc}"
            )

    def _sync_shards(self) -> None:
        """Grow per-shard executors (and telemetry) after a split added
        clusters.  Loop-thread only — the sole writer of the lists."""
        while len(self._executors) < len(self.directory.clusters):
            i = len(self._executors)
            self._executors.append(
                ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"repro-shard{i}"
                )
            )
            self._batchers.append(
                _ShardBatcher(self, i, self._executors[i])
            )
            if self.telemetry is not None:
                self.telemetry.ensure_shard(i)

    async def _keyed(self, verb: str, args: list[str], trace: Any) -> bytes:
        """Every keyed verb: one op onto its shard's wave queue."""
        usage, kind, reply = _VERBS[verb]
        _expect(args, usage.count(" "), usage)
        key = args[0]
        index = self.directory.shard_for(key)
        if index >= len(self._batchers):
            # The current epoch routes to a shard a live split just
            # added; adopt it before dispatching (post-cutover, so the
            # new cluster is no longer being written by the migration).
            self._sync_shards()
        op = BatchOp(kind, key, args[1] if len(args) > 1 else None)
        return reply(await self._batchers[index].submit(verb, op, trace))

    # -- command handlers ----------------------------------------------------

    async def _cmd_ping(self, args: list[str], trace: Any) -> bytes:
        _expect(args, 0, "PING")
        return protocol.encode_simple("PONG")

    async def _cmd_size(self, args: list[str], trace: Any) -> bytes:
        _expect(args, 0, "SIZE")
        loop = asyncio.get_running_loop()
        totals = await asyncio.gather(
            *(
                loop.run_in_executor(
                    self._executors[i], cluster.suite.size
                )
                for i, cluster in enumerate(self.directory.clusters)
            )
        )
        return protocol.encode_integer(sum(totals))

    async def _cmd_shards(self, args: list[str], trace: Any) -> bytes:
        _expect(args, 0, "SHARDS")
        return protocol.encode_integer(len(self.directory.clusters))

    def _require_live(self) -> ServiceTelemetry:
        if self.telemetry is None:
            raise ReproError("live telemetry is disabled on this server")
        return self.telemetry

    async def _cmd_stats(self, args: list[str], trace: Any) -> bytes:
        if len(args) > 1:
            raise _Arity("usage: STATS [window-seconds]")
        window: float | None = None
        if args:
            try:
                window = float(args[0])
            except ValueError:
                raise _Arity("usage: STATS [window-seconds]") from None
        telemetry = self._require_live()
        return protocol.encode_bulk(
            json.dumps(telemetry.stats(window), default=str)
        )

    async def _cmd_slow(self, args: list[str], trace: Any) -> bytes:
        if len(args) > 1:
            raise _Arity("usage: SLOW [n]")
        n = 10
        if args:
            try:
                n = int(args[0])
            except ValueError:
                raise _Arity("usage: SLOW [n]") from None
            if n < 1:
                raise _Arity("usage: SLOW [n]")
        telemetry = self._require_live()
        return protocol.encode_bulk(json.dumps(telemetry.slow(n), default=str))

    async def _cmd_metrics(self, args: list[str], trace: Any) -> bytes:
        _expect(args, 0, "METRICS")
        telemetry = self._require_live()
        return protocol.encode_bulk(
            json.dumps(telemetry.snapshot(), default=str)
        )

    async def _cmd_rejoin(self, args: list[str], trace: Any) -> bytes:
        _expect(args, 1, "REJOIN [s<i>/]replica")
        prefix, _, replica = args[0].rpartition("/")
        try:
            index = int(prefix.lstrip("s")) if prefix else 0
        except ValueError:
            return protocol.encode_error(
                "ERR", f"bad shard prefix {prefix!r} (want s<i>/replica)"
            )
        if not 0 <= index < len(self.directory.clusters):
            return protocol.encode_error("ERR", f"no shard {index}")
        cluster = self.directory.clusters[index]
        if replica not in cluster.representatives:
            return protocol.encode_error(
                "ERR",
                f"unknown replica {replica!r} on shard {index} "
                f"(have {sorted(cluster.representatives)})",
            )

        def rejoin() -> str:
            from repro.repl import ReplicaJoin

            join = ReplicaJoin(
                cluster,
                replica,
                detector=getattr(cluster.suite, "_detector", None),
            )
            join.run()
            return cluster.suite.membership.state(replica).name

        loop = asyncio.get_running_loop()
        state = await loop.run_in_executor(self._executors[index], rejoin)
        return protocol.encode_simple(state)

    async def _cmd_shardmap(self, args: list[str], trace: Any) -> bytes:
        _expect(args, 0, "SHARDMAP")
        shard_map = self.directory.shard_map
        boundaries = getattr(shard_map, "boundaries", None)
        body = {
            "epoch": shard_map.epoch,
            "shards": len(self.directory.clusters),
            "describe": shard_map.describe(),
            "kind": "range" if boundaries is not None else "hash",
            "boundaries": boundaries,
            "owners": getattr(shard_map, "owners", None),
        }
        return protocol.encode_bulk(json.dumps(body, default=str))

    async def _cmd_reshard(self, args: list[str], trace: Any) -> bytes:
        usage = "RESHARD SPLIT boundary | RESHARD STATUS"
        if not args:
            raise _Arity(f"usage: {usage}")
        sub = args[0].upper()
        if sub == "STATUS":
            _expect(args, 1, "RESHARD STATUS")
            return protocol.encode_bulk(
                json.dumps(self.directory.reshard_status(), default=str)
            )
        if sub != "SPLIT":
            raise _Arity(f"usage: {usage}")
        _expect(args, 2, "RESHARD SPLIT boundary")
        boundary = args[1]
        directory = self.directory
        # The migration runs on the SOURCE shard's worker thread, one
        # phase per hop, so it serializes against that shard's client
        # ops (no torn copies) while every other shard keeps serving.
        source = directory.shard_for(boundary)
        loop = asyncio.get_running_loop()
        executor = self._executors[source]
        resharder = await loop.run_in_executor(
            executor, directory.begin_split, boundary
        )
        while not resharder.done:
            await loop.run_in_executor(executor, resharder.step)
        self._sync_shards()
        body: dict[str, Any] = {"epoch": directory.epoch, "done": True}
        if directory.reshard_log:
            body.update(directory.reshard_log[-1].summary())
        return protocol.encode_bulk(json.dumps(body, default=str))

    #: Commands whose first argument is a key — the ones an ``@epoch=``
    #: stamp gates through ``require_epoch``.
    _KEYED = frozenset(_VERBS)

    _COMMANDS = {
        "PING": _cmd_ping,
        "SIZE": _cmd_size,
        "SHARDS": _cmd_shards,
        "REJOIN": _cmd_rejoin,
        "STATS": _cmd_stats,
        "SLOW": _cmd_slow,
        "METRICS": _cmd_metrics,
        "SHARDMAP": _cmd_shardmap,
        "RESHARD": _cmd_reshard,
    }


class _Arity(ReproError):
    """Wrong number of arguments for a front-door command."""


def _expect(args: list[str], n: int, usage: str) -> None:
    if len(args) != n:
        raise _Arity(f"usage: {usage}")


def _text(value: Any) -> str:
    """Stored values go back out as text (the front door stores strings)."""
    return value if isinstance(value, str) else repr(value)

