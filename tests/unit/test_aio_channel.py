"""The internal RPC channel of :class:`repro.service.aio.AsyncioTransport`.

One multiplexed link per node carries every call: a fixed header (body
length, request id, kind) then the body.  These tests drive a bare
transport hosting a toy service, through the transport's own client
side and through raw sockets that speak the frame format by hand.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading

import pytest

from repro.core.errors import (
    KeyAlreadyPresentError,
    NodeDownError,
    RpcTimeoutError,
    WouldBlockError,
)
from repro.net.rpc import RpcCall
from repro.service import aio, wire
from repro.service.protocol import MAX_FRAME

NODE = "n0"


class Toy:
    def echo(self, value, suffix=""):
        return f"{value}{suffix}"

    def hold(self):
        return "held"

    def clash(self, key):
        raise KeyAlreadyPresentError(key)

    def blocked(self, txn, blockers):
        raise WouldBlockError(txn, tuple(blockers))


@pytest.fixture()
def transport():
    t = aio.AsyncioTransport(rpc_timeout=5.0)
    t.ensure_node(NODE)
    t.host(NODE, "toy", Toy())
    yield t
    t.close()


def _call(transport, method, *args, timeout=None, **kwargs):
    return transport.submit(
        transport.call_async(NODE, "toy", method, args, kwargs, timeout=timeout)
    )


def _request(rid, method, *args, **kwargs):
    payload = wire.dump([[wire.encode_value(a) for a in args], kwargs])
    return aio._frame(rid, aio.CALL, f"toy\0{method}\0{payload}".encode())


def _read_replies(sock, n):
    """``n`` reply frames as ``(rid, kind, decoded body)``."""
    replies, buffer = [], b""
    while len(replies) < n:
        chunk = sock.recv(65536)
        assert chunk, "link closed before every reply arrived"
        buffer += chunk
        while len(buffer) >= aio.HEADER.size:
            size, rid, kind = aio.HEADER.unpack_from(buffer)
            end = aio.HEADER.size + size
            if len(buffer) < end:
                break
            replies.append((rid, kind, wire.load(buffer[aio.HEADER.size:end])))
            buffer = buffer[end:]
    return replies


def _hold_replies(transport, monkeypatch):
    """Make the node swallow ``hold`` requests; returns the held rids."""
    node = transport._nodes[NODE]
    held = []
    dispatch = node.dispatch

    def swallowing(rid, body):
        if b"\0hold\0" in body:
            held.append(rid)
            return b""
        return dispatch(rid, body)

    monkeypatch.setattr(node, "dispatch", swallowing)
    return held


class _Sink:
    """A stand-in transport that keeps what a link writes."""

    def __init__(self):
        self.written = bytearray()

    def write(self, data):
        self.written += data


def _feed(stream, step):
    """Feed ``stream`` to a fresh link ``step`` bytes at a time; returns
    what it wrote back, how its pending calls resolved, and its buffer."""
    loop = asyncio.new_event_loop()
    try:
        node = aio._AioNode(NODE)
        node.services["toy"] = Toy()
        link = aio._Link(node, loop)
        sink = _Sink()
        link.connection_made(sink)
        futures = {rid: loop.create_future() for rid in (101, 102)}
        link.pending.update(futures)
        for i in range(0, len(stream), step):
            link.data_received(stream[i:i + step])
        resolved = {rid: f.result() for rid, f in futures.items()}
        return bytes(sink.written), resolved, bytes(link._buffer)
    finally:
        loop.close()


class TestFraming:
    def test_parser_is_chunking_blind(self):
        """Calls and replies interleaved on one stream parse the same
        whether the bytes come one at a time or all in one chunk."""
        stream = (
            _request(1, "echo", "a")
            + aio._frame(101, aio.OK, b'"r1"')
            + _request(2, "echo", "b", suffix="?")
            + aio._frame(102, aio.APPERR, b'["KeyAlreadyPresentError",["k"]]')
            + _request(3, "echo", "c")
        )
        dripped, whole = _feed(stream, 1), _feed(stream, len(stream))
        assert dripped == whole
        written, resolved, rest = whole
        assert written == b"".join(
            aio._frame(rid, aio.OK, body)
            for rid, body in ((1, b'"a"'), (2, b'"b?"'), (3, b'"c"'))
        )
        assert resolved == {
            101: (aio.OK, b'"r1"'),
            102: (aio.APPERR, b'["KeyAlreadyPresentError",["k"]]'),
        }
        assert rest == b""

    def test_server_answers_dripped_and_chunked_requests_alike(self, transport):
        node = transport._nodes[NODE]
        requests = [_request(rid, "echo", f"v{rid}", suffix="!") for rid in (7, 8, 9)]
        stream = b"".join(requests)
        with socket.create_connection((transport.host_addr, node.port)) as sock:
            for i in range(len(stream)):
                sock.sendall(stream[i:i + 1])
            dripped = _read_replies(sock, 3)
            sock.sendall(stream)
            chunked = _read_replies(sock, 3)
        assert dripped == chunked
        assert dripped == [(rid, aio.OK, f"v{rid}!") for rid in (7, 8, 9)]

    def test_oversized_length_closes_the_link(self, transport):
        node = transport._nodes[NODE]
        with socket.create_connection((transport.host_addr, node.port)) as sock:
            sock.settimeout(5.0)
            sock.sendall(aio.HEADER.pack(MAX_FRAME + 1, 1, aio.CALL) + b"x" * 64)
            assert sock.recv(1024) == b""
        # The transport's own link is untouched.
        assert _call(transport, "echo", "still") == "still"


class TestTimeouts:
    def test_timeout_keeps_the_link_and_drops_the_late_reply(
        self, transport, monkeypatch
    ):
        node = transport._nodes[NODE]
        link = node.link
        held = _hold_replies(transport, monkeypatch)
        with pytest.raises(RpcTimeoutError) as info:
            _call(transport, "hold", timeout=0.2)
        assert "toy.hold" in str(info.value)
        assert node.link is link and not link.pending
        # The reply finally arrives for the expired id: it is dropped,
        # and the next call on the same link gets its own answer.
        (rid,) = held
        (node_end,) = node.transports - {link.transport}
        transport.loop.call_soon_threadsafe(
            node_end.write, aio._frame(rid, aio.OK, b'"late"')
        )
        assert _call(transport, "echo", "next") == "next"
        assert node.link is link and not link.pending
        assert transport.metrics.counter("service.rpc.errors").value == 1


class TestLostLink:
    def test_close_fails_in_flight_calls_and_next_call_reconnects(
        self, transport, monkeypatch
    ):
        node = transport._nodes[NODE]
        link = node.link
        _hold_replies(transport, monkeypatch)

        async def in_flight():
            calls = [
                transport.call_async(NODE, "toy", "hold", (), {})
                for _ in range(3)
            ]
            transport.loop.call_later(0.1, link.transport.close)
            return await asyncio.gather(*calls, return_exceptions=True)

        outcomes = transport.submit(in_flight())
        assert [type(o) for o in outcomes] == [NodeDownError] * 3
        assert _call(transport, "echo", "again") == "again"
        assert node.link is not None and node.link is not link


class TestScatter:
    def test_wide_scatter_is_one_handoff_on_one_connection(
        self, monkeypatch
    ):
        accepted = []
        made = aio._Link.connection_made

        def counting(self, t):
            accepted.append(t)
            made(self, t)

        monkeypatch.setattr(aio._Link, "connection_made", counting)
        transport = aio.AsyncioTransport()
        try:
            transport.ensure_node(NODE)
            transport.host(NODE, "toy", Toy())
            endpoint = transport.endpoint("client")
            handoffs = []
            handoff = asyncio.run_coroutine_threadsafe

            def counting_handoff(coro, loop):
                handoffs.append(coro)
                return handoff(coro, loop)

            monkeypatch.setattr(
                asyncio, "run_coroutine_threadsafe", counting_handoff
            )
            batch = endpoint.scatter(
                [RpcCall(NODE, "toy", "echo", (i,)) for i in range(64)]
            )
            monkeypatch.setattr(asyncio, "run_coroutine_threadsafe", handoff)
            assert [r.value for r in batch.replies] == [str(i) for i in range(64)]
            assert all(r.error is None and r.attempts == 1 for r in batch.replies)
            assert len(handoffs) == 1
            assert len(accepted) == 2  # the two ends of one connection
            assert transport.metrics.counter("service.rpc.calls").value == 64
        finally:
            transport.close()


    def test_concurrent_scatters_get_their_own_replies(self, transport):
        """Many threads multiplexing onto one link: every reply reaches
        the call that asked for it, by request id."""
        endpoint = transport.endpoint("client")
        wrong, done = [], []

        def worker(w):
            for i in range(40):
                values = [f"{w}.{i}.{j}" for j in range(8)]
                batch = endpoint.scatter(
                    [RpcCall(NODE, "toy", "echo", (v,)) for v in values]
                )
                got = [r.value for r in batch.replies]
                if got != values:
                    wrong.append((values, got))
            done.append(w)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == list(range(6)) and wrong == []
        assert len(transport._nodes[NODE].transports) == 2  # one connection


class TestErrorRoundTrip:
    def test_key_already_present_keeps_its_key(self, transport):
        endpoint = transport.endpoint("client")
        with pytest.raises(KeyAlreadyPresentError) as info:
            endpoint.call(NODE, "toy", "clash", "k7")
        assert info.value.key == "k7"

    def test_would_block_keeps_its_blockers(self, transport):
        endpoint = transport.endpoint("client")
        with pytest.raises(WouldBlockError) as info:
            endpoint.call(NODE, "toy", "blocked", "t1", ["t0", "t2"])
        assert info.value.txn_id == "t1"
        assert tuple(info.value.blockers) == ("t0", "t2")

    def test_crashed_node_answers_node_down(self, transport):
        link = transport._nodes[NODE].link
        transport.crash(NODE)
        try:
            # The node end refuses too, not only the caller-side check.
            kind, _ = transport.submit(
                link.call(b"toy\0echo\0[[1],{}]", 5.0, "toy.echo")
            )
            assert kind == aio.NODEDOWN
            with pytest.raises(NodeDownError):
                _call(transport, "echo", 1)
        finally:
            transport.recover(NODE)
        assert _call(transport, "echo", 1) == "1"
