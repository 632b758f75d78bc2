"""End-to-end coverage of the pipelined wire protocol.

The redesign lets one connection keep many requests in flight; the
server must read frames continuously, keep replies strictly in request
order, and fail a mid-burst slot (``-MOVED``, ``-UNAVAILABLE``, logical
errors) without poisoning its neighbours.  These tests drive the real
asyncio front door three ways:

* raw sockets — framing edge cases the client would never emit on its
  own: writes split mid-frame, metadata interleaved per request, EOF
  with replies still owed;
* the redesigned client API — ``pipeline()`` on both the async-first
  client and its blocking wrapper, per-slot results and errors;
* a reshard cutover interleaved with a pipelined burst — the regression
  for the stale-epoch case: only the moved slots chase ``-MOVED``, and
  the burst as a whole still succeeds;
* the wave queue itself — a seeded replay against a batched service and
  a ``batching=False`` control must leave identical state, and one op
  that raises inside a wave fails only its own slot.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time

import pytest

from repro.cluster import ClusterSpec
from repro.core.errors import KeyAlreadyPresentError, KeyNotPresentError
from repro.service.client import (
    AsyncDirectoryClient,
    DirectoryClient,
)
from repro.service.protocol import ReplyError, encode_command, read_frame_sync
from repro.service.server import DirectoryService
from repro.shard.maps import RangeShardMap
from repro.shard.sharded import ShardedDirectory


@pytest.fixture()
def service():
    spec = ClusterSpec(
        config="3-2-2", seed=17, transport="asyncio", fanout="parallel"
    )
    with ShardedDirectory.create(
        spec, shards=2, shard_map=RangeShardMap(["m"])
    ) as d:
        with DirectoryService(d).start() as svc:
            yield svc


def _connect(service):
    sock = socket.create_connection((service.host, service.port))
    return sock, sock.makefile("rb")


class TestRawFraming:
    def test_burst_replies_in_request_order(self, service):
        sock, reader = _connect(service)
        try:
            burst = b"".join(
                encode_command("SET", f"k{i}", f"v{i}") for i in range(20)
            ) + b"".join(encode_command("GET", f"k{i}") for i in range(20))
            sock.sendall(burst)
            for _ in range(20):
                assert read_frame_sync(reader) == "OK"
            for i in range(20):
                assert read_frame_sync(reader) == f"v{i}"
        finally:
            sock.close()

    def test_partial_writes_split_mid_frame(self, service):
        """The reader must tolerate frames arriving one byte at a time
        and across arbitrary chunk boundaries — TCP guarantees nothing
        about write/read alignment."""
        sock, reader = _connect(service)
        try:
            burst = b"".join(
                encode_command("SET", f"p{i}", f"w{i}") for i in range(6)
            )
            # Drip the first two frames byte by byte...
            split = len(encode_command("SET", "p0", "w0")) * 2
            for i in range(split):
                sock.sendall(burst[i : i + 1])
            # ...then the rest in chunks that straddle frame boundaries.
            rest = burst[split:]
            for start in range(0, len(rest), 7):
                sock.sendall(rest[start : start + 7])
            for _ in range(6):
                assert read_frame_sync(reader) == "OK"
            sock.sendall(encode_command("GET", "p5"))
            assert read_frame_sync(reader) == "w5"
        finally:
            sock.close()

    @pytest.mark.parametrize(
        "garbage, detail",
        [
            (b"PING\r\n", "unknown frame type"),
            (b"$99999999999\r\n", "length out of range"),
            (b"*x\r\n", "invalid literal"),
        ],
        ids=["unknown-type", "length-out-of-range", "non-integer-length"],
    )
    def test_malformed_frame_answers_err_then_closes(
        self, service, garbage, detail
    ):
        """A frame the parser rejects is answered ``-ERR protocol: ...``
        after the replies already owed, counted as a front-door error,
        and the connection closes; the server keeps serving."""
        errors = service.transport.metrics.counter("service.front.errors")
        before = errors.value
        sock, reader = _connect(service)
        try:
            sock.sendall(encode_command("SET", "g1", "ok") + garbage)
            assert read_frame_sync(reader) == "OK"
            reply = read_frame_sync(reader)
            assert isinstance(reply, ReplyError)
            assert reply.code == "ERR"
            assert reply.detail.startswith("protocol: ")
            assert detail in reply.detail
            with pytest.raises(ConnectionError):
                read_frame_sync(reader)
        finally:
            sock.close()
        assert errors.value == before + 1
        with DirectoryClient(service.host, service.port) as c:
            assert c.get("g1") == "ok"

    def test_interleaved_trace_and_epoch_metadata(self, service):
        """Per-request ``@trace=`` / ``@epoch=`` stamps must not shift
        positional reply alignment: only the requests that stamped an
        epoch get an epoch-stamped reply."""
        sock, reader = _connect(service)
        try:
            sock.sendall(
                encode_command("SET", "ma", "1", "@trace=t-0")
                + encode_command("SET", "mb", "2", "@epoch=0")
                + encode_command("GET", "ma", "@trace=t-1", "@epoch=0")
                + encode_command("GET", "mb")
            )
            assert read_frame_sync(reader) == "OK"  # traced, unstamped
            assert read_frame_sync(reader) == "OK @epoch=0"
            # A bulk GET reply has no room for metadata: value only.
            assert read_frame_sync(reader) == "1"
            assert read_frame_sync(reader) == "2"
        finally:
            sock.close()

    def test_eof_mid_pipeline_flushes_owed_replies(self, service):
        """Half-closing the write side with replies still owed must not
        drop them: the server finishes the in-flight requests, writes
        every reply, then closes."""
        sock, reader = _connect(service)
        try:
            n = 12
            sock.sendall(
                b"".join(
                    encode_command("SET", f"e{i}", f"x{i}") for i in range(n)
                )
            )
            sock.shutdown(socket.SHUT_WR)
            for _ in range(n):
                assert read_frame_sync(reader) == "OK"
            with pytest.raises(ConnectionError):
                read_frame_sync(reader)
        finally:
            sock.close()
        # The writes all committed despite the early EOF.
        with DirectoryClient(service.host, service.port) as c:
            for i in range(n):
                assert c.get(f"e{i}") == f"x{i}"


class TestClientPipeline:
    def test_set_then_get_same_key_orders(self, service):
        with DirectoryClient(service.host, service.port) as c:
            with c.pipeline() as pipe:
                first = pipe.set("k", "v1")
                read1 = pipe.get("k")
                pipe.set("k", "v2")
                read2 = pipe.get("k")
            assert first.result() is None
            assert read1.result() == "v1"
            assert read2.result() == "v2"

    def test_per_slot_errors_stay_in_their_slot(self, service):
        with DirectoryClient(service.host, service.port) as c:
            c.insert("taken", "old")
            with c.pipeline() as pipe:
                bad = pipe.insert("taken", "new")
                good = pipe.insert("fresh", "yes")
                miss = pipe.update("ghost", "no")
                read = pipe.get("taken")
            assert isinstance(bad.error, KeyAlreadyPresentError)
            assert good.result() is None
            assert isinstance(miss.error, KeyNotPresentError)
            assert read.result() == "old"  # the failed insert changed nothing
            with pytest.raises(KeyAlreadyPresentError):
                bad.result()

    def test_result_before_flush_raises(self, service):
        with DirectoryClient(service.host, service.port) as c:
            pipe = c.pipeline()
            handle = pipe.get("k")
            assert not handle.done
            with pytest.raises(RuntimeError):
                handle.result()
            pipe.flush()
            assert handle.done

    def test_pipeline_reusable_after_flush(self, service):
        with DirectoryClient(service.host, service.port) as c:
            with c.pipeline() as pipe:
                pipe.set("r", "1")
                results = pipe.flush()
                assert len(results) == 1 and results[0].ok
                again = pipe.get("r")
            assert again.result() == "1"

    def test_async_client_pipeline(self, service):
        async def drive():
            async with await AsyncDirectoryClient.connect(
                service.host, service.port
            ) as c:
                async with c.pipeline() as pipe:
                    pipe.set("a", "1")
                    read = pipe.get("a")
                    absent = pipe.get("nope")
                return read.result(), absent.result()

        assert asyncio.new_event_loop().run_until_complete(drive()) == (
            "1",
            None,
        )


class TestMovedMidBurst:
    """Satellite regression: reshard cutover interleaved with a burst."""

    def test_moved_slot_fails_alone_and_burst_recovers(self, service):
        with DirectoryClient(service.host, service.port) as fresh:
            for i in range(16):
                fresh.set(f"key{i:02d}", f"v{i}")
            stale = DirectoryClient(service.host, service.port)
            try:
                assert stale.get("key00") == "v0"  # caches epoch 0
                assert stale.epoch == 0
                # Queue a burst spanning both sides of the cut, then
                # reshard *before* the flush: the burst goes out with
                # the stale epoch stamped.
                pipe = stale.pipeline()
                handles = [pipe.get(f"key{i:02d}") for i in range(16)]
                extra = pipe.set("key09", "patched")
                fresh.reshard("key08")  # key08.. move to a new shard
                pipe.flush()
                # Every slot resolved — moved ones chased -MOVED on
                # their own, unmoved ones were answered first try.
                for i, handle in enumerate(handles):
                    assert handle.result() == f"v{i}", i
                assert extra.result() is None
                assert stale.epoch == 1  # refreshed mid-burst
                assert stale.get("key09") == "patched"
            finally:
                stale.close()

    def test_raw_stale_epoch_sees_moved_only_for_moved_keys(self, service):
        with DirectoryClient(service.host, service.port) as admin:
            admin.set("aaa", "left")
            admin.set("zzz", "right")
            admin.reshard("q")  # epoch 0 -> 1; keys >= "q" move
        sock, reader = _connect(service)
        try:
            sock.sendall(
                encode_command("GET", "aaa", "@epoch=0")
                + encode_command("GET", "zzz", "@epoch=0")
                + encode_command("GET", "aaa", "@epoch=1")
            )
            # Bulk replies carry no epoch stamp; the stale slot alone
            # fails, and the connection keeps serving afterwards.
            assert read_frame_sync(reader) == "left"
            moved = read_frame_sync(reader)
            assert isinstance(moved, ReplyError) and moved.code == "MOVED"
            assert read_frame_sync(reader) == "left"
        finally:
            sock.close()


def _waves(directory):
    """Grouped runs the directory's suites have executed."""
    return sum(
        row["n"]
        for name, row in directory.transport.metrics.snapshot().items()
        if name.endswith("suite.batch.size") and isinstance(row, dict)
    )


class TestWaveQueue:
    def _replay(self, script, **options):
        spec = ClusterSpec(
            config="3-2-2", seed=7, transport="asyncio", fanout="parallel"
        )
        with ShardedDirectory.create(spec, shards=2, shard_map="hash") as d:
            with DirectoryService(d, **options).start() as svc:
                with DirectoryClient(svc.host, svc.port) as c:
                    replies = []
                    for start in range(0, len(script), 32):
                        with c.pipeline() as pipe:
                            handles = [
                                getattr(pipe, verb)(*args)
                                for verb, *args in script[start : start + 32]
                            ]
                        replies.extend(h.result() for h in handles)
            return {
                "replies": replies,
                "state": d.authoritative_state(),
                "violations": d.make_auditor().run().violations,
                "waves": _waves(d),
            }

    def test_batched_equals_control(self):
        """A seeded pipelined SET/GET/DEL replay leaves the same replies
        and state at ``batch_max=128`` as on a ``batching=False``
        control, both audit clean, and only the batched side groups."""
        rng = random.Random(99)
        script = []
        for _ in range(400):
            key = f"c{rng.randrange(40)}"
            roll = rng.random()
            if roll < 0.45:
                script.append(("set", key, f"v{rng.randrange(1000)}"))
            elif roll < 0.85:
                script.append(("get", key))
            else:
                script.append(("remove", key))
        batched = self._replay(script, batch_max=128)
        control = self._replay(script, batching=False)
        assert batched["replies"] == control["replies"]
        assert batched["state"] == control["state"]
        assert batched["violations"] == [] and control["violations"] == []
        assert batched["waves"] > 0
        assert control["waves"] == 0

    def test_raising_op_fails_only_its_own_slot(self, service, monkeypatch):
        """An op that raises a non-ReproError answers ``-ERR`` in its
        own slot; its neighbours in the same wave — grouped runs on
        either side of it — still succeed."""
        suite = service.directory.clusters[0].suite
        real_delete = suite.delete

        def delete(key):
            if key == "boom":
                raise RuntimeError("injected")
            return real_delete(key)

        monkeypatch.setattr(suite, "delete", delete)
        # Hold the shard's worker so the whole burst drains as one wave.
        gate = threading.Event()
        service._executors[0].submit(gate.wait)
        waves = suite._batch_size.n
        sock, reader = _connect(service)
        sock.settimeout(30)
        try:
            sock.sendall(
                encode_command("SET", "a", "1")
                + encode_command("SET", "b", "2")
                + encode_command("DEL", "boom")
                + encode_command("GET", "a")
                + encode_command("GET", "b")
            )
            deadline = time.monotonic() + 10
            while len(service._batchers[0]._pending) < 5:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            gate.set()
            replies = [read_frame_sync(reader) for _ in range(5)]
        finally:
            gate.set()
            sock.close()
        assert replies[:2] == ["OK", "OK"]
        assert isinstance(replies[2], ReplyError)
        assert replies[2].code == "ERR" and "RuntimeError" in str(replies[2])
        assert replies[3:] == ["1", "2"]
        assert suite._batch_size.n == waves + 2  # both runs grouped
