"""The directory service benchmark: one workload, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipelined --seed 1 --seconds 10 --trace 0

The server is ``DirectoryService`` over ``ShardedDirectory`` with the
``repro serve`` defaults, in its own process (``launcher.py``), so the
load generator never shares the server's interpreter lock.  This process
generates the load over two connections (the machine has two cores), in
a closed loop over uniformly drawn keys.  Each connection owns half of the keys, so
its client-side model of those keys is exact: every reply is checked
against it, and after the run the server audits every shard against the
merged model.

Set-up (server start, preload of every key, warm-up) is timed; with
``--trace 0`` it is repeated ``SETUPS`` times and ``setup_s`` is the
median, then the end-to-end metrics are measured on the last set-up.
The timed window is cut into slices of ``SLICE`` seconds; throughput
and server CPU per op are the medians over the slices, so a few seconds
in which the host runs slow do not move them.  With ``--trace 1`` the
run's seconds are split between an untraced window and a window on a
second server with the layer wrappers (``layers.py``) installed; the
per-layer metrics come from the traced window and
``trace.overhead_frac`` from the throughput gap between the two.

The last line of standard output is the JSON result; the lines before
it list every metric with its unit, and for each per-layer metric the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import NEIGHBOR_CALLS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Client connections; the machine has two cores.
CONNECTIONS = 2
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Warm-up operations per connection after the preload.
WARMUP_OPS = 256
#: Keys written per pipelined burst while preloading.
PRELOAD_BURST = 128
#: Length of one slice of the timed window, seconds; throughput and
#: server CPU per op are medians over the window's slices.
SLICE = 5.0
#: How long to wait for the server to answer a control request.
CONTROL_TIMEOUT = 60.0

LOOP_THREAD = "repro-aio-transport"
SHARD_THREAD = "repro-shard"


@dataclass(frozen=True)
class Workload:
    keys: int
    set_frac: float
    get_frac: float
    burst: int  # ops per pipelined flush
    why: str


WORKLOADS = {
    "pipelined": Workload(
        4096, 0.3, 0.6, 32,
        "bursts of 32 form waves; the transport loop is the bottleneck",
    ),
    "delete-churn": Workload(
        256, 0.4, 0.2, 32,
        "deletes walk to real neighbours and coalesce, split waves, and "
        "repeated keys chain versions in the fold",
    ),
}

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "server_cpu_ms_per_op": "ms",
    "setup_s": "s",
}

_PIPE = ("pipelined", "delete-churn")
#: Per-layer metrics: name -> (unit, the end-to-end metric and workloads
#: a change to that layer should move).
PER_LAYER = {
    "server.loop_busy_frac": ("frac", "throughput_ops_s", _PIPE),
    "server.loop_cpu_us_per_op": ("us", "throughput_ops_s", _PIPE),
    "server.shard_busy_frac_max": ("frac", "throughput_ops_s", _PIPE),
    "server.process_busy_frac": ("frac", "throughput_ops_s", _PIPE),
    "server.loop_lag_ms_p50": ("ms", "throughput_ops_s", _PIPE),
    "server.loop_lag_ms_p99": ("ms", "throughput_ops_s", _PIPE),
    "server.loop_unattributed_frac": ("frac", "throughput_ops_s", _PIPE),
    "protocol.self_us_per_op": ("us", "throughput_ops_s", ("pipelined",)),
    "protocol.calls_per_op": ("count", "throughput_ops_s", ("pipelined",)),
    "wire.self_us_per_op": ("us", "throughput_ops_s", ("pipelined",)),
    "wire.bytes_per_op": ("bytes", "throughput_ops_s", ("pipelined",)),
    "aio.rounds_per_op": ("count", "latency_p50_ms", ("delete-churn",)),
    "aio.round_wait_ms_p50": ("ms", "latency_p50_ms", ("delete-churn",)),
    "aio.rpcs_per_op": ("count", "latency_p50_ms", ("delete-churn",)),
    "aio.rpc_ms_p50": ("ms", "latency_p50_ms", ("delete-churn",)),
    "aio.rpc_ms_p99": ("ms", "latency_p50_ms", ("delete-churn",)),
    "suite.calls_per_op": ("count", "throughput_ops_s", ("pipelined",)),
    "suite.self_us_per_op": ("us", "latency_p50_ms", ("delete-churn",)),
    "suite.txn_ms_p50": ("ms", "latency_p50_ms", ("delete-churn",)),
    "suite.quorum_selections_per_op": (
        "count", "throughput_ops_s", ("pipelined",),
    ),
    "batch.ops_per_wave": ("count", "throughput_ops_s", ("pipelined",)),
    "batch.fallbacks_per_kop": ("count", "throughput_ops_s", ("pipelined",)),
    "rep.self_us_per_op": ("us", "throughput_ops_s", ("delete-churn",)),
    "rep.calls_per_op": ("count", "throughput_ops_s", ("delete-churn",)),
    "rep.neighbor_calls_per_del": (
        "count", "throughput_ops_s", ("delete-churn",),
    ),
    "twopc.commits_per_op": ("count", "latency_p50_ms", ("delete-churn",)),
    "twopc.ms_p50": ("ms", "latency_p50_ms", ("delete-churn",)),
    "locks.acquires_per_op": ("count", "latency_p50_ms", ("delete-churn",)),
    "locks.self_us_per_op": ("us", "latency_p50_ms", ("delete-churn",)),
    "store.self_us_per_op": ("us", "throughput_ops_s", ("delete-churn",)),
    "wal.appends_per_op": ("count", "throughput_ops_s", ("delete-churn",)),
    "wal.self_us_per_op": ("us", "throughput_ops_s", ("delete-churn",)),
    "shard.route_us_per_op": ("us", "none (control)", ()),
    "client.cpu_us_per_op": ("us", "none (generator cost)", ()),
    "client.latency_samples": ("count", "none (sample count)", ()),
    "trace.overhead_frac": ("frac", "none (tracing cost)", ()),
}


# -- the server process -------------------------------------------------------


class Server:
    """``launcher.py`` in a child process, controlled over its pipes."""

    def __init__(self, trace: bool) -> None:
        # A fixed hash seed gives every server the same set and dict
        # layout of its string keys, run after run.
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        command = [sys.executable, str(HERE / "launcher.py")]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )
        try:
            info = json.loads(self._readline())
        except BaseException:
            self.close()
            raise
        self.host, self.port = info["host"], info["port"]
        self.pid = self.proc.pid

    def _readline(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], CONTROL_TIMEOUT)
        if not ready:
            raise TimeoutError("server did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited with code {self.proc.wait(timeout=10)}"
            )
        return line

    def request(self, cmd: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self._readline())

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except (BrokenPipeError, OSError):
                pass


def _cpu_ticks(path: Path) -> int:
    """utime + stime from a ``/proc/.../stat`` file, in clock ticks."""
    fields = path.read_text().rpartition(")")[2].split()
    return int(fields[11]) + int(fields[12])


class CpuProbe:
    """Reads the server's process and per-thread CPU time from /proc."""

    def __init__(self, pid: int, threads: dict[str, int]) -> None:
        self.proc = Path(f"/proc/{pid}")
        self.loop = threads[LOOP_THREAD]
        self.shards = [
            tid for name, tid in threads.items()
            if name.startswith(SHARD_THREAD)
        ]
        self.tick = 1.0 / os.sysconf("SC_CLK_TCK")

    def read(self) -> dict:
        task = self.proc / "task"
        return {
            "process": _cpu_ticks(self.proc / "stat") * self.tick,
            "loop": _cpu_ticks(task / str(self.loop) / "stat") * self.tick,
            "shards": [
                _cpu_ticks(task / str(tid) / "stat") * self.tick
                for tid in self.shards
            ],
        }


# -- the load -----------------------------------------------------------------


@dataclass
class Connection:
    """One client connection and the exact model of the keys it owns."""

    index: int
    client: object
    keys: list[str]
    model: dict[str, "str | None"] = field(default_factory=dict)
    seq: int = 0
    mismatches: list[str] = field(default_factory=list)

    def next_value(self) -> str:
        self.seq += 1
        return f"v{self.index}.{self.seq}"


@dataclass
class Tally:
    ops: int = 0
    failed: int = 0
    dels: int = 0
    latencies: list[float] = field(default_factory=list)

    def record(self, verb: str, failed: bool, elapsed: float) -> None:
        """One op; a failed op ranks above every success in latency."""
        self.ops += 1
        self.dels += verb == "DEL"
        self.failed += failed
        self.latencies.append(math.inf if failed else elapsed)


def _draw(rng: random.Random, workload: Workload, conn: Connection):
    key = conn.keys[rng.randrange(len(conn.keys))]
    roll = rng.random()
    if roll < workload.set_frac:
        return "SET", key, conn.next_value()
    if roll < workload.set_frac + workload.get_frac:
        return "GET", key, None
    return "DEL", key, None


def _settle(conn: Connection, verb: str, key: str, value, result) -> None:
    """Check one successful reply against the model, then apply the op."""
    expected = conn.model[key]
    if verb == "SET":
        ok = result is None
        conn.model[key] = value
    elif verb == "GET":
        ok = result == expected
    else:
        ok = result is (expected is not None)
        conn.model[key] = None
    if not ok:
        conn.mismatches.append(
            f"{verb} {key}: got {result!r}, model holds {expected!r}"
        )


async def _burst(conn: Connection, ops: list, tally: Tally | None) -> None:
    """One pipelined burst: one flush, one latency sample per op."""
    pipe = conn.client.pipeline()
    handles = []
    for verb, key, value in ops:
        if verb == "SET":
            handles.append(pipe.set(key, value))
        elif verb == "GET":
            handles.append(pipe.get(key))
        else:
            handles.append(pipe.remove(key))
    started = time.perf_counter()
    await pipe.flush()
    elapsed = time.perf_counter() - started
    for (verb, key, value), handle in zip(ops, handles):
        failed = handle.error is not None
        if not failed:
            _settle(conn, verb, key, value, handle.result())
        if tally is not None:
            tally.record(verb, failed, elapsed)


async def _drive(
    conn: Connection,
    workload: Workload,
    rng: random.Random,
    tally: Tally | None,
    *,
    ops: int | None = None,
    deadline: float | None = None,
) -> float:
    """Closed loop until ``ops`` are done or ``deadline`` has passed;
    returns when the last op completed."""
    done = 0
    while (ops is None or done < ops) and (
        deadline is None or time.perf_counter() < deadline
    ):
        batch = [_draw(rng, workload, conn) for _ in range(workload.burst)]
        await _burst(conn, batch, tally)
        done += workload.burst
    return time.perf_counter()


async def _preload(conn: Connection) -> None:
    for start in range(0, len(conn.keys), PRELOAD_BURST):
        chunk = conn.keys[start:start + PRELOAD_BURST]
        pipe = conn.client.pipeline()
        handles = [pipe.set(key, f"p.{key}") for key in chunk]
        await pipe.flush()
        for key, handle in zip(chunk, handles):
            handle.result()  # a failed preload aborts the run
            conn.model[key] = f"p.{key}"


async def set_up(trace: bool, workload: Workload, seed: int):
    """Start a server, preload every key and warm up; returns
    ``(server, connections, seconds taken)``."""
    from repro.service.client import AsyncDirectoryClient

    started = time.perf_counter()
    server = Server(trace)
    conns: list[Connection] = []
    try:
        for i in range(CONNECTIONS):
            client = await AsyncDirectoryClient.connect(server.host, server.port)
            keys = [f"k{n:05d}" for n in range(i, workload.keys, CONNECTIONS)]
            conns.append(Connection(i, client, keys))
        await asyncio.gather(*(_preload(conn) for conn in conns))
        await asyncio.gather(*(
            _drive(conn, workload, random.Random(f"{seed}:warm:{conn.index}"),
                   None, ops=WARMUP_OPS)
            for conn in conns
        ))
    except BaseException:
        await tear_down(server, conns)
        raise
    return server, conns, time.perf_counter() - started


async def tear_down(server: Server, conns: list[Connection]) -> None:
    for conn in conns:
        await conn.client.close()
    server.close()


def _sum_counters(snapshot: dict, suffix: str) -> float:
    total = 0.0
    for name, value in snapshot.items():
        if name.endswith(suffix):
            total += sum(value.values()) if isinstance(value, dict) else value
    return total


async def measure(
    server: Server, conns: list[Connection], workload: Workload,
    seed: int, seconds: float, trace: bool,
) -> dict:
    """One timed window on a set-up server, then the output checks."""
    probe = CpuProbe(server.pid, server.request("threads"))
    before_metrics = await conns[0].client.metrics()
    if trace:
        server.request("mark")
    cpu_before = probe.read()
    client_before = time.process_time()
    tallies = [Tally() for _ in conns]
    started = time.perf_counter()
    drives = asyncio.gather(*(
        _drive(conn, workload, random.Random(f"{seed}:run:{conn.index}"),
               tally, deadline=started + seconds)
        for conn, tally in zip(conns, tallies)
    ))
    marks = [(started, 0, cpu_before["process"])]
    boundary = started + SLICE
    while boundary <= started + seconds:
        await asyncio.wait([drives], timeout=boundary - time.perf_counter())
        marks.append((
            time.perf_counter(),
            sum(t.ops for t in tallies),
            probe.read()["process"],
        ))
        boundary += SLICE
    ends = await drives
    wall = max(ends) - started
    client_cpu = time.process_time() - client_before
    cpu_after = probe.read()
    ops = sum(t.ops for t in tallies)
    marks.append((max(ends), ops, cpu_after["process"]))
    layer_trace = server.request("trace") if trace else None
    after_metrics = await conns[0].client.metrics()
    model = {}
    for conn in conns:
        model.update(
            {key: value for key, value in conn.model.items() if value is not None}
        )
    audit = server.request("audit", model=model)

    def delta(suffix: str) -> float:
        return _sum_counters(after_metrics, suffix) - _sum_counters(
            before_metrics, suffix
        )

    return {
        "wall": wall,
        "ops": ops,
        "slices": _slices(marks),
        "failed": sum(t.failed for t in tallies),
        "dels": sum(t.dels for t in tallies),
        "latencies": [x for t in tallies for x in t.latencies],
        "mismatches": [m for conn in conns for m in conn.mismatches],
        "cpu": {
            "process": cpu_after["process"] - cpu_before["process"],
            "loop": cpu_after["loop"] - cpu_before["loop"],
            "shards": [
                a - b for a, b in zip(cpu_after["shards"], cpu_before["shards"])
            ],
        },
        "client_cpu": client_cpu,
        "audit": audit,
        "counts": {
            "rpc_calls": delta("service.rpc.calls"),
            "rpc_errors": delta("service.rpc.errors"),
            "front_errors": delta("service.front.errors"),
            "batch_ops": delta("suite.batch.ops"),
            "batch_waves": delta("suite.batch.waves"),
            "batch_fallbacks": delta("suite.batch.fallbacks"),
            "quorum_selections": delta("suite.quorum.read.selections")
            + delta("suite.quorum.write.selections"),
            "wal_appends": delta(".wal.appends"),
        },
        "trace": layer_trace,
    }


# -- metrics ------------------------------------------------------------------


def _slices(
    marks: list[tuple[float, int, float]],
) -> list[tuple[float, float]]:
    """(throughput, server CPU seconds per op) of each slice between
    consecutive marks; a last slice shorter than half of ``SLICE`` is
    dropped unless it is the only one.  A slice in which no op completed
    has infinite CPU per op."""
    slices = []
    for (t0, ops0, cpu0), (t1, ops1, cpu1) in zip(marks, marks[1:]):
        if t1 - t0 < SLICE / 2 and len(marks) > 2:
            continue
        ops = ops1 - ops0
        slices.append(
            (ops / (t1 - t0), (cpu1 - cpu0) / ops if ops else math.inf)
        )
    return slices



def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed ops (inf) rank above every success."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def problems(window: dict) -> list[str]:
    """Everything that makes a measured window incorrect."""
    found = list(window["mismatches"][:10])
    if window["failed"]:
        found.append(f"{window['failed']} ops failed")
    summary = window["audit"].get("summary")
    if summary is None or summary["violations"]:
        found.append(f"audit: {window['audit']}")
    counts = window["counts"]
    for name in ("rpc_errors", "front_errors"):
        if counts[name]:
            found.append(f"server counted {counts[name]:.0f} {name}")
    if window["ops"] < 1:
        found.append("no op completed")
    return found


def end_to_end(window: dict, setups: list[float]) -> dict:
    throughput, cpu_per_op = zip(*window["slices"])
    return {
        "throughput_ops_s": statistics.median(throughput),
        "latency_p50_ms": _percentile(window["latencies"], 0.50) * 1e3,
        "latency_p99_ms": _percentile(window["latencies"], 0.99) * 1e3,
        "server_cpu_ms_per_op": statistics.median(cpu_per_op) * 1e3,
        "setup_s": statistics.median(setups),
    }


def per_layer(window: dict, untraced_throughput: float) -> dict:
    ops = window["ops"]
    wall = window["wall"]
    cpu = window["cpu"]
    counts = window["counts"]
    layer_trace = window["trace"]
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    keys: dict[str, int] = {}
    wire_bytes = 0
    for row in layer_trace["cells"]:
        layer = row["key"].split(".")[0]
        calls[layer] = calls.get(layer, 0) + row["calls"]
        self_ns[layer] = self_ns.get(layer, 0) + row["self_ns"]
        keys[row["key"]] = keys.get(row["key"], 0) + row["calls"]
        wire_bytes += row["bytes"]
    loop_self_ns = sum(_loop_self_ns(window).values())
    samples = layer_trace["samples"]

    def ms_p(key_list: list[str], q: float) -> float:
        values = [v for key in key_list for v in samples[key]]
        return _percentile(values, q) / 1e6 if values else 0.0

    def us_per_op(layer: str) -> float:
        return self_ns.get(layer, 0) / ops / 1e3

    lag = layer_trace["loop_lag_s"] or [0.0]
    rounds = ["aio.AsyncioEndpoint.call", "aio.AsyncioEndpoint.scatter"]
    neighbor = sum(keys.get(key, 0) for key in NEIGHBOR_CALLS)
    traced_throughput = ops / wall
    return {
        "server.loop_busy_frac": cpu["loop"] / wall,
        "server.loop_cpu_us_per_op": cpu["loop"] / ops * 1e6,
        "server.shard_busy_frac_max": max(cpu["shards"], default=0.0) / wall,
        "server.process_busy_frac": cpu["process"] / wall,
        "server.loop_lag_ms_p50": _percentile(lag, 0.50) * 1e3,
        "server.loop_lag_ms_p99": _percentile(lag, 0.99) * 1e3,
        "server.loop_unattributed_frac": 1.0 - loop_self_ns / 1e9 / cpu["loop"],
        "protocol.self_us_per_op": us_per_op("protocol"),
        "protocol.calls_per_op": calls.get("protocol", 0) / ops,
        "wire.self_us_per_op": us_per_op("wire"),
        "wire.bytes_per_op": wire_bytes / ops,
        "aio.rounds_per_op": sum(keys.get(k, 0) for k in rounds) / ops,
        "aio.round_wait_ms_p50": ms_p(rounds, 0.50),
        "aio.rpcs_per_op": counts["rpc_calls"] / ops,
        "aio.rpc_ms_p50": ms_p(["aio.AsyncioTransport.call_async"], 0.50),
        "aio.rpc_ms_p99": ms_p(["aio.AsyncioTransport.call_async"], 0.99),
        "suite.calls_per_op": calls.get("suite", 0) / ops,
        "suite.self_us_per_op": us_per_op("suite"),
        "suite.txn_ms_p50": ms_p(["suite.outer"], 0.50),
        "suite.quorum_selections_per_op": counts["quorum_selections"] / ops,
        "batch.ops_per_wave": (
            counts["batch_ops"] / counts["batch_waves"]
            if counts["batch_waves"] else 0.0
        ),
        "batch.fallbacks_per_kop": counts["batch_fallbacks"] / ops * 1e3,
        "rep.self_us_per_op": us_per_op("rep"),
        "rep.calls_per_op": calls.get("rep", 0) / ops,
        "rep.neighbor_calls_per_del": neighbor / max(window["dels"], 1),
        "twopc.commits_per_op": keys.get("twopc.TwoPhaseCoordinator.commit", 0)
        / ops,
        "twopc.ms_p50": ms_p(["twopc.TwoPhaseCoordinator.commit"], 0.50),
        "locks.acquires_per_op": keys.get("locks.LockTable.acquire", 0) / ops,
        "locks.self_us_per_op": us_per_op("locks"),
        "store.self_us_per_op": us_per_op("store"),
        "wal.appends_per_op": counts["wal_appends"] / ops,
        "wal.self_us_per_op": us_per_op("wal"),
        "shard.route_us_per_op": us_per_op("shard"),
        "client.cpu_us_per_op": window["client_cpu"] / ops * 1e6,
        "client.latency_samples": float(len(window["latencies"])),
        "trace.overhead_frac": 1.0 - traced_throughput / untraced_throughput,
    }


def _loop_self_ns(window: dict) -> dict[str, int]:
    """Self time of each layer on the transport's loop thread."""
    by_layer: dict[str, int] = {}
    for row in window["trace"]["cells"]:
        if row["thread"] == LOOP_THREAD:
            layer = row["key"].split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0) + row["self_ns"]
    return by_layer


def loop_ledger(window: dict) -> list[str]:
    """Loop-thread CPU per op, split by layer self time, for the report."""
    ops = window["ops"]
    by_layer = _loop_self_ns(window)
    loop_us = window["cpu"]["loop"] / ops * 1e6
    lines = [f"loop thread: {loop_us:.1f} us CPU per op"]
    attributed = 0.0
    for layer, ns in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        us = ns / ops / 1e3
        attributed += us
        lines.append(f"  {layer:<10} {us:9.1f} us/op  {us / loop_us:6.1%}")
    rest = loop_us - attributed
    lines.append(f"  {'(other)':<10} {rest:9.1f} us/op  {rest / loop_us:6.1%}")
    return lines


# -- entry point --------------------------------------------------------------


async def serve_once(
    trace: bool, workload: Workload, args: argparse.Namespace, timed: bool
) -> tuple[float, "dict | None"]:
    """Set up a server, measure one window on it if ``timed``, tear it
    down; returns (set-up seconds, window or None)."""
    server, conns, took = await set_up(trace, workload, args.seed)
    try:
        window = None
        if timed:
            window = await measure(
                server, conns, workload, args.seed, args.seconds, trace
            )
    finally:
        await tear_down(server, conns)
    return took, window


async def run(args: argparse.Namespace) -> tuple[list, dict, list[str]]:
    """Returns (measured windows, metrics, report lines)."""
    workload = WORKLOADS[args.workload]
    if not args.trace:
        setups: list[float] = []
        for attempt in range(SETUPS):
            took, window = await serve_once(
                False, workload, args, attempt == SETUPS - 1
            )
            setups.append(took)
        report = [
            "setups: " + ", ".join(f"{s:.3f}s" for s in setups),
            "slices (ops/s): "
            + " ".join(f"{t:.0f}" for t, _ in window["slices"]),
        ]
        return [window], end_to_end(window, setups), report
    # The two windows share the run's --seconds.
    half = argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2})
    _, untraced = await serve_once(False, workload, half, True)
    _, traced = await serve_once(True, workload, half, True)
    metrics = per_layer(traced, untraced["ops"] / untraced["wall"])
    return [untraced, traced], metrics, loop_ledger(traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="directory service benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    windows, metrics, report = asyncio.run(run(args))
    found = [p for window in windows for p in problems(window)]
    units = (
        {name: spec[0] for name, spec in PER_LAYER.items()}
        if args.trace else END_TO_END
    )
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    for window in windows:
        print(
            f"{window['ops']} ops over {CONNECTIONS} connections in "
            f"{window['wall']:.2f}s; {len(window['latencies'])} latency "
            f"samples; audit {window['audit'].get('summary')}"
        )
    for line in report:
        print(line)
    for name, unit in units.items():
        line = f"{name:<34} {metrics[name]:14.4f} {unit}"
        if args.trace:
            _, target, workloads = PER_LAYER[name]
            line += f"  -> {target}" + (
                f" on {', '.join(workloads)}" if workloads else ""
            )
        print(line)
    for problem in found:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not found,
        "attempted": sum(window["ops"] for window in windows),
        "failed": sum(window["failed"] for window in windows),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
