"""The benchmark's server process: the directory service with `repro serve`
defaults, driven over stdin/stdout by ``run.py``.

Usage: ``PYTHONPATH=src python3 perfbench/launcher.py [--trace]``

It prints one JSON line ``{"host", "port"}`` once listening, then
answers one JSON request per stdin line with one JSON reply line:

* ``{"cmd": "threads"}`` -> ``{name: native thread id}`` of live threads;
* ``{"cmd": "mark"}`` -> starts a traced window (``--trace`` only);
* ``{"cmd": "trace"}`` -> the layer cells, sampled durations and loop
  lag recorded since the mark (``--trace`` only);
* ``{"cmd": "audit", "model": {key: value}}`` -> the invariant audit of
  every shard against the client's model of the directory;
* ``{"cmd": "quit"}`` -> closes the service and exits.

With ``--trace`` the layer wrappers (:mod:`layers`) are installed before
the service is built, and a probe on the transport's event loop records
how late a 10 ms timer fires.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Period of the loop-lag probe, seconds.
LAG_PERIOD = 0.01


def _start_lag_probe(loop, lags: list) -> None:
    def tick(due: float) -> None:
        now = loop.time()
        lags.append(now - due)
        loop.call_at(now + LAG_PERIOD, tick, now + LAG_PERIOD)

    def start() -> None:
        due = loop.time() + LAG_PERIOD
        loop.call_at(due, tick, due)

    loop.call_soon_threadsafe(start)


def _build(trace: bool):
    recorder = None
    if trace:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    from repro.cli import build_parser
    from repro.cluster import ClusterSpec
    from repro.service.server import DirectoryService
    from repro.shard.sharded import ShardedDirectory

    # The same construction as `repro serve` with its default arguments.
    args = build_parser().parse_args(["serve"])
    spec = ClusterSpec(
        config=args.config,
        seed=args.seed,
        store=args.store,
        transport="asyncio",
        fanout=args.fanout,
    )
    directory = ShardedDirectory.create(
        spec, shards=args.shards, shard_map=args.shard_map
    )
    service = DirectoryService(
        directory,
        host=args.host,
        port=args.port,
        batching=args.batching,
        batch_max=args.batch_max,
        pipeline_depth=args.pipeline_depth,
    ).start()
    if recorder is not None:
        _start_lag_probe(directory.transport.loop, recorder.loop_lag)
    return directory, service, recorder


def _audit(directory, model: dict) -> dict:
    report = directory.make_auditor().run(model=model)
    return {
        "summary": report.summary(),
        "violations": [v.render() for v in report.violations[:20]],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    # The control channel is the original stdout; anything else the
    # program prints goes to stderr.
    out, sys.stdout = sys.stdout, sys.stderr
    directory, service, recorder = _build(args.trace)
    try:
        out.write(json.dumps({
            "host": service.host, "port": service.port,
        }) + "\n")
        out.flush()
        for line in sys.stdin:
            request = json.loads(line)
            cmd = request["cmd"]
            if cmd == "quit":
                break
            if cmd == "threads":
                reply = {t.name: t.native_id for t in threading.enumerate()}
            elif cmd == "mark" and recorder is not None:
                recorder.mark()
                reply = {}
            elif cmd == "trace" and recorder is not None:
                reply = recorder.since_mark()
            elif cmd == "audit":
                reply = _audit(directory, request["model"])
            else:
                reply = {"error": f"unknown command {cmd!r}"}
            out.write(json.dumps(reply) + "\n")
            out.flush()
    finally:
        service.close()
        directory.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
