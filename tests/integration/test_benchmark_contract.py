"""The benchmark's contract with the code it measures.

``perfbench/`` builds and instruments the directory service from the
outside and changes only with the benchmark itself, so this pins what
it relies on: the service builds and serves exactly as
``perfbench/launcher.py`` builds it from the ``repro serve`` defaults,
and every entry point ``perfbench/layers.py`` wraps still resolves.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from repro.cli import build_parser
from repro.cluster import ClusterSpec
from repro.net.rpc import RpcCall
from repro.service.aio import AsyncioTransport
from repro.service.client import DirectoryClient
from repro.service.server import DirectoryService
from repro.shard.sharded import ShardedDirectory

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_entry_point_resolves():
    for layer, targets in _layers().LAYERS.items():
        for module_name, class_name, names in targets:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            for name in names:
                target = getattr(owner, name, None)
                assert callable(target), (layer, module_name, class_name, name)
    aio = importlib.import_module("repro.service.aio")
    assert callable(aio.AsyncioTransport.call_async)


class _Echo:
    def echo(self, value):
        return value


def test_every_scatter_member_goes_through_call_async(monkeypatch):
    """``aio.rpc_ms_*`` samples ``call_async``: a channel that sent
    scatter members around it would silently empty them."""
    assert inspect.iscoroutinefunction(AsyncioTransport.call_async)
    recorder = _layers().Recorder()
    monkeypatch.setattr(
        AsyncioTransport,
        "call_async",
        recorder.wrap_async(
            AsyncioTransport.call_async, "aio.AsyncioTransport.call_async"
        ),
    )
    transport = AsyncioTransport()
    try:
        for node in ("a", "b"):
            transport.ensure_node(node)
            transport.host(node, "echo", _Echo())
        calls = [RpcCall("ab"[i % 2], "echo", "echo", (i,)) for i in range(24)]
        batch = transport.endpoint("client").scatter(calls)
        assert [reply.value for reply in batch.replies] == list(range(24))
    finally:
        transport.close()
    assert len(recorder.samples["aio.AsyncioTransport.call_async"]) == 24


def test_service_builds_as_the_launcher_builds_it():
    args = build_parser().parse_args(["serve"])
    spec = ClusterSpec(
        config=args.config,
        seed=args.seed,
        store=args.store,
        transport="asyncio",
        fanout=args.fanout,
    )
    with ShardedDirectory.create(
        spec, shards=args.shards, shard_map=args.shard_map
    ) as directory:
        service = DirectoryService(
            directory,
            host=args.host,
            port=args.port,
            batching=args.batching,
            batch_max=args.batch_max,
            pipeline_depth=args.pipeline_depth,
        ).start()
        with service:
            assert directory.transport.loop.is_running()
            with DirectoryClient(service.host, service.port) as client:
                with client.pipeline() as pipe:
                    wrote = [pipe.set(f"k{i}", f"v{i}") for i in range(8)]
                    read = pipe.get("k3")
                    dropped = pipe.remove("k5")
                assert all(handle.ok for handle in wrote)
                assert read.result() == "v3"
                assert dropped.result() is True
                metrics = client.metrics()
            assert any(name.endswith("suite.batch.ops") for name in metrics)
        model = {f"k{i}": f"v{i}" for i in range(8) if i != 5}
        report = directory.make_auditor().run(model=model)
        assert report.violations == []
