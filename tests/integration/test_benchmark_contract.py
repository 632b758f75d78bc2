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
from pathlib import Path

from repro.cli import build_parser
from repro.cluster import ClusterSpec
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
