"""Outside-in layer tracing for the directory service.

:func:`install` replaces the public entry points of each layer of the
service (see :data:`LAYERS`) with timing wrappers.  It must run before
the service is built, in the process that hosts it.  A wrapper records,
per thread, the number of calls, the inclusive wall time and the self
time (inclusive time minus the time spent in wrapped callees on the same
thread); it passes arguments, results and exceptions through untouched.

Only non-recursive entry points are wrapped: wrapping the recursive
``wire.encode_value``/``decode_value`` (tens of calls per op) costs more
than the layer it measures.

The recorder keeps everything in memory; :meth:`Recorder.mark` and
:meth:`Recorder.since_mark` give the delta over one measured window.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: layer -> [(module, class or None, [attribute names])].  Each entry is
#: a public function or method on the path of a keyed operation.
LAYERS = {
    "protocol": [
        ("repro.service.protocol", None, [
            "encode_command", "encode_bulk", "encode_simple",
            "encode_error", "encode_integer", "encode_array",
            "split_meta_full", "stamp_epoch",
        ]),
    ],
    "wire": [("repro.service.wire", None, ["dump", "load"])],
    "aio": [("repro.service.aio", "AsyncioEndpoint", ["call", "scatter"])],
    "suite": [
        ("repro.core.suite", "DirectorySuite", [
            "lookup", "insert", "update", "delete", "execute_batch",
        ]),
        ("repro.core.batch", None, ["execute_batch"]),
    ],
    "rep": [
        ("repro.core.representative", "DirectoryRepresentative", [
            "rep_lookup", "rep_lookup_version", "rep_predecessor",
            "rep_successor", "rep_neighbors_batch", "rep_insert",
            "rep_lookup_many", "rep_insert_many", "rep_coalesce",
            "prepare", "commit", "abort",
        ]),
    ],
    "twopc": [("repro.txn.twopc", "TwoPhaseCoordinator", ["commit", "abort"])],
    "locks": [("repro.txn.locks", "LockTable", ["acquire", "release_all"])],
    "store": [
        ("repro.storage.sorted_store", "SortedStore", [
            "lookup", "predecessor", "successor", "contains",
            "entries_between", "insert", "coalesce", "remove_entry",
        ]),
    ],
    "wal": [
        ("repro.storage.wal", "WriteAheadLog", [
            "log_insert", "log_coalesce", "log_prepare", "log_commit",
            "log_abort",
        ]),
    ],
    "shard": [
        ("repro.shard.sharded", "ShardedDirectory", [
            "shard_for", "require_epoch",
        ]),
    ],
}

#: Calls whose individual durations are kept, for percentiles.  For the
#: suite only the outermost call on a thread counts: it is one
#: transaction (a grouped one for ``execute_batch``).
SAMPLED = {
    "aio.AsyncioEndpoint.call", "aio.AsyncioEndpoint.scatter",
    "aio.AsyncioTransport.call_async", "twopc.TwoPhaseCoordinator.commit",
    "suite.outer",
}

#: Calls counted as the representative's neighbour walk (the paper's
#: RealPredecessor/RealSuccessor search that Delete runs before it
#: coalesces).
NEIGHBOR_CALLS = tuple(
    f"rep.DirectoryRepresentative.{name}"
    for name in ("rep_predecessor", "rep_successor", "rep_neighbors_batch")
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.registered = False
        self.stack: list[int] = []
        self.suite_depth = 0
        #: key -> [calls, inclusive ns, self ns, bytes]
        self.cells: dict[str, list[int]] = {}


class Recorder:
    """Per-thread call/time cells plus sampled durations."""

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._threads: list[tuple[str, int, dict]] = []
        self._lock = threading.Lock()
        self.samples: dict[str, list[int]] = {key: [] for key in SAMPLED}
        self.loop_lag: list[float] = []
        self._mark: dict = {}

    def _state(self) -> _ThreadState:
        state = self._local
        if not state.registered:
            state.registered = True
            thread = threading.current_thread()
            with self._lock:
                self._threads.append(
                    (thread.name, threading.get_native_id(), state.cells)
                )
        return state

    def wrap(self, fn, key: str, nbytes=None):
        """A wrapper of ``fn`` recording under ``key``."""
        state_of = self._state
        perf = time.perf_counter_ns
        samples = self.samples.get(key)
        outer = self.samples["suite.outer"] if key.startswith("suite.") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0)
            if outer is not None:
                state.suite_depth += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                cell = state.cells.get(key)
                if cell is None:
                    cell = state.cells[key] = [0, 0, 0, 0]
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - child
                if samples is not None:
                    samples.append(elapsed)
                if outer is not None:
                    state.suite_depth -= 1
                    if state.suite_depth == 0:
                        outer.append(elapsed)
            if nbytes is not None:
                cell[3] += nbytes(args, result)
            return result

        return wrapper

    def wrap_async(self, fn, key: str):
        """A coroutine wrapper recording only durations under ``key``.

        A coroutine suspends, so it has no self time on a thread; its
        synchronous work is charged to the wrapped calls it makes, or is
        left unattributed.
        """
        perf = time.perf_counter_ns
        samples = self.samples[key]

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                samples.append(perf() - start)

        return wrapper

    # -- windows -------------------------------------------------------------

    def _snapshot(self) -> dict:
        with self._lock:
            threads = list(self._threads)
        cells = {}
        for name, native_id, thread_cells in threads:
            for key, cell in list(thread_cells.items()):
                cells[(name, native_id, key)] = list(cell)
        lengths = {key: len(values) for key, values in self.samples.items()}
        return {"cells": cells, "lengths": lengths, "lag": len(self.loop_lag)}

    def mark(self) -> None:
        """Start a measured window."""
        self._mark = self._snapshot()

    def since_mark(self) -> dict:
        """Cells and samples recorded since :meth:`mark`, JSON-ready."""
        now = self._snapshot()
        base = self._mark.get("cells", {})
        rows = []
        for (name, native_id, key), cell in now["cells"].items():
            before = base.get((name, native_id, key), [0, 0, 0, 0])
            delta = [a - b for a, b in zip(cell, before)]
            if delta[0]:
                rows.append({
                    "thread": name, "tid": native_id, "key": key,
                    "calls": delta[0], "incl_ns": delta[1],
                    "self_ns": delta[2], "bytes": delta[3],
                })
        lengths = self._mark.get("lengths", {})
        samples = {
            key: values[lengths.get(key, 0):now["lengths"][key]]
            for key, values in self.samples.items()
        }
        lag = self.loop_lag[self._mark.get("lag", 0):now["lag"]]
        return {"cells": rows, "samples": samples, "loop_lag_s": lag}


#: Bytes a wire call moved: the text ``dump`` produced, or ``load`` parsed.
_BYTES = {
    "wire.wire.dump": lambda args, result: len(result),
    "wire.wire.load": lambda args, result: len(args[0]),
}


def install(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`LAYERS`, and the RPC coroutine."""
    for layer, targets in LAYERS.items():
        for module_name, class_name, names in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            prefix = f"{layer}.{class_name or module_name.rsplit('.', 1)[1]}"
            for name in names:
                key = f"{prefix}.{name}"
                wrapper = recorder.wrap(getattr(owner, name), key, _BYTES.get(key))
                setattr(owner, name, wrapper)
    aio = importlib.import_module("repro.service.aio")
    aio.AsyncioTransport.call_async = recorder.wrap_async(
        aio.AsyncioTransport.call_async, "aio.AsyncioTransport.call_async"
    )
