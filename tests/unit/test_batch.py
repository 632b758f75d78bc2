"""Unit tests for the grouped quorum round (:mod:`repro.core.batch`).

The engine's contract is *exact* equivalence with sequential execution:
one wave of ops shares a transaction, one read round, one write round,
and one 2PC, yet every op observes the presence/version/value its
predecessors in the wave established, per-op logical errors surface as
outcomes without poisoning neighbours, and the committed state matches
a sequential run bit for bit.  Parameterized over the sim transport
(serial and parallel fan-out) and real asyncio sockets with parallel
fan-out — the combination the batched service front door actually runs.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import BATCH_KINDS, BatchOp, BatchOutcome, execute_batch
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    QuorumUnavailableError,
)
from repro.core.keys import wrap


def _committed_version(cluster, key):
    """The authoritative (highest present) version of ``key`` — the one
    any read quorum elects, straight off the replica stores."""
    return max(
        reply.version
        for rep in cluster.representatives.values()
        for reply in [rep.store.lookup(wrap(key))]
        if reply.present
    )

MODES = [("sim", "serial"), ("sim", "parallel"), ("asyncio", "parallel")]


@pytest.fixture(params=MODES, ids=[f"{t}-{f}" for t, f in MODES])
def cluster(request):
    transport, fanout = request.param
    with DirectoryCluster.create(
        ClusterSpec(config="3-2-2", seed=11, transport=transport, fanout=fanout)
    ) as c:
        yield c


class TestWaveSemantics:
    def test_mixed_wave_outcomes_in_order(self, cluster):
        suite = cluster.suite
        suite.insert("seed", "s0")
        outcomes = suite.execute_batch(
            [
                BatchOp("lookup", "seed"),
                BatchOp("insert", "a", 1),
                BatchOp("upsert", "seed", "s1"),
                BatchOp("lookup", "a"),
                BatchOp("update", "a", 2),
            ]
        )
        assert [o.op.kind for o in outcomes] == [
            "lookup",
            "insert",
            "upsert",
            "lookup",
            "update",
        ]
        assert all(o.ok for o in outcomes)
        assert outcomes[0].value == (True, "s0")
        # Op 3 observes op 1's insert within the same wave.
        assert outcomes[3].value == (True, 1)
        assert suite.lookup("a") == (True, 2)
        assert suite.lookup("seed") == (True, "s1")

    def test_per_op_errors_do_not_poison_neighbours(self, cluster):
        suite = cluster.suite
        suite.insert("taken", 0)
        outcomes = suite.execute_batch(
            [
                BatchOp("insert", "taken", 1),  # present: per-op error
                BatchOp("insert", "fresh", 2),  # must still commit
                BatchOp("update", "ghost", 3),  # absent: per-op error
                BatchOp("lookup", "taken"),
            ]
        )
        assert isinstance(outcomes[0].error, KeyAlreadyPresentError)
        assert outcomes[1].ok
        assert isinstance(outcomes[2].error, KeyNotPresentError)
        # The failed insert changed nothing: lookup sees the old value.
        assert outcomes[3].value == (True, 0)
        with pytest.raises(KeyAlreadyPresentError):
            outcomes[0].unwrap()
        assert suite.lookup("fresh") == (True, 2)
        assert suite.lookup("ghost") == (False, None)

    def test_same_key_folds_to_final_write(self, cluster):
        suite = cluster.suite
        outcomes = suite.execute_batch(
            [
                BatchOp("upsert", "k", "v1"),
                BatchOp("lookup", "k"),
                BatchOp("upsert", "k", "v2"),
                BatchOp("insert", "k", "v3"),  # now present: error
                BatchOp("upsert", "k", "v4"),
            ]
        )
        assert outcomes[1].value == (True, "v1")
        assert isinstance(outcomes[3].error, KeyAlreadyPresentError)
        assert suite.lookup("k") == (True, "v4")

    def test_folded_versions_match_sequential(self, cluster):
        """The n-th write of a key gets the version n sequential
        transactions would have assigned (gap splits keep the old gap's
        version on both halves, so chaining successor() per fold step is
        exact)."""
        suite = cluster.suite
        suite.execute_batch(
            [BatchOp("upsert", "k", i) for i in range(4)]
        )
        batched = _committed_version(cluster, "k")
        twin = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=11))
        try:
            twin.suite.insert("k", 0)
            for i in range(1, 4):
                twin.suite.update("k", i)
            assert batched == _committed_version(twin, "k")
        finally:
            twin.close()

    def test_equivalence_with_sequential_execution(self, cluster):
        """A seeded script, batched in waves of 8, leaves the identical
        state a sequential twin reaches — per-op errors included."""
        import random

        rng = random.Random(4242)
        script = []
        for _ in range(120):
            kind = rng.choice(BATCH_KINDS)
            key = f"k{rng.randrange(12)}"
            value = rng.randrange(100) if kind != "lookup" else None
            script.append(BatchOp(kind, key, value))

        # A final wave mixes the never-grouped delete/remove with
        # grouped runs and lone groupable ops, on keys the script never
        # wrote (so its upsert is an insert, counted alike either way).
        mixed = [
            BatchOp("upsert", "x0", 1),
            BatchOp("insert", "x1", 2),
            BatchOp("delete", "x0"),
            BatchOp("lookup", "x0"),
            BatchOp("remove", "x1"),
            BatchOp("remove", "x1"),
            BatchOp("delete", "x1"),
            BatchOp("insert", "x1", 3),
            BatchOp("update", "x2", 4),
            BatchOp("lookup", "x1"),
            BatchOp("remove", "x2"),
            BatchOp("upsert", "x3", 5),
        ]
        prefix = len(script)
        script.extend(mixed)

        batched = []
        for start in range(0, prefix, 8):
            batched.extend(cluster.suite.execute_batch(script[start : start + 8]))
        before = _counts(cluster.suite)
        batched.extend(cluster.suite.execute_batch(mixed))
        mixed_counts = _delta(_counts(cluster.suite), before)

        twin = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=11))
        try:
            sequential = [
                # Reuse the engine's own fallback helper: it runs the
                # plain public methods one op at a time.
                _sequential(twin.suite, op)
                for op in script[:prefix]
            ]
            before = _counts(twin.suite)
            sequential.extend(_sequential(twin.suite, op) for op in mixed)
            assert mixed_counts == _delta(_counts(twin.suite), before)
            assert (
                cluster.suite.authoritative_state()
                == twin.suite.authoritative_state()
            )
        finally:
            twin.close()
        for b, s in zip(batched, sequential):
            assert b.value == s.value, b.op
            assert type(b.error) is type(s.error), b.op

    def test_empty_and_tuple_forms(self, cluster):
        suite = cluster.suite
        assert suite.execute_batch([]) == []
        outcomes = suite.execute_batch([("upsert", "t", 9), ("lookup", "t")])
        assert outcomes[1].value == (True, 9)

    def test_unbatchable_kind_rejected(self, cluster):
        with pytest.raises(ValueError, match="unbatchable"):
            cluster.suite.execute_batch([BatchOp("rename", "k")])

    def test_op_counts_match_sequential_accounting(self, cluster):
        suite = cluster.suite
        suite.insert("present", 0)
        base = (
            suite.op_counts.lookups,
            suite.op_counts.inserts,
            suite.op_counts.updates,
            suite.op_counts.failed,
        )
        suite.execute_batch(
            [
                BatchOp("lookup", "present"),
                BatchOp("insert", "present", 1),  # counted + failed
                BatchOp("upsert", "present", 2),  # counts as update
                BatchOp("upsert", "new", 3),  # counts as insert
            ]
        )
        assert (
            suite.op_counts.lookups - base[0],
            suite.op_counts.inserts - base[1],
            suite.op_counts.updates - base[2],
            suite.op_counts.failed - base[3],
        ) == (1, 2, 1, 1)


class TestFallbackAndMetrics:
    def test_quorum_loss_falls_back_per_op(self, cluster):
        suite = cluster.suite
        suite.insert("x", 1)
        cluster.crash("A")
        cluster.crash("B")
        before = suite._batch_fallbacks.value
        outcomes = suite.execute_batch(
            [BatchOp("lookup", "x"), BatchOp("upsert", "x", 2)]
        )
        assert suite._batch_fallbacks.value == before + 1
        # The grouped transaction aborted whole; each op then surfaces
        # its own availability error instead of failing the wave.
        assert all(
            isinstance(o.error, QuorumUnavailableError) for o in outcomes
        )
        cluster.recover("A")
        cluster.recover("B")
        # No partial effects survived the abort.
        assert suite.lookup("x") == (True, 1)
        outcomes = suite.execute_batch([BatchOp("upsert", "x", 2)])
        assert outcomes[0].ok
        assert suite.lookup("x") == (True, 2)

    def test_wave_metrics(self, cluster):
        suite = cluster.suite
        waves, ops = suite._batch_size.n, suite._batch_ops.value
        lookups = suite.op_counts.lookups
        suite.execute_batch([BatchOp("upsert", f"m{i}", i) for i in range(5)])
        # A lone op takes the per-op path: no grouped run is counted.
        suite.execute_batch([BatchOp("lookup", "m0")])
        assert suite._batch_size.n == waves + 1
        assert suite._batch_ops.value == ops + 5
        assert suite.op_counts.lookups == lookups + 1
        snapshot = suite.metrics.snapshot()
        sizes = [
            row
            for name, row in snapshot.items()
            if name.endswith("suite.batch.size") and isinstance(row, dict)
        ]
        assert sizes and sizes[0]["n"] == suite._batch_size.n

    def test_module_function_matches_method(self, cluster):
        outcomes = execute_batch(cluster.suite, [BatchOp("upsert", "f", 1)])
        assert isinstance(outcomes[0], BatchOutcome) and outcomes[0].ok
        assert cluster.suite.lookup("f") == (True, 1)


def _sequential(suite, op):
    """Run one op through the plain public path, capturing its error."""
    outcome = BatchOutcome(op)
    try:
        if op.kind == "lookup":
            outcome.value = suite.lookup(op.key)
        elif op.kind == "insert":
            suite.insert(op.key, op.value)
        elif op.kind == "update":
            suite.update(op.key, op.value)
        elif op.kind == "delete":
            suite.delete(op.key)
        elif op.kind == "remove":
            try:
                suite.delete(op.key)
                outcome.value = 1
            except KeyNotPresentError:
                outcome.value = 0
        else:
            try:
                suite.insert(op.key, op.value)
            except KeyAlreadyPresentError:
                suite.update(op.key, op.value)
    except Exception as exc:  # noqa: BLE001 - mirrored into outcomes
        outcome.error = exc
    return outcome


def _counts(suite):
    c = suite.op_counts
    return (c.lookups, c.inserts, c.updates, c.deletes, c.failed)


def _delta(after, before):
    return tuple(a - b for a, b in zip(after, before))
