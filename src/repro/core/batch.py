"""Grouped quorum rounds: many directory operations, one transaction.

The per-shard front door (:mod:`repro.service.server`) drains each
shard's queue in *waves* and hands every wave to :func:`execute_batch`,
its one way onto the shard.  A run of two or more consecutive
``lookup`` / ``insert`` / ``update`` / ``upsert`` ops in a wave shares
one transaction, one read-quorum selection, one write-quorum selection,
and one 2PC round — the Keyspace-style group commit, with the
scatter-gather engine making each shared round cost max-not-sum —
instead of paying a read round, a write round and a 2PC per op.
Every other op runs through the suite's public per-op method: a lone
groupable op, so an unpipelined client sees the classic path, and every
``delete`` / ``remove``, whose gap-coalescing neighbour walk reads keys
the wave's shared snapshot does not cover.  One :class:`BatchOutcome`
comes back per op, in order, with the paper's per-op error contract
intact: an ``insert`` of a present key still yields
:class:`KeyAlreadyPresentError`, an ``update`` of an absent key
:class:`KeyNotPresentError` — as *outcomes*, never by poisoning the
neighbours in the same wave.

Equivalence with sequential execution is exact, not approximate:

* one ``rep_lookup_many`` round covers every distinct key against a
  single read quorum (one message per member, the paper's section 4
  batching optimization), and the per-op results are derived by
  *folding* the wave
  in arrival order over that snapshot — op ``i`` observes the presence,
  version, and value that ops ``0..i-1`` established, exactly as if each
  had committed before the next began;
* version numbers chain through
  :meth:`~repro.core.versions.VersionSpace.successor` per fold step, and
  since splitting a gap leaves both halves with the old gap's version,
  the number assigned to the *n*-th write of a key is identical to what
  *n* sequential transactions would have assigned;
* only the final folded entry per key is installed — one
  ``rep_insert_many`` message per write-quorum member carries them
  all — so the committed state matches the
  sequential run bit for bit (intermediate versions only ever existed
  transiently there too);
* the wave's range locks are held to the single commit point, so the
  transaction is serializable as the whole sequence at once.

Availability failures are all-or-nothing per grouped run: the shared
transaction aborts cleanly (no partial effects — that is what 2PC is
for), and the run falls back to executing each op individually so
``-UNAVAILABLE`` surfaces per op rather than failing the neighbours
(counted on ``suite.batch.fallbacks``).  The ``suite.batch.*`` metrics
count grouped runs only; ops that take the per-op path show up in the
plain ``suite.ops`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.entries import LookupReply
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    NetworkError,
    QuorumUnavailableError,
    TransactionError,
)
from repro.obs.spans import NULL_SPAN

#: Operation kinds that group: a run of two or more of them in a wave
#: shares one transaction.
BATCH_KINDS = ("lookup", "insert", "update", "upsert")

#: Every kind :func:`execute_batch` accepts.  ``delete`` and ``remove``
#: (delete-if-present) never group: Delete's gap-coalescing neighbour
#: walk reads keys the wave's shared snapshot does not cover.
OP_KINDS = BATCH_KINDS + ("delete", "remove")


@dataclass(frozen=True, slots=True)
class BatchOp:
    """One operation inside a wave: ``kind`` ∈ :data:`OP_KINDS`."""

    kind: str
    key: Any
    value: Any = None


@dataclass(slots=True)
class BatchOutcome:
    """Per-op result: ``value`` on success, ``error`` on a logical miss.

    ``error`` carries the same exception the sequential public method
    would have raised (:class:`KeyAlreadyPresentError`,
    :class:`KeyNotPresentError`, an availability error from the per-op
    path, or whatever else that op alone raised); :meth:`unwrap`
    re-raises it.
    """

    op: BatchOp
    value: Any = None
    error: "Exception | None" = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        if self.error is not None:
            raise self.error
        return self.value


@dataclass(slots=True)
class _Counts:
    """op_counts deltas accumulated during the fold, applied on commit."""

    lookups: int = 0
    inserts: int = 0
    updates: int = 0
    failed: int = 0


def execute_batch(suite: Any, ops: Any) -> "list[BatchOutcome]":
    """Run one drained wave of ops; outcomes in order.

    Each run of two or more consecutive :data:`BATCH_KINDS` ops executes
    as one grouped transaction (see the module docstring for the
    equivalence argument).  Every other op — a lone groupable op, a
    ``delete``, a ``remove`` — runs through the suite's public per-op
    method, so an unpipelined client sees exactly the classic path.  On
    an availability failure a grouped transaction aborts (leaving no
    partial effects) and its ops re-execute individually, so per-op
    error results survive even a mid-wave quorum loss.
    """
    ops = [op if isinstance(op, BatchOp) else BatchOp(*op) for op in ops]
    for op in ops:
        if op.kind not in OP_KINDS:
            raise ValueError(
                f"unbatchable op kind {op.kind!r} (want one of {OP_KINDS})"
            )
    outcomes: "list[BatchOutcome]" = []
    i = 0
    while i < len(ops):
        j = i
        while j < len(ops) and ops[j].kind in BATCH_KINDS:
            j += 1
        if j - i >= 2:
            outcomes.extend(_grouped_run(suite, ops[i:j]))
            i = j
        else:
            outcomes.append(_single(suite, ops[i]))
            i += 1
    return outcomes


def _grouped_run(suite: Any, ops: "list[BatchOp]") -> "list[BatchOutcome]":
    """One grouped transaction for a run of groupable ops."""
    bkeys = [suite._user_key(op.key) for op in ops]
    suite._batch_size.add(len(ops))
    suite._batch_ops.inc(len(ops))
    try:
        return _grouped(suite, ops, bkeys)
    except (QuorumUnavailableError, NetworkError, TransactionError):
        # The shared transaction aborted whole; 2PC guarantees no
        # partial effects, so individual re-execution cannot double-
        # apply anything.
        suite._batch_fallbacks.inc()
        return [_single(suite, op) for op in ops]


def _grouped(
    suite: Any, ops: "list[BatchOp]", bkeys: "list[Any]"
) -> "list[BatchOutcome]":
    outcomes = [BatchOutcome(op) for op in ops]
    counts = _Counts()
    tracer = suite.tracer
    with tracer.span(
        "op:batch", size=len(ops), client=suite.rpc.origin
    ) if tracer.enabled else NULL_SPAN:
        with suite._transaction() as txn:
            unique: list[Any] = []
            seen: set = set()
            for bkey in bkeys:
                if bkey not in seen:
                    seen.add(bkey)
                    unique.append(bkey)
            state = _grouped_read(suite, txn, unique)
            writes: dict[Any, tuple[Any, Any]] = {}
            write_order: list[Any] = []
            for op, bkey, outcome in zip(ops, bkeys, outcomes):
                present, version, value = state[bkey]
                if op.kind == "lookup":
                    counts.lookups += 1
                    outcome.value = (present, value)
                    continue
                if op.kind == "insert" and present:
                    counts.inserts += 1
                    counts.failed += 1
                    outcome.error = KeyAlreadyPresentError(op.key)
                    continue
                if op.kind == "update" and not present:
                    counts.updates += 1
                    counts.failed += 1
                    outcome.error = KeyNotPresentError(op.key)
                    continue
                if op.kind == "upsert":
                    # What SET's sequential insert-or-update would count.
                    if present:
                        counts.updates += 1
                    else:
                        counts.inserts += 1
                elif op.kind == "insert":
                    counts.inserts += 1
                else:
                    counts.updates += 1
                new_version = suite.version_space.successor(version)
                state[bkey] = (True, new_version, op.value)
                if bkey not in writes:
                    write_order.append(bkey)
                writes[bkey] = (new_version, op.value)
            if writes:
                _grouped_write(
                    suite,
                    txn,
                    [(bkey, *writes[bkey]) for bkey in write_order],
                )
    # Applied only after the commit: an aborted wave leaves the fallback
    # path to do the (public-method) counting instead.
    suite.op_counts.lookups += counts.lookups
    suite.op_counts.inserts += counts.inserts
    suite.op_counts.updates += counts.updates
    suite.op_counts.failed += counts.failed
    return outcomes


def _grouped_read(
    suite: Any, txn: Any, keys: "list[Any]"
) -> "dict[Any, list[Any]]":
    """One read round covering every distinct key in the wave.

    Sends a single ``rep_lookup_many`` message per member of a *single*
    read quorum (R messages total, regardless of wave size — the
    section 4 batching optimization), merges per key by highest
    version — the Figure 8 rule — and returns the mutable fold state
    ``{bkey: [present, version, value]}``.
    """
    quorum = suite._collect_quorum("read")
    best: dict[Any, LookupReply | None] = {bkey: None for bkey in keys}
    member_replies = suite._round(
        txn, quorum, "rep_lookup_many", (keys,), payload_items=len(keys)
    )
    for replies in member_replies:
        for bkey, reply in zip(keys, replies):
            if reply.beats(best[bkey]):
                best[bkey] = reply
    state: dict[Any, list[Any]] = {}
    for bkey in keys:
        reply = best[bkey]
        assert reply is not None  # quorum is never empty
        state[bkey] = [reply.present, reply.version, reply.value]
    return state


def _grouped_write(
    suite: Any, txn: Any, rows: "list[tuple[Any, Any, Any]]"
) -> None:
    """Install every folded final entry in one shared write quorum.

    One ``rep_insert_many`` message per member (W messages total): the
    wave's redo records reach each replica's WAL as a group, so the
    single shared 2PC round is a true group commit.
    """
    quorum = suite._collect_quorum("write")
    suite._round(
        txn, quorum, "rep_insert_many", (rows,), payload_items=len(rows)
    )


def _single(suite: Any, op: BatchOp) -> BatchOutcome:
    """One op through the plain public path, its error captured.

    Any exception becomes the op's own outcome, so one failing op never
    fails its wave neighbours.
    """
    outcome = BatchOutcome(op)
    try:
        if op.kind == "lookup":
            outcome.value = suite.lookup(op.key)
        elif op.kind == "insert":
            suite.insert(op.key, op.value)
        elif op.kind == "update":
            suite.update(op.key, op.value)
        elif op.kind == "upsert":
            try:
                suite.insert(op.key, op.value)
            except KeyAlreadyPresentError:
                suite.update(op.key, op.value)
        elif op.kind == "delete":
            suite.delete(op.key)
        else:  # remove: delete-if-present, 1 if it was there
            try:
                suite.delete(op.key)
            except KeyNotPresentError:
                outcome.value = 0
            else:
                outcome.value = 1
    except Exception as exc:
        outcome.error = exc
    return outcome
