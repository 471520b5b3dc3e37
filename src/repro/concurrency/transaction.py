"""Managed transactions: a copy-on-write overlay per client.

A :class:`Transaction` gives one client (an HTTP session, a CLI
``.begin``, an embedding thread) an isolated view over the committed
object layer.  Mutations never touch the shared schema while the
transaction is open: they are staged as an *op log* plus a read-your-
writes overlay, and only applied — serially, validated, journalled —
when :meth:`commit` hands the transaction to the
:class:`~repro.concurrency.manager.TransactionManager`.

Isolation model (docs/CONCURRENCY.md): snapshot isolation.

* **writes** are buffered; nobody sees them before commit;
* **reads** through :meth:`get` resolve the OID's *version chain*
  (:mod:`repro.mvcc`) at the snapshot LSN pinned when the transaction
  began, merged with the transaction's own staged writes — lock-free:
  a reader never blocks behind a committing writer and never aborts
  because of one.  OIDs the chain store does not track fall back to
  the pre-MVCC locked read of live committed state;
* **conflict detection** is write-write only: commit raises
  :class:`~repro.errors.ConflictError` exactly when another transaction
  committed an object in this one's write set *after this one's
  snapshot* (first committer wins).  Pure readers always commit.
  ``validate_reads=True`` opts a transaction into the stricter pre-MVCC
  behaviour of validating the read set the same way.

OIDs for created objects and relationships are allocated eagerly from
the (thread-safe) allocator, so the IDs a client sees before commit are
the IDs the objects keep after it — OIDs are never reused, so an
aborted transaction just leaves holes.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Iterable

from ..core.ops import KINDS, Op
from ..core.relationships import (
    DESTINATION_KEY,
    ORIGIN_KEY,
    RelationshipClass,
    RelationshipInstance,
)
from ..errors import (
    InstanceDeletedError,
    SchemaError,
    TransactionError,
    UnknownOidError,
)
from ..mvcc.view import record_values

if TYPE_CHECKING:  # pragma: no cover
    from .manager import TransactionManager

#: Sentinel: the version chains cannot answer for this OID — fall back
#: to the pre-MVCC locked read of live committed state.
_LIVE = object()


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One client's snapshot-style overlay over the committed schema.

    Obtained from :meth:`TransactionManager.begin` (or
    ``PrometheusDB.begin``); not constructed directly.  Usable as a
    context manager: commits on clean exit, aborts on exception.
    """

    def __init__(
        self,
        manager: "TransactionManager",
        txn_id: int,
        validate_reads: bool = False,
        snapshot_ts: int = 0,
        snapshot_lsn: int = 0,
    ) -> None:
        self._manager = manager
        self._schema = manager.schema
        self.txn_id = txn_id
        self.validate_reads = validate_reads
        self.state = TxnState.ACTIVE
        #: Commit clock value / log LSN this transaction's snapshot
        #: observes: reads resolve version chains at ``snapshot_lsn``,
        #: and validation conflicts exactly on commits newer than
        #: ``snapshot_ts``.  Published atomically as a pair by the
        #: manager, so the two always describe the same commit.
        self.snapshot_ts = snapshot_ts
        self.snapshot_lsn = snapshot_lsn
        #: The pin keeping GC from collecting this snapshot's versions;
        #: released by the manager when the transaction finishes.
        self._pin: Any = None
        #: Commit timestamp, set on successful commit.
        self.commit_ts: int | None = None
        #: Storage commit LSN (log byte offset), set on successful
        #: commit when a persistent store backs the manager.  Sessions
        #: carry it forward for read-your-writes replica routing.
        self.commit_lsn: int | None = None
        #: Staged ops by slot, in staging order; a cancelled create or
        #: relate drops its slot.
        self._ops: dict[int, Op] = {}
        self._slots = itertools.count()
        # oid -> committed version when this txn first READ the object
        self._read_versions: dict[int, int] = {}
        # oid -> committed version when this txn first WROTE the object
        # (endpoints of staged relates/unrelates count as writes)
        self._write_versions: dict[int, int] = {}
        # read-your-writes overlay: staged attribute values per oid
        self._overlay: dict[int, dict[str, Any]] = {}
        # oids created by this txn -> their slot in self._ops
        self._created: dict[int, int] = {}
        self._deleted: set[int] = set()

    # -- introspection ------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def read_set(self) -> frozenset[int]:
        return frozenset(self._read_versions)

    @property
    def write_set(self) -> frozenset[int]:
        return frozenset(self._write_versions)

    @property
    def ops(self) -> Iterable[Op]:
        """The staged ops, in the order commit applies them."""
        return self._ops.values()

    @property
    def op_count(self) -> int:
        return len(self._ops)

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    # -- version bookkeeping ------------------------------------------------

    def _touch_read(self, oid: int) -> None:
        if oid not in self._read_versions and oid not in self._created:
            self._read_versions[oid] = self._manager.version_of(oid)

    def _touch_write(self, oid: int) -> None:
        if oid in self._created:
            return
        if oid not in self._write_versions:
            # Prefer the version observed when the value was first READ:
            # a get-then-set pattern must validate against the version
            # the read saw, or a commit between the two goes undetected.
            self._write_versions[oid] = self._read_versions.get(
                oid, self._manager.version_of(oid)
            )

    # -- snapshot resolution ------------------------------------------------

    def _snapshot_record(self, oid: int) -> Any:
        """Storage record visible at this transaction's snapshot.

        Returns the record dict, raises :class:`UnknownOidError` when
        the chain proves the object absent at the snapshot (deleted, or
        created after it), or returns the ``_LIVE`` sentinel when the
        chains cannot answer: an untracked OID, or an OID with
        uncommitted implicit-session changes — those keep the locked
        live read so direct schema mutations stay read-your-writes for
        the implicit session.
        """
        if self._schema.is_pending(oid):
            return _LIVE
        tracked, record = self._manager.mvcc.lookup(oid, self.snapshot_lsn)
        if not tracked:
            return _LIVE
        if record is None:
            raise UnknownOidError(oid)
        return record

    # -- reading ------------------------------------------------------------

    def get(self, oid: int) -> dict[str, Any]:
        """Merged view of one object: snapshot values + staged writes.

        Lock-free on the MVCC path: the version chain is resolved at
        the snapshot LSN without touching the commit lock, so a long
        reader never waits behind (or is aborted by) writers.  Records
        the read in the read set.  Raises for objects this transaction
        deleted, and for OIDs absent at the snapshot (unless this
        transaction created them).
        """
        self._require_active()
        if oid in self._deleted:
            raise InstanceDeletedError(
                f"object {oid} is deleted in this transaction"
            )
        if oid in self._created:
            op = self._ops[self._created[oid]]
            pclass = self._schema.get_class(op.class_name)
            values = pclass.defaults()
            values.update(op.attrs)
            return values
        record = self._snapshot_record(oid)
        if record is _LIVE:
            with self._manager.read_lock():
                obj = self._schema.get_object(oid)
                base = obj.to_dict()
                self._touch_read(oid)
        else:
            base = record_values(self._schema, record)
            self._touch_read(oid)
        base.update(self._overlay.get(oid, {}))
        return base

    def get_value(self, oid: int, attr: str) -> Any:
        """One attribute through the overlay (sugar over :meth:`get`)."""
        return self.get(oid).get(attr)

    def class_of(self, oid: int) -> str:
        """Class name of a visible object (committed or staged)."""
        self._require_active()
        if oid in self._created:
            return self._ops[self._created[oid]].class_name
        record = self._snapshot_record(oid)
        if record is _LIVE:
            with self._manager.read_lock():
                return self._schema.get_object(oid).pclass.name
        return record["class"]

    # -- staging mutations --------------------------------------------------

    def create(self, class_name: str, **attrs: Any) -> int:
        """Stage creation of a new object; returns its (final) OID."""
        return self.stage(Op("create", 0, class_name, attrs))

    def set(self, oid: int, attr: str, value: Any) -> None:
        """Stage one attribute assignment (full validation at commit)."""
        self.stage(Op("set", oid, attr=attr, value=value))

    def update(self, oid: int, **attrs: Any) -> None:
        for attr, value in attrs.items():
            self.set(oid, attr, value)

    def delete(self, oid: int, cascade: bool = True) -> None:
        """Stage deletion (lifetime-dependency cascade runs at commit)."""
        self.stage(Op("delete", oid, cascade=cascade))

    def relate(
        self,
        relationship: str,
        origin: int,
        destination: int,
        participants: dict[str, int] | None = None,
        **attrs: Any,
    ) -> int:
        """Stage a relationship origin → destination; returns its OID.

        Endpoints join the *write set*: two transactions concurrently
        relating through the same endpoint conflict, which is exactly
        the shared-endpoint write-write case the thesis's workflows hit.
        """
        return self.stage(
            Op("relate", 0, relationship, attrs, origin=origin,
               destination=destination,
               participants=dict(participants or {}))
        )

    def unrelate(self, rel_oid: int) -> None:
        """Stage removal of a relationship instance."""
        self.stage(Op("unrelate", rel_oid))

    def stage(self, op: Op) -> int | None:
        """Check ``op`` against this transaction's view and stage it —
        the entry for parsed ops, and what the methods above call.
        Returns the OID a create or relate allocated."""
        self._require_active()
        kind, oid = op.kind, op.oid
        if kind not in KINDS:
            raise SchemaError(f"unknown op {kind!r}")
        if kind == "create" or kind == "relate":
            self._check_new(op)
            oid = self._schema._new_oid()
            self._created[oid] = slot = next(self._slots)
            self._ops[slot] = op._replace(oid=oid)
            return oid
        if oid in self._deleted and kind != "unrelate":
            if kind == "delete":
                return None
            raise InstanceDeletedError(
                f"object {oid} is deleted in this transaction"
            )
        if oid in self._created:
            slot = self._created[oid]
            made = self._ops[slot]
            if kind == "set":
                # Creation replays with its final attributes, so later
                # sets on a staged object fold into the create op.
                self._schema.get_class(made.class_name).get_attribute(op.attr)
                self._ops[slot] = made._replace(
                    attrs={**made.attrs, op.attr: op.value}
                )
                return None
            if kind == "unrelate" and made.kind != "relate":
                raise SchemaError(f"object {oid} is not a relationship")
            # Created and removed within this txn: the slot is dropped,
            # and nothing ever reaches the shared schema.  As in
            # ``Schema.delete``, its staged edges go too, and so do the
            # parts its lifetime-dependent edges hold.
            get_class = self._schema.get_class
            edges = [
                e for e in self._ops.values() if e.kind == "relate"
                and oid in (e.origin, e.destination, *e.participants.values())
            ]
            parts = [
                e.destination for e in edges if e.origin == oid
                and get_class(e.class_name).semantics.lifetime_dependent
            ]
            if parts and not op.cascade:
                raise SchemaError(f"object {oid} has lifetime-dependent "
                                  "parts; delete with cascade=True")
            for dropped in (oid, *(edge.oid for edge in edges)):
                del self._ops[self._created.pop(dropped)]
                self._deleted.add(dropped)
            for part in parts:
                self.stage(Op("delete", part))
            return None
        if kind == "set":
            self._touch_existing(oid, op.attr)
            self._overlay.setdefault(oid, {})[op.attr] = op.value
        elif kind == "delete":
            self._touch_existing(oid)
            self._deleted.add(oid)
            self._overlay.pop(oid, None)
        else:
            self._check_unrelate(oid)
            self._deleted.add(oid)
        self._ops[next(self._slots)] = op
        return None

    def _check_new(self, op: Op) -> None:
        """Fail fast on a create or relate the schema would refuse; a
        relate's endpoints join the write set."""
        name = op.class_name
        pclass = self._schema.get_class(name)
        if op.kind == "create" and pclass.abstract:
            raise SchemaError(f"class {name!r} is abstract")
        if op.kind == "create" and isinstance(pclass, RelationshipClass):
            raise SchemaError(
                f"use relate() to create instances of relationship class "
                f"{name!r}"
            )
        if op.kind == "relate" and not isinstance(pclass, RelationshipClass):
            raise SchemaError(f"{name!r} is not a relationship class")
        if pclass.abstract:
            raise SchemaError(f"relationship class {name!r} is abstract")
        for attr in op.attrs:
            pclass.get_attribute(attr)  # unknown attribute fails fast
        if op.kind == "create":
            return
        for endpoint in (op.origin, op.destination, *op.participants.values()):
            if endpoint in self._created:
                continue
            if endpoint in self._deleted:
                raise InstanceDeletedError(
                    f"object {endpoint} is deleted in this transaction"
                )
            self._touch_existing(endpoint)

    def _touch_existing(self, oid: int, attr: str | None = None) -> None:
        """Add a committed object to the write set; it must be visible,
        and ``attr``, if given, one of its attributes."""
        record = self._snapshot_record(oid)
        if record is _LIVE:
            with self._manager.read_lock():
                obj = self._schema.get_object(oid)
                if attr is not None:
                    obj.pclass.get_attribute(attr)
                self._touch_write(oid)
        else:
            if attr is not None:
                self._schema.get_class(record["class"]).get_attribute(attr)
            self._touch_write(oid)

    def _check_unrelate(self, rel_oid: int) -> None:
        """A committed relationship, with its live endpoints, joins the
        write set."""
        record = self._snapshot_record(rel_oid)
        if record is _LIVE:
            with self._manager.read_lock():
                rel = self._schema.get_object(rel_oid)
                if not isinstance(rel, RelationshipInstance):
                    raise SchemaError(
                        f"object {rel_oid} is not a relationship"
                    )
                self._touch_write(rel_oid)
                for endpoint in (rel.origin_oid, rel.destination_oid):
                    if self._schema.has_object(endpoint):
                        self._touch_write(endpoint)
        else:
            if ORIGIN_KEY not in record or not isinstance(
                self._schema.get_class(record["class"]), RelationshipClass
            ):
                raise SchemaError(f"object {rel_oid} is not a relationship")
            self._touch_write(rel_oid)
            for endpoint in (record[ORIGIN_KEY], record[DESTINATION_KEY]):
                try:
                    exists = self._snapshot_record(endpoint)
                except UnknownOidError:
                    continue
                if exists is _LIVE and not self._schema.has_object(endpoint):
                    continue
                self._touch_write(int(endpoint))

    # -- lifecycle ----------------------------------------------------------

    def commit(self) -> int:
        """Validate, replay and persist; returns the commit timestamp.

        Raises :class:`~repro.errors.ConflictError` when first-committer-
        wins validation rejects the write set — the transaction is then
        aborted and the caller retries from ``begin()``.
        """
        self._require_active()
        return self._manager.commit(self)

    def abort(self) -> None:
        """Discard the overlay; nothing ever reached the shared schema."""
        if self.state is not TxnState.ACTIVE:
            return
        self.state = TxnState.ABORTED
        self._ops.clear()
        self._overlay.clear()
        self._manager._note_finished(self, committed=False, conflict=False)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if not self.active:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Transaction {self.txn_id} {self.state.value}: "
            f"{len(self._ops)} ops, writes={sorted(self.write_set)}>"
        )
