"""The schema: class registry, object table, extents and transactions.

A :class:`Schema` is the live database session.  It owns:

* the **class registry** — Prometheus classes and relationship classes,
  rooted at the implicit ``Object`` class (ODMG's inheritance root, §4.2);
* the **object table** — every live :class:`~repro.core.instances.PObject`
  handle, keyed by OID, loaded eagerly from the persistent store on open;
* **extents** — per-class instance sets, queried polymorphically;
* the **relationship registry** — edge indexes and semantics enforcement;
* the **event bus** — every mutation is announced for rules/views/indexes;
* the **undo journal** — in-memory rollback for :meth:`abort`, independent
  of whether a persistent store is attached;
* the **synonym registry** (§4.5).

Persistence model: schema *definitions* live in application code (the
ODMG ODL role); the store holds *instances* only.  ``commit()`` writes all
dirty objects and tombstones in one storage transaction; ``abort()``
rolls back in-memory state via the journal.

This module is also the whole boundary between live objects and stored
records: :meth:`ObjectTable.install` / :meth:`ObjectTable.evict` are the
one way records become objects, :meth:`Schema.flush` the one way objects
become records, and the metadata record's class name is spelled nowhere
else.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Any, Callable, Iterable, Iterator

from ..errors import (
    InstanceDeletedError,
    SchemaError,
    TransactionError,
    UnknownOidError,
)
from ..storage.store import ObjectStore
from .attributes import Attribute
from .classes import PClass
from .events import Event, EventBus, EventKind
from .identity import OidAllocator
from .instances import PObject
from .relationships import (
    DESTINATION_KEY,
    ORIGIN_KEY,
    PARTICIPANTS_KEY,
    RelationshipClass,
    RelationshipInstance,
    RelationshipRegistry,
)
from .synonyms import SynonymRegistry
from .types import RefType

_META_CLASS = "__meta__"

#: What one flush wrote: ``(durability token, records by OID, tombstoned
#: OIDs, metadata record)`` — see :meth:`Schema.flush`.
Flushed = tuple[
    int | None, dict[int, dict[str, Any]], list[int], dict[str, Any] | None
]


class Journal:
    """Undo log: the one way in-memory state rolls back.

    ``abort()`` and a refused managed commit undo every entry, newest
    first.  ``with journal:`` makes a block one mutation: if it raises,
    the entries it recorded are undone before the exception propagates
    (a vetoed create, relate, set, delete or unrelate).  A *finalizer*
    runs after a rollback past it has undone everything else.
    """

    def __init__(self) -> None:
        self._entries: list[Callable[[], None]] = []
        self._finalizers: list[Callable[[], None]] = []
        self._marks: list[int] = []

    def record(self, undo: Callable[[], None]) -> None:
        self._entries.append(undo)

    def record_finalizer(self, run: Callable[[], None]) -> None:
        """``run`` goes last in any rollback that passes this point."""
        self._entries.append(lambda: self._finalizers.append(run))

    def clear(self) -> None:
        self._entries.clear()

    def rollback(self, mark: int = 0) -> None:
        """Undo every entry past ``mark``, then run the finalizers."""
        entries = self._entries
        while len(entries) > mark:
            entries.pop()()
        finalizers, self._finalizers = self._finalizers, []
        for run in reversed(finalizers):
            run()

    def __enter__(self) -> None:
        self._marks.append(len(self._entries))

    def __exit__(self, failed: type[BaseException] | None, *_: object) -> None:
        mark = self._marks.pop()
        if failed is not None:
            self.rollback(mark)

    def __len__(self) -> int:
        return len(self._entries)


class TxnScope:
    """Journal scope for one managed transaction's replay.

    While a scope is active on the schema, every undo entry and every
    touched object is captured here instead of in the implicit-session
    journal, so a failed managed commit rolls back exactly the ops it
    replayed — the implicit session's own pending changes survive.
    ``touched`` is also what the transaction manager flushes and
    version-stamps after a successful replay.  A rolled-back update
    leaves its object dirty: one redundant write later, never corruption.
    """

    def __init__(self) -> None:
        self.journal = Journal()
        #: Every object the replay created, updated, deleted, related or
        #: unrelated (including cascade-deleted dependents), by OID.
        self.touched: dict[int, PObject] = {}


class ObjectTable:
    """Stored records as live objects: the one records → objects path.

    Owns the object table, the extents, the relationship registry and
    what the metadata record carries (synonyms and ``meta_extras``).
    :meth:`install` and :meth:`evict` are the only way a stored record
    becomes (or stops being) a live handle: boot, replica apply,
    ``as_of`` views, the shard union view and rebalance moves all call
    them.  Both are event-free and undo-free — the change they mirror
    already ran its rules wherever it was first made.

    :class:`Schema` adds class registration, mutation and commit on
    top; :class:`~repro.mvcc.view.SnapshotSchema` is the read-only
    point-in-time variant.
    """

    def __init__(
        self, name: str, classes_of: "ObjectTable | None" = None
    ) -> None:
        self.name = name
        self.events = EventBus()
        self.synonyms = SynonymRegistry()
        #: Free-form storable payloads persisted with the schema metadata
        #: record; higher layers (classifications, views) keep their
        #: registries here.
        self.meta_extras: dict[str, Any] = {}
        #: ``meta_extras`` key -> payload builder, for higher layers
        #: whose registry is too large to re-serialise on every edit:
        #: they put the key into ``meta_extras`` once and each flush
        #: fills it in (see :meth:`Schema._meta_record`).
        self.meta_sources: dict[str, Callable[[], Any]] = {}
        self.relationships = RelationshipRegistry(self)  # type: ignore[arg-type]
        #: Shared with ``classes_of`` when given: a point-in-time view
        #: resolves classes through the live schema's registry.
        self._classes: dict[str, PClass] = (
            {} if classes_of is None else classes_of._classes
        )
        self._objects: dict[int, PObject] = {}
        self._extents: defaultdict[str, set[int]] = defaultdict(set)
        self._meta_oid: int | None = None

    # ------------------------------------------------------------------
    # class registry (read side)
    # ------------------------------------------------------------------

    def get_class(self, name: str) -> PClass:
        try:
            return self._classes[name]
        except KeyError:
            raise SchemaError(f"unknown class {name!r}") from None

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def classes(self) -> Iterator[PClass]:
        return iter(self._classes.values())

    def relationship_classes(self) -> Iterator[RelationshipClass]:
        for klass in self._classes.values():
            if isinstance(klass, RelationshipClass):
                yield klass

    # ------------------------------------------------------------------
    # object table and extents (read side)
    # ------------------------------------------------------------------

    def get_object(self, oid: int) -> PObject:
        """Return the live handle for ``oid``."""
        try:
            obj = self._objects[oid]
        except KeyError:
            raise UnknownOidError(oid) from None
        if obj.deleted:
            raise InstanceDeletedError(f"object {oid} is deleted")
        return obj

    def has_object(self, oid: int) -> bool:
        obj = self._objects.get(oid)
        return obj is not None and not obj.deleted

    def extent(self, class_name: str, polymorphic: bool = True) -> list[PObject]:
        """Instances of ``class_name`` (and subclasses unless disabled)."""
        oids: set[int] = set()
        for name in self._names_under(class_name, polymorphic):
            oids |= self._extents.get(name, set())
        return [self._objects[oid] for oid in sorted(oids) if oid in self._objects]

    def count(self, class_name: str, polymorphic: bool = True) -> int:
        names = self._names_under(class_name, polymorphic)
        return sum(len(self._extents.get(name, ())) for name in names)

    def _names_under(self, class_name: str, polymorphic: bool) -> list[str]:
        pclass = self.get_class(class_name)
        return pclass.subtree_names if polymorphic else [class_name]

    def member(self, oid: Any, class_name: str) -> PObject | None:
        """The object of ``extent(class_name)`` whose OID ``== oid`` (so
        ``3.0`` finds OID 3), or None; an unhashable ``oid`` finds none."""
        try:
            obj = self._objects.get(oid)
        except TypeError:
            return None
        names = self.get_class(class_name).subtree_names
        return obj if obj is not None and obj.pclass.name in names else None

    def all_objects(self) -> Iterator[PObject]:
        for oid in sorted(self._objects):
            yield self._objects[oid]

    # ------------------------------------------------------------------
    # records <-> live objects
    # ------------------------------------------------------------------

    def to_record(self, obj: PObject) -> dict[str, Any]:
        """The storable record of one live object."""
        values: dict[str, Any] = {}
        for name, attr in obj.pclass.all_attributes().items():
            raw = obj._values.get(name)
            values[name] = attr.type_spec.to_storable(raw)
        record: dict[str, Any] = {"class": obj.pclass.name, "values": values}
        if isinstance(obj, RelationshipInstance):
            record[ORIGIN_KEY] = obj.origin_oid
            record[DESTINATION_KEY] = obj.destination_oid
            if obj.participant_oids:
                record[PARTICIPANTS_KEY] = dict(obj.participant_oids)
        return record

    def from_record(self, oid: int, record: dict[str, Any]) -> PObject:
        """A detached handle for one stored record (not yet installed)."""
        pclass = self.get_class(record["class"])
        values: dict[str, Any] = {}
        for name, attr in pclass.all_attributes().items():
            raw = record["values"].get(name)
            if isinstance(attr.type_spec, RefType):
                values[name] = raw  # keep OidRef; resolve via get_ref
            else:
                values[name] = attr.type_spec.from_storable(raw, self)
        if isinstance(pclass, RelationshipClass):
            stored_participants = record.get(PARTICIPANTS_KEY) or {}
            return RelationshipInstance(
                oid,
                pclass,
                self,  # type: ignore[arg-type]
                values,
                origin_oid=int(record[ORIGIN_KEY]),
                destination_oid=int(record[DESTINATION_KEY]),
                participant_oids={
                    str(role): int(p_oid)
                    for role, p_oid in stored_participants.items()
                },
            )
        return PObject(oid, pclass, self, values)  # type: ignore[arg-type]

    def _admit(self, obj: PObject) -> None:
        self._objects[obj.oid] = obj
        self._extents[obj.pclass.name].add(obj.oid)
        if isinstance(obj, RelationshipInstance):
            self.relationships.index(obj)

    def _expel(self, obj: PObject) -> None:
        self._objects.pop(obj.oid, None)
        self._extents[obj.pclass.name].discard(obj.oid)
        if isinstance(obj, RelationshipInstance):
            self.relationships.unindex(obj)
        obj._mark_deleted()

    def install(self, oid: int, record: dict[str, Any]) -> PObject | None:
        """Make stored ``record`` the live state of ``oid``.

        Replaces whatever handle ``oid`` had before.  Returns the new
        handle, or None when the record is the schema metadata record —
        that one replaces the synonym registry and ``meta_extras``.
        """
        if record.get("class") == _META_CLASS:
            self._meta_oid = oid
            self.synonyms = SynonymRegistry()
            self.synonyms.load_storable(record.get("synonyms", []))
            self.meta_extras.clear()
            extras = record.get("extras", {})
            if isinstance(extras, dict):
                self.meta_extras.update(extras)
            return None
        obj = self.from_record(oid, record)
        old = self._objects.get(oid)
        if old is not None:
            self._expel(old)
        self._admit(obj)
        return obj

    def evict(self, oid: int) -> PObject | None:
        """Drop ``oid`` from the live state, synonym membership
        included; returns the dead handle (None when ``oid`` was not an
        installed object)."""
        if oid == self._meta_oid:
            self._meta_oid = None
        obj = self._objects.get(oid)
        if obj is None:
            return None
        self._expel(obj)
        self.synonyms.forget(oid)
        return obj

    def install_all(self, items: Iterable[tuple[int, dict[str, Any]]]) -> int:
        """Install every ``(oid, record)``; returns the objects installed
        (the metadata record does not count)."""
        install = self.install
        installed = 0
        for oid, record in items:
            if install(oid, record) is not None:
                installed += 1
        return installed

    def clear(self) -> None:
        """Forget every installed object and the metadata record."""
        for oid in list(self._objects):
            self.evict(oid)
        self.synonyms = SynonymRegistry()
        self.meta_extras.clear()
        self._meta_oid = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<{type(self).__name__} {self.name}: {len(self._classes)} "
            f"classes, {len(self._objects)} objects>"
        )


class Schema(ObjectTable):
    """A live Prometheus database session.

    Args:
        store: persistent backing store, or None for a purely in-memory
            database (examples, tests, raw-model benchmarks).
        name: label used in diagnostics.
    """

    def __init__(self, store: ObjectStore | None = None, name: str = "db") -> None:
        super().__init__(name)
        self.store = store
        #: Bumped on every class registration; part of the query-plan
        #: cache key so cached plans never survive schema evolution.
        self.version = 0
        self._dirty: dict[int, PObject] = {}
        self._pending_deletes: dict[int, PObject] = {}
        self._journal = Journal()
        self._scope: TxnScope | None = None
        #: The engine's implicit-session commit (commit lock, version
        #: stamps, version chains); set by its transaction manager.
        #: :meth:`commit` hands over to it, so a bare ``schema.commit()``
        #: is as visible to snapshots as ``PrometheusDB.commit``.
        self.committer: Callable[[], Flushed] | None = None
        #: Where a store-less schema draws new OIDs (a store allocates
        #: its own, so this is None there).  Public so that several
        #: schemas can share one allocator — the shard coordinator hands
        #: its global allocator to every shard, which is what keeps OIDs
        #: identical across topologies.
        self.allocator: OidAllocator | None = (
            OidAllocator() if store is None else None
        )
        root = PClass("Object", abstract=True, doc="ODMG inheritance root")
        root._bind(self, ())
        self._classes[root.name] = root

    # ------------------------------------------------------------------
    # class registry
    # ------------------------------------------------------------------

    def register_class(self, pclass: PClass) -> PClass:
        """Register a class (or relationship class) with the schema.

        Superclass names must already be registered.  Returns the class
        for chaining.
        """
        if pclass.name in self._classes:
            raise SchemaError(f"class {pclass.name!r} already registered")
        super_names = pclass.superclass_names or ("Object",)
        supers: list[PClass] = []
        for super_name in super_names:
            try:
                sup = self._classes[super_name]
            except KeyError:
                raise SchemaError(
                    f"class {pclass.name!r}: unknown superclass "
                    f"{super_name!r}"
                ) from None
            supers.append(sup)
        if isinstance(pclass, RelationshipClass):
            for sup in supers:
                if sup.name != "Object" and not isinstance(
                    sup, RelationshipClass
                ):
                    raise SchemaError(
                        f"relationship class {pclass.name!r} cannot inherit "
                        f"from plain class {sup.name!r}"
                    )
        else:
            for sup in supers:
                if isinstance(sup, RelationshipClass):
                    raise SchemaError(
                        f"plain class {pclass.name!r} cannot inherit from "
                        f"relationship class {sup.name!r}"
                    )
        pclass._bind(self, tuple(supers))
        self._classes[pclass.name] = pclass
        self.version += 1
        return pclass

    def define_class(
        self,
        name: str,
        attributes: list[Attribute] | tuple[Attribute, ...] = (),
        **kwargs: Any,
    ) -> PClass:
        """Convenience: build and register a :class:`PClass` in one call."""
        return self.register_class(PClass(name, attributes=attributes, **kwargs))

    def define_relationship(
        self,
        name: str,
        origin: str,
        destination: str,
        **kwargs: Any,
    ) -> RelationshipClass:
        """Convenience: build and register a :class:`RelationshipClass`."""
        return self.register_class(  # type: ignore[return-value]
            RelationshipClass(name, origin, destination, **kwargs)
        )

    # ------------------------------------------------------------------
    # OIDs
    # ------------------------------------------------------------------

    def _new_oid(self) -> int:
        if self.store is not None:
            return self.store.new_oid()
        assert self.allocator is not None
        return self.allocator.allocate()

    # ------------------------------------------------------------------
    # object lifecycle
    # ------------------------------------------------------------------

    def create(
        self, class_name: str, *, _oid: int | None = None, **attrs: Any
    ) -> PObject:
        """Create a new instance of ``class_name`` with initial attributes.

        ``_oid`` lets the transaction layer replay a creation under the
        OID it already promised the client; normal callers omit it.
        """
        pclass = self.get_class(class_name)
        if pclass.abstract:
            raise SchemaError(f"class {class_name!r} is abstract")
        if isinstance(pclass, RelationshipClass):
            raise SchemaError(
                f"use relate() to create instances of relationship class "
                f"{class_name!r}"
            )
        oid = self._new_oid() if _oid is None else _oid
        obj = PObject(oid, pclass, self, pclass.defaults())
        with self.journal:
            self.events.publish(
                Event(
                    kind=EventKind.BEFORE_CREATE,
                    target=obj,
                    class_name=class_name,
                    payload={"attrs": attrs},
                )
            )
            self.adopt(obj)
            self._record_undo(partial(self._uninstall, obj), obj)
            for name, value in attrs.items():
                obj.set(name, value)
            # Required attributes without defaults must now hold a value.
            for name, attr in pclass.all_attributes().items():
                if attr.required and obj.get(name) is None:
                    raise SchemaError(
                        f"{class_name}.{name} is required but was not given"
                    )
            self.events.publish(
                Event(
                    kind=EventKind.AFTER_CREATE,
                    target=obj,
                    class_name=class_name,
                )
            )
        return obj

    def adopt(self, obj: PObject) -> None:
        """Make a ready-built handle live and pending: the next commit
        writes it (and no longer tombstones it).  No events, checks or
        undo — :meth:`create` and :meth:`relate` add those; a shard
        installing a cross-shard edge cannot check endpoints it does not
        hold, and a shard move is neither a create nor a delete."""
        self._admit(obj)
        self._dirty[obj.oid] = obj
        self._pending_deletes.pop(obj.oid, None)
        obj._dirty = True

    def _uninstall(self, obj: PObject) -> None:
        self._expel(obj)
        self._dirty.pop(obj.oid, None)

    def install(self, oid: int, record: dict[str, Any]) -> PObject | None:
        """:meth:`ObjectTable.install`; the stored record supersedes
        any pending change to ``oid``."""
        obj = super().install(oid, record)
        self._dirty.pop(oid, None)
        return obj

    def evict(self, oid: int, *, pending: bool = False) -> PObject | None:
        """:meth:`ObjectTable.evict`; ``pending`` says the store may
        still hold ``oid``, so the next commit tombstones it."""
        obj = super().evict(oid)
        if obj is not None:
            self._dirty.pop(oid, None)
            if pending and self._delete_needs_tracking(oid):
                self._pending_deletes[oid] = obj
        return obj

    def delete(self, obj: PObject, cascade: bool = True) -> None:
        """Delete an object, honouring lifetime dependency (§4.4.4).

        All relationship instances touching the object are removed.  For
        each outgoing edge of a *lifetime-dependent* aggregation class,
        the destination part is deleted too (recursively) — unless
        ``cascade`` is False, in which case a dependent part blocks the
        deletion with an error.
        """
        if obj.deleted:
            return
        if isinstance(obj, RelationshipInstance):
            self.unrelate(obj)
            return
        with self.journal:
            self.events.publish(
                Event(
                    kind=EventKind.BEFORE_DELETE,
                    target=obj,
                    class_name=obj.pclass.name,
                )
            )
            dependents = self.relationships.lifetime_parts(obj.oid)
            if dependents and not cascade:
                raise SchemaError(
                    f"object {obj.oid} has lifetime-dependent parts; "
                    "delete with cascade=True"
                )
            for rel in self.relationships.touching(obj.oid):
                self.unrelate(rel, _force=True)
            self._remove_object(obj)
            for part in dependents:
                # A shared part could have been reached twice; skip dead ones.
                if not part.deleted:
                    self.delete(part, cascade=True)
            self.events.publish(
                Event(
                    kind=EventKind.AFTER_DELETE,
                    target=obj,
                    class_name=obj.pclass.name,
                )
            )

    def _delete_needs_tracking(self, oid: int) -> bool:
        """Whether a deletion must survive until the next commit.

        Store-backed deletions are tracked when the store still holds
        the oid (so the commit can tombstone it).  In-memory schemas
        with a :attr:`committer` track every deletion: its version
        chains may hold a committed version that needs a tombstone, and
        a spurious tombstone for a never-committed oid reads as absence
        anyway.  A standalone in-memory schema has nobody to tell.
        """
        if self.store is not None:
            return oid in self.store
        return self.committer is not None

    def _remove_object(self, obj: PObject) -> None:
        self.evict(obj.oid, pending=True)

        def undo() -> None:
            obj._deleted = False
            self.adopt(obj)

        self._record_undo(undo, obj)

    # ------------------------------------------------------------------
    # relationships
    # ------------------------------------------------------------------

    def relate(
        self,
        relationship: str,
        origin: PObject,
        destination: PObject,
        participants: dict[str, PObject] | None = None,
        _oid: int | None = None,
        **attrs: Any,
    ) -> RelationshipInstance:
        """Create a relationship instance origin → destination.

        ``participants`` fills the named extra endpoints of an n-ary
        relationship class (Figure 10's dotted arrows).  ``_oid`` lets
        the transaction layer replay under a preallocated OID.
        """
        relclass = self.get_class(relationship)
        if not isinstance(relclass, RelationshipClass):
            raise SchemaError(f"{relationship!r} is not a relationship class")
        if relclass.abstract:
            raise SchemaError(f"relationship class {relationship!r} is abstract")
        origin._require_live()
        destination._require_live()
        for obj in (participants or {}).values():
            obj._require_live()
        self.relationships.check_creation(
            relclass, origin, destination, participants
        )
        with self.journal:
            self.events.publish(
                Event(
                    kind=EventKind.BEFORE_RELATE,
                    class_name=relationship,
                    origin=origin,
                    destination=destination,
                    payload={"attrs": attrs},
                )
            )
            oid = self._new_oid() if _oid is None else _oid
            rel = RelationshipInstance(
                oid,
                relclass,
                self,
                relclass.defaults(),
                origin_oid=origin.oid,
                destination_oid=destination.oid,
                participant_oids={
                    role: obj.oid for role, obj in (participants or {}).items()
                },
            )
            self.adopt(rel)
            self._record_undo(partial(self._uninstall, rel), rel)
            # Constant relationship classes still allow initial attributes.
            for name, value in attrs.items():
                PObject.set(rel, name, value)
            self.events.publish(
                Event(
                    kind=EventKind.AFTER_RELATE,
                    target=rel,
                    class_name=relationship,
                    origin=origin,
                    destination=destination,
                )
            )
        return rel

    def unrelate(self, rel: RelationshipInstance, _force: bool = False) -> None:
        """Remove a relationship instance (checks constancy unless forced).

        ``_force`` is used internally when deleting an endpoint object:
        an object deletion removes even constant edges, since a dangling
        edge would be worse.
        """
        if rel.deleted:
            return
        if not _force:
            self.relationships.check_removal(rel)
        with self.journal:
            self.events.publish(
                Event(
                    kind=EventKind.BEFORE_UNRELATE,
                    target=rel,
                    class_name=rel.pclass.name,
                    origin=self._objects.get(rel.origin_oid),
                    destination=self._objects.get(rel.destination_oid),
                )
            )
            self._remove_object(rel)
            self.events.publish(
                Event(
                    kind=EventKind.AFTER_UNRELATE,
                    target=rel,
                    class_name=rel.pclass.name,
                )
            )

    # ------------------------------------------------------------------
    # dirtiness / transactions
    # ------------------------------------------------------------------

    def _note_dirty(self, obj: PObject) -> None:
        self._dirty[obj.oid] = obj

    @property
    def journal(self) -> Journal:
        """The active undo journal (the replaying managed transaction's
        scope, else the implicit session's); the index manager's too."""
        scope = self._scope
        return self._journal if scope is None else scope.journal

    def _record_undo(self, undo: Callable[[], None], obj: PObject) -> None:
        """Journal one undo step for ``obj`` into the active journal."""
        if self._scope is not None:
            self._scope.touched.setdefault(obj.oid, obj)
        self.journal.record(undo)

    # -- managed-transaction scopes (repro.concurrency) ------------------

    def begin_txn_scope(self) -> TxnScope:
        """Route journal entries into a fresh per-transaction scope.

        Used by the transaction manager while replaying a managed
        transaction's ops; exactly one scope can be active (replays are
        serialized behind the manager's commit lock).
        """
        if self._scope is not None:
            raise TransactionError("a transaction scope is already active")
        self._scope = TxnScope()
        return self._scope

    def end_txn_scope(self) -> None:
        self._scope = None

    @property
    def in_txn_scope(self) -> bool:
        return self._scope is not None

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def is_pending(self, oid: int) -> bool:
        """Whether ``oid`` carries an uncommitted implicit-session change."""
        return oid in self._dirty or oid in self._pending_deletes

    def commit(self, *, _locked: bool = False) -> Flushed:
        """Persist all pending changes; clears the undo journal.

        This is the *implicit session's* commit: direct mutations made
        through the schema API outside any managed transaction.  Returns
        what :meth:`flush` wrote.  On an engine database the call is
        handed to :attr:`committer`, which takes the commit lock, calls
        back with ``_locked`` and then stamps versions and appends the
        version chains — ``schema.commit()`` and ``PrometheusDB.commit``
        are the same commit.
        """
        if self.committer is not None and not _locked:
            return self.committer()
        if self._scope is not None:
            raise TransactionError(
                "cannot commit the implicit session while a managed "
                "transaction is replaying"
            )
        self.events.publish(Event(kind=EventKind.BEFORE_COMMIT))
        flushed = self.flush()
        self._journal.clear()
        self.events.publish(Event(kind=EventKind.AFTER_COMMIT))
        return flushed

    def flush(self, oids: Iterable[int] | None = None) -> Flushed:
        """Dirty objects → records → one store transaction: the only
        path from the object layer to the log.

        With ``oids`` None (the implicit session) everything dirty is
        written, every pending delete tombstoned and the metadata record
        rewritten.  With ``oids`` (a managed transaction's touched set)
        exactly those are flushed, the metadata record is left alone —
        it grows with every classification edge — and the fsync is
        deferred to the store's group-commit gate.

        Returns ``(token, records, deletes, meta)``: the durability
        token to hand to ``store.wait_durable`` (None unless deferred),
        the records written by OID, the OIDs tombstoned and the
        metadata record written (None if none) — what the version
        chains append for this commit, serialised once and shared.  A
        standalone in-memory schema (no store, no :attr:`committer`)
        has no reader for them, so nothing is serialised.
        """
        store = self.store
        consumed = store is not None or self.committer is not None
        if oids is None:
            writes = dict(self._dirty)
            deletes = list(self._pending_deletes)
            meta = self._meta_record() if consumed else None
        else:
            writes = {
                oid: self._dirty[oid] for oid in oids if oid in self._dirty
            }
            deletes = [oid for oid in oids if oid in self._pending_deletes]
            meta = None
        records = (
            {oid: self.to_record(obj) for oid, obj in writes.items()}
            if consumed
            else {}
        )
        token: int | None = None
        if store is not None and (records or deletes or meta is not None):
            txn = store.begin()
            try:
                for oid, record in records.items():
                    txn.write(oid, record)
                for oid in deletes:
                    if oid in store:
                        txn.delete(oid)
                if meta is not None:
                    txn.write(self.meta_oid, meta)
                token = txn.commit(defer_sync=oids is not None)
            except BaseException:
                if txn.active:
                    txn.abort()
                raise
        for oid, obj in writes.items():
            obj._mark_clean()
            del self._dirty[oid]
        for oid in deletes:
            del self._pending_deletes[oid]
        return token, records, deletes, meta

    def abort(self) -> None:
        """Discard all pending changes, restoring in-memory state.

        With a managed-transaction scope active, only that scope's
        replayed ops are rolled back (the rule engine calls this when a
        deferred rule vetoes the committing transaction); the implicit
        session's own pending changes are untouched.
        """
        self.journal.rollback()
        if self._scope is not None:
            return
        for obj in list(self._dirty.values()):
            obj._mark_clean()
        self._dirty.clear()
        self._pending_deletes.clear()
        self.events.publish(Event(kind=EventKind.AFTER_ABORT))

    # ------------------------------------------------------------------
    # the metadata record
    # ------------------------------------------------------------------

    @property
    def meta_oid(self) -> int:
        """OID of the metadata record (allocated on first use)."""
        if self._meta_oid is None:
            self._meta_oid = self._new_oid()
        return self._meta_oid

    def _meta_record(self) -> dict[str, Any] | None:
        """Synonyms + ``meta_extras`` as one record; None while there
        has never been anything to store.  Registered
        :attr:`meta_sources` rebuild their ``meta_extras`` entry here,
        so their payload is serialised once per flush, not per edit."""
        for key, build in self.meta_sources.items():
            if key in self.meta_extras:
                self.meta_extras[key] = build()
        data = self.synonyms.to_storable()
        if not data and not self.meta_extras and self._meta_oid is None:
            return None
        return {
            "class": _META_CLASS,
            "synonyms": data,
            "extras": dict(self.meta_extras),
        }

    def load_all(self) -> int:
        """Load every stored object into the session (call after classes
        are registered).  Returns the number of objects loaded."""
        if self.store is None:
            return 0
        return self.install_all(self.store.items())

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def check_integrity(self) -> list[str]:
        """Deferred integrity check: cardinality minima, dangling edges."""
        problems = self.relationships.minimum_cardinality_violations()
        for klass in self.relationship_classes():
            for rel in self.relationships.instances_of(klass.name, polymorphic=False):
                for endpoint in (rel.origin_oid, rel.destination_oid):
                    if not self.has_object(endpoint):
                        problems.append(
                            f"{klass.name} instance {rel.oid}: dangling "
                            f"endpoint {endpoint}"
                        )
        return problems
