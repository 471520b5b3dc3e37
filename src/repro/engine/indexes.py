"""The index layer (thesis §6.1.4, §6.1.5.2).

Attribute indexes are maintained *through the event layer*: the
:class:`IndexManager` subscribes to create/update/delete events and keeps
every declared index current — the object layer never knows indexes
exist.  Every entry it adds or drops journals its exact inverse
(:attr:`Schema.journal`), so entries roll back with the objects.
Two kinds:

* **hash** — exact-match probes (``epithet = "Apium"``);
* **btree** — exact probes plus ordered range scans (``year < 1820``).

The query layer probes indexes through
:meth:`IndexManager.probe`, which is plugged into the POOL evaluator as
its fast path.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from functools import partial
from typing import Any, Iterable, Iterator

from ..core.events import Event, EventKind
from ..core.instances import PObject
from ..core.schema import Schema
from ..errors import SchemaError
from .btree import BTree


class IndexKind(enum.Enum):
    HASH = "hash"
    BTREE = "btree"


class _HashIndex:
    def __init__(self) -> None:
        self._data: dict[Any, set[int]] = defaultdict(set)

    def insert(self, key: Any, oid: int) -> bool:
        """Add one entry; True if it was not there yet."""
        bucket = self._data[_hashable(key)]
        size = len(bucket)
        bucket.add(oid)
        return len(bucket) != size

    def remove(self, key: Any, oid: int) -> bool:
        """Drop one entry; True if it was present."""
        hkey = _hashable(key)
        bucket = self._data.get(hkey)
        if bucket is None or oid not in bucket:
            return False
        bucket.discard(oid)
        if not bucket:
            del self._data[hkey]
        return True

    def get(self, key: Any) -> frozenset[int]:
        return frozenset(self._data.get(_hashable(key), ()))

    @property
    def distinct(self) -> int:
        return len(self._data)

    def __len__(self) -> int:
        return sum(len(v) for v in self._data.values())


class _BTreeIndex:
    def __init__(self, name: str) -> None:
        self.name = name
        self._tree = BTree()
        self._nulls: set[int] = set()
        # Non-null key *comparison categories* present in the tree
        # (bool < numbers < str under POOL sort order, but the B-tree
        # interleaves bools with numbers) — the planner may only elide a
        # sort via index order when exactly one category is present.
        self._categories: dict[str, int] = {}

    def insert(self, key: Any, oid: int) -> bool:
        """Add one entry; True if it was not there yet."""
        if key is None:
            size = len(self._nulls)
            self._nulls.add(oid)
            return len(self._nulls) != size
        before = len(self._tree)
        try:
            self._tree.insert(key, oid)
        except TypeError:
            # The tree is unchanged: a failed comparison inserts
            # nothing (splits on the way down keep it valid).
            raise self._unorderable(key) from None
        if len(self._tree) == before:
            return False
        cat = _category(key)
        self._categories[cat] = self._categories.get(cat, 0) + 1
        return True

    def _unorderable(self, key: Any) -> SchemaError:
        clash = next(
            (
                type(other).__name__
                for other in self._tree.keys()
                if not _orders(other, key)
            ),
            "a stored key",
        )
        return SchemaError(
            f"btree index {self.name} cannot order "
            f"{type(key).__name__} beside {clash}"
        )

    def remove(self, key: Any, oid: int) -> bool:
        """Drop one entry; True if it was present."""
        if key is None:
            present = oid in self._nulls
            self._nulls.discard(oid)
            return present
        if not self._tree.remove(key, oid):
            return False
        cat = _category(key)
        count = self._categories.get(cat, 0) - 1
        if count <= 0:
            self._categories.pop(cat, None)
        else:
            self._categories[cat] = count
        return True

    def get(self, key: Any) -> frozenset[int]:
        if key is None:
            return frozenset(self._nulls)
        return self._tree.get(key)

    def range(
        self, low: Any, high: Any, include_low: bool, include_high: bool
    ) -> Iterator[tuple[Any, frozenset[int]]]:
        return self._tree.range(low, high, include_low, include_high)

    @property
    def nulls(self) -> frozenset[int]:
        return frozenset(self._nulls)

    @property
    def order_safe(self) -> bool:
        """True when tree order provably equals POOL sort order."""
        return len(self._categories) <= 1 and "other" not in self._categories

    @property
    def distinct(self) -> int:
        return self._tree.key_count + (1 if self._nulls else 0)

    def __len__(self) -> int:
        return len(self._tree) + len(self._nulls)


class Index:
    """One declared index over (class, attribute)."""

    def __init__(self, class_name: str, attribute: str, kind: IndexKind) -> None:
        self.class_name = class_name
        self.attribute = attribute
        self.kind = kind
        self.impl: _HashIndex | _BTreeIndex
        self.fill(())
        self.probes = 0

    @property
    def name(self) -> str:
        return f"{self.class_name}.{self.attribute}[{self.kind.value}]"

    def fill(self, objects: Iterable[PObject]) -> None:
        """Replace every entry with one per object in ``objects``."""
        hashed = self.kind is IndexKind.HASH
        impl: _HashIndex | _BTreeIndex
        impl = _HashIndex() if hashed else _BTreeIndex(self.name)
        for obj in objects:
            impl.insert(obj.get(self.attribute), obj.oid)
        self.impl = impl

    def __len__(self) -> int:
        return len(self.impl)


class IndexManager:
    """Declares, maintains and probes attribute indexes for one schema."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        #: Bumped on every index create/drop; part of the plan-cache key
        #: so cached plans never outlive the access paths they chose.
        self.epoch = 0
        self._indexes: dict[tuple[str, str], Index] = {}
        schema.events.subscribe(
            self._on_event,
            kinds={
                EventKind.AFTER_CREATE,
                EventKind.AFTER_UPDATE,
                EventKind.BEFORE_DELETE,
                EventKind.AFTER_RELATE,
                EventKind.BEFORE_UNRELATE,
            },
        )

    # -- declaration ---------------------------------------------------------

    def create_index(
        self, class_name: str, attribute: str, kind: str | IndexKind = "hash"
    ) -> Index:
        """Declare and build an index; existing instances are indexed now.

        A B-tree over values that do not order together (an int beside
        a str) is refused with :class:`SchemaError`; nothing registers.
        Built over uncommitted changes (which journalled no entry moves
        for it), the index refills from the restored extent on rollback.
        """
        resolved = IndexKind(kind) if isinstance(kind, str) else kind
        pclass = self.schema.get_class(class_name)
        if not pclass.has_attribute(attribute):
            raise SchemaError(
                f"cannot index {class_name}.{attribute}: no such attribute"
            )
        key = (class_name, attribute)
        if key in self._indexes:
            raise SchemaError(f"index on {class_name}.{attribute} exists")
        index = Index(class_name, attribute, resolved)
        index.fill(self.schema.extent(class_name))
        self._indexes[key] = index
        self.epoch += 1
        journal = self.schema.journal
        if len(journal):
            journal.record_finalizer(
                lambda: index.fill(self.schema.extent(class_name))
            )
        return index

    def drop_index(self, class_name: str, attribute: str) -> None:
        if self._indexes.pop((class_name, attribute), None) is not None:
            self.epoch += 1

    def indexes(self) -> list[Index]:
        return [self._indexes[k] for k in sorted(self._indexes)]

    # -- maintenance via events -------------------------------------------------

    def _covering(self, event_class: str, attribute: str | None) -> list[Index]:
        """Indexes affected by an event on ``event_class``.

        An index on class C covers events on any subclass of C.
        """
        if not self.schema.has_class(event_class):
            return []
        klass = self.schema.get_class(event_class)
        out = []
        for index in self._indexes.values():
            if attribute is not None and index.attribute != attribute:
                continue
            if klass.is_subclass_of(self.schema.get_class(index.class_name)):
                out.append(index)
        return out

    def _on_event(self, event: Event) -> None:
        target = event.target
        if target is None or not event.class_name:
            return
        oid = target.oid
        # Only a B-tree refuses a key: that vetoes the assignment, whose
        # rollback replays the removal's inverse journalled just before.
        record = self.schema.journal.record
        if event.kind is EventKind.AFTER_UPDATE:
            old, new = event.old_value, event.new_value
            for index in self._covering(event.class_name, event.attribute):
                impl = index.impl
                if impl.remove(old, oid):
                    record(partial(impl.insert, old, oid))
                if impl.insert(new, oid):
                    record(partial(impl.remove, new, oid))
        elif event.kind in (EventKind.AFTER_CREATE, EventKind.AFTER_RELATE):
            for index in self._covering(event.class_name, None):
                key = target.get(index.attribute)
                if index.impl.insert(key, oid):
                    record(partial(index.impl.remove, key, oid))
        elif event.kind in (EventKind.BEFORE_DELETE, EventKind.BEFORE_UNRELATE):
            for index in self._covering(event.class_name, None):
                key = target.get(index.attribute)
                if index.impl.remove(key, oid):
                    record(partial(index.impl.insert, key, oid))

    def note_installed(self, obj: PObject) -> None:
        """Index maintenance for a low-level install that bypasses the
        event bus (shard rebalancing, cross-shard edge installs)."""
        for index in self._covering(obj.pclass.name, None):
            index.impl.insert(obj.get(index.attribute), obj.oid)

    def note_removed(self, obj: PObject) -> None:
        """Inverse of :meth:`note_installed`; call while the object's
        attribute values are still readable."""
        for index in self._covering(obj.pclass.name, None):
            index.impl.remove(obj.get(index.attribute), obj.oid)

    # -- probing -------------------------------------------------------------------

    def probe(
        self, class_name: str, attribute: str, value: Any
    ) -> list[PObject] | None:
        """Exact-match lookup; None when no index covers the probe.

        This is the :data:`~repro.query.evaluator.IndexProbe` fast path of
        the POOL evaluator (§6.1.5.2).
        """
        index = self._indexes.get((class_name, attribute))
        if index is None:
            return None
        index.probes += 1
        return self._load(index.impl.get(value))

    def range(
        self,
        class_name: str,
        attribute: str,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[PObject]:
        """Ordered range scan: :meth:`range_probe`, refused where that
        answers None."""
        found = self.range_probe(
            class_name, attribute, low, high, include_low, include_high
        )
        if found is None:
            raise SchemaError(
                f"no btree index on {class_name}.{attribute} answers "
                "this range"
            )
        return found

    def range_probe(
        self,
        class_name: str,
        attribute: str,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[PObject] | None:
        """Range probe for the planner; None when no B-tree index
        covers it, so the runtime fallback is an extent scan.
        ``None``-valued entries live in the B-tree's side set, never in
        the key order, so rows whose indexed attribute is null are
        correctly absent from every range result (three-valued
        comparison semantics).
        """
        index = self._indexes.get((class_name, attribute))
        if index is None or not isinstance(index.impl, _BTreeIndex):
            return None
        index.probes += 1
        oids: set[int] = set()
        try:
            walk = index.impl.range(low, high, include_low, include_high)
            for _, bucket in walk:
                oids |= bucket
        except TypeError:
            # Bound incomparable with the stored keys: fall back to a
            # scan so the WHERE filter decides, conjunct by conjunct in
            # the naive order — it raises the EvaluationError the naive
            # comparison would, or answers where a conjunct before the
            # comparison rules every row out.
            return None
        return self._load(oids)

    def ordered_scan(
        self, class_name: str, attribute: str, descending: bool = False
    ) -> list[PObject] | None:
        """Extent members in ``ORDER BY attribute`` order, via the index.

        Returns None unless a B-tree index covers the attribute *and*
        its keys all fall in one comparison category (mixed bool/number
        or stray types would make tree order diverge from POOL sort
        order).  Nulls sort before every value ascending, after every
        value descending; ties come back in OID order — exactly the
        naive evaluator's stable-sort order.
        """
        index = self._indexes.get((class_name, attribute))
        if index is None or not isinstance(index.impl, _BTreeIndex):
            return None
        if not index.impl.order_safe:
            return None
        index.probes += 1
        groups: list[frozenset[int]] = [
            bucket for _, bucket in index.impl.range(None, None, True, True)
        ]
        if descending:
            groups.reverse()
            groups.append(index.impl.nulls)
        else:
            groups.insert(0, index.impl.nulls)
        out: list[PObject] = []
        for bucket in groups:
            out.extend(self._load(bucket))
        return out

    def lookup(self, class_name: str, attribute: str) -> dict[str, Any] | None:
        """Cardinality statistics for the planner's cost model."""
        index = self._indexes.get((class_name, attribute))
        if index is None:
            return None
        return {
            "kind": index.kind.value,
            "entries": len(index.impl),
            "distinct": index.impl.distinct,
        }

    def _load(self, oids: frozenset[int] | set[int]) -> list[PObject]:
        return [
            self.schema.get_object(oid)
            for oid in sorted(oids)
            if self.schema.has_object(oid)
        ]


def _category(key: Any) -> str:
    """Comparison category of a B-tree key (see ``_sort_key``)."""
    if isinstance(key, bool):
        return "bool"
    if isinstance(key, (int, float)):
        return "num"
    if isinstance(key, str):
        return "str"
    return "other"


def _orders(a: Any, b: Any) -> bool:
    try:
        a < b
    except TypeError:
        return False
    return True


def _hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)
