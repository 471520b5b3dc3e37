"""Classifications as sets of relationship instances (thesis §4.6).

A *classification* is a named, attributed set of relationship instances
(edges).  Because membership is a property of the classification, not of
the classified objects, the same objects — and even the same edges — can
participate in several classifications at once: this is precisely how
Prometheus represents *multiple overlapping classifications*.

Each classification constrains its edge set to a directed acyclic graph
(taxonomic hierarchies are DAGs of placements; a placement cycle would be
meaningless).  Edges are created normally through
:meth:`~repro.core.schema.Schema.relate` and then attached, or created and
attached in one step with :meth:`Classification.place`.

Membership is owned by the :class:`ClassificationManager`, which persists
it in the schema's metadata record, so classifications survive reopening
the database.  The stored payload is built when a commit assembles that
record (``Schema.meta_sources``), not on every edge edit.

Membership is in-memory state like any object's, so it rolls back the
same way: every attach and detach journals its inverse
(:attr:`Schema.journal`), and an unrelated edge leaves every
classification holding it through the same journal — an aborted
``place`` or ``unrelate`` leaves membership and adjacency as they were.
The registry itself follows the journal too: an aborted ``create`` or
``drop`` leaves the set of classifications as it was.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Iterator, KeysView

from ..core.events import Event, EventKind
from ..core.instances import PObject
from ..core.relationships import RelationshipInstance
from ..errors import ClassificationError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.schema import Schema

_EXTRAS_KEY = "classifications"


class Classification:
    """One classification: a named DAG of relationship instances.

    Attributes:
        name: unique name within the manager (e.g. ``"Tutin 1968"``).
        author / year / publication / description: provenance metadata —
            the traceability the thesis requires of published
            classifications (§2.1.1).
    """

    def __init__(
        self,
        manager: "ClassificationManager",
        name: str,
        author: str = "",
        year: int | None = None,
        publication: str = "",
        description: str = "",
    ) -> None:
        self._manager = manager
        self.name = name
        self.author = author
        self.year = year
        self.publication = publication
        self.description = description
        #: Member edge OID -> (origin OID, destination OID).
        self._edges: dict[int, tuple[int, int]] = {}
        # Adjacency: parent oid -> {child oid: member edges between them},
        # and the inverse; counted, so a second edge between the same
        # pair keeps the pair adjacent when the first one leaves.
        self._children: dict[int, dict[int, int]] = {}
        self._parents: dict[int, dict[int, int]] = {}

    # -- membership ------------------------------------------------------

    @property
    def schema(self) -> "Schema":
        return self._manager.schema

    @property
    def _edge_oids(self) -> KeysView[int]:
        """Member edge OIDs, set-like (``in``, ``&``)."""
        return self._edges.keys()

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: RelationshipInstance | int) -> bool:
        oid = edge.oid if isinstance(edge, RelationshipInstance) else edge
        return oid in self._edges

    def add_edge(self, edge: RelationshipInstance) -> None:
        """Attach an existing relationship instance to this classification.

        Raises:
            ClassificationError: if the edge would create a cycle.
        """
        if edge.oid in self._edges:
            return
        if edge.deleted:
            raise ClassificationError(
                f"cannot classify with deleted edge {edge.oid}"
            )
        if self._would_cycle(edge.origin_oid, edge.destination_oid):
            raise ClassificationError(
                f"classification {self.name!r}: edge "
                f"{edge.origin_oid}->{edge.destination_oid} creates a cycle"
            )
        self.schema.journal.record(partial(self._detach, edge.oid))
        self._attach(edge.oid, edge.origin_oid, edge.destination_oid)

    def remove_edge(self, edge: RelationshipInstance | int) -> None:
        """Detach an edge from this classification (the edge survives)."""
        oid = edge.oid if isinstance(edge, RelationshipInstance) else edge
        ends = self._edges.get(oid)
        if ends is None:
            return
        self.schema.journal.record(partial(self._attach, oid, *ends))
        self._detach(oid)

    def _attach(self, oid: int, origin: int, destination: int) -> None:
        self._edges[oid] = (origin, destination)
        children = self._children.setdefault(origin, {})
        children[destination] = children.get(destination, 0) + 1
        parents = self._parents.setdefault(destination, {})
        parents[origin] = parents.get(origin, 0) + 1

    def _detach(self, oid: int) -> None:
        origin, destination = self._edges.pop(oid)
        _uncount(self._children, origin, destination)
        _uncount(self._parents, destination, origin)

    def place(
        self,
        relationship: str,
        parent: PObject,
        child: PObject,
        **attrs: Any,
    ) -> RelationshipInstance:
        """Create an edge and attach it in one step.

        Traceability: pass a ``motivation`` attribute if the relationship
        class declares one — the thesis's requirement 4.
        """
        if self._would_cycle(parent.oid, child.oid):
            raise ClassificationError(
                f"classification {self.name!r}: placing {child.oid} under "
                f"{parent.oid} creates a cycle"
            )
        with self.schema.journal:  # a refused edge is never related
            edge = self.schema.relate(relationship, parent, child, **attrs)
            self.add_edge(edge)
        return edge

    def _would_cycle(self, parent_oid: int, child_oid: int) -> bool:
        """True if adding parent→child closes a directed cycle."""
        if parent_oid == child_oid:
            return True
        # Is parent reachable from child through existing edges?
        stack = [child_oid]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node == parent_oid:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._children.get(node, ()))
        return False

    # -- graph access ------------------------------------------------------

    def edges(self) -> list[RelationshipInstance]:
        """The member edges, by OID.  A read: an edge that left the
        object table without an unrelate (replica apply, a shard move)
        is skipped, as :meth:`children` skips a missing node."""
        schema = self.schema
        return [
            schema.get_object(oid)
            for oid in sorted(self._edges)
            if schema.has_object(oid)
        ]

    def node_oids(self) -> set[int]:
        """OIDs of every object appearing as an endpoint."""
        oids: set[int] = set()
        for edge in self.edges():
            oids.add(edge.origin_oid)
            oids.add(edge.destination_oid)
        return oids

    def nodes(self) -> list[PObject]:
        return [
            self.schema.get_object(oid)
            for oid in sorted(self.node_oids())
            if self.schema.has_object(oid)
        ]

    def children(self, node: PObject | int) -> list[PObject]:
        """Direct children of ``node`` within this classification."""
        oid = node.oid if isinstance(node, PObject) else node
        return [
            self.schema.get_object(c)
            for c in sorted(self._children.get(oid, ()))
            if self.schema.has_object(c)
        ]

    def parents(self, node: PObject | int) -> list[PObject]:
        """Direct parents of ``node`` within this classification."""
        oid = node.oid if isinstance(node, PObject) else node
        return [
            self.schema.get_object(p)
            for p in sorted(self._parents.get(oid, ()))
            if self.schema.has_object(p)
        ]

    def roots(self) -> list[PObject]:
        """Nodes with no parent in this classification."""
        oids = self.node_oids()
        return [
            self.schema.get_object(oid)
            for oid in sorted(oids)
            if not self._parents.get(oid)
        ]

    def leaves(self) -> list[PObject]:
        """Nodes with no children in this classification."""
        oids = self.node_oids()
        return [
            self.schema.get_object(oid)
            for oid in sorted(oids)
            if not self._children.get(oid)
        ]

    def descendants(self, node: PObject | int) -> Iterator[PObject]:
        """All nodes strictly below ``node``, depth-first, deduplicated."""
        start = node.oid if isinstance(node, PObject) else node
        stack = sorted(self._children.get(start, ()), reverse=True)
        seen: set[int] = set()
        while stack:
            oid = stack.pop()
            if oid in seen:
                continue
            seen.add(oid)
            if self.schema.has_object(oid):
                yield self.schema.get_object(oid)
            stack.extend(sorted(self._children.get(oid, ()), reverse=True))

    def ancestors(self, node: PObject | int) -> Iterator[PObject]:
        """All nodes strictly above ``node``."""
        start = node.oid if isinstance(node, PObject) else node
        stack = sorted(self._parents.get(start, ()), reverse=True)
        seen: set[int] = set()
        while stack:
            oid = stack.pop()
            if oid in seen:
                continue
            seen.add(oid)
            if self.schema.has_object(oid):
                yield self.schema.get_object(oid)
            stack.extend(sorted(self._parents.get(oid, ()), reverse=True))

    def depth(self, node: PObject | int) -> int:
        """Longest path length from any root down to ``node``."""
        oid = node.oid if isinstance(node, PObject) else node
        cache: dict[int, int] = {}

        def longest(n: int) -> int:
            if n in cache:
                return cache[n]
            parents = self._parents.get(n, ())
            value = 0 if not parents else 1 + max(longest(p) for p in parents)
            cache[n] = value
            return value

        return longest(oid)

    def is_tree(self) -> bool:
        """True when every node has at most one parent (a strict hierarchy)."""
        return all(len(ps) <= 1 for ps in self._parents.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Classification {self.name!r}: {len(self)} edges>"


def _uncount(adjacency: dict[int, dict[int, int]], node: int, other: int) -> None:
    """Drop one edge node→other from a counted adjacency map."""
    counts = adjacency[node]
    if counts[other] > 1:
        counts[other] -= 1
        return
    del counts[other]
    if not counts:
        del adjacency[node]


class ClassificationManager:
    """Registry of all classifications over one schema.

    Responsible for name uniqueness, persistence (through the schema's
    metadata extras) and cross-classification queries such as "which
    classifications use this edge?" — the basis of overlap analysis.
    """

    def __init__(self, schema: "Schema") -> None:
        self.schema = schema
        self._classifications: dict[str, Classification] = {}
        schema.meta_sources[_EXTRAS_KEY] = self.to_storable
        schema.events.subscribe(
            self._on_unrelate, kinds={EventKind.AFTER_UNRELATE}
        )
        self.reload()

    # -- lifecycle ----------------------------------------------------------

    def create(
        self,
        name: str,
        author: str = "",
        year: int | None = None,
        publication: str = "",
        description: str = "",
    ) -> Classification:
        if name in self._classifications:
            raise ClassificationError(f"classification {name!r} already exists")
        classification = Classification(
            self,
            name,
            author=author,
            year=year,
            publication=publication,
            description=description,
        )
        self.schema.journal.record(partial(self._classifications.pop, name))
        self._classifications[name] = classification
        self._mark_stored()
        return classification

    def get(self, name: str) -> Classification:
        try:
            return self._classifications[name]
        except KeyError:
            raise ClassificationError(f"unknown classification {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._classifications

    def __iter__(self) -> Iterator[Classification]:
        return iter(
            self._classifications[name] for name in sorted(self._classifications)
        )

    def __len__(self) -> int:
        return len(self._classifications)

    def names(self) -> list[str]:
        return sorted(self._classifications)

    def drop(self, name: str, delete_edges: bool = False) -> None:
        """Remove a classification; optionally delete its exclusive edges.

        Edges shared with other classifications are never deleted.
        """
        classification = self.get(name)
        if delete_edges:
            for edge in classification.edges():
                owners = self.classifications_of_edge(edge)
                if owners == [classification]:
                    self.schema.unrelate(edge)
        self.schema.journal.record(
            partial(self._classifications.__setitem__, name, classification)
        )
        del self._classifications[name]
        self._mark_stored()

    def _on_unrelate(self, event: Event) -> None:
        """An unrelated edge leaves every classification holding it."""
        for classification in self._classifications.values():
            classification.remove_edge(event.target)

    # -- overlap queries -----------------------------------------------------

    def classifications_of_edge(
        self, edge: RelationshipInstance | int
    ) -> list[Classification]:
        oid = edge.oid if isinstance(edge, RelationshipInstance) else edge
        return [
            c for c in self if oid in c
        ]

    def classifications_of_node(self, node: PObject | int) -> list[Classification]:
        oid = node.oid if isinstance(node, PObject) else node
        return [c for c in self if oid in c.node_oids()]

    def shared_nodes(self, a: str, b: str) -> set[int]:
        return self.get(a).node_oids() & self.get(b).node_oids()

    def shared_edges(self, a: str, b: str) -> set[int]:
        return self.get(a)._edge_oids & self.get(b)._edge_oids

    # -- persistence ------------------------------------------------------------

    def _mark_stored(self) -> None:
        """Claim the metadata-record entry the next flush fills in."""
        self.schema.meta_extras.setdefault(_EXTRAS_KEY, [])

    def to_storable(self) -> list[dict[str, Any]]:
        """Every classification with its provenance and sorted edge OIDs."""
        return [
            {
                "name": c.name,
                "author": c.author,
                "year": c.year,
                "publication": c.publication,
                "description": c.description,
                "edges": sorted(c._edges),
            }
            for c in self
        ]

    def reload(self) -> None:
        """Rebuild the registry from the schema's metadata record."""
        self._classifications.clear()
        for item in self.schema.meta_extras.get(_EXTRAS_KEY, []):
            classification = Classification(
                self,
                item["name"],
                author=item.get("author", ""),
                year=item.get("year"),
                publication=item.get("publication", ""),
                description=item.get("description", ""),
            )
            for oid in item.get("edges", []):
                if self.schema.has_object(oid):
                    obj = self.schema.get_object(oid)
                    if isinstance(obj, RelationshipInstance):
                        classification._attach(
                            oid, obj.origin_oid, obj.destination_oid
                        )
            self._classifications[item["name"]] = classification
