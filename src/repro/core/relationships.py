"""First-class relationships: the primary contribution of the thesis.

A :class:`RelationshipClass` is a class metaobject whose instances are
*edges*: each :class:`RelationshipInstance` links an origin object to a
destination object and can carry its own attributes (weights, motivations,
dates...).  Relationships are orthogonal to the classified data — the
endpoint objects need not declare anything to participate (§4.3), which is
what makes classification of "non co-operating data" possible.

The :class:`RelationshipRegistry` is the schema-side index of all edges:
by class, by origin and by destination.  It enforces the declared
semantics (exclusivity, cardinality, constancy) at mutation time and
implements ADAM-style attribute inheritance (§4.4.5) for role acquisition.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Iterable

from ..errors import (
    CardinalityError,
    ConstancyError,
    ExclusivityError,
    RelationshipError,
)
from .attributes import Attribute, Method
from .classes import PClass
from .instances import PObject, _MISSING
from .semantics import UNBOUNDED, RelationshipSemantics, RelKind

if TYPE_CHECKING:  # pragma: no cover
    from .schema import Schema

#: Reserved storage keys on relationship records.
ORIGIN_KEY = "_origin"
DESTINATION_KEY = "_destination"
PARTICIPANTS_KEY = "_participants"


class RelationshipClass(PClass):
    """Metaobject for a relationship class (Figure 10).

    Args:
        name: relationship class name.
        origin: name of the class of allowed origin objects.
        destination: name of the class of allowed destination objects.
        semantics: behaviour bundle (validated against Table 3).
        attributes / methods / superclasses / doc: as for :class:`PClass`;
            superclasses must themselves be relationship classes.
    """

    def __init__(
        self,
        name: str,
        origin: str,
        destination: str,
        semantics: RelationshipSemantics | None = None,
        attributes: Iterable[Attribute] = (),
        methods: Iterable[Method] = (),
        superclasses: Iterable[str] = (),
        participants: dict[str, str] | None = None,
        doc: str = "",
    ) -> None:
        super().__init__(
            name,
            attributes=tuple(attributes),
            methods=tuple(methods),
            superclasses=tuple(superclasses),
            doc=doc,
        )
        self.origin_class_name = origin
        self.destination_class_name = destination
        self.semantics = semantics or RelationshipSemantics()
        #: Extra named endpoints making the relationship n-ary (the
        #: dotted arrows of Figure 10): role name → required class name.
        self.participant_roles: dict[str, str] = dict(participants or {})
        for role in self.participant_roles:
            if role in ("origin", "destination"):
                raise RelationshipError(
                    f"{name}: participant role {role!r} shadows a built-in "
                    "endpoint"
                )

    @property
    def is_relationship_class(self) -> bool:
        return True

    @property
    def kind(self) -> RelKind:
        return self.semantics.kind

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<RelationshipClass {self.name}: {self.origin_class_name} -> "
            f"{self.destination_class_name} ({self.semantics.kind.value})>"
        )


class RelationshipInstance(PObject):
    """One edge: origin → destination, plus user attributes.

    Created through :meth:`Schema.relate`, never directly.
    """

    __slots__ = ("origin_oid", "destination_oid", "participant_oids")

    def __init__(
        self,
        oid: int,
        pclass: RelationshipClass,
        schema: "Schema",
        values: dict[str, Any],
        origin_oid: int,
        destination_oid: int,
        participant_oids: dict[str, int] | None = None,
    ) -> None:
        super().__init__(oid, pclass, schema, values)
        self.origin_oid = origin_oid
        self.destination_oid = destination_oid
        #: Named extra endpoints (n-ary relationships): role → OID.
        self.participant_oids: dict[str, int] = dict(participant_oids or {})

    @property
    def relationship_class(self) -> RelationshipClass:
        assert isinstance(self.pclass, RelationshipClass)
        return self.pclass

    def origin_object(self) -> PObject:
        return self.schema.get_object(self.origin_oid)

    def destination_object(self) -> PObject:
        return self.schema.get_object(self.destination_oid)

    def participant(self, role: str) -> PObject | None:
        """The named extra endpoint, or None when the role is unfilled."""
        if role not in self.relationship_class.participant_roles:
            raise RelationshipError(
                f"{self.pclass.name}: no participant role {role!r}"
            )
        oid = self.participant_oids.get(role)
        if oid is None or not self.schema.has_object(oid):
            return None
        return self.schema.get_object(oid)

    def endpoints(self) -> dict[str, int]:
        """All endpoint OIDs keyed by role (incl. origin/destination)."""
        return {
            "origin": self.origin_oid,
            "destination": self.destination_oid,
            **self.participant_oids,
        }

    def other_end(self, oid: int) -> int:
        """OID of the opposite endpoint to ``oid``."""
        if oid == self.origin_oid:
            return self.destination_oid
        if oid == self.destination_oid:
            return self.origin_oid
        raise RelationshipError(
            f"object {oid} is not an endpoint of relationship {self.oid}"
        )

    def set(self, name: str, value: Any) -> None:
        if self.relationship_class.semantics.constant:
            raise ConstancyError(
                f"relationship class {self.pclass.name!r} is constant; "
                f"instance {self.oid} cannot be modified"
            )
        super().set(name, value)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<{self.pclass.name} oid={self.oid} "
            f"{self.origin_oid}->{self.destination_oid}>"
        )


class RelationshipRegistry:
    """Schema-side index and semantics enforcer for all edges.

    The registry does not own edge storage (the schema's object table
    does); it maintains secondary indexes and performs the semantic
    checks that creation/removal must satisfy.
    """

    def __init__(self, schema: "Schema") -> None:
        self._schema = schema
        # class name -> set of relationship-instance oids
        self._by_class: dict[str, set[int]] = defaultdict(set)
        # (endpoint oid, class name) -> set of relationship oids
        self._out: dict[tuple[int, str], set[int]] = defaultdict(set)
        self._in: dict[tuple[int, str], set[int]] = defaultdict(set)
        # endpoint oid -> set of relationship oids (any class)
        self._touching: dict[int, set[int]] = defaultdict(set)

    # -- index maintenance -------------------------------------------------

    def index(self, rel: RelationshipInstance) -> None:
        name = rel.pclass.name
        self._by_class[name].add(rel.oid)
        self._out[(rel.origin_oid, name)].add(rel.oid)
        self._in[(rel.destination_oid, name)].add(rel.oid)
        self._touching[rel.origin_oid].add(rel.oid)
        self._touching[rel.destination_oid].add(rel.oid)
        for oid in rel.participant_oids.values():
            self._touching[oid].add(rel.oid)

    def unindex(self, rel: RelationshipInstance) -> None:
        """Forget ``rel``; an endpoint key left with no edge goes too."""
        name = rel.pclass.name
        oid = rel.oid
        self._by_class[name].discard(oid)
        ends = (rel.origin_oid, rel.destination_oid, *rel.participant_oids.values())
        for index, key in (
            (self._out, (rel.origin_oid, name)),
            (self._in, (rel.destination_oid, name)),
            *[(self._touching, end) for end in ends],
        ):
            edges = index[key]
            edges.discard(oid)
            if not edges:
                del index[key]

    # -- semantic checks ------------------------------------------------------

    def check_creation(
        self,
        relclass: RelationshipClass,
        origin: PObject,
        destination: PObject,
        participants: dict[str, PObject] | None = None,
    ) -> None:
        """Validate endpoint classes, exclusivity and cardinality bounds."""
        schema = self._schema
        origin_type = schema.get_class(relclass.origin_class_name)
        dest_type = schema.get_class(relclass.destination_class_name)
        for role, obj in (participants or {}).items():
            if role not in relclass.participant_roles:
                raise RelationshipError(
                    f"{relclass.name}: unknown participant role {role!r}"
                )
            role_type = schema.get_class(relclass.participant_roles[role])
            if not obj.pclass.is_subclass_of(role_type):
                raise RelationshipError(
                    f"{relclass.name}: participant {role!r} must be "
                    f"{role_type.name}, got {obj.pclass.name}"
                )
        if not origin.pclass.is_subclass_of(origin_type):
            raise RelationshipError(
                f"{relclass.name}: origin must be {origin_type.name}, got "
                f"{origin.pclass.name}"
            )
        if not destination.pclass.is_subclass_of(dest_type):
            raise RelationshipError(
                f"{relclass.name}: destination must be {dest_type.name}, "
                f"got {destination.pclass.name}"
            )
        sem = relclass.semantics
        if sem.exclusive:
            rivals = self._exclusivity_rivals(relclass)
            for rival in rivals:
                if self._in.get((destination.oid, rival.name)):
                    raise ExclusivityError(
                        f"object {destination.oid} already owned through "
                        f"exclusive relationship {rival.name!r}"
                    )
        max_out = sem.cardinality.max_out
        if max_out != UNBOUNDED:
            current = len(self._out.get((origin.oid, relclass.name), ()))
            if current >= max_out:
                raise CardinalityError(
                    f"{relclass.name}: origin {origin.oid} already has "
                    f"{current} outgoing instances (max {max_out})"
                )
        max_in = sem.effective_max_in
        if max_in != UNBOUNDED:
            current = len(self._in.get((destination.oid, relclass.name), ()))
            if current >= max_in:
                raise CardinalityError(
                    f"{relclass.name}: destination {destination.oid} "
                    f"already has {current} incoming instances (max {max_in})"
                )

    def check_removal(self, rel: RelationshipInstance) -> None:
        if rel.relationship_class.semantics.constant:
            raise ConstancyError(
                f"relationship class {rel.pclass.name!r} is constant; "
                f"instance {rel.oid} cannot be removed"
            )

    def _exclusivity_rivals(
        self, relclass: RelationshipClass
    ) -> list[RelationshipClass]:
        """Exclusive classes competing for the same destinations.

        The class itself, plus every exclusive relationship class sharing
        a non-empty ``exclusivity_group`` label (Figure 12's cross-class
        exclusivity).
        """
        rivals = [relclass]
        group = relclass.semantics.exclusivity_group
        if group:
            for other in self._schema.relationship_classes():
                if (
                    other is not relclass
                    and other.semantics.exclusive
                    and other.semantics.exclusivity_group == group
                ):
                    rivals.append(other)
        return rivals

    # -- queries --------------------------------------------------------------

    def _load(self, oids: Iterable[int]) -> list[RelationshipInstance]:
        out: list[RelationshipInstance] = []
        for oid in sorted(oids):
            obj = self._schema.get_object(oid)
            assert isinstance(obj, RelationshipInstance)
            out.append(obj)
        return out

    def _class_names_under(self, relationship: str | None) -> list[str]:
        """The relationship class plus its subclasses (polymorphic query)."""
        if relationship is None:
            return list(self._by_class.keys())
        return self._schema.get_class(relationship).subtree_names

    def outgoing(
        self, oid: int, relationship: str | None = None
    ) -> list[RelationshipInstance]:
        names = self._class_names_under(relationship)
        found: set[int] = set()
        for name in names:
            found |= self._out.get((oid, name), set())
        return self._load(found)

    def incoming(
        self, oid: int, relationship: str | None = None
    ) -> list[RelationshipInstance]:
        names = self._class_names_under(relationship)
        found: set[int] = set()
        for name in names:
            found |= self._in.get((oid, name), set())
        return self._load(found)

    def lifetime_parts(self, oid: int) -> list[PObject]:
        """What a delete of ``oid`` takes along: the destinations of
        its lifetime-dependent edges."""
        return [
            rel.destination_object() for rel in self.outgoing(oid)
            if rel.relationship_class.semantics.lifetime_dependent
        ]

    def touching(self, oid: int) -> list[RelationshipInstance]:
        """All edges having ``oid`` as either endpoint."""
        return self._load(self._touching.get(oid, set()))

    def instances_of(
        self, relationship: str, polymorphic: bool = True
    ) -> list[RelationshipInstance]:
        if polymorphic:
            names = self._class_names_under(relationship)
        else:
            names = [relationship]
        found: set[int] = set()
        for name in names:
            found |= self._by_class.get(name, set())
        return self._load(found)

    def count(self, relationship: str | None = None) -> int:
        names = self._class_names_under(relationship)
        return sum(len(self._by_class.get(name, set())) for name in names)

    # -- attribute inheritance (roles, §4.4.5) -----------------------------------

    def inherited_attribute(self, obj: PObject, name: str) -> Any:
        """Value of a role attribute acquired via relationships.

        Searches incoming edges first (the ADAM direction: attributes flow
        to the targeted object), then outgoing.  Returns the ``_MISSING``
        sentinel when no relationship grants the attribute.
        """
        for edges in (
            self.incoming(obj.oid),
            self.outgoing(obj.oid),
        ):
            for rel in edges:
                sem = rel.relationship_class.semantics
                if name in sem.inherited_attributes and rel.pclass.has_attribute(
                    name
                ):
                    return rel.get(name)
        return _MISSING

    def roles_of(self, obj: PObject) -> dict[str, Any]:
        """All role attributes currently acquired by ``obj``."""
        roles: dict[str, Any] = {}
        for rel in self.touching(obj.oid):
            sem = rel.relationship_class.semantics
            for name in sem.inherited_attributes:
                if rel.pclass.has_attribute(name) and name not in roles:
                    roles[name] = rel.get(name)
        return roles

    # -- integrity ----------------------------------------------------------------

    def minimum_cardinality_violations(self) -> list[str]:
        """Deferred check of declared minima; returns human messages."""
        problems: list[str] = []
        for relclass in self._schema.relationship_classes():
            card = relclass.semantics.cardinality
            if card.min_out == 0 and card.min_in == 0:
                continue
            origin_type = self._schema.get_class(relclass.origin_class_name)
            dest_type = self._schema.get_class(relclass.destination_class_name)
            if card.min_out:
                for obj in self._schema.extent(origin_type.name):
                    n = len(self._out.get((obj.oid, relclass.name), ()))
                    if n < card.min_out:
                        problems.append(
                            f"{relclass.name}: origin {obj.oid} has {n} "
                            f"outgoing (min {card.min_out})"
                        )
            if card.min_in:
                for obj in self._schema.extent(dest_type.name):
                    n = len(self._in.get((obj.oid, relclass.name), ()))
                    if n < card.min_in:
                        problems.append(
                            f"{relclass.name}: destination {obj.oid} has "
                            f"{n} incoming (min {card.min_in})"
                        )
        return problems
