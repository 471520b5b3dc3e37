"""Live object handles (the object layer, thesis §6.1.2).

A :class:`PObject` is the in-memory handle for one persistent object.  It
holds the current attribute values, validates assignments against the
class metaobject, publishes events around every change, and tracks
dirtiness so the schema can write only modified objects at commit.

Attribute access is explicit (``obj.get("name")`` / ``obj.set(...)``) with
item-style sugar (``obj["name"]``); we deliberately avoid ``__getattr__``
magic per the style guide's "avoid the magical wand".
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Iterator

from ..errors import (
    AttributeUnknownError,
    InstanceDeletedError,
    TypeCheckError,
)
from .events import Event, EventKind
from .types import RefType

if TYPE_CHECKING:  # pragma: no cover
    from .classes import PClass
    from .relationships import RelationshipInstance
    from .schema import Schema


class PObject:
    """Handle for one persistent Prometheus object.

    Never constructed directly — use :meth:`Schema.create` (new object) or
    :meth:`Schema.get_object` (load existing).
    """

    __slots__ = ("oid", "pclass", "schema", "_values", "_dirty", "_deleted")

    def __init__(
        self,
        oid: int,
        pclass: "PClass",
        schema: "Schema",
        values: dict[str, Any],
    ) -> None:
        self.oid = oid
        self.pclass = pclass
        self.schema = schema
        self._values = values
        self._dirty = False
        self._deleted = False

    # -- state flags -----------------------------------------------------------

    @property
    def dirty(self) -> bool:
        return self._dirty

    @property
    def deleted(self) -> bool:
        return self._deleted

    def _require_live(self) -> None:
        if self._deleted:
            raise InstanceDeletedError(
                f"object {self.oid} ({self.pclass.name}) is deleted"
            )

    def _mark_dirty(self) -> None:
        self._dirty = True
        self.schema._note_dirty(self)

    def _mark_clean(self) -> None:
        self._dirty = False

    def _mark_deleted(self) -> None:
        self._deleted = True

    # -- attribute access --------------------------------------------------------

    def get(self, name: str) -> Any:
        """Return an attribute value (own, inherited or role-acquired).

        Role-acquired attributes (§4.4.5, attribute inheritance from
        relationships) are consulted when the class itself does not
        declare the attribute.
        """
        self._require_live()
        if self.pclass.has_attribute(name):
            return self._values.get(name)
        inherited = self.schema.relationships.inherited_attribute(self, name)
        if inherited is not _MISSING:
            return inherited
        raise AttributeUnknownError(self.pclass.name, name)

    def get_ref(self, name: str) -> "PObject | None":
        """Like :meth:`get` but resolves a stored reference to a handle."""
        value = self.get(name)
        attr = self.pclass.get_attribute(name)
        if isinstance(attr.type_spec, RefType):
            return attr.type_spec.from_storable(value, self.schema)
        return value

    def set(self, name: str, value: Any) -> None:
        """Assign an attribute, with validation, events and constraints."""
        self._require_live()
        attr = self.pclass.get_attribute(name)
        attr.validate(value)
        if isinstance(attr.type_spec, RefType):
            attr.type_spec.validate_against(value, self.schema)
            value = attr.type_spec.to_storable(value)
        old = self._values.get(name)
        if old == value and type(old) is type(value):
            return
        schema = self.schema
        bus = schema.events
        # A veto (an immediate constraint, a B-tree refusing the key)
        # undoes the assignment and whatever it set off.
        with schema.journal:
            bus.publish(
                Event(
                    kind=EventKind.BEFORE_UPDATE,
                    target=self,
                    class_name=self.pclass.name,
                    attribute=name,
                    old_value=old,
                    new_value=value,
                )
            )
            self._values[name] = value
            self._mark_dirty()
            schema._record_undo(partial(self._restore, name, old), self)
            bus.publish(
                Event(
                    kind=EventKind.AFTER_UPDATE,
                    target=self,
                    class_name=self.pclass.name,
                    attribute=name,
                    old_value=old,
                    new_value=value,
                )
            )

    def _restore(self, name: str, old: Any) -> None:
        if not self._deleted:
            self._values[name] = old

    def update(self, **values: Any) -> "PObject":
        """Assign several attributes; returns self for chaining."""
        for name, value in values.items():
            self.set(name, value)
        return self

    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def __setitem__(self, name: str, value: Any) -> None:
        self.set(name, value)

    def attributes(self) -> Iterator[tuple[str, Any]]:
        """Iterate declared (name, value) pairs."""
        self._require_live()
        for name in self.pclass.all_attributes():
            yield name, self._values.get(name)

    def to_dict(self) -> dict[str, Any]:
        """Plain dict snapshot of declared attribute values."""
        return dict(self.attributes())

    # -- methods -------------------------------------------------------------

    def call(self, method_name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke a declared method, publishing a METHOD_CALL event."""
        self._require_live()
        method = self.pclass.get_method(method_name)
        self.schema.events.publish(
            Event(
                kind=EventKind.METHOD_CALL,
                target=self,
                class_name=self.pclass.name,
                attribute=method_name,
                payload={"args": args, "kwargs": kwargs},
            )
        )
        return method(self, *args, **kwargs)

    # -- relationships ----------------------------------------------------------

    def outgoing(
        self, relationship: str | None = None
    ) -> list["RelationshipInstance"]:
        """Relationship instances whose origin is this object."""
        return self.schema.relationships.outgoing(self.oid, relationship)

    def incoming(
        self, relationship: str | None = None
    ) -> list["RelationshipInstance"]:
        """Relationship instances whose destination is this object."""
        return self.schema.relationships.incoming(self.oid, relationship)

    def related(
        self, relationship: str, direction: str = "out"
    ) -> list["PObject"]:
        """Objects reached through one hop of ``relationship``.

        ``direction`` is ``"out"`` (follow origin→destination) or ``"in"``
        (follow destination→origin).
        """
        if direction == "out":
            return [r.destination_object() for r in self.outgoing(relationship)]
        if direction == "in":
            return [r.origin_object() for r in self.incoming(relationship)]
        raise TypeCheckError(f"direction must be 'out' or 'in', got {direction!r}")

    # -- lifecycle ----------------------------------------------------------------

    def delete(self, cascade: bool = True) -> None:
        """Delete this object via the schema (see :meth:`Schema.delete`)."""
        self.schema.delete(self, cascade=cascade)

    # -- identity ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PObject) and other.oid == self.oid

    def __hash__(self) -> int:
        return hash(("pobject", self.oid))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        flag = " deleted" if self._deleted else (" dirty" if self._dirty else "")
        return f"<{self.pclass.name} oid={self.oid}{flag}>"


class _Missing:
    """Sentinel distinct from None for 'attribute not found'."""

    _instance: "_Missing | None" = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
