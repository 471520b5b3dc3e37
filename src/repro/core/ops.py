"""The object layer's five writes (§4.2, §4.4.4, Table 3) as one
:class:`Op`, whoever sends it: a managed transaction stages and replays
``Op``s, the HTTP session route parses JSON into them, and the shard
coordinator routes them to their owner shards."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple

from ..errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from .schema import Schema

#: The five op kinds, as :attr:`Op.kind` and JSON ``"op"`` spell them.
KINDS = ("create", "set", "delete", "relate", "unrelate")


class Op(NamedTuple):
    """One write, immutable (``_replace`` derives a changed copy).

    ``oid`` is the object the op writes: the new object of a create or
    relate, the target of the rest.  ``class_name`` and ``attrs`` belong
    to create and relate, ``attr`` and ``value`` to set, ``origin``,
    ``destination`` and ``participants`` to relate, ``cascade`` to
    delete.  The dict defaults are shared and never mutated.
    """

    kind: str
    oid: int
    class_name: str = ""
    attrs: dict[str, Any] = {}
    attr: str = ""
    value: Any = None
    origin: int = 0
    destination: int = 0
    participants: dict[str, int] = {}
    cascade: bool = True

    @classmethod
    def from_json(cls, body: Any) -> "Op":
        """The op a JSON body names (``docs/SERVER.md``); a missing
        field raises ``KeyError`` naming it.  A create or relate carries
        OID 0 until it is staged."""
        if not isinstance(body, dict):
            raise SchemaError("each op must be an object")
        kind = body.get("op")
        if kind not in KINDS:
            raise SchemaError(f"unknown op {kind!r}")
        for name in ("attrs", "participants"):
            if not isinstance(body.get(name, {}), dict):
                raise SchemaError(f"op field {name!r} must be an object")
        if kind == "create":
            return cls(kind, 0, body["class"], dict(body.get("attrs", {})))
        if kind == "relate":
            return cls(
                kind, 0, body["class"], dict(body.get("attrs", {})),
                origin=int(body["origin"]),
                destination=int(body["destination"]),
                participants={
                    role: int(value)
                    for role, value in body.get("participants", {}).items()
                },
            )
        oid = int(body["oid"])
        if kind == "set":
            return cls(kind, oid, attr=body["attr"], value=body.get("value"))
        if kind == "delete":
            return cls(kind, oid, cascade=body.get("cascade", True))
        return cls(kind, oid)

    def apply(self, schema: "Schema") -> None:
        """Run the op on ``schema`` with its events, checks and undo."""
        kind = self.kind
        if kind == "create":
            schema.create(self.class_name, _oid=self.oid, **self.attrs)
        elif kind == "set":
            schema.get_object(self.oid).set(self.attr, self.value)
        elif kind == "delete":
            schema.delete(schema.get_object(self.oid), cascade=self.cascade)
        elif kind == "relate":
            participants = {
                role: schema.get_object(oid)
                for role, oid in self.participants.items()
            } or None
            schema.relate(
                self.class_name,
                schema.get_object(self.origin),
                schema.get_object(self.destination),
                participants=participants,
                _oid=self.oid,
                **self.attrs,
            )
        elif kind == "unrelate":
            schema.unrelate(schema.get_object(self.oid))  # type: ignore[arg-type]
        else:
            raise SchemaError(f"unknown op {kind!r}")
