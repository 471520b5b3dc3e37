"""Traceability: recording the motivation behind classification acts.

Requirement 4 of the thesis: "a taxonomist should be able to explain why a
particular taxon has been placed in another."  Prometheus supports this in
two complementary ways:

1. **Edge attributes** — placement relationship classes can declare a
   ``motivation`` attribute carried by every edge (this is what the
   taxonomy substrate does).
2. **The trace log** — an append-only journal of classification
   operations (place, move, remove, copy) with actor, timestamp and
   free-text reason, kept per schema and persisted in the metadata
   extras.

The :class:`TraceLog` subscribes to nothing: layers call
:meth:`TraceLog.record` explicitly, keeping "what happened" (events) and
"why it happened" (traces) separate concerns.  Each entry journals its
own removal (:attr:`Schema.journal`), so an aborted act leaves no trace.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from ..core.schema import Schema

_EXTRAS_KEY = "trace_log"


@dataclass(frozen=True)
class TraceEntry:
    """One recorded classification act."""

    sequence: int
    operation: str
    classification: str
    actor: str
    reason: str
    timestamp: str
    subject_oid: int = 0
    object_oid: int = 0
    details: dict[str, Any] = field(default_factory=dict)

    def to_storable(self) -> dict[str, Any]:
        return {
            "sequence": self.sequence,
            "operation": self.operation,
            "classification": self.classification,
            "actor": self.actor,
            "reason": self.reason,
            "timestamp": self.timestamp,
            "subject_oid": self.subject_oid,
            "object_oid": self.object_oid,
            "details": dict(self.details),
        }

    @classmethod
    def from_storable(cls, data: dict[str, Any]) -> "TraceEntry":
        return cls(
            sequence=int(data["sequence"]),
            operation=str(data["operation"]),
            classification=str(data["classification"]),
            actor=str(data.get("actor", "")),
            reason=str(data.get("reason", "")),
            timestamp=str(data.get("timestamp", "")),
            subject_oid=int(data.get("subject_oid", 0)),
            object_oid=int(data.get("object_oid", 0)),
            details=dict(data.get("details", {})),
        )


class TraceLog:
    """Per-schema journal of classification operations."""

    #: Operations with conventional names, for filtering.
    PLACE = "place"
    MOVE = "move"
    REMOVE = "remove"
    COPY = "copy"
    RENAME = "rename"
    DERIVE = "derive-names"

    def __init__(self, schema: "Schema") -> None:
        self._schema = schema
        self.reload()

    def reload(self) -> None:
        """Re-read the journal from the schema's metadata record."""
        # The storable list lives inside meta_extras and is appended to in
        # place, so recording stays O(1) regardless of journal length.
        self._stored: list[dict] = self._schema.meta_extras.setdefault(
            _EXTRAS_KEY, []
        )
        self._entries: list[TraceEntry] = [
            TraceEntry.from_storable(item) for item in self._stored
        ]

    def record(
        self,
        operation: str,
        classification: str,
        actor: str = "",
        reason: str = "",
        subject_oid: int = 0,
        object_oid: int = 0,
        **details: Any,
    ) -> TraceEntry:
        """Append one trace entry and persist the journal; a rollback
        past it takes it back out."""
        entry = TraceEntry(
            sequence=len(self._entries) + 1,
            operation=operation,
            classification=classification,
            actor=actor,
            reason=reason,
            timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
            subject_oid=subject_oid,
            object_oid=object_oid,
            details=details,
        )
        self._schema.journal.record(self._unrecord)
        self._entries.append(entry)
        self._stored.append(entry.to_storable())
        return entry

    def _unrecord(self) -> None:
        self._entries.pop()
        self._stored.pop()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._entries)

    def for_classification(self, name: str) -> list[TraceEntry]:
        return [e for e in self._entries if e.classification == name]

    def for_object(self, oid: int) -> list[TraceEntry]:
        return [
            e
            for e in self._entries
            if e.subject_oid == oid or e.object_oid == oid
        ]

    def by_actor(self, actor: str) -> list[TraceEntry]:
        return [e for e in self._entries if e.actor == actor]

    def explain(self, oid: int) -> list[str]:
        """Human-readable history of one object's classification life."""
        lines = []
        for entry in self.for_object(oid):
            line = (
                f"#{entry.sequence} {entry.operation} in "
                f"{entry.classification!r}"
            )
            if entry.actor:
                line += f" by {entry.actor}"
            if entry.reason:
                line += f": {entry.reason}"
            lines.append(line)
        return lines
