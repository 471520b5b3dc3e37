"""The event layer (thesis §6.1.1).

Every state change in the database — object creation, attribute update,
deletion, relationship creation/removal, transaction boundaries — is
announced on an :class:`EventBus`.  The rules layer, the index layer and
the views layer are all subscribers; none of them is wired directly into
the object layer, which keeps the architecture layered as in Figure 26.

Events come in *before* and *after* flavours.  ``before_*`` subscribers
may veto the change by raising; ``after_*`` subscribers observe the
already-applied change.
"""

from __future__ import annotations

import enum
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..telemetry import DISABLED, Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from .instances import PObject


class EventKind(enum.Enum):
    """Primitive event kinds raised by the object layer."""

    BEFORE_CREATE = "before_create"
    AFTER_CREATE = "after_create"
    BEFORE_UPDATE = "before_update"
    AFTER_UPDATE = "after_update"
    BEFORE_DELETE = "before_delete"
    AFTER_DELETE = "after_delete"
    BEFORE_RELATE = "before_relate"
    AFTER_RELATE = "after_relate"
    BEFORE_UNRELATE = "before_unrelate"
    AFTER_UNRELATE = "after_unrelate"
    BEFORE_COMMIT = "before_commit"
    AFTER_COMMIT = "after_commit"
    AFTER_ABORT = "after_abort"
    METHOD_CALL = "method_call"

    # Members are singletons compared by identity, so the identity hash
    # is valid — and C-level: every publish tests ``event.kind in kinds``
    # once per filtered subscriber, where ``Enum.__hash__`` is Python.
    __hash__ = object.__hash__


@dataclass(slots=True)
class Event:
    """One event instance.

    Attributes:
        kind: the primitive event kind.
        target: the object concerned (None for transaction events).
        class_name: name of the target's class (relationship class name
            for relate/unrelate events).
        attribute: attribute name for update events.
        old_value / new_value: attribute transition for update events.
        origin / destination: endpoint objects for relate/unrelate events.
        payload: free-form extras (method name and args, etc.).
    """

    kind: EventKind
    target: "PObject | None" = None
    class_name: str = ""
    attribute: str = ""
    old_value: Any = None
    new_value: Any = None
    origin: "PObject | None" = None
    destination: "PObject | None" = None
    payload: dict[str, Any] = field(default_factory=dict)


Subscriber = Callable[[Event], None]


class EventBus:
    """Synchronous publish/subscribe dispatcher for :class:`Event`.

    Subscribers register for a set of kinds (or all kinds).  Dispatch is
    in registration order; an exception from a ``before_*`` subscriber
    propagates to the caller and thereby vetoes the change.
    """

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self._subscribers: list[tuple[frozenset[EventKind] | None, Subscriber]] = []
        #: Depth of open :meth:`bulk_load` blocks.
        self.loading = 0
        self.published = 0
        #: Telemetry facade; swap in a live one to count publishes and
        #: time handlers.  Defaults to the shared disabled facade so the
        #: publish hot path pays exactly one branch when off.
        self.telemetry = telemetry if telemetry is not None else DISABLED

    def subscribe(
        self,
        handler: Subscriber,
        kinds: frozenset[EventKind] | set[EventKind] | None = None,
    ) -> Callable[[], None]:
        """Register ``handler``; returns an unsubscribe callable."""
        entry = (frozenset(kinds) if kinds is not None else None, handler)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(entry)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, event: Event) -> None:
        """Dispatch ``event`` to all matching subscribers, in order."""
        self.published += 1
        tel = self.telemetry
        if not tel.enabled:
            for kinds, handler in list(self._subscribers):
                if kinds is None or event.kind in kinds:
                    handler(event)
            return
        registry = tel.registry
        registry.counter(
            "repro_events_published_total",
            help="Events published on the bus",
        ).inc()
        registry.counter(
            "repro_events_by_kind_total",
            {"kind": event.kind.value},
            help="Events published on the bus, by kind",
        ).inc()
        latency = registry.histogram(
            "repro_event_handler_ms",
            help="Per-subscriber event handling latency (ms)",
        )
        for kinds, handler in list(self._subscribers):
            if kinds is None or event.kind in kinds:
                started = time.perf_counter_ns()
                handler(event)
                latency.observe((time.perf_counter_ns() - started) / 1e6)

    @contextmanager
    def bulk_load(self) -> Iterator[None]:
        """A bulk import (a dump load).  Every event is still dispatched,
        so derived state — indexes — follows the load, through the undo
        journal like any change; the rules layer stands down while
        :attr:`loading` is non-zero (it audits afterwards on request)."""
        self.loading += 1
        try:
            yield
        finally:
            self.loading -= 1
