"""Event bus: subscription, filtering, bulk loads, veto ordering."""

import pytest

from repro.core.events import Event, EventBus, EventKind


class TestEventBus:
    def test_subscribe_all(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.kind))
        bus.publish(Event(kind=EventKind.AFTER_CREATE))
        bus.publish(Event(kind=EventKind.AFTER_DELETE))
        assert seen == [EventKind.AFTER_CREATE, EventKind.AFTER_DELETE]

    def test_kind_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(
            lambda e: seen.append(e.kind), kinds={EventKind.AFTER_CREATE}
        )
        bus.publish(Event(kind=EventKind.AFTER_DELETE))
        bus.publish(Event(kind=EventKind.AFTER_CREATE))
        assert seen == [EventKind.AFTER_CREATE]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(lambda e: seen.append(1))
        bus.publish(Event(kind=EventKind.AFTER_CREATE))
        unsubscribe()
        unsubscribe()  # idempotent
        bus.publish(Event(kind=EventKind.AFTER_CREATE))
        assert seen == [1]

    def test_dispatch_order_is_registration_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append("first"))
        bus.subscribe(lambda e: seen.append("second"))
        bus.publish(Event(kind=EventKind.AFTER_CREATE))
        assert seen == ["first", "second"]

    def test_exception_stops_dispatch(self):
        bus = EventBus()
        seen = []

        def boom(event):
            raise ValueError("veto")

        bus.subscribe(boom)
        bus.subscribe(lambda e: seen.append(1))
        try:
            bus.publish(Event(kind=EventKind.BEFORE_UPDATE))
        except ValueError:
            pass
        assert seen == []

    def test_bulk_load_still_dispatches(self):
        # A bulk load is not silent: index upkeep must follow it.  Only
        # the rules layer reads ``loading`` and stands down.
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(bus.loading))
        with bus.bulk_load():
            bus.publish(Event(kind=EventKind.AFTER_CREATE))
        bus.publish(Event(kind=EventKind.AFTER_CREATE))
        assert seen == [1, 0]

    def test_bulk_load_nests_and_unwinds(self):
        bus = EventBus()
        with pytest.raises(RuntimeError):
            with bus.bulk_load():
                with bus.bulk_load():
                    assert bus.loading == 2
                assert bus.loading == 1
                raise RuntimeError
        assert bus.loading == 0

    def test_published_counter(self):
        bus = EventBus()
        bus.publish(Event(kind=EventKind.AFTER_CREATE))
        with bus.bulk_load():
            bus.publish(Event(kind=EventKind.AFTER_CREATE))
        assert bus.published == 2
