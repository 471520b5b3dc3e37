"""Metrics registry: counters, gauges, histograms, exposition."""

import threading

import pytest

from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_starts_at_zero_and_increments(self, registry):
        c = registry.counter("ops_total")
        assert c.value == 0
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_same_name_same_object(self, registry):
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_labels_partition_the_series(self, registry):
        a = registry.counter("hits_total", {"node": "a"})
        b = registry.counter("hits_total", {"node": "b"})
        assert a is not b
        a.inc()
        assert b.value == 0

    def test_label_order_does_not_matter(self, registry):
        one = registry.counter("t_total", {"a": "1", "b": "2"})
        two = registry.counter("t_total", {"b": "2", "a": "1"})
        assert one is two

    def test_kind_conflict_raises(self, registry):
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")


class TestGauges:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        g.set(10)
        g.inc()
        g.dec(4)
        assert g.value == 7


class TestHistograms:
    def test_count_sum_min_max(self, registry):
        h = registry.histogram("latency_ms")
        for v in (1.0, 5.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 9.0
        assert h.min == 1.0
        assert h.max == 5.0

    def test_percentiles_over_window(self, registry):
        h = registry.histogram("ms")
        for v in range(1, 101):
            h.observe(float(v))
        p = h.percentiles()
        assert p["p50"] == pytest.approx(50, abs=2)
        assert p["p95"] == pytest.approx(95, abs=2)
        assert p["p99"] == pytest.approx(99, abs=2)

    def test_empty_percentiles_are_zero(self, registry):
        h = registry.histogram("ms")
        assert h.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_reservoir_is_bounded(self, registry):
        h = registry.histogram("ms", reservoir_size=8)
        for v in range(100):
            h.observe(float(v))
        assert len(h._reservoir) == 8
        assert h.count == 100  # totals keep counting past the window

    def test_snapshot_shape(self, registry):
        h = registry.histogram("ms")
        h.observe(2.0)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["p50"] == 2.0


class TestExposition:
    def test_prometheus_text_format(self, registry):
        registry.counter("req_total", help="Requests").inc(2)
        registry.gauge("depth").set(3)
        text = registry.render_prometheus()
        assert "# HELP req_total Requests" in text
        assert "# TYPE req_total counter" in text
        assert "req_total 2" in text
        assert "depth 3" in text
        assert text.endswith("\n")

    def test_labels_rendered_prometheus_style(self, registry):
        registry.counter("hits_total", {"node": "n1"}).inc()
        assert 'hits_total{node="n1"} 1' in registry.render_prometheus()

    def test_label_values_escaped(self, registry):
        registry.counter("q_total", {"q": 'say "hi"\n'}).inc()
        text = registry.render_prometheus()
        assert '\\"hi\\"' in text
        assert "\\n" in text

    def test_histogram_rendered_as_summary(self, registry):
        h = registry.histogram("lat_ms")
        h.observe(1.5)
        text = registry.render_prometheus()
        assert "# TYPE lat_ms summary" in text
        assert 'lat_ms{quantile="0.5"} 1.5' in text
        assert "lat_ms_count 1" in text
        assert "lat_ms_sum 1.5" in text

    def test_integers_render_without_decimal_point(self, registry):
        registry.counter("n_total").inc(5)
        assert "n_total 5" in registry.render_prometheus()
        assert "n_total 5.0" not in registry.render_prometheus()

    def test_snapshot_flattens_labels(self, registry):
        registry.counter("plain_total").inc()
        registry.counter("by_node_total", {"node": "a"}).inc(2)
        snap = registry.snapshot()
        assert snap["plain_total"] == 1
        assert snap["by_node_total"] == {"node=a": 2}


class TestCollectors:
    def test_collector_runs_at_scrape_time(self, registry):
        calls = []

        def collect(reg):
            calls.append(1)
            reg.gauge("scraped").set(42)

        registry.add_collector(collect)
        assert calls == []  # nothing until a scrape
        text = registry.render_prometheus()
        assert "scraped 42" in text
        registry.snapshot()
        assert len(calls) == 2

    def test_broken_collector_does_not_break_scrape(self, registry):
        def boom(reg):
            raise RuntimeError("scrape-time bug")

        registry.add_collector(boom)
        registry.counter("ok_total").inc()
        assert "ok_total 1" in registry.render_prometheus()

    def test_collector_remover(self, registry):
        remove = registry.add_collector(
            lambda reg: reg.gauge("tmp").set(1)
        )
        remove()
        assert "tmp" not in registry.render_prometheus()


    def test_disabled_facade_does_not_pin_databases(self):
        """Databases on the shared DISABLED singleton must not leave a
        collector (and with it a strong reference to themselves) behind."""
        import gc
        import weakref

        from repro.engine import PrometheusDB
        from repro.telemetry import DISABLED

        collectors = DISABLED.registry._collectors
        before = len(collectors)
        refs = []
        for _ in range(3):
            db = PrometheusDB(telemetry=DISABLED)
            refs.append(weakref.ref(db))
            db.close()
        del db
        gc.collect()
        assert len(collectors) == before
        assert [ref() for ref in refs] == [None, None, None]


class TestRegistryLifecycle:
    def test_reset_drops_metrics_keeps_collectors(self, registry):
        registry.counter("gone_total").inc()
        registry.add_collector(lambda reg: reg.gauge("kept").set(1))
        registry.reset()
        text = registry.render_prometheus()
        assert "gone_total" not in text
        assert "kept 1" in text

    def test_concurrent_get_returns_one_metric(self, registry):
        seen = []

        def worker():
            seen.append(registry.counter("shared_total"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, seen))) == 1
