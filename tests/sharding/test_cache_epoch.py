"""Response-cache invalidation on shard-map epoch changes.

The server's pre-serialized response cache keys entries on a freshness
stamp.  Before this PR the stamp covered schema version, index epoch,
LSN, and event position — a shard-map change (rebalance, split) left
stale entries servable even though routing had moved data.  These
tests pin the fix: the stamp now folds in ``db.shard_map_epoch``, so
bumping the epoch (in-memory on a plain node, via ``stamp_shard_map``
on a store-backed node) must turn the next identical request into a
miss, while an unchanged epoch still hits.
"""

from __future__ import annotations

import http.client
import json
import os

import pytest

from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.errors import StorageError


def _post(server, path, payload):
    conn = http.client.HTTPConnection(*server.address, timeout=15)
    try:
        conn.request("POST", path, json.dumps(payload).encode(), {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _build_db(store_path=None):
    db = PrometheusDB(path=store_path) if store_path else PrometheusDB()
    from repro.core import types as T
    from repro.core.attributes import Attribute

    db.schema.define_class("Taxon", [Attribute("epithet", T.STRING)])
    with db.begin() as txn:
        txn.create("Taxon", epithet="Ranunculus")
    return db


QUERY = {"query": "select t from t in Taxon"}


class TestEpochInStamp:
    def test_stamp_includes_shard_map_epoch(self):
        db = _build_db()
        server = AsyncPrometheusServer(db)
        stamp = server.handlers._stamp()
        assert db.shard_map_epoch in stamp
        db.shard_map_epoch = 5
        assert server.handlers._stamp() != stamp

    def test_setter_rejected_on_store_backed_nodes(self, tmp_path):
        db = _build_db(os.path.join(tmp_path, "node.db"))
        try:
            with pytest.raises(StorageError):
                db.shard_map_epoch = 3
        finally:
            db.close()


class TestCacheInvalidation:
    def test_epoch_bump_invalidates_cached_response(self):
        db = _build_db()
        with AsyncPrometheusServer(db) as server:
            handlers = server.handlers
            first = _post(server, "/query", QUERY)
            hits_before = handlers.cache.hits
            second = _post(server, "/query", QUERY)
            assert first == second
            assert handlers.cache.hits == hits_before + 1

            db.shard_map_epoch = db.shard_map_epoch + 1
            hits_before = handlers.cache.hits
            misses_before = handlers.cache.misses
            third = _post(server, "/query", QUERY)
            assert third[0] == 200
            assert handlers.cache.hits == hits_before
            assert handlers.cache.misses == misses_before + 1

    def test_unchanged_epoch_still_hits(self):
        db = _build_db()
        with AsyncPrometheusServer(db) as server:
            handlers = server.handlers
            _post(server, "/query", QUERY)
            hits_before = handlers.cache.hits
            _post(server, "/query", QUERY)
            _post(server, "/query", QUERY)
            assert handlers.cache.hits == hits_before + 2

    def test_store_backed_stamp_invalidates_over_restarted_cache(
        self, tmp_path
    ):
        """On a store-backed node the epoch arrives via the log: a
        ``stamp_shard_map`` commit must invalidate just like an
        in-memory bump."""
        db = _build_db(os.path.join(tmp_path, "node.db"))
        try:
            with AsyncPrometheusServer(db) as server:
                handlers = server.handlers
                _post(server, "/query", QUERY)
                hits_before = handlers.cache.hits
                _post(server, "/query", QUERY)
                assert handlers.cache.hits == hits_before + 1

                db.store.stamp_shard_map(1, b"{}")
                misses_before = handlers.cache.misses
                status, _ = _post(server, "/query", QUERY)
                assert status == 200
                assert handlers.cache.misses == misses_before + 1
        finally:
            db.close()
