"""Views layer: named queries, stamp-checked materialization,
classification views."""

import json

import pytest

from repro.classification import GraphView
from repro.engine import PrometheusDB
from repro.engine.handlers import HttpHandlers, Request
from repro.errors import ClassificationError, QueryError, SchemaError
from repro.replication import LogShipper
from tests.conftest import declare_people
from tests.replication.conftest import make_primary, make_replica


@pytest.fixture
def db():
    database = PrometheusDB()
    declare_people(database.schema)
    return database


@pytest.fixture
def schema(db):
    return db.schema


@pytest.fixture
def views(db):
    return db.views


class TestDefinition:
    def test_define_and_evaluate(self, schema, views):
        schema.create("Person", name="Alice", age=30)
        schema.create("Person", name="Bob", age=10)
        views.define("adults", "select p from p in Person where p.age >= 18")
        result = views.evaluate("adults")
        assert [p.get("name") for p in result] == ["Alice"]

    def test_bad_query_rejected_eagerly(self, views):
        with pytest.raises(QueryError):
            views.define("broken", "select p.bogus from p in Person")

    def test_duplicate_name(self, schema, views):
        views.define("v", "select p from p in Person")
        with pytest.raises(SchemaError):
            views.define("v", "select p from p in Person")

    def test_drop_and_unknown(self, views):
        views.define("v", "select p from p in Person")
        views.drop("v")
        with pytest.raises(SchemaError):
            views.get("v")

    def test_names(self, views):
        views.define("b", "select p from p in Person")
        views.define("a", "select p from p in Person")
        assert views.names() == ["a", "b"]

    def test_parameterised_view(self, schema, views):
        schema.create("Person", name="Alice", age=30)
        views.define(
            "by_name", "select p from p in Person where p.name = $n"
        )
        assert len(views.evaluate("by_name", {"n": "Alice"})) == 1
        assert views.evaluate("by_name", {"n": "Zed"}) == []


class TestMaterialization:
    def test_cache_hit_and_invalidation(self, schema, views):
        schema.create("Person", name="Alice")
        view = views.define(
            "all", "select p from p in Person", materialized=True
        )
        first = views.evaluate("all")
        assert view.is_fresh
        assert view.refreshes == 1
        views.evaluate("all")
        assert view.refreshes == 1  # served from cache
        schema.create("Person", name="Bob")  # mutation invalidates
        assert not view.is_fresh
        second = views.evaluate("all")
        assert len(second) == len(first) + 1
        assert view.refreshes == 2

    def test_update_invalidates(self, schema, views):
        alice = schema.create("Person", name="Alice")
        view = views.define(
            "all", "select p.name from p in Person", materialized=True
        )
        views.evaluate("all")
        alice.set("name", "Alicia")
        assert not view.is_fresh
        assert views.evaluate("all") == ["Alicia"]

    def test_params_bypass_cache(self, schema, views):
        schema.create("Person", name="Alice")
        view = views.define(
            "by_name",
            "select p from p in Person where p.name = $n",
            materialized=True,
        )
        views.evaluate("by_name", {"n": "Alice"})
        assert not view.is_fresh  # parameterised calls are not cached


class TestClassificationViews:
    def test_whole_classification_as_graph(self, db, schema, views):
        manager = db.classifications
        alice = schema.create("Person", name="boss")
        bob = schema.create("Person", name="minion")
        acme = schema.create("Company", title="ACME")
        c = manager.create("org")
        c.add_edge(schema.relate("Owns", acme, alice))
        c.add_edge(schema.relate("Owns", acme, bob))
        view = views.classification_view("org")
        assert isinstance(view, GraphView)
        assert view.node_count == 3
        assert view.edge_count == 2

    def test_unknown_classification_rejected(self, views):
        with pytest.raises(ClassificationError):
            views.classification_view("x")


class TestScopedInvalidation:
    """Reuse is stamp-checked, not class-scoped: any change to the read
    stamp stales every materialized view."""

    def test_dependent_class_invalidates(self, schema, views):
        view = views.define(
            "companies", "select c from c in Company", materialized=True
        )
        views.evaluate("companies")
        schema.create("Company", title="fresh")
        assert not view.is_fresh

    def test_subclass_mutation_invalidates_superclass_view(self, schema, views):
        view = views.define(
            "everyone", "select p from p in Person", materialized=True
        )
        views.evaluate("everyone")
        schema.create("Employee", name="e", salary=1.0)
        assert not view.is_fresh

    def test_relationship_mutation_invalidates_traversal_view(
        self, schema, views
    ):
        alice = schema.create("Person", name="a")
        acme = schema.create("Company", title="c")
        view = views.define(
            "employers",
            "select e from p in Person, e in p->WorksFor",
            materialized=True,
        )
        views.evaluate("employers")
        schema.relate("WorksFor", alice, acme)
        assert not view.is_fresh
        assert len(views.evaluate("employers")) == 1

    def test_unrelated_mutation_stales_too(self, schema, views):
        view = views.define(
            "companies", "select c from c in Company", materialized=True
        )
        views.evaluate("companies")
        schema.create("Person", name="nobody")
        assert not view.is_fresh  # the stamp moved; reuse is all-or-none
        assert views.evaluate("companies") == []
        assert view.refreshes == 2


QUERY = "select p.name from p in Person"


class TestViewIsNamedQuery:
    """A view answers exactly what ``db.query`` of its text answers."""

    def test_abort_restales_materialized_view(self, db, schema, views):
        schema.create("Person", name="x")
        db.commit()
        view = views.define("names", QUERY, materialized=True)
        assert views.evaluate("names") == ["x"]
        schema.create("Person", name="y")
        assert views.evaluate("names") == ["x", "y"]
        db.abort()
        assert not view.is_fresh
        assert views.evaluate("names") == db.query(QUERY) == ["x"]

    def test_replica_view_follows_catch_up(self, tmp_path):
        keys = "select e.key from e in Entry"
        primary = make_primary(tmp_path)
        replica, _, client = make_replica(
            tmp_path, LogShipper(primary.store), "r1"
        )
        try:
            primary.schema.create("Entry", key="x", value=1)
            primary.commit()
            client.catch_up()
            view = replica.views.define("keys", keys, materialized=True)
            assert replica.views.evaluate("keys") == ["x"]
            primary.schema.create("Entry", key="y", value=2)
            primary.commit()
            client.catch_up()
            assert not view.is_fresh
            assert replica.views.evaluate("keys") == replica.query(keys)
            assert replica.query(keys) == ["x", "y"]
        finally:
            client.stop()
            replica.close()
            primary.close()

    def test_as_of_matches_query(self, tmp_path):
        keys = "select e.key from e in Entry order by e.key"
        db = make_primary(tmp_path)
        try:
            db.schema.create("Entry", key="x", value=1)
            db.commit()
            first = db.lsn
            db.schema.create("Entry", key="y", value=2)
            db.commit()
            second = db.lsn
            db.views.define("keys", keys, materialized=True)
            for lsn, expected in ((first, ["x"]), (second, ["x", "y"])):
                got = db.views.evaluate("keys", as_of=lsn)
                assert got == db.query(keys, as_of=lsn) == expected
        finally:
            db.close()

    def test_view_and_response_cache_share_one_stamp(self, db, schema, views):
        core = HttpHandlers(db)
        schema.create("Person", name="Alice")
        view = views.define("names", QUERY, materialized=True)

        def post():
            body = json.dumps({"query": QUERY}).encode()
            response = core.handle(Request("POST", "/query", {}, body))
            assert response.status == 200
            return json.loads(response.body)["result"]

        assert post() == views.evaluate("names") == ["Alice"]
        assert post() == ["Alice"]
        assert core.cache.hits == 1
        assert core._stamp()[:-1] == db.read_stamp()
        schema.create("Person", name="Bob")
        assert not view.is_fresh
        misses = core.cache.misses
        assert post() == views.evaluate("names") == ["Alice", "Bob"]
        assert core.cache.misses == misses + 1
        assert core.cache.hits == 1
