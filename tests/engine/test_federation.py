"""Federation over localised databases (thesis ch. 8 further work)."""

import http.client

import pytest

from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.engine.federation import (
    Federation,
    FederationError,
    RemoteDatabase,
)
from repro.taxonomy import (
    FloraParameters,
    TaxonomyDatabase,
    generate_flora,
)


@pytest.fixture(scope="module")
def federation():
    """Two herbarium nodes with different floras, one shared epithet."""
    servers = []
    fed = Federation()
    for name, seed in (("edinburgh", 100), ("kew", 200)):
        db = PrometheusDB()
        taxdb = TaxonomyDatabase.over_engine(db)
        generate_flora(
            FloraParameters(
                families=1, genera_per_family=2, species_per_genus=2,
                specimens_per_species=1, seed=seed,
            ),
            taxdb=taxdb,
            classification_name=f"{name} flora",
        )
        # A shared name, published at both institutions.
        taxdb.publish_name("Apium", "Genus", author="L.", year=1753)
        server = AsyncPrometheusServer(db)
        server.start()
        servers.append(server)
        fed.add_node(name, server.url)
    yield fed
    for server in servers:
        server.stop()


class TestFanOut:
    def test_query_all_returns_per_node(self, federation):
        results = federation.query_all("select count(s) from s in Specimen")
        assert [r.node for r in results] == ["edinburgh", "kew"]
        assert all(r.ok for r in results)
        assert all(r.result == [4] for r in results)

    def test_gather_flattens(self, federation):
        pairs = federation.gather(
            'select n.epithet from n in NomenclaturalTaxon '
            'where n.rank = "Genus" order by n.epithet'
        )
        nodes = {node for node, _ in pairs}
        assert nodes == {"edinburgh", "kew"}
        # 2 generated genera + Apium, per node
        assert len(pairs) == 6

    def test_count_all_totals(self, federation):
        counts = federation.count_all("Specimen")
        assert counts["edinburgh"] == 4
        assert counts["kew"] == 4
        assert counts["__total__"] == 8

    def test_find_name_across_nodes(self, federation):
        hits = federation.find_name("Apium")
        assert {node for node, _ in hits} == {"edinburgh", "kew"}
        assert all(
            item["values"]["epithet"] == "Apium" for _, item in hits
        )

    def test_classification_inventory_not_merged(self, federation):
        inventory = federation.classification_inventory()
        assert inventory["edinburgh"] == ["edinburgh flora"]
        assert inventory["kew"] == ["kew flora"]

    def test_alive(self, federation):
        assert federation.alive() == {"edinburgh": True, "kew": True}


class TestConnectionReuse:
    def test_fan_outs_reuse_one_connection_per_node(
        self, federation, monkeypatch
    ):
        opened = []
        connect = http.client.HTTPConnection.connect

        def counting_connect(conn):
            opened.append((conn.host, conn.port))
            connect(conn)

        monkeypatch.setattr(
            http.client.HTTPConnection, "connect", counting_connect
        )
        fresh = Federation()
        for name, client in federation.nodes.items():
            fresh.add_node(name, client.url)
        for _ in range(20):
            results = fresh.query_all("select count(s) from s in Specimen")
            assert all(r.ok for r in results)
        assert len(opened) <= 2


class TestDegradation:
    def test_dead_node_degrades_not_fails(self, federation):
        federation.add_node(
            "ghost", RemoteDatabase("http://127.0.0.1:9", timeout=0.5)
        )
        try:
            results = federation.query_all(
                "select count(s) from s in Specimen"
            )
            by_node = {r.node: r for r in results}
            assert not by_node["ghost"].ok
            assert by_node["edinburgh"].ok and by_node["kew"].ok
            counts = federation.count_all("Specimen")
            assert counts["ghost"] == 0
            assert counts["__total__"] == 8
            assert federation.alive()["ghost"] is False
        finally:
            federation.remove_node("ghost")

    def test_remote_error_surfaces(self, federation):
        client = federation.nodes["edinburgh"]
        with pytest.raises(FederationError):
            client.query("this is not POOL")

    def test_remote_object_fetch(self, federation):
        client = federation.nodes["kew"]
        oids = client.extent("Specimen")
        assert len(oids) == 4
        body = client.object(oids[0])
        assert body["class"] == "Specimen"
