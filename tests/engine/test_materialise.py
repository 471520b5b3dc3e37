"""One committed state, three ways to materialise it, one installer.

Reopen + ``load()``, replica catch-up and ``db.snapshot()`` at head all
go through ``ObjectTable.install``; they must agree on extents,
relationship adjacency, synonyms and classification membership.
"""

import pytest

from repro.classification import ClassificationManager
from repro.engine import PrometheusDB
from repro.replication import LogShipper, ReplicaApplier, ReplicationClient
from repro.taxonomy import TaxonomyDatabase, define_taxonomy_schema


def summary(schema, classifications) -> dict:
    return {
        "extents": {
            klass.name: [obj.oid for obj in schema.extent(klass.name, False)]
            for klass in schema.classes()
        },
        "values": {obj.oid: obj.to_dict() for obj in schema.all_objects()},
        "adjacency": {
            obj.oid: sorted(
                (rel.pclass.name, rel.oid, rel.destination_oid)
                for rel in schema.relationships.outgoing(obj.oid)
            )
            for obj in schema.all_objects()
        },
        "synonyms": schema.synonyms.to_storable(),
        "classifications": {
            c.name: sorted(edge.oid for edge in c.edges())
            for c in classifications
        },
    }


@pytest.fixture(scope="module")
def committed(tmp_path_factory):
    """A store holding two implicit commits and one managed commit, and
    the writer's own view of it."""
    path = tmp_path_factory.mktemp("materialise") / "primary.plog"
    db = PrometheusDB(path)
    taxdb = TaxonomyDatabase.over_engine(db)
    rev = taxdb.new_classification("rev", author="me")
    other = taxdb.new_classification("other")
    genus = taxdb.new_taxon("Genus", working_name="G")
    species = [taxdb.new_taxon("Species", working_name=f"s{i}") for i in range(3)]
    for ct in species:
        taxdb.place(rev, genus, ct)
    other.add_edge(rev.edges()[0])
    apium = taxdb.publish_name("Apium", "Genus", author="L.", year=1753)
    helo = taxdb.publish_name("Helosciadium", "Genus", author="K.", year=1824)
    db.schema.synonyms.declare(apium.oid, helo.oid)
    taxdb.commit()
    rev.remove_edge(rev.edges()[-1])
    db.schema.delete(species[-1])
    taxdb.commit()
    with db.begin() as txn:  # managed: no metadata record in this commit
        txn.set(apium.oid, "year", 1754)
    expected = summary(db.schema, db.classifications)
    assert expected["classifications"] == {
        "other": [rev.edges()[0].oid],
        "rev": [edge.oid for edge in rev.edges()],
    }
    assert expected["synonyms"] == [sorted([apium.oid, helo.oid])]
    db.close()
    return path, expected


def reopened(path):
    db = PrometheusDB(path)
    define_taxonomy_schema(db.schema)
    db.load()
    return db


def via_load(path, tmp_path):
    db = reopened(path)
    return db, db.schema, db.classifications


def via_replica(path, tmp_path):
    primary = reopened(path)
    replica = PrometheusDB(tmp_path / "replica.plog", read_only=True)
    define_taxonomy_schema(replica.schema)
    replica.load()
    client = ReplicationClient(
        ReplicaApplier(replica), LogShipper(primary.store), name="r"
    )
    assert client.catch_up() == primary.store.commit_lsn
    primary.close()
    return replica, replica.schema, ClassificationManager(replica.schema)


def via_snapshot(path, tmp_path):
    db = reopened(path)
    snap = db.snapshot()
    return db, snap.schema, snap.classifications


@pytest.mark.parametrize("materialise", [via_load, via_replica, via_snapshot])
def test_same_state_however_materialised(committed, tmp_path, materialise):
    path, expected = committed
    db, schema, classifications = materialise(path, tmp_path)
    try:
        assert summary(schema, classifications) == expected
    finally:
        db.close()
