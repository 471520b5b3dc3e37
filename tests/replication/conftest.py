"""Shared fixtures for the replication test suite.

Topology helpers build a primary + N in-process replicas wired through
the real :class:`~repro.replication.stream.LogShipper` — the
``ReplicationClient`` takes the shipper itself as its transport, so the
full pull protocol (framing, prefix CRCs, divergence) is exercised
without sockets.  Schema is declared on both sides, as a real
deployment would: replication ships data records, not class definitions.
"""

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import PrometheusDB
from repro.replication import LogShipper, ReplicaApplier, ReplicationClient


def declare(db: PrometheusDB) -> None:
    """The key/value schema the stress harness writes through."""
    db.schema.define_class(
        "Entry",
        [Attribute("key", T.STRING), Attribute("value", T.INTEGER)],
    )


def make_primary(tmp_path, name: str = "primary") -> PrometheusDB:
    db = PrometheusDB(tmp_path / f"{name}.plog")
    declare(db)
    db.load()
    return db


def make_replica(
    tmp_path, transport, name: str
) -> tuple[PrometheusDB, ReplicaApplier, ReplicationClient]:
    """A replica pulling through ``transport`` (a shipper, or a
    :class:`~repro.engine.federation.RemoteDatabase` over HTTP)."""
    db = PrometheusDB(tmp_path / f"{name}.plog", read_only=True)
    declare(db)
    db.load()
    applier = ReplicaApplier(db)
    client = ReplicationClient(applier, transport, name=name)
    return db, applier, client


@pytest.fixture
def primary(tmp_path):
    db = make_primary(tmp_path)
    yield db
    db.close()


@pytest.fixture
def shipper(primary):
    return LogShipper(primary.store)


@pytest.fixture
def replica(tmp_path, shipper):
    db, applier, client = make_replica(tmp_path, shipper, "replica-1")
    yield db, applier, client
    client.stop()
    db.close()
