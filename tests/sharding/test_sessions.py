"""A refused write leaves nothing, on either write path.

Direct ``create``/``relate``/``set`` calls and session ops go through
one op applier.  Each op is atomic on the shard it lands on; a session
also applies its ops inside every shard's undo journal, so an op that
refuses takes the earlier ones back out — objects, edges, attribute
writes, index entries and OID routes — before any shard commits.  A
relationship instance takes its initial attributes as
``Schema.relate`` does, on any topology.
"""

from __future__ import annotations

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.core.semantics import RelationshipSemantics
from repro.engine import PrometheusDB
from repro.errors import AttributeUnknownError, ConstancyError, TypeCheckError
from repro.sharding import ShardedDatabase, ShardingError

from .topo import (
    CHECKS, build_topology, fuzz_ddl, index_ddl, make_map, observe, populate,
)

GHOST = 'select a.name from a in Base where a.name = "ghost"'
WHY = "select r.why from r in Fixed"


def attributed_ddl(schema) -> None:
    """The fuzz schema plus an attributed and a constant relationship."""
    fuzz_ddl(schema)
    schema.define_relationship(
        "Typed", "Base", "Base", attributes=[Attribute("n", T.INTEGER)]
    )
    schema.define_relationship(
        "Fixed",
        "Base",
        "Base",
        semantics=RelationshipSemantics(constant=True),
        attributes=[Attribute("why", T.STRING)],
    )


def _base(name: str, rank: str) -> dict:
    return {
        "name": name, "rank": rank, "size": 1, "score": 0.0, "flag": True,
    }


def _journals(db):
    return {
        name: len(client.db.schema.journal)
        for name, client in db.shards.items()
    }


@pytest.mark.parametrize("shards", [1, 4])
class TestRefusedSession:
    def test_refused_session_leaves_nothing(self, shards):
        db = build_topology(shards)
        bases = populate(db, 31)["bases"]
        answers = [observe(db, text) for text in CHECKS]
        session = db.session()
        ghost = session.create(
            "Base", name="ghost", rank="genus", size=1, score=0.0,
            flag=True,
        )
        edge = session.relate("Links", ghost, bases[0])
        bridge = session.relate("Links", bases[1], ghost)
        session.set(bases[2], "size", 99)
        session.relate("NoSuchRelationship", ghost, bases[0])
        with pytest.raises(ShardingError):
            session.commit()
        assert db.query(GHOST, check=False) == []
        for oid in (ghost, edge, bridge):
            assert db.router.shard_of(oid) is None
        assert [observe(db, text) for text in CHECKS] == answers
        assert _journals(db) == {name: 0 for name in db.shards}
        # The next, unrelated session commits nothing of the refused one.
        later = db.session()
        later.create(
            "Cat", label="later", region="r", area=1, wet=False
        )
        seq = later.commit()
        assert db.query(GHOST, check=False) == []
        assert db.query(GHOST, check=False, as_of=seq) == []
        assert [observe(db, text, as_of=seq) for text in CHECKS] == (
            [observe(db, text) for text in CHECKS]
        )

    def test_refusal_keeps_direct_pending_changes(self, shards):
        db = build_topology(shards)
        kept = db.create(
            "Base", name="kept", rank="species", size=2, score=0.0,
            flag=False,
        )
        session = db.session()
        session.create(
            "Base", name="ghost", rank="species", size=1, score=0.0,
            flag=True,
        )
        session.set(kept, "nosuchattribute", 1)
        with pytest.raises(AttributeUnknownError):
            session.commit()
        db.commit()
        text = "select a.name from a in Base"
        assert db.query(text, check=False) == ["kept"]


@pytest.mark.parametrize("shards", [1, 4])
class TestDirectWrites:
    def test_ill_typed_relate_leaves_nothing(self, shards):
        db = ShardedDatabase(
            make_map(shards), attributed_ddl, index_ddl=index_ddl
        )
        bases = populate(db, 37)["bases"]
        answers = [observe(db, text) for text in CHECKS]
        with pytest.raises(TypeCheckError):
            db.relate("Typed", bases[0], bases[1], n="not-int")
        refused = db.allocator.allocate() - 1
        seq = db.commit()
        for as_of in (None, seq):
            assert db.query(
                "select r from r in Typed", check=False, as_of=as_of
            ) == []
        assert db.router.shard_of(refused) is None
        for client in db.shards.values():
            assert not client.db.schema.has_object(refused)
        assert [observe(db, text) for text in CHECKS] == answers
        assert [observe(db, text, as_of=seq) for text in CHECKS] == answers

    def test_constant_relationship_takes_initial_attributes(self, shards):
        db = ShardedDatabase(make_map(shards), attributed_ddl)
        plain = PrometheusDB()
        attributed_ddl(plain.schema)
        origin = db.create("Base", **_base("a", "genus"))
        destination = db.create("Base", **_base("b", "species"))
        edge = db.relate("Fixed", origin, destination, why="x")
        rel = plain.schema.relate(
            "Fixed",
            plain.schema.create("Base", **_base("a", "genus")),
            plain.schema.create("Base", **_base("b", "species")),
            why="x",
        )
        seq = db.commit()
        plain.commit()
        assert db.query(WHY, check=False) == plain.query(WHY) == ["x"]
        assert db.query(WHY, check=False, as_of=seq) == ["x"]
        # Once installed, the instance is constant on both.
        with pytest.raises(ConstancyError):
            db.set(edge, "why", "y")
        with pytest.raises(ConstancyError):
            rel.set("why", "y")
        assert db.query(WHY, check=False) == plain.query(WHY) == ["x"]


def test_direct_relate_journals_one_entry_on_its_shard():
    db = build_topology(4)
    bases = populate(db, 33)["bases"]
    owner = db.router.shard_of(bases[0])
    db.relate("Links", bases[0], bases[1])
    assert _journals(db) == {name: int(name == owner) for name in db.shards}
    db.commit()
    assert _journals(db) == {name: 0 for name in db.shards}
