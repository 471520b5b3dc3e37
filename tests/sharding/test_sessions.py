"""A refused ``ShardedSession`` leaves nothing.

The session applies its ops inside every shard's undo journal, so an op
that refuses takes the earlier ones back out — objects, edges, attribute
writes, index entries and OID routes — before any shard commits.  The
direct ``create``/``relate``/``set`` calls journal nothing extra.
"""

from __future__ import annotations

import pytest

from repro.errors import AttributeUnknownError
from repro.sharding import ShardingError

from .topo import CHECKS, build_topology, observe, populate

GHOST = 'select a.name from a in Base where a.name = "ghost"'


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


def test_direct_relate_journals_nothing():
    db = build_topology(4)
    bases = populate(db, 33)["bases"]
    db.relate("Links", bases[0], bases[1])
    assert _journals(db) == {name: 0 for name in db.shards}
