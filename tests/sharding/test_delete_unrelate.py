"""Coordinator ``delete`` and ``unrelate`` read as on a plain database.

Every write goes to a :class:`ShardedDatabase` and, as the same
:class:`~repro.core.ops.Op`, to a plain ``PrometheusDB`` under the same
OIDs.  After each commit both answer a fixed panel identically, and at
the end every earlier sequence point answers as the plain database's
matching commit does (``as_of``).  A delete whose cascade would cross
shards is the one allowed difference: a typed :class:`ShardingError`
that leaves nothing behind, on the direct path and in a session.
"""

from __future__ import annotations

import random

import pytest

from repro.core.ops import Op
from repro.core.semantics import RelationshipSemantics, RelKind
from repro.engine import PrometheusDB
from repro.errors import PrometheusError
from repro.sharding import ShardedDatabase, ShardingError

from .topo import CHECKS, fuzz_ddl, index_ddl, make_map, observe

PANEL = CHECKS + (
    "select r from r in Links",
    "select r from r in Bridges",
    "select r from r in Holds",
    "select c from c in Cat",
    "select count(r) from r in Holds",
)


def holds_ddl(schema) -> None:
    """The fuzz schema plus a lifetime-dependent aggregation."""
    fuzz_ddl(schema)
    schema.define_relationship(
        "Holds",
        "Base",
        "Cat",
        semantics=RelationshipSemantics(
            kind=RelKind.AGGREGATION, lifetime_dependent=True
        ),
    )


def _base(name: str, rank: str) -> dict:
    return {
        "name": name, "rank": rank, "size": 1, "score": 0.0, "flag": True,
    }


class Mirror:
    """One coordinator and one plain database fed the same ops."""

    def __init__(self, shards: int) -> None:
        self.sharded = ShardedDatabase(
            make_map(shards), holds_ddl, index_ddl=index_ddl
        )
        self.plain = PrometheusDB()
        holds_ddl(self.plain.schema)
        index_ddl(self.plain)
        #: (coordinator sequence, plain LSN) per commit.
        self.points: list[tuple[int, int]] = []

    def mirror(self, op: Op) -> None:
        op.apply(self.plain.schema)

    def create(self, class_name: str, **attrs) -> int:
        oid = self.sharded.create(class_name, **attrs)
        self.mirror(Op("create", oid, class_name, attrs))
        return oid

    def relate(self, rel_name: str, origin: int, destination: int) -> int:
        oid = self.sharded.relate(rel_name, origin, destination)
        self.mirror(
            Op("relate", oid, rel_name, origin=origin, destination=destination)
        )
        return oid

    def commit(self) -> None:
        seq = self.sharded.commit()
        self.plain.commit()
        self.points.append((seq, self.plain.lsn))

    def answers(self, db, as_of=None) -> list:
        if db is self.plain:
            out = []
            for text in PANEL:
                try:
                    result = db.query(text, check=False, as_of=as_of)
                except Exception as exc:  # noqa: BLE001 — classify
                    out.append(("err", type(exc).__name__))
                else:
                    out.append(("ok", self.sharded.jsonable_result(result)))
            return out
        return [observe(db, text, as_of=as_of) for text in PANEL]

    def assert_agree(self) -> None:
        assert self.answers(self.sharded) == self.answers(self.plain)
        for seq, lsn in self.points:
            assert self.answers(self.sharded, seq) == self.answers(
                self.plain, lsn
            )

    def live(self, class_name: str) -> list[int]:
        return sorted(
            obj.oid for obj in self.plain.schema.extent(class_name)
        )

    def edges(self, rel_name: str) -> list[int]:
        return sorted(
            rel.oid
            for rel in self.plain.schema.relationships.instances_of(rel_name)
        )


def populate(mirror: Mirror, rng: random.Random) -> None:
    ranks = ("family", "genus", "kingdom", "species", None)
    bases = [
        mirror.create(
            "Base", **{**_base(f"b{i}", rng.choice(ranks)), "size": i}
        )
        for i in range(40)
    ]
    cats = [
        mirror.create(
            "Cat", label=f"c{i}", region="r", area=i, wet=i % 2 == 0
        )
        for i in range(16)
    ]
    for _ in range(20):
        a, b = rng.sample(bases, 2)
        mirror.relate("Links", a, b)
    for _ in range(8):
        mirror.relate("Bridges", rng.choice(bases), rng.choice(cats))
    for cat in cats[:6]:
        # A non-shareable aggregation: each part has one whole.
        mirror.relate("Holds", rng.choice(bases), cat)
    mirror.commit()


def _ops(mirror: Mirror, rng: random.Random, count: int) -> list[Op]:
    """``count`` seeded deletes, unrelates and sets of live targets."""
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:
            pool = mirror.live("Base") + mirror.live("Cat")
            ops.append(Op("delete", rng.choice(pool)))
        elif roll < 0.8:
            pool = mirror.edges("Links") + mirror.edges("Bridges")
            ops.append(Op("unrelate", rng.choice(pool)))
        else:
            oid = rng.choice(mirror.live("Base"))
            ops.append(Op("set", oid, attr="size", value=rng.randrange(99)))
    return ops


def _write(writer, op: Op) -> None:
    if op.kind == "delete":
        writer.delete(op.oid)
    elif op.kind == "unrelate":
        writer.unrelate(op.oid)
    else:
        writer.set(op.oid, op.attr, op.value)


SEEDS = (3, 11, 29)


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("seed", SEEDS)
class TestAgainstPlain:
    """A write either refuses on both sides with the same error, or is
    the coordinator's typed cross-shard refusal and changes nothing."""

    def test_direct_writes(self, shards, seed):
        rng = random.Random(seed)
        mirror = Mirror(shards)
        populate(mirror, rng)
        refused = 0
        for _ in range(6):
            for op in _ops(mirror, rng, 3):
                before = mirror.answers(mirror.sharded)
                try:
                    _write(mirror.sharded, op)
                except ShardingError:
                    refused += 1
                    assert mirror.answers(mirror.sharded) == before
                    continue
                except PrometheusError as exc:
                    with pytest.raises(type(exc)):
                        mirror.mirror(op)
                    continue
                mirror.mirror(op)
            mirror.commit()
            mirror.assert_agree()
        if shards == 1:
            assert refused == 0

    def test_session_writes(self, shards, seed):
        rng = random.Random(seed)
        mirror = Mirror(shards)
        populate(mirror, rng)
        refused = 0
        for _ in range(8):
            ops = _ops(mirror, rng, 2)
            before = mirror.answers(mirror.sharded)
            session = mirror.sharded.session()
            for op in ops:
                _write(session, op)
            try:
                seq = session.commit()
            except ShardingError:
                refused += 1
                assert mirror.answers(mirror.sharded) == before
                continue
            except PrometheusError as exc:
                with pytest.raises(type(exc)):
                    for op in ops:
                        mirror.mirror(op)
                mirror.plain.abort()
                assert mirror.answers(mirror.sharded) == before
                continue
            for op in ops:
                mirror.mirror(op)
            mirror.plain.commit()
            mirror.points.append((seq, mirror.plain.lsn))
            mirror.assert_agree()
        if shards == 1:
            assert refused == 0


def _journals(db):
    return {
        name: len(client.db.schema.journal)
        for name, client in db.shards.items()
    }


class TestCrossShardDelete:
    """At 4 shards a genus and a species live on different shards."""

    def _pair(self):
        mirror = Mirror(4)
        genus = mirror.create("Base", **_base("g", "genus"))
        species = mirror.create("Base", **_base("s", "species"))
        db = mirror.sharded
        assert db.router.shard_of(genus) != db.router.shard_of(species)
        return mirror, genus, species

    def test_incident_edge_refuses_and_leaves_nothing(self):
        mirror, genus, species = self._pair()
        edge = mirror.relate("Links", species, genus)
        mirror.commit()
        db = mirror.sharded
        answers = mirror.answers(db)
        for oid in (genus, species):
            with pytest.raises(ShardingError, match="crosses shards"):
                db.delete(oid)
        assert _journals(db) == {name: 0 for name in db.shards}
        assert mirror.answers(db) == answers
        mirror.commit()
        mirror.assert_agree()
        assert db.router.shard_of(edge) == db.router.shard_of(species)

    def test_lifetime_part_on_another_shard_refuses(self):
        mirror, genus, species = self._pair()
        db = mirror.sharded
        cat = mirror.create("Cat", label="c", region="r", area=1, wet=True)
        whole = genus
        if db.router.shard_of(cat) == db.router.shard_of(genus):
            whole = species
        mirror.relate("Holds", whole, cat)
        mirror.commit()
        answers = mirror.answers(db)
        with pytest.raises(ShardingError):
            db.delete(whole)
        assert mirror.answers(db) == answers
        # Without cascade the part blocks the delete on a plain database
        # too; the refusal comes first either way, and changes nothing.
        with pytest.raises(ShardingError):
            db.delete(whole, cascade=False)
        assert mirror.answers(db) == answers

    @staticmethod
    def _local_cat(mirror: Mirror, whole: int) -> int:
        """A Cat (hash-placed) on ``whole``'s shard."""
        router = mirror.sharded.router
        for i in range(16):
            cat = mirror.create(
                "Cat", label=f"c{i}", region="r", area=i, wet=False
            )
            if router.shard_of(cat) == router.shard_of(whole):
                return cat
        pytest.fail("no Cat landed on the whole's shard")

    def test_local_cascade_deletes_the_part(self):
        mirror, genus, _ = self._pair()
        db = mirror.sharded
        cat = self._local_cat(mirror, genus)
        mirror.relate("Holds", genus, cat)
        mirror.commit()
        db.delete(genus)
        mirror.mirror(Op("delete", genus))
        mirror.commit()
        assert not mirror.plain.schema.has_object(cat)
        mirror.assert_agree()

    def test_part_with_a_cross_shard_edge_refuses(self):
        mirror, genus, species = self._pair()
        db = mirror.sharded
        cat = self._local_cat(mirror, genus)
        mirror.relate("Holds", genus, cat)
        # The part's own edge lives on the species's shard.
        mirror.relate("Bridges", species, cat)
        mirror.commit()
        answers = mirror.answers(db)
        with pytest.raises(ShardingError, match="crosses shards"):
            db.delete(genus)
        assert mirror.answers(db) == answers

    def test_refused_delete_takes_back_the_session(self):
        mirror, genus, species = self._pair()
        db = mirror.sharded
        mirror.relate("Links", genus, species)
        mirror.commit()
        answers = mirror.answers(db)
        session = db.session()
        ghost = session.create("Base", **_base("ghost", "genus"))
        edge = session.relate("Links", ghost, genus)
        session.set(species, "size", 77)
        session.delete(genus)
        with pytest.raises(ShardingError, match="crosses shards"):
            session.commit()
        for oid in (ghost, edge):
            assert db.router.shard_of(oid) is None
        assert _journals(db) == {name: 0 for name in db.shards}
        assert mirror.answers(db) == answers
        mirror.commit()
        mirror.assert_agree()

    def test_set_then_delete_in_one_session(self):
        mirror, genus, _ = self._pair()
        mirror.commit()
        session = mirror.sharded.session()
        session.set(genus, "rank", "species")  # would relocate
        session.delete(genus)
        seq = session.commit()
        mirror.mirror(Op("delete", genus))
        mirror.plain.commit()
        mirror.points.append((seq, mirror.plain.lsn))
        mirror.assert_agree()


@pytest.mark.parametrize("shards", [1, 4])
class TestRelateToDeleted:
    """A relate naming a deleted object refuses as on a plain database:
    the delete committed, pending, or staged earlier in the session."""

    def _pair(self, mirror: Mirror) -> tuple[int, int]:
        gone = mirror.create("Base", **_base("gone", "genus"))
        kept = mirror.create("Base", **_base("kept", "species"))
        mirror.commit()
        return gone, kept

    @pytest.mark.parametrize("committed", [True, False])
    def test_direct(self, shards, committed):
        mirror = Mirror(shards)
        gone, kept = self._pair(mirror)
        db = mirror.sharded
        db.delete(gone)
        mirror.mirror(Op("delete", gone))
        if committed:
            mirror.commit()
        answers = mirror.answers(db)
        for origin, destination in ((gone, kept), (kept, gone)):
            with pytest.raises(PrometheusError) as refused:
                db.relate("Links", origin, destination)
            assert not isinstance(refused.value, ShardingError)
            with pytest.raises(type(refused.value)):
                mirror.mirror(
                    Op("relate", 0, "Links", origin=origin,
                       destination=destination)
                )
            assert mirror.answers(db) == answers
        mirror.commit()
        mirror.assert_agree()
        assert mirror.edges("Links") == []

    @pytest.mark.parametrize("staged", [True, False])
    def test_session(self, shards, staged):
        mirror = Mirror(shards)
        gone, kept = self._pair(mirror)
        db = mirror.sharded
        if not staged:
            db.delete(gone)
            mirror.mirror(Op("delete", gone))
            mirror.commit()
        answers = mirror.answers(db)
        session = db.session()
        attrs = _base("ghost", "family")
        ghost = session.create("Base", **attrs)
        ops = [Op("create", ghost, "Base", attrs)]
        if staged:
            session.delete(gone)
            ops.append(Op("delete", gone))
        edge = session.relate("Links", kept, gone)
        ops.append(Op("relate", edge, "Links", origin=kept, destination=gone))
        with pytest.raises(PrometheusError) as refused:
            session.commit()
        assert not isinstance(refused.value, ShardingError)
        with pytest.raises(type(refused.value)):
            for op in ops:
                mirror.mirror(op)
        mirror.plain.abort()
        for oid in (ghost, edge):
            assert db.router.shard_of(oid) is None
        assert _journals(db) == {name: 0 for name in db.shards}
        assert mirror.answers(db) == answers
        mirror.commit()
        mirror.assert_agree()


@pytest.mark.parametrize("shards", [1, 4])
class TestRoutesFollowRemovals:
    """A delete forgets the routes of what it removes (the object, its
    cascaded parts and their edges) and an unrelate its edge's; a
    refused session routes them again."""

    def _whole(self, mirror: Mirror) -> dict[str, int]:
        whole = mirror.create("Base", **_base("w", "genus"))
        other = mirror.create("Base", **_base("o", "genus"))  # same shard
        cat = TestCrossShardDelete._local_cat(mirror, whole)
        made = {
            "whole": whole, "cat": cat,
            "holds": mirror.relate("Holds", whole, cat),
            "link": mirror.relate("Links", other, whole),
            "spare": mirror.relate("Links", whole, other),
        }
        mirror.commit()
        return made

    def _routed(self, mirror: Mirror) -> int:
        return len(mirror.sharded.router)

    def test_direct(self, shards):
        mirror = Mirror(shards)
        made = self._whole(mirror)
        db = mirror.sharded
        routed = self._routed(mirror)
        db.unrelate(made["spare"])
        mirror.mirror(Op("unrelate", made["spare"]))
        db.delete(made["whole"])
        mirror.mirror(Op("delete", made["whole"]))
        mirror.commit()
        for oid in made.values():
            assert db.router.shard_of(oid) is None
        assert self._routed(mirror) == routed - len(made)
        mirror.assert_agree()

    def test_refused_session_routes_them_again(self, shards):
        mirror = Mirror(shards)
        made = self._whole(mirror)
        db = mirror.sharded
        routes = {oid: db.router.shard_of(oid) for oid in made.values()}
        answers = mirror.answers(db)
        session = db.session()
        session.unrelate(made["spare"])
        session.delete(made["whole"])
        session.relate("NoSuchRelationship", made["cat"], made["cat"])
        with pytest.raises(ShardingError):
            session.commit()
        assert {oid: db.router.shard_of(oid) for oid in routes} == routes
        assert _journals(db) == {name: 0 for name in db.shards}
        assert mirror.answers(db) == answers
        db.set(made["whole"], "size", 5)
        mirror.mirror(Op("set", made["whole"], attr="size", value=5))
        mirror.commit()
        mirror.assert_agree()
