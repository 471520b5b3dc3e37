"""The coordinator against a plain database: 4 shards vs ``PrometheusDB``.

``test_topology_differential.py`` compares a 1-shard and a 4-shard
coordinator, so both sides run the same gather code: a gather view that
ships too little is wrong on both topologies alike and the suite stays
green.  This suite takes the oracle from outside the sharding layer —
the 1-shard topology's own ``PrometheusDB`` (``single.shards["s0"].db``),
which holds the same objects under the same OIDs and answers through
the ordinary planner — and replays the same seeded qgen cases plus a
fixed panel of the shapes qgen never generates: ``group by``/``having``,
``sum``/``avg``/``min``/``max``, OID-pinned roots, inverse and
``{m,n}`` traversals, and time travel.

It also pins what a gather ships, counted at the two shard methods that
return rows to the coordinator (``export_records``, ``resolve_oids``).
"""

from __future__ import annotations

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.core.semantics import RelationshipSemantics
from repro.sharding import ShardedDatabase, ShardExecutionError, ShardMap

from tests import fuzzseeds
from tests.query.qgen import QueryGen, QuerySpec, shrink

from .topo import build_topology, pair, populate

SEED_ENV = "SHARD_FUZZ_SEED"
FIXED_SEEDS = (101, 202, 303)
CASES_PER_SEED = 170

#: Shapes qgen does not generate.  ``$oid`` is an OID-pinned root.
PANEL = (
    "select a.rank as r, count(a) as n from a in Base "
    "where a.size > 2 group by a.rank order by r",
    "select a.rank as r, sum(a.size) as s, max(a.score) as m "
    "from a in Base group by a.rank having count(a) > 2 order by r",
    "select avg(a.score) from a in Base where a.flag",
    "select min(a.year) from a in Leaf",
    'select max(a.size) from a in Base where a.rank = "genus"',
    "select c.region as r, count(b) as n from c in Cat, b in c<-Bridges "
    "group by c.region order by r",
    "select count(a->Links{0,2}) from a in Base where a.flag",
    "select a.name from a in Base where a.flag and "
    "exists (select b from b in a->Links where b.size > 5) order by a.name",
    "select distinct c.label from a in Base, b in a<-Links{1,2}, "
    "c in b->Bridges where a.size > 3 order by c.label",
    "select b from a in Base, b in a->Links where a.oid = $oid",
    "select b.name from a in Base, b in a<-Links where a.oid = $oid",
    "select b from a in Base, b in a->Links{2,3} where a.oid = $oid",
    "select b.name, c.label from a in Base, b in a<-Links{0,2}, "
    "c in b->Bridges where a.oid = $oid and b.size > 1",
    "select a->Links->Bridges from a in Base where a.oid = $oid",
    "select b.name from a in Base, b in a->Links+ where a.oid = $oid "
    "order by b.name",
    "select sum(b.size) from a in Base, b in a->Links{1,3} "
    "where a.oid = $oid",
)


def plain_observe(single: ShardedDatabase, text: str, params=None,
                  as_of=None):
    """The plain database's answer, or its error kind."""
    plain = single.shards["s0"].db
    try:
        result = plain.query(text, params=params, check=False, as_of=as_of)
    except Exception as exc:  # noqa: BLE001 — classify, don't mask
        return ("err", (type(exc).__name__,))
    return ("ok", single.jsonable_result(result))


def coordinator_observe(db: ShardedDatabase, text: str, params=None,
                        as_of=None):
    """The coordinator's answer, or the error kinds it reports."""
    try:
        result = db.query(text, params, check=False, as_of=as_of)
    except ShardExecutionError as exc:
        return ("err", tuple(exc.kinds))
    except Exception as exc:  # noqa: BLE001 — classify, don't mask
        return ("err", (type(exc).__name__,))
    return ("ok", db.jsonable_result(result))


def run_seed(seed: int, cases: int) -> None:
    single, sharded = pair(seed)
    failure = None
    gen = QueryGen(seed)
    for case in range(cases):
        spec = gen.spec()
        text = spec.text()
        ref = plain_observe(single, text)
        got = coordinator_observe(sharded, text)
        if ref != got:
            failure = (case, spec, ref, got)
            break
    if failure is None:
        return
    case, spec, ref, got = failure

    def still_fails(candidate: QuerySpec) -> bool:
        text = candidate.text()
        return plain_observe(single, text) != coordinator_observe(
            sharded, text
        )

    minimal = shrink(spec, still_fails)
    pytest.fail(
        "coordinator diverges from the plain database\n"
        f"  seed       : {seed} (case {case})\n"
        f"  minimal    : {minimal.text()}\n"
        f"  original   : {spec.text()}\n"
        f"  plain      : {plain_observe(single, minimal.text())}\n"
        f"  4-shard    : {coordinator_observe(sharded, minimal.text())}\n"
        + fuzzseeds.repro_line(
            SEED_ENV, seed, "tests/sharding/test_plain_oracle.py"
        )
    )


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_coordinator_matches_plain_database_fixed_seeds(seed):
    run_seed(seed, CASES_PER_SEED)


def test_coordinator_matches_plain_database_extra_seed(capsys):
    """The run seed: env override, or GITHUB_RUN_ID-derived in CI."""
    seed = fuzzseeds.run_seed(SEED_ENV)
    if seed is None:
        pytest.skip(f"{SEED_ENV} / GITHUB_RUN_ID not set")
    with capsys.disabled():
        print(f"\n[shard-fuzz] plain-oracle extra seed: {seed}")
    run_seed(seed, CASES_PER_SEED)


def _roots(single: ShardedDatabase, bases: list[int]) -> list[int]:
    """Bases with at least one Links edge, plus one without."""
    relationships = single.shards["s0"].db.schema.relationships
    linked = [
        oid for oid in bases
        if relationships.outgoing(oid, "Links")
        or relationships.incoming(oid, "Links")
    ]
    lonely = [oid for oid in bases if oid not in linked]
    return linked[:6] + lonely[:1]


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_panel_matches_plain_database(seed):
    single, sharded = build_topology(1), build_topology(4)
    handles = populate(single, seed)
    populate(sharded, seed)
    for text in PANEL:
        roots = _roots(single, handles["bases"]) if "$oid" in text else [None]
        for oid in roots:
            params = None if oid is None else {"oid": oid}
            assert plain_observe(single, text, params) == coordinator_observe(
                sharded, text, params
            ), (text, params)


def test_panel_matches_plain_database_as_of():
    """Time travel: the coordinator at a sequence point against the
    plain database at the LSN that sequence point pinned."""
    single, sharded = build_topology(1), build_topology(4)
    handles = populate(single, 61)
    populate(sharded, 61)
    lsn = single.shards["s0"].lsn
    bases = handles["bases"]
    for db in (single, sharded):
        for origin, destination in zip(bases[5:15], bases[:10]):
            db.relate("Links", origin, destination)
        db.set(bases[0], "size", 99)
        db.commit()
    for text in PANEL:
        roots = _roots(single, bases) if "$oid" in text else [None]
        for oid in roots:
            params = None if oid is None else {"oid": oid}
            assert plain_observe(
                single, text, params, as_of=lsn
            ) == coordinator_observe(sharded, text, params, as_of=1), (
                text, params,
            )


def test_role_attribute_reads_edges_on_other_shards():
    """A role attribute (§4.4.5) is read through the relationship
    instances touching an object, at either end; an edge lives on its
    origin's shard, so the destination's shard alone cannot answer."""

    def ddl(schema) -> None:
        schema.define_class(
            "Item", [Attribute("rank", T.STRING), Attribute("name", T.STRING)]
        )
        schema.define_relationship(
            "Marks", "Item", "Item",
            semantics=RelationshipSemantics(inherited_attributes=("kind",)),
            attributes=[Attribute("kind", T.STRING)],
        )

    def build(shard_map: ShardMap) -> ShardedDatabase:
        db = ShardedDatabase(shard_map, ddl)
        genus = db.create("Item", rank="genus", name="g")
        species = db.create("Item", rank="species", name="s")
        db.relate("Marks", species, genus, kind="holotype")
        db.commit()
        return db

    single = build(ShardMap.single("s0", key_attr="rank"))
    sharded = build(
        ShardMap.uniform(("s0", "s1"), "rank", ("kingdom",))
    )
    text = 'select i.name from i in Item where i.kind = "holotype"'
    assert plain_observe(single, text) == ("ok", '["g", "s"]')
    assert coordinator_observe(sharded, text) == ("ok", '["g", "s"]')


class TestShippedRows:
    """Rows shards return to the coordinator for one gather."""

    @staticmethod
    def _count_shipped(db: ShardedDatabase) -> list[int]:
        shipped = [0]
        for client in db.shards.values():
            for attr in ("export_records", "resolve_oids"):
                inner = getattr(client, attr)

                def counted(*args, _inner=inner, **kwargs):
                    rows = _inner(*args, **kwargs)
                    shipped[0] += len(rows)
                    return rows

                setattr(client, attr, counted)
        return shipped

    def test_pinned_traversal_ships_root_edges_and_endpoints(self):
        single, sharded = build_topology(1), build_topology(4)
        handles = populate(single, 101)
        populate(sharded, 101)
        shipped = self._count_shipped(sharded)
        relationships = single.shards["s0"].db.schema.relationships
        text = "select b from a in Base, b in a->Links where a.oid = $oid"
        roots = _roots(single, handles["bases"])
        assert len(roots) > 1
        for oid in roots:
            edges = relationships.outgoing(oid, "Links") + relationships.incoming(
                oid, "Links"
            )
            endpoints = {edge.other_end(oid) for edge in edges}
            shipped[0] = 0
            params = {"oid": oid}
            assert coordinator_observe(sharded, text, params) == plain_observe(
                single, text, params
            )
            assert shipped[0] <= 1 + len(edges) + len(endpoints), oid

    def test_selective_group_by_ships_only_matching_rows(self):
        single, sharded = build_topology(1), build_topology(4)
        populate(single, 202)
        populate(sharded, 202)
        shipped = self._count_shipped(sharded)
        plain = single.shards["s0"].db
        for size in (0, 3, 7):
            text = (
                "select a.rank as r, count(a) as n from a in Base "
                f"where a.size = {size} group by a.rank"
            )
            [matching] = plain.query(
                f"select count(a) from a in Base where a.size = {size}"
            )
            shipped[0] = 0
            assert coordinator_observe(sharded, text) == plain_observe(
                single, text
            )
            assert shipped[0] == matching, size
