"""``shard_scatter``: one client against a ``ShardedDatabase`` of four
in-process shards, range-split on ``NomenclaturalTaxon.epithet``.

Why: the `sharding` layer (planner, coordinator, router) and federation
fan-out do the work — the same `query` layer as ``query_cold`` entered
through a different door.  It is the yardstick for distributed pushdown
and cross-shard commit: an op waits for its slowest shard, and a gather
plan ships whole extents to the coordinator.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

import corpus
from harness import Op, Tracer, Workload, mixed_stream

#: Ops per block of 20: 40 % pruned equality (one shard), 20 % scatter
#: with order by/limit pushdown, 10 % scatter_count, 25 % gather plans
#: (group by, cross-shard traversal), 5 % cross-shard session commits.
MIX = {"pruned": 8, "scatter": 4, "count": 2, "gather": 5, "session": 1}
SHARDS = ("s0", "s1", "s2", "s3")
#: Species epithets are lowercase and spread over the alphabet; genus
#: and family names (capitals) sort before "g" and land on s0.
SPLIT_POINTS = ("g", "n", "t")
KEY_ATTR = "epithet"

GROUP_BY = (
    "select s.herbarium as h, count(s) as n from s in Specimen "
    'where s.collector = "Collector {collector}" group by s.herbarium'
)
TRAVERSAL = (
    "select s from t in CircumscriptionTaxon, s in t->Includes where t.oid = $oid"
)


def new_sharded(shard_map: Any) -> Any:
    from repro.sharding import ShardedDatabase
    from repro.taxonomy import define_taxonomy_schema

    return ShardedDatabase(
        shard_map, define_taxonomy_schema, index_ddl=corpus.create_indexes
    )


class ShardScatter(Workload):
    name = "shard_scatter"
    block = sum(MIX.values())
    shape = corpus.FLORA_1K
    check_share = 0.05

    def setup(self) -> None:
        from repro.sharding import ShardMap

        self.plan = corpus.plan_flora(self.shape, self.seed)
        self.sharded = new_sharded(
            ShardMap.uniform(SHARDS, KEY_ATTR, SPLIT_POINTS)
        )
        self.handles = corpus.load_sharded(self.sharded, self.plan)
        self.epithets = [s.epithet for _, _, s in self.plan.species()]
        self.oracle: Any = None
        #: Session writes, for the oracle database to repeat.
        self.written: list[tuple[int, dict[str, Any]]] = []
        #: Rows shards sent the coordinator / rows it returned, counted
        #: while tracing (the counting wrappers are the tracer's).
        self.shipped: dict[str, int] | None = None
        for op, _ in zip(self.streams()[0], range(self.block)):
            op.run()

    def streams(self) -> list[Iterator[Op]]:
        return [mixed_stream(random.Random(f"ops:{self.seed}"), MIX, self._op)]

    def _op(self, kind: str, rng: random.Random) -> Op:
        if kind == "session":
            species = rng.randrange(len(self.handles["species_ct"]))
            return Op(kind, f"session:{species}", lambda: self._session(species))
        params = None
        if kind == "pruned":
            text = (
                "select n from n in NomenclaturalTaxon "
                f'where n.epithet = "{rng.choice(self.epithets)}"'
            )
        elif kind == "scatter":
            text = (
                "select n from n in NomenclaturalTaxon "
                f"where n.year >= {rng.randint(1753, 1950)} "
                "order by n.year limit 10"
            )
        elif kind == "count":
            text = (
                "select count(s) from s in Specimen "
                f'where s.herbarium = "{rng.choice(corpus.HERBARIA)}"'
            )
        elif rng.random() < 0.5:
            text = GROUP_BY.format(collector=rng.randint(1, 60))
        else:
            text = TRAVERSAL
            params = {"oid": rng.choice(self.handles["genus_ct"])}
        return Op(
            kind, f"{kind}:{text}:{params}",
            lambda: self.sharded.query(text, params),
            check=lambda rows: self._check_plan(kind, text, rows),
            verify=lambda rows: self._against_one_shard(text, params, rows),
            detail=text,
        )

    def _session(self, species: int) -> int:
        """Create a specimen and place it under a species taxon that, by
        OID hash, usually lives on another shard; commit both shards.

        No read of the mix can see these specimens (collector and
        herbarium match no predicate, and no traversal reaches below a
        species), so a read's answer does not depend on when it ran and
        the oracle may check it after the timed window."""
        attrs = {
            "collector": "Shard.", "herbarium": "XX", "field_name": "added",
            "collection_number": f"added-{len(self.written)}",
        }
        session = self.sharded.session()
        specimen = session.create("Specimen", **attrs)
        session.relate("Includes", self.handles["species_ct"][species], specimen)
        session.commit()
        self.written.append((species, attrs))
        return specimen

    # -- counts and the oracle -----------------------------------------------------

    def _check_plan(self, kind: str, text: str, rows: Any) -> str | None:
        """Untimed: the coordinator planned the op as the mix intends,
        and the answer has the shape the generator knows."""
        if self.shipped is not None:
            self.shipped["results"] += len(rows)
        plan = self.sharded.explain(text)
        expected_mode = {"pruned": "scatter", "scatter": "scatter",
                         "count": "scatter_count", "gather": "gather"}[kind]
        if plan["mode"] != expected_mode:
            return f"planned as {plan['mode']}, workload expects {expected_mode}"
        if kind == "pruned" and (len(plan["shards"]) != 1 or len(rows) != 1):
            return "equality on the shard key was not pruned to one row on one shard"
        return None

    def _against_one_shard(self, text: str, params: Any, rows: Any) -> str | None:
        """The same data and the same session writes on a one-shard
        topology must answer the same."""
        from repro.sharding import ShardMap

        if self.oracle is None:
            self.oracle = new_sharded(ShardMap.single("s0", key_attr=KEY_ATTR))
            corpus.load_sharded(self.oracle, self.plan)
            for species, attrs in self.written:
                session = self.oracle.session()
                specimen = session.create("Specimen", **attrs)
                session.relate(
                    "Includes", self.handles["species_ct"][species], specimen
                )
                session.commit()
        expected = self.oracle.query(text, params)
        if self.sharded.jsonable_result(rows) != self.oracle.jsonable_result(expected):
            return "four shards and one shard answer differently"
        return None

    def instrument(self, tracer: Tracer) -> None:
        sharded = self.sharded
        self.shipped = {"rows": 0, "results": 0}
        tracer.wrap(sharded, "query", "sharding")
        tracer.wrap_returned(
            sharded, "session", "sharding", ("create", "relate", "commit")
        )
        # The one private name traced: the coordinator enters the
        # federation's breaker-guarded fan-out only through it.
        tracer.wrap(sharded.federation, "_scatter", "engine")
        for client in sharded.shards.values():
            for attr in ("query", "export_records", "resolve_oids"):
                self._count_shipped(tracer, client, attr)
            tracer.wrap(client, "install_object", "core")
            tracer.wrap(client, "install_edge", "core")
            tracer.wrap(client, "commit", "concurrency")

    def _count_shipped(self, tracer: Tracer, client: Any, attr: str) -> None:
        """A shard answering the coordinator: traced as the layer that
        does the work there, and its row count tallied as shipped."""
        traced = tracer.traced(client, attr, "query" if attr == "query" else "core")

        def counted(*args: Any, **kwargs: Any) -> Any:
            rows = traced(*args, **kwargs)
            if isinstance(rows, list):
                self.shipped["rows"] += len(rows)
            return rows

        tracer.install(client, attr, counted)

    def verify(self) -> list[str]:
        """Every object the generator and the sessions created is on
        exactly one shard.  (Per-shard ``check_integrity`` does not
        apply: a cross-shard edge rightly dangles on its own shard.)"""
        species = len(self.handles["species_ct"])
        taxa = species + len(self.handles["genus_ct"]) + len(self.handles["family_ct"])
        expected = {
            "Specimen": len(self.handles["specimen"]) + len(self.written),
            "NomenclaturalTaxon": taxa,
            "CircumscriptionTaxon": taxa,
            "Includes": taxa - len(self.handles["family_ct"])
            + len(self.handles["specimen"]) + len(self.written),
        }
        problems = []
        for name, count in expected.items():
            found = self.sharded.query(f"select count(x) from x in {name}")
            if found != [count]:
                problems.append(f"{name}: shards hold {found}, {count} were created")
        if len(self.sharded.router) != sum(
            len(client.db.schema._objects) for client in self.sharded.shards.values()
        ):
            problems.append("router and shards disagree on the object count")
        return problems

    def counters(self) -> dict[str, float]:
        """Plan counts over the first ten blocks of the seeded sequence
        (exact for a seed, however many ops the clock allowed)."""
        import itertools

        plans = [
            self.sharded.explain(op.detail)
            for op in itertools.islice(self.streams()[0], 10 * self.block)
            if op.kind != "session"
        ]
        shipped = self.shipped or {"rows": 0, "results": 0}
        return {
            "sharding.scatter_fraction":
                sum(p["mode"] != "gather" for p in plans) / len(plans),
            "sharding.shards_touched_per_query":
                sum(len(p["shards"]) for p in plans) / len(plans),
            "sharding.shipped_rows_per_result":
                shipped["rows"] / max(1, shipped["results"]),
        }

    def extras(self) -> dict[str, float]:
        return {"session_commits": len(self.written)}

    def teardown(self) -> None:
        for client in self.sharded.shards.values():
            client.db.close()
        if self.oracle is not None:
            for client in self.oracle.shards.values():
                client.db.close()
