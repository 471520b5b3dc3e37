"""``query_cold``: one client, in-process ``db.query()`` over flora-2k
with parameters drawn uniformly from the whole corpus.

Why: the `query` layer (parser, planner, plans, evaluator), the index
layer, `core` traversal and `mvcc` views do all the work and transport
does none.  2 082 names against a 256-entry plan-text cache means no
repeat fits; zone maps, vectorized execution and closure caching must
show here.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

import corpus
from harness import Op, Tracer, Workload, differs, mixed_stream

#: Ops per block of 20: 25 % indexed point, 15 % index range + order by
#: + limit, 20 % unindexed scan, 25 % classification-scoped closure,
#: 10 % group by, 5 % as_of time travel.  (The issue's 30/20 split of
#: point and closure put the median exactly on the boundary between two
#: kinds of very different cost; this split keeps p50 inside the
#: closures and p90 inside the scans.)
MIX = {"point": 5, "range": 3, "scan": 4, "closure": 5, "groupby": 2, "asof": 1}

CLOSURE = (
    "select s from t in CircumscriptionTaxon, "
    's in (Specimen) t->Includes["generated flora"]* where t.oid = $oid'
)
#: Commits spread through the build give as_of something to travel to;
#: three LSNs fit the database's four-view snapshot cache, so the op
#: measures a snapshot *query*, and `mvcc.snapshot_open_us` (probe)
#: measures opening a cold view.
ASOF_POINTS = 3


def point_text(epithet: str) -> str:
    return f'select n from n in NomenclaturalTaxon where n.epithet = "{epithet}"'


def range_text(year: int) -> str:
    return (
        "select n.epithet from n in NomenclaturalTaxon "
        f"where n.year >= {year} and n.year < {year + 10} "
        "order by n.year limit 20"
    )


def scan_text(collector: int) -> str:
    return (
        "select s.collection_number from s in Specimen "
        f'where s.collector = "Collector {collector}"'
    )


def groupby_text(collector: int) -> str:
    return (
        "select s.herbarium as h, count(s) as n from s in Specimen "
        f'where s.collector = "Collector {collector}" group by s.herbarium'
    )


class QueryCold(Workload):
    name = "query_cold"
    block = sum(MIX.values())
    shape = corpus.FLORA_2K

    def setup(self) -> None:
        plan = corpus.plan_flora(self.shape, self.seed)
        self.db = db = corpus.new_database()
        self.flora = builder = corpus.FloraBuilder(corpus.open_taxonomy(db))
        #: (LSN, species committed by then), in build order
        self.asof: list[tuple[int, int]] = []
        species_per_point = self.shape.species // (ASOF_POINTS + 1)
        for family_spec in plan.families:
            family = builder.add_family(family_spec)
            for genus_spec in family_spec.genera:
                genus = builder.add_genus(family, genus_spec)
                for species_spec in genus_spec.species:
                    builder.add_species(genus, species_spec)
                    if (
                        len(builder.species) % species_per_point == 0
                        and len(self.asof) < ASOF_POINTS
                    ):
                        db.commit()
                        self.asof.append((db.lsn, len(builder.species)))
        db.commit()
        self.specimens_per_species = self.shape.specimens_per_species
        # Warm-up: lazy structures (plan cache entries per query shape,
        # the three snapshot views) are built before timing starts.
        for op, _ in zip(self.streams()[0], range(3 * self.block)):
            op.run()
        self.baseline = self.db.planner.snapshot()

    def streams(self) -> list[Iterator[Op]]:
        return [mixed_stream(random.Random(f"ops:{self.seed}"), MIX, self._op)]

    def _op(self, kind: str, rng: random.Random) -> Op:
        db, flora = self.db, self.flora
        if kind == "point":
            species = rng.choice(flora.species)
            text = point_text(species.epithet)
            return Op(
                kind, text, lambda: db.query(text),
                check=lambda rows: None
                if [r.oid for r in rows] == [species.nt]
                else "point lookup did not return the generated name",
                verify=lambda rows: differs(rows, self._naive(text)),
            )
        if kind == "range":
            text = range_text(rng.randint(1753, 1980))
            return Op(
                kind, text, lambda: db.query(text),
                verify=lambda rows: differs(rows, self._naive(text)),
            )
        if kind in ("scan", "groupby"):
            make = scan_text if kind == "scan" else groupby_text
            text = make(rng.randint(1, 60))
            return Op(
                kind, text, lambda: db.query(text),
                verify=lambda rows: differs(rows, self._naive(text)),
            )
        if kind == "closure":
            # Mostly a genus (75 specimens); one in ten a whole family.
            if rng.random() < 0.1:
                taxon = rng.choice(flora.families)
                expected = sum(
                    len(flora.genera[g].species) for g in taxon.genera
                ) * self.specimens_per_species
            else:
                taxon = rng.choice(flora.genera)
                expected = len(taxon.species) * self.specimens_per_species
            params = {"oid": taxon.ct}
            return Op(
                kind, f"closure:{taxon.epithet}",
                lambda: db.query(CLOSURE, params),
                check=lambda rows: None
                if len(rows) == expected
                else f"closure returned {len(rows)} specimens, not {expected}",
                verify=lambda rows: differs(rows, self._naive(CLOSURE, params)),
            )
        lsn, committed = rng.choice(self.asof)
        index = rng.randrange(len(flora.species))
        species = flora.species[index]
        text = point_text(species.epithet)
        expected = 1 if index < committed else 0
        return Op(
            kind, f"asof:{lsn}:{species.epithet}",
            lambda: db.query(text, as_of=lsn),
            check=lambda rows: None
            if len(rows) == expected
            else f"as_of {lsn} returned {len(rows)} rows, not {expected}",
        )

    def _naive(self, text: str, params: dict[str, Any] | None = None) -> Any:
        """The reference interpreter: no planner, no indexes."""
        from repro.query import execute

        return execute(
            self.db.schema, text,
            classifications=self.db.classifications, params=params,
        )

    def instrument(self, tracer: Tracer) -> None:
        db = self.db
        tracer.wrap(db, "query", "query")
        tracer.wrap(db.planner, "plan_select", "query")
        for attr in ("probe", "range_probe", "ordered_scan"):
            tracer.wrap(db.indexes, attr, "engine")
        tracer.wrap(db.schema, "extent", "core")
        tracer.wrap(db.schema.relationships, "outgoing", "core")
        tracer.wrap(db.classifications, "get", "classification")
        tracer.wrap(db.mvcc, "view", "mvcc")
        tracer.wrap(db.mvcc, "pin", "mvcc")

    def verify(self) -> list[str]:
        problems = list(self.db.check_integrity())
        for name, expected in sorted(self.flora.expected.items()):
            found = len(self.db.schema.extent(name))
            if found != expected:
                problems.append(f"{name}: {found} objects, generator made {expected}")
        return problems

    def counters(self) -> dict[str, float]:
        plans = self.db.planner.snapshot()
        hits = plans["hits"] - self.baseline["hits"]
        lookups = hits + plans["misses"] - self.baseline["misses"]
        return {"query.plan_cache_hit_ratio": hits / lookups if lookups else 0.0}

    def teardown(self) -> None:
        self.db.close()
