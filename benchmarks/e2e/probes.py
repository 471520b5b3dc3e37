"""Layer probes: the benchmark's own timings around single public calls
of each layer, taken on one fixed small world (``flora-probe``, 250
species, built from the run's seed) in every traced run.

The same probes on the same world in every workload's traced run means
a per-layer number has one meaning wherever it is printed; it says which
layer moved, at probe scale — the end-to-end numbers say how much that
mattered at workload scale.  Each probe is the median of repeated calls
on inputs drawn from the world; counts are read through public
accessors (``store.telemetry_snapshot()``, ``db.explain()``,
``applier.bytes_applied``).
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import time
from typing import Any, Callable

import corpus
from harness import Scratch, median_seconds
from ingest_revision import open_durable
from query_cold import CLOSURE, groupby_text, point_text, range_text, scan_text


def us(fn: Callable[[Any], Any], inputs: Any) -> float:
    """Median microseconds of ``fn(item)`` over ``inputs``."""
    return median_seconds(fn, inputs) * 1e6


def ms(fn: Callable[[Any], Any], inputs: Any) -> float:
    return median_seconds(fn, inputs) * 1e3


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


class World:
    """The probe world: a durable (fsync on commit) taxonomy database
    holding ``flora-probe``, plus handles into it."""

    def __init__(self, seed: int, scratch: Scratch) -> None:
        self.scratch = scratch
        self.rng = random.Random(f"probe:{seed}")
        self.plan = corpus.plan_flora(corpus.FLORA_PROBE, seed)
        self.path = scratch.file("probe")
        self.db, self.taxdb = open_durable(self.path)
        self.flora = corpus.FloraBuilder(self.taxdb).add_all(self.plan)
        self.db.commit()
        self.records = self.flora.expected_records
        self.serial = 0

    def sample(self, items: list[Any], n: int) -> list[Any]:
        return [self.rng.choice(items) for _ in range(n)]

    def fresh(self, stem: str) -> str:
        self.serial += 1
        return f"{stem}{self.serial}"

    def obj(self, oid: int) -> Any:
        return self.db.schema.get_object(oid)


def run_all(seed: int, scratch: Scratch) -> dict[str, float]:
    """Every probe metric; about four seconds, whatever ``--seconds``."""
    world = World(seed, scratch)
    values: dict[str, float] = {}
    try:
        values["storage.log_bytes_per_record"] = (
            world.db.store.file_size / world.records
        )
        for probe in (storage_codec, core_reads, query_classes, engine_indexes,
                      engine_index_maintenance, engine_front_door,
                      classification_reads, mvcc_reads, core_writes,
                      taxonomy_writes, concurrency_commits,
                      classification_whatif, mvcc_gc, replication_catchup):
            values.update(probe(world))
        values.update(storage_lifecycle(world))
    finally:
        world.db.close()
    values.update(storage_raw_commit(scratch))
    values.update(sharding(seed))
    return values


# -- storage ---------------------------------------------------------------------


def storage_codec(world: World) -> dict[str, float]:
    from repro.storage import decode_record, encode_record

    store = world.db.store
    records = [store.read(oid) for oid in world.sample(list(store.oids()), 200)]
    encoded = [encode_record(r) for r in records]
    return {
        "storage.encode_record_us": us(encode_record, records),
        "storage.decode_record_us": us(decode_record, encoded),
    }


def storage_raw_commit(scratch: Scratch) -> dict[str, float]:
    """Raw ``ObjectStore.put`` — one record, one commit, one fsync: the
    thesis's Figure 44 baseline under the object layer."""
    from repro.storage import ObjectStore

    store = ObjectStore(scratch.file("raw"), sync=True)
    try:
        record = {"class": "Specimen", "collector": "Raw", "herbarium": "E"}
        put = us(lambda oid: store.put(oid, record), store.new_oids(60))
    finally:
        store.close()
    return {"storage.put_commit_us_per_record": put}


def storage_lifecycle(world: World) -> dict[str, float]:
    """Compaction, then close, a bare log scan, and a full reopen."""
    from repro.storage import ObjectStore

    db = world.db
    db.commit()
    compact_s, _ = timed(db.store.compact)
    rewritten = db.store.file_size
    objects = len(db.store)
    db.close()
    scan_s, store = timed(lambda: ObjectStore(world.path, sync=True))
    store.close()

    def reopen() -> Any:
        world.db, world.taxdb = open_durable(world.path)
        return world.db.query("select count(n) from n in NomenclaturalTaxon")

    reopen_s, _ = timed(reopen)
    return {
        "storage.compact_ms": compact_s * 1e3,
        "storage.compact_bytes_rewritten": float(rewritten),
        "storage.recovery_records_per_s": objects / scan_s,
        "storage.reopen_ms": reopen_s * 1e3,
        "core.load_objects_per_s": objects / max(1e-9, reopen_s - scan_s),
    }


# -- core ------------------------------------------------------------------------


def core_reads(world: World) -> dict[str, float]:
    genera = world.sample([world.obj(g.ct) for g in world.flora.genera], 200)
    return {"core.related_us": us(lambda g: g.related("Includes", "out"), genera)}


def core_writes(world: World) -> dict[str, float]:
    schema = world.db.schema
    made: list[Any] = []
    create = us(
        lambda sheet: made.append(schema.create(
            "Specimen", collector="Probe", herbarium="E", collection_number=sheet,
        )),
        [world.fresh("core-") for _ in range(200)],
    )
    parents = world.sample([world.obj(s.ct) for s in world.flora.species], 200)
    relate = us(
        lambda pair: schema.relate("Includes", *pair), list(zip(parents, made))
    )
    world.db.commit()
    return {"core.create_us": create, "core.relate_us": relate}


# -- taxonomy ----------------------------------------------------------------------


def taxonomy_writes(world: World) -> dict[str, float]:
    from repro.taxonomy import ISOTYPE, NameDeriver

    taxdb, flora = world.taxdb, world.flora
    rng = random.Random(world.rng.random())
    names = corpus.Names(rng)
    publish = us(
        lambda genus_nt: taxdb.publish_name(
            names.draw(("probata",), capital=False), corpus.RANK_SPECIES,
            author="Probe", year=2026, placement=genus_nt,
        ),
        world.sample([world.obj(g.nt) for g in flora.genera], 100),
    )
    specimens = [
        taxdb.new_specimen(collector="Probe", collection_number=world.fresh("tax-"))
        for _ in range(100)
    ]
    pairs = list(zip(world.sample(flora.species, 100), specimens))
    place_us = us(
        lambda pair: taxdb.place(
            flora.classification, world.obj(pair[0].ct), pair[1]
        ),
        pairs,
    )
    typify_us = us(
        lambda pair: taxdb.typify(world.obj(pair[0].nt), pair[1], ISOTYPE), pairs
    )
    deriver = NameDeriver(taxdb, author="Probe", year=2026)
    derive_ms = ms(
        lambda handle: deriver.derive_taxon(
            flora.classification, world.obj(handle.ct),
            world.obj(flora.genera[handle.genus].nt),
        ),
        world.sample(flora.species, 30),
    )
    world.db.commit()
    return {
        "taxonomy.publish_name_us": publish, "taxonomy.place_us": place_us,
        "taxonomy.typify_us": typify_us, "taxonomy.derive_taxon_ms": derive_ms,
    }


# -- classification ------------------------------------------------------------------


def classification_reads(world: World) -> dict[str, float]:
    from repro.classification.comparison import circumscription

    classification = world.flora.classification
    return {
        "classification.circumscription_us": us(
            lambda genus: circumscription(classification, genus),
            world.sample([g.ct for g in world.flora.genera], 50),
        ),
    }


def classification_whatif(world: World) -> dict[str, float]:
    from repro.classification import compare_classifications, copy_classification

    db, taxdb, flora = world.db, world.taxdb, world.flora
    copy_s, whatif = timed(lambda: copy_classification(
        db.classifications, flora.classification, "probe what-if"
    ))
    genus = lambda n: taxdb.is_ct(n) and n.get("rank") == corpus.RANK_GENUS
    compare_ms = ms(
        lambda _: compare_classifications(
            flora.classification, whatif, is_group=genus
        ),
        range(5),
    )
    db.commit()
    return {
        "classification.copy_ms": copy_s * 1e3,
        "classification.compare_ms": compare_ms,
    }


# -- query -------------------------------------------------------------------------------


def query_classes(world: World) -> dict[str, float]:
    from repro.query import parse

    db, flora, rng = world.db, world.flora, world.rng
    points = [point_text(s.epithet) for s in world.sample(flora.species, 60)]
    ranges = [range_text(rng.randint(1753, 1980)) for _ in range(40)]
    scans = [scan_text(rng.randint(1, 60)) for _ in range(30)]
    groups = [groupby_text(rng.randint(1, 60)) for _ in range(30)]
    closures = [{"oid": g.ct} for g in world.sample(flora.genera, 40)]
    parse_us = us(parse, (points + ranges + scans + groups) * 2)
    examined = matched = 0
    for text in points[:10] + ranges[:10] + scans[:10]:
        info = db.explain(text)
        examined += info.rows_examined
        matched += max(1, info.rows_matched)
    return {
        "query.parse_us": parse_us,
        "query.rows_examined_per_result": examined / matched,
        "query.point_p50_ms": ms(db.query, points),
        "query.range_p50_ms": ms(db.query, ranges),
        "query.scan_p50_ms": ms(db.query, scans),
        "query.groupby_p50_ms": ms(db.query, groups),
        "query.closure_p50_ms": ms(lambda p: db.query(CLOSURE, p), closures),
    }


# -- engine -------------------------------------------------------------------------------


def engine_indexes(world: World) -> dict[str, float]:
    probe = world.db.indexes.probe
    return {
        "engine.index_probe_us": us(
            lambda epithet: probe("NomenclaturalTaxon", "epithet", epithet),
            world.sample([s.epithet for s in world.flora.species], 300),
        ),
    }


def engine_index_maintenance(world: World) -> dict[str, float]:
    """Index upkeep for one record, through the index manager's public
    maintenance entry points: take an indexed object out of every index
    covering it and put it back (half the pair is one record's cost)."""
    indexes, flora = world.db.indexes, world.flora
    oids = [s.nt for s in flora.species] + [
        oid for s in flora.species for oid in s.specimens
    ]

    def out_and_in(obj: Any) -> None:
        indexes.note_removed(obj)
        indexes.note_installed(obj)

    pair_us = us(out_and_in, world.sample([world.obj(oid) for oid in oids], 300))
    return {"engine.index_maintain_us_per_record": pair_us / 2}


def engine_front_door(world: World) -> dict[str, float]:
    from repro.engine import AsyncPrometheusServer, wire
    from repro.engine.handlers import HttpHandlers, Request, jsonable

    db, flora = world.db, world.flora
    handlers = HttpHandlers(db)

    def request(epithet: str) -> Request:
        body = json.dumps({"query": point_text(epithet)}).encode()
        return Request("POST", "/query", {"content-type": "application/json"}, body)

    hot = request(flora.species[0].epithet)
    handlers.handle(hot)
    hit_us = us(lambda _: handlers.handle(hot), range(300))
    miss_us = us(
        handlers.handle,
        [request(s.epithet) for s in world.sample(flora.species[1:], 100)],
    )

    with AsyncPrometheusServer(db) as server:
        connection = http.client.HTTPConnection(*server.address, timeout=30)
        try:
            def round_trip(_: int) -> None:
                connection.request("POST", "/query", hot.body, hot.headers)
                connection.getresponse().read()

            trip_us = us(round_trip, range(300))
        finally:
            connection.close()

    payload = {"result": jsonable(db.query(range_text(1800)))}
    frame = wire.encode_frame(payload)
    return {
        "engine.handle_hit_ms": hit_us / 1e3,
        "engine.handle_miss_ms": miss_us / 1e3,
        "engine.transport_self_ms": (trip_us - hit_us) / 1e3,
        "engine.json_encode_us": us(lambda _: json.dumps(payload).encode(), range(300)),
        "engine.repb_encode_us": us(lambda _: wire.encode_frame(payload), range(300)),
        "engine.repb_decode_us": us(lambda _: wire.decode_frame(frame), range(300)),
        "engine.bytes_per_response_json": float(len(json.dumps(payload).encode())),
        "engine.bytes_per_response_repb": float(len(frame)),
    }


# -- concurrency and mvcc ----------------------------------------------------------------


def concurrency_commits(world: World) -> dict[str, float]:
    db = world.db

    def commit(sheet: str) -> None:
        txn = db.begin()
        txn.create("Specimen", collector="Probe", herbarium="E",
                   collection_number=sheet)
        txn.commit()

    return {
        "concurrency.begin_us": us(lambda _: db.begin().abort(), range(200)),
        "concurrency.commit_ms": ms(commit, [world.fresh("txn-") for _ in range(40)]),
    }


def mvcc_reads(world: World) -> dict[str, float]:
    """Time travel: the same point query live and at an earlier LSN, and
    what opening a view on a not-yet-seen LSN costs."""
    db, flora = world.db, world.flora
    opens = []
    for _ in range(3):
        db.schema.create("Specimen", collector="Probe",
                         collection_number=world.fresh("lsn-"))
        db.commit()
        lsn = db.lsn

        def open_view() -> None:
            with db.snapshot(lsn) as snapshot:
                snapshot.schema

        opens.append(timed(open_view)[0])
    texts = [point_text(s.epithet) for s in world.sample(flora.species, 40)]
    live = ms(db.query, texts)
    asof = ms(lambda t: db.query(t, as_of=lsn), texts)
    return {
        "mvcc.snapshot_open_us": statistics.median(opens) * 1e6,
        "query.asof_p50_ms": asof,
        "mvcc.asof_overhead_ratio": asof / live,
    }


def mvcc_gc(world: World) -> dict[str, float]:
    db = world.db
    db.release_snapshots()
    seconds, collected = timed(db.mvcc_gc)
    return {"mvcc.gc_ms": seconds * 1e3, "mvcc.gc_collected": float(collected)}


# -- replication ------------------------------------------------------------------------------


def replication_catchup(world: World) -> dict[str, float]:
    from repro.replication import LogShipper, ReplicaApplier, ReplicationClient

    world.db.commit()
    primary = world.db.store
    records = len(primary)

    def catch_up() -> Any:
        replica, _ = open_durable(world.scratch.file("probe-replica"), read_only=True)
        applier = ReplicaApplier(replica)
        ReplicationClient(applier, LogShipper(primary), name="probe").catch_up()
        return replica, applier

    seconds, (replica, applier) = timed(catch_up)
    try:
        if replica.store.fingerprint() != primary.fingerprint():
            raise RuntimeError("probe replica diverged from its primary")
        shipped = applier.bytes_applied
    finally:
        replica.close()
    return {
        "replication.catchup_ms": seconds * 1e3,
        "replication.apply_records_per_s": records / seconds,
        "replication.frame_bytes_per_record": shipped / records,
    }


# -- sharding -----------------------------------------------------------------------------------


def sharding(seed: int) -> dict[str, float]:
    from repro.sharding import ShardMap
    from shard_scatter import (
        GROUP_BY, KEY_ATTR, SHARDS, SPLIT_POINTS, TRAVERSAL, new_sharded,
    )

    rng = random.Random(f"probe-shards:{seed}")
    plan = corpus.plan_flora(corpus.FLORA_PROBE, seed)
    sharded = new_sharded(ShardMap.uniform(SHARDS, KEY_ATTR, SPLIT_POINTS))
    handles = corpus.load_sharded(sharded, plan)
    epithets = [s.epithet for _, _, s in plan.species()]
    pruned = [
        f'select n from n in NomenclaturalTaxon where n.epithet = "{rng.choice(epithets)}"'
        for _ in range(40)
    ]
    scatter = [
        "select n from n in NomenclaturalTaxon "
        f"where n.year >= {rng.randint(1753, 1950)} order by n.year limit 10"
        for _ in range(30)
    ]
    # Gather plans, half group-by and half cross-shard traversal.
    gather = [(GROUP_BY.format(collector=rng.randint(1, 60)), None) for _ in range(6)]
    gather += [(TRAVERSAL, {"oid": rng.choice(handles["genus_ct"])}) for _ in range(6)]

    def session(number: int) -> None:
        s = sharded.session()
        specimen = s.create("Specimen", collector="Probe",
                            collection_number=f"probe-{number}")
        s.relate("Includes", rng.choice(handles["species_ct"]), specimen)
        s.commit()

    values = {
        "sharding.plan_us": us(
            sharded.explain, (pruned + scatter + [t for t, _ in gather[:6]]) * 2
        ),
        "sharding.pruned_p50_ms": ms(sharded.query, pruned),
        "sharding.scatter_p50_ms": ms(sharded.query, scatter),
        "sharding.gather_p50_ms": ms(lambda q: sharded.query(*q), gather),
        "sharding.session_commit_ms": ms(session, range(30)),
    }
    for client in sharded.shards.values():
        client.db.close()
    return values
