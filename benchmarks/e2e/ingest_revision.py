"""``ingest_revision``: one taxonomist loads a flora into a durable
store, species by species, committing every 250; then the store is
closed, reopened and queried, and an empty replica applies the whole
log until its fingerprint matches.

Why: the write path only — `taxonomy` -> `core` semantics and events ->
`engine.indexes` maintenance -> `mvcc` chains -> `storage` — while
`query` and transport do nothing.  It is the sandbox-scale stand-in for
the roadmap's bulk-ingest gate, and the one workload that counts log
bytes per record exactly.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Iterator

import corpus
from harness import Op, Tracer, Workload

COMMIT_EVERY = 250
#: Nominally flora-4k (what ~10 s ingests here); the plan is longer so a
#: faster machine or a longer run never runs out of species.
SHAPE = corpus.FloraShape("flora-ingest", 16, 40, 25)
COUNT_QUERY = "select count(n) from n in NomenclaturalTaxon"


def open_durable(path: Any, read_only: bool = False) -> tuple[Any, Any]:
    """A file-backed taxonomy database and its facade: schema declared,
    log loaded, indexes built."""
    db = corpus.new_database(path, read_only=read_only)
    return db, corpus.open_taxonomy(db)


class IngestRevision(Workload):
    name = "ingest_revision"
    block = COMMIT_EVERY + 1

    def setup(self) -> None:
        self.plan = corpus.plan_flora(SHAPE, self.seed)
        self.path = self.scratch.file("ingest")
        self.db, taxdb = open_durable(self.path)
        self.flora = corpus.FloraBuilder(taxdb)
        #: epithet -> FloraBuilder index, for the families and genera
        #: the stream has created so far.
        self.family_index: dict[str, int] = {}
        self.genus_index: dict[str, int] = {}
        self.commit_seconds: list[float] = []
        self._stream = self._ops()
        # Warm-up: the first genus (schema metadata, first index nodes,
        # first log segment) is ingested before timing starts.
        for _ in range(SHAPE.species_per_genus):
            next(self._stream).run()

    def streams(self) -> list[Iterator[Op]]:
        return [self._stream]

    def _ops(self) -> Iterator[Op]:
        """Species in plan order (a new genus or family is created by
        the first species that needs it), one commit op per 250."""
        for count, specs in enumerate(self.plan.species(), start=1):
            yield Op("species", specs[2].epithet, partial(self._add, *specs))
            if count % COMMIT_EVERY == 0:
                yield Op("commit", "commit", self._commit)

    def op_keys(self) -> Iterator[str]:
        return (op.key for op in self._ops())

    def _add(self, family_spec: Any, genus_spec: Any, species_spec: Any) -> int:
        flora = self.flora
        genus = self.genus_index.get(genus_spec.epithet)
        if genus is None:
            family = self.family_index.get(family_spec.epithet)
            if family is None:
                family = flora.add_family(family_spec)
                self.family_index[family_spec.epithet] = family
            genus = flora.add_genus(family, genus_spec)
            self.genus_index[genus_spec.epithet] = genus
        return flora.add_species(genus, species_spec)

    def _commit(self) -> None:
        started = time.perf_counter()
        self.db.commit()
        self.commit_seconds.append(time.perf_counter() - started)

    def instrument(self, tracer: Tracer) -> None:
        db, flora = self.db, self.flora
        for attr in ("publish_name", "new_taxon", "ascribe_name", "place",
                     "typify", "new_specimen"):
            tracer.wrap(flora.taxdb, attr, "taxonomy")
        for attr in ("place", "add_edge"):
            tracer.wrap(flora.classification, attr, "classification")
        tracer.wrap(db.trace, "record", "classification")
        for attr in ("create", "relate", "unrelate"):
            tracer.wrap(db.schema, attr, "core")
        # Index maintenance runs inside the event bus's subscribers.
        tracer.wrap(db.schema.events, "publish", "engine")
        tracer.wrap(db.transactions, "commit_implicit", "concurrency")
        tracer.wrap(db.schema, "commit", "core")
        tracer.wrap(db.mvcc, "apply_commit", "mvcc")
        tracer.wrap(db.mvcc, "maybe_gc", "mvcc")
        tracer.wrap_returned(db.store, "begin", "storage", ("write", "commit"))

    def verify(self) -> list[str]:
        from repro.replication import LogShipper, ReplicaApplier, ReplicationClient

        problems: list[str] = []
        db, flora = self.db, self.flora
        db.commit()
        for name, expected in sorted(flora.expected.items()):
            found = len(db.schema.extent(name))
            if found != expected:
                problems.append(f"{name}: {found} objects, generator made {expected}")
        problems.extend(db.check_integrity())
        names = flora.expected["NomenclaturalTaxon"]
        before = db.store.fingerprint()
        self.store_snapshot = db.store.telemetry_snapshot()
        db.close()

        started = time.perf_counter()
        self.db, _ = open_durable(self.path)
        counted = self.db.query(COUNT_QUERY)
        self.reopen_s = time.perf_counter() - started
        if counted != [names]:
            problems.append(f"after reopen {counted} names, generator made {names}")
        if self.db.store.fingerprint() != before:
            problems.append("store fingerprint changed across close/reopen")

        started = time.perf_counter()
        replica, _ = open_durable(self.scratch.file("replica"), read_only=True)
        try:
            client = ReplicationClient(
                ReplicaApplier(replica), LogShipper(self.db.store), name="e2e"
            )
            client.catch_up(deadline_s=120.0)
            matches = replica.store.fingerprint() == before
            self.replica_catchup_s = time.perf_counter() - started
            if not matches:
                problems.append("replica fingerprint differs from the primary's")
            if replica.query(COUNT_QUERY) != [names]:
                problems.append("replica answers a different name count")
        finally:
            replica.close()
        return problems

    def counters(self) -> dict[str, float]:
        return store_counters(self.store_snapshot, self.flora.expected_records)

    def extras(self) -> dict[str, float]:
        records = self.flora.expected_records
        ordered = sorted(self.commit_seconds)
        return {
            "species_ingested": len(self.flora.species),
            "records_ingested": records,
            "records_per_species": records / len(self.flora.species),
            "commit_p50_ms": ordered[len(ordered) // 2] * 1e3 if ordered else 0.0,
            "reopen_s": self.reopen_s,
            "replica_catchup_s": self.replica_catchup_s,
            "log_bytes_per_record": self.store_snapshot["file_size"] / records,
        }

    def teardown(self) -> None:
        self.db.close()


def store_counters(snap: dict[str, Any], records: int) -> dict[str, float]:
    """The storage layer's device-side counts, from its own snapshot."""
    commits = snap["commits"] or 1
    return {
        "storage.fsyncs_per_commit": snap["log_fsyncs"] / commits,
        "storage.flushes_per_commit": snap["log_flushes"] / commits,
        "storage.bytes_written_per_record": snap["file_size"] / max(1, records),
    }
