"""``revision_mixed``: two taxonomists revise one durable store at once
(the thesis's §7.1.4 what-if): a copy of the flora's classification is
restructured transaction by transaction beside reads of the same data.

Each step of a client is three ops — *closure* (begin a managed
transaction, then read the target genus's specimens in both
classifications: a taxonomist looks before moving), *move* (in that
transaction, re-place a species under the genus in the what-if
classification and add a placed specimen; commit through the
group-commit path; a ``ConflictError`` is retried at once and counted),
*derive* (``NameDeriver.derive_taxon`` on the moved species) — and every
50 steps
one *checkpoint*: the two classifications compared at genus rank, then
the implicit session (classification membership, derived names)
committed.

Why: writes beside reads on the *same* indexes, plan cache, adjacency
cache, version chains and log.  A read optimisation that makes
maintenance dearer (sorted extents, zone maps, materialised closures)
pays for it here.  It is the only workload driving `concurrency`,
`classification` and MVCC garbage collection.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Iterator

import corpus
from harness import Op, Tracer, Workload
from ingest_revision import open_durable, store_counters

CLIENTS = 2
COMPARE_EVERY = 50
MAX_ATTEMPTS = 20
WHATIF = "what-if"
ORIGINAL = "generated flora"


def closure_text(classification: str) -> str:
    return (
        "select s from t in CircumscriptionTaxon, "
        f's in (Specimen) t->Includes["{classification}"]* where t.oid = $oid'
    )


class RevisionMixed(Workload):
    name = "revision_mixed"
    #: One step; the rare checkpoint op rides in whichever chunk it lands.
    block = 3
    shape = corpus.FLORA_1K

    def setup(self) -> None:
        from repro.classification import copy_classification
        from repro.taxonomy import NameDeriver

        self.path = self.scratch.file("revision")
        self.db, taxdb = open_durable(self.path)
        self.taxdb = taxdb
        plan = corpus.plan_flora(self.shape, self.seed)
        self.flora = flora = corpus.FloraBuilder(taxdb).add_all(plan)
        self.db.commit()
        self.whatif = copy_classification(
            self.db.classifications, flora.classification, WHATIF
        )
        self.db.commit()
        self.deriver = NameDeriver(taxdb, author="Rev.", year=2026)
        #: One taxonomist edits the what-if classification's membership
        #: (and the names derived from it) at a time; transactions and
        #: queries run outside this lock.
        self.editor = threading.Lock()
        #: species index -> (what-if genus index, what-if edge OID)
        self.placed: dict[int, tuple[int, int]] = {}
        species_ct = {s.ct: i for i, s in enumerate(flora.species)}
        for edge in self.whatif.edges():
            index = species_ct.get(edge.destination_oid)
            if index is not None:
                self.placed[index] = (flora.species[index].genus, edge.oid)
        #: (species index, new edge, specimen, specimen edge, removed edge)
        self.acknowledged: list[tuple[int, int, int, int, int]] = []
        self.retries = 0
        self.move_seconds: list[float] = []
        self.checkpoint_seconds: list[float] = []
        self.baseline = self._lifetime_counts()

    # -- the op streams ---------------------------------------------------------

    def streams(self) -> list[Iterator[Op]]:
        return [self._steps(client) for client in range(CLIENTS)]

    def _steps(self, client: int) -> Iterator[Op]:
        """Client ``c`` revises species ``c, c+2, ...`` so two clients
        never move one species at once; they still meet on genera."""
        rng = random.Random(f"ops:{self.seed}:{client}")
        flora = self.flora
        mine = range(client, len(flora.species), CLIENTS)
        step = 0
        while True:
            species = rng.choice(mine)
            target = rng.randrange(len(flora.genera))
            open_txn: list[Any] = []
            key = f"{client}:{flora.species[species].epithet}->{flora.genera[target].epithet}"
            yield Op("closure", "closure:" + key,
                     lambda: self._closures(target, open_txn),
                     check=lambda sizes: None if min(sizes) > 0
                     else "a genus closure came back empty")
            yield Op("move", "move:" + key,
                     lambda: self._move(species, target, open_txn))
            yield Op("derive", "derive:" + key, lambda: self._derive(species, target),
                     check=lambda result: None if result.succeeded
                     else f"derivation failed: {result.action}")
            step += 1
            if step % COMPARE_EVERY == 0:
                yield Op("checkpoint", f"checkpoint:{client}:{step}",
                         self._checkpoint,
                         check=lambda pairs: None if pairs
                         else "comparison found no overlapping genera")

    def _closures(self, genus: int, open_txn: list[Any]) -> tuple[int, int]:
        """Live (read-committed) reads take the manager's read lock: a
        query walking edges while the other client's commit replays an
        ``unrelate`` can otherwise meet an OID that has just gone
        (``UnknownOidError``, once in ~13 000 ops here)."""
        db = self.db
        open_txn.append(db.begin())
        params = {"oid": self.flora.genera[genus].ct}
        with db.transactions.read_lock():
            return (
                len(db.query(closure_text(WHATIF), params)),
                len(db.query(closure_text(ORIGINAL), params)),
            )

    def _move(self, species: int, target: int, open_txn: list[Any]) -> None:
        from repro.errors import ConflictError

        started = time.perf_counter()
        db, flora = self.db, self.flora
        handle = flora.species[species]
        _, old_edge = self.placed[species]
        sheet = f"{handle.epithet}-w{len(handle.specimens)}"
        for _ in range(MAX_ATTEMPTS):
            txn = open_txn.pop() if open_txn else db.begin()
            try:
                txn.unrelate(old_edge)
                new_edge = txn.relate(
                    "Includes", flora.genera[target].ct, handle.ct,
                    motivation="what-if",
                )
                specimen = txn.create(
                    "Specimen", collector="Rev.", collection_number=sheet,
                    herbarium="E", field_name=handle.epithet,
                )
                specimen_edge = txn.relate("Includes", handle.ct, specimen)
                txn.commit()
                break
            except ConflictError:
                self.retries += 1
        else:
            raise RuntimeError(f"move gave up after {MAX_ATTEMPTS} conflicts")
        schema = db.schema
        with self.editor:
            self.whatif.remove_edge(old_edge)
            self.whatif.add_edge(schema.get_object(new_edge))
            self.whatif.add_edge(schema.get_object(specimen_edge))
            self.placed[species] = (target, new_edge)
            handle.specimens.append(specimen)
            self.acknowledged.append(
                (species, new_edge, specimen, specimen_edge, old_edge)
            )
        self.move_seconds.append(time.perf_counter() - started)

    def _derive(self, species: int, genus: int) -> Any:
        """Derivation writes through the implicit session, which is not
        a second isolation domain: it runs under the manager's read lock
        so no transaction replay interleaves with it."""
        db, flora = self.db, self.flora
        schema = db.schema
        with self.editor, db.transactions.read_lock():
            return self.deriver.derive_taxon(
                self.whatif,
                schema.get_object(flora.species[species].ct),
                schema.get_object(flora.genera[genus].nt),
            )

    def _checkpoint(self) -> int:
        from repro.classification import compare_classifications

        started = time.perf_counter()
        taxdb = self.taxdb
        with self.editor:
            report = compare_classifications(
                self.flora.classification, self.whatif,
                is_group=lambda n: taxdb.is_ct(n) and n.get("rank") == corpus.RANK_GENUS,
            )
            self.db.commit()
        self.checkpoint_seconds.append(time.perf_counter() - started)
        return len(report.synonym_pairs)

    # -- tracing ---------------------------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        db = self.db
        tracer.wrap_returned(
            db.transactions, "begin", "concurrency",
            ("unrelate", "relate", "create", "commit"),
        )
        tracer.wrap(db.transactions, "commit", "concurrency")
        tracer.wrap(db.transactions, "commit_implicit", "concurrency")
        tracer.wrap_returned(db.store, "begin", "storage", ("write", "delete", "commit"))
        tracer.wrap(db.store, "wait_durable", "storage")
        for attr in ("apply_commit", "maybe_gc", "pin"):
            tracer.wrap(db.mvcc, attr, "mvcc")
        for attr in ("create", "relate", "unrelate", "commit"):
            tracer.wrap(db.schema, attr, "core")
        tracer.wrap(db.schema.relationships, "outgoing", "core")
        tracer.wrap(db.schema.events, "publish", "engine")
        for attr in ("remove_edge", "add_edge"):
            tracer.wrap(self.whatif, attr, "classification")
        tracer.wrap(db.classifications, "get", "classification")
        tracer.wrap(db, "query", "query")
        tracer.wrap(db.planner, "plan_select", "query")
        tracer.wrap(self.deriver, "derive_taxon", "taxonomy")
        tracer.wrap(self.deriver, "candidate_names", "taxonomy")
        tracer.wrap(self.taxdb, "publish_name", "taxonomy")
        tracer.wrap(self.taxdb, "set_calculated_name", "taxonomy")

    # -- the oracle -----------------------------------------------------------------------

    def verify(self) -> list[str]:
        problems: list[str] = []
        self.db.commit()
        problems.extend(self._check_state(self.db, self.whatif))
        problems.extend(self.db.check_integrity())
        self.store_snapshot = self.db.store.telemetry_snapshot()
        self.counts = self._lifetime_counts()
        self.db.close()
        started = time.perf_counter()
        self.db, _ = open_durable(self.path)
        self.reopen_s = time.perf_counter() - started
        reopened = self.db.classifications.get(WHATIF)
        problems.extend(
            f"after reopen: {p}" for p in self._check_state(self.db, reopened)
        )
        return problems

    def _check_state(self, db: Any, whatif: Any) -> list[str]:
        """Every acknowledged move is there: its specimen exists, the
        edge it replaced does not, its own edge exists unless a later
        move replaced it, and the what-if classification places each
        species under its last genus."""
        schema, flora = db.schema, self.flora
        problems = []
        for species, new_edge, specimen, specimen_edge, old_edge in self.acknowledged:
            for oid in (specimen, specimen_edge):
                if not schema.has_object(oid):
                    problems.append(f"acknowledged object {oid} is missing")
            if schema.has_object(old_edge):
                problems.append(f"replaced edge {old_edge} still exists")
            if schema.has_object(new_edge) != (self.placed[species][1] == new_edge):
                problems.append(f"edge {new_edge} of a move is in the wrong state")
        for species, (genus, edge) in self.placed.items():
            parents = [p.oid for p in whatif.parents(flora.species[species].ct)]
            if parents != [flora.genera[genus].ct]:
                problems.append(
                    f"{flora.species[species].epithet}: what-if parents {parents}, "
                    f"last acknowledged genus {flora.genera[genus].ct}"
                )
                break
        expected = flora.expected["Specimen"] + len(self.acknowledged)
        found = len(schema.extent("Specimen"))
        if found != expected:
            problems.append(f"Specimen: {found} objects, {expected} acknowledged")
        return problems[:10]

    # -- counts -----------------------------------------------------------------------------

    def _lifetime_counts(self) -> dict[str, float]:
        txn = self.db.describe()["transactions"]
        store = self.db.store.telemetry_snapshot()
        plans = self.db.planner.snapshot()
        mvcc = self.db.mvcc.telemetry_snapshot()
        return {
            "committed": txn["committed"], "conflicts": txn["conflicts"],
            "begun": txn["begun"],
            "batches": store["group_commit_batches"],
            "batched": store["group_commit_batched"],
            "plan_hits": plans["hits"], "plan_misses": plans["misses"],
            "versions": mvcc["versions_live"], "chains": mvcc["chains"],
        }

    def counters(self) -> dict[str, float]:
        now, base = self.counts, self.baseline
        d = {key: now[key] - base[key] for key in now}
        planned = d["plan_hits"] + d["plan_misses"]
        moves = max(1, len(self.acknowledged))
        values = {
            "concurrency.conflict_ratio": d["conflicts"] / max(1, d["begun"]),
            "concurrency.retries_per_txn": self.retries / moves,
            "concurrency.commits_per_fsync": d["batched"] / max(1, d["batches"]),
            "query.plan_cache_hit_ratio": d["plan_hits"] / planned if planned else 0.0,
            "mvcc.versions_per_oid": now["versions"] / max(1, now["chains"]),
        }
        values.update(store_counters(self.store_snapshot, self.flora.expected_records))
        return values

    def extras(self) -> dict[str, float]:
        ordered = sorted(self.move_seconds)
        checkpoints = sorted(self.checkpoint_seconds)
        return {
            "write_p50_ms": ordered[len(ordered) // 2] * 1e3 if ordered else 0.0,
            "checkpoint_p50_ms": checkpoints[len(checkpoints) // 2] * 1e3
            if checkpoints else 0.0,
            "moves_acknowledged": len(self.acknowledged),
            "conflict_retries": self.retries,
            "reopen_s": self.reopen_s,
        }

    def teardown(self) -> None:
        self.db.close()
