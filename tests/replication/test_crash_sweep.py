"""Replication crash-equivalence sweep: kill the stream anywhere, converge.

The scripted workload is replicated once under an empty
:class:`FaultPlan` to count every write/flush/fsync the *replica's* log
performs while applying shipped frames.  The sweep then re-replicates
once per counted operation with a crash injected exactly there —
mid-frame, mid-batch, between flushes — reopens the replica from its
(possibly torn) log, resumes pulling from wherever recovery landed, and
requires the end state to be **byte-identical** to a replica that
caught up from empty without any faults.  Torn transport frames (the
network-cut analogue) are covered separately: they must never reach the
log at all.
"""

import pytest

from repro.engine import PrometheusDB
from repro.errors import ReplicationError
from repro.replication import LogShipper, ReplicaApplier, ReplicationClient
from repro.storage import FaultPlan, InjectedCrash, InjectedFault, sweep_points

from .conftest import declare

#: Small frame ceiling so the workload ships as many separate frames —
#: and therefore distinct crash windows — as possible.  It must stay
#: above the largest single log entry (~73 bytes here) or no frame can
#: ever make progress; the client raises on that misconfiguration.
FRAME_BYTES = 96

QUERY = "select e.key, e.value from e in Entry order by e.key"


def build_primary(tmp_path):
    db = PrometheusDB(tmp_path / "primary.plog")
    declare(db)
    db.load()
    oids = {}
    for i in range(6):
        txn = db.transactions.begin()
        for j in range(3):
            key = f"k{i}-{j}"
            oids[key] = txn.create("Entry", key=key, value=i * 10 + j)
        txn.commit()
    txn = db.transactions.begin()
    txn.set(oids["k0-0"], "value", 999)
    txn.delete(oids["k1-1"])
    txn.commit()
    return db


def open_replica(path, shipper, name, faults=None):
    db = PrometheusDB(path, read_only=True, faults=faults)
    declare(db)
    db.load()
    applier = ReplicaApplier(db)
    client = ReplicationClient(applier, shipper, name=name)
    return db, client


def test_crash_sweep_converges_byte_identically(tmp_path):
    primary = build_primary(tmp_path)
    shipper = LogShipper(primary.store, max_bytes=FRAME_BYTES)
    want_fingerprint = primary.store.fingerprint()

    # The fault-free reference: catch up from empty, no injection.
    reference, ref_client = open_replica(
        tmp_path / "reference.plog", shipper, "reference"
    )
    ref_client.catch_up()
    assert reference.store.fingerprint() == want_fingerprint
    want_rows = reference.query(QUERY)
    assert len(want_rows) == 17  # 18 created, 1 deleted
    reference.close()

    # Probe run: count every log operation the apply path performs.
    probe = FaultPlan()
    probe_db, probe_client = open_replica(
        tmp_path / "probe.plog", shipper, "probe", faults=probe
    )
    probe_client.catch_up()
    assert probe_db.store.fingerprint() == want_fingerprint
    probe_db.close()

    points = list(sweep_points(probe.snapshot_counts()))
    assert len(points) >= 10, "workload too small to sweep meaningfully"

    crashed = 0
    for op, index in points:
        path = tmp_path / f"sweep-{op}-{index}.plog"
        plan = FaultPlan(seed=index).crash(op, at=index)
        db = None
        try:
            # The crash can fire as early as the header write at open.
            db, client = open_replica(path, shipper, f"sweep-{op}-{index}",
                                      faults=plan)
            client.catch_up()
        except InjectedCrash:
            crashed += 1
        if db is not None:
            try:
                db.close()
            except InjectedFault:
                pass  # the plan is dead; the file dies with the process

        # "Restart": reopen the torn log fresh, recover, resume pulling
        # from wherever the recovered position landed.
        db, client = open_replica(path, shipper, f"recover-{op}-{index}")
        client.catch_up()
        assert db.store.fingerprint() == want_fingerprint, (
            f"crash at {op}#{index}: recovered replica diverged"
        )
        assert db.query(QUERY) == want_rows
        db.close()

    assert crashed >= len(points) - 3, (
        "almost every sweep point should actually crash the apply stream"
    )
    primary.close()


def test_torn_transport_frame_never_reaches_the_log(tmp_path):
    """A frame cut mid-flight fails checksum and is fully discarded."""
    primary = build_primary(tmp_path)
    shipper = LogShipper(primary.store)

    class TearingTransport:
        """Truncates the first N pulls, then delivers intact."""

        def __init__(self, shipper, tears: int) -> None:
            self.shipper = shipper
            self.tears = tears

        def pull(self, from_lsn, prefix_crc=None, wait_s=0.0,
                 max_bytes=None, replica="", epoch=None):
            status, frame = self.shipper.pull(
                from_lsn, prefix_crc=prefix_crc, wait_s=wait_s,
                max_bytes=max_bytes, replica=replica,
            )
            if status == "frame" and self.tears > 0:
                self.tears -= 1
                return status, frame[: len(frame) // 2]
            return status, frame

    db = PrometheusDB(tmp_path / "replica.plog", read_only=True)
    declare(db)
    db.load()
    applier = ReplicaApplier(db)
    client = ReplicationClient(
        applier, TearingTransport(shipper, tears=3), name="torn"
    )
    before = db.store.fingerprint()
    for _ in range(3):
        with pytest.raises(ReplicationError):
            client.pull_once()
        # Nothing of the torn frame may have landed.
        assert db.store.fingerprint() == before
        assert db.store.replication_position == client._position()
    # The "reconnect": the next pull delivers intact and converges.
    client.catch_up()
    assert db.store.fingerprint() == primary.store.fingerprint()
    assert db.query(QUERY) == primary.query(QUERY)
    db.close()
    primary.close()
