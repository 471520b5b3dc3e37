"""Unit tests for the log-shipping building blocks.

Frame codec round-trips and rejections, shipper pull statuses,
duplicate/gap handling in the applier, divergence reset, and the
background pull loop — each piece in isolation before the stress
harness composes them.
"""

import threading

import pytest

from repro.errors import DivergedError, ReplicationError
from repro.replication import (
    BASE_LSN,
    LogShipper,
    decode_frame,
    encode_frame,
)

from .conftest import make_replica


def write_entry(db, key: str, value: int) -> int:
    txn = db.transactions.begin()
    oid = txn.create("Entry", key=key, value=value)
    txn.commit()
    return oid


class TestFrameCodec:
    def test_round_trip(self):
        frame = encode_frame(18, 25, b"payload")
        assert decode_frame(frame) == (18, 25, b"payload", 0)

    def test_round_trip_with_epoch(self):
        frame = encode_frame(18, 25, b"payload", epoch=7)
        assert decode_frame(frame) == (18, 25, b"payload", 7)

    def test_v1_frame_decodes_with_epoch_zero(self):
        import struct
        import zlib

        head = struct.Struct(">4sBQQI").pack(
            b"PLSB", 1, 18, 25, zlib.crc32(b"payload")
        )
        assert decode_frame(head + b"payload") == (18, 25, b"payload", 0)

    def test_short_frame_rejected(self):
        with pytest.raises(ReplicationError, match="short frame"):
            decode_frame(b"PL")

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(18, 25, b"payload"))
        frame[0:4] = b"XXXX"
        with pytest.raises(ReplicationError, match="magic"):
            decode_frame(bytes(frame))

    def test_length_mismatch_rejected(self):
        frame = encode_frame(18, 25, b"payload") + b"extra"
        with pytest.raises(ReplicationError, match="length mismatch"):
            decode_frame(frame)

    def test_torn_payload_rejected(self):
        frame = bytearray(encode_frame(18, 25, b"payload"))
        frame[-1] ^= 0xFF
        with pytest.raises(ReplicationError, match="checksum"):
            decode_frame(bytes(frame))


class TestShipper:
    def test_empty_when_caught_up(self, primary, shipper):
        status, frame = shipper.pull(primary.store.commit_lsn)
        assert status == "empty" and frame is None

    def test_frame_covers_new_commits(self, primary, shipper):
        write_entry(primary, "a", 1)
        status, frame = shipper.pull(BASE_LSN, replica="r")
        assert status == "frame"
        from_lsn, to_lsn, payload, _ = decode_frame(frame)
        assert from_lsn == BASE_LSN
        assert to_lsn == primary.store.commit_lsn
        assert payload == primary.store.read_log_bytes(from_lsn, to_lsn)
        assert shipper.replicas()["r"].bytes_shipped == len(payload)

    def test_ahead_replica_is_diverged(self, primary, shipper):
        status, _ = shipper.pull(primary.store.commit_lsn + 1000)
        assert status == "diverged"

    def test_bad_prefix_crc_is_diverged(self, primary, shipper):
        write_entry(primary, "a", 1)
        lsn = primary.store.commit_lsn
        good = shipper.prefix_crc(lsn)
        assert shipper.pull(lsn, prefix_crc=good)[0] == "empty"
        assert shipper.pull(lsn, prefix_crc=good ^ 1)[0] == "diverged"

    def test_max_bytes_chunks_but_stays_aligned(self, primary, shipper):
        for i in range(20):
            write_entry(primary, f"k{i}", i)
        cursor, chunks = BASE_LSN, 0
        while True:
            status, frame = shipper.pull(cursor, max_bytes=128)
            if status == "empty":
                break
            _, to_lsn, payload, _ = decode_frame(frame)
            assert len(payload) <= 128 or chunks == 0
            cursor = to_lsn
            chunks += 1
        assert cursor == primary.store.commit_lsn
        assert chunks > 1

    def test_entry_longer_than_max_bytes_ships_whole(self, tmp_path, primary):
        # max_bytes limits batching, never a single entry: a record
        # larger than the ceiling must still replicate.
        write_entry(primary, "x" * 5000, 1)
        shipper = LogShipper(primary.store, max_bytes=1024)
        rdb, applier, client = make_replica(tmp_path, shipper, "wide")
        try:
            client.catch_up(deadline_s=10.0)
            assert applier.applied_lsn == primary.store.commit_lsn
            assert rdb.store.fingerprint() == primary.store.fingerprint()
            assert rdb.query("select count(e) from e in Entry") == [1]
        finally:
            rdb.close()

    def test_lag_tracks_acked_cursor(self, primary, shipper):
        write_entry(primary, "a", 1)
        shipper.pull(BASE_LSN, replica="r")
        assert shipper.lag_bytes()["r"] == primary.store.commit_lsn - BASE_LSN
        shipper.pull(primary.store.commit_lsn, replica="r")
        assert shipper.lag_bytes()["r"] == 0


class TestApplier:
    def test_catch_up_is_byte_identical(self, primary, shipper, replica):
        rdb, applier, client = replica
        for i in range(5):
            write_entry(primary, f"k{i}", i)
        client.catch_up()
        assert applier.applied_lsn == primary.store.commit_lsn
        assert rdb.store.fingerprint() == primary.store.fingerprint()
        assert rdb.query("select count(e) from e in Entry") == [5]

    def test_duplicate_frame_is_noop(self, primary, shipper, replica):
        _, applier, client = replica
        write_entry(primary, "a", 1)
        _, frame = shipper.pull(BASE_LSN)
        assert applier.apply_frame(frame) is not None
        assert applier.apply_frame(frame) is None  # exact duplicate
        assert applier.batches_applied == 1

    def test_overlapping_frame_is_trimmed(self, primary, shipper, replica):
        rdb, applier, client = replica
        write_entry(primary, "a", 1)
        mid = primary.store.commit_lsn
        client.catch_up()
        write_entry(primary, "b", 2)
        # A frame that re-ships from the very beginning overlaps
        # everything already applied; only the tail must be spliced.
        _, frame = shipper.pull(BASE_LSN)
        applier.apply_frame(frame)
        assert rdb.store.fingerprint() == primary.store.fingerprint()
        assert rdb.query("select count(e) from e in Entry") == [2]

    def test_gap_frame_is_rejected(self, primary, shipper, replica):
        _, applier, _ = replica
        write_entry(primary, "a", 1)
        first_end = primary.store.commit_lsn
        write_entry(primary, "b", 2)
        _, frame = shipper.pull(first_end)  # replica never applied [18, mid)
        with pytest.raises(ReplicationError, match="gap"):
            applier.apply_frame(frame)

    def test_update_and_delete_replicate(self, primary, shipper, replica):
        rdb, _, client = replica
        oid = write_entry(primary, "a", 1)
        client.catch_up()
        txn = primary.transactions.begin()
        txn.set(oid, "value", 42)
        txn.commit()
        client.catch_up()
        assert rdb.query('select e.value from e in Entry where e.key = "a"') == [42]
        txn = primary.transactions.begin()
        txn.delete(oid)
        txn.commit()
        client.catch_up()
        assert rdb.query("select count(e) from e in Entry") == [0]
        assert rdb.store.fingerprint() == primary.store.fingerprint()

    def test_classifications_follow_catch_up(self, primary, replica):
        rdb, _, client = replica
        for db in (primary, rdb):
            db.schema.define_relationship("Under", "Entry", "Entry")
        a, b, c = (
            primary.schema.create("Entry", key=key, value=i)
            for i, key in enumerate("abc")
        )
        tree = primary.classifications.create("tree")
        tree.place("Under", a, b)
        primary.trace.record("place", "tree", subject_oid=b.oid)
        primary.commit()
        client.catch_up()
        assert len(rdb.classifications.get("tree")) == 1
        assert len(rdb.trace) == 1
        tree.place("Under", b, c)
        primary.trace.record("place", "tree", subject_oid=c.oid)
        primary.commit()
        client.catch_up()
        assert len(rdb.classifications.get("tree")) == 2
        assert [e.subject_oid for e in rdb.trace] == [b.oid, c.oid]

    def test_replica_refuses_local_writes(self, primary, replica):
        rdb, _, _ = replica
        from repro.errors import TransactionError

        txn = rdb.transactions.begin()
        txn.create("Entry", key="x", value=1)
        with pytest.raises(TransactionError):
            txn.commit()

    def test_compaction_divergence_forces_resync(
        self, primary, shipper, replica
    ):
        rdb, applier, client = replica
        oid = write_entry(primary, "a", 1)
        write_entry(primary, "b", 2)
        client.catch_up()
        txn = primary.transactions.begin()
        txn.delete(oid)
        txn.commit()
        primary.store.compact()
        with pytest.raises(DivergedError):
            client.pull_once()
        assert applier.resyncs == 1
        assert rdb.store.commit_lsn == BASE_LSN
        assert rdb.query("select count(e) from e in Entry") == [0]
        client.catch_up()
        assert rdb.store.fingerprint() == primary.store.fingerprint()
        assert rdb.query('select e.value from e in Entry where e.key = "b"') == [2]

    def test_background_loop_follows_commits(self, primary, shipper, replica):
        rdb, applier, client = replica
        client.poll_wait_s = 0.5
        client.start()
        try:
            write_entry(primary, "live", 7)
            target = primary.store.commit_lsn
            deadline = threading.Event()
            for _ in range(200):
                if applier.applied_lsn >= target:
                    break
                deadline.wait(0.05)
            assert applier.applied_lsn == target
            assert rdb.query(
                'select e.value from e in Entry where e.key = "live"'
            ) == [7]
        finally:
            client.stop()
