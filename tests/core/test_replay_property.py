"""Recovery and replication apply are one replayer: same bytes, same state.

A seeded log with committed, aborted and stamp entries is fed to a
read-only store through ``apply_replicated`` in random byte chunks —
chunks end mid-entry and mid-transaction — and must land on exactly the
state a one-shot reopen of the same bytes recovers.
"""

import random
import shutil

import pytest

from repro.storage.log import HEADER
from repro.storage.store import ObjectStore


def write_log(path, rng: random.Random) -> None:
    """Commits, aborts (dead weight, some of it trailing), overwrites,
    deletes, an epoch stamp and a shard-map stamp, in seeded order."""
    epoch = shard_epoch = 0
    with ObjectStore(path) as store:
        live: list[int] = []
        for step in range(rng.randint(25, 40)):
            roll = rng.random()
            if roll < 0.1:
                epoch += 1
                store.stamp_epoch(epoch)
                continue
            if roll < 0.2:
                shard_epoch += 1
                store.stamp_shard_map(shard_epoch, b'{"v": %d}' % shard_epoch)
                continue
            txn = store.begin()
            for _ in range(rng.randint(1, 6)):
                if live and rng.random() < 0.25:
                    txn.delete(live.pop(rng.randrange(len(live))))
                    continue
                oid = (
                    rng.choice(live)
                    if live and rng.random() < 0.3
                    else store.new_oid()
                )
                txn.write(oid, {"step": step, "pad": "x" * rng.randint(0, 80)})
                if oid not in live:
                    live.append(oid)
            if rng.random() < 0.25:
                txn.abort()
                live = [oid for oid in live if oid in store]
            else:
                txn.commit()
        # Trailing dead weight: entries after the last commit marker.
        txn = store.begin()
        txn.write(store.new_oid(), {"step": -1})
        txn.abort()


def state(store: ObjectStore) -> dict:
    return {
        "records": {oid: store.read(oid) for oid in sorted(store.oids())},
        "commit_lsn": store.commit_lsn,
        "position": store.replication_position,
        "cluster_epoch": store.cluster_epoch,
        "shard_map": (store.shard_map_epoch, store.shard_map_blob),
        "next_oid": store.new_oid(),
        "fingerprint": store.fingerprint(),
    }


@pytest.mark.parametrize("seed", range(8))
def test_chunked_apply_equals_one_shot_recovery(tmp_path, seed):
    rng = random.Random(seed)
    primary = tmp_path / "primary.plog"
    write_log(primary, rng)
    data = primary.read_bytes()

    reopened = tmp_path / "reopened.plog"
    shutil.copyfile(primary, reopened)
    with ObjectStore(reopened, read_only=True) as store:
        assert store.last_recovery.bytes_truncated == 0
        expected = state(store)
    assert expected["records"] and expected["cluster_epoch"] + expected["shard_map"][0]

    with ObjectStore(tmp_path / "replica.plog", read_only=True) as replica:
        size = 1
        while replica.replication_position < len(data):
            start = replica.replication_position
            replica.apply_replicated(data[start:start + size])
            # A chunk that ends mid-entry is cut back to the last whole
            # entry and pulled again, as the replication client does; one
            # shorter than the next entry makes no progress, so grow it.
            progressed = replica.replication_position > start
            size = rng.randint(1, 300) if progressed else size * 2
        assert replica.replication_position == len(data) > len(HEADER)
        assert state(replica) == expected
