"""Log-shipping wire format and the primary-side shipper.

Replication in Prometheus is *physical*: the unit shipped is a raw byte
range of the primary's :class:`~repro.storage.log.RecordLog`, so a
replica's log file is always a byte-identical prefix of the primary's.
An LSN is therefore just a byte offset, and "two nodes are at the same
LSN" literally means their files hash identically up to it — the
property the crash-recovery sweep asserts.

Frame format (all integers big-endian)::

    magic(4 = b"PLSB") | version(1) | from_lsn(8) | to_lsn(8) |
    epoch(8) | crc32(payload)(4) | payload

Version 2 added the cluster ``epoch`` field: every frame carries the
shipping primary's epoch, and a replica that has witnessed a newer
promotion refuses frames from the old epoch (fencing — see
``docs/HA.md``).  Version-1 frames (no epoch field) still decode, with
``epoch`` reported as 0, so a v1 primary can feed a v2 replica.

The payload is the log bytes ``[from_lsn, to_lsn)`` where ``to_lsn`` is
a commit-marker boundary on the primary: every batch ends at a
transaction boundary, so a replica that applied a whole frame is at a
consistent state.  Entries of *aborted* transactions that precede the
next commit marker ride along inside later frames (they are dead weight
on the primary and stay dead weight on the replica — byte identity is
preserved, and the apply path ignores uncommitted entries exactly like
recovery does).  ``max_bytes`` limits how many entries one frame
batches, never a single entry: a frame always carries at least the
whole entry at ``from_lsn``, however long.

Divergence: a replica proves its log is still a prefix of the primary's
by sending the CRC of its last ``PREFIX_CRC_WINDOW`` bytes with every
pull.  After the primary compacts (offsets change wholesale) the check
fails, the shipper answers "diverged", and the replica resets to empty
and re-syncs from scratch.
"""

from __future__ import annotations

import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import ReplicationError
from ..storage.log import HEADER
from ..telemetry import DISABLED, Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.store import ObjectStore

FRAME_MAGIC = b"PLSB"
FRAME_VERSION = 2
_FRAME_HEAD = struct.Struct(">4sBQQQI")  # magic, version, from, to, epoch, crc
_FRAME_HEAD_V1 = struct.Struct(">4sBQQI")  # magic, version, from, to, crc

#: Bytes of trailing log context hashed into the pull-time prefix check.
PREFIX_CRC_WINDOW = 64

#: Smallest LSN: the log's fixed file header (identical on every node).
BASE_LSN = len(HEADER)

#: Default ceiling on one frame's payload.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024


def encode_frame(
    from_lsn: int, to_lsn: int, payload: bytes, epoch: int = 0
) -> bytes:
    return (
        _FRAME_HEAD.pack(
            FRAME_MAGIC,
            FRAME_VERSION,
            from_lsn,
            to_lsn,
            epoch,
            zlib.crc32(payload),
        )
        + payload
    )


def decode_frame(data: bytes) -> tuple[int, int, bytes, int]:
    """Validate and unpack one frame; returns
    ``(from_lsn, to_lsn, payload, epoch)``.

    Raises :class:`~repro.errors.ReplicationError` on any structural
    problem — a torn frame (network cut, fault injection) never reaches
    the apply path.  Version-1 frames decode with ``epoch = 0``.
    """
    if len(data) < _FRAME_HEAD_V1.size:
        raise ReplicationError(
            f"short frame: {len(data)} < {_FRAME_HEAD_V1.size} header bytes"
        )
    version = data[len(FRAME_MAGIC)]
    if version == 1:
        magic, version, from_lsn, to_lsn, crc = _FRAME_HEAD_V1.unpack(
            data[: _FRAME_HEAD_V1.size]
        )
        epoch = 0
        head_size = _FRAME_HEAD_V1.size
    elif version == FRAME_VERSION:
        if len(data) < _FRAME_HEAD.size:
            raise ReplicationError(
                f"short frame: {len(data)} < {_FRAME_HEAD.size} header bytes"
            )
        magic, version, from_lsn, to_lsn, epoch, crc = _FRAME_HEAD.unpack(
            data[: _FRAME_HEAD.size]
        )
        head_size = _FRAME_HEAD.size
    else:
        if data[:len(FRAME_MAGIC)] != FRAME_MAGIC:
            raise ReplicationError(
                f"bad frame magic {data[:len(FRAME_MAGIC)]!r}"
            )
        raise ReplicationError(f"unsupported frame version {version}")
    if magic != FRAME_MAGIC:
        raise ReplicationError(f"bad frame magic {magic!r}")
    payload = data[head_size:]
    if len(payload) != to_lsn - from_lsn:
        raise ReplicationError(
            f"frame length mismatch: payload {len(payload)} bytes for "
            f"range [{from_lsn}, {to_lsn})"
        )
    if zlib.crc32(payload) != crc:
        raise ReplicationError("frame checksum mismatch (torn shipment)")
    return from_lsn, to_lsn, payload, epoch


@dataclass
class ReplicaPullState:
    """What the primary knows about one replica, from its pulls."""

    name: str
    acked_lsn: int = 0  # from_lsn of the latest pull == bytes it holds
    pulls: int = 0
    bytes_shipped: int = 0
    last_pull_at: float = 0.0
    diverged: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "acked_lsn": self.acked_lsn,
            "pulls": self.pulls,
            "bytes_shipped": self.bytes_shipped,
            "last_pull_age_s": (
                round(time.monotonic() - self.last_pull_at, 3)
                if self.last_pull_at
                else None
            ),
            "diverged": self.diverged,
        }


class LogShipper:
    """Primary-side pull server: frames log ranges for replicas.

    One shipper serves every replica; it keeps no per-replica cursors of
    its own (the replica's ``from_lsn`` *is* the cursor), only optional
    bookkeeping for ``/health`` and the lag gauge.  ``pull`` long-polls:
    a caught-up replica parks in :meth:`ObjectStore.wait_for_commit_lsn`
    until the next commit or the wait budget expires.
    """

    def __init__(
        self,
        store: "ObjectStore",
        telemetry: Telemetry | None = None,
        max_wait_s: float = 25.0,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.store = store
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self.max_wait_s = max_wait_s
        self.max_bytes = max_bytes
        self._lock = threading.Condition()
        self._replicas: dict[str, ReplicaPullState] = {}

    @property
    def epoch(self) -> int:
        """The cluster epoch this shipper stamps into every frame."""
        return self.store.cluster_epoch

    # -- replica bookkeeping (for /health and the lag gauge) --------------

    def replicas(self) -> dict[str, ReplicaPullState]:
        with self._lock:
            return dict(self._replicas)

    def _note_pull(
        self, replica: str, from_lsn: int, shipped: int, diverged: bool
    ) -> None:
        if not replica:
            return
        with self._lock:
            state = self._replicas.get(replica)
            if state is None:
                state = self._replicas[replica] = ReplicaPullState(replica)
            # Plain assignment, not max(): a post-compaction re-sync
            # legitimately rewinds the replica's cursor to zero.
            state.acked_lsn = from_lsn
            state.pulls += 1
            state.bytes_shipped += shipped
            state.last_pull_at = time.monotonic()
            if diverged:
                state.diverged += 1
            self._lock.notify_all()

    def _note_ack(self, replica: str, from_lsn: int) -> None:
        """Record the pull cursor as an ack without counting a pull.

        The cursor is an acknowledgement the moment the request
        *arrives*: the replica holds every byte below ``from_lsn``
        whatever this pull ends up returning.  Noting it on entry —
        before any long-poll park — is what lets a semi-synchronous
        commit see the ack now rather than when the empty poll times
        out.
        """
        if not replica:
            return
        with self._lock:
            state = self._replicas.get(replica)
            if state is None:
                state = self._replicas[replica] = ReplicaPullState(replica)
            state.acked_lsn = from_lsn
            self._lock.notify_all()

    def replicated_count(self, lsn: int) -> int:
        """How many replicas have pulled up to (at least) ``lsn``.

        A replica's ``acked_lsn`` is the ``from_lsn`` of its latest
        pull — bytes it already holds — so ``acked_lsn >= lsn`` means
        the range up to ``lsn`` has been shipped and applied there.
        """
        with self._lock:
            return sum(
                1
                for state in self._replicas.values()
                if state.acked_lsn >= lsn
            )

    def wait_replicated(
        self, lsn: int, min_acks: int = 1, timeout_s: float = 5.0
    ) -> bool:
        """Block until ``min_acks`` replicas hold the log up to ``lsn``.

        Semi-synchronous acknowledgement: a replica implicitly acks the
        bytes below its pull cursor, so this parks on the pull-notify
        condition until enough cursors pass ``lsn`` or the budget runs
        out.  Returns ``True`` when the quorum was reached.
        """
        deadline = time.monotonic() + timeout_s
        with self._lock:
            while True:
                acks = sum(
                    1
                    for state in self._replicas.values()
                    if state.acked_lsn >= lsn
                )
                if acks >= min_acks:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._lock.wait(remaining)

    def lag_bytes(self) -> dict[str, int]:
        """Per-replica replication lag: commit LSN minus acked bytes."""
        commit_lsn = self.store.commit_lsn
        with self._lock:
            return {
                name: max(0, commit_lsn - state.acked_lsn)
                for name, state in self._replicas.items()
            }

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Register the scrape-time lag collector (free on the hot path)."""
        self.telemetry = telemetry
        telemetry.registry.add_collector(self._collect)

    def _collect(self, registry: Any) -> None:
        for name, lag in sorted(self.lag_bytes().items()):
            registry.gauge(
                "repro_replication_lag_bytes",
                {"replica": name},
                help="Primary commit LSN minus the replica's acked LSN",
            ).set(lag)

    # -- the pull protocol -------------------------------------------------

    def prefix_crc(self, upto_lsn: int) -> int:
        """CRC of the last ``PREFIX_CRC_WINDOW`` log bytes before ``upto_lsn``."""
        window_start = max(BASE_LSN, upto_lsn - PREFIX_CRC_WINDOW)
        return zlib.crc32(self.store.read_log_bytes(window_start, upto_lsn))

    def pull(
        self,
        from_lsn: int,
        prefix_crc: int | None = None,
        wait_s: float = 0.0,
        max_bytes: int | None = None,
        replica: str = "",
        epoch: int | None = None,
    ) -> tuple[str, bytes | None]:
        """One pull request; returns ``(status, frame_or_None)``.

        Statuses: ``"frame"`` (new bytes, frame attached), ``"empty"``
        (caught up, wait budget spent), ``"diverged"`` (this log is not
        a superset-prefix of the replica's — reset and re-sync),
        ``"stale-primary"`` (the puller has witnessed a newer cluster
        epoch than this node's — this node is a deposed primary and must
        not ship; the caller should surface the fencing to an operator
        or the HA controller).
        """
        if epoch is not None and epoch > self.epoch:
            # Fencing: the replica knows a promotion this node missed.
            # Refusing the pull (rather than shipping from a stale
            # timeline) is what keeps a deposed primary harmless.
            self._count("repro_ha_fenced_pulls_total")
            return "stale-primary", None
        if from_lsn < BASE_LSN:
            from_lsn = BASE_LSN
        ceiling = min(max_bytes or self.max_bytes, self.max_bytes)
        store = self.store
        if from_lsn > store.replication_position:
            # The replica is ahead of this log: it replicated from a
            # longer incarnation (pre-compaction) — diverged.
            self._note_pull(replica, from_lsn, 0, diverged=True)
            self._diverged(replica, from_lsn, "replica-ahead")
            return "diverged", None
        if prefix_crc is not None and from_lsn > BASE_LSN:
            if self.prefix_crc(from_lsn) != prefix_crc:
                self._note_pull(replica, from_lsn, 0, diverged=True)
                self._diverged(replica, from_lsn, "prefix-crc-mismatch")
                return "diverged", None
        self._note_ack(replica, from_lsn)
        commit_lsn = store.commit_lsn
        if commit_lsn <= from_lsn and wait_s > 0:
            commit_lsn = store.wait_for_commit_lsn(
                from_lsn + 1, timeout=min(wait_s, self.max_wait_s)
            )
        if commit_lsn <= from_lsn:
            self._note_pull(replica, from_lsn, 0, diverged=False)
            return "empty", None
        # An entry longer than the ceiling ships whole, or no frame
        # could ever advance past it.
        to_lsn = min(
            commit_lsn, max(from_lsn + ceiling, store.entry_end(from_lsn))
        )
        payload = store.read_log_bytes(from_lsn, to_lsn)
        to_lsn = from_lsn + len(payload)
        frame = encode_frame(from_lsn, to_lsn, payload, epoch=self.epoch)
        self._note_pull(replica, from_lsn, len(payload), diverged=False)
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "repro_replication_batches_shipped_total",
                help="Framed log batches served to replicas",
            ).inc()
            tel.registry.counter(
                "repro_replication_bytes_shipped_total",
                help="Log payload bytes served to replicas",
            ).inc(len(payload))
        return "frame", frame

    def _count(self, name: str) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(name).inc()

    def _diverged(self, replica: str, from_lsn: int, reason: str) -> None:
        """Count + journal one divergence detection."""
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "repro_replication_divergences_total"
            ).inc()
            tel.events.record(
                "replication.diverged",
                epoch=self.epoch,
                lsn=from_lsn,
                replica=replica,
                reason=reason,
            )

    def status(self) -> dict[str, Any]:
        store = self.store
        return {
            "commit_lsn": store.commit_lsn,
            "durable_lsn": store.durable_lsn,
            "replication_position": store.replication_position,
            "epoch": self.epoch,
            "replicas": {
                name: state.as_dict()
                for name, state in sorted(self.replicas().items())
            },
            "lag_bytes": self.lag_bytes(),
        }
