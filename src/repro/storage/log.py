"""Append-only record log with checksums and crash-safe recovery.

The log is the single file behind a Prometheus database.  It is a sequence
of *entries*; each entry is::

    magic(2) | kind(1) | payload_len(varint-free u32) | payload | crc32(4)

``kind`` distinguishes data entries (an object state), tombstones (object
deletion), commit markers (transaction boundary) and metadata entries.
Readers stop at the first structurally invalid entry, which makes a torn
final write (process killed mid-append) recoverable: everything after the
last commit marker is ignored by the transactional layer above.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterator

from ..errors import CorruptRecordError, StorageError
from .faults import FaultPlan, FaultyFile, InjectedFault

MAGIC = b"\xA5\x5A"
HEADER = b"PROMETHEUS-LOG-v1\n"

KIND_DATA = 1       # payload: serialized object record
KIND_TOMBSTONE = 2  # payload: 8-byte big-endian OID
KIND_COMMIT = 3     # payload: 8-byte big-endian transaction id
KIND_META = 4       # payload: serialized metadata record

_LEN_STRUCT = struct.Struct(">I")
_CRC_STRUCT = struct.Struct(">I")
_OID_STRUCT = struct.Struct(">Q")

_ENTRY_OVERHEAD = 2 + 1 + 4 + 4  # magic + kind + len + crc


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One decoded log entry with its file position."""

    offset: int
    kind: int
    payload: bytes

    @property
    def end_offset(self) -> int:
        return self.offset + _ENTRY_OVERHEAD + len(self.payload)


class RecordLog:
    """Append-only entry log over a single file.

    The log keeps its file handle open in ``a+b`` mode; appends always go
    to the end, reads seek freely.  ``sync=True`` fsyncs after every flush
    (slow, durable); the default relies on OS buffering, which is the
    right trade-off for benchmarking a layered design rather than disks.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        sync: bool = False,
        faults: FaultPlan | None = None,
    ) -> None:
        self._path = os.fspath(path)
        self._sync = sync
        # Always-on plain-int op counters (scraped by the telemetry
        # layer's storage collector; never read on the hot path).
        self.appends = 0
        self.flushes = 0
        self.fsyncs = 0
        size = os.path.getsize(self._path) if os.path.exists(self._path) else 0
        raw: BinaryIO = open(self._path, "a+b")
        self._file: BinaryIO = FaultyFile(raw, faults) if faults is not None else raw
        if size >= len(HEADER):
            self._check_header()
        else:
            # Empty file, or a header torn by a crash during creation:
            # a strict prefix of HEADER is unambiguously ours to finish.
            self._file.seek(0)
            head = self._file.read(size)
            if head != HEADER[:size]:
                self._file.close()
                raise StorageError(f"{self._path}: not a Prometheus log file")
            if size:
                self._file.truncate(0)
            self._file.write(HEADER)
            self._file.flush()
        self._file.seek(0, io.SEEK_END)
        self._end = self._file.tell()
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            try:
                self._file.flush()
            except (OSError, InjectedFault):
                pass  # release the descriptor even when the disk is gone
            finally:
                self._file.close()
                self._closed = True

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def path(self) -> str:
        return self._path

    @property
    def size(self) -> int:
        """Current end offset (bytes) of valid data."""
        return self._end

    def _check_header(self) -> None:
        self._file.seek(0)
        head = self._file.read(len(HEADER))
        if head != HEADER:
            raise StorageError(f"{self._path}: not a Prometheus log file")

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("log is closed")

    # -- writing ------------------------------------------------------------

    def append(self, kind: int, payload: bytes) -> int:
        """Append one entry; return its offset.  Not yet flushed.

        Exception-safe: if the write fails partway (disk full, I/O
        error), the torn tail is truncated away and ``_end`` is left
        unchanged, so one failed append can never poison the log — the
        next append lands exactly where this one should have.
        """
        self._require_open()
        entry = bytearray()
        entry += MAGIC
        entry.append(kind)
        entry += _LEN_STRUCT.pack(len(payload))
        entry += payload
        entry += _CRC_STRUCT.pack(zlib.crc32(payload))
        offset = self._end
        try:
            self._file.seek(0, io.SEEK_END)
            self._file.write(entry)
        except InjectedFault:
            raise  # simulated process death: no in-process repair runs
        except Exception:
            self._rollback_tail(offset)
            raise
        self._end += len(entry)
        self.appends += 1
        return offset

    def _rollback_tail(self, offset: int) -> None:
        """Best-effort removal of a torn partial write after ``offset``."""
        try:
            self._file.flush()
        except OSError:
            pass
        try:
            self._file.truncate(offset)
        except OSError:
            pass

    def append_data(self, payload: bytes) -> int:
        return self.append(KIND_DATA, payload)

    def append_tombstone(self, oid: int) -> int:
        return self.append(KIND_TOMBSTONE, _OID_STRUCT.pack(oid))

    def append_commit(self, txn_id: int) -> int:
        offset = self.append(KIND_COMMIT, _OID_STRUCT.pack(txn_id))
        self.flush()
        return offset

    def append_meta(self, payload: bytes) -> int:
        return self.append(KIND_META, payload)

    @property
    def sync(self) -> bool:
        return self._sync

    def flush(self, fsync: bool | None = None) -> None:
        """Flush buffered bytes to the OS; fsync per the log's ``sync``
        setting unless ``fsync`` overrides it (the group-commit path
        flushes with ``fsync=False`` and batches the fsync later)."""
        self._require_open()
        self._file.flush()
        self.flushes += 1
        if self._sync if fsync is None else fsync:
            self._fsync()

    def fsync_now(self) -> None:
        """Force one fsync (the group-commit leader's shared barrier)."""
        self._require_open()
        self._fsync()

    def _fsync(self) -> None:
        fsync = getattr(self._file, "fsync", None)
        if fsync is not None:  # FaultyFile provides an interceptable fsync
            fsync()
        else:
            os.fsync(self._file.fileno())
        self.fsyncs += 1

    def append_raw(self, data: bytes) -> int:
        """Append pre-framed entry bytes verbatim; return the new end offset.

        This is the replication apply path: a replica receives a byte
        range copied straight out of the primary's log and splices it
        onto its own tail, keeping the two files byte-identical.  The
        caller is responsible for validating the spliced region (via
        :meth:`scan` / :meth:`scan_salvage`); a torn shipment is healed
        exactly like a torn local append — truncated at recovery time.
        Exception-safe the same way :meth:`append` is.
        """
        self._require_open()
        offset = self._end
        try:
            self._file.seek(0, io.SEEK_END)
            self._file.write(data)
            self._file.flush()
            self.flushes += 1
        except InjectedFault:
            raise  # simulated process death: no in-process repair runs
        except Exception:
            self._rollback_tail(offset)
            raise
        self._end += len(data)
        self.appends += 1
        if self._sync:
            self._fsync()
        return self._end

    def truncate(self, offset: int) -> None:
        """Discard everything after ``offset`` (recovery from a corrupt
        tail: appends must land directly after the last valid entry, or
        they would be unreachable to future scans)."""
        self._require_open()
        if offset < len(HEADER) or offset > self._end:
            raise StorageError(f"cannot truncate to offset {offset}")
        self._file.flush()
        self._file.truncate(offset)
        self._end = offset

    # -- reading ------------------------------------------------------------

    def read_entry(self, offset: int) -> LogEntry:
        """Read and validate the entry starting at ``offset``."""
        self._require_open()
        if offset < len(HEADER) or offset >= self._end:
            raise CorruptRecordError(f"offset {offset} outside log")
        self._file.seek(offset)
        head = self._file.read(7)
        if len(head) < 7 or head[:2] != MAGIC:
            raise CorruptRecordError(f"bad entry magic at offset {offset}")
        kind = head[2]
        (length,) = _LEN_STRUCT.unpack(head[3:7])
        payload = self._file.read(length)
        crc_raw = self._file.read(4)
        if len(payload) != length or len(crc_raw) != 4:
            raise CorruptRecordError(f"truncated entry at offset {offset}")
        (crc,) = _CRC_STRUCT.unpack(crc_raw)
        if crc != zlib.crc32(payload):
            raise CorruptRecordError(f"checksum mismatch at offset {offset}")
        return LogEntry(offset=offset, kind=kind, payload=payload)

    def entry_end(self, offset: int) -> int:
        """End offset of the entry starting at ``offset``, from its
        header alone (the payload is neither read nor checked);
        ``offset`` itself when no entry header starts there."""
        self._require_open()
        if offset < len(HEADER) or offset >= self._end:
            return offset
        self._file.seek(offset)
        head = self._file.read(7)
        if len(head) < 7 or head[:2] != MAGIC:
            return offset
        (length,) = _LEN_STRUCT.unpack(head[3:7])
        return offset + _ENTRY_OVERHEAD + length

    def scan(self, start: int | None = None) -> Iterator[LogEntry]:
        """Yield valid entries in order, stopping at the first corrupt one.

        This is the recovery path: a torn tail ends iteration silently;
        the caller truncates logical state at the last commit marker.
        """
        self._require_open()
        offset = len(HEADER) if start is None else start
        while offset < self._end:
            try:
                entry = self.read_entry(offset)
            except CorruptRecordError:
                return
            yield entry
            offset = entry.end_offset

    def scan_salvage(self, start: int | None = None) -> Iterator[LogEntry]:
        """Yield every structurally valid entry, resynchronising past
        corrupt regions instead of abandoning everything after them.

        On a corrupt entry the scan searches forward for the next
        occurrence of the entry magic at which a *complete, checksummed*
        entry parses, and resumes there.  Callers see skipped regions as
        discontinuities between one entry's ``end_offset`` and the next
        entry's ``offset``.  The CRC requirement makes false resyncs
        (magic bytes occurring inside a payload) vanishingly unlikely —
        a candidate must also parse and checksum as a full entry.
        """
        self._require_open()
        offset = len(HEADER) if start is None else start
        while offset < self._end:
            try:
                entry = self.read_entry(offset)
            except CorruptRecordError:
                resync = self._find_next_entry(offset + 1)
                if resync is None:
                    return
                offset = resync
                continue
            yield entry
            offset = entry.end_offset

    def _find_next_entry(self, start: int, chunk_size: int = 65536) -> int | None:
        """First offset >= ``start`` where a fully valid entry begins."""
        offset = max(start, len(HEADER))
        while offset < self._end:
            self._file.seek(offset)
            chunk = self._file.read(min(chunk_size, self._end - offset))
            if len(chunk) < len(MAGIC):
                return None
            index = chunk.find(MAGIC)
            while index != -1:
                candidate = offset + index
                try:
                    self.read_entry(candidate)
                except CorruptRecordError:
                    pass
                else:
                    return candidate
                index = chunk.find(MAGIC, index + 1)
            # Overlap by one byte so a MAGIC spanning two chunks is seen.
            offset += len(chunk) - (len(MAGIC) - 1)
        return None

    def read_bytes(self, start: int, end: int) -> bytes:
        """Raw byte range ``[start, end)`` of the log file.

        The replication shipper uses this to frame batches without
        re-encoding entries; ``end`` is clamped to the current end of
        valid data so a concurrent append can never yield a torn tail.
        """
        self._require_open()
        if start < 0 or start > self._end:
            raise StorageError(f"read_bytes start {start} outside log")
        end = min(end, self._end)
        if end <= start:
            return b""
        self._file.flush()
        self._file.seek(start)
        return self._file.read(end - start)

    @staticmethod
    def decode_oid_payload(payload: bytes) -> int:
        if len(payload) != 8:
            raise CorruptRecordError("bad OID payload length")
        return _OID_STRUCT.unpack(payload)[0]
