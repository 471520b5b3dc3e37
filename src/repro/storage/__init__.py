"""Persistent storage substrate for Prometheus.

This package provides the log-structured, transactional object store that
the Prometheus model layers sit on.  It plays the role that the commercial
POET OODBMS played in the thesis: the "raw storage" baseline that the
performance evaluation (chapter 7.2) compares the extended model against.

Public API:

* :class:`ObjectStore` — OID-addressed record store with transactions.
* :class:`Transaction` — handle returned by :meth:`ObjectStore.begin`.
* :func:`encode_record` / :func:`decode_record` — record serialization,
  in the one value codec (:mod:`repro.storage.serialization`) that REPB
  frames (:mod:`repro.engine.wire`) also carry.
* :class:`RecordLog` — the underlying append-only checksummed log.
* :class:`LruCache` — bounded record cache.
* :class:`FaultPlan` / :class:`FaultyFile` — deterministic fault injection.
* :class:`RecoveryReport` — what recovery scanned, salvaged, truncated.
"""

from .cache import LruCache
from .faults import (
    FaultPlan,
    FaultyFile,
    InjectedCrash,
    InjectedFault,
    sweep_points,
)
from .log import LogEntry, RecordLog
from .serialization import decode_record, encode_record
from .store import (
    AppliedBatch,
    ObjectStore,
    RecoveryReport,
    StoreStats,
    Transaction,
)

__all__ = [
    "AppliedBatch",
    "FaultPlan",
    "FaultyFile",
    "InjectedCrash",
    "InjectedFault",
    "LogEntry",
    "LruCache",
    "ObjectStore",
    "RecordLog",
    "RecoveryReport",
    "StoreStats",
    "Transaction",
    "decode_record",
    "encode_record",
    "sweep_points",
]
