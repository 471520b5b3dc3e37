"""Log-shipping replication: primary shipper and replicas.

Physical replication for Prometheus: the primary serves raw byte ranges
of its record log (``stream``), and replicas splice them in through the
recovery path and refresh their object layer incrementally
(``replica``).  Over HTTP a replica pulls through
:class:`~repro.engine.federation.RemoteDatabase`, and
:meth:`~repro.engine.federation.Federation.query_all_reads` routes reads
to replicas under a staleness bound.  LSNs are byte offsets; equality of
LSN implies byte identity of state — the invariant every test in
``tests/replication/`` leans on.
"""

from .replica import ReplicaApplier, ReplicationClient, RWLock
from .stream import (
    BASE_LSN,
    DEFAULT_MAX_BYTES,
    FRAME_MAGIC,
    FRAME_VERSION,
    PREFIX_CRC_WINDOW,
    LogShipper,
    ReplicaPullState,
    decode_frame,
    encode_frame,
)

__all__ = [
    "BASE_LSN",
    "DEFAULT_MAX_BYTES",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "PREFIX_CRC_WINDOW",
    "LogShipper",
    "ReplicaApplier",
    "ReplicaPullState",
    "ReplicationClient",
    "RWLock",
    "decode_frame",
    "encode_frame",
]
