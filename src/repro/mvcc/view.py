"""Point-in-time schema views: the object layer as of one LSN.

A :class:`SnapshotSchema` materializes every record visible at a
snapshot LSN into live handles — its own object table, extents,
relationship indexes, synonym registry and metadata extras — while
sharing the (static) class registry with the live schema.  It exposes
the read surface the query evaluator, planner operators, adjacency
cache and :class:`~repro.classification.ClassificationManager` consume,
so ``db.query(..., as_of=lsn)`` and time-travel classifications run the
ordinary machinery against historical state with no special cases.

Construction installs the given records once (for ``as_of`` reads, one
lock-free walk of the chains, see :mod:`repro.mvcc.chains`); after that
the view is immutable and safe to share across threads and cache across
queries.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..core.schema import Journal, ObjectTable, Schema
from ..core.types import RefType
from ..errors import SchemaError


def record_values(schema: Any, record: dict[str, Any]) -> dict[str, Any]:
    """Decode a storage record's values the way ``PObject.to_dict`` would.

    References stay raw (OIDs), matching the live object layer, so a
    transaction overlay merges identically over a chain-resolved base
    and a live one.
    """
    pclass = schema.get_class(record["class"])
    values: dict[str, Any] = {}
    stored = record.get("values", {})
    for name, attr in pclass.all_attributes().items():
        raw = stored.get(name)
        if isinstance(attr.type_spec, RefType):
            values[name] = raw
        else:
            values[name] = attr.type_spec.from_storable(raw, schema)
    return values


class SnapshotSchema(ObjectTable):
    """Read-only object layer reconstructed at one snapshot LSN.

    An :class:`~repro.core.schema.ObjectTable` filled through the same
    ``install`` the live schema boots with, sharing the live schema's
    (static) class registry — so, like the boot, it refuses a record
    whose class is not registered (:class:`~repro.errors.SchemaError`).
    Mutation entry points are deliberately absent: time travel is
    read-only.
    """

    def __init__(
        self,
        live: Schema,
        records: Iterable[tuple[int, dict[str, Any]]],
        lsn: int,
    ) -> None:
        super().__init__(f"{live.name}@{lsn}", classes_of=live)
        self.as_of = lsn
        self.store = None
        #: Plan-cache stamp component: distinct from every live integer
        #: ``Schema.version`` and from every other snapshot's stamp.
        self.version = ("as_of", lsn, live.version)
        self.install_all(records)

    # -- read-only guards ----------------------------------------------------

    @property
    def journal(self) -> Journal:
        """Every assignment reads the journal first: refuse it here."""
        raise SchemaError(
            f"snapshot view {self.name} is read-only; "
            "mutate through the live schema"
        )
