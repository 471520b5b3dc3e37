"""Exception hierarchy for the Prometheus database.

Every error raised by the library derives from :class:`PrometheusError`, so
applications can catch a single base class.  The hierarchy mirrors the layers
of the system (storage, model, relationship semantics, query, rules).
"""

from __future__ import annotations


class PrometheusError(Exception):
    """Base class of all errors raised by the library."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------

class StorageError(PrometheusError):
    """Base class for persistent-store failures."""


class CorruptRecordError(StorageError):
    """A log record failed its checksum or structural validation."""


class UnknownOidError(StorageError, KeyError):
    """An OID was requested that the store has never seen (or was deleted)."""

    def __init__(self, oid: int) -> None:
        super().__init__(f"unknown oid: {oid}")
        self.oid = oid

    def __str__(self) -> str:  # not KeyError's quoted repr
        return self.args[0]


class TransactionError(StorageError):
    """Illegal transaction state transition (e.g. commit after abort)."""


class ConflictError(TransactionError):
    """First-committer-wins validation failed: another transaction
    committed one of this transaction's written objects first.

    The transaction has been rolled back; the operation is safe to
    retry from ``begin()``.  ``oids`` lists the conflicting objects.
    """

    def __init__(self, oids: "list[int] | tuple[int, ...]" = ()) -> None:
        self.oids = tuple(sorted(oids))
        listing = ", ".join(str(oid) for oid in self.oids) or "?"
        super().__init__(
            f"write conflict on oid(s) {listing}: another transaction "
            "committed first; begin a new transaction and retry"
        )


class SessionError(PrometheusError):
    """Session-layer failure (unknown/expired token, session limit)."""


class NodeDemotedError(SessionError):
    """This node was demoted to replica while the session was open.

    The session's transaction has been aborted by the demotion; the
    client should reconnect to the current primary (``primary_url`` when
    known) and retry from ``begin()``.  ``epoch`` is the cluster epoch
    of the promotion that deposed this node.
    """

    def __init__(
        self,
        message: str,
        epoch: int = 0,
        primary_url: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.primary_url = primary_url


class SerializationError(StorageError):
    """A value cannot be encoded to, or decoded from, the record format."""


class RecoveryError(StorageError):
    """Log replay could not reconstruct a consistent store state."""


class CompactionError(StorageError):
    """Log compaction failed; the previous log remains authoritative."""


# ---------------------------------------------------------------------------
# Object model layer
# ---------------------------------------------------------------------------

class ModelError(PrometheusError):
    """Base class for schema/metaobject errors."""


class SchemaError(ModelError):
    """Invalid schema definition (duplicate class, bad inheritance, ...)."""


class TypeCheckError(ModelError):
    """A value does not conform to the declared attribute type."""


class AttributeUnknownError(ModelError, AttributeError):
    """Access to an attribute that the class does not declare."""

    def __init__(self, class_name: str, attr: str) -> None:
        super().__init__(f"class {class_name!r} has no attribute {attr!r}")
        self.class_name = class_name
        self.attr = attr


class InstanceDeletedError(ModelError):
    """Operation on an object that has been deleted."""


# ---------------------------------------------------------------------------
# Relationship layer
# ---------------------------------------------------------------------------

class RelationshipError(ModelError):
    """Base class for relationship definition/instantiation errors."""


class SemanticsError(RelationshipError):
    """Invalid combination of built-in relationship behaviours (Table 3)."""


class CardinalityError(RelationshipError):
    """A relationship instance would violate declared cardinalities."""


class ExclusivityError(RelationshipError):
    """A part would acquire two owners through an exclusive aggregation."""


class ConstancyError(RelationshipError):
    """Attempt to modify a relationship declared constant (unchangeable)."""


# ---------------------------------------------------------------------------
# Classification layer
# ---------------------------------------------------------------------------

class ClassificationError(PrometheusError):
    """Invalid classification operation (cycle, wrong context, ...)."""


# ---------------------------------------------------------------------------
# Replication
# ---------------------------------------------------------------------------

class ReplicationError(PrometheusError):
    """Log shipping failed (bad frame, protocol error, dead stream)."""


class DivergedError(ReplicationError):
    """The replica's log is not a prefix of the primary's (e.g. the
    primary compacted); the replica must reset and re-sync from empty."""


class StalePrimaryError(ReplicationError):
    """The peer (or this node) belongs to a superseded cluster epoch.

    Raised when a pull or write hits a node that has been fenced off by
    a newer promotion — the caller should rediscover the current primary
    and retry.  ``epoch`` carries the highest cluster epoch the refusing
    side knows; ``primary_url`` (when known) points at the successor.
    """

    def __init__(
        self,
        message: str,
        epoch: int = 0,
        primary_url: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.primary_url = primary_url


# ---------------------------------------------------------------------------
# Wire protocol (REPB)
# ---------------------------------------------------------------------------

class WireError(PrometheusError):
    """A REPB frame failed structural validation (truncated, oversized,
    checksum mismatch, bad magic/version, or an unencodable value)."""


# ---------------------------------------------------------------------------
# Taxonomy substrate
# ---------------------------------------------------------------------------

class TaxonomyError(PrometheusError):
    """Base class for taxonomic-model violations."""


class RankOrderError(TaxonomyError):
    """A placement violates the ICBN rank ordering."""


class NomenclatureError(TaxonomyError):
    """A name violates the ICBN formation rules (ending, capitalisation)."""


class TypificationError(TaxonomyError):
    """Illegal type designation (e.g. two holotypes for one name)."""


class DerivationError(TaxonomyError):
    """Automatic name derivation could not complete."""


# ---------------------------------------------------------------------------
# Query language (POOL)
# ---------------------------------------------------------------------------

class QueryError(PrometheusError):
    """Base class for POOL errors."""


class LexError(QueryError):
    """Invalid character or token in the query text."""

    def __init__(self, message: str, position: int, line: int = 1) -> None:
        super().__init__(f"{message} (line {line}, pos {position})")
        self.position = position
        self.line = line


class ParseError(QueryError):
    """Query text does not conform to the POOL grammar."""


class EvaluationError(QueryError):
    """Runtime failure while evaluating a query."""


class SnapshotError(QueryError):
    """A time-travel LSN is outside the retained history window.

    Raised when ``as_of`` is ahead of the node's commit head (not yet
    replicated/committed here) or below the MVCC GC floor (versions
    already reclaimed), or when snapshots are requested with MVCC off.
    """


# ---------------------------------------------------------------------------
# Rules / constraints
# ---------------------------------------------------------------------------

class RuleError(PrometheusError):
    """Base class for rule-engine errors."""


class ConstraintViolation(RuleError):
    """A constraint's condition evaluated false; carries the failing rule."""

    def __init__(self, rule_name: str, message: str = "") -> None:
        text = f"constraint {rule_name!r} violated"
        if message:
            text += f": {message}"
        super().__init__(text)
        self.rule_name = rule_name

class RuleCascadeError(RuleError):
    """Rule execution exceeded the cascade (recursion) limit."""


class PCLError(RuleError):
    """PCL text could not be parsed or translated."""
