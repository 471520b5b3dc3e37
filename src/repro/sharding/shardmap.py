"""The shard map: versioned key ranges over the shard-key attribute.

Objects are placed by the value of one string attribute (by convention
the taxon's ``rank`` or classification path — the paper's polyhierarchy
makes taxon subtrees the natural partitioning unit).  The keyspace is
covered by contiguous half-open string ranges ``[lo, hi)``; an object
whose key is missing (``None``) or non-string falls back to a
deterministic hash over its OID, so unclassified specimens still land
somewhere stable.

The map carries an ``epoch`` that rises monotonically on every split or
rebalance.  The epoch is stamped into each shard's log as a
``KIND_META`` entry (see :meth:`repro.storage.store.ObjectStore.
stamp_shard_map`) and participates in the HTTP response-cache stamp, so
a rebalance invalidates every pre-serialized body that could reflect
the old placement.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass


class ShardMapError(ValueError):
    """Raised for malformed or non-covering shard maps."""


@dataclass(frozen=True)
class ShardRange:
    """Half-open key range ``[lo, hi)`` owned by ``shard``.

    ``lo is None`` means unbounded below; ``hi is None`` unbounded
    above.  A single range ``(None, None)`` covers the whole keyspace.
    """

    shard: str
    lo: str | None
    hi: str | None

    def contains(self, key: str) -> bool:
        if self.lo is not None and key < self.lo:
            return False
        if self.hi is not None and key >= self.hi:
            return False
        return True

    def overlaps(self, lo: str | None, hi: str | None) -> bool:
        """Does this range intersect the half-open interval ``[lo, hi)``?"""
        if self.lo is not None and hi is not None and hi <= self.lo:
            return False
        if self.hi is not None and lo is not None and lo >= self.hi:
            return False
        return True


def _prefix_upper(prefix: str) -> str | None:
    """Smallest string greater than every string starting with ``prefix``.

    Returns None when no finite upper bound exists (prefix made solely
    of U+10FFFF code points).
    """
    chars = list(prefix)
    while chars:
        code = ord(chars[-1])
        if code < 0x10FFFF:
            chars[-1] = chr(code + 1)
            return "".join(chars)
        chars.pop()
    return None


class ShardMap:
    """Contiguous, fully-covering key ranges plus a hash fallback ring."""

    def __init__(
        self,
        key_attr: str,
        ranges: list[ShardRange] | tuple[ShardRange, ...],
        epoch: int = 1,
    ) -> None:
        ordered = tuple(ranges)
        if not ordered:
            raise ShardMapError("shard map needs at least one range")
        if ordered[0].lo is not None or ordered[-1].hi is not None:
            raise ShardMapError(
                "shard ranges must cover the whole keyspace "
                "(first lo and last hi must be unbounded)"
            )
        for left, right in zip(ordered, ordered[1:]):
            if left.hi is None or right.lo is None or left.hi != right.lo:
                raise ShardMapError(
                    f"shard ranges must be contiguous: "
                    f"{left.shard}[..{left.hi!r}) then "
                    f"{right.shard}[{right.lo!r}..)"
                )
            if left.hi is not None and left.lo is not None:
                if left.hi <= left.lo:
                    raise ShardMapError(
                        f"empty range for shard {left.shard!r}"
                    )
        self.key_attr = key_attr
        self.ranges = ordered
        self.epoch = int(epoch)
        # Deterministic fallback ring: every shard that owns a range,
        # in sorted-name order (stable across topology rebuilds).
        self.shards: tuple[str, ...] = tuple(
            sorted({r.shard for r in ordered})
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def single(cls, shard: str, key_attr: str = "rank") -> "ShardMap":
        """A one-shard map (the degenerate 1-shard topology)."""
        return cls(key_attr, [ShardRange(shard, None, None)])

    @classmethod
    def uniform(
        cls,
        shards: list[str] | tuple[str, ...],
        key_attr: str,
        split_points: list[str] | tuple[str, ...],
    ) -> "ShardMap":
        """N shards split at N-1 ascending key points."""
        if len(split_points) != len(shards) - 1:
            raise ShardMapError(
                f"{len(shards)} shards need {len(shards) - 1} split "
                f"points, got {len(split_points)}"
            )
        bounds: list[str | None] = [None, *split_points, None]
        ranges = [
            ShardRange(shard, bounds[i], bounds[i + 1])
            for i, shard in enumerate(shards)
        ]
        return cls(key_attr, ranges)

    # -- routing -------------------------------------------------------------

    def shard_for_key(self, key: str) -> str:
        for r in self.ranges:
            if r.contains(key):
                return r.shard
        raise ShardMapError(f"no range covers key {key!r}")  # unreachable

    def fallback_shard(self, oid: int) -> str:
        """Deterministic hash placement for unclassified objects."""
        digest = zlib.crc32(str(int(oid)).encode("ascii"))
        return self.shards[digest % len(self.shards)]

    def route(self, key: object, oid: int) -> str:
        """Place an object: range by string key, hash fallback otherwise."""
        if isinstance(key, str):
            return self.shard_for_key(key)
        return self.fallback_shard(oid)

    # -- pruning -------------------------------------------------------------

    def shards_for_equality(self, value: object) -> tuple[str, ...]:
        """Shards that can hold an object whose key equals ``value``.

        A non-string value (including None) means the object was hash
        placed, so every shard is a candidate.
        """
        if not isinstance(value, str):
            return self.shards
        hits = [r.shard for r in self.ranges if r.contains(value)]
        return tuple(dict.fromkeys(hits))

    def shards_for_prefix(self, prefix: str) -> tuple[str, ...]:
        """Shards whose range intersects keys starting with ``prefix``."""
        if not prefix:
            return self.shards
        upper = _prefix_upper(prefix)
        hits = [
            r.shard for r in self.ranges if r.overlaps(prefix, upper)
        ]
        return tuple(dict.fromkeys(hits))

    # -- evolution -----------------------------------------------------------

    def split(self, shard: str, point: str, new_shard: str) -> "ShardMap":
        """Split ``shard``'s range at ``point``; the upper half moves to
        ``new_shard``.  Returns a new map with epoch + 1."""
        out: list[ShardRange] = []
        found = False
        for r in self.ranges:
            if r.shard == shard and r.contains(point):
                if r.lo is not None and point <= r.lo:
                    raise ShardMapError(
                        f"split point {point!r} at or below range floor"
                    )
                out.append(ShardRange(shard, r.lo, point))
                out.append(ShardRange(new_shard, point, r.hi))
                found = True
            else:
                out.append(r)
        if not found:
            raise ShardMapError(
                f"shard {shard!r} has no range containing {point!r}"
            )
        return ShardMap(self.key_attr, out, epoch=self.epoch + 1)

    def reassign(
        self, lo: str | None, hi: str | None, new_shard: str
    ) -> "ShardMap":
        """Hand every range exactly matching ``[lo, hi)`` to ``new_shard``
        (a rebalance that moves a whole range).  Epoch + 1."""
        out = []
        found = False
        for r in self.ranges:
            if r.lo == lo and r.hi == hi:
                out.append(ShardRange(new_shard, lo, hi))
                found = True
            else:
                out.append(r)
        if not found:
            raise ShardMapError(f"no range [{lo!r}, {hi!r}) in map")
        return ShardMap(self.key_attr, out, epoch=self.epoch + 1)

    # -- serialization -------------------------------------------------------

    def to_blob(self) -> bytes:
        doc = {
            "epoch": self.epoch,
            "key_attr": self.key_attr,
            "ranges": [[r.shard, r.lo, r.hi] for r in self.ranges],
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @classmethod
    def from_blob(cls, blob: bytes) -> "ShardMap":
        try:
            doc = json.loads(blob.decode("utf-8"))
            ranges = [
                ShardRange(shard, lo, hi)
                for shard, lo, hi in doc["ranges"]
            ]
            return cls(doc["key_attr"], ranges, epoch=doc["epoch"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ShardMapError(f"bad shard-map blob: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        spans = ", ".join(
            f"{r.shard}[{r.lo!r}:{r.hi!r})" for r in self.ranges
        )
        return f"<ShardMap epoch={self.epoch} key={self.key_attr} {spans}>"
