"""Horizontal sharding: partition the flora across nodes by taxon-subtree
ranges and run POOL queries scatter-gather across the shards.

The package splits into five modules:

- :mod:`repro.sharding.shardmap` — the versioned shard map: half-open
  key ranges over the rank/classification-path attribute, plus a
  deterministic hash fallback for unclassified objects.  Persisted as a
  ``KIND_META`` entry so replicas learn the topology from the log.
- :mod:`repro.sharding.router` — the OID → shard routing table the
  coordinator maintains as objects are created and rebalanced.
- :mod:`repro.sharding.planner` — classifies a parsed POOL query into a
  distributed physical plan: ``scatter`` (push the scan to every
  relevant shard, merge centrally), ``scatter_count`` (push ``count``
  and sum), or ``gather`` (ship the records the query can reach — named
  extents, the first binding filtered shard-side, traversed edges in
  depth-bounded rounds — into a coordinator-side view and run the
  retained naive evaluator over it: the fallback that keeps every
  construct correct).
- :mod:`repro.sharding.coordinator` — executes those plans through
  federation's breakers, one in-process shard after another on the
  caller's thread, owns the global OID allocator (so topologies are
  byte-comparable), applies direct writes and session ops through one
  op applier (a session runs it inside every shard's undo journal, so a
  refused session leaves nothing), and moves objects between shards
  as stored records (``move_object``, the one mover).
- :mod:`repro.sharding.rebalance` — moves a key range between shards
  through ``move_object``, bumping the shard-map epoch so response
  caches can never serve a pre-move body.
"""

from .shardmap import ShardMap, ShardMapError, ShardRange
from .router import OidRouter
from .planner import DistributedPlan, DistributedPlanner
from .coordinator import (
    LocalShardClient,
    ShardedDatabase,
    ShardedSession,
    ShardExecutionError,
    ShardingError,
)
from .rebalance import ExtentRebalancer, RebalanceReport

__all__ = [
    "DistributedPlan",
    "DistributedPlanner",
    "ExtentRebalancer",
    "LocalShardClient",
    "OidRouter",
    "RebalanceReport",
    "ShardExecutionError",
    "ShardMap",
    "ShardMapError",
    "ShardRange",
    "ShardedDatabase",
    "ShardedSession",
    "ShardingError",
]
