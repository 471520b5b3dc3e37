"""Command-line shell for Prometheus databases.

Usage::

    python -m repro --db flora.plog --taxonomy           # interactive POOL
    python -m repro --db flora.plog -e "select count(s) from s in Specimen"
    python -m repro --db flora.plog --taxonomy --serve 8080

The shell speaks POOL plus a few dot-commands:

========================  =======================================
``.help``                 list commands
``.schema``               class inventory
``.class <Name>``         one class's attributes and relationships
``.classifications``      classification names and sizes
``.rules``                installed rules
``.indexes``              declared indexes
``.begin``                open a managed transaction (a real session)
``.commit`` / ``.abort``  transaction control; with an open ``.begin``
                          transaction these commit/abort *it* (a commit
                          lost to a concurrent writer reports the
                          conflict and suggests retrying), otherwise
                          they act on the implicit autocommit session
``.txn``                  show the open transaction's staged state
``.set <oid> <attr> <v>`` assign one attribute (staged when a ``.begin``
                          transaction is open, direct otherwise; the
                          value parses as JSON, falling back to string)
``.integrity``            run the deferred integrity checks
``.asof <lsn>`` / ``off`` time travel: evaluate subsequent POOL
                          queries at that commit LSN (MVCC snapshot);
                          ``.asof`` alone shows the current setting and
                          the retained LSN window
``.lsn``                  the newest queryable snapshot LSN
``.replicas``             replication topology: shipped replicas, or
                          this replica's apply status, or the status of
                          ``--replica NAME=URL`` remotes
``.lag``                  replication lag in bytes per replica
``.cluster``              scatter-gather cluster overview over the
                          ``--peer NAME=URL`` federation (role, epoch,
                          LSNs, lag, breaker, lease per endpoint);
                          ``.cluster metrics`` sums every peer's
                          counters instead
``.quit``                 leave
========================  =======================================

The ``--taxonomy`` flag registers the Prometheus taxonomic schema so an
existing taxonomic database file can be opened directly.

Replication: ``--replica-of URL`` opens the database read-only and
tails the primary at ``URL`` (log shipping); combined with ``--serve``
this node becomes a read replica.  ``--replica NAME=URL`` (repeatable)
points the shell/server at known read replicas for status display.

High availability: ``--ha`` arms a serving node with an
:class:`~repro.ha.node.HAController` (fenced promotion, the ``/ha/*``
API); ``--ha-supervisor --node NAME=URL ...`` runs the failover
coordinator instead of a shell — it probes liveness, renews the
primary's lease, and promotes the best replica when the primary dies.
See ``docs/HA.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO

from .classification import GraphView
from .core.instances import PObject
from .core.metamodel import describe_class
from .core.relationships import RelationshipInstance
from .concurrency import Session
from .engine import PrometheusDB
from .errors import ConflictError, PrometheusError


def format_value(value: object) -> str:
    """Render one query-result value for terminal output."""
    if isinstance(value, RelationshipInstance):
        return (
            f"<{value.pclass.name} #{value.oid} "
            f"{value.origin_oid}->{value.destination_oid}>"
        )
    if isinstance(value, PObject):
        head = ", ".join(
            f"{k}={v!r}"
            for k, v in list(value.attributes())[:4]
            if v is not None
        )
        return f"<{value.pclass.name} #{value.oid} {head}>"
    if isinstance(value, GraphView):
        return (
            f"<graph {value.name!r}: {value.node_count} nodes, "
            f"{value.edge_count} edges>"
        )
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{k}: {format_value(v)}" for k, v in value.items()
        ) + "}"
    return repr(value)


def format_result(result: object) -> str:
    if isinstance(result, list):
        if not result:
            return "(empty)"
        lines = [format_value(item) for item in result]
        lines.append(f"({len(result)} row{'s' if len(result) != 1 else ''})")
        return "\n".join(lines)
    return format_value(result)


class Shell:
    """Executes shell lines against one database."""

    def __init__(
        self,
        db: PrometheusDB,
        out: IO[str] = sys.stdout,
        shipper: object | None = None,
        replica_client: object | None = None,
        remotes: dict[str, object] | None = None,
        federation: object | None = None,
    ) -> None:
        self.db = db
        self.out = out
        self.running = True
        # Replication wiring for .replicas/.lag: a LogShipper when this
        # node ships, a ReplicationClient when it is a replica, and/or
        # named RemoteDatabase clients from --replica NAME=URL.
        self.shipper = shipper
        self.replica_client = replica_client
        self.remotes = remotes or {}
        # A Federation over --peer NAME=URL endpoints backs .cluster.
        self.federation = federation
        # Lazily-created session backing .begin/.commit/.abort — the
        # shell goes through the same session layer as HTTP clients.
        self._session: Session | None = None
        # Time-travel state: when set, POOL queries run at this LSN.
        self._as_of: int | None = None

    def emit(self, text: str) -> None:
        print(text, file=self.out)

    def execute(self, line: str) -> None:
        """Run one line: a dot-command or a POOL query."""
        line = line.strip()
        if not line or line.startswith("--"):
            return
        if line.startswith("."):
            self._command(line)
            return
        try:
            result = self.db.query(line, as_of=self._as_of)
        except PrometheusError as exc:
            self.emit(f"error: {exc}")
            return
        self.emit(format_result(result))

    # -- dot-commands ---------------------------------------------------

    def _command(self, line: str) -> None:
        parts = line.split()
        name, args = parts[0], parts[1:]
        handler = getattr(self, f"_cmd_{name[1:]}", None)
        if handler is None:
            self.emit(f"unknown command {name!r} (try .help)")
            return
        handler(args)

    def _cmd_help(self, args: list[str]) -> None:
        self.emit(
            "commands: .help .schema .class <Name> .classifications "
            ".rules .indexes .begin .commit .abort .txn .set .integrity "
            ".asof [<lsn>|off] .lsn .shardmap .replicas .lag "
            ".cluster [metrics] .quit\n"
            ".begin opens a managed transaction; .commit/.abort then "
            "apply to it\n"
            ".asof <lsn> time-travels subsequent queries; .asof off "
            "returns to live reads\n"
            "anything else is evaluated as a POOL query"
        )

    def _cmd_schema(self, args: list[str]) -> None:
        for pclass in sorted(self.db.schema.classes(), key=lambda c: c.name):
            kind = "relationship" if pclass.is_relationship_class else "class"
            count = self.db.schema.count(pclass.name, polymorphic=False)
            flags = " (abstract)" if pclass.abstract else ""
            self.emit(f"{kind:13s} {pclass.name}{flags}: {count} instances")

    def _cmd_class(self, args: list[str]) -> None:
        if not args:
            self.emit("usage: .class <Name>")
            return
        try:
            info = describe_class(self.db.schema.get_class(args[0]))
        except PrometheusError as exc:
            self.emit(f"error: {exc}")
            return
        self.emit(f"class {info['name']} ({', '.join(info['superclasses'])})")
        for attr, detail in info["attributes"].items():
            required = " required" if detail["required"] else ""
            self.emit(f"  {attr}: {detail['type']}{required}")
        if "relationship" in info:
            rel = info["relationship"]
            self.emit(
                f"  {rel['origin']} -> {rel['destination']} "
                f"[{rel['kind']}]"
            )

    def _cmd_classifications(self, args: list[str]) -> None:
        manager = self.db.classifications
        if not len(manager):
            self.emit("(none)")
            return
        for classification in manager:
            self.emit(
                f"{classification.name}: {len(classification)} edges, "
                f"author={classification.author or '?'}"
            )

    def _cmd_rules(self, args: list[str]) -> None:
        rules = self.db.rules.rules()
        if not rules:
            self.emit("(none)")
        for rule in rules:
            self.emit(rule.describe())

    def _cmd_indexes(self, args: list[str]) -> None:
        indexes = self.db.indexes.indexes()
        if not indexes:
            self.emit("(none)")
        for index in indexes:
            self.emit(f"{index.name}: {len(index)} entries, {index.probes} probes")

    def _cmd_begin(self, args: list[str]) -> None:
        """Open a managed transaction on the shell's session."""
        if self._session is None:
            self._session = self.db.sessions.create()
        if self._session.in_txn:
            self.emit(
                "a transaction is already open (.commit or .abort it first)"
            )
            return
        txn = self._session.begin()
        self.emit(f"transaction {txn.txn_id} open (session-scoped)")

    def _cmd_txn(self, args: list[str]) -> None:
        if self._session is None or not self._session.in_txn:
            self.emit("no open transaction (implicit autocommit session)")
            return
        txn = self._session.txn
        self.emit(
            f"transaction {txn.txn_id}: {txn.op_count} staged op(s), "
            f"writes={sorted(txn.write_set)}, reads={sorted(txn.read_set)}"
        )

    def _cmd_set(self, args: list[str]) -> None:
        """Assign one attribute, staged in the open transaction if any."""
        if len(args) < 3:
            self.emit("usage: .set <oid> <attr> <value>")
            return
        try:
            oid = int(args[0])
        except ValueError:
            self.emit("error: oid must be an integer")
            return
        attr, raw = args[1], " ".join(args[2:])
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        try:
            if self._session is not None and self._session.in_txn:
                self._session.txn.set(oid, attr, value)
                self.emit(f"staged {attr} on {oid} (commit with .commit)")
            else:
                self.db.schema.get_object(oid).set(attr, value)
                self.emit(f"set {attr} on {oid}")
        except PrometheusError as exc:
            self.emit(f"error: {exc}")

    def _cmd_commit(self, args: list[str]) -> None:
        if self._session is not None and self._session.in_txn:
            try:
                ts = self._session.commit()
            except ConflictError as exc:
                self.emit(f"conflict: {exc}")
                self.emit(
                    "the transaction was rolled back — .begin again "
                    "and retry your changes"
                )
                return
            except PrometheusError as exc:
                self.emit(f"error: {exc}")
                return
            self.emit(f"committed (ts {ts})")
            return
        try:
            self.db.commit()
            self.emit("committed")
        except PrometheusError as exc:
            self.emit(f"error: {exc}")

    def _cmd_abort(self, args: list[str]) -> None:
        if self._session is not None and self._session.in_txn:
            self._session.abort()
            self.emit("transaction aborted")
            return
        self.db.abort()
        self.emit("aborted")

    def _cmd_asof(self, args: list[str]) -> None:
        """Pin (or clear) the shell's time-travel LSN."""
        if not args:
            if self._as_of is None:
                self.emit("live reads (no as_of pinned)")
            else:
                self.emit(f"queries run as of lsn {self._as_of}")
            self.emit(
                f"retained window: lsn {self.db.mvcc.floor} .. "
                f"{self.db.lsn}"
            )
            return
        if args[0].lower() == "off":
            self._as_of = None
            self.emit("back to live reads")
            return
        try:
            lsn = int(args[0])
        except ValueError:
            self.emit("usage: .asof <lsn> | .asof off")
            return
        floor, head = self.db.mvcc.floor, self.db.lsn
        if lsn > head or lsn < floor:
            self.emit(
                f"error: lsn {lsn} outside the retained window "
                f"({floor} .. {head})"
            )
            return
        self._as_of = lsn
        self.emit(f"queries now run as of lsn {lsn} (.asof off to return)")

    def _cmd_lsn(self, args: list[str]) -> None:
        self.emit(str(self.db.lsn))

    def _cmd_shardmap(self, args: list[str]) -> None:
        """The shard map stamped into this node's log, if any."""
        store = self.db.store
        if store is None or not store.shard_map_epoch:
            self.emit("(unsharded: no shard-map stamp in the log)")
            return
        from .sharding import ShardMap

        try:
            shard_map = ShardMap.from_blob(store.shard_map_blob)
        except (PrometheusError, ValueError) as exc:
            self.emit(f"error: undecodable shard-map stamp: {exc}")
            return
        self.emit(
            f"epoch {shard_map.epoch} keyed on {shard_map.key_attr!r}, "
            f"{len(shard_map.shards)} shards"
        )
        for shard_range in shard_map.ranges:
            lo = "-inf" if shard_range.lo is None else repr(shard_range.lo)
            hi = "+inf" if shard_range.hi is None else repr(shard_range.hi)
            self.emit(f"  [{lo}, {hi}) -> {shard_range.shard}")

    def _cmd_integrity(self, args: list[str]) -> None:
        problems = self.db.check_integrity()
        if not problems:
            self.emit("ok")
        for problem in problems:
            self.emit(problem)

    def _cmd_replicas(self, args: list[str]) -> None:
        """Replication topology as seen from this node."""
        shown = False
        if self.replica_client is not None:
            status = self.replica_client.status()
            self.emit(
                f"replica {status['name']}: applied_lsn={status['applied_lsn']} "
                f"batches={status['batches_applied']} "
                f"resyncs={status['resyncs']} "
                f"running={status['running']}"
            )
            if status["last_error"]:
                self.emit(f"  last error: {status['last_error']}")
            shown = True
        if self.shipper is not None:
            replicas = self.shipper.replicas()
            self.emit(
                f"shipping from commit_lsn={self.shipper.store.commit_lsn}: "
                f"{len(replicas)} replica(s) seen"
            )
            for name in sorted(replicas):
                state = replicas[name].as_dict()
                self.emit(
                    f"  {name}: acked_lsn={state['acked_lsn']} "
                    f"pulls={state['pulls']} "
                    f"shipped={state['bytes_shipped']}B "
                    f"diverged={state['diverged']}"
                )
            shown = True
        for name in sorted(self.remotes):
            try:
                status = self.remotes[name].replication_status()
            except PrometheusError as exc:
                self.emit(f"  {name}: unreachable ({exc})")
                continue
            self.emit(
                f"  {name}: role={status.get('role')} "
                f"commit_lsn={status.get('commit_lsn')}"
            )
            shown = True
        if not shown:
            self.emit("(no replication configured)")

    def _cmd_lag(self, args: list[str]) -> None:
        """Replication lag in bytes, per replica."""
        shown = False
        if self.shipper is not None:
            for name, lag in sorted(self.shipper.lag_bytes().items()):
                self.emit(f"{name}: {lag} bytes behind")
                shown = True
            if not shown:
                self.emit("(no replica has pulled yet)")
                shown = True
        if self.replica_client is not None:
            status = self.replica_client.status()
            self.emit(
                f"this replica: applied_lsn={status['applied_lsn']}, "
                f"position={status['replication_position']}"
            )
            shown = True
        local = self.db.store.commit_lsn if self.db.store is not None else None
        for name in sorted(self.remotes):
            try:
                status = self.remotes[name].replication_status()
            except PrometheusError as exc:
                self.emit(f"{name}: unreachable ({exc})")
                shown = True
                continue
            remote_lsn = status.get("commit_lsn")
            suffix = ""
            if local is not None and remote_lsn is not None:
                suffix = f" ({max(0, local - int(remote_lsn))} bytes behind us)"
            self.emit(f"{name}: commit_lsn={remote_lsn}{suffix}")
            shown = True
        if not shown:
            self.emit("(no replication configured)")

    def _cmd_cluster(self, args: list[str]) -> None:
        """Scatter-gather cluster view over the --peer federation."""
        if self.federation is None:
            self.emit("(no federation peers; start with --peer NAME=URL)")
            return
        if args and args[0] == "metrics":
            merged = self.federation.cluster_metrics()
            for series, value in sorted(merged["totals"].items()):
                self.emit(f"{series} {value:g}")
            for name, error in sorted(merged["errors"].items()):
                self.emit(f"{name}: unreachable ({error})")
            if merged["partial"]:
                self.emit("(partial: some endpoints did not answer)")
            return
        overview = self.federation.cluster_overview()
        for name, row in sorted(overview["nodes"].items()):
            if "error" in row:
                self.emit(
                    f"{name}: unreachable ({row['error']}) "
                    f"breaker={row['breaker']}"
                )
                continue
            line = (
                f"{name}: role={row.get('role')} epoch={row.get('epoch')} "
                f"commit_lsn={row.get('commit_lsn')} "
                f"applied_lsn={row.get('applied_lsn')} "
                f"lag={row.get('lag_bytes')} breaker={row['breaker']}"
            )
            ha = row.get("ha")
            if ha is not None:
                line += (
                    f" fenced={ha.get('fenced')} "
                    f"writes={ha.get('writes_allowed')}"
                )
                if ha.get("lease_remaining_s") is not None:
                    line += f" lease={ha['lease_remaining_s']}s"
            self.emit(line)
        summary = overview["summary"]
        primaries = ",".join(summary["primaries"]) or "(none)"
        self.emit(
            f"summary: {summary['endpoints']} endpoint(s), "
            f"primary={primaries}, max_epoch={summary['max_epoch']}, "
            f"total_lag={summary['total_lag_bytes']:g}B"
            + (", PARTIAL" if summary["partial"] else "")
        )

    def _cmd_quit(self, args: list[str]) -> None:
        self.running = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prometheus database shell (POOL queries + dot-commands)",
    )
    parser.add_argument(
        "--db", metavar="PATH", default=None,
        help="database log file (omit for an in-memory session)",
    )
    parser.add_argument(
        "--taxonomy", action="store_true",
        help="register the Prometheus taxonomic schema before loading",
    )
    parser.add_argument(
        "--schema", metavar="ODL_FILE", default=None,
        help="register classes from a Prometheus ODL file before loading",
    )
    parser.add_argument(
        "--execute", "-e", metavar="QUERY", action="append", default=[],
        help="run one line and exit (repeatable)",
    )
    parser.add_argument(
        "--serve", metavar="PORT", type=int, default=None,
        help="start the HTTP access layer instead of a shell "
        "(asyncio front end: keep-alive, pipelining, backpressure)",
    )
    parser.add_argument(
        "--serve-workers", metavar="N", type=int, default=8,
        help="worker threads bridging the async front end to the "
        "engine (default 8)",
    )
    parser.add_argument(
        "--replica-of", metavar="URL", default=None,
        help="open read-only and tail the primary at URL (log shipping)",
    )
    parser.add_argument(
        "--replica", metavar="NAME=URL", action="append", default=[],
        help="register a known read replica for .replicas/.lag "
        "(repeatable)",
    )
    parser.add_argument(
        "--replica-name", metavar="NAME", default="replica",
        help="this replica's name, reported to the primary on each pull",
    )
    parser.add_argument(
        "--peer", metavar="NAME=URL", action="append", default=[],
        help="a federation peer for .cluster and the /cluster/* routes "
        "(repeatable; include this node's own URL for a full view)",
    )
    parser.add_argument(
        "--node-name", metavar="NAME", default=None,
        help="this node's name, stamped on trace spans and journal "
        "events (default: --replica-name when replicating, else "
        "'primary')",
    )
    ha = parser.add_argument_group(
        "high availability (repro.ha)",
        "--ha arms a serving node with an HA controller (fencing, "
        "promote/demote API); --ha-supervisor runs the failover "
        "coordinator over --node NAME=URL endpoints instead of a shell",
    )
    ha.add_argument(
        "--ha", action="store_true",
        help="enable the HA controller on this serving node",
    )
    ha.add_argument(
        "--ha-supervisor", action="store_true",
        help="run the failover coordinator (needs --node, no --db)",
    )
    ha.add_argument(
        "--node", metavar="NAME=URL", action="append", default=[],
        help="a supervised cluster node (repeatable; supervisor mode)",
    )
    ha.add_argument(
        "--primary", metavar="NAME", default=None,
        help="which --node is the current primary (default: the first)",
    )
    ha.add_argument(
        "--ha-interval", metavar="SECONDS", type=float, default=1.0,
        help="supervisor probe interval (default 1.0)",
    )
    ha.add_argument(
        "--ha-phi-threshold", metavar="PHI", type=float, default=8.0,
        help="phi-accrual suspicion threshold (default 8.0)",
    )
    ha.add_argument(
        "--ha-lease-ttl", metavar="SECONDS", type=float, default=None,
        help="write-lease TTL; on a node this arms lease fencing, on "
        "the supervisor it sets the granted TTL (default 3.0 there)",
    )
    return parser


def open_database(args: argparse.Namespace) -> PrometheusDB:
    if args.replica_of and not args.db:
        raise PrometheusError(
            "--replica-of needs --db: a replica keeps a local log copy"
        )
    db = PrometheusDB(args.db, read_only=bool(args.replica_of))
    if args.taxonomy:
        from .taxonomy import define_taxonomy_schema

        define_taxonomy_schema(db.schema)
    if args.schema:
        from .core.odl import define_schema

        with open(args.schema, encoding="utf-8") as handle:
            define_schema(db.schema, handle.read())
    db.load()
    return db


def run_supervisor(args: argparse.Namespace, out: IO[str]) -> int:
    """``--ha-supervisor``: probe, renew, fail over.  No database."""
    from .ha import FailoverCoordinator, http_node

    nodes = []
    for spec in args.node:
        name, _, url = spec.partition("=")
        if not url:
            print(f"error: --node wants NAME=URL, got {spec!r}",
                  file=sys.stderr)
            return 1
        nodes.append(http_node(name, url))
    if not nodes:
        print("error: --ha-supervisor needs at least one --node NAME=URL",
              file=sys.stderr)
        return 1
    primary = args.primary or nodes[0].name
    try:
        coordinator = FailoverCoordinator(
            nodes,
            primary,
            interval_s=args.ha_interval,
            phi_threshold=args.ha_phi_threshold,
            lease_ttl_s=(
                args.ha_lease_ttl if args.ha_lease_ttl is not None else 3.0
            ),
        )
    except PrometheusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"supervising {len(nodes)} node(s); primary={primary} "
        "(Ctrl-C to stop)",
        file=out,
        flush=True,
    )
    coordinator.start()
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
        for report in coordinator.failovers:
            print(f"failover: {report.as_dict()}", file=out, flush=True)
    return 0


def main(argv: list[str] | None = None, out: IO[str] = sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    if args.ha_supervisor:
        return run_supervisor(args, out)
    try:
        db = open_database(args)
    except PrometheusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    node_name = args.node_name or (
        args.replica_name if args.replica_of else "primary"
    )
    if db.telemetry.enabled:
        db.telemetry.set_node(node_name)

    shipper = None
    replica_client = None
    remotes: dict[str, object] = {}
    if args.replica_of:
        from .engine.federation import RemoteDatabase
        from .replication import ReplicaApplier, ReplicationClient

        replica_client = ReplicationClient(
            ReplicaApplier(db),
            RemoteDatabase(args.replica_of),
            name=args.replica_name,
        )
        replica_client.start()
        print(f"replicating from {args.replica_of}", file=out, flush=True)
    elif db.store is not None:
        # Any node with a persistent log can serve pulls; the shipper
        # costs nothing until a replica asks.
        from .replication import LogShipper

        shipper = LogShipper(db.store)
        if db.telemetry.enabled:
            shipper.attach_telemetry(db.telemetry)
    if args.replica:
        from .engine.federation import RemoteDatabase

        for spec in args.replica:
            name, _, url = spec.partition("=")
            if not url:
                print(f"error: --replica wants NAME=URL, got {spec!r}",
                      file=sys.stderr)
                return 1
            remotes[name] = RemoteDatabase(url)

    federation = None
    if args.peer:
        from .engine.federation import Federation

        federation = Federation(telemetry=db.telemetry)
        for spec in args.peer:
            name, _, url = spec.partition("=")
            if not url:
                print(f"error: --peer wants NAME=URL, got {spec!r}",
                      file=sys.stderr)
                return 1
            federation.add_node(name, url)

    ha = None
    if args.ha:
        if db.store is None:
            print("error: --ha needs --db (fencing lives in the log)",
                  file=sys.stderr)
            return 1
        from .engine.federation import RemoteDatabase
        from .ha import HAController

        ha = HAController(
            db,
            name=args.replica_name,
            shipper=shipper,
            replica_client=replica_client,
            primary_url=args.replica_of,
            lease_ttl_s=args.ha_lease_ttl,
            make_transport=RemoteDatabase,
        )

    shell = Shell(
        db,
        out=out,
        shipper=shipper,
        replica_client=replica_client,
        remotes=remotes,
        federation=federation,
    )
    try:
        if args.serve is not None:
            from .engine import AsyncPrometheusServer

            server = AsyncPrometheusServer(
                db,
                port=args.serve,
                shipper=shipper,
                replica_client=replica_client,
                primary_url=args.replica_of,
                ha=ha,
                federation=federation,
                workers=args.serve_workers,
            )
            server.start()
            print(f"serving on {server.url} (Ctrl-C to stop)", file=out, flush=True)
            try:
                import time

                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
            finally:
                server.stop()
            return 0
        if args.execute:
            for line in args.execute:
                shell.execute(line)
            return 0
        print("Prometheus shell — .help for commands, .quit to leave", file=out)
        while shell.running:
            try:
                line = input("pool> ")
            except (EOFError, KeyboardInterrupt):
                print("", file=out)
                break
            shell.execute(line)
        return 0
    finally:
        if ha is not None and ha.replica_client is not None:
            ha.replica_client.stop()
        elif replica_client is not None:
            replica_client.stop()
        db.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
