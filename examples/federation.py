#!/usr/bin/env python3
"""Distribution over localised databases (thesis chapter 8 further work).

Starts three "herbarium" nodes — each a complete, autonomous Prometheus
database with its own flora and classifications — and queries them as a
federation: the same POOL query fans out to every node, names are found
wherever they were published, and nothing is ever merged into a single
global hierarchy (each institution keeps its own view, which is the whole
point of multiple overlapping classifications).

Run:  python examples/federation.py
"""

from __future__ import annotations

from repro.engine import AsyncPrometheusServer, Federation, PrometheusDB
from repro.taxonomy import (
    FloraParameters,
    TaxonomyDatabase,
    generate_flora,
)


def start_node(
    name: str, seed: int
) -> tuple[AsyncPrometheusServer, TaxonomyDatabase]:
    db = PrometheusDB(name=name)
    taxdb = TaxonomyDatabase.over_engine(db)
    generate_flora(
        FloraParameters(
            families=1,
            genera_per_family=2,
            species_per_genus=3,
            specimens_per_species=2,
            seed=seed,
        ),
        taxdb=taxdb,
        classification_name=f"{name} regional flora",
    )
    server = AsyncPrometheusServer(db)
    server.start()
    return server, taxdb


def main() -> None:
    nodes = {}
    servers = []
    for name, seed in (("edinburgh", 1), ("kew", 2), ("paris", 3)):
        server, taxdb = start_node(name, seed)
        servers.append(server)
        nodes[name] = (server, taxdb)
        print(f"node {name:10s} serving on {server.url}")

    # A name published at two institutions independently.
    for name in ("edinburgh", "paris"):
        nodes[name][1].publish_name(
            "Apium", "Genus", author="L.", year=1753, publication="Sp. Pl."
        )

    federation = Federation()
    for name, (server, _) in nodes.items():
        federation.add_node(name, server.url)

    print("\nnode health:", federation.alive())

    print("\nspecimen counts across the federation:")
    for node, count in federation.count_all("Specimen").items():
        print(f"  {node:12s} {count}")

    print("\nwhere has the name 'Apium' been published?")
    for node, item in federation.find_name("Apium"):
        values = item["values"]
        print(
            f"  {node:12s} {values['epithet']} {values['author']} "
            f"({values['year']})"
        )

    print("\nclassification inventory (kept local, never merged):")
    for node, names in federation.classification_inventory().items():
        print(f"  {node:12s} {names}")

    print("\none POOL query, every node — genera per node:")
    for result in federation.query_all(
        'select n.epithet from n in NomenclaturalTaxon '
        'where n.rank = "Genus" order by n.epithet'
    ):
        print(f"  {result.node:12s} {result.result}")

    for server in servers:
        server.stop()
    print("\nall nodes stopped")


if __name__ == "__main__":
    main()
