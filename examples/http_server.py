#!/usr/bin/env python3
"""The HTTP access layer (§6.1.7): serve a taxonomy over JSON.

Starts the server on an ephemeral port over the Figure 4 shapes database
and plays a small client session against it (so the example is
self-contained); pass ``--serve`` to keep it running for manual curl.

Run:  python examples/http_server.py [--serve]
"""

from __future__ import annotations

import json
import sys
import urllib.request

from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.taxonomy import NameDeriver, build_shapes_scenario
from repro.taxonomy.model import TaxonomyDatabase


def fetch(url: str) -> dict | list:
    with urllib.request.urlopen(url, timeout=5) as response:
        return json.load(response)


def query(base: str, text: str, **params) -> object:
    payload = json.dumps({"query": text, "params": params}).encode()
    request = urllib.request.Request(
        base + "/query",
        data=payload,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return json.load(response)["result"]


def main() -> None:
    db = PrometheusDB()
    taxdb = TaxonomyDatabase.over_engine(db)
    scenario = build_shapes_scenario(taxdb)
    NameDeriver(taxdb, author="T3", year=1950).derive(
        scenario.classifications["T3"]
    )

    server = AsyncPrometheusServer(db)
    server.start()
    base = server.url
    print(f"serving on {base}\n")

    if "--serve" in sys.argv:
        print("endpoints: /schema /classes/<name> /objects/<oid> "
              "/classifications POST /query")
        print("Ctrl-C to stop")
        try:
            import time

            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
        return

    print("GET /classifications")
    print(" ", fetch(base + "/classifications"))

    print("\nGET /classifications/T1%20shapes")
    detail = fetch(base + "/classifications/T1%20shapes")
    print(f"  {len(detail['edges'])} edges, roots={detail['roots']}")

    print("\nPOST /query — count specimens")
    print(" ", query(base, "select count(s) from s in Specimen"))

    print("\nPOST /query — white specimens and their classifications")
    rows = query(
        base,
        'select s.field_name from s in Specimen '
        'where s.field_name like "white%" order by s.field_name',
    )
    print(" ", rows)

    print("\nGET /schema — class inventory")
    schema = fetch(base + "/schema")
    print(" ", sorted(schema["classes"])[:6], "...")

    server.stop()
    print("\nserver stopped")


if __name__ == "__main__":
    main()
