"""The layered database engine (thesis chapter 6, Figure 26).

* :class:`PrometheusDB` — the assembled system.
* :class:`IndexManager` / :class:`BTree` — the index layer.
* :class:`ViewManager` — the views layer.
* :class:`AsyncPrometheusServer` — the HTTP access layer (asyncio:
  keep-alive, pipelining, backpressure) over the :class:`HttpHandlers`
  core.
"""

from .aserver import AsyncPrometheusServer
from .btree import BTree
from .database import PrometheusDB
from .dump import dump_json, dump_schema, load_dump
from .federation import (
    CircuitBreaker,
    CircuitOpenError,
    Federation,
    FederationError,
    NodeResult,
    RemoteDatabase,
    RetryPolicy,
)
from .handlers import HttpHandlers, Request, Response, jsonable
from .indexes import Index, IndexKind, IndexManager
from .views import View, ViewManager

__all__ = [
    "AsyncPrometheusServer",
    "BTree",
    "HttpHandlers",
    "Request",
    "Response",
    "CircuitBreaker",
    "CircuitOpenError",
    "Federation",
    "FederationError",
    "RetryPolicy",
    "Index",
    "IndexKind",
    "IndexManager",
    "NodeResult",
    "PrometheusDB",
    "dump_json",
    "dump_schema",
    "load_dump",
    "RemoteDatabase",
    "View",
    "ViewManager",
    "jsonable",
]
