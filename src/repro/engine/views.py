"""The views layer (thesis §6.1.3).

A view is a named POOL query over a :class:`PrometheusDB`:
:meth:`ViewManager.evaluate` returns exactly
``db.query(view.query_text, params, as_of=as_of)``, so the planner, its
plan cache, ``as_of`` time travel and EXPLAIN apply to a view as to any
query, and a view's read guarantees are ``db.query``'s.

A **materialized** view keeps its last live, parameterless result
together with the :meth:`PrometheusDB.read_stamp` it was read under, and
serves a copy only while the database's stamp still equals it.  The
stamp moves on every commit, direct mutation, abort, replica apply,
schema or index change and rebalance — the same stamp the HTTP response
cache keys on — so reuse is one tuple comparison and cannot miss a
change the event bus never announces.  Calls with ``params`` or
``as_of`` always run the query.

A **classification view** scopes a whole classification as a view,
giving applications the "one classification at a time" perspective
older systems hard-coded, without losing the others.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..classification import extract_graph
from ..errors import QueryError, SchemaError
from ..query import parse
from ..query.typecheck import typecheck

if TYPE_CHECKING:  # pragma: no cover
    from ..classification import GraphView
    from .database import PrometheusDB


class View:
    """One named query."""

    def __init__(
        self,
        db: "PrometheusDB",
        name: str,
        query_text: str,
        materialized: bool = False,
        description: str = "",
    ) -> None:
        self._db = db
        self.name = name
        self.query_text = query_text
        self.materialized = materialized
        self.description = description
        self.ast = parse(query_text)
        self.refreshes = 0
        #: ``(read stamp, rows)`` of the last materialized read.
        self._result: tuple[tuple, list[Any]] | None = None

    @property
    def is_fresh(self) -> bool:
        """True while the stored result's stamp is the database's."""
        result = self._result
        return result is not None and result[0] == self._db.read_stamp()


class ViewManager:
    """Registry and evaluator of views over one database."""

    def __init__(self, db: "PrometheusDB") -> None:
        self._db = db
        self._views: dict[str, View] = {}

    # -- definition -----------------------------------------------------------

    def define(
        self,
        name: str,
        query_text: str,
        materialized: bool = False,
        description: str = "",
    ) -> View:
        """Define a view; the query is parsed and type-checked eagerly."""
        if name in self._views:
            raise SchemaError(f"view {name!r} already defined")
        db = self._db
        view = View(
            db,
            name,
            query_text,
            materialized=materialized,
            description=description,
        )
        report = typecheck(db.schema, view.ast, db.classifications)
        if not report.ok:
            raise QueryError(
                f"view {name!r} does not type-check: {'; '.join(report.errors)}"
            )
        self._views[name] = view
        return view

    def drop(self, name: str) -> None:
        self._views.pop(name, None)

    def get(self, name: str) -> View:
        try:
            return self._views[name]
        except KeyError:
            raise SchemaError(f"unknown view {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._views)

    # -- evaluation ---------------------------------------------------------------

    def evaluate(
        self,
        name: str,
        params: dict[str, Any] | None = None,
        as_of: int | None = None,
    ) -> Any:
        """``db.query`` of the view's text; a materialized view reuses
        its last live, parameterless result while the read stamp is
        unchanged."""
        view = self.get(name)
        db = self._db
        if not view.materialized or params or as_of is not None:
            return db.query(view.query_text, params, as_of=as_of)
        # Stamped before the read: a commit racing it can only leave
        # the stored result stale-stamped (a later miss), never serve it.
        stamp = db.read_stamp()
        stored = view._result
        if stored is not None and stored[0] == stamp:
            return list(stored[1])
        result = db.query(view.query_text)
        if isinstance(result, list):
            view._result = (stamp, list(result))
            view.refreshes += 1
        return result

    # -- classification views --------------------------------------------------------

    def classification_view(self, classification_name: str) -> "GraphView":
        """The whole classification as a detached graph — the "single
        classification" perspective of traditional systems (§3.2.1's view
        discussion), derived rather than stored."""
        classification = self._db.classifications.get(classification_name)
        return extract_graph(classification)
