"""Shared fixtures for the Prometheus test suite."""

from __future__ import annotations

import pytest

from repro.core.attributes import Attribute
from repro.core.schema import Schema
from repro.core.semantics import Cardinality, RelationshipSemantics, RelKind
from repro.core import types as T
from repro.storage.store import ObjectStore


@pytest.fixture
def store(tmp_path):
    """A fresh persistent store on a temp file."""
    s = ObjectStore(tmp_path / "db.plog")
    yield s
    s.close()


def make_people_schema(store: ObjectStore | None = None) -> Schema:
    """A small generic schema used across core tests."""
    schema = Schema(store, name="people")
    declare_people(schema)
    return schema


def declare_people(schema: Schema) -> None:
    """Define the people classes on an existing schema."""
    schema.define_class(
        "Person",
        [
            Attribute("name", T.STRING, required=True),
            Attribute("age", T.INTEGER),
        ],
    )
    schema.define_class(
        "Employee",
        [Attribute("salary", T.FLOAT)],
        superclasses=("Person",),
    )
    schema.define_class(
        "Company",
        [Attribute("title", T.STRING)],
    )
    schema.define_relationship(
        "WorksFor",
        "Person",
        "Company",
        semantics=RelationshipSemantics(
            kind=RelKind.ASSOCIATION,
            cardinality=Cardinality(max_out=2),
        ),
        attributes=[Attribute("since", T.INTEGER)],
    )
    schema.define_relationship(
        "Owns",
        "Company",
        "Person",
        semantics=RelationshipSemantics(
            kind=RelKind.AGGREGATION, exclusive=True, lifetime_dependent=True
        ),
    )


@pytest.fixture
def schema() -> Schema:
    """In-memory people schema."""
    return make_people_schema()


@pytest.fixture
def persistent_schema(store) -> Schema:
    """People schema over a persistent store."""
    return make_people_schema(store)
