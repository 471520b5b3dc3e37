"""Whole-database export/import as JSON-safe documents.

Complements the storage engine with a portable interchange format:
everything the schema session holds — instances, relationship instances
(with participants), classifications, synonym sets, the trace log — is
serialised to one nested dict, loadable into any schema that declares the
same classes (use :mod:`repro.core.odl` to ship the schema as text
alongside).  OIDs are remapped on load, so a dump can be merged into a
non-empty database; the returned mapping lets callers relocate external
references.

Use cases: migrating between store files, seeding federation nodes,
archival snapshots, and test fixtures.
"""

from __future__ import annotations

import datetime as _dt
import json
from typing import Any

from ..classification import ClassificationManager
from ..core.events import Event, EventKind
from ..core.identity import OidRef
from ..core.instances import PObject
from ..core.relationships import RelationshipInstance
from ..core.schema import Schema
from ..errors import SchemaError

FORMAT = "prometheus-dump-v1"


def _storable_to_json(value: Any) -> Any:
    if isinstance(value, OidRef):
        return {"$ref": value.oid}
    if isinstance(value, _dt.datetime):
        return {"$datetime": value.isoformat()}
    if isinstance(value, _dt.date):
        return {"$date": value.isoformat()}
    if isinstance(value, bytes):
        return {"$bytes": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_storable_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _storable_to_json(v) for k, v in value.items()}
    return value


def _json_to_storable(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$ref"}:
            return OidRef(int(value["$ref"]))
        if set(value) == {"$datetime"}:
            return _dt.datetime.fromisoformat(value["$datetime"])
        if set(value) == {"$date"}:
            return _dt.date.fromisoformat(value["$date"])
        if set(value) == {"$bytes"}:
            return bytes.fromhex(value["$bytes"])
        return {k: _json_to_storable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_to_storable(v) for v in value]
    return value


def dump_schema(
    schema: Schema,
    classifications: ClassificationManager | None = None,
) -> dict[str, Any]:
    """Export the session's instance data as one JSON-safe document."""
    objects: list[dict[str, Any]] = []
    relationships: list[dict[str, Any]] = []
    for obj in schema.all_objects():
        record = schema.to_record(obj)
        entry = {
            "oid": obj.oid,
            "class": record["class"],
            "values": _storable_to_json(record["values"]),
        }
        if isinstance(obj, RelationshipInstance):
            entry["origin"] = obj.origin_oid
            entry["destination"] = obj.destination_oid
            if obj.participant_oids:
                entry["participants"] = dict(obj.participant_oids)
            relationships.append(entry)
        else:
            objects.append(entry)
    document: dict[str, Any] = {
        "format": FORMAT,
        "schema_name": schema.name,
        "objects": objects,
        "relationships": relationships,
        "synonyms": schema.synonyms.to_storable(),
    }
    if classifications is not None:
        document["classifications"] = classifications.to_storable()
    return document


def dump_json(
    schema: Schema,
    classifications: ClassificationManager | None = None,
    indent: int | None = None,
) -> str:
    """Export as JSON text."""
    return json.dumps(dump_schema(schema, classifications), indent=indent)


def _remap_value(value: Any, oid_map: dict[int, int]) -> Any:
    if isinstance(value, OidRef):
        if value.oid in oid_map:
            return OidRef(oid_map[value.oid])
        return value
    if isinstance(value, list):
        return [_remap_value(v, oid_map) for v in value]
    if isinstance(value, dict):
        return {k: _remap_value(v, oid_map) for k, v in value.items()}
    return value


def load_dump(
    schema: Schema,
    document: dict[str, Any] | str,
    classifications: ClassificationManager | None = None,
) -> dict[int, int]:
    """Load a dump into ``schema``, remapping OIDs.

    The target schema must declare every class the dump uses.  Returns
    the old-OID → new-OID mapping.  Rules stand down during the load
    (they re-audit afterwards via ``check_all_invariants`` if desired);
    every other subscriber sees each object created and related with its
    final values, so attribute indexes and relationship semantics stay
    current — and, through the undo journal, an ``abort()`` takes the
    whole load back out of them.
    """
    if isinstance(document, str):
        document = json.loads(document)
    if document.get("format") != FORMAT:
        raise SchemaError(
            f"not a Prometheus dump (format={document.get('format')!r})"
        )
    oid_map: dict[int, int] = {}
    with schema.events.bulk_load():
        # First pass: allocate handles (values follow once every OID is
        # known, so forward references remap correctly).  This goes
        # through the schema's internal install path because required
        # attributes are legitimately absent until the second pass.
        for entry in document["objects"]:
            pclass = schema.get_class(entry["class"])
            if pclass.is_relationship_class:
                raise SchemaError(
                    f"object entry uses relationship class {pclass.name!r}"
                )
            if pclass.abstract:
                raise SchemaError(f"class {pclass.name!r} is abstract")
            new = PObject(schema._new_oid(), pclass, schema, pclass.defaults())
            schema.adopt(new)
            schema.journal.record(lambda obj=new: schema._uninstall(obj))
            oid_map[int(entry["oid"])] = new.oid
        # Second pass: attribute values (references now remappable).
        for entry in document["objects"]:
            obj = schema.get_object(oid_map[int(entry["oid"])])
            values = _json_to_storable(entry["values"])
            for name, value in values.items():
                if not obj.pclass.has_attribute(name):
                    continue
                attr = obj.pclass.get_attribute(name)
                obj._values[name] = attr.type_spec.from_storable(
                    _remap_value(value, oid_map), None
                )
            obj._mark_dirty()
            schema.events.publish(
                Event(
                    kind=EventKind.AFTER_CREATE,
                    target=obj,
                    class_name=obj.pclass.name,
                )
            )
        for entry in document["relationships"]:
            origin = schema.get_object(oid_map[int(entry["origin"])])
            destination = schema.get_object(
                oid_map[int(entry["destination"])]
            )
            participants = {
                role: schema.get_object(oid_map[int(oid)])
                for role, oid in entry.get("participants", {}).items()
            }
            relclass = schema.get_class(entry["class"])
            values = {
                name: relclass.get_attribute(name).type_spec.from_storable(
                    _remap_value(value, oid_map), None
                )
                for name, value in _json_to_storable(entry["values"]).items()
                if relclass.has_attribute(name)
            }
            rel = schema.relate(
                entry["class"], origin, destination,
                participants=participants or None, **values,
            )
            oid_map[int(entry["oid"])] = rel.oid
    for group in document.get("synonyms", []):
        schema.synonyms.declare_all(
            oid_map[int(oid)] for oid in group if int(oid) in oid_map
        )
    if classifications is not None:
        for item in document.get("classifications", []):
            classification = classifications.create(
                item["name"],
                author=item.get("author", ""),
                year=item.get("year"),
                publication=item.get("publication", ""),
                description=item.get("description", ""),
            )
            for old_oid in item.get("edges", []):
                new_oid = oid_map.get(int(old_oid))
                if new_oid is not None and schema.has_object(new_oid):
                    edge = schema.get_object(new_oid)
                    if isinstance(edge, RelationshipInstance):
                        classification.add_edge(edge)
    return oid_map
