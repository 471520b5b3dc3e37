"""The object layer ↔ log boundary stays behind ``repro.core``.

Everything outside ``repro/core`` reaches the object table through the
public surface (``install`` / ``evict`` / ``to_record`` / ``flush`` /
``extent`` / …).  A source scan, because the privates are plain
attributes and nothing else would notice a new reach-around.
"""

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
PRIVATE = re.compile(
    r"\b(_objects|_extents|_dirty|_pending_deletes|_meta_oid|_META_CLASS"
    r"|_to_record|_from_record|_remove_object|_allocator)\b"
)
#: ``PObject._dirty`` is the handle's own flag, not the schema's table;
#: ``ObjectStore._allocator`` is the store's own, not the schema's.
OWN_FLAG = re.compile(r"\b(obj|rel|self)\._dirty\b|\bself\._allocator\b")


def test_schema_privates_are_named_only_in_core():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] == "core":
            continue
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1):
            if PRIVATE.search(OWN_FLAG.sub("", line)):
                offenders.append(f"{path.relative_to(SRC)}:{number}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def test_meta_record_class_is_named_only_by_the_schema():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "__meta__" in path.read_text("utf-8")
        and path.relative_to(SRC).as_posix() != "core/schema.py"
    ]
    assert offenders == []
