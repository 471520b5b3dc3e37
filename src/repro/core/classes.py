"""Class metaobjects with multiple inheritance and extents.

A :class:`PClass` is the Prometheus metaobject for an ODMG class: a named
collection of attributes, methods and constraints plus a list of
superclasses (§4.2).  Classes are registered with a
:class:`~repro.core.schema.Schema`, which resolves superclass names, owns
extents and performs consistency checks.

Method resolution follows C3 linearization, the same algorithm Python
uses, so diamond hierarchies behave predictably.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from ..errors import AttributeUnknownError, SchemaError
from .attributes import Attribute, Method

if TYPE_CHECKING:  # pragma: no cover
    from ..rules.rule import Rule
    from .schema import Schema


def _c3_merge(sequences: list[list["PClass"]]) -> list["PClass"]:
    """C3 linearization merge; raises SchemaError on inconsistency."""
    result: list[PClass] = []
    seqs = [list(s) for s in sequences if s]
    while seqs:
        for seq in seqs:
            head = seq[0]
            if not any(head in s[1:] for s in seqs):
                break
        else:
            raise SchemaError(
                "inconsistent class hierarchy (C3 linearization failed): "
                + ", ".join(s[0].name for s in seqs)
            )
        result.append(head)
        for seq in seqs:
            if seq and seq[0] is head:
                del seq[0]
        seqs = [s for s in seqs if s]
    return result


class PClass:
    """Metaobject describing one Prometheus class.

    Instances of the class are :class:`~repro.core.instances.PObject`
    handles created through :meth:`Schema.create`.

    Args:
        name: unique class name within a schema.
        attributes: own (non-inherited) attribute declarations.
        methods: own method declarations.
        superclasses: names of direct superclasses (resolved at
            registration time; empty means the implicit root ``Object``).
        abstract: abstract classes cannot be instantiated.
        doc: human documentation.
    """

    def __init__(
        self,
        name: str,
        attributes: list[Attribute] | tuple[Attribute, ...] = (),
        methods: list[Method] | tuple[Method, ...] = (),
        superclasses: list[str] | tuple[str, ...] = (),
        abstract: bool = False,
        doc: str = "",
    ) -> None:
        if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
            raise SchemaError(f"invalid class name: {name!r}")
        self.name = name
        self.abstract = abstract
        self.doc = doc
        self._own_attributes: dict[str, Attribute] = {}
        for attr in attributes:
            if attr.name in self._own_attributes:
                raise SchemaError(
                    f"class {name!r}: duplicate attribute {attr.name!r}"
                )
            self._own_attributes[attr.name] = attr
        self._own_methods: dict[str, Method] = {}
        for method in methods:
            if method.name in self._own_methods:
                raise SchemaError(
                    f"class {name!r}: duplicate method {method.name!r}"
                )
            if method.name in self._own_attributes:
                raise SchemaError(
                    f"class {name!r}: {method.name!r} is both attribute and "
                    "method"
                )
            self._own_methods[method.name] = method
        self.superclass_names: tuple[str, ...] = tuple(superclasses)
        # Filled in by Schema.register_class:
        self.schema: "Schema | None" = None
        self.superclasses: tuple[PClass, ...] = ()
        #: This class's name and every (transitive) subclass's, kept up
        #: to date by registration: what a polymorphic extent spans.
        self.subtree_names: list[str] = [name]
        self._mro: tuple[PClass, ...] = ()
        self._all_attributes: dict[str, Attribute] | None = None
        self._all_methods: dict[str, Method] | None = None
        self.constraints: list["Rule"] = []

    # -- wiring (called by Schema) -------------------------------------------

    def _bind(self, schema: "Schema", supers: tuple["PClass", ...]) -> None:
        self.schema = schema
        self.superclasses = supers
        self._mro = tuple(
            _c3_merge(
                [[self]]
                + [list(sup.mro) for sup in supers]
                + [list(supers)]
            )
        )
        for ancestor in self._mro[1:]:
            ancestor.subtree_names.append(self.name)
        self._all_attributes = None
        self._all_methods = None

    # -- introspection ---------------------------------------------------------

    @property
    def mro(self) -> tuple["PClass", ...]:
        """Method resolution order, most-derived first."""
        if not self._mro:
            return (self,)
        return self._mro

    def is_subclass_of(self, other: "PClass") -> bool:
        """True if ``self`` is ``other`` or inherits from it."""
        return other in self.mro

    def all_attributes(self) -> dict[str, Attribute]:
        """Own plus inherited attributes, most-derived declaration wins."""
        if self._all_attributes is None:
            merged: dict[str, Attribute] = {}
            for klass in reversed(self.mro):
                merged.update(klass._own_attributes)
            self._all_attributes = merged
        return self._all_attributes

    def all_methods(self) -> dict[str, Method]:
        if self._all_methods is None:
            merged: dict[str, Method] = {}
            for klass in reversed(self.mro):
                merged.update(klass._own_methods)
            self._all_methods = merged
        return self._all_methods

    def get_attribute(self, name: str) -> Attribute:
        try:
            return self.all_attributes()[name]
        except KeyError:
            raise AttributeUnknownError(self.name, name) from None

    def has_attribute(self, name: str) -> bool:
        return name in self.all_attributes()

    def get_method(self, name: str) -> Method:
        try:
            return self.all_methods()[name]
        except KeyError:
            raise AttributeUnknownError(self.name, name) from None

    def has_method(self, name: str) -> bool:
        return name in self.all_methods()

    def own_attributes(self) -> Iterator[Attribute]:
        return iter(self._own_attributes.values())

    def all_constraints(self) -> list["Rule"]:
        """Constraints of this class and all superclasses (nearest first)."""
        seen: list["Rule"] = []
        for klass in self.mro:
            seen.extend(klass.constraints)
        return seen

    def descendants(self) -> Iterator["PClass"]:
        """Yield this class and all (transitive) subclasses."""
        yield self
        for name in self.subtree_names[1:]:
            yield self.schema.get_class(name)  # type: ignore[union-attr]

    def defaults(self) -> dict[str, Any]:
        """Initial attribute values for a fresh instance."""
        return {
            name: attr.default for name, attr in self.all_attributes().items()
        }

    @property
    def is_relationship_class(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        supers = ",".join(s.name for s in self.superclasses) or "Object"
        return f"<PClass {self.name}({supers})>"
