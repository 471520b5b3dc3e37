"""Class metaobjects: inheritance, C3 linearization, attribute merging."""

import pytest

from repro.core.attributes import Attribute, Method
from repro.core.classes import PClass
from repro.core.schema import Schema
from repro.core import types as T
from repro.errors import AttributeUnknownError, SchemaError


class TestDefinition:
    def test_invalid_class_name(self):
        for bad in ("", "1abc", "with space", "a-b"):
            with pytest.raises(SchemaError):
                PClass(bad)

    def test_duplicate_attribute(self):
        with pytest.raises(SchemaError):
            PClass("X", [Attribute("a", T.STRING), Attribute("a", T.INTEGER)])

    def test_attribute_method_clash(self):
        with pytest.raises(SchemaError):
            PClass(
                "X",
                [Attribute("a", T.STRING)],
                methods=[Method("a", lambda self: None)],
            )

    def test_bad_attribute_name(self):
        with pytest.raises(SchemaError):
            Attribute("9lives", T.STRING)

    def test_default_validated_eagerly(self):
        from repro.errors import TypeCheckError

        with pytest.raises(TypeCheckError):
            Attribute("a", T.INTEGER, default="nope")

    def test_method_requires_callable(self):
        with pytest.raises(SchemaError):
            Method("m", "not callable")  # type: ignore[arg-type]


class TestInheritance:
    def test_implicit_object_root(self, schema):
        person = schema.get_class("Person")
        assert person.superclasses[0].name == "Object"
        assert person.is_subclass_of(schema.get_class("Object"))

    def test_attribute_inheritance(self, schema):
        employee = schema.get_class("Employee")
        attrs = employee.all_attributes()
        assert set(attrs) == {"name", "age", "salary"}

    def test_override_wins_in_subclass(self):
        schema = Schema()
        schema.define_class("A", [Attribute("x", T.INTEGER, default=1)])
        schema.define_class(
            "B", [Attribute("x", T.INTEGER, default=2)], superclasses=("A",)
        )
        assert schema.get_class("B").get_attribute("x").default == 2
        assert schema.get_class("A").get_attribute("x").default == 1

    def test_diamond_c3(self):
        schema = Schema()
        schema.define_class("Top", [Attribute("t", T.STRING)])
        schema.define_class("Left", superclasses=("Top",))
        schema.define_class("Right", superclasses=("Top",))
        schema.define_class("Bottom", superclasses=("Left", "Right"))
        bottom = schema.get_class("Bottom")
        names = [k.name for k in bottom.mro]
        assert names == ["Bottom", "Left", "Right", "Top", "Object"]
        assert bottom.has_attribute("t")

    def test_unknown_superclass(self):
        schema = Schema()
        with pytest.raises(SchemaError):
            schema.define_class("X", superclasses=("Nope",))

    def test_duplicate_class_name(self, schema):
        with pytest.raises(SchemaError):
            schema.define_class("Person")

    def test_descendants(self, schema):
        person = schema.get_class("Person")
        names = {k.name for k in person.descendants()}
        assert names == {"Person", "Employee"}

    def test_is_subclass_of_self(self, schema):
        person = schema.get_class("Person")
        assert person.is_subclass_of(person)

    def test_not_subclass_sideways(self, schema):
        assert not schema.get_class("Company").is_subclass_of(
            schema.get_class("Person")
        )


class TestIntrospection:
    def test_get_attribute_unknown(self, schema):
        with pytest.raises(AttributeUnknownError):
            schema.get_class("Person").get_attribute("bogus")

    def test_methods_inherited(self):
        schema = Schema()
        schema.define_class(
            "A",
            [Attribute("x", T.INTEGER, default=2)],
            methods=[Method("double", lambda self: self.get("x") * 2)],
        )
        schema.define_class("B", superclasses=("A",))
        assert schema.get_class("B").has_method("double")
        b = schema.create("B")
        assert b.call("double") == 4

    def test_defaults(self, schema):
        defaults = schema.get_class("Employee").defaults()
        assert defaults == {"name": None, "age": None, "salary": None}

    def test_relationship_flag(self, schema):
        assert not schema.get_class("Person").is_relationship_class
        assert schema.get_class("WorksFor").is_relationship_class


class TestSubtreeNames:
    """Polymorphic extents span the subtree names each class keeps."""

    def test_subclass_registered_after_first_use(self):
        schema = Schema()
        schema.define_class("A", [Attribute("n", T.INTEGER)])
        schema.define_class("B", superclasses=("A",))
        schema.define_relationship("R", "A", "A")
        a, b = schema.create("A", n=1), schema.create("B", n=2)
        schema.relate("R", a, b)
        assert [o.oid for o in schema.extent("A")] == [a.oid, b.oid]
        assert schema.count("A") == 2
        assert len(schema.relationships.outgoing(a.oid, "R")) == 1
        # Diamond: D reaches A through both B and C, and is listed once.
        schema.define_class("C", superclasses=("A",))
        schema.define_class("D", superclasses=("B", "C"))
        schema.define_relationship("S", "A", "A", superclasses=("R",))
        d = schema.create("D", n=4)
        schema.relate("S", a, d)
        assert [o.oid for o in schema.extent("A")] == [a.oid, b.oid, d.oid]
        assert [o.oid for o in schema.extent("C")] == [d.oid]
        assert schema.count("A") == 3 and schema.count("B") == 2
        assert schema.count("A", polymorphic=False) == 1
        assert len(schema.relationships.outgoing(a.oid, "R")) == 2
        assert schema.get_class("A").subtree_names == ["A", "B", "C", "D"]
        assert {k.name for k in schema.get_class("A").descendants()} == set(
            schema.get_class("A").subtree_names
        )
