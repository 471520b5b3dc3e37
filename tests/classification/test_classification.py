"""Classifications: membership, DAG invariants, overlap, persistence."""

import pytest

from repro.classification import ClassificationManager
from repro.errors import ClassificationError
from repro.storage.store import ObjectStore
from tests.classification.conftest import make_graph_schema


class TestMembership:
    def test_place_creates_and_attaches(self, manager, nodes):
        c = manager.create("c1")
        edge = c.place("Contains", nodes[0], nodes[1], motivation="test")
        assert edge in c
        assert len(c) == 1
        assert edge.get("motivation") == "test"

    def test_add_existing_edge(self, manager, nodes, graph_schema):
        c = manager.create("c1")
        edge = graph_schema.relate("Contains", nodes[0], nodes[1])
        c.add_edge(edge)
        assert edge in c
        c.add_edge(edge)  # idempotent
        assert len(c) == 1

    def test_remove_edge_keeps_edge_alive(self, manager, nodes):
        c = manager.create("c1")
        edge = c.place("Contains", nodes[0], nodes[1])
        c.remove_edge(edge)
        assert edge not in c
        assert not edge.deleted

    def test_deleted_edges_pruned_lazily(self, manager, nodes, graph_schema):
        c = manager.create("c1")
        edge = c.place("Contains", nodes[0], nodes[1])
        graph_schema.unrelate(edge)
        assert c.edges() == []
        assert len(c) == 0

    def test_abort_undoes_a_placement(self, manager, nodes, graph_schema):
        c = manager.create("c1")
        c.place("Contains", nodes[0], nodes[1])
        graph_schema.commit()
        c.place("Contains", nodes[1], nodes[2])
        graph_schema.abort()
        assert c.children(nodes[1]) == []
        assert len(c) == 1
        # the stale n1->n2 adjacency would refuse this as a cycle
        c.place("Contains", nodes[2], nodes[1])

    def test_unrelate_leaves_every_classification(
        self, manager, nodes, graph_schema
    ):
        c = manager.create("c1")
        other = manager.create("c2")
        edge = c.place("Contains", nodes[0], nodes[1])
        other.add_edge(edge)
        graph_schema.commit()
        graph_schema.unrelate(edge)
        for classification in (c, other):
            assert edge not in classification
            assert classification.children(nodes[0]) == []
            assert classification.parents(nodes[1]) == []
        c.place("Contains", nodes[1], nodes[0])  # no longer a cycle
        graph_schema.abort()
        for classification in (c, other):
            assert edge in classification
            assert classification.children(nodes[0]) == [nodes[1]]
        assert len(c) == 1 and len(other) == 1

    def test_second_edge_between_a_pair_keeps_adjacency(
        self, manager, nodes
    ):
        c = manager.create("c1")
        first = c.place("Contains", nodes[0], nodes[1])
        c.place("Contains", nodes[0], nodes[1])
        c.remove_edge(first)
        assert c.children(nodes[0]) == [nodes[1]]
        assert c.parents(nodes[1]) == [nodes[0]]

    def test_abort_undoes_a_removal(self, manager, nodes, graph_schema):
        c = manager.create("c1")
        edge = c.place("Contains", nodes[0], nodes[1])
        graph_schema.commit()
        c.remove_edge(edge)
        graph_schema.abort()
        assert edge in c
        assert c.children(nodes[0]) == [nodes[1]]

    def test_duplicate_name_rejected(self, manager):
        manager.create("c1")
        with pytest.raises(ClassificationError):
            manager.create("c1")

    def test_unknown_classification(self, manager):
        with pytest.raises(ClassificationError):
            manager.get("nope")


class TestDagInvariant:
    def test_self_loop_rejected(self, manager, nodes):
        c = manager.create("c1")
        with pytest.raises(ClassificationError):
            c.place("Contains", nodes[0], nodes[0])

    def test_cycle_rejected(self, manager, nodes):
        c = manager.create("c1")
        c.place("Contains", nodes[0], nodes[1])
        c.place("Contains", nodes[1], nodes[2])
        with pytest.raises(ClassificationError):
            c.place("Contains", nodes[2], nodes[0])

    def test_cycle_allowed_across_classifications(self, manager, nodes):
        """Overlap means edges may form cycles in the union — each
        classification alone stays acyclic."""
        c1, c2 = manager.create("c1"), manager.create("c2")
        c1.place("Contains", nodes[0], nodes[1])
        c2.place("Contains", nodes[1], nodes[0])
        assert len(c1) == len(c2) == 1

    def test_diamond_is_fine(self, manager, nodes):
        c = manager.create("c1")
        c.place("Contains", nodes[0], nodes[1])
        c.place("Contains", nodes[0], nodes[2])
        c.place("Contains", nodes[1], nodes[3])
        c.place("Contains", nodes[2], nodes[3])
        assert not c.is_tree()
        assert len(c) == 4


class TestNavigation:
    @pytest.fixture
    def tree(self, manager, nodes):
        #      n0
        #     /  \
        #    n1   n2
        #   /  \    \
        #  n3  n4    n5
        c = manager.create("tree")
        for parent, child in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]:
            c.place("Contains", nodes[parent], nodes[child])
        return c

    def test_children_parents(self, tree, nodes):
        assert tree.children(nodes[0]) == [nodes[1], nodes[2]]
        assert tree.parents(nodes[3]) == [nodes[1]]
        assert tree.children(nodes[5]) == []

    def test_roots_leaves(self, tree, nodes):
        assert tree.roots() == [nodes[0]]
        assert set(tree.leaves()) == {nodes[3], nodes[4], nodes[5]}

    def test_descendants(self, tree, nodes):
        descendants = set(tree.descendants(nodes[1]))
        assert descendants == {nodes[3], nodes[4]}
        assert set(tree.descendants(nodes[0])) == set(nodes[1:6])

    def test_ancestors(self, tree, nodes):
        assert set(tree.ancestors(nodes[3])) == {nodes[1], nodes[0]}
        assert list(tree.ancestors(nodes[0])) == []

    def test_depth(self, tree, nodes):
        assert tree.depth(nodes[0]) == 0
        assert tree.depth(nodes[1]) == 1
        assert tree.depth(nodes[3]) == 2

    def test_is_tree(self, tree):
        assert tree.is_tree()

    def test_node_listing(self, tree, nodes):
        assert tree.nodes() == nodes[:6]


class TestOverlapQueries:
    def test_shared_nodes_and_edges(self, manager, nodes, graph_schema):
        c1, c2 = manager.create("c1"), manager.create("c2")
        shared_edge = graph_schema.relate("Contains", nodes[0], nodes[1])
        c1.add_edge(shared_edge)
        c2.add_edge(shared_edge)
        c1.place("Contains", nodes[1], nodes[2])
        c2.place("Contains", nodes[1], nodes[3])
        assert manager.shared_edges("c1", "c2") == {shared_edge.oid}
        assert manager.shared_nodes("c1", "c2") == {nodes[0].oid, nodes[1].oid}
        assert manager.classifications_of_edge(shared_edge) == [c1, c2]
        assert manager.classifications_of_node(nodes[3]) == [c2]

    def test_drop_preserves_shared_edges(self, manager, nodes, graph_schema):
        c1, c2 = manager.create("c1"), manager.create("c2")
        shared = graph_schema.relate("Contains", nodes[0], nodes[1])
        c1.add_edge(shared)
        c2.add_edge(shared)
        only_c1 = c1.place("Contains", nodes[1], nodes[2])
        manager.drop("c1", delete_edges=True)
        assert "c1" not in manager
        assert not shared.deleted  # still used by c2
        assert only_c1.deleted


class TestRegistryRollback:
    def test_abort_undoes_a_create(self, tmp_path):
        path = tmp_path / "c.plog"
        store = ObjectStore(path)
        schema = make_graph_schema(store)
        manager = ClassificationManager(schema)
        manager.create("k", author="A")
        schema.abort()
        assert "k" not in manager
        assert len(manager) == 0
        schema.commit()
        store.close()

        store2 = ObjectStore(path)
        schema2 = make_graph_schema(store2)
        schema2.load_all()
        assert len(ClassificationManager(schema2)) == 0
        store2.close()

    def test_abort_undoes_a_drop(self, manager, nodes, graph_schema):
        c = manager.create("c1")
        edge = c.place("Contains", nodes[0], nodes[1])
        graph_schema.commit()
        manager.drop("c1", delete_edges=True)
        assert edge.deleted
        graph_schema.abort()
        assert manager.get("c1") is c
        assert [e.oid for e in c.edges()] == [edge.oid]
        assert graph_schema.has_object(edge.oid)


class TestPersistence:
    def test_classifications_survive_reopen(self, tmp_path):
        path = tmp_path / "c.plog"
        store = ObjectStore(path)
        schema = make_graph_schema(store)
        manager = ClassificationManager(schema)
        nodes = [schema.create("Node", label=f"n{i}") for i in range(3)]
        c = manager.create("Tutin 1968", author="Tutin", year=1968)
        c.place("Contains", nodes[0], nodes[1])
        c.place("Contains", nodes[0], nodes[2])
        schema.commit()
        store.close()

        store2 = ObjectStore(path)
        schema2 = make_graph_schema(store2)
        schema2.load_all()
        manager2 = ClassificationManager(schema2)
        c2 = manager2.get("Tutin 1968")
        assert c2.author == "Tutin"
        assert c2.year == 1968
        assert len(c2) == 2
        roots = c2.roots()
        assert [r.get("label") for r in roots] == ["n0"]
        assert len(c2.children(roots[0])) == 2
        store2.close()
