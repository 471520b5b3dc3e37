"""The taxonomic model: names, typification, circumscriptions."""

import pytest

from repro.errors import TaxonomyError, TypificationError
from repro.taxonomy import (
    HOLOTYPE,
    ISOTYPE,
    LECTOTYPE,
    NEOTYPE,
    SYNTYPE,
    TaxonomyDatabase,
)


@pytest.fixture
def taxdb():
    return TaxonomyDatabase()


class TestNames:
    def test_publish_validates_epithet(self, taxdb):
        from repro.errors import NomenclatureError

        with pytest.raises(NomenclatureError):
            taxdb.publish_name("apium", "Genus")

    def test_publish_without_validation(self, taxdb):
        nt = taxdb.publish_name("apium", "Genus", validate=False)
        assert nt.get("epithet") == "apium"

    def test_unknown_status(self, taxdb):
        with pytest.raises(TaxonomyError):
            taxdb.publish_name("Apium", "Genus", status="dubious")

    def test_placement_chain_in_full_name(self, taxdb):
        genus = taxdb.publish_name("Apium", "Genus", author="L.", year=1753)
        species = taxdb.publish_name(
            "graveolens", "Species", author="L.", year=1753, placement=genus
        )
        assert taxdb.full_name(species) == "Apium graveolens L."
        assert taxdb.full_name(genus) == "Apium L."

    def test_basionym_authorship(self, taxdb):
        basionym = taxdb.publish_name("repens", "Species", author="Jacq.")
        genus = taxdb.publish_name("Apium", "Genus", author="L.")
        combo = taxdb.publish_name(
            "repens", "Species", author="Lag.",
            placement=genus, basionym=basionym,
        )
        assert taxdb.full_name(combo) == "Apium repens (Jacq.)Lag."

    def test_placement_must_be_nt(self, taxdb):
        specimen = taxdb.new_specimen()
        with pytest.raises(TaxonomyError):
            taxdb.publish_name("Apium", "Genus", placement=specimen)

    def test_find_names(self, taxdb):
        taxdb.publish_name("Apium", "Genus", author="L.")
        taxdb.publish_name("Bpium", "Genus", author="K.", validate=False)
        assert len(taxdb.find_names(rank="Genus")) == 2
        assert len(taxdb.find_names(epithet="Apium")) == 1
        assert len(taxdb.find_names(author="K.")) == 1


class TestTypification:
    def test_holotype_designation(self, taxdb):
        nt = taxdb.publish_name("Apium", "Genus")
        specimen = taxdb.new_specimen(collector="L.")
        taxdb.typify(nt, specimen, HOLOTYPE)
        assert taxdb.primary_type(nt) == specimen
        assert taxdb.types_of(nt) == [(HOLOTYPE, specimen)]

    def test_only_one_primary_type(self, taxdb):
        nt = taxdb.publish_name("Apium", "Genus")
        s1, s2 = taxdb.new_specimen(), taxdb.new_specimen()
        taxdb.typify(nt, s1, HOLOTYPE)
        for kind in (HOLOTYPE, LECTOTYPE, NEOTYPE):
            with pytest.raises(TypificationError):
                taxdb.typify(nt, s2, kind)

    def test_many_isotypes_and_syntypes(self, taxdb):
        nt = taxdb.publish_name("Apium", "Genus")
        for _ in range(3):
            taxdb.typify(nt, taxdb.new_specimen(), ISOTYPE)
        taxdb.typify(nt, taxdb.new_specimen(), SYNTYPE)
        assert len(taxdb.types_of(nt)) == 4

    def test_isotypes_do_not_govern(self, taxdb):
        nt = taxdb.publish_name("Apium", "Genus")
        iso = taxdb.new_specimen()
        taxdb.typify(nt, iso, ISOTYPE)
        assert taxdb.primary_type(nt) is None
        lecto = taxdb.new_specimen()
        taxdb.typify(nt, lecto, LECTOTYPE)
        assert taxdb.primary_type(nt) == lecto

    def test_priority_holo_over_lecto(self, taxdb):
        # A name cannot have both, but priority is expressed in lookup
        # order; check lectotype alone governs, then is outranked in a
        # name that has a holotype.
        nt = taxdb.publish_name("Apium", "Genus")
        lecto = taxdb.new_specimen()
        taxdb.typify(nt, lecto, LECTOTYPE)
        assert taxdb.primary_type(nt) == lecto

    def test_nt_as_type(self, taxdb):
        genus = taxdb.publish_name("Apium", "Genus")
        species = taxdb.publish_name("graveolens", "Species")
        taxdb.typify(genus, species, HOLOTYPE)
        assert taxdb.primary_type(genus) == species
        assert taxdb.names_typified_by(species) == [genus]

    def test_unknown_kind(self, taxdb):
        nt = taxdb.publish_name("Apium", "Genus")
        with pytest.raises(TypificationError):
            taxdb.typify(nt, taxdb.new_specimen(), "paratype")

    def test_type_must_be_specimen_or_nt(self, taxdb):
        nt = taxdb.publish_name("Apium", "Genus")
        ct = taxdb.new_taxon("Genus")
        with pytest.raises(TypificationError):
            taxdb.typify(nt, ct, HOLOTYPE)

    def test_role_acquisition(self, taxdb):
        """A specimen used as a type acquires the type_kind role (§4.4.5)."""
        nt = taxdb.publish_name("Apium", "Genus")
        specimen = taxdb.new_specimen()
        assert taxdb.type_role(specimen) is None
        taxdb.typify(nt, specimen, HOLOTYPE)
        assert taxdb.type_role(specimen) == HOLOTYPE
        assert specimen.get("type_kind") == HOLOTYPE


class TestTaxaAndPlacement:
    def test_working_name(self, taxdb):
        ct = taxdb.new_taxon("Genus", working_name="Taxon 1")
        assert taxdb.working_name_of(ct) == "Taxon 1"
        assert taxdb.display_name(ct) == "Taxon 1"

    def test_working_name_dies_with_taxon(self, taxdb):
        ct = taxdb.new_taxon("Genus", working_name="W")
        assert taxdb.schema.count("WorkingName") == 1
        taxdb.schema.delete(ct)
        assert taxdb.schema.count("WorkingName") == 0

    def test_place_enforces_rank_order(self, taxdb):
        c = taxdb.new_classification("c")
        genus = taxdb.new_taxon("Genus")
        family = taxdb.new_taxon("Familia")
        from repro.errors import RankOrderError

        with pytest.raises(RankOrderError):
            taxdb.place(c, genus, family)

    def test_place_single_parent_per_classification(self, taxdb):
        c = taxdb.new_classification("c")
        g1, g2 = taxdb.new_taxon("Genus"), taxdb.new_taxon("Genus")
        sp = taxdb.new_taxon("Species")
        taxdb.place(c, g1, sp)
        with pytest.raises(TaxonomyError):
            taxdb.place(c, g2, sp)

    def test_same_taxon_in_two_classifications(self, taxdb):
        c1, c2 = taxdb.new_classification("a"), taxdb.new_classification("b")
        g1, g2 = taxdb.new_taxon("Genus"), taxdb.new_taxon("Genus")
        sp = taxdb.new_taxon("Species")
        taxdb.place(c1, g1, sp)
        taxdb.place(c2, g2, sp)  # overlap across classifications is fine
        assert c1.parents(sp) == [g1]
        assert c2.parents(sp) == [g2]

    def test_parent_must_be_ct(self, taxdb):
        c = taxdb.new_classification("c")
        s1, s2 = taxdb.new_specimen(), taxdb.new_specimen()
        with pytest.raises(TaxonomyError):
            taxdb.place(c, s1, s2)

    def test_nt_not_placeable(self, taxdb):
        c = taxdb.new_classification("c")
        g = taxdb.new_taxon("Genus")
        nt = taxdb.publish_name("Apium", "Genus")
        with pytest.raises(TaxonomyError):
            taxdb.place(c, g, nt)

    def test_place_records_trace(self, taxdb):
        c = taxdb.new_classification("c")
        g = taxdb.new_taxon("Genus")
        sp = taxdb.new_taxon("Species")
        taxdb.place(c, g, sp, motivation="petals", actor="me")
        entries = taxdb.trace.for_object(sp.oid)
        assert entries and entries[0].reason == "petals"

    def test_specimens_under_recursive(self, taxdb):
        c = taxdb.new_classification("c")
        family = taxdb.new_taxon("Familia")
        genus = taxdb.new_taxon("Genus")
        species = taxdb.new_taxon("Species")
        taxdb.place(c, family, genus)
        taxdb.place(c, genus, species)
        specimens = [taxdb.new_specimen() for _ in range(3)]
        for s in specimens:
            taxdb.place(c, species, s)
        assert set(taxdb.specimens_under(c, family)) == set(specimens)
        assert set(taxdb.specimens_under(c, species)) == set(specimens)

    def test_taxa_at_rank(self, taxdb):
        c = taxdb.new_classification("c")
        g = taxdb.new_taxon("Genus")
        s1, s2 = taxdb.new_taxon("Species"), taxdb.new_taxon("Species")
        taxdb.place(c, g, s1)
        taxdb.place(c, g, s2)
        assert taxdb.taxa_at_rank(c, "Species") == [s1, s2]
        assert taxdb.taxa_at_rank(c, "Genus") == [g]

    def test_iter_taxa_top_down(self, taxdb):
        c = taxdb.new_classification("c")
        family = taxdb.new_taxon("Familia")
        genus = taxdb.new_taxon("Genus")
        species = taxdb.new_taxon("Species")
        taxdb.place(c, family, genus)
        taxdb.place(c, genus, species)
        order = list(taxdb.iter_taxa_top_down(c))
        assert order == [family, genus, species]

    def test_ascribed_and_calculated_names(self, taxdb):
        ct = taxdb.new_taxon("Genus", working_name="w")
        nt1 = taxdb.publish_name("Apium", "Genus", author="L.")
        nt2 = taxdb.publish_name("Helosciadium", "Genus", author="K.")
        taxdb.ascribe_name(ct, nt1)
        assert taxdb.ascribed_name(ct) == nt1
        assert taxdb.display_name(ct) == "Apium L."
        taxdb.set_calculated_name(ct, nt2)
        assert taxdb.display_name(ct) == "Helosciadium K."
        # replacing is allowed
        taxdb.set_calculated_name(ct, nt1)
        assert taxdb.calculated_name(ct) == nt1


class TestPersistence:
    def test_taxonomy_roundtrip(self, tmp_path):
        from repro.storage.store import ObjectStore

        path = tmp_path / "tax.plog"
        store = ObjectStore(path)
        taxdb = TaxonomyDatabase(store)
        genus_nt = taxdb.publish_name("Apium", "Genus", author="L.", year=1753)
        specimen = taxdb.new_specimen(collector="L.")
        taxdb.typify(genus_nt, specimen, HOLOTYPE)
        c = taxdb.new_classification("rev", author="me")
        genus_ct = taxdb.new_taxon("Genus", working_name="G")
        taxdb.place(c, genus_ct, taxdb.new_taxon("Species", working_name="s"))
        taxdb.commit()
        store.close()

        store2 = ObjectStore(path)
        taxdb2 = TaxonomyDatabase(store2)
        assert len(taxdb2.names()) == 1
        nt = taxdb2.names()[0]
        assert taxdb2.full_name(nt) == "Apium L."
        assert taxdb2.primary_type(nt) is not None
        c2 = taxdb2.classifications.get("rev")
        assert len(c2) == 1
        assert taxdb2.working_name_of(c2.roots()[0]) == "G"
        assert len(taxdb2.trace) == 1
        store2.close()


class TestOverEnginePersistence:
    """``over_engine`` and ``load`` in either order see what was stored,
    and the facade's commit is the engine's."""

    @staticmethod
    def _populate(path):
        from repro.engine import PrometheusDB

        db = PrometheusDB(path)
        taxdb = TaxonomyDatabase.over_engine(db)
        c = taxdb.new_classification("rev", author="me")
        genus = taxdb.new_taxon("Genus", working_name="G")
        taxdb.place(c, genus, taxdb.new_taxon("Species", working_name="s"))
        taxdb.commit()
        assert db.transactions.commit_ts == 1  # went through db.commit()
        with db.snapshot() as snap:
            assert len(snap.classifications.get("rev")) == 1
        db.close()

    @pytest.mark.parametrize("facade_first", [True, False])
    def test_reopen_in_both_orders(self, tmp_path, facade_first):
        from repro.engine import PrometheusDB
        from repro.taxonomy import define_taxonomy_schema

        path = tmp_path / "tax.plog"
        self._populate(path)
        db = PrometheusDB(path)
        if facade_first:
            taxdb = TaxonomyDatabase.over_engine(db)
            assert "rev" not in taxdb.classifications  # nothing loaded yet
            db.load()
        else:
            define_taxonomy_schema(db.schema)
            db.load()
            taxdb = TaxonomyDatabase.over_engine(db)
        rev = taxdb.classifications.get("rev")
        assert len(rev) == 1
        assert taxdb.working_name_of(rev.roots()[0]) == "G"
        assert len(taxdb.trace) == 1
        # Edits after the reload still reach the stored journal/registry.
        taxdb.place(rev, rev.roots()[0], taxdb.new_taxon("Species"))
        taxdb.commit()
        db.close()
        again = PrometheusDB(path)
        define_taxonomy_schema(again.schema)
        again.load()
        assert len(again.classifications.get("rev")) == 2
        assert len(again.trace) == 2
        again.close()
