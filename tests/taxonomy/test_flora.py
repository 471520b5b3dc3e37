"""Synthetic flora generator: shape, determinism, derivability."""

import pytest

from repro.taxonomy import (
    FloraParameters,
    NameDeriver,
    generate_flora,
)


@pytest.fixture(scope="module")
def flora():
    return generate_flora(
        FloraParameters(
            families=2, genera_per_family=2, species_per_genus=3,
            specimens_per_species=2, seed=42,
        )
    )


class TestShape:
    def test_counts(self, flora):
        p = flora.params
        assert len(flora.family_taxa) == p.families
        assert len(flora.genus_taxa) == p.families * p.genera_per_family
        assert len(flora.species_taxa) == p.total_species
        assert len(flora.specimens) == p.total_specimens

    def test_classification_is_tree(self, flora):
        assert flora.classification.is_tree()
        assert len(flora.classification.roots()) == flora.params.families

    def test_every_species_typified(self, flora):
        taxdb = flora.taxdb
        for species_ct in flora.species_taxa:
            nt = taxdb.ascribed_name(species_ct)
            assert nt is not None
            assert taxdb.primary_type(nt) is not None

    def test_ranks_descend(self, flora):
        taxdb = flora.taxdb
        c = flora.classification
        for genus in flora.genus_taxa:
            parents = c.parents(genus)
            assert [p.get("rank") for p in parents] == ["Familia"]

    def test_epithets_validate(self, flora):
        from repro.taxonomy.nomenclature import epithet_problems

        for nt in flora.taxdb.names():
            assert epithet_problems(nt.get("epithet"), nt.get("rank")) is None


    def test_stem_collisions_keep_the_rank_ending(self):
        """4 families over 24 stems collide at this seed; the
        disambiguating letter must go into the stem, not after -aceae."""
        big = generate_flora(
            FloraParameters(families=4, genera_per_family=10,
                            species_per_genus=10)
        )
        names = big.taxdb.names()
        families = [n for n in names if n.get("rank") == "Familia"]
        assert len(families) == 4
        assert all(n.get("epithet").endswith("aceae") for n in families)
        epithets = [n.get("epithet") for n in names]
        assert len(epithets) == len(set(epithets)) == 4 + 40 + 400


class TestDeterminism:
    def test_same_seed_same_flora(self):
        params = FloraParameters(families=1, genera_per_family=2,
                                 species_per_genus=2, specimens_per_species=1)
        a = generate_flora(params)
        b = generate_flora(params)
        names_a = sorted(n.get("epithet") for n in a.taxdb.names())
        names_b = sorted(n.get("epithet") for n in b.taxdb.names())
        assert names_a == names_b

    def test_different_seed_differs(self):
        base = FloraParameters(families=1, genera_per_family=2,
                               species_per_genus=2, specimens_per_species=1)
        other = FloraParameters(families=1, genera_per_family=2,
                                species_per_genus=2, specimens_per_species=1,
                                seed=base.seed + 1)
        a = generate_flora(base)
        b = generate_flora(other)
        names_a = sorted(n.get("epithet") for n in a.taxdb.names())
        names_b = sorted(n.get("epithet") for n in b.taxdb.names())
        assert names_a != names_b


class TestDerivability:
    def test_derivation_reproduces_ascribed_names(self, flora):
        """The generated nomenclature is consistent: deriving names over
        the generated classification finds the ascribed names."""
        taxdb = flora.taxdb
        results = NameDeriver(taxdb, author="Check", year=2026).derive(
            flora.classification
        )
        assert all(r.succeeded for r in results)
        mismatch = 0
        for species_ct in flora.species_taxa:
            ascribed = taxdb.ascribed_name(species_ct)
            calculated = taxdb.calculated_name(species_ct)
            if ascribed.oid != calculated.oid:
                mismatch += 1
        assert mismatch == 0
