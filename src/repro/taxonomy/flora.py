"""Synthetic flora generator for tests and benchmarks.

The thesis evaluates against revision-scale data ("families that contain
thousands of genera, and genera that contain hundreds of species",
§1.1).  This generator produces a seeded, parameterised flora: a
classification of Familia → Genus → Species circumscription taxa over
specimens, with the full nomenclatural apparatus (published names,
placements, typifications) so that name derivation, queries and the
benchmark harness all have realistic input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..classification import Classification
from ..core.instances import PObject
from .model import HOLOTYPE, TaxonomyDatabase

_LATIN_STEMS = (
    "api", "helio", "ranuncul", "camp", "card", "dro", "eri", "fum",
    "gali", "hyper", "iri", "junc", "lami", "malv", "nymph", "orchi",
    "papaver", "quer", "ros", "salic", "thali", "urtic", "viol", "zanni",
)

_SPECIES_SUFFIXES = (
    "ensis", "atum", "iflora", "oides", "ella", "osum", "icum",
    "aris", "anum", "ifolia",
)


@dataclass
class FloraParameters:
    """Shape of the generated flora."""

    families: int = 2
    genera_per_family: int = 3
    species_per_genus: int = 4
    specimens_per_species: int = 3
    seed: int = 20020104  # thesis submission date

    @property
    def total_species(self) -> int:
        return self.families * self.genera_per_family * self.species_per_genus

    @property
    def total_specimens(self) -> int:
        return self.total_species * self.specimens_per_species


@dataclass
class Flora:
    """A generated flora: database plus handles for workloads."""

    taxdb: TaxonomyDatabase
    classification: Classification
    params: FloraParameters
    family_taxa: list[PObject] = field(default_factory=list)
    genus_taxa: list[PObject] = field(default_factory=list)
    species_taxa: list[PObject] = field(default_factory=list)
    specimens: list[PObject] = field(default_factory=list)


def _epithet(rng: random.Random, rank: str, used: set[str]) -> str:
    """Generate a fresh pseudo-Latin epithet of the right shape."""
    while True:
        stem = rng.choice(_LATIN_STEMS)
        if rank == "Familia":
            ending = "aceae"
        elif rank == "Genus":
            ending = rng.choice(("um", "a", "us", "ia"))
        else:
            ending = rng.choice(_SPECIES_SUFFIXES)
        if rank != "Species":
            stem = stem.capitalize()
        name = stem + ending
        if name in used:
            # Disambiguate the stem, not the finished name: the rank
            # ending (``-aceae``) has to stay last.
            name = stem + rng.choice("abcdefgh") + ending
        if name not in used:
            used.add(name)
            return name


def generate_flora(
    params: FloraParameters | None = None,
    taxdb: TaxonomyDatabase | None = None,
    classification_name: str = "generated flora",
) -> Flora:
    """Generate a complete flora per ``params`` (deterministic by seed)."""
    params = params or FloraParameters()
    taxdb = taxdb or TaxonomyDatabase()
    rng = random.Random(params.seed)
    used_names: set[str] = set()
    classification = taxdb.new_classification(
        classification_name,
        author="generator",
        year=2000,
        description=f"synthetic flora {params}",
    )
    flora = Flora(taxdb=taxdb, classification=classification, params=params)

    for _ in range(params.families):
        family_epithet = _epithet(rng, "Familia", used_names)
        family_nt = taxdb.publish_name(
            family_epithet, "Familia", author="Gen.", year=rng.randint(1753, 1850)
        )
        family_ct = taxdb.new_taxon("Familia", working_name=family_epithet)
        taxdb.ascribe_name(family_ct, family_nt)
        flora.family_taxa.append(family_ct)
        first_genus_nt: PObject | None = None

        for _ in range(params.genera_per_family):
            genus_epithet = _epithet(rng, "Genus", used_names)
            genus_nt = taxdb.publish_name(
                genus_epithet, "Genus", author="Gen.",
                year=rng.randint(1753, 1900),
            )
            genus_ct = taxdb.new_taxon("Genus", working_name=genus_epithet)
            taxdb.ascribe_name(genus_ct, genus_nt)
            taxdb.place(
                classification, family_ct, genus_ct, motivation="generated"
            )
            flora.genus_taxa.append(genus_ct)
            first_species_nt: PObject | None = None

            for _ in range(params.species_per_genus):
                species_epithet = _epithet(rng, "Species", used_names)
                species_nt = taxdb.publish_name(
                    species_epithet,
                    "Species",
                    author="Gen.",
                    year=rng.randint(1753, 1990),
                    placement=genus_nt,
                )
                species_ct = taxdb.new_taxon(
                    "Species", working_name=species_epithet
                )
                taxdb.ascribe_name(species_ct, species_nt)
                taxdb.place(
                    classification, genus_ct, species_ct,
                    motivation="generated",
                )
                flora.species_taxa.append(species_ct)

                for index in range(params.specimens_per_species):
                    specimen = taxdb.new_specimen(
                        collector=f"Collector {rng.randint(1, 40)}",
                        collection_number=f"{species_epithet}-{index}",
                        herbarium=rng.choice(("E", "K", "BM", "P", "B")),
                        field_name=f"{genus_epithet} {species_epithet}",
                    )
                    taxdb.place(classification, species_ct, specimen)
                    flora.specimens.append(specimen)
                    if index == 0:
                        taxdb.typify(species_nt, specimen, HOLOTYPE)
                if first_species_nt is None:
                    first_species_nt = species_nt
            if first_species_nt is not None:
                taxdb.typify(genus_nt, first_species_nt, HOLOTYPE)
            if first_genus_nt is None:
                first_genus_nt = genus_nt
        if first_genus_nt is not None:
            taxdb.typify(family_nt, first_genus_nt, HOLOTYPE)
    return flora
