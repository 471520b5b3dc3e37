"""The benchmark's own seeded flora generator.

``plan_flora`` turns a seed and a shape into a :class:`FloraPlan` — pure
data, no database — so the program under test only ever sees generated
inputs, and the oracle can count what *should* exist without asking the
database.  ``FloraBuilder`` applies a plan through the public
``TaxonomyDatabase`` operations (the revising taxonomist's write path);
``load_sharded`` applies the same plan through a ``ShardedDatabase``.

``repro.taxonomy.generate_flora`` is not used: past a few hundred names
its collision suffix breaks the rank ending (see README, "Known src/
bugs").  Epithets here are unique and rank-valid at any size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator

_ONSETS = (
    "ab", "ac", "al", "am", "an", "ar", "as", "bel", "ber", "bor", "cal",
    "cam", "car", "cer", "cor", "dal", "del", "dor", "el", "er", "fal",
    "fer", "gal", "ger", "hal", "hel", "il", "ir", "jun", "kal", "lam",
    "lar", "lin", "mal", "mel", "mor", "nar", "nep", "nor", "ol", "or",
    "pal", "per", "pol", "qui", "ral", "ros", "sal", "ser", "sol", "tal",
    "ter", "tor", "ul", "ur", "val", "ver", "vol", "wal", "xer", "yal",
    "zan", "zor",
)
_MIDDLES = (
    "a", "e", "i", "o", "u", "an", "en", "in", "on", "ar", "er", "ir",
    "or", "al", "el", "il", "ol", "at", "et", "it", "ot", "ad", "id",
    "am", "em", "im", "om", "as", "es", "is",
)
_GENUS_ENDINGS = ("um", "a", "us", "ia", "is", "on")
_SPECIES_ENDINGS = (
    "ensis", "atum", "iflora", "oides", "ella", "osum", "icum", "aris",
    "anum", "ifolia", "ata", "ina",
)
HERBARIA = ("B", "BM", "C", "E", "G", "K", "L", "LE", "MO", "NY", "P", "W")

RANK_FAMILY = "Familia"
RANK_GENUS = "Genus"
RANK_SPECIES = "Species"


@dataclass(frozen=True)
class SpecimenSpec:
    collector: str
    collection_number: str
    herbarium: str
    field_name: str


@dataclass(frozen=True)
class SpeciesSpec:
    epithet: str
    year: int
    specimens: tuple[SpecimenSpec, ...]


@dataclass(frozen=True)
class GenusSpec:
    epithet: str
    year: int
    species: tuple[SpeciesSpec, ...]


@dataclass(frozen=True)
class FamilySpec:
    epithet: str
    year: int
    genera: tuple[GenusSpec, ...]


@dataclass(frozen=True)
class FloraShape:
    """Size of a flora; the seed picks the names, never the shape."""

    name: str
    families: int
    genera_per_family: int
    species_per_genus: int
    specimens_per_species: int = 3

    @property
    def species(self) -> int:
        return self.families * self.genera_per_family * self.species_per_genus


# 1 041 / 2 082 names: well past the 256-entry response and plan caches.
FLORA_1K = FloraShape("flora-1k", 1, 40, 25)
FLORA_2K = FloraShape("flora-2k", 2, 40, 25)
# The fixed small world every traced run's layer probes use.
FLORA_PROBE = FloraShape("flora-probe", 1, 10, 25)


@dataclass(frozen=True)
class FloraPlan:
    shape: FloraShape
    seed: int
    families: tuple[FamilySpec, ...]

    def species(self) -> Iterator[tuple[FamilySpec, GenusSpec, SpeciesSpec]]:
        for family in self.families:
            for genus in family.genera:
                for species in genus.species:
                    yield family, genus, species


class Names:
    """Unique pseudo-Latin epithets: onset + middles + a rank ending.

    A collision re-draws; after a few collisions in a row the word grows
    a syllable, so the space never runs out and the ending is never
    touched.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: set[str] = set()

    def draw(self, endings: tuple[str, ...], capital: bool) -> str:
        rng = self._rng
        middles = 1
        misses = 0
        while True:
            word = rng.choice(_ONSETS) + "".join(
                rng.choice(_MIDDLES) for _ in range(middles)
            ) + rng.choice(endings)
            # A species epithet may equal a genus name but for the
            # capital; keep them apart so epithet lookups stay unique.
            if word not in self._used:
                self._used.add(word)
                return word.capitalize() if capital else word
            misses += 1
            if misses % 4 == 0:
                middles += 1


def plan_flora(shape: FloraShape, seed: int) -> FloraPlan:
    """The flora for ``(shape, seed)``: equal arguments, equal plan."""
    rng = random.Random(f"flora:{shape.name}:{seed}")
    names = Names(rng)
    families = []
    for _ in range(shape.families):
        family = names.draw(("aceae",), capital=True)
        genera = []
        for _ in range(shape.genera_per_family):
            genus = names.draw(_GENUS_ENDINGS, capital=True)
            species_list = []
            for _ in range(shape.species_per_genus):
                epithet = names.draw(_SPECIES_ENDINGS, capital=False)
                specimens = tuple(
                    SpecimenSpec(
                        collector=f"Collector {rng.randint(1, 60)}",
                        collection_number=f"{epithet}-{index}",
                        herbarium=rng.choice(HERBARIA),
                        field_name=f"{genus} {epithet}",
                    )
                    for index in range(shape.specimens_per_species)
                )
                species_list.append(
                    SpeciesSpec(epithet, rng.randint(1753, 1990), specimens)
                )
            genera.append(
                GenusSpec(genus, rng.randint(1753, 1900), tuple(species_list))
            )
        families.append(
            FamilySpec(family, rng.randint(1753, 1850), tuple(genera))
        )
    return FloraPlan(shape, seed, tuple(families))


# -- applying a plan through the taxonomy layer ------------------------------


@dataclass
class SpeciesHandle:
    epithet: str
    ct: int
    nt: int
    genus: int  # index into FloraBuilder.genera
    specimens: list[int] = field(default_factory=list)


@dataclass
class GenusHandle:
    epithet: str
    ct: int
    nt: int
    family: int
    species: list[int] = field(default_factory=list)  # indexes into .species


@dataclass
class FamilyHandle:
    epithet: str
    ct: int
    nt: int
    genera: list[int] = field(default_factory=list)


#: The three indexes the issue names, plus the two the workloads need to
#: be meaningful: a B-tree so a range query has an ordered access path,
#: and sheet numbers so a specimen resolves to its lineage by probe.
INDEXES = (
    ("NomenclaturalTaxon", "epithet", "hash"),
    ("Specimen", "herbarium", "hash"),
    ("CircumscriptionTaxon", "rank", "hash"),
    ("NomenclaturalTaxon", "year", "btree"),
    ("Specimen", "collection_number", "hash"),
)


def create_indexes(db: Any) -> None:
    for class_name, attribute, kind in INDEXES:
        db.indexes.create_index(class_name, attribute, kind=kind)


class FloraBuilder:
    """Applies plan pieces through ``TaxonomyDatabase`` and keeps the
    OIDs, so workloads can draw parameters and the oracle can count.
    """

    def __init__(self, taxdb: Any, classification: str = "generated flora"):
        from repro.taxonomy import HOLOTYPE

        self.taxdb = taxdb
        self.schema = taxdb.schema
        self.classification = taxdb.new_classification(
            classification, author="e2e generator", year=2000
        )
        self.holotype = HOLOTYPE
        self.families: list[FamilyHandle] = []
        self.genera: list[GenusHandle] = []
        self.species: list[SpeciesHandle] = []
        #: Generator-side tally of what must exist, per class.
        self.expected: dict[str, int] = {}

    def _count(self, **classes: int) -> None:
        for name, n in classes.items():
            self.expected[name] = self.expected.get(name, 0) + n

    def _named_taxon(self, epithet: str, rank: str, year: int, **name: Any):
        taxdb = self.taxdb
        nt = taxdb.publish_name(
            epithet, rank, author="Gen.", year=year, **name
        )
        ct = taxdb.new_taxon(rank, working_name=epithet)
        taxdb.ascribe_name(ct, nt)
        self._count(
            NomenclaturalTaxon=1, CircumscriptionTaxon=1, WorkingName=1,
            HasWorkingName=1, AscribedName=1,
        )
        return nt, ct

    def add_family(self, spec: FamilySpec) -> int:
        nt, ct = self._named_taxon(spec.epithet, RANK_FAMILY, spec.year)
        self.families.append(FamilyHandle(spec.epithet, ct.oid, nt.oid))
        return len(self.families) - 1

    def add_genus(self, family: int, spec: GenusSpec) -> int:
        taxdb, schema = self.taxdb, self.schema
        parent = self.families[family]
        nt, ct = self._named_taxon(spec.epithet, RANK_GENUS, spec.year)
        taxdb.place(
            self.classification, schema.get_object(parent.ct), ct,
            motivation="generated",
        )
        self._count(Includes=1)
        if not parent.genera:
            taxdb.typify(schema.get_object(parent.nt), nt, self.holotype)
            self._count(HasType=1)
        self.genera.append(GenusHandle(spec.epithet, ct.oid, nt.oid, family))
        parent.genera.append(len(self.genera) - 1)
        return len(self.genera) - 1

    def add_species(self, genus: int, spec: SpeciesSpec) -> int:
        """One species with its specimens: the ingest workload's op."""
        taxdb, schema = self.taxdb, self.schema
        parent = self.genera[genus]
        genus_nt = schema.get_object(parent.nt)
        nt, ct = self._named_taxon(
            spec.epithet, RANK_SPECIES, spec.year, placement=genus_nt
        )
        taxdb.place(
            self.classification, schema.get_object(parent.ct), ct,
            motivation="generated",
        )
        handle = SpeciesHandle(spec.epithet, ct.oid, nt.oid, genus)
        for index, specimen_spec in enumerate(spec.specimens):
            specimen = taxdb.new_specimen(
                collector=specimen_spec.collector,
                collection_number=specimen_spec.collection_number,
                herbarium=specimen_spec.herbarium,
                field_name=specimen_spec.field_name,
            )
            taxdb.place(self.classification, ct, specimen)
            if index == 0:
                taxdb.typify(nt, specimen, self.holotype)
            handle.specimens.append(specimen.oid)
        n = len(spec.specimens)
        self._count(
            NamePlacement=1, Includes=1 + n, Specimen=n,
            HasType=1 if n else 0,
        )
        if not parent.species:
            taxdb.typify(genus_nt, nt, self.holotype)
            self._count(HasType=1)
        self.species.append(handle)
        parent.species.append(len(self.species) - 1)
        return len(self.species) - 1

    def add_all(self, plan: FloraPlan) -> "FloraBuilder":
        for family_spec in plan.families:
            family = self.add_family(family_spec)
            for genus_spec in family_spec.genera:
                genus = self.add_genus(family, genus_spec)
                for species_spec in genus_spec.species:
                    self.add_species(genus, species_spec)
        return self

    @property
    def expected_records(self) -> int:
        return sum(self.expected.values())


def new_database(path: Any = None, read_only: bool = False) -> Any:
    """A ``PrometheusDB`` as every workload opens one: telemetry off,
    and — when it has a path — fsync on every commit.

    Each database gets its *own* disabled telemetry facade.  The shared
    ``repro.telemetry.DISABLED`` singleton collects a scrape-time
    collector from every database ever wired to it, so ``GET /health``
    slows down with each database the process has created, dead ones
    included (README, "Known src/ bugs").
    """
    from repro.engine import PrometheusDB
    from repro.telemetry import Telemetry

    return PrometheusDB(
        path, sync=path is not None, read_only=read_only,
        telemetry=Telemetry(enabled=False),
    )


def open_taxonomy(db: Any) -> Any:
    """Declare the taxonomy schema on a fresh ``PrometheusDB``, load its
    log, build the indexes; returns the ``TaxonomyDatabase`` facade.

    The facade comes last: it instantiates the classification manager,
    which reads its membership from metadata only ``load()`` brings in.
    """
    from repro.taxonomy import TaxonomyDatabase, define_taxonomy_schema

    define_taxonomy_schema(db.schema)
    db.load()
    create_indexes(db)
    return TaxonomyDatabase.over_engine(db)


def build_flora(db: Any, plan: FloraPlan) -> FloraBuilder:
    """Schema, indexes and the whole plan on a fresh ``PrometheusDB``;
    the caller commits."""
    return FloraBuilder(open_taxonomy(db)).add_all(plan)


# -- applying a plan through the sharding coordinator ------------------------


def load_sharded(sharded: Any, plan: FloraPlan) -> dict[str, list[int]]:
    """The same flora through ``ShardedDatabase.create/relate``.

    Sharding speaks OIDs, not the taxonomy facade, so this writes the
    records the facade would (minus working names, which no sharded
    query reads).  OIDs come from the coordinator's global allocator, so
    a 1-shard and a 4-shard load of one plan hold identical objects.
    """
    handles: dict[str, list[int]] = {
        "family_ct": [], "genus_ct": [], "species_ct": [], "species_nt": [],
        "specimen": [],
    }

    def named(epithet: str, rank: str, year: int) -> tuple[int, int]:
        nt = sharded.create(
            "NomenclaturalTaxon", epithet=epithet, rank=rank, author="Gen.",
            year=year, publication="", status="published",
        )
        ct = sharded.create(
            "CircumscriptionTaxon", rank=rank, notes=epithet, author="",
            publication="",
        )
        sharded.relate("AscribedName", ct, nt)
        return nt, ct

    for family in plan.families:
        _, family_ct = named(family.epithet, RANK_FAMILY, family.year)
        handles["family_ct"].append(family_ct)
        for genus in family.genera:
            genus_nt, genus_ct = named(genus.epithet, RANK_GENUS, genus.year)
            sharded.relate("Includes", family_ct, genus_ct)
            handles["genus_ct"].append(genus_ct)
            for species in genus.species:
                nt, ct = named(species.epithet, RANK_SPECIES, species.year)
                sharded.relate("NamePlacement", nt, genus_nt)
                sharded.relate("Includes", genus_ct, ct)
                handles["species_ct"].append(ct)
                handles["species_nt"].append(nt)
                for index, spec in enumerate(species.specimens):
                    specimen = sharded.create(
                        "Specimen", collector=spec.collector,
                        collection_number=spec.collection_number,
                        herbarium=spec.herbarium, field_name=spec.field_name,
                    )
                    sharded.relate("Includes", ct, specimen)
                    if index == 0:
                        sharded.relate(
                            "HasType", nt, specimen, type_kind="holotype"
                        )
                    handles["specimen"].append(specimen)
    sharded.commit()
    return handles
