"""The Prometheus taxonomic model (thesis §2.3, Figure 6) as a database.

This module *is the application of the database to taxonomy*: it declares
the taxonomic schema — specimens, Nomenclatural Taxa (NTs),
Circumscription Taxa (CTs), working names — as Prometheus classes and
relationship classes, and wraps the generic machinery (classifications,
tracing, synonyms) in taxonomy-aware operations.

The nomenclatural side and the classification side are kept strictly
separate, connected only through specimens and ranks, exactly as Figure 6
prescribes:

* **NTs** record that a name was published at a rank, by an author, in a
  publication, with type designations (``HasType``) and, for multinomial
  names, a placement parent (``NamePlacement``) that records *only* a
  combination of names, never a classification statement.
* **CTs** record circumscriptions: sets of specimens and other CTs
  (``Includes`` edges, which are what classifications collect).  CTs may
  carry an *ascribed* name (historical data), a *calculated* name (the
  output of derivation) and a *working name* (pre-naming handle).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from ..classification import Classification, ClassificationManager, TraceLog
from ..core.attributes import Attribute
from ..core.instances import PObject
from ..core.relationships import RelationshipInstance
from ..core.schema import Schema
from ..core.semantics import Cardinality, RelationshipSemantics, RelKind
from ..errors import TaxonomyError, TypificationError
from ..storage.store import ObjectStore
from . import nomenclature
from .ranks import Rank, get_rank, validate_placement

if TYPE_CHECKING:  # pragma: no cover
    pass

# -- type designation kinds (thesis §2.1.2) ---------------------------------

HOLOTYPE = "holotype"
LECTOTYPE = "lectotype"
NEOTYPE = "neotype"
ISOTYPE = "isotype"
SYNTYPE = "syntype"

TYPE_KINDS = (HOLOTYPE, LECTOTYPE, NEOTYPE, ISOTYPE, SYNTYPE)

#: Kinds of which a name may carry at most one designation, and their
#: priority when deriving names (holotype wins, then lecto, then neo).
PRIMARY_TYPE_KINDS = (HOLOTYPE, LECTOTYPE, NEOTYPE)

# -- nomenclatural statuses ---------------------------------------------------

STATUS_PUBLISHED = "published"
STATUS_INVALID = "invalid"
STATUS_CONSERVED = "conserved"
STATUS_REJECTED = "rejected"

VALID_STATUSES = (
    STATUS_PUBLISHED,
    STATUS_INVALID,
    STATUS_CONSERVED,
    STATUS_REJECTED,
)

# -- class names -----------------------------------------------------------------

TAXONOMIC_OBJECT = "TaxonomicObject"
SPECIMEN = "Specimen"
NOMENCLATURAL_TAXON = "NomenclaturalTaxon"
CIRCUMSCRIPTION_TAXON = "CircumscriptionTaxon"
WORKING_NAME = "WorkingName"

INCLUDES = "Includes"
HAS_TYPE = "HasType"
NAME_PLACEMENT = "NamePlacement"
BASIONYM = "Basionym"
ASCRIBED_NAME = "AscribedName"
CALCULATED_NAME = "CalculatedName"
HAS_WORKING_NAME = "HasWorkingName"


def define_taxonomy_schema(schema: Schema) -> None:
    """Register the Prometheus taxonomic model classes on ``schema``."""
    from ..core import types as T

    schema.define_class(
        TAXONOMIC_OBJECT,
        abstract=True,
        doc="Root of all taxonomic entities",
    )
    schema.define_class(
        SPECIMEN,
        [
            Attribute("collector", T.STRING, doc="Collector name"),
            Attribute("collection_number", T.STRING),
            Attribute("herbarium", T.STRING, doc="Holding institution code"),
            Attribute("description", T.STRING),
            Attribute("collected", T.DATE),
            Attribute("field_name", T.STRING, doc="Name written on the sheet"),
        ],
        superclasses=(TAXONOMIC_OBJECT,),
        doc="A physical plant specimen — the objective fixed point (§2.1.3)",
    )
    schema.define_class(
        NOMENCLATURAL_TAXON,
        [
            Attribute("epithet", T.STRING, required=True),
            Attribute("rank", T.STRING, required=True),
            Attribute("author", T.STRING),
            Attribute("year", T.INTEGER),
            Attribute("publication", T.STRING),
            Attribute("status", T.STRING, default=STATUS_PUBLISHED),
        ],
        superclasses=(TAXONOMIC_OBJECT,),
        doc="A published name: epithet + rank + authorship + publication",
    )
    schema.define_class(
        WORKING_NAME,
        [Attribute("label", T.STRING, required=True)],
        superclasses=(TAXONOMIC_OBJECT,),
        doc="Pre-publication handle for a CT during a revision (§2.3)",
    )
    schema.define_class(
        CIRCUMSCRIPTION_TAXON,
        [
            Attribute("rank", T.STRING, required=True),
            Attribute("notes", T.STRING),
            Attribute("author", T.STRING),
            Attribute("publication", T.STRING),
        ],
        superclasses=(TAXONOMIC_OBJECT,),
        doc="A classification group defined by its circumscription",
    )
    schema.define_relationship(
        INCLUDES,
        CIRCUMSCRIPTION_TAXON,
        TAXONOMIC_OBJECT,
        semantics=RelationshipSemantics(
            kind=RelKind.AGGREGATION,
            shareable=True,  # overlap across classifications is the point
        ),
        attributes=[
            Attribute("motivation", T.STRING, doc="Why this placement (req. 4)")
        ],
        doc="Circumscription edge: a CT includes a specimen or another CT",
    )
    schema.define_relationship(
        HAS_TYPE,
        NOMENCLATURAL_TAXON,
        TAXONOMIC_OBJECT,
        semantics=RelationshipSemantics(
            kind=RelKind.ASSOCIATION,
            inherited_attributes=("type_kind",),
        ),
        attributes=[
            Attribute("type_kind", T.STRING, required=True),
            Attribute("designated_by", T.STRING),
            Attribute("designation_year", T.INTEGER),
        ],
        doc="Typification: the name's type is a specimen or a lower NT; "
        "the destination acquires the 'type_kind' role attribute (§4.4.5)",
    )
    schema.define_relationship(
        NAME_PLACEMENT,
        NOMENCLATURAL_TAXON,
        NOMENCLATURAL_TAXON,
        semantics=RelationshipSemantics(
            kind=RelKind.ASSOCIATION,
            cardinality=Cardinality(max_out=1),
        ),
        doc="Combination record: epithet used within a higher name; "
        "NOT a classification statement (§2.1.2)",
    )
    schema.define_relationship(
        BASIONYM,
        NOMENCLATURAL_TAXON,
        NOMENCLATURAL_TAXON,
        semantics=RelationshipSemantics(
            kind=RelKind.ASSOCIATION,
            cardinality=Cardinality(max_out=1),
            constant=True,  # a recombination's origin never changes
        ),
        doc="New combination → the name it was based on",
    )
    schema.define_relationship(
        ASCRIBED_NAME,
        CIRCUMSCRIPTION_TAXON,
        NOMENCLATURAL_TAXON,
        semantics=RelationshipSemantics(
            kind=RelKind.ASSOCIATION, cardinality=Cardinality(max_out=1)
        ),
        doc="Name given in the historical publication of the CT",
    )
    schema.define_relationship(
        CALCULATED_NAME,
        CIRCUMSCRIPTION_TAXON,
        NOMENCLATURAL_TAXON,
        semantics=RelationshipSemantics(
            kind=RelKind.ASSOCIATION, cardinality=Cardinality(max_out=1)
        ),
        doc="Name derived automatically from types + ICBN (§2.3)",
    )
    schema.define_relationship(
        HAS_WORKING_NAME,
        CIRCUMSCRIPTION_TAXON,
        WORKING_NAME,
        semantics=RelationshipSemantics(
            kind=RelKind.AGGREGATION,
            exclusive=True,
            lifetime_dependent=True,
            cardinality=Cardinality(max_out=1),
        ),
        doc="Temporary revision handle; dies with its CT",
    )


class TaxonomyDatabase:
    """Facade bundling schema, classifications and tracing for taxonomy.

    Usage::

        taxdb = TaxonomyDatabase()                     # in-memory
        taxdb = TaxonomyDatabase(ObjectStore(path))    # persistent
    """

    def __init__(
        self, store: ObjectStore | None = None, name: str = "taxonomy"
    ) -> None:
        self.schema = Schema(store, name=name)
        define_taxonomy_schema(self.schema)
        if store is not None:
            self.schema.load_all()
        self.classifications = ClassificationManager(self.schema)
        self.trace = TraceLog(self.schema)

    @classmethod
    def over_engine(cls, db: Any) -> "TaxonomyDatabase":
        """Build the taxonomy facade over a :class:`PrometheusDB`.

        The taxonomic classes are registered on the engine's schema (if
        not already present) and the engine's classification manager and
        trace log are shared, so POOL queries, indexes, views and rules
        all see the taxonomic data.  :meth:`commit` is then the engine's
        commit (lock, version stamps and chains): the engine's schema
        hands ``commit()`` to its transaction manager.
        """
        taxdb = cls.__new__(cls)
        taxdb.schema = db.schema
        if not taxdb.schema.has_class(TAXONOMIC_OBJECT):
            define_taxonomy_schema(taxdb.schema)
        taxdb.classifications = db.classifications
        taxdb.trace = db.trace
        return taxdb

    # -- generic plumbing -------------------------------------------------

    def commit(self) -> None:
        self.schema.commit()

    def abort(self) -> None:
        self.schema.abort()

    def is_specimen(self, obj: PObject) -> bool:
        return obj.pclass.is_subclass_of(self.schema.get_class(SPECIMEN))

    def is_ct(self, obj: PObject) -> bool:
        return obj.pclass.is_subclass_of(
            self.schema.get_class(CIRCUMSCRIPTION_TAXON)
        )

    def is_nt(self, obj: PObject) -> bool:
        return obj.pclass.is_subclass_of(
            self.schema.get_class(NOMENCLATURAL_TAXON)
        )

    # -- specimens -----------------------------------------------------------

    def new_specimen(self, **attrs: Any) -> PObject:
        return self.schema.create(SPECIMEN, **attrs)

    def specimens(self) -> list[PObject]:
        return self.schema.extent(SPECIMEN)

    # -- names (the nomenclatural side) -----------------------------------------

    def publish_name(
        self,
        epithet: str,
        rank: Rank | str,
        author: str = "",
        year: int | None = None,
        publication: str = "",
        placement: PObject | None = None,
        basionym: PObject | None = None,
        status: str = STATUS_PUBLISHED,
        validate: bool = True,
    ) -> PObject:
        """Publish a nomenclatural taxon.

        Args:
            epithet: the single-word epithet (validated per ICBN unless
                ``validate`` is False — historical data may predate the
                rules).
            rank: rank the name is published at.
            placement: parent NT for multinomial combinations.
            basionym: the original name, for new combinations.
        """
        resolved = get_rank(rank) if isinstance(rank, str) else rank
        if validate:
            nomenclature.validate_epithet(epithet, resolved)
        if status not in VALID_STATUSES:
            raise TaxonomyError(f"unknown nomenclatural status {status!r}")
        if placement is not None and not self.is_nt(placement):
            raise TaxonomyError("placement target must be an NT")
        nt = self.schema.create(
            NOMENCLATURAL_TAXON,
            epithet=epithet,
            rank=resolved.name,
            author=author,
            year=year,
            publication=publication,
            status=status,
        )
        if placement is not None:
            self.schema.relate(NAME_PLACEMENT, nt, placement)
        if basionym is not None:
            if not self.is_nt(basionym):
                raise TaxonomyError("basionym must be an NT")
            self.schema.relate(BASIONYM, nt, basionym)
        return nt

    def names(self) -> list[PObject]:
        return self.schema.extent(NOMENCLATURAL_TAXON)

    def find_names(
        self,
        epithet: str | None = None,
        rank: Rank | str | None = None,
        author: str | None = None,
    ) -> list[PObject]:
        rank_name = (
            (get_rank(rank) if isinstance(rank, str) else rank).name
            if rank is not None
            else None
        )
        out = []
        for nt in self.names():
            if epithet is not None and nt.get("epithet") != epithet:
                continue
            if rank_name is not None and nt.get("rank") != rank_name:
                continue
            if author is not None and nt.get("author") != author:
                continue
            out.append(nt)
        return out

    def placement_of(self, nt: PObject) -> PObject | None:
        """The parent NT of a combination, or None."""
        parents = nt.related(NAME_PLACEMENT, "out")
        return parents[0] if parents else None

    def basionym_of(self, nt: PObject) -> PObject | None:
        origins = nt.related(BASIONYM, "out")
        return origins[0] if origins else None

    def full_name(self, nt: PObject) -> str:
        """Render the complete name string, e.g.
        ``Heliosciadium repens (Jacq.)Lag.``."""
        parents: list[str] = []
        cursor = self.placement_of(nt)
        while cursor is not None:
            parents.insert(0, cursor.get("epithet"))
            cursor = self.placement_of(cursor)
        basionym = self.basionym_of(nt)
        basionym_author = basionym.get("author") if basionym is not None else ""
        return nomenclature.format_full_name(
            nt.get("epithet"),
            nt.get("rank"),
            author=nt.get("author") or "",
            parent_epithets=tuple(parents),
            basionym_author=basionym_author or "",
        )

    # -- typification ------------------------------------------------------------

    def typify(
        self,
        nt: PObject,
        target: PObject,
        kind: str,
        designated_by: str = "",
        year: int | None = None,
    ) -> RelationshipInstance:
        """Designate ``target`` (specimen or lower NT) as a type of ``nt``.

        Enforces §2.1.2: a name has at most one holotype OR lectotype OR
        neotype, but any number of isotypes and syntypes.
        """
        if kind not in TYPE_KINDS:
            raise TypificationError(f"unknown type kind {kind!r}")
        if not self.is_nt(nt):
            raise TypificationError("typified entity must be an NT")
        if not (self.is_specimen(target) or self.is_nt(target)):
            raise TypificationError(
                "a taxonomic type must be a specimen or an NT"
            )
        if kind in PRIMARY_TYPE_KINDS:
            for edge in nt.outgoing(HAS_TYPE):
                if edge.get("type_kind") in PRIMARY_TYPE_KINDS:
                    raise TypificationError(
                        f"name {nt.get('epithet')!r} already has a "
                        f"{edge.get('type_kind')}; only one of "
                        f"holotype/lectotype/neotype is allowed"
                    )
        return self.schema.relate(
            HAS_TYPE,
            nt,
            target,
            type_kind=kind,
            designated_by=designated_by,
            designation_year=year,
        )

    def types_of(self, nt: PObject) -> list[tuple[str, PObject]]:
        """All (kind, target) designations of ``nt``."""
        return [
            (edge.get("type_kind"), edge.destination_object())
            for edge in nt.outgoing(HAS_TYPE)
        ]

    def primary_type(self, nt: PObject) -> PObject | None:
        """The governing type: holotype, else lectotype, else neotype."""
        by_kind = {kind: target for kind, target in self.types_of(nt)}
        for kind in PRIMARY_TYPE_KINDS:
            if kind in by_kind:
                return by_kind[kind]
        return None

    def names_typified_by(self, target: PObject) -> list[PObject]:
        """NTs having ``target`` as one of their (primary) types."""
        out = []
        for edge in target.incoming(HAS_TYPE):
            if edge.get("type_kind") in PRIMARY_TYPE_KINDS:
                out.append(edge.origin_object())
        return out

    def type_role(self, obj: PObject) -> str | None:
        """The role an object acquired through typification, if any.

        Demonstrates attribute inheritance (§4.4.5): the ``type_kind``
        attribute lives on the HasType relationship and is acquired by
        the designated object.
        """
        try:
            return obj.get("type_kind")
        except Exception:
            return None

    # -- circumscription taxa (the classification side) ---------------------------

    def new_taxon(
        self,
        rank: Rank | str,
        working_name: str = "",
        notes: str = "",
        author: str = "",
        publication: str = "",
    ) -> PObject:
        """Create a circumscription taxon, optionally with a working name."""
        resolved = get_rank(rank) if isinstance(rank, str) else rank
        ct = self.schema.create(
            CIRCUMSCRIPTION_TAXON,
            rank=resolved.name,
            notes=notes,
            author=author,
            publication=publication,
        )
        if working_name:
            wn = self.schema.create(WORKING_NAME, label=working_name)
            self.schema.relate(HAS_WORKING_NAME, ct, wn)
        return ct

    def taxa(self) -> list[PObject]:
        return self.schema.extent(CIRCUMSCRIPTION_TAXON)

    def working_name_of(self, ct: PObject) -> str:
        names = ct.related(HAS_WORKING_NAME, "out")
        return names[0].get("label") if names else ""

    def ascribe_name(self, ct: PObject, nt: PObject) -> None:
        """Attach the historically-published name of a CT."""
        for edge in ct.outgoing(ASCRIBED_NAME):
            self.schema.unrelate(edge)
        self.schema.relate(ASCRIBED_NAME, ct, nt)

    def set_calculated_name(self, ct: PObject, nt: PObject) -> None:
        for edge in ct.outgoing(CALCULATED_NAME):
            self.schema.unrelate(edge)
        self.schema.relate(CALCULATED_NAME, ct, nt)

    def calculated_name(self, ct: PObject) -> PObject | None:
        names = ct.related(CALCULATED_NAME, "out")
        return names[0] if names else None

    def ascribed_name(self, ct: PObject) -> PObject | None:
        names = ct.related(ASCRIBED_NAME, "out")
        return names[0] if names else None

    def display_name(self, ct: PObject) -> str:
        """Best available label: calculated, else ascribed, else working."""
        nt = self.calculated_name(ct) or self.ascribed_name(ct)
        if nt is not None:
            return self.full_name(nt)
        return self.working_name_of(ct) or f"CT#{ct.oid}"

    # -- classifications -------------------------------------------------------

    def new_classification(
        self,
        name: str,
        author: str = "",
        year: int | None = None,
        publication: str = "",
        description: str = "",
    ) -> Classification:
        return self.classifications.create(
            name,
            author=author,
            year=year,
            publication=publication,
            description=description,
        )

    def place(
        self,
        classification: Classification | str,
        parent: PObject,
        child: PObject,
        motivation: str = "",
        actor: str = "",
    ) -> RelationshipInstance:
        """Place a specimen or CT inside a CT within one classification.

        Enforces the taxonomic placement rules:

        * the parent must be a CT;
        * if the child is a CT, its rank must be strictly below the
          parent's (ICBN rank order);
        * within one classification a node has a single parent
          (hierarchies are trees; overlap happens *across*
          classifications).
        """
        if isinstance(classification, str):
            classification = self.classifications.get(classification)
        if not self.is_ct(parent):
            raise TaxonomyError("placement parent must be a circumscription taxon")
        if not (self.is_ct(child) or self.is_specimen(child)):
            raise TaxonomyError(
                "only taxa and specimens can be placed in a classification"
            )
        if self.is_ct(child):
            validate_placement(parent.get("rank"), child.get("rank"))
        if classification.parents(child):
            raise TaxonomyError(
                f"{self.display_name(child) if self.is_ct(child) else child!r}"
                f" already has a parent in classification "
                f"{classification.name!r}"
            )
        edge = classification.place(
            INCLUDES, parent, child, motivation=motivation
        )
        self.trace.record(
            TraceLog.PLACE,
            classification.name,
            actor=actor,
            reason=motivation,
            subject_oid=child.oid,
            object_oid=parent.oid,
        )
        return edge

    # -- recursive extraction (requirement 9) ---------------------------------------

    def specimens_under(
        self, classification: Classification, ct: PObject
    ) -> list[PObject]:
        """All specimens at any depth below ``ct`` in ``classification``."""
        found = []
        for node in classification.descendants(ct):
            if self.is_specimen(node):
                found.append(node)
        return found

    def type_specimens_under(
        self, classification: Classification, ct: PObject
    ) -> list[tuple[PObject, PObject, str]]:
        """(specimen, NT, kind) triples for type specimens below ``ct``."""
        out = []
        for specimen in self.specimens_under(classification, ct):
            for edge in specimen.incoming(HAS_TYPE):
                out.append(
                    (specimen, edge.origin_object(), edge.get("type_kind"))
                )
        return out

    def taxa_at_rank(
        self, classification: Classification, rank: Rank | str
    ) -> list[PObject]:
        resolved = get_rank(rank) if isinstance(rank, str) else rank
        return [
            node
            for node in classification.nodes()
            if self.is_ct(node) and node.get("rank") == resolved.name
        ]

    def iter_taxa_top_down(
        self, classification: Classification
    ) -> Iterator[PObject]:
        """CTs of a classification ordered root-first (by depth)."""
        cts = [n for n in classification.nodes() if self.is_ct(n)]
        cts.sort(key=lambda ct: (classification.depth(ct), ct.oid))
        return iter(cts)
