"""Database schema: a named collection of relations and foreign keys."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.foreign_key import ForeignKey
from repro.catalog.relation import Relation
from repro.errors import (
    DuplicateRelationError,
    InvalidForeignKeyError,
    InvalidSchemaError,
    UnknownRelationError,
)


class Schema:
    """An immutable database schema.

    The schema is the source of truth for both the storage engine (which
    tables exist, what their constraints are) and the schema graph (which
    join edges exist).  Construction validates every foreign key against
    the relations it references.
    """

    def __init__(
        self,
        name: str,
        relations: Sequence[Relation],
        foreign_keys: Sequence[ForeignKey] = (),
        description: str = "",
    ) -> None:
        if not name:
            raise ValueError("schema name must be non-empty")
        self.name = name
        self.description = description

        self._relations: Dict[str, Relation] = {}
        self._order: List[str] = []
        for relation in relations:
            if relation.name in self._relations:
                raise DuplicateRelationError(
                    f"relation {relation.name!r} defined twice in schema {name!r}"
                )
            self._relations[relation.name] = relation
            self._order.append(relation.name)

        # The schema is immutable, so case-insensitive relation lookup and
        # the per-relation foreign-key groupings are precomputed once
        # instead of scanned per call (they sit on the translation and
        # narration hot paths).
        self._lowered: Dict[str, Relation] = {}
        for rel_name in self._order:  # first declaration wins on case collisions
            self._lowered.setdefault(rel_name.lower(), self._relations[rel_name])

        self._foreign_keys: Tuple[ForeignKey, ...] = tuple(foreign_keys)
        for fk in self._foreign_keys:
            self._validate_foreign_key(fk)

        self._fks_from: Dict[str, Tuple[ForeignKey, ...]] = {}
        self._fks_to: Dict[str, Tuple[ForeignKey, ...]] = {}
        for fk in self._foreign_keys:
            self._fks_from[fk.source_relation] = (
                self._fks_from.get(fk.source_relation, ()) + (fk,)
            )
            self._fks_to[fk.target_relation] = (
                self._fks_to.get(fk.target_relation, ()) + (fk,)
            )
        self._fks_between: Dict[Tuple[str, str], Tuple[ForeignKey, ...]] = {}

    # ------------------------------------------------------------------
    # Relation access
    # ------------------------------------------------------------------

    @property
    def relations(self) -> Tuple[Relation, ...]:
        return tuple(self._relations[name] for name in self._order)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def has_relation(self, name: str) -> bool:
        return self._find(name) is not None

    def relation(self, name: str) -> Relation:
        """Look up a relation by (case-insensitive) name."""
        found = self._find(name)
        if found is None:
            raise UnknownRelationError(
                f"schema {self.name!r} has no relation {name!r}"
                f" (available: {', '.join(self._order)})"
            )
        return found

    def _find(self, name: str) -> Optional[Relation]:
        found = self._relations.get(name)
        if found is not None:
            return found
        return self._lowered.get(name.lower())

    # ------------------------------------------------------------------
    # Foreign keys
    # ------------------------------------------------------------------

    @property
    def foreign_keys(self) -> Tuple[ForeignKey, ...]:
        return self._foreign_keys

    def foreign_keys_from(self, relation_name: str) -> Tuple[ForeignKey, ...]:
        """Foreign keys whose source is ``relation_name``."""
        canonical = self.relation(relation_name).name
        return self._fks_from.get(canonical, ())

    def foreign_keys_to(self, relation_name: str) -> Tuple[ForeignKey, ...]:
        """Foreign keys whose target is ``relation_name``."""
        canonical = self.relation(relation_name).name
        return self._fks_to.get(canonical, ())

    def foreign_keys_between(
        self, first: str, second: str
    ) -> Tuple[ForeignKey, ...]:
        """Foreign keys connecting the two relations, in either direction."""
        a = self.relation(first).name
        b = self.relation(second).name
        cached = self._fks_between.get((a, b))
        if cached is None:
            cached = tuple(
                fk
                for fk in self._foreign_keys
                if {fk.source_relation, fk.target_relation} == {a, b}
                or (a == b and fk.source_relation == fk.target_relation == a)
            )
            self._fks_between[(a, b)] = cached
        return cached

    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        if not self.has_relation(fk.source_relation):
            raise InvalidForeignKeyError(
                f"foreign key {fk} references unknown source relation"
                f" {fk.source_relation!r}"
            )
        if not self.has_relation(fk.target_relation):
            raise InvalidForeignKeyError(
                f"foreign key {fk} references unknown target relation"
                f" {fk.target_relation!r}"
            )
        source = self.relation(fk.source_relation)
        target = self.relation(fk.target_relation)
        for attr in fk.source_attributes:
            if not source.has_attribute(attr):
                raise InvalidForeignKeyError(
                    f"foreign key {fk} references unknown attribute"
                    f" {fk.source_relation}.{attr}"
                )
        for attr in fk.target_attributes:
            if not target.has_attribute(attr):
                raise InvalidForeignKeyError(
                    f"foreign key {fk} references unknown attribute"
                    f" {fk.target_relation}.{attr}"
                )

    # ------------------------------------------------------------------
    # Whole-schema validation and derived views
    # ------------------------------------------------------------------

    def validate(self, require_primary_keys: bool = False) -> None:
        """Check schema-wide invariants.

        When ``require_primary_keys`` is true every relation must declare a
        primary key; join-edge construction and FK enforcement rely on it.
        """
        if require_primary_keys:
            missing = [r.name for r in self.relations if not r.primary_key]
            if missing:
                raise InvalidSchemaError(
                    "relations without a primary key: " + ", ".join(missing)
                )

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.has_relation(name)

    def __iter__(self) -> Iterable[Relation]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self._order)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Schema({self.name}: {len(self._order)} relations,"
            f" {len(self._foreign_keys)} foreign keys)"
        )
