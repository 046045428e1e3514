"""Designer-provided template annotations for the shipped datasets.

The paper's mechanism assumes that "labels are assigned once, e.g., by the
designer, at an initial design phase"; this module plays the designer's
role for the three shipped schemas.  The movie annotations reproduce the
Section 2.2 examples verbatim: the DIRECTOR birth templates, the
``MOVIE_LIST`` loop, and the "As a director, ... work includes ..." join
label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.catalog.schema import Schema
from repro.lexicon.lexicon import Lexicon, default_lexicon
from repro.templates.parser import parse_template
from repro.templates.registry import TemplateRegistry
from repro.templates.spec import ListTemplate

#: The MOVIE_LIST definition, in the paper's own DEFINE syntax.
MOVIE_LIST_DEFINITION = """
DEFINE MOVIE_LIST as
[i < arityOf(TITLE)]
{MOVIES.title[i] + " (" + MOVIES.year[i] + "), "}
[i = arityOf(TITLE)]
"and " + {MOVIES.title[i] + " (" + MOVIES.year[i] + ")"}
"""


@dataclass
class NarrationSpec:
    """Everything the content narrator needs for one schema.

    ``attribute_order`` optionally fixes the narration order of a
    relation's descriptive attributes (the paper narrates the director's
    birth location before the birth date).
    """

    schema: Schema
    registry: TemplateRegistry
    lexicon: Lexicon
    attribute_order: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def order_for(self, relation_name: str) -> Optional[Sequence[str]]:
        canonical = self.schema.relation(relation_name).name
        return self.attribute_order.get(canonical)


def default_spec(schema: Schema) -> NarrationSpec:
    """A spec with only derived defaults (no designer annotations)."""
    return NarrationSpec(
        schema=schema,
        registry=TemplateRegistry(schema),
        lexicon=default_lexicon(schema),
    )


def movie_spec(schema: Schema) -> NarrationSpec:
    """The Section 2.2 annotations for the Figure 1 movie schema."""
    registry = TemplateRegistry(schema)

    # Projection-edge labels for DIRECTOR: the two "was born" templates.
    registry.set_projection_template(
        "DIRECTOR",
        "blocation",
        parse_template(
            'DIRECTOR.name + " was born" + " in " + DIRECTOR.blocation',
            verb="was born",
        ),
    )
    registry.set_projection_template(
        "DIRECTOR",
        "bdate",
        parse_template(
            'DIRECTOR.name + " was born" + " on " + DIRECTOR.bdate',
            verb="was born",
        ),
    )

    # Projection-edge label for MOVIES.year, used by the procedural mode
    # ("Match Point was released in 2005.").
    registry.set_projection_template(
        "MOVIES",
        "year",
        parse_template(
            'MOVIES.title + " was released in " + MOVIES.year',
            verb="was released in",
        ),
    )

    # Relation-node labels (alternative (a): heading-only sentences).
    registry.set_relation_template(
        "DIRECTOR",
        parse_template('"the director\'s name is " + DIRECTOR.name'),
    )
    registry.set_relation_template(
        "MOVIES",
        parse_template('"the movie " + MOVIES.title + " (" + MOVIES.year + ")"'),
    )
    registry.set_relation_template(
        "ACTOR",
        parse_template('"the actor\'s name is " + ACTOR.name'),
    )

    # The MOVIE_LIST loop.  The same definition can be written in the paper's
    # DEFINE syntax (see MOVIE_LIST_DEFINITION and its parser tests); here it
    # is constructed directly with ", " separators and a ", and " before the
    # final item, which is how the paper's narrative punctuates the list.
    movie_item = parse_template('MOVIES.title + " (" + MOVIES.year + ")"')
    movie_list = ListTemplate(
        name="MOVIE_LIST",
        item=movie_item,
        last_item=movie_item,
        separator=", ",
        last_separator=", and ",
        pair_separator=" and ",
    )
    registry.set_list_template(movie_list)

    registry.set_join_template(
        "DIRECTOR",
        "MOVIES",
        parse_template(
            '"As a director, " + DIRECTOR.name + "\'s work includes " + MOVIE_LIST',
        ),
    )
    registry.set_join_template(
        "ACTOR",
        "MOVIES",
        parse_template(
            '"As an actor, " + ACTOR.name + " appears in " + MOVIE_LIST',
        ),
    )
    registry.set_join_template(
        "MOVIES",
        "GENRE",
        parse_template(
            '"the genre of the movie " + MOVIES.title + " is " + GENRE.genre',
        ),
    )

    lexicon = default_lexicon(schema)
    lexicon.set_concept("MOVIES", "movie", "movies")
    lexicon.set_concept("GENRE", "genre", "genres")
    lexicon.set_relationship_verb("ACTOR", "MOVIES", "plays in")
    lexicon.set_relationship_verb("DIRECTOR", "MOVIES", "directed")
    lexicon.set_caption("MOVIES", "year", "release year")
    lexicon.set_caption("DIRECTOR", "bdate", "birth date")
    lexicon.set_caption("DIRECTOR", "blocation", "birth location")

    return NarrationSpec(
        schema=schema,
        registry=registry,
        lexicon=lexicon,
        attribute_order={"DIRECTOR": ("blocation", "bdate")},
    )


def employee_spec(schema: Schema) -> NarrationSpec:
    """Annotations for the EMP/DEPT schema of Section 3.1."""
    registry = TemplateRegistry(schema)
    registry.set_projection_template(
        "EMP",
        "sal",
        parse_template('EMP.name + " earns " + EMP.sal', verb="earns"),
    )
    registry.set_projection_template(
        "EMP",
        "age",
        parse_template('EMP.name + " is " + EMP.age + " years old"', verb="is"),
    )
    registry.set_relation_template(
        "EMP", parse_template('"the employee\'s name is " + EMP.name')
    )
    registry.set_relation_template(
        "DEPT",
        parse_template('"the department " + DEPT.dname'),
    )
    lexicon = default_lexicon(schema)
    lexicon.set_concept("EMP", "employee", "employees")
    lexicon.set_concept("DEPT", "department", "departments")
    lexicon.set_caption("EMP", "sal", "salary")
    return NarrationSpec(schema=schema, registry=registry, lexicon=lexicon)


def library_spec(schema: Schema) -> NarrationSpec:
    """Annotations for the digital-library schema of Section 2.1."""
    registry = TemplateRegistry(schema)
    registry.set_projection_template(
        "ITEM",
        "year",
        parse_template(
            'ITEM.title + " was published in " + ITEM.year',
            verb="was published in",
        ),
    )
    registry.set_projection_template(
        "AUTHOR",
        "country",
        parse_template(
            'AUTHOR.name + " comes from " + AUTHOR.country',
            verb="comes from",
        ),
    )
    library_item = parse_template('ITEM.title + " (" + ITEM.year + ")"')
    registry.set_list_template(
        ListTemplate(
            name="ITEM_LIST",
            item=library_item,
            last_item=library_item,
            separator=", ",
            last_separator=", and ",
            pair_separator=" and ",
        )
    )
    registry.set_join_template(
        "AUTHOR",
        "ITEM",
        parse_template(
            '"As an author, " + AUTHOR.name + "\'s work includes " + ITEM_LIST',
        ),
    )
    registry.set_join_template(
        "COLLECTION",
        "ITEM",
        parse_template(
            '"the collection " + COLLECTION.name + " contains " + ITEM_LIST',
        ),
    )
    lexicon = default_lexicon(schema)
    lexicon.set_concept("COLLECTION", "collection", "collections")
    lexicon.set_concept("ITEM", "item", "items")
    lexicon.set_concept("AUTHOR", "author", "authors")
    return NarrationSpec(schema=schema, registry=registry, lexicon=lexicon)
