"""Template specifications: text parts, value slots and list templates.

The paper annotates schema-graph nodes and edges with *template labels*
such as::

    DNAME + " was born" + " in " + BLOCATION

and list templates with loops bounded by the arity of the data, such as
``MOVIE_LIST`` which renders ``"Match Point (2005), Melinda and Melinda
(2004), and Anything Else (2003)."``.  This module models both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.catalog.types import render_value
from repro.errors import TemplateInstantiationError


@dataclass(frozen=True)
class TextPart:
    """A literal piece of text inside a template."""

    text: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.text!r}"


@dataclass(frozen=True)
class SlotPart:
    """A placeholder filled from a tuple's attribute value.

    ``name`` is the attribute name (optionally ``RELATION.ATTRIBUTE``).
    ``index`` is used inside list templates to refer to the i-th tuple
    (the paper's ``TITLE[i]``); ``None`` means the current/only tuple.
    """

    name: str
    index: Optional[str] = None

    @property
    def attribute(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.index is not None:
            return f"{self.name}[{self.index}]"
        return self.name


TemplatePart = Union[TextPart, SlotPart]


@dataclass(frozen=True)
class Template:
    """A flat template: a concatenation of text and slot parts.

    ``predicate_verb`` is an optional linguistic hint: the verb that
    starts the predicate (e.g. ``"was born"``).  Compiling a template
    into clauses splits the verb off with it, so the common-expression
    aggregation of Section 2.2 can merge "DNAME was born in BLOCATION"
    with "DNAME was born on BDATE".
    """

    parts: Tuple[TemplatePart, ...]
    predicate_verb: Optional[str] = None

    def instantiate(self, values: Mapping[str, Any], strict: bool = True) -> str:
        """Fill the slots from ``values`` (keys matched case-insensitively)."""
        lowered = {str(k).lower(): v for k, v in values.items()}
        pieces: List[str] = []
        for part in self.parts:
            if isinstance(part, TextPart):
                pieces.append(part.text)
                continue
            value = self._lookup(part, lowered)
            if value is _MISSING:
                if strict:
                    raise TemplateInstantiationError(
                        f"no value supplied for template slot {part.name!r}"
                        f" (available: {sorted(lowered)})"
                    )
                value = ""
            pieces.append(render_value(value))
        return "".join(pieces)

    def _lookup(self, part: SlotPart, values: Dict[str, Any]) -> Any:
        for key in (part.name.lower(), part.attribute.lower()):
            if key in values:
                return values[key]
        # Qualified values ("DIRECTOR.name") matched by suffix.
        suffix_matches = [
            v for k, v in values.items() if k.rsplit(".", 1)[-1] == part.attribute.lower()
        ]
        if len(suffix_matches) == 1:
            return suffix_matches[0]
        return _MISSING

    def __str__(self) -> str:  # pragma: no cover - trivial
        return " + ".join(str(p) for p in self.parts)


class _Missing:
    pass


_MISSING = _Missing()


@dataclass(frozen=True)
class ListTemplate:
    """A template iterated over a sequence of tuples (the paper's MOVIE_LIST).

    ``item`` renders each non-final tuple, ``last_item`` renders the final
    tuple, ``separator`` joins non-final items and ``last_separator`` is
    placed before the final item — reproducing::

        DEFINE MOVIE_LIST as
        [i < arityOf(TITLE)] {TITLE[i] + " (" + YEAR[i] + "), "}
        [i = arityOf(TITLE)] " and " + {TITLE[i] + " (" + YEAR[i] + ").")}
    """

    name: str
    item: Template
    last_item: Optional[Template] = None
    separator: str = ""
    last_separator: str = " and "
    pair_separator: Optional[str] = None

    def instantiate(self, rows: Sequence[Mapping[str, Any]], strict: bool = True) -> str:
        """Render the list over ``rows`` with paper-style punctuation."""
        if not rows:
            return ""
        final_template = self.last_item or self.item
        rendered = [self.item.instantiate(row, strict=strict) for row in rows[:-1]]
        last = final_template.instantiate(rows[-1], strict=strict)
        if not rendered:
            return last
        if len(rendered) == 1 and self.pair_separator is not None:
            return rendered[0] + self.pair_separator + last
        return self.separator.join(rendered) + self.last_separator + last


def slot(name: str, index: Optional[str] = None) -> SlotPart:
    """Shorthand constructor for a :class:`SlotPart`."""
    return SlotPart(name, index)


def template(*parts: Union[str, TemplatePart], verb: Optional[str] = None) -> Template:
    """Build a template from a mix of plain strings and parts.

    Plain strings become text parts; use :func:`slot` for placeholders::

        template(slot("DNAME"), " was born in ", slot("BLOCATION"), verb="was born")
    """
    converted: List[TemplatePart] = []
    for part in parts:
        if isinstance(part, str):
            converted.append(TextPart(part))
        else:
            converted.append(part)
    return Template(parts=tuple(converted), predicate_verb=verb)
