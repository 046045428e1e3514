"""Parser for the paper's textual template syntax.

Two forms are supported:

* flat concatenation templates, exactly as written in the paper::

      DNAME + " was born" + " in " + BLOCATION

  (identifiers become slots, quoted strings become text parts);

* list definitions with arity-bounded loops::

      DEFINE MOVIE_LIST as
      [i < arityOf(TITLE)]
      {TITLE[i] + " (" + YEAR[i] + "), "}
      [i = arityOf(TITLE)]
      " and " + {TITLE[i] + " (" + YEAR[i] + ".")}

  which produce :class:`repro.templates.spec.ListTemplate` objects.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import TemplateSyntaxError
from repro.templates.spec import ListTemplate, SlotPart, Template, TemplatePart, TextPart

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        "(?P<dq>(?:[^"\\]|\\.)*)"       # double-quoted text
      | '(?P<sq>(?:[^'\\]|\\.)*)'       # single-quoted text
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)  # slot
        (?:\[(?P<index>[A-Za-z_0-9]+)\])?                               # [i]
      | (?P<plus>\+)
    )
    """,
    re.VERBOSE,
)


def parse_template(text: str, verb: Optional[str] = None) -> Template:
    """Parse a flat concatenation template string into a :class:`Template`."""
    parts, _ = _parse_parts(text)
    if not parts:
        raise TemplateSyntaxError(f"empty template: {text!r}")
    return Template(parts=tuple(parts), predicate_verb=verb)


def _parse_parts(text: str) -> Tuple[List[TemplatePart], int]:
    parts: List[TemplatePart] = []
    pos = 0
    expecting_operand = True
    while pos < len(text):
        remainder = text[pos:]
        if not remainder.strip():
            break
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise TemplateSyntaxError(
                f"cannot parse template near {text[pos:pos + 20]!r}"
            )
        pos = match.end()
        if match.group("plus") is not None:
            expecting_operand = True
            continue
        if match.group("dq") is not None or match.group("sq") is not None:
            raw = match.group("dq") if match.group("dq") is not None else match.group("sq")
            parts.append(TextPart(_unescape(raw)))
        else:
            parts.append(SlotPart(match.group("ident"), match.group("index")))
        expecting_operand = False
    if expecting_operand and parts:
        raise TemplateSyntaxError(f"template ends with a dangling '+': {text!r}")
    return parts, pos


def _unescape(raw: str) -> str:
    return raw.replace('\\"', '"').replace("\\'", "'").replace("\\\\", "\\")


_DEFINE_RE = re.compile(
    r"^\s*DEFINE\s+(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s+as\s+(?P<body>.*)$",
    re.IGNORECASE | re.DOTALL,
)
_SECTION_RE = re.compile(
    r"\[\s*i\s*(?P<op><|=)\s*arityOf\(\s*(?P<attr>[A-Za-z_][A-Za-z_0-9]*)\s*\)\s*\]",
    re.IGNORECASE,
)


def parse_list_template(text: str) -> ListTemplate:
    """Parse a ``DEFINE name AS ...`` list template with arity-guarded sections.

    The ``[i < arityOf(X)]`` section provides the template for every item
    but the last; the ``[i = arityOf(X)]`` section provides the template
    for the last item, optionally prefixed by literal text (the paper's
    ``" and "``) that becomes the list's last separator.
    """
    match = _DEFINE_RE.match(text.strip())
    if match is None:
        raise TemplateSyntaxError("list template must start with 'DEFINE <name> as'")
    name = match.group("name")
    body = match.group("body")

    sections = _split_sections(body)
    if "<" not in sections or "=" not in sections:
        raise TemplateSyntaxError(
            "list template needs both an [i < arityOf(..)] and an [i = arityOf(..)] section"
        )

    item = _parse_braced_template(sections["<"])
    last_prefix, last_item = _parse_last_section(sections["="])
    return ListTemplate(
        name=name,
        item=item,
        last_item=last_item,
        separator="",
        last_separator=last_prefix,
    )


def _split_sections(body: str) -> dict:
    sections: dict = {}
    matches = list(_SECTION_RE.finditer(body))
    if not matches:
        raise TemplateSyntaxError("list template has no [i ... arityOf(...)] sections")
    for index, match in enumerate(matches):
        start = match.end()
        end = matches[index + 1].start() if index + 1 < len(matches) else len(body)
        sections[match.group("op")] = body[start:end].strip()
    return sections


def _parse_braced_template(section: str) -> Template:
    inner = _extract_braces(section)
    parts, _ = _parse_parts(inner)
    return Template(parts=tuple(parts))


def _parse_last_section(section: str) -> Tuple[str, Template]:
    """The last section may start with literal text before the braces."""
    brace_index = section.find("{")
    if brace_index < 0:
        raise TemplateSyntaxError("the [i = arityOf(..)] section must contain a {...} template")
    prefix_text = section[:brace_index].strip()
    prefix = ""
    if prefix_text:
        parts, _ = _parse_parts(prefix_text.rstrip("+").strip())
        prefix = "".join(p.text for p in parts if isinstance(p, TextPart))
    inner = _extract_braces(section[brace_index:])
    parts, _ = _parse_parts(inner)
    return prefix, Template(parts=tuple(parts))


def _extract_braces(section: str) -> str:
    start = section.find("{")
    end = section.rfind("}")
    if start < 0 or end < 0 or end <= start:
        raise TemplateSyntaxError(f"expected a braced template in {section!r}")
    return section[start + 1 : end]
