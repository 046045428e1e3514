"""Compiled templates: slot accessors resolved once, not per instantiation.

``Template.instantiate`` re-walks the part list on every call, lowering
the slot names and re-deriving the structural subject/verb/complement
split per tuple.  For narration over many tuples that is the front-end
equivalent of the interpreted expression evaluator, so this module mirrors
``repro/engine/compile.py``: a :class:`CompiledTemplate` is built once per
:class:`~repro.templates.spec.Template` (the registry memoizes it) with

* adjacent literal text parts merged into single constants,
* per-slot lookup keys (``name.lower()``, ``attribute.lower()``)
  precomputed,
* the structural split used by common-expression aggregation — leading
  slot, verb text, complement prefix — resolved at compile time, leaving
  only the slot lookups for narration time.

Compiled forms are byte-for-byte equivalent to the interpreted ones;
``tests/test_narration_frontend.py`` asserts this across every template
the shipped datasets register and across whole narratives.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.catalog.types import render_value
from repro.errors import TemplateInstantiationError
from repro.templates.spec import ListTemplate, SlotPart, Template, TextPart


class _SlotOp:
    """A compiled slot: the precomputed lookup keys for one placeholder."""

    __slots__ = ("name", "name_lower", "attribute_lower")

    def __init__(self, part: SlotPart) -> None:
        self.name = part.name
        self.name_lower = part.name.lower()
        self.attribute_lower = part.attribute.lower()


class CompiledTemplate:
    """A :class:`Template` compiled to a flat op list plus a precomputed split."""

    __slots__ = ("template", "_ops", "_split")

    def __init__(self, template: Template) -> None:
        self.template = template
        self._ops: Tuple[Union[str, _SlotOp], ...] = _compile_parts(template.parts)
        self._split = _compile_split(template)

    # ------------------------------------------------------------------

    def instantiate(self, values: Mapping[str, Any], strict: bool = True) -> str:
        """Byte-identical to ``self.template.instantiate(values, strict)``."""
        lowered = {str(k).lower(): v for k, v in values.items()}
        return self._render(lowered, strict)

    def _render(self, lowered: Dict[str, Any], strict: bool) -> str:
        pieces: List[str] = []
        append = pieces.append
        missing = _MISSING
        for op in self._ops:
            if op.__class__ is str:
                append(op)
                continue
            value = _resolve_slot(op, lowered)
            if value is missing:
                if strict:
                    raise TemplateInstantiationError(
                        f"no value supplied for template slot {op.name!r}"
                        f" (available: {sorted(lowered)})"
                    )
                value = ""
            append(render_value(value))
        return "".join(pieces)

    # ------------------------------------------------------------------

    def split_instantiate(
        self, values: Mapping[str, Any]
    ) -> Tuple[Optional[str], Optional[str], Optional[str]]:
        """Byte-identical to the interpreted structural split.

        Mirrors ``repro.content.single_relation._split_structurally``: the
        subject slot, verb text and complement prefix were resolved at
        compile time; only the subject and remainder lookups run here.
        """
        split = self._split
        if split is None:
            return None, None, None
        subject_op, verb, complement_prefix, remainder_compiled = split
        lowered = {str(k).lower(): v for k, v in values.items()}
        subject = _render_single(subject_op, lowered)
        remainder = ""
        if remainder_compiled is not None:
            remainder = remainder_compiled._render(lowered, False).strip()
        if complement_prefix:
            remainder = f"{complement_prefix} {remainder}".strip()
        if not verb and not remainder:
            return None, None, None
        return subject, verb, remainder

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CompiledTemplate({self.template})"


class _Missing:
    pass


_MISSING = _Missing()


def _compile_parts(parts: Sequence[Any]) -> Tuple[Union[str, _SlotOp], ...]:
    """Merge adjacent literals and precompute slot keys."""
    ops: List[Union[str, _SlotOp]] = []
    buffer: List[str] = []
    for part in parts:
        if isinstance(part, TextPart):
            buffer.append(part.text)
        else:
            if buffer:
                ops.append("".join(buffer))
                buffer = []
            ops.append(_SlotOp(part))
    if buffer:
        ops.append("".join(buffer))
    return tuple(ops)


def _resolve_slot(op: _SlotOp, lowered: Dict[str, Any]) -> Any:
    """The slot-resolution cascade, shared by every compiled render path.

    Mirrors ``Template._lookup`` (the interpreted oracle in ``spec.py``):
    the full slot name, then the bare attribute, then a unique
    dotted-suffix match; returns ``_MISSING`` when nothing resolves.
    """
    missing = _MISSING
    value = lowered.get(op.name_lower, missing)
    if value is missing:
        value = lowered.get(op.attribute_lower, missing)
    if value is missing:
        attribute = op.attribute_lower
        suffix_matches = [
            v for k, v in lowered.items() if k.rsplit(".", 1)[-1] == attribute
        ]
        if len(suffix_matches) == 1:
            value = suffix_matches[0]
    return value


def _render_single(op: _SlotOp, lowered: Dict[str, Any]) -> str:
    """Render one slot exactly like a single-slot non-strict instantiation."""
    value = _resolve_slot(op, lowered)
    if value is _MISSING:
        value = ""
    return render_value(value)


def _compile_split(template: Template):
    """Precompute the structural (subject, verb, remainder) decomposition."""
    parts = list(template.parts)
    if not parts or not isinstance(parts[0], SlotPart):
        return None
    subject_op = _SlotOp(parts[0])

    rest = parts[1:]
    verb_texts: List[str] = []
    while rest and isinstance(rest[0], TextPart):
        verb_texts.append(rest.pop(0).text)
    leading_text = "".join(verb_texts).strip()

    hint = (template.predicate_verb or "").strip()
    if hint and leading_text.lower().startswith(hint.lower()):
        verb = leading_text[: len(hint)]
        complement_prefix = leading_text[len(hint):].strip()
    else:
        verb = leading_text
        complement_prefix = ""

    remainder_compiled: Optional[CompiledTemplate] = None
    if rest:
        remainder_compiled = CompiledTemplate(Template(parts=tuple(rest)))
    return subject_op, verb, complement_prefix, remainder_compiled


class CompiledListTemplate:
    """A :class:`ListTemplate` with its item templates precompiled."""

    __slots__ = ("template", "_item", "_last_item")

    def __init__(self, template: ListTemplate) -> None:
        self.template = template
        self._item = CompiledTemplate(template.item)
        self._last_item = (
            CompiledTemplate(template.last_item)
            if template.last_item is not None
            else self._item
        )

    def instantiate(self, rows: Sequence[Mapping[str, Any]], strict: bool = True) -> str:
        """Byte-identical to ``self.template.instantiate(rows, strict)``."""
        if not rows:
            return ""
        template = self.template
        rendered = [self._item.instantiate(row, strict=strict) for row in rows[:-1]]
        last = self._last_item.instantiate(rows[-1], strict=strict)
        if not rendered:
            return last
        if len(rendered) == 1 and template.pair_separator is not None:
            return rendered[0] + template.pair_separator + last
        return template.separator.join(rendered) + template.last_separator + last

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CompiledListTemplate({self.template.name})"
