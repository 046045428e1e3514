"""Template language: specs, paper-syntax parser and the label registry."""

from repro.templates.compile import CompiledListTemplate, CompiledTemplate
from repro.templates.parser import parse_list_template, parse_template
from repro.templates.registry import (
    TemplateRegistry,
    default_join_template,
    default_projection_template,
    default_relation_template,
)
from repro.templates.spec import (
    ListTemplate,
    SlotPart,
    Template,
    TemplatePart,
    TextPart,
    slot,
    template,
)

__all__ = [
    "CompiledListTemplate",
    "CompiledTemplate",
    "ListTemplate",
    "SlotPart",
    "Template",
    "TemplatePart",
    "TemplateRegistry",
    "TextPart",
    "default_join_template",
    "default_projection_template",
    "default_relation_template",
    "parse_list_template",
    "parse_template",
    "slot",
    "template",
]
