"""Oracle mode: one switch that forces every reference path at once.

Each compiled subsystem keeps its original, uncompiled implementation
alive as a differential oracle — the char-by-char lexer, the
recursive-descent parser cascade, the standalone validator, the
interpreted template walker, the plan-free translator and the
interpreted, cache-free executor.  Each has its own opt-out flag, which
is perfect for targeted differential tests but means nothing exercises
*all* the oracles together across the whole suite.

``REPRO_ORACLE=1`` is that exercise.  When the environment variable is
set (to anything but ``""`` or ``"0"``):

* the *constructor defaults* of :class:`~repro.engine.executor.Executor`
  (``compiled`` and ``parameterised``),
  :class:`~repro.query_nl.translator.QueryTranslator` (``phrase_plans``)
  and :class:`~repro.templates.registry.TemplateRegistry`
  (``compile_templates``) flip to their interpreted settings, and
* the repository ``conftest.py`` forces the reference lexer, parser and
  validator globally for the whole pytest session.

Callers that pass a flag *explicitly* are never overridden, so tests
that specifically exercise a compiled path (cache-hit assertions, plan
equivalence suites) keep doing so under oracle mode.  The CI oracle job
runs the tier-1 suite this way on every push, so the oracles can never
silently rot.
"""

from __future__ import annotations

import os
from typing import Optional

_ENV_VAR = "REPRO_ORACLE"


def oracle_enabled() -> bool:
    """Whether the ``REPRO_ORACLE`` environment toggle is on."""
    return os.environ.get(_ENV_VAR, "") not in ("", "0")


def resolve_compiled_default(explicit: Optional[bool]) -> bool:
    """An explicitly passed flag wins; otherwise compiled unless oracle mode."""
    if explicit is not None:
        return explicit
    return not oracle_enabled()
