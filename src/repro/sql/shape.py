"""Shared SQL shape extraction: one literal-masking implementation for all layers.

Three subsystems key on the *shape* of a SQL text — the token stream
with every NUMBER/STRING literal replaced by a placeholder:

* the translator's phrase plans (:mod:`repro.query_nl.plans`) render
  repeated-shape queries by slot substitution,
* the engine's parameterised plans (:mod:`repro.engine.parameterised`)
  execute repeated-shape queries through one compiled logical plan with
  the literals bound as parameters, and
* the shard router (:mod:`repro.service.sharding`) sends every literal
  variant of a shape to one worker through :func:`shape_hash`.

This module is the single implementation they all consume.  It layers a
fast *masking* pass over the lexer's exact :func:`~repro.sql.lexer.shape_of`:

``_mask``
    A one-pass regex that blanks literal spans.  Its number pattern is a
    conservative subset of the lexer's, so masking can only ever cause
    cache misses, never false hits; the store-time self-check in
    :func:`sql_shape` enforces exact agreement with the real tokenization
    before a masked key is ever trusted.

:func:`sql_shape`
    ``(shape, literals)`` for a SQL text, served from a process-wide
    masked-text cache when possible and from :func:`shape_of` otherwise.

:func:`batch_key`
    A grouping key that is equal exactly for mask-equal texts.  It touches
    no shared cache and never tokenizes, so it is safe to call on an
    event-loop thread.

Shapes are pure text properties, so one process-wide cache serves every
schema, lexicon and database; the internal lock makes the LRU's recency
bookkeeping safe under the service's worker threads.
"""

from __future__ import annotations

import hashlib
import re
import threading
from typing import Any, List, Optional, Sequence, Tuple

from repro.sql.lexer import NUMBER_MARK, STRING_MARK, shape_of
from repro.utils.cache import LRUCache

__all__ = [
    "NUMBER_MARK",
    "STRING_MARK",
    "batch_key",
    "is_mutation",
    "reconstruct_sql",
    "shape_hash",
    "shape_of",
    "sql_shape",
    "stable_hash",
    "statement_keyword",
]

#: One-pass literal masker for the shape-cache fast path.  Comments and
#: quoted identifiers are consumed (and kept verbatim in the masked text)
#: so that quotes/digits inside them can never be mistaken for literals;
#: the string pattern is exactly the lexer's; the number pattern is a
#: *conservative* subset of the lexer's (the lookbehind skips digits glued
#: to words or dots), which only ever causes cache misses, never false
#: hits — the store-time self-check below enforces exact agreement with
#: the real tokenization before a masked key is ever trusted.
_MASK_RE = re.compile(
    r"""
      (--[^\n]*|/\*(?:[^*]|\*(?!/))*\*/|"[^"]*")
    | ('[^']*(?:''[^']*)*'(?!'))
    | ((?<![\w.])(?:\d+(?:\.\d+)?|\.\d+))
    """,
    re.VERBOSE,
)

#: masked text -> (shape tuple, literal count).
_MASK_CACHE = LRUCache(2048)
_MASK_LOCK = threading.Lock()


def _mask(sql: str):
    """``(masked text, extracted literal values)`` or ``None`` when unusable."""
    if "\x00" in sql:
        return None
    pieces: List[str] = []
    literals: List[Any] = []
    last = 0
    for match in _MASK_RE.finditer(sql):
        index = match.lastindex
        if index == 1:  # comment / quoted identifier: stays distinguishing
            continue
        start, end = match.span()
        pieces.append(sql[last:start])
        last = end
        if index == 2:
            # The placeholder must carry the literal's KIND: `x = 0` and
            # `x = '0'` are different shapes (NUMBER_MARK vs STRING_MARK
            # slots), so their masked texts must differ too — otherwise
            # the shape cache and the parameterised-plan keys would serve
            # one kind's compiled artifacts for the other.
            pieces.append(STRING_MARK)
            body = sql[start + 1 : end - 1]
            if "''" in body:
                body = body.replace("''", "'")
            literals.append(body)
        else:
            pieces.append(NUMBER_MARK)
            lexeme = match.group(3)
            literals.append(float(lexeme) if "." in lexeme else int(lexeme))
    pieces.append(sql[last:])
    return "".join(pieces), literals


def batch_key(sql: str) -> str:
    """A grouping key that is equal exactly for mask-equal SQL texts.

    Unlike :func:`sql_shape` it touches no shared cache and never
    tokenizes, so it is safe and cheap to call on an event-loop thread.
    """
    masked = _mask(sql)
    return masked[0] if masked is not None else sql


def stable_hash(text: str) -> int:
    """A 64-bit hash of ``text`` that is identical in every Python process.

    Python's built-in ``hash`` of strings is salted per process
    (``PYTHONHASHSEED``), so it cannot place keys on workers shared by
    a router and its worker processes, nor survive a router restart.
    This digest is a pure function of the text — same value in every
    process, every run, every platform.
    """
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


def statement_keyword(sql: str) -> str:
    """The first meaningful keyword of a SQL text, lowercased.

    Skips leading whitespace, ``--`` line comments, ``/* ... */`` block
    comments and opening parentheses (a parenthesized ``(select ...)`` is
    still a read), then returns the first identifier-shaped word.  An
    unterminated comment or an empty text returns ``""``.
    """
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace() or ch == "(":
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i + 2)
            i = n if end < 0 else end + 1
            continue
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            i = n if end < 0 else end + 2
            continue
        break
    start = i
    while i < n and (sql[i].isalpha() or sql[i] == "_"):
        i += 1
    return sql[start:i].lower()


def is_mutation(sql: str) -> bool:
    """Whether a SQL text may change data.

    This is the write-barrier classifier: the shard tier broadcasts on
    it, and the router only ever auto-retries statements it returns
    ``False`` for.  It is deliberately conservative — anything whose
    first meaningful keyword (after whitespace, comments and parentheses,
    see :func:`statement_keyword`) is not ``select`` counts as a
    mutation.  A false positive costs a needless broadcast or a skipped
    retry; a false negative could let a read jump a write or replay a
    write twice.
    """
    return statement_keyword(sql) != "select"


def shape_hash(sql: str) -> int:
    """A process-stable 64-bit hash of ``sql``'s masked shape.

    Mask-equal texts (identical outside literal spans) hash equal, so the
    shard tier can route every literal variant of one query shape to the
    same worker — keeping that worker's phrase-plan store, exact-text LRU
    and parameterised-plan cache hot for the shapes it owns.
    """
    return stable_hash(batch_key(sql))


def sql_shape(sql: str) -> Optional[Tuple[Tuple[str, ...], Tuple[Any, ...]]]:
    """``(shape, literals)`` for ``sql``, or ``None`` when it does not lex.

    The shape is the lexer's token stream with literal positions replaced
    by :data:`NUMBER_MARK`/:data:`STRING_MARK`; ``literals`` holds the
    masked values in text order.  Mask-equal texts (identical outside
    literal spans) are served from the process-wide cache without
    tokenizing; the first sight of a masked text verifies the masker
    against the real tokenization before the cached shape is trusted.
    """
    masked = _mask(sql)
    if masked is not None:
        masked_text, extracted = masked
        with _MASK_LOCK:
            entry = _MASK_CACHE.get(masked_text)
        if entry is not None:
            shape, count = entry
            if count == len(extracted):
                return shape, tuple(extracted)
    shaped = shape_of(sql)
    if shaped is None:
        return None
    shape, literals = shaped
    if masked is not None and list(literals) == masked[1]:
        # The masker reproduced the tokenizer's literals exactly for this
        # text, so mask-equal texts (identical outside literal spans) are
        # safe to serve from the cached shape.
        with _MASK_LOCK:
            _MASK_CACHE.put(masked[0], (shape, len(literals)))
    return shape, literals


def reconstruct_sql(shape: Sequence[str], literals: Sequence[Any]) -> str:
    """SQL text lexing back to ``shape`` with the given literal values."""
    pieces: List[str] = []
    position = 0
    for part in shape:
        if part is NUMBER_MARK or part == NUMBER_MARK:
            pieces.append(repr(literals[position]))
            position += 1
        elif part is STRING_MARK or part == STRING_MARK:
            body = str(literals[position]).replace("'", "''")
            pieces.append(f"'{body}'")
            position += 1
        else:
            pieces.append(part)
    return " ".join(pieces)
