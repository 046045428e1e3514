"""Shape-keyed translation plans: compile once per query shape, render per query.

The category translators (``spj.py``, ``aggregate.py``, ``nested.py``, ...)
rebuild every noun phrase, adjective and postmodifier from scratch on each
call, even though two queries differing only in their literals ("Brad
Pitt" vs "Mark Hamill", 2004 vs 1995) produce the same sentence with
different values spliced in.  A :class:`TranslationPlan` captures that
sentence once — as template segments with literal/value *slots* — so
repeated-shape translation is a shape lookup plus slot substitution.

**Shape key.**  :func:`repro.sql.lexer.shape_of` replaces every
NUMBER/STRING token with a placeholder, so the key fixes relations,
aliases, operators and clause structure while leaving values free.

**Guards.**  The few translator branches that inspect literal *values*
(rather than positions) are pinned by a guard vector that joins the cache
key: the value's type, whether a string renders as a single word (the
prenominal-adjective test in ``spj._adjectives``), and whether a number
equals 1 (the count-idiom threshold in ``rewrite/patterns.py``).  Two
queries agreeing on shape *and* guards take identical branches everywhere.

**Two-probe compilation.**  A plan is compiled by translating the query a
second time with every free literal replaced by a guard-preserving
*sentinel* (a unique marker value), then aligning the two outputs: text
runs that match byte-for-byte become fixed segments, and positions where
the probe shows a sentinel become slots, tagged with the transform the
translator applied (narrative rendering, SQL-literal spelling, or the
spelled-out number word).  Any disagreement outside a sentinel — a
translator branch the guards failed to pin — marks the shape unplannable
and translation permanently falls back to the full pipeline for it.  The
plan is finally verified by re-rendering the original query's values and
comparing byte-for-byte against the full translation.

Plan stores live per :class:`~repro.lexicon.lexicon.Lexicon` (translation
output is a pure function of schema, lexicon and SQL text) and are
invalidated by the lexicon's ``version`` counter.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.catalog.types import render_value
from repro.lexicon.lexicon import Lexicon
from repro.lexicon.morphology import number_word
from repro.sql import ast
from repro.sql.shape import batch_key, reconstruct_sql, sql_shape
from repro.utils.cache import SIGHTINGS_SIZE, LRUCache

__all__ = [
    "PlanStore",
    "TranslationPlan",
    "UNPLANNABLE",
    "batch_key",
    "compile_plan",
    "guards_for",
    "plan_store_for",
    "render_segments",
    "shape_key",
]

#: Segment of a field template: literal text, or a (literal index, transform
#: tag) slot filled at render time.
Segment = Union[str, Tuple[int, str]]

#: Stored for shapes whose probe alignment failed: always take the full path.
UNPLANNABLE = "unplannable"

#: Sentinel ints live in the 6..12 band so that ``number_word`` spells them
#: out ("six", ..., "twelve") — making the spelled-out transform
#: distinguishable from the digit rendering during alignment.  Queries with
#: more free int literals than the band holds are simply not planned.
_INT_SENTINELS = (6, 7, 8, 9, 10, 11, 12)


def shape_key(sql: str):
    """``(shape, guards, literals)`` for ``sql``, or ``None`` when unlexable.

    The shape and literal extraction are the shared implementation in
    :mod:`repro.sql.shape` (also used by the engine's parameterised plans
    and the shard router); this adds the translation-specific guard
    vector on top.
    """
    shaped = sql_shape(sql)
    if shaped is None:
        return None
    shape, literals = shaped
    return shape, guards_for(literals), literals


def guards_for(literals: Sequence[Any]) -> Tuple[Tuple[str, bool], ...]:
    """The guard vector: everything translator branches read off a value."""
    guards = []
    for value in literals:
        if isinstance(value, str):
            guards.append(("s", len(value.split()) == 1))
        elif isinstance(value, float):
            guards.append(("f", value == 1))
        else:
            guards.append(("i", value == 1))
    return tuple(guards)


# ---------------------------------------------------------------------------
# Transforms: every way a literal's value can surface in translator output
# ---------------------------------------------------------------------------


def apply_transform(tag: str, value: Any) -> str:
    if tag == "val":
        return render_value(value)
    if tag == "sql":
        return str(ast.Literal(value))
    if tag == "word":
        return number_word(value)
    if tag == "nval":
        return render_value(-value)
    if tag == "nsql":
        return str(ast.Literal(-value))
    if tag == "nword":
        return number_word(-value)
    raise ValueError(f"unknown transform {tag!r}")  # pragma: no cover


def _candidate_forms(value: Any) -> Dict[str, str]:
    """rendered text -> transform tag, earlier registrations winning ties.

    When two transforms render a value identically (``render_value`` and
    the SQL spelling agree on integers) the tie-break does not matter: any
    value passing the same guards renders identically under both tags.
    The int sentinels are chosen so the one case where it *does* matter —
    digits vs the spelled-out ``number_word`` — never ties.
    """
    forms: Dict[str, str] = {}

    def add(tag: str, rendered: str) -> None:
        forms.setdefault(rendered, tag)

    add("val", render_value(value))
    add("sql", str(ast.Literal(value)))
    if isinstance(value, bool):
        return forms
    if isinstance(value, int):
        add("word", number_word(value))
        add("nval", render_value(-value))
        add("nsql", str(ast.Literal(-value)))
        add("nword", number_word(-value))
    elif isinstance(value, float):
        add("nval", render_value(-value))
        add("nsql", str(ast.Literal(-value)))
    return forms


def _sentinels_for(
    literals: Sequence[Any], guards: Sequence[Tuple[str, bool]]
) -> Optional[Tuple[List[Any], List[int]]]:
    """``(sentinel values, slot indices)``, or ``None`` when impossible.

    Literals pinned by a value guard (numbers equal to 1) stay fixed: the
    guard key guarantees every query hitting the plan carries the same
    value there, so the compiled text is already correct for them.  Every
    other literal becomes a slot and its sentinel must *differ* from the
    actual value — a sentinel that happened to equal the value would make
    the probe indistinguishable from fixed text and bake the value into
    the plan.
    """
    sentinels: List[Any] = []
    slots: List[int] = []
    next_int = 0
    for index, (value, guard) in enumerate(zip(literals, guards)):
        kind, flag = guard
        if kind == "s":
            word = f"uqz{index}qzu"
            sentinel = word if flag else f"{word} uqz{index}wzu"
            if sentinel == value:  # the literal *is* the sentinel spelling
                sentinel = f"uqz{index}qzw" if flag else f"{word} uqz{index}wzw"
            sentinels.append(sentinel)
            slots.append(index)
        elif flag:  # a number equal to 1: fixed text, not a slot
            sentinels.append(value)
        elif kind == "f":
            sentinel = 700.25 + index
            if sentinel == value:
                sentinel += 0.125
            sentinels.append(sentinel)
            slots.append(index)
        else:
            while next_int < len(_INT_SENTINELS) and _INT_SENTINELS[next_int] == value:
                next_int += 1
            if next_int >= len(_INT_SENTINELS):
                return None
            sentinels.append(_INT_SENTINELS[next_int])
            slots.append(index)
            next_int += 1
    return sentinels, slots


# ---------------------------------------------------------------------------
# Alignment: original output vs sentinel-probe output -> template segments
# ---------------------------------------------------------------------------


def _align(
    original: Optional[str],
    probe: Optional[str],
    originals: Sequence[Any],
    sentinels: Sequence[Any],
    slot_literals: Sequence[int],
) -> Optional[Tuple[Optional[List[Segment]], bool]]:
    """Template segments for one output field, or ``None`` on misalignment.

    Returns ``(segments, used_slots)``; ``segments`` is ``None`` when the
    field itself is ``None`` on both sides.
    """
    if original is None or probe is None:
        if original is None and probe is None:
            return None, False
        return None  # one side missing: branch the guards failed to pin
    # Occurrences of any sentinel form, leftmost-longest.
    forms: List[Tuple[str, int, str]] = []  # (rendered, literal index, tag)
    for index in slot_literals:
        for rendered, tag in _candidate_forms(sentinels[index]).items():
            forms.append((rendered, index, tag))
    forms.sort(key=lambda item: -len(item[0]))

    segments: List[Segment] = []
    used = False
    pos1 = 0
    pos2 = 0
    length2 = len(probe)
    while pos2 < length2:
        # Find the earliest next sentinel occurrence in the probe.
        best = None
        for rendered, index, tag in forms:
            at = probe.find(rendered, pos2)
            if at != -1 and (best is None or at < best[0] or (at == best[0] and len(rendered) > len(best[1]))):
                best = (at, rendered, index, tag)
        if best is None:
            break
        at, rendered, index, tag = best
        fixed = probe[pos2:at]
        if original[pos1 : pos1 + len(fixed)] != fixed:
            return None
        counterpart = apply_transform(tag, originals[index])
        if original[pos1 + len(fixed) : pos1 + len(fixed) + len(counterpart)] != counterpart:
            return None
        if fixed:
            segments.append(fixed)
        segments.append((index, tag))
        used = True
        pos2 = at + len(rendered)
        pos1 += len(fixed) + len(counterpart)
    tail = probe[pos2:]
    if original[pos1:] != tail:
        return None
    if tail:
        segments.append(tail)
    return segments, used


def render_segments(segments: Optional[List[Segment]], literals: Sequence[Any]) -> Optional[str]:
    if segments is None:
        return None
    parts: List[str] = []
    for segment in segments:
        if type(segment) is str:
            parts.append(segment)
        else:
            index, tag = segment
            parts.append(apply_transform(tag, literals[index]))
    return "".join(parts)


# ---------------------------------------------------------------------------
# The plan and its per-lexicon store
# ---------------------------------------------------------------------------


class TranslationPlan:
    """A compiled translation for one (shape, guards) equivalence class."""

    __slots__ = ("category", "text", "concise", "rewritten_sql", "notes", "had_graph")

    def __init__(self, category, text, concise, rewritten_sql, notes, had_graph) -> None:
        self.category = category
        self.text = text
        self.concise = concise
        self.rewritten_sql = rewritten_sql
        self.notes = notes
        self.had_graph = had_graph


def compile_plan(
    base,
    literals: Sequence[Any],
    guards: Sequence[Tuple[str, bool]],
    shape: Sequence[str],
    probe_translate,
) -> Optional[TranslationPlan]:
    """Compile a plan from ``base`` (the full translation) via a sentinel probe.

    ``probe_translate`` runs the full, uncached pipeline on the sentinel
    variant.  Returns ``None`` when the shape cannot be planned soundly.
    """
    sentinelled = _sentinels_for(literals, guards)
    if sentinelled is None:
        return None
    sentinels, slot_literals = sentinelled
    try:
        probe = probe_translate(reconstruct_sql(shape, sentinels))
    except Exception:
        return None
    if probe.category is not base.category:
        return None  # a value-driven classification branch escaped the guards
    if len(probe.notes) != len(base.notes):
        return None

    def align_field(original, probed):
        return _align(original, probed, literals, sentinels, slot_literals)

    text = align_field(base.text, probe.text)
    concise = align_field(base.concise, probe.concise)
    rewritten = align_field(base.rewritten_sql, probe.rewritten_sql)
    if text is None or concise is None or rewritten is None:
        return None
    notes: List[List[Segment]] = []
    for original_note, probe_note in zip(base.notes, probe.notes):
        aligned = align_field(original_note, probe_note)
        if aligned is None or aligned[0] is None:
            return None
        notes.append(aligned[0])
    plan = TranslationPlan(
        category=base.category,
        text=text[0],
        concise=concise[0],
        rewritten_sql=rewritten[0],
        notes=notes,
        had_graph=base.has_graph,
    )
    # Final soundness check: the plan must reproduce the original byte-for-byte.
    if (
        render_segments(plan.text, literals) != base.text
        or render_segments(plan.concise, literals) != base.concise
        or render_segments(plan.rewritten_sql, literals) != base.rewritten_sql
        or [render_segments(note, literals) for note in plan.notes] != base.notes
    ):
        return None  # pragma: no cover - alignment already guarantees this
    return plan


#: How many unplannable-shape examples the report keeps.
_UNPLANNABLE_SAMPLES = 32

#: Bound on the plans of one store.
_PLAN_STORE_SIZE = 512


class PlanStore:
    """Shape-keyed plans for one lexicon, invalidated by lexicon version.

    The store is shared by every translator of the lexicon — across
    threads when the concurrent service serves several sessions of the
    same schema — so every access runs under an internal lock (the LRU's
    recency bookkeeping is not otherwise safe to interleave).

    The plan LRU holds :data:`_PLAN_STORE_SIZE` (512) plans; :attr:`stats`
    reports that bound and the eviction count, so a deployment can see
    when its hot shape set outgrows the store.

    **Admission.**  A shape is compiled and stored on its second sighting
    only (:meth:`admits`): the first sighting of a literal-stripped shape
    is translated on the full pipeline and leaves nothing behind but its
    hash in a bounded LRU of sightings, so ad-hoc one-off queries neither
    pay the sentinel probe nor evict hot plans.  A known shape's new guard
    class compiles at once.  A first sighting counts as a miss and as
    ``deferred``, so hits + misses still equal lookups.

    Besides hit/miss counters the store keeps the *unplannable-shape
    report*: how many shapes the two-probe compiler refused (value-driven
    branches the guards could not pin) and a bounded sample of the SQL
    texts that produced them, so a deployment can see whether any hot
    production shape permanently falls back to the full pipeline.
    """

    __slots__ = (
        "plans",
        "lexicon_version",
        "hits",
        "misses",
        "deferred",
        "unplannable",
        "_unplannable_samples",
        "_sightings",
        "_lock",
    )

    def __init__(self) -> None:
        self.plans = LRUCache(_PLAN_STORE_SIZE)
        self.lexicon_version: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.deferred = 0
        self.unplannable = 0
        self._unplannable_samples: List[str] = []
        self._sightings = LRUCache(SIGHTINGS_SIZE)
        self._lock = threading.Lock()

    def record_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def record_miss(self, deferred: bool = False) -> None:
        """Count a miss; ``deferred`` marks a first sighting left uncompiled."""
        with self._lock:
            self.misses += 1
            if deferred:
                self.deferred += 1

    def admits(self, shape) -> bool:
        """Whether ``shape`` was sighted before; a first sighting is remembered."""
        digest = hash(shape)
        with self._lock:
            if digest in self._sightings:
                return True
            self._sightings.put(digest, True)
            return False

    def lookup(self, lexicon: Lexicon, key):
        with self._lock:
            if self.lexicon_version != lexicon.version:
                self.plans.clear()
                self.lexicon_version = lexicon.version
            return self.plans.get(key)

    def store(self, lexicon: Lexicon, key, plan, sample_sql: Optional[str] = None) -> None:
        with self._lock:
            if self.lexicon_version != lexicon.version:
                self.plans.clear()
                self.lexicon_version = lexicon.version
            self.plans.put(key, plan)
            if plan is UNPLANNABLE:
                self.unplannable += 1
                if (
                    sample_sql is not None
                    and len(self._unplannable_samples) < _UNPLANNABLE_SAMPLES
                ):
                    self._unplannable_samples.append(sample_sql)

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "deferred": self.deferred,
                "size": len(self.plans),
                "maxsize": self.plans.maxsize,
                "evictions": self.plans.evictions,
                "unplannable": self.unplannable,
                "unplannable_shapes": list(self._unplannable_samples),
            }


_STORES: "weakref.WeakKeyDictionary[Lexicon, PlanStore]" = weakref.WeakKeyDictionary()
_STORES_LOCK = threading.Lock()


def plan_store_for(lexicon: Lexicon) -> PlanStore:
    """The shared plan store for ``lexicon`` (per-schema when the lexicon is)."""
    with _STORES_LOCK:
        store = _STORES.get(lexicon)
        if store is None:
            store = PlanStore()
            _STORES[lexicon] = store
        return store
