"""Output check: every reply against a synchronous replay with no service.

The replay runs the same request sequence (warm-up, then timed) on
freshly generated databases through ``QueryTranslator`` (phrase plans
off), ``Executor`` (per-text path, no shape-shared plans),
``ContentNarrator`` and ``AnswerExplainer`` — a second route through the
pipeline — and compares each reply in canonical form: translation text
and category, result columns and rows in order (or the DML kind and row
count), and narration or explanation text.  Clients keep only a 16-byte
fingerprint of each reply, so holding the replies does not grow the heap
the program's garbage collector scans.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence

from repro.content.narrator import ContentNarrator
from repro.engine.executor import Executor
from repro.engine.result import QueryResult
from repro.query_nl.empty_answer import AnswerExplainer
from repro.query_nl.translator import QueryTranslator
from repro.storage.database import Database

from talkbench.factories import domain_spec
from talkbench.streams import VERIFY, WRITE, Request

#: A reply that raised is recorded as this tuple, and never matches.
FAILED = "failed"


def canonical(request: Request, reply: Any) -> str:
    """The comparable form of one reply."""
    if isinstance(reply, tuple) and reply and reply[0] == FAILED:
        return f"{FAILED}:{reply[1]}"
    if request.op in (VERIFY, WRITE):
        translation, result = reply
        category = translation.category.value if translation.category is not None else ""
        if isinstance(result, QueryResult):
            rows = ";".join(repr(row) for row in result.to_tuples())
            answer = f"[{','.join(result.columns)}]{rows}"
        else:
            answer = f"{result.statement_kind}:{result.affected_rows}"
        return f"{translation.text}\x1f{category}\x1f{answer}"
    if request.op == "explain":
        return f"{reply.row_count}\x1f{reply.text}"
    return str(reply)


def fingerprint(request: Request, reply: Any) -> bytes:
    return hashlib.blake2b(canonical(request, reply).encode(), digest_size=16).digest()


class Replay:
    """One synchronous pipeline per domain, built like the program's sessions."""

    def __init__(self, databases: Dict[str, Database]) -> None:
        self.databases = databases
        self._pipelines: Dict[str, tuple] = {}
        for name, database in databases.items():
            spec = domain_spec(name, database.schema)
            executor = Executor(database, parameterised=False)
            self._pipelines[name] = (
                QueryTranslator(database.schema, spec=spec, phrase_plans=False),
                executor,
                ContentNarrator(database, spec=spec),
                AnswerExplainer(database, lexicon=spec.lexicon, executor=executor),
            )

    def answer(self, request: Request) -> Any:
        translator, executor, narrator, explainer = self._pipelines[request.domain]
        if request.op in (VERIFY, WRITE):
            return translator.translate(request.text), executor.execute_sql(request.text)
        if request.op == "relation":
            return narrator.narrate_relation(request.text, limit=request.limit)
        if request.op == "database":
            return narrator.narrate_database()
        if request.op == "explain":
            return explainer.explain(request.text)
        raise ValueError(f"unknown request op {request.op!r}")


def expected(replay: Replay, warmup: Sequence[Request], timed: Sequence[Request]) -> List[bytes]:
    """Replay the stream; returns the fingerprint of every timed reply.

    A stream without writes never changes the data, so equal requests
    have equal answers and each distinct one is replayed once.
    """
    for request in warmup:
        replay.answer(request)
    read_only = all(request.op != WRITE for request in timed)
    memo: Dict[Request, bytes] = {}
    wanted: List[bytes] = []
    for request in timed:
        known = memo.get(request) if read_only else None
        if known is None:
            known = fingerprint(request, replay.answer(request))
            memo[request] = known
        wanted.append(known)
    return wanted


def mismatches(observed: Sequence[bytes], wanted: Sequence[bytes], drill: bool = False) -> List[int]:
    """Indexes of the replies whose fingerprint differs from the replay's.

    ``drill`` corrupts the first reply's fingerprint before comparing, to
    prove the check can fail.
    """
    observed = list(observed)
    if drill and observed:
        observed[0] = b"corrupted by the drill"
    return [index for index, value in enumerate(observed) if value != wanted[index]]


def same_database(left: Database, right: Database) -> bool:
    """Equal contents: per table, every (rowid, row) in order, and the next rowid."""
    if sorted(t.name for t in left.tables) != sorted(t.name for t in right.tables):
        return False
    for table in left.tables:
        other = right.table(table.name)
        if table.export_rows() != other.export_rows() or table.next_rowid != other.next_rowid:
            return False
    return True
