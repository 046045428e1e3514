"""Seeded request streams: one generator per workload.

Every generator is a pure function of ``(seed, requests)``: it builds the
whole request list (an untimed warm-up prefix plus the timed requests)
before the program under test exists, so the program only ever sees
generated SQL texts and narrate calls.  Mixes are drawn *balanced* — each
corpus query appears once per pass over the corpus, narrate kinds in fixed
proportions spread evenly through the run — and the seed only chooses
order within a pass and literal values, so two seeds do the same amount
of work and differ only in which values they touch.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datasets.domains import DOMAIN_NAMES, get_domain
from repro.datasets.generator import bench_movie_database
from repro.sql.shape import shape_hash
from repro.storage.database import Database

VERIFY = "verify"
NARRATE = "narrate"
WRITE = "write"
KINDS = (VERIFY, NARRATE, WRITE)

#: Work per second of ``--seconds``: requests, or rounds for data_entry.
#: A run issues ``round(rate * seconds)`` of them: a count fixed by the
#: arguments, whatever the host's speed, so database size, heap growth
#: and checkpoint count repeat from run to run.  The rates are set so a
#: run lasts about ``--seconds`` on a 2-vCPU x86-64 host.
RATE = {
    "verify_warm": 900,
    "verify_cold": 270,
    "data_entry": 44,
    "verify_sharded": 500,
}

#: Share of narrate requests that narrate one relation (limit 3), drawn
#: evenly over every relation of the workload's domains; the rest are
#: split evenly between narrate_database and explain_empty.
RELATION_SHARE = 0.7
#: data_entry: a round's movie is deleted this many rounds later, so
#: table sizes stay level once the warm-up rounds have run.
DELETE_LAG = 4
#: data_entry: first id of the movies the rounds insert.
FIRST_ENTRY_ID = 100_000
#: data_entry: a narrate request every this many rounds.
NARRATE_EVERY = 2
#: data_entry: Q6 (relational division, ~0.5 s once a write has cleared
#: the subquery memo) runs this many times per run.  Fewer than 1% of
#: the verifies, so verify_p99_ms measures the next tier of cold reads
#: rather than flipping with Q6's count.
Q6_PER_RUN = 2

_SQL_WORDS = frozenset(
    "as where on join inner left right full cross natural group order "
    "having limit union and or not set values select from".split()
)

#: ``alias.column = literal`` with a quoted-string or integer literal.
#: Only equality literals are redrawn: a redrawn range bound could select
#: anything from no rows to the whole table, and the amount of work would
#: then depend on the seed.
_EQUALITY = re.compile(
    r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)(\s*=\s*)('(?:[^']|'')*'|\d+)(?![\w.])"
)


@dataclass(frozen=True)
class Request:
    """One benchmark request.

    ``op`` is ``verify`` or ``write`` (translate, then execute ``text``),
    or a narrate call: ``relation`` (``text`` names the relation,
    ``limit`` the tuple limit), ``database`` or ``explain`` (``text`` is
    the SQL whose answer is explained).
    """

    kind: str
    op: str
    domain: str
    text: str = ""
    limit: int = 0


@dataclass
class Stream:
    """A workload's generated requests and the facts that size it."""

    workload: str
    warmup: List[Request]
    timed: List[Request]
    clients: int = 1
    facts: Dict[str, Any] = field(default_factory=dict)


def build(workload: str, seed: int, seconds: float) -> Stream:
    """The full request stream of one run."""
    count = max(1, round(RATE[workload] * seconds))
    if workload == "verify_warm":
        return verify_warm(seed, count)
    if workload == "verify_cold":
        return verify_cold(seed, count)
    if workload == "data_entry":
        return data_entry(seed, count)
    if workload == "verify_sharded":
        stream = verify_warm(seed, count)
        stream.workload = "verify_sharded"
        stream.clients = 2
        stream.facts["clients"] = 2
        return stream
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Corpus rewriting
# ---------------------------------------------------------------------------


class _Vocabulary:
    """What the rewriters need to know about one domain's database."""

    def __init__(self, database: Database) -> None:
        self.tables = [table.name for table in database.tables]
        self.values: Dict[Tuple[str, str], Dict[type, List[Any]]] = {}
        for table in database.tables:
            columns: Dict[str, set] = {}
            for row in table.rows():
                for column, value in dict(row).items():
                    if isinstance(value, bool) or not isinstance(value, (int, str)):
                        continue
                    columns.setdefault(column, set()).add(value)
            for column, values in columns.items():
                by_type: Dict[type, List[Any]] = {}
                for value in values:
                    by_type.setdefault(type(value), []).append(value)
                self.values[(table.name, column)] = {
                    kind: sorted(pool) for kind, pool in by_type.items()
                }

    def aliases(self, sql: str) -> Dict[str, str]:
        """alias -> table for every ``TABLE alias`` declaration in ``sql``."""
        found: Dict[str, str] = {}
        for table in self.tables:
            pattern = rf"\b{table}\b(?:\s+(?:[Aa][Ss]\s+)?([A-Za-z_]\w*))?"
            for match in re.finditer(pattern, sql):
                alias = match.group(1)
                if alias is None or alias.lower() in _SQL_WORDS:
                    found.setdefault(table, table)
                else:
                    found[alias] = table
        return found

    def vary_literals(self, sql: str, rng: random.Random) -> str:
        """``sql`` with each ``alias.col = literal`` literal redrawn from the data."""
        aliases = self.aliases(sql)

        def swap(match: "re.Match[str]") -> str:
            alias, column, operator, literal = match.groups()
            pools = self.values.get((aliases.get(alias, ""), column), {})
            if literal.startswith("'"):
                pool = pools.get(str)
                if not pool:
                    return match.group(0)
                value = rng.choice(pool)
                return f"{alias}.{column}{operator}'{value.replace(chr(39), chr(39) * 2)}'"
            pool = pools.get(int)
            if not pool:
                return match.group(0)
            return f"{alias}.{column}{operator}{rng.choice(pool)}"

        return _EQUALITY.sub(swap, sql)

    def fresh_aliases(self, sql: str, tag: str) -> str:
        """``sql`` with every table alias renamed ``<alias>_<tag>``."""
        for alias, table in self.aliases(sql).items():
            if alias == table:
                continue
            renamed = f"{alias}_{tag}"
            sql = re.sub(rf"\b{table}(\s+(?:[Aa][Ss]\s+)?){alias}\b", rf"{table}\g<1>{renamed}", sql)
            sql = re.sub(rf"\b{alias}\.", f"{renamed}.", sql)
        return sql


def _flat(sql: str) -> str:
    return " ".join(sql.split())


def _each(items: Sequence[Any], count: int, rng: random.Random) -> List[Any]:
    """Passes over ``items`` (about ``count`` draws), each pass in its own order.

    Every item occurs once per pass, so each query's share of the run and
    its spread from start to end (heaps and caches grow as a run goes on)
    are the same for every seed, and no percentile moves because a heavy
    query was drawn once more, or late.
    """
    out: List[Any] = []
    for _ in range(max(1, round(count / len(items)))):
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out


def _spread(main: Sequence[Request], extra: Sequence[Request]) -> List[Request]:
    """``extra`` placed evenly through ``main``, both in their given order."""
    out: List[Request] = []
    every = len(main) / max(1, len(extra))
    placed = 0
    for index, request in enumerate(main, 1):
        out.append(request)
        while placed < len(extra) and index >= (placed + 1) * every:
            out.append(extra[placed])
            placed += 1
    out.extend(extra[placed:])
    return out


def _balanced(items: Sequence[Any], count: int, rng: random.Random) -> List[Any]:
    """``count`` draws in which every item appears ``count // len`` or one more times."""
    out: List[Any] = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out.extend(block[: count - len(out)])
    return out


def _narrate_everything(
    domain: str, vocabulary: _Vocabulary, explain_texts: Sequence[str]
) -> List[Request]:
    """Warm-up narrates: every relation, the database, and some explains."""
    block = [Request(NARRATE, "relation", domain, table, 3) for table in vocabulary.tables]
    block.append(Request(NARRATE, "database", domain))
    block.extend(Request(NARRATE, "explain", domain, text) for text in explain_texts)
    return block


def _narrates(
    count: int,
    rng: random.Random,
    relations: Sequence[Tuple[str, str]],
    databases: Sequence[str],
    explains: Sequence[Tuple[str, str]],
) -> List[Request]:
    """``count`` narrate requests in fixed proportions, in a seeded order.

    ``RELATION_SHARE`` of them narrate a relation, each (domain, relation)
    of ``relations`` equally often; the rest are half narrate_database
    over ``databases`` and half explain_empty over ``explains`` ((domain,
    SQL) pairs), each again equally often.  Every seed issues the same
    calls the same number of times, so narrate_p50_ms sits at the same
    rank of the same mix in every run.
    """
    relation = round(count * RELATION_SHARE)
    database = (count - relation) // 2
    ops = ["relation"] * relation + ["database"] * database
    ops += ["explain"] * (count - relation - database)
    rng.shuffle(ops)
    relation_draws = iter(_balanced(relations, relation, rng))
    database_draws = iter(_balanced(databases, database, rng))
    explain_draws = iter(_balanced(explains, count - relation - database, rng))
    out: List[Request] = []
    for op in ops:
        if op == "relation":
            domain, table = next(relation_draws)
            out.append(Request(NARRATE, "relation", domain, table, 3))
        elif op == "database":
            out.append(Request(NARRATE, "database", next(database_draws)))
        else:
            domain, text = next(explain_draws)
            out.append(Request(NARRATE, "explain", domain, text))
    return out


def _distinct_shapes(requests: Sequence[Request]) -> int:
    return len({shape_hash(r.text) for r in requests if r.op in (VERIFY, WRITE)})


def _facts(stream_requests: Sequence[Request], warmup: Sequence[Request]) -> Dict[str, Any]:
    verify_texts = [r.text for r in stream_requests if r.op == VERIFY]
    return {
        "timed_requests": len(stream_requests),
        "warmup_requests": len(warmup),
        "by_kind": {
            kind: sum(1 for r in stream_requests if r.kind == kind) for kind in KINDS
        },
        "distinct_verify_texts": len(set(verify_texts)),
        "distinct_shapes": _distinct_shapes(stream_requests),
        "cache_capacity": {
            "exact_text_lru": 512,
            "phrase_plan_store": 512,
            "executor_shape_plans": 256,
            "executor_parse": 512,
            "executor_plan": 256,
            "shape_mask": 2048,
        },
        "loop": "closed",
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def verify_warm(seed: int, count: int) -> Stream:
    """Repeated talk-back traffic over the movies corpus (one session).

    90% verifies: half exact repeats of corpus texts, half literal
    variants whose values are drawn from the data; 10% narrates.  The
    warm-up runs every corpus text and one variant of each, so the timed
    phase is served by the exact-text LRU, the phrase plans and the
    shape plans.
    """
    rng = random.Random(f"verify_warm:{seed}")
    domain = get_domain("movies")
    database = domain.database(0, 1)
    vocabulary = _Vocabulary(database)
    corpus = [_flat(query.sql) for query in domain.corpus()]
    n_narrate = count // 10
    n_verify = count - n_narrate
    verifies: List[Request] = []
    for index, text in enumerate(_each(corpus, n_verify, rng)):
        if index % 2:
            text = vocabulary.vary_literals(text, rng)
        verifies.append(Request(VERIFY, VERIFY, "movies", text))
    narrates = _narrates(
        n_narrate,
        rng,
        [("movies", table) for table in vocabulary.tables],
        ["movies"],
        [("movies", text) for text in corpus[:9]],
    )
    timed = _spread(verifies, narrates)
    warmup = [Request(VERIFY, VERIFY, "movies", text) for text in corpus]
    warmup += [
        Request(VERIFY, VERIFY, "movies", vocabulary.vary_literals(text, rng))
        for text in corpus
    ]
    warmup += _narrate_everything("movies", vocabulary, corpus[:9])
    facts = _facts(timed, warmup)
    facts.update(
        domains=["movies"],
        rows=database.total_rows,
        clients=1,
        fsync="none (no durability)",
    )
    return Stream("verify_warm", warmup, timed, facts=facts)


def verify_cold(seed: int, count: int) -> Stream:
    """Ad-hoc verification: every verify text is a shape no cache has seen.

    One session per registered domain.  Each timed verify is a corpus
    query with redrawn literals and every table alias renamed with the
    request's index, so its masked shape is new to the exact-text LRU,
    the phrase-plan store and the executor's shape plans.  The warm-up
    runs the corpus texts as written, which warms lazy state (executors,
    narrators, templates) without seeding any timed shape.
    """
    rng = random.Random(f"verify_cold:{seed}")
    domains = list(DOMAIN_NAMES)
    vocabularies = {name: _Vocabulary(get_domain(name).database(0, 1)) for name in domains}
    corpora = {name: [_flat(q.sql) for q in get_domain(name).corpus()] for name in domains}
    entries = [(name, text) for name in domains for text in corpora[name]]
    n_narrate = count // 10
    n_verify = count - n_narrate
    verifies: List[Request] = []
    for index, (name, text) in enumerate(_each(entries, n_verify, rng)):
        vocabulary = vocabularies[name]
        text = vocabulary.fresh_aliases(vocabulary.vary_literals(text, rng), f"v{index}")
        verifies.append(Request(VERIFY, VERIFY, name, text))
    narrates = _narrates(
        n_narrate,
        rng,
        [(name, table) for name in domains for table in vocabularies[name].tables],
        domains,
        [(name, text) for name in domains for text in corpora[name][:4]],
    )
    # Explained queries get fresh aliases too, so their shapes are cold.
    narrates = [
        Request(NARRATE, "explain", r.domain, vocabularies[r.domain].fresh_aliases(r.text, f"e{i}"))
        if r.op == "explain"
        else r
        for i, r in enumerate(narrates)
    ]
    timed = _spread(verifies, narrates)
    warmup = [Request(VERIFY, VERIFY, name, text) for name, text in entries]
    for name in domains:
        warmup += _narrate_everything(name, vocabularies[name], corpora[name][:1])
    facts = _facts(timed, warmup)
    facts.update(
        domains=domains,
        rows=sum(get_domain(name).database(0, 1).total_rows for name in domains),
        clients=1,
        fsync="none (no durability)",
    )
    return Stream("verify_cold", warmup, timed, facts=facts)


def _q(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def data_entry(seed: int, rounds: int) -> Stream:
    """The record-validation loop: back-translated writes beside reads.

    Each round inserts a movie with two genre and two cast rows, updates
    it, deletes the movie of ``DELETE_LAG`` rounds earlier (children
    first), reads the new record back twice (with its genres, with its
    cast) and verifies one movies-corpus query; every
    ``NARRATE_EVERY``-th round adds a narrate request.  The first
    ``DELETE_LAG`` rounds are the warm-up, so table sizes are level
    through the timed phase.  Three verifies a round give verify_p99_ms
    more than ten samples beyond it.
    """
    rng = random.Random(f"data_entry:{seed}")
    database = bench_movie_database()
    actors = sorted(row["id"] for row in database.table("ACTOR").rows())
    genres = sorted({row["genre"] for row in database.table("GENRE").rows()})
    roles = sorted({row["role"] for row in database.table("CAST").rows()})
    words = sorted({row["title"].split()[0] for row in database.table("MOVIES").rows()})
    corpus = {q.name: _flat(q.sql) for q in get_domain("movies").corpus()}
    q6 = corpus.pop("Q6")
    reads = _each(sorted(corpus.values()), rounds - Q6_PER_RUN, rng)
    for number in range(Q6_PER_RUN):
        reads.insert(round(len(reads) * (number + 1) / (Q6_PER_RUN + 1)), q6)
    rounds = len(reads)
    narrates = iter(
        _narrates(
            (DELETE_LAG + rounds) // NARRATE_EVERY,
            rng,
            [("movies", table.name) for table in database.tables],
            ["movies"],
            [("movies", "")],  # the round's own record, below
        )
    )

    def narrate(mid: int) -> Request:
        request = next(narrates)
        if request.op == "explain":
            return Request(
                NARRATE, "explain", "movies",
                f"select m.title from MOVIES m, GENRE g where m.id = g.mid and m.id = {mid}",
            )
        return request

    def round_requests(number: int, corpus_read: Optional[str]) -> List[Request]:
        mid = FIRST_ENTRY_ID + number
        first, second = rng.sample(genres, 2)
        cast = rng.sample(actors, 2)
        writes = [
            f"insert into MOVIES (id, title, year) values ({mid},"
            f" {_q(rng.choice(words) + ' ' + str(mid))}, {rng.randint(1950, 2009)})",
            f"insert into GENRE (mid, genre) values ({mid}, {_q(first)})",
            f"insert into GENRE (mid, genre) values ({mid}, {_q(second)})",
            f"insert into CAST (mid, aid, role) values ({mid}, {cast[0]}, {_q(rng.choice(roles))})",
            f"insert into CAST (mid, aid, role) values ({mid}, {cast[1]}, {_q(rng.choice(roles))})",
            f"update MOVIES set year = {rng.randint(1950, 2009)} where id = {mid}",
        ]
        if number >= DELETE_LAG:
            old = mid - DELETE_LAG
            writes += [
                f"delete from CAST where mid = {old}",
                f"delete from GENRE where mid = {old}",
                f"delete from MOVIES where id = {old}",
            ]
        out = [Request(WRITE, WRITE, "movies", text) for text in writes]
        out.append(
            Request(
                VERIFY, VERIFY, "movies",
                f"select m.title, m.year, g.genre from MOVIES m, GENRE g"
                f" where m.id = g.mid and m.id = {mid}",
            )
        )
        out.append(
            Request(
                VERIFY, VERIFY, "movies",
                f"select m.title, a.name, c.role from MOVIES m, CAST c, ACTOR a"
                f" where m.id = c.mid and c.aid = a.id and m.id = {mid}",
            )
        )
        if corpus_read is not None:
            out.append(Request(VERIFY, VERIFY, "movies", corpus_read))
        if number % NARRATE_EVERY == NARRATE_EVERY - 1:
            out.append(narrate(mid))
        return out

    warmup: List[Request] = []
    for number in range(DELETE_LAG):
        warmup += round_requests(number, None)
    timed: List[Request] = []
    for offset, read in enumerate(reads):
        timed += round_requests(DELETE_LAG + offset, read)
    facts = _facts(timed, warmup)
    facts.update(
        domains=["movies (bench_movie_database)"],
        rows=database.total_rows,
        rounds=rounds,
        clients=1,
        fsync="batch (group commit every 64 appends, checkpoint every 1000 mutations)",
        q6_reads=Q6_PER_RUN,
    )
    return Stream("data_entry", warmup, timed, facts=facts)
