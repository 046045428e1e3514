"""Golden-equivalence suite for the compiled translation core.

Three families of differential assertions back the compiled pipeline:

* the table-driven Pratt parser must reproduce the recursive-descent
  oracle AST-for-AST — and error-for-error (message, line, column) — on
  every shipped query, hand-picked edge cases and fuzzed inputs;
* fused validation inside the graph builder must produce identical graphs
  on valid statements and identical error objects on invalid ones,
  compared against the standalone-validator pipeline
  (``use_reference_validation``);
* shape-keyed phrase plans must render every translation field
  (text, concise, notes, rewritten SQL, category) byte-for-byte equal to
  the full pipeline (``phrase_plans=False``), including for literal
  variants that hit a plan compiled from a different query.
"""

import random

import pytest

from repro.datasets import (
    PAPER_QUERIES,
    employee_schema,
    generate_workload,
    library_schema,
    movie_schema,
)
from repro.errors import SqlLexError, SqlParseError, SqlValidationError
from repro.query_nl.plans import UNPLANNABLE, shape_key
from repro.query_nl.translator import QueryTranslator
from repro.querygraph.builder import QueryGraphBuilder, use_reference_validation
from repro.sql.lexer import shape_of, tokenize
from repro.sql.parser import (
    Parser,
    ReferenceParser,
    parse_sql,
    parse_sql_reference,
    use_reference_parser,
)
from repro.sql.tokens import TokenType


def workload_sql():
    return [q.sql for q in generate_workload(queries_per_category=10, seed=42)]


EDGE_CASES = [
    "select a + b * c from T",
    "select -a * b from T",
    "select - 2 from T",
    "select * from T where not a = 1 and b in (1, 2, 3)",
    "select * from T where a between 1 and 2 and b like 'x%'",
    "select * from T where not exists (select * from U) or x not in (select y from U)",
    "select * from T where a is not null and not b is null",
    "select case when a = 1 then 'x' else 'y' end from T",
    "select * from T where a = all (select b from U)",
    "select * from T where x > any (select b from U)",
    "select * from T where (a = b) = c",
    "select * from T where a = b = c",
    "select * from T where exists (select * from U) + 1",
    "select * from T where a + exists (select * from U)",
    "select * from T where not a = b = c",
    "select * from T where a = -b + +c",
    "select * from T where a || b || c = d",
    "select * from T where + not a",
    "select * from T where - not a",
    "select * from T where a > not",
    "select * from T where a in (not b)",
    "select * from T where a not between 1 and 2 or b = 2",
    "select * from T where NOT NOT a",
    "select * from T where not in",
    "select * from T where not between",
    "select * from",
    "select",
    "select * from T where",
    "select a.* , b from T",
    "insert into T (a, b) values (1, 'x'), (2, 'y')",
    "update T set a = a + 1 where b < 3",
    "delete from T where not exists (select * from U where U.x = T.x)",
    "create view V as select a from T",
    "select count(distinct x), sum(y) from T group by z having count(*) > 1"
    " order by 1 desc limit 5 offset 2",
]

_FUZZ_VOCAB = [
    "select", "from", "where", "and", "or", "not", "in", "exists", "between",
    "like", "is", "null", "T", "U", "a", "b", "c", "m", ".", "(", ")", ",",
    "*", "+", "-", "/", "%", "=", "<>", "<=", ">=", "<", ">", "||", "1",
    "2.5", "'x'", "count", "sum", "case", "when", "then", "else", "end",
    "all", "any", "group", "by", "having", "order", "distinct", "as",
]


def _parse_outcome(parser_cls, sql):
    try:
        return ("ok", parser_cls(tokenize(sql)).parse_statement())
    except (SqlParseError, SqlLexError) as error:
        return ("error", type(error).__name__, error.message, error.line, error.column)


def assert_parsers_agree(sql):
    fast = _parse_outcome(Parser, sql)
    reference = _parse_outcome(ReferenceParser, sql)
    assert fast == reference, f"parsers disagree on {sql!r}"


class TestPrattParserEquivalence:
    def test_paper_queries(self):
        for sql in PAPER_QUERIES.values():
            assert_parsers_agree(sql)

    def test_generated_workload(self):
        for sql in workload_sql():
            assert_parsers_agree(sql)

    def test_edge_cases(self):
        for sql in EDGE_CASES:
            assert_parsers_agree(sql)

    def test_token_soup_fuzz(self):
        rng = random.Random(20260728)
        for _ in range(600):
            sql = " ".join(rng.choice(_FUZZ_VOCAB) for _ in range(rng.randint(1, 25)))
            assert_parsers_agree(sql)

    def test_mutated_workload_fuzz(self):
        rng = random.Random(42)
        base = workload_sql() + list(PAPER_QUERIES.values())
        for _ in range(400):
            words = rng.choice(base).split()
            index = rng.randrange(len(words))
            action = rng.random()
            if action < 0.4:
                del words[index]
            elif action < 0.8:
                words.insert(index, rng.choice(_FUZZ_VOCAB))
            else:
                words[index] = rng.choice(_FUZZ_VOCAB)
            assert_parsers_agree(" ".join(words))

    def test_use_reference_parser_scope(self):
        sql = "select a from T"
        with use_reference_parser():
            inside = parse_sql(sql)
        assert inside == parse_sql(sql) == parse_sql_reference(sql)


# ---------------------------------------------------------------------------
# Fused validation vs the standalone-validator oracle
# ---------------------------------------------------------------------------

INVALID_QUERIES = [
    "select x from NOPE",
    "select x from MOVIES m, MOVIES m",
    "select q.title from MOVIES m",
    "select m.nope from MOVIES m",
    "select id from MOVIES m, DIRECTOR d",
    "select nosuchcol from MOVIES m",
    "select title from MOVIES m where m.bad = 1",
    "select title from MOVIES m where zz > 2",
    "select m.title from MOVIES m where m.id in (select nope from GENRE g)",
    "select m.title from MOVIES m where exists (select * from NOPE)",
    "select m.title from MOVIES m where exists (select * from GENRE g where g.bad = m.id)",
    "select m.title from MOVIES m group by m.bad",
    "select m.title from MOVIES m having m.bad > 1",
    "select m.title from MOVIES m order by m.bad",
    "select m.title from MOVIES m where m.id = (select max(bad) from GENRE)",
    "select m.title from MOVIES m where (select max(bad) from GENRE) = m.id",
    "select m.title from MOVIES m where m.bad = 1 or exists (select * from NOPE)",
    "select count(m.bad) from MOVIES m",
    "select m.title from MOVIES m where m.year > 1 and g.genre = 'x'",
    "select m.title from MOVIES m where not (m.bad = 1)",
    "select m.title, (select g.bad from GENRE g) from MOVIES m",
    "select m.title from MOVIES m order by (select z.q from GENRE z)",
]


def _graph_signature(graph):
    return (
        sorted(
            (
                binding,
                qc.relation_name,
                [(e.attribute, e.output_alias) for e in qc.select_entries],
                [c.text for c in qc.where_constraints],
                [c.text for c in qc.having_constraints],
                list(qc.group_by),
                list(qc.order_by),
                list(qc.aggregate_entries),
            )
            for binding, qc in graph.classes.items()
        ),
        sorted(
            (e.left_binding, e.right_binding, e.is_foreign_key, e.is_equality)
            for e in graph.join_edges
        ),
        [
            (
                edge.connector,
                edge.outer_binding,
                edge.in_having,
                edge.condition_text,
                _graph_signature(edge.subgraph),
            )
            for edge in graph.nesting_edges
        ],
        [c.text for c in graph.other_constraints],
        list(graph.global_aggregates),
    )


def _build_outcome(schema, sql, reference):
    builder = QueryGraphBuilder(schema)
    try:
        if reference:
            with use_reference_validation():
                graph = builder.build(parse_sql(sql))
        else:
            graph = builder.build(parse_sql(sql))
        return ("ok", _graph_signature(graph))
    except SqlValidationError as error:
        return ("error", type(error).__name__, str(error), error.args)


class TestFusedValidationEquivalence:
    def test_valid_statements_build_identical_graphs(self):
        schema = movie_schema()
        for sql in list(PAPER_QUERIES.values()) + workload_sql():
            fused = _build_outcome(schema, sql, reference=False)
            oracle = _build_outcome(schema, sql, reference=True)
            assert fused[0] == "ok"
            assert fused == oracle, sql

    def test_invalid_statements_raise_identical_errors(self):
        schema = movie_schema()
        for sql in INVALID_QUERIES:
            fused = _build_outcome(schema, sql, reference=False)
            oracle = _build_outcome(schema, sql, reference=True)
            assert fused[0] == "error", sql
            assert fused == oracle, sql


# ---------------------------------------------------------------------------
# Shape-keyed phrase plans vs the full pipeline
# ---------------------------------------------------------------------------

#: Representative query sets for the two non-movie shipped schemas.
EMPLOYEE_QUERIES = [
    "select e.name from EMP e where e.sal > 50000",
    "select e.name from EMP e where e.sal > 70000",
    "select e.name, d.dname from EMP e, DEPT d where e.did = d.did",
    "select e1.name from EMP e1, DEPT d, EMP e2"
    " where e1.did = d.did and d.mgr = e2.eid and e1.sal > e2.sal",
    "select d.dname, count(*) from EMP e, DEPT d where e.did = d.did group by d.dname",
    "select e.name from EMP e where e.age between 30 and 40",
]

LIBRARY_QUERIES = [
    "select i.title from ITEM i where i.year = 2001",
    "select i.title from ITEM i where i.year = 1999",
    "select a.name, i.title from ITEM i, WROTE w, AUTHOR a"
    " where i.iid = w.iid and w.aid = a.aid and a.name = 'A. Writer'",
    "select i.title from ITEM i where i.iid in"
    " (select w.iid from WROTE w where w.aid in"
    " (select a.aid from AUTHOR a where a.country = 'Greece'))",
]


def _assert_field_equivalence(fast, oracle, sql):
    for field in ("text", "concise", "notes", "rewritten_sql", "category"):
        assert getattr(fast, field) == getattr(oracle, field), (sql, field)


class TestPhrasePlanEquivalence:
    def _check_corpus(self, schema, corpus):
        # phrase_plans explicit: the class under test is the plan path, so
        # it must stay on under REPRO_ORACLE's flipped defaults.
        fast = QueryTranslator(schema, cache_size=None, phrase_plans=True)
        oracle = QueryTranslator(schema, cache_size=None, phrase_plans=False)
        for sql in corpus:  # first pass compiles the plans
            fast.translate(sql)
        for sql in corpus:  # second pass renders from them
            _assert_field_equivalence(fast.translate(sql), oracle.translate(sql), sql)
        return fast

    def test_movie_workload_byte_identical(self):
        schema = movie_schema()
        corpus = workload_sql() + list(PAPER_QUERIES.values())
        fast = self._check_corpus(schema, corpus)
        assert fast._plans.hits > 0

    def test_employee_queries_byte_identical(self):
        self._check_corpus(employee_schema(), EMPLOYEE_QUERIES)

    def test_library_queries_byte_identical(self):
        self._check_corpus(library_schema(), LIBRARY_QUERIES)

    def test_literal_variants_hit_plans_and_match_oracle(self):
        schema = movie_schema()
        fast = QueryTranslator(schema, cache_size=None, phrase_plans=True)
        oracle = QueryTranslator(schema, cache_size=None, phrase_plans=False)
        base = workload_sql()
        for sql in base:
            fast.translate(sql)
        names = [
            "Brad Pitt", "Scarlett Johansson", "Mark Hamill",
            "Morgan Freeman", "Eric Bana", "Christina Ricci",
        ]
        hits_before = fast._plans.hits
        for round_number in range(3):
            for index, sql in enumerate(base):
                variant = sql.replace("Brad Pitt", names[(round_number + index) % len(names)])
                _assert_field_equivalence(
                    fast.translate(variant), oracle.translate(variant), variant
                )
        assert fast._plans.hits > hits_before

    def test_lazy_graph_and_classification_materialise(self):
        translator = QueryTranslator(movie_schema(), cache_size=None, phrase_plans=True)
        sql = "select m.title from MOVIES m where m.year = 1995"
        translator.translate(sql)  # first sighting: translated, not compiled
        translator.translate(sql)  # compile the plan
        rendered = translator.translate("select m.title from MOVIES m where m.year = 2003")
        assert rendered._graph is None  # not built eagerly on a plan hit
        graph = rendered.graph
        assert graph is not None and "2003" in str(graph.statement)
        assert rendered.classification is not None
        assert rendered.classification.category is rendered.category

    def test_plan_guards_split_single_vs_multi_word_values(self):
        schema = movie_schema()
        fast = QueryTranslator(schema, cache_size=None, phrase_plans=True)
        oracle = QueryTranslator(schema, cache_size=None, phrase_plans=False)
        template = (
            "select m.title from MOVIES m, GENRE g"
            " where m.id = g.mid and g.genre = '{value}'"
        )
        # single-word value reads as an adjective, multi-word cannot
        for value in ("action", "science fiction", "drama", "film noir"):
            sql = template.format(value=value)
            _assert_field_equivalence(fast.translate(sql), oracle.translate(sql), sql)

    def test_plan_guards_split_count_thresholds(self):
        schema = movie_schema()
        fast = QueryTranslator(schema, cache_size=None, phrase_plans=True)
        oracle = QueryTranslator(schema, cache_size=None, phrase_plans=False)
        template = (
            "select m.id, m.title, count(*) from MOVIES m, CAST c"
            " where m.id = c.mid group by m.id, m.title"
            " having {threshold} < (select count(*) from GENRE g where g.mid = m.id)"
        )
        # threshold == 1 pins the "more than one genre" idiom; other values
        # must spell their own number word ("more than three genres").
        for threshold in (1, 2, 3, 5, 13):
            sql = template.format(threshold=threshold)
            _assert_field_equivalence(fast.translate(sql), oracle.translate(sql), sql)

    def test_same_value_idiom_guard(self):
        schema = movie_schema()
        fast = QueryTranslator(schema, cache_size=None, phrase_plans=True)
        oracle = QueryTranslator(schema, cache_size=None, phrase_plans=False)
        template = (
            "select a.id, a.name from MOVIES m, CAST c, ACTOR a"
            " where m.id = c.mid and c.aid = a.id"
            " group by a.id, a.name having count(distinct m.year) = {value}"
        )
        # = 1 is the "all the same" idiom (IMPOSSIBLE); = 2 is a plain
        # aggregate — the guard keys them into different plans.
        for value in (1, 2, 1, 3):
            sql = template.format(value=value)
            fast_result, oracle_result = fast.translate(sql), oracle.translate(sql)
            _assert_field_equivalence(fast_result, oracle_result, sql)

    def test_unlexable_input_falls_back(self):
        translator = QueryTranslator(movie_schema())
        assert shape_of("select 'unterminated from T") is None
        with pytest.raises(SqlLexError):
            translator.translate("select 'unterminated from T")

    def test_shape_of_mirrors_tokenizer(self):
        for sql in workload_sql() + list(PAPER_QUERIES.values()):
            shape, literals = shape_of(sql)
            expected_parts, expected_literals = [], []
            for token in tokenize(sql):
                if token.type is TokenType.EOF:
                    continue
                if token.type is TokenType.NUMBER:
                    expected_parts.append("\x00N")
                    expected_literals.append(token.value)
                elif token.type is TokenType.STRING:
                    expected_parts.append("\x00S")
                    expected_literals.append(token.value)
                else:
                    expected_parts.append(token.value)
            assert shape == tuple(expected_parts)
            assert literals == tuple(expected_literals)

    def test_shape_key_mask_cache_roundtrip(self):
        for sql in workload_sql():
            first = shape_key(sql)
            second = shape_key(sql)  # served by the masked-text cache
            assert first == second

    def test_values_coinciding_with_sentinels_stay_slots(self):
        """A literal equal to a would-be sentinel must not become fixed text."""
        schema = movie_schema()
        fast = QueryTranslator(schema, cache_size=None, phrase_plans=True)
        oracle = QueryTranslator(schema, cache_size=None, phrase_plans=False)
        template = "select m.title from MOVIES m where m.year = {value}"
        # 6 is the first int sentinel; 700.25 the first float sentinel.
        for value in (6, 9, 7, 12, 2005):
            sql = template.format(value=value)
            _assert_field_equivalence(fast.translate(sql), oracle.translate(sql), sql)
        for value in ("700.25", "701.25", "1999.5"):
            sql = template.format(value=value)
            _assert_field_equivalence(fast.translate(sql), oracle.translate(sql), sql)
        sentinel_word = "select a.name from ACTOR a where a.name = 'uqz0qzu'"
        other_word = "select a.name from ACTOR a where a.name = 'plainname'"
        for sql in (sentinel_word, other_word, sentinel_word):
            _assert_field_equivalence(fast.translate(sql), oracle.translate(sql), sql)

    def test_lexicon_override_invalidates_exact_text_lru(self):
        schema = movie_schema()
        translator = QueryTranslator(schema)  # default (shared) lexicon + LRU
        sql = "select m.title from MOVIES m where m.year = 1995"
        translator.translate(sql)  # first sighting
        before = translator.translate(sql).text
        other = QueryTranslator(schema)  # shares the per-schema default lexicon
        other.lexicon.set_caption("MOVIES", "year", "vintage")
        after = translator.translate(sql).text
        assert "vintage" in after and after != before
        # restore the shared default for other tests
        other.lexicon.set_caption("MOVIES", "year", "release year")

    def test_lexicon_override_invalidates_plans(self):
        from repro.lexicon.lexicon import default_lexicon

        schema = movie_schema()
        lexicon = default_lexicon(schema)
        translator = QueryTranslator(schema, lexicon=lexicon, cache_size=None, phrase_plans=True)
        sql = "select m.title from MOVIES m where m.year = 1995"
        translator.translate(sql)  # first sighting
        before = translator.translate(sql).text
        translator.translate(sql)  # plan hit
        lexicon.set_concept("MOVIES", "film", "films")
        after = translator.translate(sql).text
        assert "films" in after and after != before
        oracle = QueryTranslator(
            schema, lexicon=lexicon, cache_size=None, phrase_plans=False
        )
        assert after == oracle.translate(sql).text
