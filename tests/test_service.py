"""Concurrency equivalence suite for the asyncio narration service.

The contract under test: any interleaving of concurrent requests through
one :class:`~repro.service.NarrationService` session produces results
byte-identical to sequential synchronous calls against the underlying
pipeline — and the shared cache/plan statistics stay consistent while
worker threads and the event loop interleave.
"""

import asyncio

import pytest

from repro.content.narrator import ContentNarrator
from repro.content.presets import movie_spec
from repro.datasets import (
    PAPER_QUERIES,
    generate_workload,
    movie_database,
    movie_schema,
)
from repro.engine import Executor
from repro.errors import SqlValidationError
from repro.query_nl.empty_answer import AnswerExplainer
from repro.query_nl.translator import QueryTranslator
from repro.service import NarrationService, ServiceClosed


def workload_sql():
    return [q.sql for q in generate_workload(queries_per_category=10, seed=42)]


def run(coro):
    return asyncio.run(coro)


def _fields(translation):
    return (
        translation.sql,
        translation.text,
        translation.concise,
        translation.category,
        tuple(translation.notes),
        translation.rewritten_sql,
    )


# ---------------------------------------------------------------------------
# Byte-identical equivalence under concurrency
# ---------------------------------------------------------------------------


class TestConcurrentEquivalence:
    def test_64_clients_replaying_workload_match_sequential_sync(self):
        database = movie_database()
        corpus = workload_sql() + list(PAPER_QUERIES.values())
        sync = QueryTranslator(
            database.schema, spec=movie_spec(database.schema), phrase_plans=True
        )
        expected = [_fields(sync.translate(sql)) for sql in corpus]

        async def replay(session):
            results = await asyncio.gather(
                *[session.translate(sql) for sql in corpus]
            )
            return [_fields(t) for t in results]

        async def main():
            async with NarrationService(max_workers=4) as service:
                session = service.session(
                    database=database, spec_factory=movie_spec
                )
                clients = await asyncio.gather(*[replay(session) for _ in range(64)])
                return clients, session.stats()

        clients, stats = run(main())
        for client in clients:
            assert client == expected
        assert stats["requests"]["by_kind"]["translate"] == 64 * len(corpus)
        # Stats consistency: a drained, unconfigured session shed nothing
        # and holds no queued work.
        assert stats["requests"]["queue_depth"] == 0
        assert stats["requests"]["shed"] == {
            "overload": 0,
            "deadline": 0,
            "in_queue": 0,
        }

    def test_execution_and_narration_match_sync_pipeline(self):
        database = movie_database()
        spec = movie_spec(database.schema)
        select = "select m.title from MOVIES m where m.year = 2004"
        empty = "select m.title from MOVIES m where m.year = 1800"
        sync_executor = Executor(database, compiled=True)
        expected_rows = sync_executor.execute_sql(select).rows
        expected_story = ContentNarrator(database, spec=spec).narrate_database()
        expected_movie = ContentNarrator(database, spec=spec).narrate_relation("MOVIES")
        expected_explanation = AnswerExplainer(database).explain(empty).text

        async def main():
            async with NarrationService(max_workers=4) as service:
                session = service.session(database=database, spec=spec)
                stories, relations, results, explanations = await asyncio.gather(
                    asyncio.gather(*[session.narrate_database() for _ in range(8)]),
                    asyncio.gather(
                        *[session.narrate_relation("MOVIES") for _ in range(8)]
                    ),
                    asyncio.gather(*[session.execute(select) for _ in range(8)]),
                    asyncio.gather(*[session.explain_empty(empty) for _ in range(8)]),
                )
                return stories, relations, results, explanations

        stories, relations, results, explanations = run(main())
        assert all(story == expected_story for story in stories)
        assert all(relation == expected_movie for relation in relations)
        assert all(result.rows == expected_rows for result in results)
        assert all(e.text == expected_explanation for e in explanations)

    def test_mixed_kinds_interleaved_match_sync(self):
        database = movie_database()
        spec = movie_spec(database.schema)
        corpus = workload_sql()[:20]
        sync = QueryTranslator(database.schema, spec=movie_spec(database.schema))
        expected_texts = [sync.translate(sql).text for sql in corpus]
        expected_story = ContentNarrator(database, spec=spec).narrate_database()

        async def client(session, index):
            if index % 3 == 2:
                return await session.narrate_database()
            return (await session.translate(corpus[index % len(corpus)])).text

        async def main():
            async with NarrationService(max_workers=3) as service:
                session = service.session(database=database, spec=spec)
                return await asyncio.gather(*[client(session, i) for i in range(60)])

        outputs = run(main())
        for index, output in enumerate(outputs):
            if index % 3 == 2:
                assert output == expected_story
            else:
                assert output == expected_texts[index % len(corpus)]


# ---------------------------------------------------------------------------
# Fast path, batching and back-pressure
# ---------------------------------------------------------------------------


class TestServiceMechanics:
    def test_fast_path_serves_warm_requests_inline(self):
        schema = movie_schema()
        sql = list(PAPER_QUERIES.values())[0]

        async def main():
            async with NarrationService(max_workers=2) as service:
                session = service.session(schema=schema)
                await session.translate(sql)  # cold: compiles on a worker
                # Warm requests with an idle queue take the direct-await
                # path.  The first may still race the worker releasing the
                # session lock, so probe a few times.
                warm = None
                for _ in range(10):
                    await asyncio.sleep(0.01)
                    warm = await session.translate(sql)
                    if session.stats()["requests"]["fast_path_hits"]:
                        break
                return warm, session.stats()

        warm, stats = run(main())
        assert warm.text
        assert stats["requests"]["fast_path_hits"] >= 1

    def test_replies_settle_after_the_work_lock_is_released(self):
        # A reply settled while the pool thread still holds the session
        # lock resumes its client into a fast path that finds the lock
        # taken, sending a cached translate through the queue and pool.
        database = movie_database()
        sql = "select m.title from MOVIES m where m.year = 2004"
        repeats = 25

        async def main():
            async with NarrationService(max_workers=2) as service:
                session = service.session(database=database, phrase_plans=True)
                lock_held = []
                deliver = session._deliver

                def spy(future, result=None, error=None):
                    lock_held.append(session._work_lock.locked())
                    deliver(future, result=result, error=error)

                session._deliver = spy
                await session.translate(sql)  # first sighting, on the pool
                await session.translate(sql)  # admitted and cached, on the pool
                before = session.stats()["requests"]["fast_path_hits"]
                for _ in range(repeats):
                    await session.execute(sql)  # always served by the pool
                    await session.translate(sql)
                after = session.stats()["requests"]["fast_path_hits"]
                return lock_held, after - before

        lock_held, fast = run(main())
        assert len(lock_held) == 2 + repeats and not any(lock_held)
        # Every translate that follows a pool-served reply is a cache hit
        # served on the fast path.
        assert fast == repeats

    def test_each_reply_settles_as_soon_as_its_request_has_run(self):
        # Requests share one batch; no member's reply may wait for the
        # rest of the batch to run.
        database = movie_database()
        template = "select m.title from MOVIES m where m.year = {year}"
        requests = 8

        async def main():
            async with NarrationService(max_workers=2) as service:
                session = service.session(database=database)
                events = []
                run_request, deliver = session._run, session._deliver

                def spy_run(request):
                    events.append("run")
                    return run_request(request)

                def spy_deliver(future, result=None, error=None):
                    events.append("deliver")
                    deliver(future, result=result, error=error)

                session._run, session._deliver = spy_run, spy_deliver
                await asyncio.gather(
                    *[session.execute(template.format(year=1990 + i)) for i in range(requests)]
                )
                return events, session.stats()

        events, stats = run(main())
        assert stats["requests"]["largest_batch"] > 1  # batches were shared
        assert events == ["run", "deliver"] * requests

    def test_same_shape_requests_share_one_plan_compile(self):
        schema = movie_schema()
        template = "select m.title from MOVIES m where m.year = {year}"
        variants = [template.format(year=1990 + i) for i in range(40)]

        async def main():
            async with NarrationService(max_workers=2) as service:
                # cache_size=None so every request exercises the plan path.
                session = service.session(
                    schema=schema, cache_size=None, phrase_plans=True
                )
                # The shape's first sighting is translated, not compiled.
                await session.translate(template.format(year=1989))
                sighted = session.stats()["translator"]["plan_store"]
                await asyncio.gather(*[session.translate(sql) for sql in variants])
                return sighted, session.stats()

        sighted, stats = run(main())
        assert sighted["misses"] == sighted["deferred"] == 1
        plans = stats["translator"]["plan_store"]
        # One shape: exactly one miss compiled the plan, everything else hit
        # (later requests of a batch, later batches, or the direct-await path).
        assert plans["misses"] - sighted["misses"] == 1
        assert plans["hits"] + plans["misses"] - sighted["misses"] == len(variants)

    def test_backpressure_bounds_the_queue(self):
        schema = movie_schema()
        template = "select m.title from MOVIES m where m.year = {year}"

        async def main():
            async with NarrationService(max_workers=2, max_queue=4, max_batch=2) as service:
                session = service.session(schema=schema, cache_size=None)
                await asyncio.gather(
                    *[session.translate(template.format(year=1900 + i)) for i in range(50)]
                )
                return session.stats()

        stats = run(main())
        assert stats["requests"]["queue_high_water"] <= 4
        assert stats["requests"]["by_kind"]["translate"] == 50
        # Back-pressure suspends producers; the default admission
        # controller must not have shed a single request.
        assert stats["requests"]["queue_depth"] == 0
        assert stats["requests"]["shed"] == {
            "overload": 0,
            "deadline": 0,
            "in_queue": 0,
        }

    def test_errors_propagate_to_the_awaiting_client(self):
        schema = movie_schema()

        async def main():
            async with NarrationService(max_workers=2) as service:
                session = service.session(schema=schema)
                ok = await session.translate(list(PAPER_QUERIES.values())[0])
                with pytest.raises(SqlValidationError):
                    await session.translate("select m.nope from MOVIES m")
                # the session survives the failed request
                again = await session.translate(list(PAPER_QUERIES.values())[1])
                return ok, again

        ok, again = run(main())
        assert ok.text and again.text

    def test_schema_only_session_rejects_execution(self):
        async def main():
            async with NarrationService(max_workers=1) as service:
                session = service.session(schema=movie_schema())
                with pytest.raises(ValueError):
                    await session.execute("select m.title from MOVIES m")

        run(main())

    def test_closed_service_rejects_requests(self):
        async def main():
            service = NarrationService(max_workers=1)
            session = service.session(schema=movie_schema())
            await session.translate(list(PAPER_QUERIES.values())[0])
            await service.aclose()
            with pytest.raises(ServiceClosed):
                await session.translate(list(PAPER_QUERIES.values())[1])
            with pytest.raises(ServiceClosed):
                service.session(schema=movie_schema())

        run(main())

    def test_existing_session_rejects_new_configuration(self):
        database = movie_database()

        async def main():
            async with NarrationService(max_workers=1) as service:
                service.session(database=database, cache_size=None)
                with pytest.raises(ValueError):
                    service.session(database=database, phrase_plans=False)
                # reuse without configuration is fine
                assert service.session(database=database) is not None

        run(main())

    def test_fast_path_probe_does_not_double_count_lru_misses(self):
        schema = movie_schema()
        template = "select m.title from MOVIES m where m.year = {year}"
        uniques = [template.format(year=1900 + i) for i in range(30)]

        async def main():
            async with NarrationService(max_workers=2) as service:
                session = service.session(schema=schema, phrase_plans=True)
                for sql in uniques:  # sequential: every probe runs and misses
                    await session.translate(sql)
                return session.stats()

        stats = run(main())
        exact = stats["translator"]["exact_cache"]
        # The fast-path probe's misses are uncounted: only slow-path
        # lookups count, so the total stays below one per request (without
        # record_miss=False every request would count 1-2 misses).
        assert exact["misses"] < len(uniques)
        assert exact["hits"] == 0  # every text was unique
        plans = stats["translator"]["plan_store"]
        assert plans["hits"] + plans["misses"] == len(uniques)

    def test_session_is_shared_per_schema_database_pair(self):
        database = movie_database()

        async def main():
            async with NarrationService(max_workers=1) as service:
                a = service.session(database=database)
                b = service.session(database=database)
                c = service.session(schema=database.schema)
                return a, b, c

        a, b, c = run(main())
        assert a is b
        assert c is not a  # schema-only session is a distinct pair


# ---------------------------------------------------------------------------
# Plan-store statistics consistency under interleaving (stress)
# ---------------------------------------------------------------------------


class TestPlanStoreStatsConsistency:
    def test_hits_plus_misses_account_for_every_plan_lookup(self):
        """Interleaved clients: the shared plan store never loses a count.

        With the exact-text LRU disabled every translate performs exactly
        one shape-keyed plan lookup, recorded as exactly one hit or one
        miss — across worker threads and the event-loop fast path.
        """
        schema = movie_schema()
        names = ["Brad Pitt", "Mark Hamill", "Jodie Foster", "Eric Bana"]
        base = workload_sql()
        rounds = 6
        batches = [
            [sql.replace("Brad Pitt", names[(r + i) % len(names)])
             for i, sql in enumerate(base)]
            for r in range(rounds)
        ]

        async def client(session, batch):
            return await asyncio.gather(*[session.translate(sql) for sql in batch])

        async def main():
            async with NarrationService(max_workers=4) as service:
                session = service.session(
                    schema=schema, cache_size=None, phrase_plans=True
                )
                before = session.translator.stats()["plan_store"]
                await asyncio.gather(*[client(session, b) for b in batches])
                after = session.translator.stats()["plan_store"]
                return before, after, session.stats()

        before, after, stats = run(main())
        total = rounds * len(base)
        produced = stats["requests"]["by_kind"]["translate"]
        assert produced == total
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        assert hits + misses == total
        # every distinct (shape, guards) compiled at most once
        assert misses <= len(base) * 2
        assert after["unplannable"] == before["unplannable"]

    def test_two_sessions_share_one_plan_store_consistently(self):
        """Sessions of the same schema share the per-lexicon plan store."""
        database = movie_database()
        # The *same* Schema object: the shared default lexicon (and its
        # plan store) is keyed by schema identity.
        schema = database.schema
        sqls = workload_sql()[:25]

        async def replay(session):
            await asyncio.gather(*[session.translate(sql) for sql in sqls])

        async def main():
            async with NarrationService(max_workers=4) as service:
                translate_only = service.session(
                    schema=schema, cache_size=None, phrase_plans=True
                )
                with_database = service.session(
                    database=database, cache_size=None, phrase_plans=True
                )
                store_a = translate_only.translator._plans
                store_b = with_database.translator._plans
                assert store_a is store_b  # same shared default lexicon
                before = store_a.stats
                await asyncio.gather(
                    replay(translate_only),
                    replay(with_database),
                    replay(translate_only),
                    replay(with_database),
                )
                return before, store_a.stats

        before, after = run(main())
        total = 4 * len(sqls)
        delta = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
        assert delta == total
