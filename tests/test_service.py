"""Concurrency equivalence suite for the asyncio narration service.

The contract under test: any interleaving of concurrent requests through
one :class:`~repro.service.NarrationService` session produces results
byte-identical to sequential synchronous calls against the underlying
pipeline — and the shared cache/plan statistics stay consistent while
worker threads and the event loop interleave.
"""

import asyncio
import sys
import threading

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
from repro.service.resilience import DeadlineExceeded
from repro.storage.durability import DurabilityConfig


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
        # Stats consistency: an idle, unconfigured session shed nothing
        # and has no request waiting.
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
# Fast path, dispatch and ordering
# ---------------------------------------------------------------------------


class TestServiceMechanics:
    def test_fast_path_serves_warm_requests_inline(self):
        schema = movie_schema()
        sql = list(PAPER_QUERIES.values())[0]

        async def main():
            async with NarrationService(max_workers=2) as service:
                session = service.session(schema=schema)
                await session.translate(sql)  # cold: compiles on a worker
                # Warm requests on an idle session take the direct-await
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

    def test_replies_settle_after_the_work_lock_is_released(self, tmp_path):
        # A reply settled while the pool thread still holds the session
        # lock resumes its client into a fast path that finds the lock
        # taken, sending a cached translate through the pool.  A durable
        # session that syncs every write runs each one on the pool.
        database = movie_database()
        sql = "select m.title from MOVIES m where m.year = 2004"
        repeats = 25

        async def main():
            async with NarrationService(max_workers=2) as service:
                session = service.session(
                    database=database,
                    phrase_plans=True,
                    durability=DurabilityConfig(directory=tmp_path, fsync="always"),
                )
                lock_held = []

                async def served(request, text):
                    reply = await request(text)
                    lock_held.append(session._work_lock.locked())
                    return reply

                await served(session.translate, sql)  # first sighting
                await served(session.translate, sql)  # admitted and cached
                before = session.stats()["requests"]["fast_path_hits"]
                for index in range(repeats):
                    insert = f"insert into GENRE (mid, genre) values (1, 'Settle {index}')"
                    await served(session.execute, insert)  # served by the pool
                    await session.translate(sql)
                return lock_held, before, session.stats()["requests"]

        lock_held, before, requests = run(main())
        assert len(lock_held) == 2 + repeats and not any(lock_held)
        # Every translate that follows a pool-served reply is a cache hit
        # served on the fast path; only the first two missed the cache.
        assert before == 0
        assert requests["fast_path_hits"] == repeats
        assert requests["by_kind"] == {"translate": 2 + repeats, "execute": repeats}
        assert requests["pooled"] == repeats

    def test_each_reply_settles_as_soon_as_its_request_has_run(self):
        # Concurrent requests on the pool path each get their own pool
        # call: no reply waits for a later request to run.
        database = movie_database()
        template = "select m.title from MOVIES m where m.year = {year}"
        requests = 8

        async def main():
            async with NarrationService(max_workers=2) as service:
                session = service.session(database=database)
                events = []
                run_request = session._run

                def spy_run(kind, payload):
                    events.append("run")
                    return run_request(kind, payload)

                async def client(year):
                    result = await session.execute(template.format(year=year))
                    events.append("reply")
                    return result

                session._run = spy_run
                # Holding the work lock sends every request down the pool
                # path: an idle session would run each one on the loop.
                assert session._work_lock.acquire(timeout=5)
                try:
                    pending = asyncio.gather(
                        *[client(1990 + i) for i in range(requests)]
                    )
                    await asyncio.sleep(0.05)
                finally:
                    session._work_lock.release()
                await pending
                assert session.stats()["requests"]["pooled"] == requests
                return events

        assert run(main()) == ["run", "reply"] * requests

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
        # (on the pool or on the direct-await path).
        assert plans["misses"] - sighted["misses"] == 1
        assert plans["hits"] + plans["misses"] - sighted["misses"] == len(variants)

    def test_one_request_per_session_is_on_the_pool_at_a_time(self):
        # Fifty concurrent requests on a two-thread pool: the session hands
        # the pool one at a time, and every waiting request is answered.
        schema = movie_schema()
        template = "select m.title from MOVIES m where m.year = {year}"

        async def main():
            async with NarrationService(max_workers=2) as service:
                session = service.session(schema=schema, cache_size=None)
                guard = threading.Lock()
                on_pool = [0, 0]  # now, most at once
                serve = session._serve

                def spy_serve(kind, payload, deadline):
                    with guard:
                        on_pool[0] += 1
                        on_pool[1] = max(on_pool)
                    try:
                        return serve(kind, payload, deadline)
                    finally:
                        with guard:
                            on_pool[0] -= 1

                session._serve = spy_serve
                # Holding the work lock sends every request down the pool
                # path: an idle session would run each one on the loop.
                assert session._work_lock.acquire(timeout=5)
                try:
                    pending = asyncio.gather(
                        *[
                            session.translate(template.format(year=1900 + i))
                            for i in range(50)
                        ]
                    )
                    await asyncio.sleep(0.05)
                finally:
                    session._work_lock.release()
                await pending
                return on_pool[1], session.stats()

        most, stats = run(main())
        assert most == 1
        assert stats["requests"]["by_kind"]["translate"] == 50
        # The default admission controller must not have shed a single
        # request, and nothing is left waiting.
        assert stats["requests"]["queue_depth"] == 0
        assert stats["requests"]["shed"] == {
            "overload": 0,
            "deadline": 0,
            "in_queue": 0,
        }

    def test_requests_run_in_arrival_order(self):
        # Interleaved writes and reads on one session: each count sees
        # exactly the inserts submitted before it.
        database = movie_database()
        pairs = 20
        count = "select count(*) from GENRE"

        async def main():
            async with NarrationService(max_workers=4) as service:
                session = service.session(database=database)
                base = (await session.execute(count)).rows[0]["count(*)"]
                requests = []
                for index in range(pairs):
                    requests.append(
                        session.execute(
                            f"insert into GENRE (mid, genre) values (1, 'Order {index}')"
                        )
                    )
                    requests.append(session.execute(count))
                replies = await asyncio.gather(*requests)
                return base, [reply.rows[0]["count(*)"] for reply in replies[1::2]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # pool threads interleave as often as they can
        try:
            base, counts = run(main())
        finally:
            sys.setswitchinterval(interval)
        assert counts == [base + inserted for inserted in range(1, pairs + 1)]

    def test_a_cancelled_client_keeps_the_turn_until_its_run_ends(self):
        database = movie_database()
        first = "select count(*) from MOVIES"
        second = "select count(*) from GENRE"

        async def main():
            async with NarrationService(max_workers=2) as service:
                session = service.session(database=database)
                await session.execute(first)
                events = []
                started = threading.Event()
                serve = session._serve

                def spy_serve(kind, payload, deadline):
                    events.append(("start", payload))
                    started.set()
                    try:
                        return serve(kind, payload, deadline)
                    finally:
                        events.append(("end", payload))

                session._serve = spy_serve
                # Holding the work lock parks the first request on the pool.
                assert session._work_lock.acquire(timeout=5)
                try:
                    cancelled = asyncio.ensure_future(session.execute(first))
                    # Cancel only once the run has started on the pool.
                    assert await asyncio.to_thread(started.wait, 5)
                    cancelled.cancel()
                    following = asyncio.ensure_future(session.execute(second))
                    await asyncio.sleep(0.05)
                    waiting = session.stats()["requests"]["queue_depth"]
                finally:
                    session._work_lock.release()
                result = await following
                return cancelled.cancelled(), waiting, events, result

        cancelled, waiting, events, result = run(main())
        assert cancelled
        # The next request waited for its turn while the cancelled run
        # still held the pool, and started only after it ended.
        assert waiting == 1
        assert events == [
            ("start", first),
            ("end", first),
            ("start", second),
            ("end", second),
        ]
        assert result.rows

    def test_a_client_cancelled_before_its_run_starts_runs_nothing(self):
        # One pool thread, two sessions: the first session's request
        # holds the thread, so the second's waits in the pool unstarted.
        database = movie_database()
        sql = "select count(*) from MOVIES"

        async def main():
            async with NarrationService(max_workers=1) as service:
                busy = service.session(database=database)
                other = service.session(schema=database.schema)
                started = []
                serve = other._serve

                def spy_serve(kind, payload, deadline):
                    started.append(payload)
                    return serve(kind, payload, deadline)

                other._serve = spy_serve
                # Holding both work locks sends every request down the pool
                # path: an idle session would run each one on the loop.
                assert busy._work_lock.acquire(timeout=5)
                assert other._work_lock.acquire(timeout=5)
                try:
                    holding = asyncio.ensure_future(busy.execute(sql))
                    await asyncio.sleep(0.05)
                    cancelled = asyncio.ensure_future(other.translate(sql))
                    await asyncio.sleep(0.05)
                    cancelled.cancel()
                    await asyncio.sleep(0.05)
                    # The cancelled request gave the turn back: the next one runs.
                    after = asyncio.ensure_future(other.translate(sql))
                    await asyncio.sleep(0.05)
                finally:
                    other._work_lock.release()
                    busy._work_lock.release()
                await holding
                return cancelled.cancelled(), started, await after

        cancelled, started, after = run(main())
        assert cancelled
        assert started == [sql]  # only the request after the cancelled one
        assert after.text

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
                # An explicit default is configuration too.
                with pytest.raises(ValueError):
                    service.session(database=database, cache_size=512)
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

    def test_service_stats_gathers_every_sessions_stats(self):
        database = movie_database()

        async def main():
            async with NarrationService(max_workers=2) as service:
                full = service.session(database=database)
                await full.translate(PAPER_QUERIES["Q1"])
                await full.execute(PAPER_QUERIES["Q1"])
                schema_only = service.session(schema=database.schema)
                return service.stats(), full.stats(), schema_only.stats()

        stats, full, schema_only = run(main())
        assert stats["max_workers"] == 2
        assert stats["sessions"] == [full, schema_only]
        assert full["has_database"] and not schema_only["has_database"]
        assert full["requests"]["by_kind"] == {"translate": 1, "execute": 1}


# ---------------------------------------------------------------------------
# Which requests run on the event loop
# ---------------------------------------------------------------------------


class TestInlineRule:
    def test_an_idle_session_runs_every_request_on_the_loop(self):
        database = movie_database()
        sql = "select m.title from MOVIES m where m.year = 2004"

        async def main():
            async with NarrationService(max_workers=1) as service:
                session = service.session(database=database, spec_factory=movie_spec)
                ran = []
                run_request = session._run

                def no_pool(kind, payload, deadline):
                    raise AssertionError(f"{kind} was handed to the pool")

                def spy_run(kind, payload):
                    ran.append((kind, threading.get_ident()))
                    return run_request(kind, payload)

                session._serve = no_pool
                session._run = spy_run
                translation = await session.translate(sql)  # an exact-cache miss
                await session.execute(sql)
                await session.explain_empty(
                    "select m.title from MOVIES m where m.year = 1800"
                )
                await session.narrate_relation("MOVIES")
                await session.narrate_database()
                # Without durability a write cannot wait on the disk.
                await session.execute("insert into GENRE (mid, genre) values (1, 'Idle')")
                return translation, ran, session.stats()["requests"]

        translation, ran, requests = run(main())
        assert translation.text
        assert [kind for kind, _ in ran] == [
            "translate",
            "execute",
            "explain",
            "narrate_relation",
            "narrate_database",
            "execute",
        ]
        assert {thread for _, thread in ran} == {threading.get_ident()}
        assert requests["inline"] == len(ran)
        assert requests["pooled"] == requests["fast_path_hits"] == 0

    def test_a_durable_sessions_disk_requests_keep_the_pool(self, tmp_path):
        async def main():
            async with NarrationService(max_workers=1) as service:
                session = service.session(
                    database=movie_database(),
                    durability=DurabilityConfig(directory=tmp_path / "wal", fsync="always"),
                )
                served = []
                serve = session._serve

                def spy_serve(kind, payload, deadline):
                    served.append(kind)
                    return serve(kind, payload, deadline)

                session._serve = spy_serve
                await session.execute("select count(*) from GENRE")  # a read
                await session.execute("insert into GENRE (mid, genre) values (1, 'Disk')")
                seq = await session.checkpoint()
                await session.snapshot_to(str(tmp_path / "copy"), seq)
                return served, session.stats()["requests"]

        served, requests = run(main())
        assert served == ["execute", "checkpoint", "snapshot_to"]
        assert requests["inline"] == 1 and requests["pooled"] == 3

    @pytest.mark.parametrize(
        "config, pooled",
        [
            # Every fourth append completes a group commit and syncs.
            ({"fsync": "batch", "batch_every": 4, "checkpoint_every": 0}, [3, 7]),
            # Every third mutation reaches the checkpoint cadence.
            ({"fsync": "never", "checkpoint_every": 3}, [2, 5]),
            # Whichever comes first (a checkpoint syncs the log too).
            ({"fsync": "batch", "batch_every": 3, "checkpoint_every": 5}, [2, 4, 7]),
        ],
    )
    def test_a_durable_write_runs_on_the_loop_until_it_waits_on_the_disk(
        self, tmp_path, config, pooled
    ):
        async def main():
            async with NarrationService(max_workers=1) as service:
                session = service.session(
                    database=movie_database(),
                    durability=DurabilityConfig(directory=tmp_path, **config),
                )
                served = []
                serve = session._serve

                def spy_serve(kind, payload, deadline):
                    served.append(payload)
                    return serve(kind, payload, deadline)

                session._serve = spy_serve
                writes = [
                    f"insert into GENRE values (1, 'Write {index}')" for index in range(8)
                ]
                for sql in writes:
                    await session.execute(sql)
                return writes, served

        writes, served = run(main())
        assert served == [writes[index] for index in pooled]

    def test_a_write_of_several_rows_counts_each_row(self, tmp_path):
        async def main():
            async with NarrationService(max_workers=1) as service:
                session = service.session(
                    database=movie_database(),
                    durability=DurabilityConfig(
                        directory=tmp_path, fsync="batch", batch_every=5, checkpoint_every=0
                    ),
                )

                async def write(sql):
                    syncs = session.stats()["durability"]["wal"]["syncs"]
                    await session.execute(sql)
                    requests = session.stats()["requests"]
                    synced = session.stats()["durability"]["wal"]["syncs"] - syncs
                    return requests["inline"], requests["pooled"], synced

                steps = [await write("insert into GENRE values (1, 'a')")]
                steps.append(await write("insert into GENRE values (1, 'b')"))
                # Two quiet appends are left: the third row would sync.
                steps.append(
                    await write("insert into GENRE values (1, 'c'), (1, 'd'), (1, 'e')")
                )
                # After the group commit, two rows fit again.
                steps.append(await write("insert into GENRE values (1, 'f'), (1, 'g')"))
                return steps

        assert run(main()) == [(1, 0, 0), (2, 0, 0), (2, 1, 1), (3, 1, 0)]

    def test_a_request_sent_during_a_pool_run_runs_after_it(self):
        # The pool run holds the turn while the work lock is free: the
        # request sent then must wait its turn, not run on the loop.
        database = movie_database()
        first = "select count(*) from MOVIES"
        second = "select count(*) from GENRE"

        async def main():
            async with NarrationService(max_workers=1) as service:
                session = service.session(database=database)
                ran = []
                started, proceed = threading.Event(), threading.Event()
                serve, run_request = session._serve, session._run

                def parked_serve(kind, payload, deadline):
                    started.set()
                    assert proceed.wait(5)
                    return serve(kind, payload, deadline)

                def spy_run(kind, payload):
                    ran.append(payload)
                    return run_request(kind, payload)

                session._serve = parked_serve
                session._run = spy_run
                # Holding the work lock sends the first request to the pool.
                assert session._work_lock.acquire(timeout=5)
                try:
                    running = asyncio.ensure_future(session.execute(first))
                    assert await asyncio.to_thread(started.wait, 5)
                finally:
                    session._work_lock.release()
                following = asyncio.ensure_future(session.execute(second))
                await asyncio.sleep(0.05)
                waiting = session.stats()["requests"]["queue_depth"]
                proceed.set()
                await asyncio.gather(running, following)
                return ran, waiting, session.stats()["requests"]

        ran, waiting, requests = run(main())
        assert waiting == 1
        assert ran == [first, second]
        assert requests["inline"] == 0 and requests["pooled"] == 2

    def test_an_expired_timeout_is_shed_before_it_runs(self):
        async def main():
            async with NarrationService(max_workers=1) as service:
                session = service.session(database=movie_database())
                ran = []
                run_request = session._run

                def spy_run(kind, payload):
                    ran.append(kind)
                    return run_request(kind, payload)

                session._run = spy_run
                with pytest.raises(DeadlineExceeded):
                    await session.execute("select count(*) from MOVIES", timeout=0.0)
                return ran, session.stats()["requests"]

        ran, requests = run(main())
        assert ran == []
        assert requests["shed"]["deadline"] == 1
        assert requests["by_kind"] == {}
        assert requests["inline"] == requests["pooled"] == 0

    def test_inline_and_pooled_runs_never_overlap(self, tmp_path):
        # Durable writes go to the pool and reads run on the loop when the
        # session is idle: sixteen clients interleave the two paths while
        # the pool thread switches as often as it can.
        database = movie_database()
        clients, rounds = 16, 10
        count = "select count(*) from GENRE"

        async def main():
            async with NarrationService(max_workers=4) as service:
                # Every second write completes a group commit: it syncs, so
                # it runs on the pool.
                session = service.session(
                    database=database,
                    durability=DurabilityConfig(
                        directory=tmp_path, fsync="batch", batch_every=2, checkpoint_every=0
                    ),
                )
                base = (await session.execute(count)).rows[0]["count(*)"]
                guard = threading.Lock()
                running = [0, 0]  # now, most at once
                run_request = session._run

                def spy_run(kind, payload):
                    with guard:
                        running[0] += 1
                        running[1] = max(running)
                    try:
                        return run_request(kind, payload)
                    finally:
                        with guard:
                            running[0] -= 1

                session._run = spy_run

                async def client(number):
                    seen = []
                    for index in range(rounds):
                        await session.execute(
                            "insert into GENRE (mid, genre)"
                            f" values (1, 'Stress {number}-{index}')"
                        )
                        # Yield, so that other clients' requests are sent
                        # while a pool run is under way.
                        await asyncio.sleep(0)
                        seen.append((await session.execute(count)).rows[0]["count(*)"])
                        await session.translate(count)
                    return seen

                seen = await asyncio.wait_for(
                    asyncio.gather(*[client(n) for n in range(clients)]), 60
                )
                final = (await session.execute(count)).rows[0]["count(*)"]
                return base, seen, final, running[1], session.stats()["requests"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            base, seen, final, most, requests = run(main())
        finally:
            sys.setswitchinterval(interval)
        assert most == 1
        assert final == base + clients * rounds
        for counts in seen:  # each client's own inserts precede its counts
            assert counts == sorted(set(counts)) and counts[0] > base
        assert requests["inline"] > 0 and requests["pooled"] >= clients * rounds // 2
        assert requests["queue_depth"] == 0
        assert sum(requests["by_kind"].values()) == (
            requests["fast_path_hits"] + requests["inline"] + requests["pooled"]
        )

    def test_every_admitted_request_is_counted_on_one_path(self):
        database = movie_database()
        sql = "select m.title from MOVIES m where m.year = 2004"

        async def main():
            async with NarrationService(max_workers=1) as service:
                session = service.session(database=database, phrase_plans=True)
                for _ in range(3):
                    await session.translate(sql)  # a miss on the loop, then hits
                await session.execute(sql)
                await session.narrate_relation("MOVIES")
                # Holding the work lock parks a pool run; the request
                # behind it runs out of budget while it waits its turn.
                assert session._work_lock.acquire(timeout=5)
                try:
                    held = asyncio.ensure_future(session.execute(sql))
                    await asyncio.sleep(0.05)
                    shed = asyncio.ensure_future(session.execute(sql, timeout=0.05))
                    queued = asyncio.ensure_future(session.explain_empty(sql))
                    await asyncio.sleep(0.3)
                finally:
                    session._work_lock.release()
                await held
                with pytest.raises(DeadlineExceeded):
                    await shed
                await queued
                with pytest.raises(DeadlineExceeded):  # shed at admission
                    await session.execute(sql, timeout=0.0)
                return session.stats()["requests"]

        requests = run(main())
        assert requests["shed"] == {"overload": 0, "deadline": 1, "in_queue": 1}
        assert requests["fast_path_hits"] >= 1
        assert requests["inline"] + requests["fast_path_hits"] == 5
        assert requests["pooled"] == 3
        assert sum(requests["by_kind"].values()) == (
            requests["fast_path_hits"] + requests["inline"] + requests["pooled"]
        )


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
