"""Concurrency equivalence suite for the asyncio narration service.

The contract under test: any interleaving of concurrent requests through
one :class:`~repro.service.NarrationService` session produces results
byte-identical to sequential synchronous calls against the underlying
pipeline — and the shared cache/plan statistics stay consistent while
the event loop and a disk run's pool thread interleave.
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
from repro.query_nl import translator as translator_module
from repro.query_nl.empty_answer import AnswerExplainer
from repro.query_nl.translator import QueryTranslator
from repro.service import NarrationService, ServiceClosed
from repro.service import service as service_module
from repro.service.resilience import DeadlineExceeded
from repro.storage.durability import DurabilityConfig


def workload_sql():
    return [q.sql for q in generate_workload(queries_per_category=10, seed=42)]


def run(coro):
    return asyncio.run(coro)


def park_disk_runs(session):
    """Hold the session's disk runs on their pool thread until released.

    Returns ``(started, proceed)``: ``started`` is set once a run is
    parked, and setting ``proceed`` lets it go on.  A parked
    ``snapshot_to`` holds the session's turn, so requests sent meanwhile
    wait for it.
    """
    started, proceed = threading.Event(), threading.Event()
    serve = session._serve

    def parked_serve(kind, payload, deadline):
        started.set()
        assert proceed.wait(5)
        return serve(kind, payload, deadline)

    session._serve = parked_serve
    return started, proceed


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
            async with NarrationService() as service:
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
            async with NarrationService() as service:
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
            async with NarrationService() as service:
                session = service.session(database=database, spec=spec)
                return await asyncio.gather(*[client(session, i) for i in range(60)])

        outputs = run(main())
        for index, output in enumerate(outputs):
            if index % 3 == 2:
                assert output == expected_story
            else:
                assert output == expected_texts[index % len(corpus)]


# ---------------------------------------------------------------------------
# Dispatch and ordering
# ---------------------------------------------------------------------------


class TestServiceMechanics:
    def test_warm_translates_take_their_turn_and_hit_the_cache(self):
        schema = movie_schema()
        sql = list(PAPER_QUERIES.values())[0]

        async def main():
            async with NarrationService() as service:
                session = service.session(schema=schema)
                ran = []
                run_request = session._run

                def spy_run(kind, payload):
                    ran.append((kind, threading.get_ident()))
                    return run_request(kind, payload)

                session._run = spy_run
                await session.translate(sql)  # cold: the full pipeline
                await session.translate(sql)  # admitted: cached from now on
                warm = await session.translate(sql)
                return warm, ran, session.stats()

        warm, ran, stats = run(main())
        assert warm.text
        # Cold or warm, every translate runs on the loop in its turn.
        assert ran == [("translate", threading.get_ident())] * 3
        assert stats["requests"]["inline"] == stats["requests"]["by_kind"]["translate"] == 3
        assert stats["translator"]["exact_cache"]["hits"] >= 1

    def test_replies_settle_after_the_turn_is_released(self, tmp_path):
        # A reply settled while its run still holds the session's turn
        # resumes its client while the turn is taken, so the translate it
        # sends next waits for its turn.  A durable session that syncs
        # every write runs each one on the pool.
        database = movie_database()
        sql = "select m.title from MOVIES m where m.year = 2004"
        repeats = 25

        async def main():
            async with NarrationService() as service:
                session = service.session(
                    database=database,
                    phrase_plans=True,
                    durability=DurabilityConfig(directory=tmp_path, fsync="always"),
                )
                lock_held = []

                async def served(request, text):
                    reply = await request(text)
                    lock_held.append(session._turn.locked())
                    return reply

                await served(session.translate, sql)  # first sighting
                await served(session.translate, sql)  # admitted and cached
                before = session.stats()["translator"]["exact_cache"]["hits"]
                for index in range(repeats):
                    insert = f"insert into GENRE (mid, genre) values (1, 'Settle {index}')"
                    await served(session.execute, insert)  # served by the pool
                    await session.translate(sql)
                return lock_held, before, session.stats()

        lock_held, before, stats = run(main())
        assert len(lock_held) == 2 + repeats and not any(lock_held)
        # Every translate that follows a pool-served reply is a cache hit
        # run on the loop; only the first two missed the cache.
        requests = stats["requests"]
        assert before == 0
        assert stats["translator"]["exact_cache"]["hits"] == repeats
        assert requests["by_kind"] == {"translate": 2 + repeats, "execute": repeats}
        assert requests["pooled"] == repeats
        assert requests["inline"] == 2 + repeats

    def test_each_reply_settles_as_soon_as_its_request_has_run(self, tmp_path):
        # Concurrent requests queued behind a disk run each run on their
        # own turn: no reply waits for a later request to run.
        database = movie_database()
        template = "select m.title from MOVIES m where m.year = {year}"
        requests = 8

        async def main():
            async with NarrationService() as service:
                session = service.session(database=database)
                events = []
                run_request = session._run

                def spy_run(kind, payload):
                    if kind == "execute":
                        events.append("run")
                    return run_request(kind, payload)

                async def client(year):
                    result = await session.execute(template.format(year=year))
                    events.append("reply")
                    return result

                session._run = spy_run
                started, proceed = park_disk_runs(session)
                parked = asyncio.ensure_future(session.snapshot_to(str(tmp_path), 0))
                try:
                    assert await asyncio.to_thread(started.wait, 5)
                    pending = asyncio.gather(
                        *[client(1990 + i) for i in range(requests)]
                    )
                    await asyncio.sleep(0.05)
                    assert session.stats()["requests"]["queue_depth"] == requests
                finally:
                    proceed.set()
                await asyncio.gather(parked, pending)
                return events, session.stats()["requests"]

        events, stats = run(main())
        assert events == ["run", "reply"] * requests
        assert stats["inline"] == requests and stats["pooled"] == 1

    def test_same_shape_requests_share_one_plan_compile(self):
        schema = movie_schema()
        template = "select m.title from MOVIES m where m.year = {year}"
        variants = [template.format(year=1990 + i) for i in range(40)]

        async def main():
            async with NarrationService() as service:
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
        # One shape: exactly one miss compiled the plan, everything else hit.
        assert plans["misses"] - sighted["misses"] == 1
        assert plans["hits"] + plans["misses"] - sighted["misses"] == len(variants)

    def test_one_request_per_session_runs_at_a_time(self, tmp_path):
        # Fifty concurrent requests queued behind a disk run: the session
        # runs one at a time, and every waiting request is answered.
        database = movie_database()
        template = "select m.title from MOVIES m where m.year = {year}"

        async def main():
            async with NarrationService() as service:
                session = service.session(database=database, cache_size=None)
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
                started, proceed = park_disk_runs(session)
                parked = asyncio.ensure_future(session.snapshot_to(str(tmp_path), 0))
                try:
                    assert await asyncio.to_thread(started.wait, 5)
                    pending = asyncio.gather(
                        *[
                            session.translate(template.format(year=1900 + i))
                            for i in range(50)
                        ]
                    )
                    await asyncio.sleep(0.05)
                finally:
                    proceed.set()
                await asyncio.gather(parked, pending)
                return running[1], session.stats()

        most, stats = run(main())
        assert most == 1
        assert stats["requests"]["by_kind"] == {"snapshot_to": 1, "translate": 50}
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
            async with NarrationService() as service:
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

    def test_a_cancelled_client_keeps_the_turn_until_its_run_ends(self, tmp_path):
        database = movie_database()
        second = "select count(*) from GENRE"

        async def main():
            async with NarrationService() as service:
                session = service.session(database=database)
                events = []
                run_request = session._run

                def spy_run(kind, payload):
                    events.append(("start", kind))
                    try:
                        return run_request(kind, payload)
                    finally:
                        events.append(("end", kind))

                session._run = spy_run
                started, proceed = park_disk_runs(session)
                try:
                    cancelled = asyncio.ensure_future(
                        session.snapshot_to(str(tmp_path), 0)
                    )
                    # Cancel only once the run has started on the pool.
                    assert await asyncio.to_thread(started.wait, 5)
                    cancelled.cancel()
                    following = asyncio.ensure_future(session.execute(second))
                    await asyncio.sleep(0.05)
                    waiting = session.stats()["requests"]["queue_depth"]
                finally:
                    proceed.set()
                result = await following
                return cancelled.cancelled(), waiting, events, result

        cancelled, waiting, events, result = run(main())
        assert cancelled
        # The next request waited for its turn while the cancelled run
        # still held it, and started only after it ended.
        assert waiting == 1
        assert events == [
            ("start", "snapshot_to"),
            ("end", "snapshot_to"),
            ("start", "execute"),
            ("end", "execute"),
        ]
        assert result.rows

    def test_a_client_cancelled_before_its_run_starts_runs_nothing(
        self, tmp_path, monkeypatch
    ):
        # One pool thread, two sessions: the first session's disk run
        # holds the thread, so the second's waits in the pool unstarted.
        monkeypatch.setattr(service_module, "_DISK_THREADS", 1)

        async def main():
            async with NarrationService() as service:
                busy = service.session(database=movie_database())
                other = service.session(database=movie_database())
                started = []
                serve = other._serve

                def spy_serve(kind, payload, deadline):
                    started.append(payload)
                    return serve(kind, payload, deadline)

                other._serve = spy_serve
                parked, proceed = park_disk_runs(busy)
                try:
                    holding = asyncio.ensure_future(
                        busy.snapshot_to(str(tmp_path / "busy"), 0)
                    )
                    assert await asyncio.to_thread(parked.wait, 5)
                    cancelled = asyncio.ensure_future(
                        other.snapshot_to(str(tmp_path / "cancelled"), 0)
                    )
                    await asyncio.sleep(0.05)
                    cancelled.cancel()
                    await asyncio.sleep(0.05)
                    # The cancelled request gave the turn back: the next one runs.
                    after = asyncio.ensure_future(
                        other.snapshot_to(str(tmp_path / "after"), 0)
                    )
                    await asyncio.sleep(0.05)
                finally:
                    proceed.set()
                await holding
                return cancelled.cancelled(), started, await after

        cancelled, started, after = run(main())
        assert cancelled
        # Only the request after the cancelled one ran.
        assert started == [(str(tmp_path / "after"), 0)]
        assert after["wal_seq"] == 0

    def test_a_disk_run_that_expires_waiting_for_a_thread_is_shed(
        self, tmp_path, monkeypatch
    ):
        # One pool thread, two sessions: the durable write's turn is free,
        # but its run waits for the thread past its budget.
        monkeypatch.setattr(service_module, "_DISK_THREADS", 1)
        insert = "insert into GENRE (mid, genre) values (1, 'Late')"
        count = "select count(*) from GENRE"

        async def main():
            async with NarrationService() as service:
                busy = service.session(database=movie_database())
                durable = service.session(
                    database=movie_database(),
                    durability=DurabilityConfig(directory=tmp_path / "wal", fsync="always"),
                )
                before = (await durable.execute(count)).rows[0]["count(*)"]
                parked, proceed = park_disk_runs(busy)
                try:
                    holding = asyncio.ensure_future(
                        busy.snapshot_to(str(tmp_path / "busy"), 0)
                    )
                    assert await asyncio.to_thread(parked.wait, 5)
                    late = asyncio.ensure_future(durable.execute(insert, timeout=0.05))
                    await asyncio.sleep(0.3)
                finally:
                    proceed.set()
                await holding
                with pytest.raises(DeadlineExceeded):
                    await late
                after = (await durable.execute(count)).rows[0]["count(*)"]
                return before, after, durable.stats()["requests"]

        before, after, requests = run(main())
        assert after == before  # the write never ran
        assert requests["shed"]["in_queue"] == 1
        assert requests["pooled"] == 1

    def test_errors_propagate_to_the_awaiting_client(self):
        schema = movie_schema()

        async def main():
            async with NarrationService() as service:
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
            async with NarrationService() as service:
                session = service.session(schema=movie_schema())
                with pytest.raises(ValueError):
                    await session.execute("select m.title from MOVIES m")

        run(main())

    def test_closed_service_rejects_requests(self):
        async def main():
            service = NarrationService()
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
            async with NarrationService() as service:
                service.session(database=database, cache_size=None)
                with pytest.raises(ValueError):
                    service.session(database=database, phrase_plans=False)
                # An explicit default is configuration too.
                with pytest.raises(ValueError):
                    service.session(database=database, cache_size=512)
                # reuse without configuration is fine
                assert service.session(database=database) is not None

        run(main())

    def test_each_translate_looks_up_the_exact_text_lru_once(self):
        schema = movie_schema()
        template = "select m.title from MOVIES m where m.year = {year}"
        uniques = [template.format(year=1900 + i) for i in range(30)]

        async def main():
            async with NarrationService() as service:
                session = service.session(schema=schema, phrase_plans=True)
                for sql in uniques:  # sequential: every lookup misses
                    await session.translate(sql)
                return session.stats()

        stats = run(main())
        exact = stats["translator"]["exact_cache"]
        # One counted lookup per request, no uncounted probe before it.
        assert exact["misses"] == len(uniques)
        assert exact["hits"] == 0  # every text was unique
        plans = stats["translator"]["plan_store"]
        assert plans["hits"] + plans["misses"] == len(uniques)

    def test_session_is_shared_per_schema_database_pair(self):
        database = movie_database()

        async def main():
            async with NarrationService() as service:
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
            async with NarrationService() as service:
                full = service.session(database=database)
                await full.translate(PAPER_QUERIES["Q1"])
                await full.execute(PAPER_QUERIES["Q1"])
                schema_only = service.session(schema=database.schema)
                return service.stats(), full.stats(), schema_only.stats()

        stats, full, schema_only = run(main())
        assert stats == {"sessions": [full, schema_only]}
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
            async with NarrationService() as service:
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
        assert requests["pooled"] == 0

    def test_a_durable_sessions_disk_requests_keep_the_pool(self, tmp_path):
        async def main():
            async with NarrationService() as service:
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
            async with NarrationService() as service:
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
            async with NarrationService() as service:
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

    def test_a_column_list_is_not_counted_as_a_row(self, tmp_path):
        async def main():
            async with NarrationService() as service:
                session = service.session(
                    database=movie_database(),
                    durability=DurabilityConfig(
                        directory=tmp_path, fsync="batch", batch_every=2, checkpoint_every=0
                    ),
                )
                steps = []
                for genre in ("a", "b"):
                    syncs = session.stats()["durability"]["wal"]["syncs"]
                    await session.execute(
                        f"insert into GENRE (mid, genre) values (1, '{genre}')"
                    )
                    requests = session.stats()["requests"]
                    synced = session.stats()["durability"]["wal"]["syncs"] - syncs
                    steps.append((requests["inline"], requests["pooled"], synced))
                return steps

        # One quiet append is left before the group commit: the first
        # row fits on the loop, the second syncs on a thread.
        assert run(main()) == [(1, 0, 0), (1, 1, 1)]

    def test_a_request_sent_during_a_pool_run_runs_after_it(self, tmp_path):
        # The disk run holds the turn while it waits on its thread: the
        # request sent then must wait its turn, not run beside it.
        database = movie_database()
        second = "select count(*) from GENRE"

        async def main():
            async with NarrationService() as service:
                session = service.session(database=database)
                ran = []
                run_request = session._run

                def spy_run(kind, payload):
                    ran.append(kind)
                    return run_request(kind, payload)

                session._run = spy_run
                started, proceed = park_disk_runs(session)
                try:
                    running = asyncio.ensure_future(
                        session.snapshot_to(str(tmp_path), 0)
                    )
                    assert await asyncio.to_thread(started.wait, 5)
                    following = asyncio.ensure_future(session.execute(second))
                    await asyncio.sleep(0.05)
                    waiting = session.stats()["requests"]["queue_depth"]
                finally:
                    proceed.set()
                await asyncio.gather(running, following)
                return ran, waiting, session.stats()["requests"]

        ran, waiting, requests = run(main())
        assert waiting == 1
        assert ran == ["snapshot_to", "execute"]
        assert requests["inline"] == 1 and requests["pooled"] == 1

    def test_a_cached_translate_waits_for_a_disk_run(self, tmp_path):
        # A disk run on its thread may be using the translator's caches,
        # so a translate the cache answers still waits for its turn.
        sql = "select m.title from MOVIES m where m.year = 2004"

        async def main():
            async with NarrationService() as service:
                session = service.session(database=movie_database(), phrase_plans=True)
                for _ in range(3):
                    await session.translate(sql)  # the last is a cache hit
                before = session.stats()
                ran = []
                run_request = session._run

                def spy_run(kind, payload):
                    ran.append((kind, threading.get_ident()))
                    return run_request(kind, payload)

                session._run = spy_run
                started, proceed = park_disk_runs(session)
                try:
                    parked = asyncio.ensure_future(session.snapshot_to(str(tmp_path), 0))
                    assert await asyncio.to_thread(started.wait, 5)
                    cached = asyncio.ensure_future(session.translate(sql))
                    await asyncio.sleep(0.05)
                    waiting = session.stats()["requests"]["queue_depth"]
                    assert ran == []  # the disk run is parked before it runs
                finally:
                    proceed.set()
                await asyncio.gather(parked, cached)
                return before, waiting, ran, session.stats()

        before, waiting, ran, after = run(main())
        assert before["translator"]["exact_cache"]["hits"] == 1
        assert waiting == 1
        assert [kind for kind, _ in ran] == ["snapshot_to", "translate"]
        assert ran[1][1] == threading.get_ident()  # after the disk run, on the loop
        assert after["translator"]["exact_cache"]["hits"] == 2
        requests = after["requests"]
        assert requests["inline"] == before["requests"]["inline"] + 1
        assert requests["pooled"] == 1

    def test_a_cached_translate_is_shed_on_an_expired_deadline(self):
        # A translate the cache can answer is admitted like any request:
        # an expired budget is shed typed, as an execute's is.
        sql = "select m.title from MOVIES m where m.year = 2004"

        async def main():
            async with NarrationService() as service:
                session = service.session(database=movie_database(), phrase_plans=True)
                for _ in range(3):
                    await session.translate(sql)  # the last is a cache hit
                with pytest.raises(DeadlineExceeded):
                    await session.translate(sql, timeout=0)
                with pytest.raises(DeadlineExceeded):
                    await session.execute(sql, timeout=0)
                return session.stats()

        stats = run(main())
        assert stats["translator"]["exact_cache"]["hits"] == 1
        requests = stats["requests"]
        assert requests["shed"]["deadline"] == 2
        assert requests["by_kind"] == {"translate": 3}
        assert requests["inline"] == 3

    def test_a_cold_translate_looks_its_shape_up_once(self, monkeypatch):
        looked_up = []
        shape_key = translator_module.shape_key

        def counting_shape_key(sql):
            looked_up.append(sql)
            return shape_key(sql)

        monkeypatch.setattr(translator_module, "shape_key", counting_shape_key)
        sql = "select m.title from MOVIES m where m.year = 2004"

        async def main():
            async with NarrationService() as service:
                session = service.session(schema=movie_schema(), phrase_plans=True)
                return await session.translate(sql)

        assert run(main()).text
        # One masking pass and one plan-store lookup for a miss.
        assert looked_up == [sql]

    def test_requests_queued_behind_a_disk_run_run_on_the_loop_in_order(
        self, tmp_path
    ):
        database = movie_database()
        sql = "select m.title from MOVIES m where m.year = 2004"

        async def main():
            async with NarrationService() as service:
                session = service.session(database=database, spec_factory=movie_spec)
                ran = []
                run_request = session._run

                def spy_run(kind, payload):
                    ran.append((kind, threading.get_ident()))
                    return run_request(kind, payload)

                session._run = spy_run
                started, proceed = park_disk_runs(session)
                try:
                    parked = asyncio.ensure_future(
                        session.snapshot_to(str(tmp_path), 0)
                    )
                    assert await asyncio.to_thread(started.wait, 5)
                    queued = [
                        asyncio.ensure_future(session.execute(sql)),
                        asyncio.ensure_future(session.translate(sql)),  # a miss
                        asyncio.ensure_future(
                            session.explain_empty(
                                "select m.title from MOVIES m where m.year = 1800"
                            )
                        ),
                        asyncio.ensure_future(session.narrate_relation("MOVIES")),
                    ]
                    await asyncio.sleep(0.05)
                    waiting = session.stats()["requests"]["queue_depth"]
                    assert ran == []  # the disk run is parked before it runs
                finally:
                    proceed.set()
                await asyncio.gather(parked, *queued)
                return ran, waiting, session.stats()["requests"]

        ran, waiting, requests = run(main())
        assert waiting == 4
        assert [kind for kind, _ in ran] == [
            "snapshot_to",
            "execute",
            "translate",
            "explain",
            "narrate_relation",
        ]
        loop_thread = threading.get_ident()
        assert ran[0][1] != loop_thread
        assert {thread for _, thread in ran[1:]} == {loop_thread}
        assert requests["pooled"] == 1
        assert requests["inline"] == 4

    def test_an_expired_timeout_is_shed_before_it_runs(self):
        async def main():
            async with NarrationService() as service:
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
            async with NarrationService() as service:
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
        assert sum(requests["by_kind"].values()) == requests["inline"] + requests["pooled"]

    def test_every_admitted_request_is_counted_on_one_path(self, tmp_path):
        database = movie_database()
        sql = "select m.title from MOVIES m where m.year = 2004"

        async def main():
            async with NarrationService() as service:
                session = service.session(database=database, phrase_plans=True)
                for _ in range(3):
                    await session.translate(sql)  # a miss on the loop, then hits
                await session.execute(sql)
                await session.narrate_relation("MOVIES")
                # A parked disk run holds the turn; the request behind it
                # runs out of budget while it waits its turn.
                started, proceed = park_disk_runs(session)
                try:
                    held = asyncio.ensure_future(session.snapshot_to(str(tmp_path), 0))
                    assert await asyncio.to_thread(started.wait, 5)
                    shed = asyncio.ensure_future(session.execute(sql, timeout=0.05))
                    queued = asyncio.ensure_future(session.explain_empty(sql))
                    await asyncio.sleep(0.3)
                finally:
                    proceed.set()
                await held
                with pytest.raises(DeadlineExceeded):
                    await shed
                await queued
                with pytest.raises(DeadlineExceeded):  # shed at admission
                    await session.execute(sql, timeout=0.0)
                return session.stats()["requests"]

        requests = run(main())
        assert requests["shed"] == {"overload": 0, "deadline": 1, "in_queue": 1}
        assert requests["inline"] == 7
        assert requests["pooled"] == 1
        assert sum(requests["by_kind"].values()) == requests["inline"] + requests["pooled"]


# ---------------------------------------------------------------------------
# Plan-store statistics consistency under interleaving (stress)
# ---------------------------------------------------------------------------


class TestPlanStoreStatsConsistency:
    def test_hits_plus_misses_account_for_every_plan_lookup(self):
        """Interleaved clients: the shared plan store never loses a count.

        With the exact-text LRU disabled every translate performs exactly
        one shape-keyed plan lookup, recorded as exactly one hit or one
        miss.
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
            async with NarrationService() as service:
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
            async with NarrationService() as service:
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
