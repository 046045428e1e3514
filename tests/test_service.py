"""Concurrency equivalence suite for the asyncio narration service.

The contract under test: any interleaving of concurrent requests through
one :class:`~repro.service.NarrationService` session produces results
byte-identical to sequential synchronous calls against the underlying
pipeline — and the shared cache/plan statistics stay consistent — while
every request, disk waits included, runs on the event-loop thread.
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
from repro.service.resilience import DeadlineExceeded
from repro.storage.durability import DurabilityConfig
from repro.storage.wal import WriteAheadLog


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
            async with NarrationService() as service:
                session = service.session(
                    database=database, spec_factory=movie_spec
                )
                clients = await asyncio.gather(*[replay(session) for _ in range(64)])
                return clients, session.stats()

        clients, stats = run(main())
        for client in clients:
            assert client == expected
        # Stats consistency: every request was answered and counted once,
        # and none carried a deadline to shed it.
        assert stats["requests"]["by_kind"] == {"translate": 64 * len(corpus)}
        assert stats["requests"]["shed"] == {"deadline": 0}

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
    def test_warm_translates_run_on_the_loop_and_hit_the_cache(self):
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
        # Cold or warm, every translate runs on the loop.
        assert ran == [("translate", threading.get_ident())] * 3
        assert stats["requests"]["by_kind"] == {"translate": 3}
        assert stats["translator"]["exact_cache"]["hits"] >= 1

    def test_translates_between_durable_writes_hit_the_cache(self, tmp_path):
        # Every write of a session that syncs the log on each append waits
        # on the disk on the loop; the translate sent after each one is an
        # exact-text cache hit.
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
                await session.translate(sql)  # first sighting
                await session.translate(sql)  # admitted and cached
                before = session.stats()
                for index in range(repeats):
                    insert = f"insert into GENRE (mid, genre) values (1, 'Settle {index}')"
                    await session.execute(insert)
                    await session.translate(sql)
                return before, session.stats()

        before, stats = run(main())
        # Only the first two translates missed the cache.
        assert before["translator"]["exact_cache"]["hits"] == 0
        assert stats["translator"]["exact_cache"]["hits"] == repeats
        assert stats["requests"]["by_kind"] == {"translate": 2 + repeats, "execute": repeats}
        syncs = before["durability"]["wal"]["syncs"] + repeats
        assert stats["durability"]["wal"]["syncs"] == syncs

    def test_each_reply_settles_as_soon_as_its_request_has_run(self):
        # Concurrent requests each run to completion on the loop: no
        # reply waits for a later request to run.
        database = movie_database()
        template = "select m.title from MOVIES m where m.year = {year}"
        requests = 8

        async def main():
            async with NarrationService() as service:
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
                await asyncio.gather(*[client(1990 + i) for i in range(requests)])
                return events, session.stats()["requests"]

        events, stats = run(main())
        assert events == ["run", "reply"] * requests
        assert stats["by_kind"] == {"execute": requests}

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
        # Fifty concurrent translates sent with a disk write (a snapshot):
        # the session runs one at a time, and every request is answered.
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
                snapshot = session.snapshot_to(str(tmp_path), 0)
                translates = [
                    session.translate(template.format(year=1900 + i)) for i in range(50)
                ]
                await asyncio.gather(snapshot, *translates)
                return running[1], session.stats()

        most, stats = run(main())
        assert most == 1
        assert stats["requests"]["by_kind"] == {"snapshot_to": 1, "translate": 50}
        # The default admission controller must not have shed a single
        # request.
        assert stats["requests"]["shed"] == {"deadline": 0}

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
        sys.setswitchinterval(1e-6)  # any other thread switches as often as it can
        try:
            base, counts = run(main())
        finally:
            sys.setswitchinterval(interval)
        assert counts == [base + inserted for inserted in range(1, pairs + 1)]

    def test_a_client_cancelled_before_its_run_starts_runs_nothing(self, tmp_path):
        # A request runs when its coroutine starts: a client cancelled
        # before then writes nothing, and the next request runs as usual.
        async def main():
            async with NarrationService() as service:
                session = service.session(database=movie_database())
                started = []
                run_request = session._run

                def spy_run(kind, payload):
                    started.append(payload)
                    return run_request(kind, payload)

                session._run = spy_run
                cancelled = asyncio.ensure_future(
                    session.snapshot_to(str(tmp_path / "cancelled"), 0)
                )
                cancelled.cancel()
                await asyncio.sleep(0)  # the loop settles the cancelled client
                after = await session.snapshot_to(str(tmp_path / "after"), 0)
                return cancelled.cancelled(), started, after, session.stats()["requests"]

        cancelled, started, after, requests = run(main())
        assert cancelled
        # Only the request after the cancelled one ran.
        assert started == [(str(tmp_path / "after"), 0)]
        assert after["wal_seq"] == 0
        assert not (tmp_path / "cancelled").exists()
        assert requests["by_kind"] == {"snapshot_to": 1}

    def test_a_client_cancelled_during_its_run_lets_the_run_end(self, tmp_path):
        # A run never yields to the loop, so a cancel delivered while it
        # runs (here, from inside it) takes effect only once it has ended:
        # the durable write is logged, synced and applied before the next
        # request starts, and that request sees it.
        count = "select count(*) from GENRE"

        async def main():
            async with NarrationService() as service:
                session = service.session(
                    database=movie_database(),
                    durability=DurabilityConfig(directory=tmp_path, fsync="always"),
                )
                base = (await session.execute(count)).rows[0]["count(*)"]
                wal = session.stats()["durability"]["wal"]
                events = []
                run_request = session._run

                def spy_run(kind, payload):
                    events.append(("start", payload))
                    if payload.startswith("insert"):
                        asyncio.current_task().cancel()
                    try:
                        return run_request(kind, payload)
                    finally:
                        events.append(("end", payload))

                session._run = spy_run
                insert = "insert into GENRE (mid, genre) values (1, 'Cancelled')"
                cancelled = asyncio.ensure_future(session.execute(insert))
                following = asyncio.ensure_future(session.execute(count))
                await asyncio.gather(cancelled, following, return_exceptions=True)
                reply = following.result()
                stats = session.stats()
                return cancelled.cancelled(), base, wal, reply, events, stats

        cancelled, base, wal, reply, events, stats = run(main())
        assert cancelled
        insert = "insert into GENRE (mid, genre) values (1, 'Cancelled')"
        assert events == [("start", insert), ("end", insert), ("start", count), ("end", count)]
        assert reply.rows[0]["count(*)"] == base + 1
        logged = stats["durability"]["wal"]
        assert logged["appends"] == wal["appends"] + 1
        assert logged["syncs"] == wal["syncs"] + 1
        assert stats["requests"]["by_kind"] == {"execute": 3}

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

                def spy_run(kind, payload):
                    ran.append((kind, threading.get_ident()))
                    return run_request(kind, payload)

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
        assert requests["by_kind"] == {
            "translate": 1,
            "execute": 2,
            "explain": 1,
            "narrate_relation": 1,
            "narrate_database": 1,
        }

    @pytest.mark.parametrize(
        "config",
        [
            {"fsync": "always"},
            # Every second append completes a group commit and syncs.
            {"fsync": "batch", "batch_every": 2},
            # Every second mutation reaches the checkpoint cadence.
            {"fsync": "never", "checkpoint_every": 2},
        ],
        ids=["always", "batch", "never"],
    )
    def test_a_durable_session_waits_on_the_disk_on_the_loop(
        self, tmp_path, monkeypatch, config
    ):
        # Writes whose appends sync the log or reach the checkpoint
        # cadence, checkpoint() and snapshot_to() run on the loop thread,
        # and the session's whole life starts no thread.
        appended = []
        append = WriteAheadLog.append

        def spy_append(wal, payload, seq=None):
            appended.append(threading.get_ident())
            return append(wal, payload, seq)

        monkeypatch.setattr(WriteAheadLog, "append", spy_append)

        def disk_waits(session):
            durability = session.stats()["durability"]
            return durability["wal"]["syncs"] + durability["checkpoints"]

        async def main():
            async with NarrationService() as service:
                session = service.session(
                    database=movie_database(),
                    durability=DurabilityConfig(directory=tmp_path / "wal", **config),
                )
                ran = []
                run_request = session._run

                def spy_run(kind, payload):
                    ran.append((kind, threading.get_ident()))
                    return run_request(kind, payload)

                session._run = spy_run
                waits = disk_waits(session)
                for index in range(4):
                    await session.execute(
                        f"insert into GENRE (mid, genre) values (1, 'Disk {index}')"
                    )
                waits = disk_waits(session) - waits
                seq = await session.checkpoint()
                await session.snapshot_to(str(tmp_path / "copy"), seq)
                inside = set(threading.enumerate())
                return ran, waits, seq, inside

        before = set(threading.enumerate())
        ran, waits, seq, inside = run(main())
        after = set(threading.enumerate())
        loop = threading.get_ident()
        assert waits >= 2  # the writes synced the log or checkpointed
        assert appended == [loop] * 4
        assert ran == [("execute", loop)] * 4 + [("checkpoint", loop), ("snapshot_to", loop)]
        assert seq == 4
        assert inside <= before and after <= before

    @pytest.mark.parametrize(
        "config, waiting",
        [
            # Every fourth append completes a group commit and syncs.
            ({"fsync": "batch", "batch_every": 4, "checkpoint_every": 0}, [3, 7]),
            # Every third mutation reaches the checkpoint cadence.
            ({"fsync": "never", "checkpoint_every": 3}, [2, 5]),
            # Whichever comes first (a checkpoint syncs the log too).
            ({"fsync": "batch", "batch_every": 3, "checkpoint_every": 5}, [2, 4, 7]),
        ],
    )
    def test_a_durable_write_waits_on_the_disk_at_its_cadence(
        self, tmp_path, config, waiting
    ):
        # Only the writes that complete a group commit or reach the
        # checkpoint cadence wait on the disk, and they do so on the loop.
        async def main():
            async with NarrationService() as service:
                session = service.session(
                    database=movie_database(),
                    durability=DurabilityConfig(directory=tmp_path, **config),
                )
                waited = []
                run_request = session._run

                def disk_waits():
                    durability = session.stats()["durability"]
                    return durability["wal"]["syncs"] + durability["checkpoints"]

                def spy_run(kind, payload):
                    before = disk_waits()
                    try:
                        return run_request(kind, payload)
                    finally:
                        if disk_waits() > before:
                            waited.append((payload, threading.get_ident()))

                session._run = spy_run
                writes = [
                    f"insert into GENRE values (1, 'Write {index}')" for index in range(8)
                ]
                for sql in writes:
                    await session.execute(sql)
                return writes, waited

        writes, waited = run(main())
        loop = threading.get_ident()
        assert waited == [(writes[index], loop) for index in waiting]

    def test_a_write_of_several_rows_counts_each_row(self, tmp_path):
        # Each row is one log append, so a write of several rows can
        # complete a group commit part way through; every row recovers.
        count = "select count(*) from GENRE"
        config = DurabilityConfig(
            directory=tmp_path, fsync="batch", batch_every=5, checkpoint_every=0
        )

        async def main():
            async with NarrationService() as service:
                session = service.session(database=movie_database(), durability=config)
                base = (await session.execute(count)).rows[0]["count(*)"]

                async def write(sql):
                    wal = session.stats()["durability"]["wal"]
                    await session.execute(sql)
                    after = session.stats()["durability"]["wal"]
                    return after["appends"] - wal["appends"], after["syncs"] - wal["syncs"]

                steps = [await write("insert into GENRE values (1, 'a')")]
                steps.append(await write("insert into GENRE values (1, 'b')"))
                # Two quiet appends are left: the third row syncs.
                steps.append(
                    await write("insert into GENRE values (1, 'c'), (1, 'd'), (1, 'e')")
                )
                # After the group commit, two rows fit again.
                steps.append(await write("insert into GENRE values (1, 'f'), (1, 'g')"))
                pending = session.stats()["durability"]["wal"]["pending_sync"]
            # Closing the service flushed the two batched rows.
            async with NarrationService() as service:
                session = service.session(database=movie_database(), durability=config)
                recovered = (await session.execute(count)).rows[0]["count(*)"]
            return steps, pending, recovered - base

        steps, pending, recovered = run(main())
        assert steps == [(1, 0), (1, 0), (3, 1), (2, 0)]
        assert pending == 2
        assert recovered == 7

    def test_a_column_list_is_not_counted_as_a_row(self, tmp_path):
        # An INSERT that names its columns logs one append for its one
        # row: the second such write completes the group commit.
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
                    wal = session.stats()["durability"]["wal"]
                    await session.execute(
                        f"insert into GENRE (mid, genre) values (1, '{genre}')"
                    )
                    after = session.stats()["durability"]["wal"]
                    steps.append(
                        (after["appends"] - wal["appends"], after["syncs"] - wal["syncs"])
                    )
                return steps

        assert run(main()) == [(1, 0), (1, 1)]

    def test_a_request_sent_during_a_disk_wait_runs_after_it(self, tmp_path):
        # The snapshot holds the loop while it writes: a request sent
        # then runs after it ends, never beside it.
        second = "select count(*) from GENRE"

        async def main():
            async with NarrationService() as service:
                session = service.session(database=movie_database())
                events, sent = [], []
                run_request = session._run

                def spy_run(kind, payload):
                    events.append(("start", kind))
                    if kind == "snapshot_to":
                        sent.append(asyncio.ensure_future(session.execute(second)))
                    try:
                        return run_request(kind, payload)
                    finally:
                        events.append(("end", kind))

                session._run = spy_run
                await session.snapshot_to(str(tmp_path), 0)
                result = await sent[0]
                return events, result, session.stats()["requests"]

        events, result, requests = run(main())
        assert events == [
            ("start", "snapshot_to"),
            ("end", "snapshot_to"),
            ("start", "execute"),
            ("end", "execute"),
        ]
        assert result.rows
        assert requests["by_kind"] == {"snapshot_to": 1, "execute": 1}

    def test_a_cached_translate_sent_during_a_disk_wait_runs_after_it(self, tmp_path):
        # A translate the cache answers runs like any request: sent while
        # a checkpoint writes, it runs on the loop once the checkpoint
        # ends, and still hits the cache.
        sql = "select m.title from MOVIES m where m.year = 2004"

        async def main():
            async with NarrationService() as service:
                session = service.session(
                    database=movie_database(),
                    phrase_plans=True,
                    durability=DurabilityConfig(directory=tmp_path, fsync="always"),
                )
                for _ in range(3):
                    first = await session.translate(sql)  # the last is a cache hit
                before = session.stats()
                events, sent = [], []
                run_request = session._run

                def spy_run(kind, payload):
                    events.append(("start", kind, threading.get_ident()))
                    if kind == "checkpoint":
                        sent.append(asyncio.ensure_future(session.translate(sql)))
                    try:
                        return run_request(kind, payload)
                    finally:
                        events.append(("end", kind, threading.get_ident()))

                session._run = spy_run
                await session.checkpoint()
                cached = await sent[0]
                return first, cached, before, events, session.stats()

        first, cached, before, events, after = run(main())
        loop = threading.get_ident()
        assert events == [
            ("start", "checkpoint", loop),
            ("end", "checkpoint", loop),
            ("start", "translate", loop),
            ("end", "translate", loop),
        ]
        assert _fields(cached) == _fields(first)
        assert before["translator"]["exact_cache"]["hits"] == 1
        assert after["translator"]["exact_cache"]["hits"] == 2
        assert after["durability"]["checkpoints"] == before["durability"]["checkpoints"] + 1
        assert after["requests"]["by_kind"] == {"translate": 4, "checkpoint": 1}

    def test_requests_sent_during_a_disk_wait_run_on_the_loop_in_order(self, tmp_path):
        database = movie_database()
        sql = "select m.title from MOVIES m where m.year = 2004"

        async def main():
            async with NarrationService() as service:
                session = service.session(database=database, spec_factory=movie_spec)
                ran, sent = [], []
                run_request = session._run

                def spy_run(kind, payload):
                    ran.append((kind, threading.get_ident()))
                    if kind == "snapshot_to":
                        sent.extend(
                            [
                                asyncio.ensure_future(session.execute(sql)),
                                asyncio.ensure_future(session.translate(sql)),  # a miss
                                asyncio.ensure_future(
                                    session.explain_empty(
                                        "select m.title from MOVIES m where m.year = 1800"
                                    )
                                ),
                                asyncio.ensure_future(session.narrate_relation("MOVIES")),
                            ]
                        )
                    return run_request(kind, payload)

                session._run = spy_run
                await session.snapshot_to(str(tmp_path), 0)
                await asyncio.gather(*sent)
                return ran, session.stats()["requests"]

        ran, requests = run(main())
        assert [kind for kind, _ in ran] == [
            "snapshot_to",
            "execute",
            "translate",
            "explain",
            "narrate_relation",
        ]
        assert {thread for _, thread in ran} == {threading.get_ident()}
        assert requests["by_kind"] == {
            "snapshot_to": 1,
            "execute": 1,
            "translate": 1,
            "explain": 1,
            "narrate_relation": 1,
        }

    def test_a_disk_wait_holds_every_session_of_the_service(self, tmp_path):
        # The service runs on one thread: while one session's checkpoint
        # waits on the disk, another session's request waits for the loop.
        count = "select count(*) from GENRE"

        async def main():
            async with NarrationService() as service:
                durable = service.session(
                    database=movie_database(),
                    durability=DurabilityConfig(directory=tmp_path, fsync="always"),
                )
                other = service.session(database=movie_database())
                events, sent = [], []

                def spy(session, name):
                    run_request = session._run

                    def spy_run(kind, payload):
                        events.append(("start", name, kind))
                        if kind == "checkpoint":
                            sent.append(asyncio.ensure_future(other.execute(count)))
                        try:
                            return run_request(kind, payload)
                        finally:
                            events.append(("end", name, kind))

                    session._run = spy_run

                spy(durable, "durable")
                spy(other, "other")
                await durable.checkpoint()
                result = await sent[0]
                return events, result

        events, result = run(main())
        assert events == [
            ("start", "durable", "checkpoint"),
            ("end", "durable", "checkpoint"),
            ("start", "other", "execute"),
            ("end", "other", "execute"),
        ]
        assert result.rows

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
        assert requests["shed"] == {"deadline": 2}
        assert requests["by_kind"] == {"translate": 3}

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
        assert requests["shed"] == {"deadline": 1}
        assert requests["by_kind"] == {}

    def test_durable_writes_and_reads_never_overlap(self, tmp_path):
        # Sixteen clients interleave durable writes, half of which sync
        # the log, with reads and translates, while any other thread
        # switches as often as it can.
        database = movie_database()
        clients, rounds = 16, 10
        count = "select count(*) from GENRE"

        async def main():
            async with NarrationService() as service:
                # Every second write completes a group commit and syncs.
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
                        # between this client's write and its read.
                        await asyncio.sleep(0)
                        seen.append((await session.execute(count)).rows[0]["count(*)"])
                        await session.translate(count)
                    return seen

                seen = await asyncio.wait_for(
                    asyncio.gather(*[client(n) for n in range(clients)]), 60
                )
                final = (await session.execute(count)).rows[0]["count(*)"]
                stats = session.stats()
                return base, seen, final, running[1], stats

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            base, seen, final, most, stats = run(main())
        finally:
            sys.setswitchinterval(interval)
        assert most == 1
        assert final == base + clients * rounds
        for counts in seen:  # each client's own inserts precede its counts
            assert counts == sorted(set(counts)) and counts[0] > base
        assert stats["durability"]["wal"]["syncs"] >= clients * rounds // 2
        assert stats["requests"]["by_kind"] == {
            "execute": 2 + 2 * clients * rounds,
            "translate": clients * rounds,
        }

    def test_every_request_is_counted_as_run_or_shed(self, tmp_path):
        database = movie_database()
        sql = "select m.title from MOVIES m where m.year = 2004"

        async def main():
            async with NarrationService() as service:
                session = service.session(database=database, phrase_plans=True)
                for _ in range(3):
                    await session.translate(sql)  # a miss, then hits
                await session.execute(sql, timeout=60)  # a budget left: it runs
                await session.narrate_relation("MOVIES")
                await session.snapshot_to(str(tmp_path), 0)
                await session.explain_empty(sql)
                for request in (session.translate, session.execute):
                    with pytest.raises(DeadlineExceeded):  # shed at admission
                        await request(sql, timeout=0.0)
                return session.stats()["requests"]

        requests = run(main())
        # Seven requests ran and two were shed; each counts exactly once.
        assert requests["by_kind"] == {
            "translate": 3,
            "execute": 1,
            "narrate_relation": 1,
            "snapshot_to": 1,
            "explain": 1,
        }
        assert requests["shed"] == {"deadline": 2}


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
