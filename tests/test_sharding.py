"""Shard-tier suite: protocol, routing, ordering, crashes, respawns.

The contract under test mirrors the service suite's, one level up: any
request history through a :class:`~repro.service.ShardRouter` — including
interleaved mutations and a worker SIGKILLed mid-workload — produces
results byte-identical to the same history against a single-process
``NarrationService`` session (the retained oracle).
"""

import asyncio
import bisect
import os
import pickle
import socket
import subprocess
import sys

import pytest

from repro.content.presets import movie_spec
from repro.datasets import generate_workload, movie_database
from repro.engine import Executor
from repro.query_nl.translator import QueryTranslator
from repro.service import (
    HashRing,
    NarrationService,
    ServiceClosed,
    ShardError,
    ShardRouter,
    ShardRouterConfig,
    WorkerCrashed,
)
from repro.service.sharding import WorkerHandle, default_start_method
from repro.service.sharding import protocol as shard_protocol
from repro.service.sharding.protocol import (
    FrameReader,
    encode_frame,
    unwire_translation,
    wire_translation,
)
from repro.sql.shape import shape_hash, stable_hash

DB_FACTORY = "repro.datasets.movies:movie_database"
SPEC_FACTORY = "repro.content.presets:movie_spec"

TIMEOUT = 60


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def corpus_sql(count=50):
    queries = [q.sql for q in generate_workload(queries_per_category=12, seed=7)]
    return queries[:count]


async def retry_crashed(call, attempts=80, delay=0.25):
    """Retry ``call`` until the respawned worker serves it."""
    for _ in range(attempts):
        try:
            return await call()
        except WorkerCrashed:
            await asyncio.sleep(delay)
    raise AssertionError("worker never came back")


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def roundtrip(self, obj):
        async def main():
            left, right = socket.socketpair()
            try:
                left.setblocking(False)
                right.setblocking(False)
                loop = asyncio.get_running_loop()
                await loop.sock_sendall(left, encode_frame(obj))
                return await FrameReader(loop, right).read()
            finally:
                left.close()
                right.close()

        return run(main())

    def test_request_tuple_roundtrip(self):
        message = (7, "translate", "select * from MOVIES", None)
        assert self.roundtrip(message) == message

    def test_mutation_frame_carries_seq(self):
        message = (9, "execute", "insert into GENRE values (1, 'x')", 4)
        assert self.roundtrip(message) == message

    def test_pickled_payloads_roundtrip(self):
        database = movie_database()
        result = Executor(database, compiled=True).execute_sql(
            "select m.title from MOVIES m where m.year = 2004"
        )
        echoed = self.roundtrip((1, "ok", result))
        assert echoed[2] == result
        assert echoed[2].rows == result.rows

    def test_frame_reader_handles_split_and_batched_frames(self):
        frames = [
            (1, "ok", {"pid": 42}),
            (2, "ok", list(range(500))),
            (3, "err", "boom"),
        ]
        blob = b"".join(encode_frame(frame) for frame in frames)

        async def main():
            left, right = socket.socketpair()
            try:
                left.setblocking(False)
                right.setblocking(False)
                loop = asyncio.get_running_loop()
                reader = FrameReader(loop, right)

                async def drip():
                    # Worst-case framing: bytes arrive seven at a time,
                    # so every header and payload is split mid-field.
                    for start in range(0, len(blob), 7):
                        await loop.sock_sendall(left, blob[start : start + 7])
                    left.close()

                feeder = loop.create_task(drip())
                received = [await reader.read() for _ in frames]
                assert await reader.read() is None  # clean EOF
                await feeder
                return received
            finally:
                right.close()

        assert run(main()) == frames

    def test_wire_translation_preserves_textual_fields(self):
        database = movie_database()
        translator = QueryTranslator(database.schema, spec=movie_spec(database.schema))
        translation = translator.translate(
            "select m.title from MOVIES m where m.year > 2000"
        )
        rebuilt = unwire_translation(
            pickle.loads(pickle.dumps(wire_translation(translation)))
        )
        assert rebuilt == translation
        assert rebuilt.text == translation.text
        assert rebuilt.notes == translation.notes


# ---------------------------------------------------------------------------
# Stable hashing and the ring
# ---------------------------------------------------------------------------


class TestStableHashing:
    def test_stable_hash_is_process_independent(self):
        # Same text, different interpreter, different PYTHONHASHSEED:
        # the routing hash must not move.
        sql = "select m.title from MOVIES m where m.year = 2004"
        expected = (stable_hash("shard-0#3"), shape_hash(sql))
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.sql.shape import shape_hash, stable_hash; "
            f"print(stable_hash('shard-0#3'), shape_hash({sql!r}))"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        output = subprocess.run(
            [sys.executable, "-c", script, src],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.split()
        assert (int(output[0]), int(output[1])) == expected

    def test_shape_hash_ignores_literals_only(self):
        base = "select m.title from MOVIES m where m.year = 2004"
        assert shape_hash(base) == shape_hash(
            "select m.title from MOVIES m where m.year = 1977"
        )
        assert shape_hash(base) != shape_hash(
            "select m.title from MOVIES m where m.id = 2004"
        )

    def test_ring_is_deterministic(self):
        ring_a = HashRing(range(4))
        ring_b = HashRing(range(4))
        keys = [stable_hash(f"key-{i}") for i in range(1000)]
        assert [ring_a.route(k) for k in keys] == [ring_b.route(k) for k in keys]

    def test_ring_balance(self):
        ring = HashRing(range(4), replicas=64)
        counts = {index: 0 for index in range(4)}
        for i in range(8000):
            counts[ring.route(stable_hash(f"key-{i}"))] += 1
        for owned in counts.values():
            assert owned > 8000 * 0.10  # no worker starves

    def test_preference_matches_the_full_ring_walk(self):
        for workers in range(1, 6):
            ring = HashRing(range(workers))
            owners, count = ring._owners, len(ring._owners)
            for i in range(10_000):
                key = stable_hash(f"key-{i}")
                position = bisect.bisect_right(ring._hashes, key)
                walk = []
                for step in range(count):
                    owner = owners[(position + step) % count]
                    if owner not in walk:
                        walk.append(owner)
                assert ring.preference(key) == walk
                assert walk[0] == ring.route(key)

    def test_ring_minimal_movement_on_removal(self):
        before = HashRing(range(4))
        after = HashRing(range(3))  # worker 3 removed
        moved = 0
        for i in range(4000):
            key = stable_hash(f"key-{i}")
            owner = before.route(key)
            if owner == 3:
                moved += 1
            else:
                # Keys not owned by the removed worker must not move.
                assert after.route(key) == owner
        assert 0 < moved < 4000


# ---------------------------------------------------------------------------
# Router end-to-end equivalence
# ---------------------------------------------------------------------------


class TestRouterEquivalence:
    def test_corpus_byte_identical_to_single_process_oracle(self):
        corpus = corpus_sql(50)
        database = movie_database()
        spec = movie_spec(database.schema)

        async def main():
            async with NarrationService(max_workers=2) as service:
                oracle = service.session(database=database, spec=spec)
                expected = {
                    "translations": [await oracle.translate(sql) for sql in corpus],
                    "results": [await oracle.execute(sql) for sql in corpus],
                    "story": await oracle.narrate_database(),
                    "relation": await oracle.narrate_relation("MOVIES"),
                    "explanation": await oracle.explain_empty(
                        "select m.title from MOVIES m where m.year = 1800"
                    ),
                }
            async with ShardRouter(
                DB_FACTORY, spec_factory=SPEC_FACTORY, workers=2
            ) as router:
                translations, results = await asyncio.gather(
                    asyncio.gather(*[router.translate(sql) for sql in corpus]),
                    asyncio.gather(*[router.execute(sql) for sql in corpus]),
                )
                story = await router.narrate_database()
                relation = await router.narrate_relation("MOVIES")
                explanation = await router.explain_empty(
                    "select m.title from MOVIES m where m.year = 1800"
                )
                stats = await router.stats()
            assert translations == expected["translations"]
            assert [t.text for t in translations] == [
                t.text for t in expected["translations"]
            ]
            for got, want in zip(results, expected["results"]):
                assert got == want
                assert got.rows == want.rows
            assert story == expected["story"]
            assert relation == expected["relation"]
            assert explanation.text == expected["explanation"].text
            return stats

        stats = run(main())
        assert stats["fleet"]["live_workers"] == 2
        assert stats["router"]["crashes"] == 0
        # Stats consistency: a fault-free run exercises none of the
        # resilience machinery.
        assert stats["router"]["retries"] == 0
        assert stats["router"]["degraded_reads"] == 0
        assert stats["router"]["deadline_expired"] == 0
        assert stats["router"]["breaker_trips"] == 0
        assert stats["router"]["worker_health"] == ["live", "live"]
        for worker in stats["workers"]:
            assert worker["breaker"]["state"] == "closed"
            assert worker["session"]["requests"]["shed"] == {
                "overload": 0,
                "deadline": 0,
                "in_queue": 0,
            }
        # The consistent hash spread the corpus over both workers.
        per_worker = [
            sum(w["session"]["requests"]["by_kind"].values())
            for w in stats["workers"]
        ]
        assert all(count > 0 for count in per_worker)

    def test_same_shape_routes_to_same_worker(self):
        ring = HashRing(range(4))
        variants = [
            "select m.title from MOVIES m where m.year = 2004",
            "select m.title from MOVIES m where m.year = 1977",
            "select m.title from MOVIES m where m.year = 1995",
        ]
        owners = {ring.route(shape_hash(sql)) for sql in variants}
        assert len(owners) == 1

    def test_pipeline_errors_cross_the_wire_typed(self):
        async def main():
            async with ShardRouter(DB_FACTORY, workers=1) as router:
                with pytest.raises(Exception) as excinfo:
                    await router.execute("select nope from NOWHERE")
                return excinfo.value

        error = run(main())
        # The worker's original exception class crossed the wire — not a
        # WorkerCrashed, not an opaque RemoteWorkerError.
        assert type(error).__name__ == "UnknownTableError"


# ---------------------------------------------------------------------------
# Mutation ordering
# ---------------------------------------------------------------------------


class TestMutationOrdering:
    def test_interleaved_mutations_match_oracle_history(self):
        reads = [
            "select g.genre from GENRE g where g.mid = 1",
            "select count(*) from GENRE",
            "select m.title from MOVIES m where m.year > 1990",
        ]
        writes = [
            "insert into GENRE values (1, 'ordering-a')",
            "insert into GENRE values (2, 'ordering-b')",
            "insert into GENRE values (3, 'ordering-c')",
        ]
        database = movie_database()

        async def history(target):
            outputs = []
            for write in writes:
                outputs.append(await target.execute(write))
                for read in reads:
                    outputs.append(await target.execute(read))
            return outputs

        async def main():
            async with NarrationService(max_workers=2) as service:
                oracle = service.session(database=database)
                expected = await history(oracle)
            async with ShardRouter(DB_FACTORY, workers=2) as router:
                got = await history(router)
                final = await asyncio.gather(
                    *[router.execute("select count(*) from GENRE") for _ in range(8)]
                )
            return expected, got, final

        expected, got, final = run(main())
        assert got == expected
        # Every replica applied every write: all post-history counts agree.
        assert len({tuple(map(tuple, r.rows)) for r in final}) == 1

    def test_rejected_mutation_does_not_wedge_reads(self):
        # Regression: a pipeline-rejected mutation used to increment the
        # broadcast seq without any worker ever acking it, so every later
        # read deadlocked in wait_applied.  The worker processes the
        # barrier frame either way (it applies nothing), so the watermark
        # must advance and the fleet must keep serving.
        poison = "insert into NOWHERE values (1, 'x')"

        async def main():
            async with ShardRouter(DB_FACTORY, workers=2) as router:
                await router.execute("insert into GENRE values (4, 'pre')")
                with pytest.raises(Exception) as excinfo:
                    await router.execute(poison)
                # The deterministic pipeline error crossed typed, not as
                # a crash.
                assert type(excinfo.value).__name__ == "UnknownTableError"
                # Reads on every worker complete promptly — no wedge.
                reads = await asyncio.wait_for(
                    asyncio.gather(
                        *[
                            router.execute("select count(*) from GENRE")
                            for _ in range(8)
                        ]
                    ),
                    timeout=20,
                )
                # And the write path keeps working after the rejection.
                await asyncio.wait_for(
                    router.execute("insert into GENRE values (6, 'post')"),
                    timeout=20,
                )
                post = await asyncio.wait_for(
                    router.execute(
                        "select g.genre from GENRE g where g.mid = 6"
                    ),
                    timeout=20,
                )
                stats = await router.stats()
            return reads, post, stats

        reads, post, stats = run(main())
        assert len({tuple(map(tuple, r.rows)) for r in reads}) == 1
        assert any("post" in str(row) for row in post.rows)
        assert stats["router"]["crashes"] == 0
        live = [w for w in stats["workers"] if w is not None]
        assert len(live) == 2
        # Every replica acked every seq, the rejected one included.
        assert {w["applied_seq"] for w in live} == {stats["router"]["mutations"]}

    def test_reads_after_write_see_the_write(self):
        async def main():
            async with ShardRouter(DB_FACTORY, workers=2) as router:
                await router.execute("insert into GENRE values (10, 'barrier')")
                # Immediately-following reads (any worker) must see it.
                results = await asyncio.gather(
                    *[
                        router.execute(
                            "select g.genre from GENRE g where g.mid = 10"
                        )
                        for _ in range(6)
                    ]
                )
                return results

        results = run(main())
        for result in results:
            assert any("barrier" in str(row) for row in result.rows)

    def test_read_barrier_waits_for_the_ack_and_fails_typed_on_give_up(self):
        # The watermark wait itself, on a handle with no process: a routed
        # read waits only when it overtakes a write's ack, which the
        # router tests above do not arrange.
        async def main():
            handle = WorkerHandle(0, {}, default_start_method())
            await handle.wait_applied(0)  # nothing sequenced yet: no wait
            waiter = asyncio.ensure_future(handle.wait_applied(2))
            await handle.mark_applied(1)
            for _ in range(3):
                await asyncio.sleep(0)
            assert not waiter.done()  # acked 1, the read needs 2
            await handle.mark_applied(2)
            await asyncio.wait_for(waiter, 5)
            doomed = asyncio.ensure_future(handle.wait_applied(3))
            await asyncio.sleep(0)
            await handle.give_up()
            with pytest.raises(ShardError, match="permanently down"):
                await asyncio.wait_for(doomed, 5)

        run(main())


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_killed_worker_respawns_with_mutations_replayed(self):
        corpus = corpus_sql(50)
        database = movie_database()

        async def main():
            async with NarrationService(max_workers=2) as service:
                oracle = service.session(database=database)
                await oracle.execute("insert into GENRE values (5, 'pre-crash')")
                expected = [await oracle.execute(sql) for sql in corpus]
            async with ShardRouter(DB_FACTORY, workers=2) as router:
                await router.execute("insert into GENRE values (5, 'pre-crash')")
                # Half the corpus warms the fleet, then worker 0 dies
                # mid-workload.
                for sql in corpus[:25]:
                    await router.execute(sql)
                killed_pid = router.kill_worker(0)
                assert killed_pid is not None
                results = []
                for sql in corpus:
                    results.append(
                        await retry_crashed(lambda s=sql: router.execute(s))
                    )
                stats = await router.stats()
            return expected, results, stats

        expected, results, stats = run(main())
        for got, want in zip(results, expected):
            assert got == want
            assert got.rows == want.rows
        assert stats["router"]["crashes"] >= 1
        assert stats["router"]["respawns"] >= 1
        # The respawned replica replayed the mutation log: its applied
        # watermark reached the fleet's.
        live = [w for w in stats["workers"] if w is not None]
        assert len(live) == 2
        assert len({w["applied_seq"] for w in live}) == 1

    def test_inflight_requests_fail_typed_not_hang(self):
        async def main():
            async with ShardRouter(DB_FACTORY, workers=1) as router:
                await router.execute("select count(*) from MOVIES")
                handle = router._handles[0]
                # A request stuck in flight when the worker dies must
                # fail with the typed error, promptly.
                pending = asyncio.ensure_future(
                    handle.request("execute", "select count(*) from MOVIES")
                )
                await asyncio.sleep(0)
                router.kill_worker(0)
                with pytest.raises(WorkerCrashed):
                    await asyncio.wait_for(pending, timeout=30)
                # ...and the router recovers for new traffic.
                result = await retry_crashed(
                    lambda: router.execute("select count(*) from MOVIES")
                )
                return result

        result = run(main())
        assert result.rows

    def test_read_never_reaches_a_respawn_that_has_not_replayed(self):
        # The worker dies after a read was routed to it and before the
        # frame goes out; its respawn already owns the socket but has not
        # replayed the log.  Sent there, the read would miss the write.
        read = "select g.genre from GENRE g where g.mid = 5"

        async def main():
            async with ShardRouter(DB_FACTORY, workers=2) as router:
                await router.execute("insert into GENRE values (5, 'pre-crash')")
                owner = router._ring.preference(shape_hash(read))[0]
                handle = router._handles[owner]
                spawned, replay = asyncio.Event(), asyncio.Event()
                spawn, send_read = handle.spawn, handle.read

                async def held_spawn(open_for_traffic=True):
                    await spawn(open_for_traffic)
                    spawned.set()
                    await replay.wait()  # the log replay starts after this

                async def crash_before_send(kind, payload, budget=None):
                    handle.read = send_read
                    router.kill_worker(owner)
                    await spawned.wait()
                    return await send_read(kind, payload, budget=budget)

                handle.spawn = held_spawn
                handle.read = crash_before_send
                try:
                    result = await router.execute(read)
                finally:
                    replay.set()
                stats = await router.stats()
            return result, stats

        result, stats = run(main())
        assert sorted(row.get("g.genre") for row in result.rows) == [
            "pre-crash",
            "thriller",
        ]
        assert stats["router"]["retries"] >= 1

    def test_mutations_during_respawn_converge_with_rejected_log_entries(self):
        # Regression twice over: (a) a respawned worker used to reopen
        # for traffic before the mutation log was replayed, so a write
        # landing mid-respawn could reach the fresh replica out of order
        # (or be missed entirely); (b) a rejected mutation left in the
        # log used to abort the replay at that entry.  Here the log holds
        # a rejected entry, the worker is SIGKILLed, and a new write
        # lands while the rebuild is in flight — the replica must still
        # converge to the oracle history.
        corpus = corpus_sql(12)
        poison = "insert into NOWHERE values (1, 'x')"
        database = movie_database()

        async def main():
            async with NarrationService(max_workers=2) as service:
                oracle = service.session(database=database)
                await oracle.execute("insert into GENRE values (7, 'alpha')")
                with pytest.raises(Exception) as oracle_err:
                    await oracle.execute(poison)
                for sql in corpus:
                    await oracle.execute(sql)
                await oracle.execute("insert into GENRE values (8, 'beta')")
                expected_count = await oracle.execute("select count(*) from GENRE")
                expected_beta = await oracle.execute(
                    "select g.genre from GENRE g where g.mid = 8"
                )
            async with ShardRouter(DB_FACTORY, workers=2) as router:
                await router.execute("insert into GENRE values (7, 'alpha')")
                with pytest.raises(Exception) as router_err:
                    await router.execute(poison)
                for sql in corpus:
                    await router.execute(sql)
                router.kill_worker(0)
                # This write lands while worker 0 is down or rebuilding:
                # the log replay (under the mutation lock, before the
                # reopen) must deliver it in order.
                await router.execute("insert into GENRE values (8, 'beta')")
                counts = [
                    await retry_crashed(
                        lambda: router.execute("select count(*) from GENRE")
                    )
                    for _ in range(8)
                ]
                beta = await retry_crashed(
                    lambda: router.execute(
                        "select g.genre from GENRE g where g.mid = 8"
                    )
                )
                stats = await router.stats()
            return oracle_err.value, router_err.value, expected_count, expected_beta, counts, beta, stats

        oracle_error, router_error, expected_count, expected_beta, counts, beta, stats = run(main())
        assert type(router_error).__name__ == type(oracle_error).__name__
        for count in counts:
            assert count == expected_count
            assert count.rows == expected_count.rows
        assert beta == expected_beta
        assert stats["router"]["respawns"] >= 1
        live = [w for w in stats["workers"] if w is not None]
        assert len(live) == 2
        # The rebuilt replica replayed the full log, rejected entry and
        # all: both watermarks sit at the fleet's seq.
        assert {w["applied_seq"] for w in live} == {stats["router"]["mutations"]}

    def test_undecodable_response_frame_is_treated_as_worker_death(self):
        # Regression: a response frame the router cannot decode (unknown
        # codec, an exception class that fails to unpickle router-side)
        # used to kill the reader task silently — pending futures hung
        # forever and no respawn ever fired.
        async def main():
            loop = asyncio.get_running_loop()
            handle = WorkerHandle(0, {}, default_start_method())
            left, right = socket.socketpair()
            left.setblocking(False)
            right.setblocking(False)
            try:
                handle._sock = left
                crashes = []
                handle.set_crash_callback(crashes.append)
                handle.ready.set()
                handle._reader_task = loop.create_task(handle._read_responses())
                pending = asyncio.ensure_future(
                    handle.request("execute", "select count(*) from MOVIES")
                )
                # Play the worker: swallow the request, answer garbage.
                await FrameReader(loop, right).read()
                await loop.sock_sendall(right, shard_protocol._HEADER.pack(7, 0))
                with pytest.raises(WorkerCrashed):
                    await asyncio.wait_for(pending, timeout=10)
                await asyncio.sleep(0)
                assert crashes == [handle]  # supervision was notified
                assert not handle.ready.is_set()
                handle._reader_task.cancel()
            finally:
                for sock in (left, right):
                    try:
                        sock.close()
                    except OSError:
                        pass

        run(main())

    def test_exhausted_respawns_fail_fast_and_typed(self):
        # Regression: once max_respawns ran out, requests to the dead
        # worker used to stall the full 60s ready timeout and surface an
        # untyped asyncio.TimeoutError; now the handle is marked
        # permanently dead and fails fast with the typed ShardError.
        async def main():
            async with ShardRouter(
                DB_FACTORY, workers=1, config=ShardRouterConfig(max_respawns=0)
            ) as router:
                await router.execute("select count(*) from MOVIES")
                router.kill_worker(0)
                for _ in range(int(TIMEOUT / 0.05)):
                    if router._handles[0].gave_up:
                        break
                    await asyncio.sleep(0.05)
                assert router._handles[0].gave_up
                with pytest.raises(ShardError):
                    await asyncio.wait_for(
                        router.execute("select count(*) from MOVIES"), timeout=5
                    )
                with pytest.raises(ShardError):
                    await asyncio.wait_for(
                        router.execute("insert into GENRE values (3, 'x')"),
                        timeout=5,
                    )
                stats = await router.stats()
            return stats

        stats = run(main())
        assert stats["router"]["dead_workers"] == [0]
        assert stats["router"]["worker_health"] == ["dead"]
        assert stats["workers"][0]["health"] == "dead"
        assert stats["workers"][0]["session"] is None
        assert stats["fleet"]["live_workers"] == 0

    def test_respawned_worker_starts_cold(self):
        # A respawn replays the mutation log and reopens; it replays no
        # earlier traffic, so the new incarnation's caches start empty
        # and fill again on second sightings, like any worker's.
        corpus = corpus_sql(20)

        async def main():
            async with ShardRouter(
                DB_FACTORY, workers=1, phrase_plans=True
            ) as router:
                for _ in range(2):  # the second pass admits every shape
                    for sql in corpus:
                        await router.translate(sql)
                        await router.execute(sql)
                warm = await router.stats()
                router.kill_worker(0)
                await retry_crashed(
                    lambda: router.execute("select count(*) from MOVIES")
                )
                return warm, await router.stats()

        warm, stats = run(main())
        assert warm["workers"][0]["session"]["translator"]["plan_store"]["size"] > 0
        worker = stats["workers"][0]
        assert worker["respawns"] == 1
        session = worker["session"]
        assert session["translator"]["plan_store"]["size"] == 0
        assert session["executor"]["shape_plans"]["entries"] == 0


# ---------------------------------------------------------------------------
# Graceful shutdown (closing the service must not leak futures)
# ---------------------------------------------------------------------------


class TestGracefulShutdown:
    def test_router_shutdown_is_clean(self):
        async def main():
            router = ShardRouter(DB_FACTORY, workers=2)
            await router.start()
            await router.execute("select count(*) from MOVIES")
            pids = [handle.pid for handle in router._handles]
            await router.aclose()
            return router, pids

        router, pids = run(main())
        for handle in router._handles:
            assert handle.process is not None
            assert handle.process.exitcode is not None  # actually exited
        with pytest.raises(ServiceClosed):
            run(router.execute("select 1 from MOVIES"))

    def test_service_aclose_settles_every_pending_future(self):
        # Every request submitted before aclose is answered: the close
        # waits out the requests still waiting for their turn.
        database = movie_database()

        async def main():
            service = NarrationService(max_workers=1)
            session = service.session(database=database)
            requests = [
                asyncio.ensure_future(
                    session.execute("select count(*) from MOVIES")
                )
                for _ in range(32)
            ]
            await asyncio.sleep(0)  # let every request start waiting
            await service.aclose()
            outcomes = await asyncio.gather(*requests, return_exceptions=True)
            return outcomes

        outcomes = run(main())
        assert len(outcomes) == 32
        for outcome in outcomes:
            assert hasattr(outcome, "rows"), outcome
