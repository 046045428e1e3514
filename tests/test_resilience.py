"""Resilience suite: deadlines, retries, breakers, shedding, chaos.

Three layers of coverage, mirroring the layering of the code:

* **policy units** — :class:`Deadline`, :class:`RetryPolicy`,
  :class:`CircuitBreaker` and :class:`AdmissionController` exercised in
  isolation with injected clocks (no sleeps, no timing races);
* **service integration** — admission shedding, deadline expiry while
  a request waits its turn and overload answers through the real
  ``NarrationSession`` dispatch, made deterministic by parking a disk
  run that holds the session's turn instead of racing wall clock;
* **shard-tier drills** — a SIGKILLed worker stays invisible to
  idempotent reads, a permanently-dead worker's shapes degrade to the
  next live worker byte-identically, and the chaos soak replays the
  50-query corpus plus interleaved mutations under seeded fault
  schedules (crashes, frame corruption/drops, slow replicas) asserting
  byte-equivalence with the single-process oracle throughout.
"""

import asyncio
import os
import subprocess
import sys
import threading

import pytest

from repro.datasets import generate_workload, movie_database
from repro.service import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    NarrationService,
    RetryPolicy,
    ServiceOverloaded,
    ShardError,
    ShardRouter,
    ShardRouterConfig,
)
from repro.service.faults import (
    CORRUPT,
    DELIVER,
    DROP,
    FaultInjector,
    FaultPlan,
    corrupt_frame,
    parse_faults,
)
from repro.service.sharding.router import failover_order
from repro.sql.shape import is_mutation, shape_hash, statement_keyword

DB_FACTORY = "repro.datasets.movies:movie_database"

TIMEOUT = 240


def run(coro, timeout=TIMEOUT):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


def corpus_sql(count=50):
    queries = [q.sql for q in generate_workload(queries_per_category=12, seed=7)]
    return queries[:count]


class FakeClock:
    """An injectable monotonic clock: tests step time, nothing sleeps."""

    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_unbounded_deadline_never_expires(self):
        assert Deadline.after(None) is Deadline.NONE
        assert not Deadline.NONE.expired
        assert Deadline.NONE.remaining() is None
        # Unbounded bound() passes the attempt slice through untouched
        # (and None stays None — what asyncio.wait_for wants).
        assert Deadline.NONE.bound(5.0) == 5.0
        assert Deadline.NONE.bound(None) is None
        Deadline.NONE.require("anything")  # never raises

    def test_remaining_counts_down_and_floors_at_zero(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired
        clock.advance(10.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0  # never negative

    def test_bound_takes_the_tighter_of_budget_and_slice(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock)
        assert deadline.bound(5.0) == pytest.approx(2.0)  # budget is tighter
        assert deadline.bound(0.5) == pytest.approx(0.5)  # slice is tighter
        assert deadline.bound(None) == pytest.approx(2.0)

    def test_require_raises_typed_and_timeout_compatible(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock)
        deadline.require("the test began")
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.require("the test finished")
        # Callers that already catch TimeoutError keep working.
        assert isinstance(excinfo.value, TimeoutError)
        assert "the test finished" in str(excinfo.value)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_is_deterministic_for_seed_and_salt(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        delays = [a.delay(n, salt="execute:123") for n in (1, 2, 3)]
        assert delays == [b.delay(n, salt="execute:123") for n in (1, 2, 3)]
        # A different salt (or seed) jitters differently.
        assert delays != [a.delay(n, salt="execute:124") for n in (1, 2, 3)]
        assert delays != [RetryPolicy(seed=8).delay(n, "execute:123") for n in (1, 2, 3)]

    def test_backoff_grows_within_jitter_bounds_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.5, seed=1
        )
        for attempt, raw in ((1, 0.1), (2, 0.2), (3, 0.4), (4, 0.5), (9, 0.5)):
            delay = policy.delay(attempt, salt="s")
            assert raw * 0.5 <= delay <= raw * 1.5

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=3.0, max_delay=10.0, jitter=0.0)
        assert [policy.delay(n) for n in (1, 2, 3)] == pytest.approx([0.1, 0.3, 0.9])

    def test_should_retry_respects_attempts_and_deadline(self):
        clock = FakeClock()
        policy = RetryPolicy(attempts=3)
        live = Deadline.after(10.0, clock)
        assert policy.should_retry(1, live)
        assert policy.should_retry(2, live)
        assert not policy.should_retry(3, live)  # attempts is the total
        clock.advance(10.0)
        assert not policy.should_retry(1, live)  # expired budget ends it

    def test_invalid_configuration_is_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def breaker(self, clock, threshold=3, reset=5.0, probes=1):
        return CircuitBreaker(
            failure_threshold=threshold,
            reset_timeout=reset,
            probes=probes,
            clock=clock,
        )

    def test_trips_open_after_consecutive_failures_only(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # the streak resets: still closed
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()  # third consecutive: trip
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # no second concurrent probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_retrips(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # the probe found the worker still sick
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 2
        clock.advance(4.9)
        assert breaker.state == "open"  # the timer restarted at the re-trip
        clock.advance(0.1)
        assert breaker.state == "half_open"

    def test_force_open_and_reset(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        breaker.force_open()
        assert breaker.state == "open" and not breaker.allow()
        breaker.reset()  # a fresh worker incarnation came up
        assert breaker.state == "closed" and breaker.allow()
        assert breaker.stats()["state"] == "closed"
        assert breaker.stats()["trips"] == 1


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_default_admits_any_depth(self):
        admission = AdmissionController()
        admission.admit(10_000)
        assert admission.stats() == {"overload": 0, "deadline": 0, "in_queue": 0}

    def test_depth_threshold_sheds_typed(self):
        admission = AdmissionController(max_depth=2)
        admission.admit(0)
        admission.admit(1)
        with pytest.raises(ServiceOverloaded):
            admission.admit(2)
        with pytest.raises(ServiceOverloaded):
            admission.admit(7)
        assert admission.stats()["overload"] == 2

    def test_expired_deadline_is_shed_at_admission(self):
        clock = FakeClock()
        admission = AdmissionController()
        deadline = Deadline.after(1.0, clock)
        admission.admit(0, deadline)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded):
            admission.admit(0, deadline)
        assert admission.stats()["deadline"] == 1

    def test_in_queue_shed_is_counted_separately(self):
        admission = AdmissionController()
        error = admission.shed_expired_in_queue()
        assert isinstance(error, DeadlineExceeded)
        assert admission.stats() == {"overload": 0, "deadline": 0, "in_queue": 1}

    def test_invalid_depth_is_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_depth=0)


# ---------------------------------------------------------------------------
# Mutation detection hardening (satellite: _is_mutation misclassification)
# ---------------------------------------------------------------------------


class TestMutationDetection:
    def test_plain_statements(self):
        assert not is_mutation("select m.title from MOVIES m")
        assert is_mutation("insert into GENRE values (1, 'x')")
        assert is_mutation("update MOVIES set year = 2000")
        assert is_mutation("delete from GENRE")

    def test_leading_whitespace_and_case(self):
        assert not is_mutation("  \n\t SELECT m.title from MOVIES m")
        assert is_mutation("  \n InSeRt into GENRE values (1, 'x')")

    def test_line_comments_are_skipped(self):
        assert not is_mutation("-- a read\nselect m.title from MOVIES m")
        assert is_mutation("-- just a note\ninsert into GENRE values (1, 'x')")

    def test_block_comments_are_skipped(self):
        assert not is_mutation("/* hint */ select m.title from MOVIES m")
        assert not is_mutation("/* multi\n line */\n  select 1 from MOVIES")
        assert is_mutation("/* c */ update MOVIES set year = 1")

    def test_parenthesised_select_is_a_read(self):
        assert not is_mutation("(select m.title from MOVIES m)")
        assert not is_mutation("(( select m.title from MOVIES m ))")
        assert not is_mutation(" ( /* c */ -- d\n select 1 from MOVIES )")

    def test_degenerate_inputs_fail_safe_as_mutations(self):
        # No recognisable keyword → classified as a mutation: the cost is
        # a lost routing/retry opportunity, never a wrong answer (an
        # auto-retried write would be the dangerous misclassification).
        assert is_mutation("")
        assert is_mutation("   ")
        assert is_mutation("-- only a comment")
        assert is_mutation("/* unterminated select")

    def test_statement_keyword_extraction(self):
        assert statement_keyword("  (select 1") == "select"
        assert statement_keyword("-- x\ninsert into T") == "insert"
        assert statement_keyword("/* a */ UPDATE T set x = 1") == "update"
        assert statement_keyword("/* never closed") == ""


# ---------------------------------------------------------------------------
# Fault injector (satellite: deterministic schedules)
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_parse_faults_full_spec(self):
        plan = parse_faults(
            "seed=42, crash_nth=25, drop=0.01, corrupt=0.02,"
            " delay=0.1, delay_s=0.2, stall=0.3, stall_s=0.4"
        )
        assert plan == FaultPlan(
            seed=42,
            crash_nth=25,
            drop=0.01,
            corrupt=0.02,
            delay=0.1,
            delay_s=0.2,
            stall=0.3,
            stall_s=0.4,
        )
        assert plan.active

    def test_parse_faults_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            parse_faults("nonsense=1")
        with pytest.raises(ValueError):
            parse_faults("crash_nth")
        with pytest.raises(ValueError):
            parse_faults("drop=1.5")

    def test_from_env_is_quiet_unless_armed(self):
        assert FaultInjector.from_env("worker-0", environ={}) is None
        # A spec with no active fault (seed alone) stays quiet too.
        assert FaultInjector.from_env("worker-0", environ={"REPRO_FAULTS": "seed=9"}) is None
        injector = FaultInjector.from_env(
            "worker-0", environ={"REPRO_FAULTS": "seed=9,crash_nth=3"}
        )
        assert injector is not None
        assert injector.plan.crash_nth == 3

    def test_crash_scheduling(self):
        nth = FaultInjector(FaultPlan(crash_nth=3), "worker-0")
        assert [i for i in range(1, 10) if nth.crash_due(i)] == [3]
        every = FaultInjector(FaultPlan(crash_every=4), "worker-0")
        assert [i for i in range(1, 13) if every.crash_due(i)] == [4, 8, 12]

    def test_rate_extremes_are_certain(self):
        always_drop = FaultInjector(FaultPlan(drop=1.0), "worker-0")
        assert all(
            always_drop.response_fate(i) == (DROP, 0.0) for i in range(1, 20)
        )
        always_corrupt = FaultInjector(FaultPlan(corrupt=1.0), "worker-0")
        assert all(
            always_corrupt.response_fate(i) == (CORRUPT, 0.0) for i in range(1, 20)
        )
        quiet = FaultInjector(FaultPlan(), "worker-0")
        assert quiet.response_fate(5) == (DELIVER, 0.0)
        assert quiet.stall_for(5) == 0.0

    def test_corrupt_frame_keeps_length_breaks_codec(self):
        frame = bytes([1]) + b"x" * 16
        bad = corrupt_frame(frame)
        assert len(bad) == len(frame)
        assert bad[0] == 0xFF
        assert bad[1:] == frame[1:]

    def test_schedule_is_scope_dependent(self):
        plan = FaultPlan(seed=5, drop=0.3, stall=0.3)
        a = FaultInjector(plan, "worker-0").schedule(64)
        b = FaultInjector(plan, "worker-1").schedule(64)
        assert a != b  # different workers draw different fates

    def test_same_seed_identical_schedule_across_processes(self):
        # The acceptance bar for determinism: a fresh interpreter with a
        # different PYTHONHASHSEED derives the *exact* same schedule.
        spec = "seed=5,crash_nth=7,drop=0.1,corrupt=0.1,delay=0.2,stall=0.3"
        injector = FaultInjector(parse_faults(spec), "worker-3")
        expected = repr(injector.schedule(48))
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.service.faults import FaultInjector, parse_faults; "
            f"print(repr(FaultInjector(parse_faults({spec!r}), 'worker-3')"
            ".schedule(48)))"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONHASHSEED="999")
        output = subprocess.run(
            [sys.executable, "-c", script, src],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert output == expected


# ---------------------------------------------------------------------------
# Service-level shedding (deterministic: a parked disk run stands in for load)
# ---------------------------------------------------------------------------


def _park_disk_runs(session):
    """Hold the session's disk runs on their pool thread until released.

    Returns ``(started, proceed)``; a parked ``snapshot_to`` holds the
    session's turn, so requests sent meanwhile wait for it.
    """
    started, proceed = threading.Event(), threading.Event()
    serve = session._serve

    def parked_serve(kind, payload, deadline):
        started.set()
        assert proceed.wait(5)
        return serve(kind, payload, deadline)

    session._serve = parked_serve
    return started, proceed


class TestServiceShedding:
    def test_expired_budget_is_shed_at_admission(self):
        database = movie_database()

        async def main():
            async with NarrationService() as service:
                session = service.session(database=database)
                await session.execute("select count(*) from MOVIES")
                with pytest.raises(DeadlineExceeded):
                    await session.execute("select count(*) from GENRE", timeout=0.0)
                return session.stats()

        stats = run(main())
        assert stats["requests"]["shed"]["deadline"] == 1
        assert stats["requests"]["shed"]["in_queue"] == 0

    def test_deadline_expiry_in_queue_is_shed_typed(self, tmp_path):
        # Park a disk run so the request provably waits for its turn
        # while its budget runs out — no wall-clock race.
        database = movie_database()

        async def main():
            async with NarrationService() as service:
                session = service.session(database=database)
                await session.execute("select count(*) from MOVIES")
                started, proceed = _park_disk_runs(session)
                try:
                    parked = asyncio.ensure_future(
                        session.snapshot_to(str(tmp_path), 0)
                    )
                    assert await asyncio.to_thread(started.wait, 5)
                    pending = asyncio.ensure_future(
                        session.execute("select count(*) from GENRE", timeout=0.05)
                    )
                    await asyncio.sleep(0.3)  # the budget expires while it waits
                finally:
                    proceed.set()
                await parked
                with pytest.raises(DeadlineExceeded) as excinfo:
                    await pending
                assert isinstance(excinfo.value, TimeoutError)
                return session.stats()

        stats = run(main())
        assert stats["requests"]["shed"]["in_queue"] == 1
        assert stats["requests"]["queue_depth"] == 0  # nothing left behind

    def test_overload_answers_typed_not_timeout(self, tmp_path):
        database = movie_database()

        async def main():
            async with NarrationService() as service:
                session = service.session(
                    database=database, admission=AdmissionController(max_depth=2)
                )
                await session.execute("select count(*) from MOVIES")
                started, proceed = _park_disk_runs(session)
                submitted = []
                try:
                    # The first request takes its turn and parks on the
                    # pool; the rest wait for their turn until the depth
                    # threshold answers ServiceOverloaded.
                    submitted.append(
                        asyncio.ensure_future(session.snapshot_to(str(tmp_path), 0))
                    )
                    assert await asyncio.to_thread(started.wait, 5)
                    for mid in range(5):
                        submitted.append(
                            asyncio.ensure_future(
                                session.execute(
                                    "select g.genre from GENRE g"
                                    f" where g.mid = {mid}"
                                )
                            )
                        )
                        await asyncio.sleep(0.05)
                finally:
                    proceed.set()
                outcomes = await asyncio.gather(*submitted, return_exceptions=True)
                return outcomes, session.stats()

        outcomes, stats = run(main())
        shed = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert len(shed) == 3 and len(served) == 3
        # The shed answer is the typed overload error, not a timeout.
        assert not any(isinstance(o, TimeoutError) for o in outcomes)
        assert stats["requests"]["shed"]["overload"] == 3
        assert stats["requests"]["queue_depth"] == 0


# ---------------------------------------------------------------------------
# Shard-tier drills
# ---------------------------------------------------------------------------


class TestShardResilience:
    def test_killed_worker_invisible_to_idempotent_reads(self):
        # The acceptance drill: SIGKILL one worker mid-workload, then keep
        # reading with *plain awaits* — zero caller-visible WorkerCrashed;
        # the router retries/degrades inside its deadline.
        corpus = corpus_sql(30)
        database = movie_database()

        async def main():
            async with NarrationService() as service:
                oracle = service.session(database=database)
                expected = [await oracle.execute(sql) for sql in corpus]
            async with ShardRouter(DB_FACTORY, workers=2) as router:
                for sql in corpus[:10]:
                    await router.execute(sql)
                # Kill the worker that owns the very next read, so the
                # crash is observed before supervision finishes the
                # respawn (killing a fixed index is hash-distribution
                # dependent: if its shapes only appear late in the
                # corpus, the respawn wins the race and no retry or
                # degraded read is ever recorded).
                owner = failover_order(shape_hash(corpus[0]), router.workers)[0]
                assert router.kill_worker(owner) is not None
                results = [await router.execute(sql) for sql in corpus]
                stats = await router.stats()
            return expected, results, stats

        expected, results, stats = run(main())
        for got, want in zip(results, expected):
            assert got == want
            assert got.rows == want.rows
        assert stats["router"]["crashes"] >= 1
        # The crash was absorbed by a retry and/or a degraded reroute.
        assert stats["router"]["retries"] + stats["router"]["degraded_reads"] >= 1

    def test_degraded_rerouting_is_byte_identical(self):
        # With the respawn budget at zero, worker 0 stays permanently
        # dead — every read it owned must degrade to the next live worker
        # and come back byte-identical (colder caches, same bytes).
        corpus = corpus_sql(20)
        database = movie_database()

        async def main():
            async with NarrationService() as service:
                oracle = service.session(database=database)
                expected = {
                    "translations": [await oracle.translate(sql) for sql in corpus],
                    "results": [await oracle.execute(sql) for sql in corpus],
                }
            async with ShardRouter(
                DB_FACTORY, workers=2, config=ShardRouterConfig(max_respawns=0)
            ) as router:
                await router.execute("select count(*) from MOVIES")
                # Kill a worker that owns at least one corpus shape —
                # killing a fixed index would assert degraded reads the
                # hash distribution may never produce.
                dead = failover_order(shape_hash(corpus[0]), router.workers)[0]
                router.kill_worker(dead)
                for _ in range(int(TIMEOUT / 0.05)):
                    if router._handles[dead].gave_up:
                        break
                    await asyncio.sleep(0.05)
                assert router._handles[dead].gave_up
                got = {
                    "translations": [await router.translate(sql) for sql in corpus],
                    "results": [await router.execute(sql) for sql in corpus],
                }
                stats = await router.stats()
            return expected, got, stats, dead

        expected, got, stats, dead = run(main())
        assert got["translations"] == expected["translations"]
        assert [t.text for t in got["translations"]] == [
            t.text for t in expected["translations"]
        ]
        for have, want in zip(got["results"], expected["results"]):
            assert have == want
            assert have.rows == want.rows
        health = stats["router"]["worker_health"]
        assert health[dead] == "dead"
        assert health[1 - dead] == "live"
        assert stats["router"]["degraded_reads"] > 0
        assert stats["workers"][dead]["session"] is None

    def test_mutations_are_never_auto_retried(self):
        # The counter contract behind the idempotency rule: a workload of
        # reads *and* writes through a healthy fleet retries nothing, and
        # the mutation count equals exactly the writes issued — no write
        # is ever replayed by the retry machinery.
        async def main():
            async with ShardRouter(DB_FACTORY, workers=2) as router:
                for mid in range(1, 4):
                    await router.execute(
                        f"insert into GENRE values ({mid}, 'once-{mid}')"
                    )
                    await router.execute("select count(*) from GENRE")
                stats = await router.stats()
            return stats

        stats = run(main())
        assert stats["router"]["mutations"] == 3
        assert stats["router"]["requests_by_kind"]["execute_mutation"] == 3
        assert stats["router"]["retries"] == 0
        # Every replica applied each write exactly once.
        for worker in stats["workers"]:
            assert worker["applied_seq"] == 3


# ---------------------------------------------------------------------------
# Chaos soak (satellite: the deterministic fault harness, end to end)
# ---------------------------------------------------------------------------

#: Three seeded schedules, one per fault family: deterministic crashes,
#: frame corruption/drops, and slow replicas with delayed responses.
CHAOS_SCHEDULES = [
    "seed=11,crash_nth=17",
    "seed=23,corrupt=0.04,drop=0.04",
    "seed=37,stall=0.25,stall_s=0.03,delay=0.12,delay_s=0.03",
]


def chaos_history(corpus):
    """The soak workload: the full corpus with writes interleaved."""
    history = []
    for i, sql in enumerate(corpus):
        history.append(("translate", sql))
        history.append(("execute", sql))
        if i % 10 == 9:
            history.append(
                ("mutate", f"insert into GENRE values ({i // 10 + 1}, 'chaos-{i}')")
            )
    return history


class TestChaosSoak:
    @pytest.mark.parametrize("faults", CHAOS_SCHEDULES)
    def test_soak_byte_identical_to_oracle(self, faults, monkeypatch):
        corpus = corpus_sql(50)
        history = chaos_history(corpus)
        database = movie_database()

        async def oracle_run():
            outputs = []
            async with NarrationService() as service:
                session = service.session(database=database)
                for kind, sql in history:
                    if kind == "translate":
                        outputs.append(await session.translate(sql))
                    elif kind == "execute":
                        outputs.append(await session.execute(sql))
                    else:
                        await session.execute(sql)
                        outputs.append(None)
            return outputs

        expected = run(oracle_run())

        monkeypatch.setenv("REPRO_FAULTS", faults)

        async def router_run():
            outputs = []
            # Short attempt slices keep dropped-frame retries cheap; the
            # overall budget stays generous so no request ever expires.
            config = ShardRouterConfig(request_timeout=120.0, attempt_timeout=2.0)
            async with ShardRouter(DB_FACTORY, workers=2, config=config) as router:
                for kind, sql in history:
                    if kind == "translate":
                        outputs.append(await router.translate(sql))
                    elif kind == "execute":
                        outputs.append(await router.execute(sql))
                    else:
                        # A broadcast may fail typed if the schedule kills
                        # a worker mid-write — but the write is already in
                        # the router's log, so every replica still applies
                        # it (on respawn replay), exactly like the oracle.
                        try:
                            await router.execute(sql)
                        except (ShardError, asyncio.TimeoutError):
                            pass
                        outputs.append(None)
                stats = await router.stats()
            return outputs, stats

        got, stats = run(router_run())
        assert len(got) == len(expected)
        for have, want in zip(got, expected):
            if want is None:
                continue  # mutations are compared through later reads
            assert have == want
            if hasattr(want, "rows"):
                assert have.rows == want.rows
            if hasattr(want, "text"):
                assert have.text == want.text
        # The schedule actually exercised the fault machinery.
        if "crash" in faults or "corrupt" in faults or "drop" in faults:
            assert (
                stats["router"]["crashes"]
                + stats["router"]["retries"]
                + stats["router"]["degraded_reads"]
            ) > 0
        assert stats["router"]["mutations"] == sum(
            1 for kind, _ in history if kind == "mutate"
        )
