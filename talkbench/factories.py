"""Databases and narration specs the benchmark builds, in every process.

Shard workers build their replicas by importing a factory path, so the
verify_sharded factories live here at module level.  When the parent set
:data:`TRACE_DIR_VAR`, the database factory also installs the tracer in
the worker and has the worker write its spans into that directory when
its service shuts down.  The worker records only while the parent keeps
:data:`SWITCH_FILE` in that directory (read at each stats request).
"""

from __future__ import annotations

import json
import os

from repro.content.presets import NarrationSpec
from repro.datasets.domains import get_domain
from repro.lexicon.lexicon import default_lexicon
from repro.storage.database import Database
from repro.templates.registry import TemplateRegistry

#: Set by a traced verify_sharded run: where workers write their spans.
TRACE_DIR_VAR = "TALKBENCH_TRACE_DIR"
#: Present in the trace directory while workers should record spans.
SWITCH_FILE = "recording"


def domain_database(name: str) -> Database:
    """A registered domain at registry scale 1, seed 0."""
    return get_domain(name).database(0, 1)


def domain_spec(name: str, schema=None) -> NarrationSpec:
    """A private narration spec (and lexicon, hence phrase-plan store)."""
    domain = get_domain(name)
    schema = schema if schema is not None else domain.schema()
    lexicon = domain.lexicon() or default_lexicon(schema)
    return NarrationSpec(schema=schema, registry=TemplateRegistry(schema), lexicon=lexicon)


def movies_database() -> Database:
    """verify_warm's database, for the shard workers."""
    directory = os.environ.get(TRACE_DIR_VAR)
    if directory:
        _trace_this_worker(directory)
    return domain_database("movies")


def movies_spec(schema) -> NarrationSpec:
    return domain_spec("movies", schema)


def _trace_this_worker(directory: str) -> None:
    from repro.service.service import NarrationService

    from talkbench import trace

    trace.install(worker=True)
    trace.TRACER.reset()  # a forked worker inherits the parent's store
    trace.TRACER.switch = os.path.join(directory, SWITCH_FILE)
    close = NarrationService.aclose

    async def aclose_and_report(service: NarrationService) -> None:
        await close(service)
        trace.TRACER.recording = False
        path = os.path.join(directory, f"worker-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(worker_report(), handle)

    NarrationService.aclose = aclose_and_report


def worker_report() -> dict:
    from talkbench import trace

    tracer = trace.TRACER
    return {
        "pid": os.getpid(),
        "spans": [span.record() for span in tracer.spans],
        "counters": tracer.counters,
        "gc_pauses": tracer.gc_pauses,
    }
