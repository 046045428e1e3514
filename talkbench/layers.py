"""Per-layer metrics, derived from a traced phase's spans and counters.

Every metric in :data:`PER_LAYER` is reported for every workload.  A
layer a workload never reaches reads 0 (no calls, no bytes, no retries);
``sharding.worker_max_share`` reads 1 in-process, where one process
serves every request.  "Self" time is a span's duration minus its
direct children's durations.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from talkbench.streams import WRITE
from talkbench.trace import PIPELINE

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("service.queue_wait_ms", "ms"),
    ("service.reply_ms", "ms"),
    ("service.fast_path_share", "ratio"),
    ("service.shed", "count"),
    ("sharding.router_ms", "ms"),
    ("sharding.codec_ms_per_op", "ms/op"),
    ("sharding.frame_bytes_per_op", "B/op"),
    ("sharding.worker_max_share", "ratio"),
    ("sharding.retries", "count"),
    ("sql.parse_ms", "ms"),
    ("sql.parses_per_op", "count/op"),
    ("sql.shape_ms", "ms"),
    ("querygraph.build_ms", "ms"),
    ("querygraph.builds_per_op", "count/op"),
    ("query_nl.translate_self_ms", "ms"),
    ("query_nl.exact_hit_rate", "ratio"),
    ("query_nl.plan_hit_rate", "ratio"),
    ("query_nl.dml_translate_ms", "ms"),
    ("engine.execute_self_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.shape_plan_hit_rate", "ratio"),
    ("engine.subquery_memo_hit_rate", "ratio"),
    ("engine.rows_examined_per_row", "ratio"),
    ("engine.scan_cache_entries", "count"),
    ("content.narrate_self_ms", "ms"),
    ("content.narrate_relation_ms", "ms"),
    ("content.narrate_database_ms", "ms"),
    ("content.explain_ms", "ms"),
    ("content.rank_ms", "ms"),
    ("storage.dml_ms", "ms"),
    ("storage.wal_append_ms", "ms"),
    ("storage.fsyncs_per_write", "count/op"),
    ("storage.bytes_per_user_byte", "B/B"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.checkpoints", "count"),
    ("storage.full_scans_per_op", "count/op"),
    ("runtime.gc_ms_per_op", "ms/op"),
    ("trace.overhead", "ratio"),
    ("trace.uncovered_share", "ratio"),
)

_NARRATE_SPANS = {"content.narrate_relation", "content.narrate_database", "content.explain"}
_DML_SPANS = {"storage.insert", "storage.update_where", "storage.delete_where"}


def percentile(samples: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class SpanIndex:
    """Span records of every process, indexed for the derivations below."""

    def __init__(self, records: Iterable[Dict[str, Any]]) -> None:
        self.records = list(records)
        self.by_key = {(r["proc"], r["id"]): r for r in self.records}
        self.children: Dict[Tuple[Any, int], List[Dict[str, Any]]] = {}
        for record in self.records:
            if record["parent"] is not None:
                key = (record["proc"], record["parent"])
                self.children.setdefault(key, []).append(record)

    def named(self, names) -> List[Dict[str, Any]]:
        names = {names} if isinstance(names, str) else set(names)
        return [r for r in self.records if r["name"] in names]

    def parent(self, record) -> Optional[Dict[str, Any]]:
        if record["parent"] is None:
            return None
        return self.by_key.get((record["proc"], record["parent"]))

    def kids(self, record) -> List[Dict[str, Any]]:
        return self.children.get((record["proc"], record["id"]), [])

    def self_time(self, record) -> float:
        return _duration(record) - sum(_duration(k) for k in self.kids(record))

    def ancestor(self, record, prefix: str) -> Optional[Dict[str, Any]]:
        node = self.parent(record)
        while node is not None and not node["name"].startswith(prefix):
            node = self.parent(node)
        return node


def _duration(record) -> float:
    end = record["end"] if record["end"] is not None else record["start"]
    return end - record["start"]


def _ms_p50(values: Sequence[float]) -> float:
    return percentile(values, 0.5) * 1000


def _stat_delta(before: List[Dict], after: List[Dict], *path: str) -> float:
    """Sum over sessions of ``after - before`` for the nested counter ``path``."""
    total = 0.0
    for old, new in zip(before, after):
        total += _dig(new, path) - _dig(old, path)
    return total


def _dig(snapshot: Dict, path: Sequence[str]) -> float:
    node: Any = snapshot
    for key in path:
        if not isinstance(node, dict) or node.get(key) is None:
            return 0.0
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else 0.0


def cache_rates(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Hit rates and counters over one phase, from ``Deployment.stats()``."""
    sessions_before = before["sessions"]
    sessions_after = after["sessions"]

    def delta(*path):
        return _stat_delta(sessions_before, sessions_after, *path)

    exact_hits = delta("translator", "exact_cache", "hits")
    exact_lookups = exact_hits + delta("translator", "exact_cache", "misses")
    plan_hits = delta("translator", "plan_store", "hits")
    plan_lookups = plan_hits + delta("translator", "plan_store", "misses")
    translates = delta("requests", "by_kind", "translate")
    shape_hits = delta("executor", "shape_plans", "hits")
    executions = (
        shape_hits
        + delta("executor", "shape_plans", "misses")
        + delta("executor", "shape_plans", "fallbacks")
    )
    memo_hits = delta("executor", "subquery", "hits")
    memo_lookups = memo_hits + delta("executor", "subquery", "misses")
    retries = sum(
        _stat_delta([before["router"]], [after["router"]], key)
        for key in ("retries", "crashes", "degraded_reads")
    )
    return {
        "exact_hit_rate": _ratio(exact_hits, exact_lookups),
        "plan_hit_rate": _ratio(plan_hits, plan_lookups),
        "translate_cached_share": _ratio(exact_hits + plan_hits, translates),
        "fast_path_share": _ratio(delta("requests", "fast_path_hits"), translates),
        "shape_plan_hit_rate": _ratio(shape_hits, executions),
        "subquery_memo_hit_rate": _ratio(memo_hits, memo_lookups),
        "scan_cache_entries": sum(_dig(s, ("executor", "scan_tables")) for s in sessions_after),
        "shed": sum(
            delta("requests", "shed", key) for key in ("overload", "deadline", "in_queue")
        ),
        "wal_syncs": delta("durability", "wal", "syncs"),
        "checkpoints": delta("durability", "checkpoints"),
        "retries": retries,
    }


def derive(
    records: List[Dict[str, Any]],
    counters: Dict[str, float],
    gc_seconds: float,
    rates: Dict[str, float],
    requests: int,
    writes: int,
    result_rows: int,
    overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced phase, plus the tracing ``overhead``."""
    index = SpanIndex(records)
    per_op = lambda total: _ratio(total, requests)  # noqa: E731

    waits: List[float] = []
    replies: List[float] = []
    for record in index.named(PIPELINE):
        caller = index.parent(record)
        if caller is None or not caller["name"].startswith(("client.", "worker.")):
            continue
        if caller["end"] is None or record["end"] is None:
            continue
        waits.append(record["start"] - caller["start"])
        replies.append(caller["end"] - record["end"])

    # Shard workers' session calls, paired with the router-side call that
    # sent them by (worker pid, wire request id).
    router: List[float] = []
    worker_calls: Dict[Any, int] = {}
    worker_spans = {}
    for record in index.records:
        if record["name"].startswith("worker."):
            worker_calls[record["proc"]] = worker_calls.get(record["proc"], 0) + 1
            wire = (record["attrs"] or {}).get("wire_id")
            worker_spans[(record["proc"], wire)] = record
    for record in index.named("sharding.request"):
        attrs = record["attrs"] or {}
        served = worker_spans.get((attrs.get("pid"), attrs.get("wire_id")))
        caller = index.ancestor(record, "client.")
        if served is not None and caller is not None:
            router.append(_duration(caller) - _duration(served))
    total_worker_calls = sum(worker_calls.values())

    request_kind = {
        r["rid"]: r["name"][len("request.") :]
        for r in index.records
        if r["name"].startswith("request.")
    }
    translates = index.named("query_nl.translate")
    dml_translates = [r for r in translates if request_kind.get(r["rid"]) == WRITE]
    checkpoints = index.named("storage.checkpoint")
    # Narrate and explain calls a client made (not ones nested in another).
    narrates = [
        r
        for r in index.named(_NARRATE_SPANS)
        if not (index.parent(r) or {"name": ""})["name"].startswith("content.")
    ]

    return {
        "service.queue_wait_ms": _ms_p50(waits),
        "service.reply_ms": _ms_p50(replies),
        "service.fast_path_share": rates["fast_path_share"],
        "service.shed": rates["shed"],
        "sharding.router_ms": _ms_p50(router),
        "sharding.codec_ms_per_op": per_op(counters.get("sharding.codec_seconds", 0) * 1000),
        "sharding.frame_bytes_per_op": per_op(counters.get("sharding.frame_bytes", 0)),
        "sharding.worker_max_share": (
            _ratio(max(worker_calls.values()), total_worker_calls) if worker_calls else 1.0
        ),
        "sharding.retries": rates["retries"],
        "sql.parse_ms": _ms_p50([_duration(r) for r in index.named("sql.parse")]),
        "sql.parses_per_op": per_op(len(index.named("sql.parse"))),
        "sql.shape_ms": _ms_p50([_duration(r) for r in index.named("sql.shape")]),
        "querygraph.build_ms": _ms_p50([_duration(r) for r in index.named("querygraph.build")]),
        "querygraph.builds_per_op": per_op(len(index.named("querygraph.build"))),
        "query_nl.translate_self_ms": _ms_p50([index.self_time(r) for r in translates]),
        "query_nl.exact_hit_rate": rates["exact_hit_rate"],
        "query_nl.plan_hit_rate": rates["plan_hit_rate"],
        "query_nl.dml_translate_ms": _ms_p50([_duration(r) for r in dml_translates]),
        "engine.execute_self_ms": _ms_p50(
            [index.self_time(r) for r in index.named("engine.execute_sql")]
        ),
        "engine.plan_ms": _ms_p50([_duration(r) for r in index.named("engine.plan")]),
        "engine.shape_plan_hit_rate": rates["shape_plan_hit_rate"],
        "engine.subquery_memo_hit_rate": rates["subquery_memo_hit_rate"],
        "engine.rows_examined_per_row": _ratio(
            counters.get("storage.rows_examined", 0), result_rows
        ),
        "engine.scan_cache_entries": rates["scan_cache_entries"],
        "content.narrate_self_ms": _ms_p50([index.self_time(r) for r in narrates]),
        "content.narrate_relation_ms": _ms_p50(
            [index.self_time(r) for r in narrates if r["name"] == "content.narrate_relation"]
        ),
        "content.narrate_database_ms": _ms_p50(
            [index.self_time(r) for r in narrates if r["name"] == "content.narrate_database"]
        ),
        "content.explain_ms": _ms_p50(
            [index.self_time(r) for r in narrates if r["name"] == "content.explain"]
        ),
        "content.rank_ms": _ms_p50([_duration(r) for r in index.named("content.rank")]),
        "storage.dml_ms": _ms_p50([_duration(r) for r in index.named(_DML_SPANS)]),
        "storage.wal_append_ms": _ms_p50(
            [_duration(r) for r in index.named("storage.wal_append")]
        ),
        "storage.fsyncs_per_write": _ratio(rates["wal_syncs"], writes),
        "storage.bytes_per_user_byte": _ratio(
            counters.get("storage.bytes_written", 0), counters.get("storage.user_bytes", 0)
        ),
        "storage.checkpoint_ms": _ms_p50([_duration(r) for r in checkpoints]),
        "storage.checkpoints": float(len(checkpoints)),
        "storage.full_scans_per_op": per_op(counters.get("storage.full_scans", 0)),
        "runtime.gc_ms_per_op": per_op(gc_seconds * 1000),
        "trace.overhead": overhead,
        "trace.uncovered_share": uncovered_share(index),
    }


def trace_overhead(segments: Sequence[Any], scales: Sequence[float]) -> float:
    """Median over neighbouring (untraced, traced) slices of untraced ÷ traced ops/s, minus 1.

    The slices of a pair run back to back on one deployment, and each
    slice's wall time is first scaled by its host-speed factor
    (``scales``, one per slice), so a change of host-speed regime between
    the two is taken out; the median sets aside a pair that a heavy
    request or a host hiccup landed in.
    """
    ratios = []
    pairs = zip(segments[0::2], segments[1::2], scales[0::2], scales[1::2])
    for first, second, first_scale, second_scale in pairs:
        (traced, traced_scale), (plain, plain_scale) = (
            ((first, first_scale), (second, second_scale))
            if first.traced
            else ((second, second_scale), (first, first_scale))
        )
        if traced.traced == plain.traced or not (traced.completed and plain.completed):
            continue
        ratios.append(
            (traced.wall_s * traced_scale / traced.completed)
            / (plain.wall_s * plain_scale / plain.completed)
        )
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def uncovered_share(index: SpanIndex) -> float:
    """Share of request time that no layer span of the same process covers."""
    total = 0.0
    covered = 0.0
    for root in index.named({"request.verify", "request.narrate", "request.write"}):
        if root["end"] is None:
            continue
        intervals: List[Tuple[float, float]] = []
        stack = list(index.kids(root))
        while stack:
            node = stack.pop()
            stack.extend(index.kids(node))
            if node["name"].startswith(("client.", "request.")) or node["end"] is None:
                continue
            intervals.append((max(node["start"], root["start"]), min(node["end"], root["end"])))
        total += _duration(root)
        covered += _union(intervals)
    return 1.0 - _ratio(covered, total) if total else 0.0


def _union(intervals: List[Tuple[float, float]]) -> float:
    length = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        length += end - max(start, reach)
        reach = end
    return length
