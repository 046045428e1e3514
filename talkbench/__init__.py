"""The talk-back benchmark: closed-loop verify/narrate/write workloads.

``python3 talkbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` generates a seeded request stream, drives the public API
(``NarrationService`` sessions or a ``ShardRouter``) with it, checks every
answer against a synchronous replay, and prints its metrics as one JSON
line.  See ``talkbench/README.md`` for the workloads and metrics.
"""
