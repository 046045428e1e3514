"""Common-expression aggregation (paper, Section 2.2).

Given the two clauses produced by the DIRECTOR templates::

    DNAME + " was born" + " in " + BLOCATION
    DNAME + " was born" + " on " + BDATE

"the mechanism for resolving common expressions identifies DNAME and
' was born' as such and, instead of creating two different phrases, it
creates one that combines both pieces of data:
DNAME was born in BLOCATION on BDATE".  :func:`merge_clauses` does this
at narration time, on instantiated :class:`Clause` objects that share
subject and verb.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.nlg.clause import Clause


def merge_clauses(clauses: Sequence[Clause]) -> List[Clause]:
    """Merge consecutive-in-spirit clauses sharing (subject, verb).

    The merged clause keeps the first clause's position and concatenates
    the complements of all members in order.  Clauses with an empty verb
    are never merged (there is no common expression to factor out).
    """
    merged: List[Clause] = []
    index_by_key = {}
    for clause in clauses:
        key = (clause.subject.strip().lower(), clause.verb.strip().lower())
        if clause.verb and key in index_by_key:
            position = index_by_key[key]
            existing = merged[position]
            merged[position] = existing.with_extra_complements(clause.complements)
        else:
            if clause.verb:
                index_by_key[key] = len(merged)
            merged.append(clause)
    return merged
