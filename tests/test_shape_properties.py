"""Property-based fuzzing of the SQL shape machinery (``repro.sql.shape``).

The shard router and the parameterised-plan cache both assume two
invariants of the masker:

* ``reconstruct_sql(*sql_shape(q))`` is *shape-faithful*: the rebuilt
  text lexes back to the same shape with the same literals (whitespace
  may differ, meaning may not);
* ``shape_hash``/``batch_key`` are invariant under literal rotation:
  swapping every literal for a different value never changes the key, so
  one compiled plan genuinely serves the whole literal family.

These are fuzzed here over randomly composed SELECTs rather than the
handful of fixtures the unit tests use.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.shape import (
    batch_key,
    reconstruct_sql,
    shape_hash,
    sql_shape,
    stable_hash,
)

# ---------------------------------------------------------------------------
# Strategies: small well-formed SELECTs with controllable literals
# ---------------------------------------------------------------------------

_columns = st.sampled_from(["m.id", "m.title", "m.year", "d.name", "a.country"])
_int_literals = st.integers(min_value=-9999, max_value=9999)
# String literal bodies, including embedded single quotes (the masker must
# handle the '' escape) and SQL keywords hiding inside strings.
_str_literals = st.text(
    alphabet=string.ascii_letters + string.digits + " '.,-", min_size=0, max_size=16
)


def _quote(body: str) -> str:
    return "'" + body.replace("'", "''") + "'"


_comparison = st.builds(
    lambda column, op, literal: f"{column} {op} "
    + (literal if isinstance(literal, str) else str(literal)),
    _columns,
    st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
    st.one_of(_int_literals.map(str), _str_literals.map(_quote)),
)

_select_texts = st.builds(
    lambda cols, comparisons, distinct, limit: (
        "select "
        + ("distinct " if distinct else "")
        + ", ".join(dict.fromkeys(cols))
        + " from MOVIES m, DIRECTOR d where "
        + " and ".join(comparisons)
        + (f" limit {limit}" if limit else "")
    ),
    st.lists(_columns, min_size=1, max_size=4),
    st.lists(_comparison, min_size=1, max_size=4),
    st.booleans(),
    st.integers(min_value=0, max_value=50),
)


# ---------------------------------------------------------------------------
# Round-trip: reconstruct_sql(sql_shape(q)) is shape-faithful
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_select_texts)
    def test_reconstruct_lexes_to_same_shape_and_literals(self, sql):
        shaped = sql_shape(sql)
        assert shaped is not None, sql
        shape, literals = shaped
        rebuilt = reconstruct_sql(shape, literals)
        reshaped = sql_shape(rebuilt)
        assert reshaped is not None, rebuilt
        assert reshaped[0] == shape
        assert list(reshaped[1]) == list(literals)

    @settings(max_examples=200, deadline=None)
    @given(_select_texts)
    def test_reconstruct_is_idempotent(self, sql):
        shape, literals = sql_shape(sql)
        once = reconstruct_sql(shape, literals)
        again = reconstruct_sql(*sql_shape(once))
        assert once == again

    @settings(max_examples=100, deadline=None)
    @given(_str_literals)
    def test_string_literals_survive_masking_exactly(self, body):
        sql = f"select m.title from MOVIES m where m.title = {_quote(body)}"
        shape, literals = sql_shape(sql)
        assert list(literals) == [body]
        reshaped = sql_shape(reconstruct_sql(shape, literals))
        assert list(reshaped[1]) == [body]


# ---------------------------------------------------------------------------
# Literal rotation: the shape key must not move
# ---------------------------------------------------------------------------


class TestLiteralRotation:
    @settings(max_examples=200, deadline=None)
    @given(
        _select_texts,
        # Rotation values must themselves be lexer-producible literals:
        # a negative number is operator + literal at the token level, so
        # extracted literals are never negative.
        st.lists(st.integers(min_value=0, max_value=9999), min_size=8, max_size=8),
        st.lists(_str_literals, min_size=8, max_size=8),
    )
    def test_shape_hash_invariant_under_literal_rotation(self, sql, ints, strings):
        shape, literals = sql_shape(sql)
        rotated = []
        int_pool, str_pool = iter(ints), iter(strings)
        for literal in literals:
            if isinstance(literal, str):
                rotated.append(next(str_pool, literal + "x"))
            else:
                rotated.append(next(int_pool, 0))
        # shape_hash keys on the masked TEXT (case and spacing preserved),
        # so the invariant is stated between two renderings that differ
        # only in their literal spans.
        original = reconstruct_sql(shape, literals)
        variant = reconstruct_sql(shape, rotated)
        assert shape_hash(variant) == shape_hash(original)
        assert batch_key(variant) == batch_key(original)
        assert sql_shape(variant)[0] == shape

    @settings(max_examples=100, deadline=None)
    @given(_select_texts)
    def test_shape_hash_agrees_with_sql_shape_equality(self, sql):
        shape, literals = sql_shape(sql)
        zeroed = [0 if not isinstance(l, str) else "" for l in literals]
        variant = reconstruct_sql(shape, zeroed)
        assert sql_shape(variant)[0] == shape
        assert shape_hash(variant) == shape_hash(reconstruct_sql(shape, literals))

    def test_number_and_string_literals_are_different_shapes(self):
        # Regression: the masker used one placeholder for both literal
        # kinds, so `x = 0` and `x = '0'` were mask-equal — the shape
        # cache then served one kind's compiled plans for the other.
        # Found by the fuzzer above.
        numeric = "select m.title from MOVIES m where m.title = 0"
        stringy = "select m.title from MOVIES m where m.title = '0'"
        assert batch_key(numeric) != batch_key(stringy)
        assert shape_hash(numeric) != shape_hash(stringy)
        assert sql_shape(numeric)[0] != sql_shape(stringy)[0]
        # Whichever text is seen first must not poison the other's shape.
        assert list(sql_shape(numeric)[1]) == [0]
        assert list(sql_shape(stringy)[1]) == ["0"]


# ---------------------------------------------------------------------------
# Process stability: the hashes are pure functions of the text
# ---------------------------------------------------------------------------


class TestStableHash:
    def test_pinned_values(self):
        # These constants pin the current on-the-wire formats: the shard
        # ring places shapes by them, so an accidental drift would
        # silently re-home every shape after an upgrade.  (A deliberate
        # mask-format change — like the kind-distinct placeholders — is
        # allowed to move shape_hash, and must update the pin here.)
        assert stable_hash("select 1") == 17825029987835142814
        assert (
            shape_hash("select m.title from MOVIES m where m.year = 2005")
            == 1643519951519591251
        )

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=64))
    def test_stable_hash_is_64_bit(self, text):
        value = stable_hash(text)
        assert 0 <= value < 2**64

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=64))
    def test_stable_hash_deterministic_within_process(self, text):
        assert stable_hash(text) == stable_hash(text)
