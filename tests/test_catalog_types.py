"""Tests for repro.catalog.types."""

import datetime

import pytest

from repro.catalog.types import (
    DataType,
    check_value,
    coerce_value,
    is_valid_value,
    render_value,
)
from repro.errors import TypeMismatchError


class TestIsValidValue:
    def test_none_is_valid_for_every_type(self):
        for dtype in DataType:
            assert is_valid_value(dtype, None)

    def test_integer_accepts_int(self):
        assert is_valid_value(DataType.INTEGER, 7)

    def test_integer_rejects_bool(self):
        assert not is_valid_value(DataType.INTEGER, True)

    def test_float_accepts_int_and_float(self):
        assert is_valid_value(DataType.FLOAT, 7)
        assert is_valid_value(DataType.FLOAT, 7.5)

    def test_float_rejects_bool(self):
        assert not is_valid_value(DataType.FLOAT, False)

    def test_text_accepts_str_only(self):
        assert is_valid_value(DataType.TEXT, "abc")
        assert not is_valid_value(DataType.TEXT, 3)

    def test_date_accepts_date(self):
        assert is_valid_value(DataType.DATE, datetime.date(2009, 1, 4))
        assert not is_valid_value(DataType.DATE, "2009-01-04")


class TestCheckValue:
    def test_returns_valid_value(self):
        assert check_value(DataType.INTEGER, 5) == 5

    def test_raises_on_mismatch(self):
        with pytest.raises(TypeMismatchError):
            check_value(DataType.INTEGER, "five")

    def test_error_mentions_context(self):
        with pytest.raises(TypeMismatchError, match="MOVIES.year"):
            check_value(DataType.INTEGER, "x", context="MOVIES.year")


class TestCoerceValue:
    def test_none_and_empty_string_become_null(self):
        assert coerce_value(DataType.INTEGER, None) is None
        assert coerce_value(DataType.INTEGER, "") is None

    def test_integer_from_text(self):
        assert coerce_value(DataType.INTEGER, "42") == 42

    def test_float_from_text(self):
        assert coerce_value(DataType.FLOAT, "2.5") == 2.5

    def test_boolean_words(self):
        assert coerce_value(DataType.BOOLEAN, "yes") is True
        assert coerce_value(DataType.BOOLEAN, "0") is False

    def test_boolean_invalid(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(DataType.BOOLEAN, "maybe")

    def test_date_from_iso_text(self):
        assert coerce_value(DataType.DATE, "1935-12-01") == datetime.date(1935, 12, 1)

    def test_date_from_datetime(self):
        stamp = datetime.datetime(2005, 6, 1, 12, 30)
        assert coerce_value(DataType.DATE, stamp) == datetime.date(2005, 6, 1)

    def test_invalid_integer_raises(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(DataType.INTEGER, "not-a-number")

    def test_non_string_valid_value_passes_through(self):
        assert coerce_value(DataType.INTEGER, 9) == 9


class TestRenderValue:
    def test_none_renders_as_unknown(self):
        assert render_value(None) == "unknown"

    def test_date_renders_like_the_paper(self):
        assert render_value(datetime.date(1935, 12, 1)) == "December 1, 1935"

    def test_boolean_renders_as_words(self):
        assert render_value(True) == "yes"
        assert render_value(False) == "no"

    def test_whole_float_drops_decimal(self):
        assert render_value(3.0) == "3"

    def test_fractional_float(self):
        assert render_value(2.5) == "2.5"

    def test_string_verbatim(self):
        assert render_value("Match Point") == "Match Point"
