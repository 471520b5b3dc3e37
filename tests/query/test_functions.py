"""Built-in POOL functions and value methods."""

import pytest

from repro.errors import EvaluationError
from repro.query.functions import (
    FUNCTIONS,
    call_value_method,
    fn_abs,
    fn_avg,
    fn_count,
    fn_distinct,
    fn_element,
    fn_exists,
    fn_first,
    fn_flatten,
    fn_last,
    fn_max,
    fn_min,
    fn_nvl,
    fn_sum,
)


class TestAggregates:
    def test_count(self):
        assert fn_count([1, 2, 3]) == 3
        assert fn_count(None) == 0
        assert fn_count("scalar") == 1

    def test_sum_avg(self):
        assert fn_sum([1, 2, 3]) == 6
        assert fn_avg([1, 2, 3]) == 2
        assert fn_avg([]) is None
        assert fn_sum([1, None, 2]) == 3  # nulls skipped

    def test_sum_rejects_non_numeric(self):
        with pytest.raises(EvaluationError):
            fn_sum(["a"])

    def test_min_max_with_nones(self):
        assert fn_min([3, None, 1]) == 1
        assert fn_max([3, None, 1]) == 3
        assert fn_min([]) is None

    def test_exists(self):
        assert fn_exists([0])
        assert not fn_exists([])
        assert not fn_exists(None)


class TestAbs:
    def test_numbers(self):
        assert fn_abs(-3) == 3
        assert type(fn_abs(-3)) is int
        assert fn_abs(-2.5) == 2.5
        assert fn_abs(4) == 4

    def test_null_is_null(self):
        assert fn_abs(None) is None

    @pytest.mark.parametrize("value", ["-3", True, False])
    def test_non_numbers_are_refused(self, value):
        with pytest.raises(EvaluationError, match="abs"):
            fn_abs(value)


class TestCollectionHelpers:
    def test_distinct_preserves_order(self):
        assert fn_distinct([3, 1, 3, 2, 1]) == [3, 1, 2]

    def test_distinct_unhashable(self):
        assert fn_distinct([[1], [1], [2]]) == [[1], [2]]

    def test_flatten_one_level(self):
        assert fn_flatten([[1, 2], 3, [4]]) == [1, 2, 3, 4]

    def test_first_last(self):
        assert fn_first([1, 2]) == 1
        assert fn_last([1, 2]) == 2
        assert fn_first([]) is None

    def test_element(self):
        assert fn_element([7]) == 7
        with pytest.raises(EvaluationError):
            fn_element([1, 2])
        with pytest.raises(EvaluationError):
            fn_element([])

    def test_nvl(self):
        assert fn_nvl(None, "d") == "d"
        assert fn_nvl(0, "d") == 0


class TestValueMethods:
    def test_string_methods(self):
        assert call_value_method("Apium", "startsWith", ("Ap",))
        assert call_value_method("Apium", "endsWith", ("um",))
        assert call_value_method("Apium", "contains", ("piu",))
        assert call_value_method("Apium", "lower", ()) == "apium"
        assert call_value_method("Apium", "length", ()) == 5

    def test_collection_methods(self):
        assert call_value_method([1, 2], "count", ()) == 2
        assert call_value_method([], "isEmpty", ())
        assert call_value_method([1], "notEmpty", ())
        assert call_value_method([1, 2], "includes", (2,))
        assert call_value_method([2, 1, 2], "distinct", ()) == [2, 1]

    def test_unknown_method(self):
        with pytest.raises(EvaluationError):
            call_value_method(42, "explode", ())

    def test_registry_complete(self):
        for name in ("count", "sum", "avg", "min", "max", "exists",
                     "distinct", "flatten", "first", "last", "element",
                     "abs", "oid", "class_of", "nvl"):
            assert name in FUNCTIONS
