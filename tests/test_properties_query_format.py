"""Property-based tests: query language algebra."""

from hypothesis import given
from hypothesis import strategies as st

from repro.services.query import evaluate_query, parse_query

# ---------------------------------------------------------------------------
# Query language algebra
# ---------------------------------------------------------------------------

keys = st.sampled_from(["energy", "year", "size", "count"])
numbers = st.integers(min_value=-1000, max_value=1000)
documents = st.dictionaries(keys, numbers, min_size=0, max_size=4)
operators = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
comparisons = st.builds(
    lambda k, op, v: f"{k} {op} {v}", keys, operators, numbers
)


@given(comparisons, documents)
def test_negation_is_complement(comparison, doc):
    value = evaluate_query(comparison, doc)
    negated = evaluate_query(f"not {comparison}", doc)
    assert negated is not value


@given(comparisons, comparisons, documents)
def test_and_or_duality(a, b, doc):
    """De Morgan: not (a and b) == (not a) or (not b)."""
    left = evaluate_query(f"not ({a} and {b})", doc)
    right = evaluate_query(f"not {a} or not {b}", doc)
    assert left is right


@given(comparisons, comparisons, documents)
def test_and_or_commutative(a, b, doc):
    assert evaluate_query(f"{a} and {b}", doc) is evaluate_query(
        f"{b} and {a}", doc
    )
    assert evaluate_query(f"{a} or {b}", doc) is evaluate_query(
        f"{b} or {a}", doc
    )


@given(comparisons, documents)
def test_idempotence(a, doc):
    value = evaluate_query(a, doc)
    assert evaluate_query(f"{a} and {a}", doc) is value
    assert evaluate_query(f"{a} or {a}", doc) is value


@given(comparisons, documents)
def test_parenthesization_is_noop(a, doc):
    assert evaluate_query(f"(({a}))", doc) is evaluate_query(a, doc)


@given(keys, numbers, documents)
def test_eq_and_neq_partition(key, value, doc):
    eq = evaluate_query(f"{key} == {value}", doc)
    neq = evaluate_query(f"{key} != {value}", doc)
    if key in doc:
        assert eq is not neq
    else:
        # Missing keys: both comparisons are false by definition.
        assert eq is False and neq is False


@given(comparisons)
def test_parse_is_deterministic(comparison):
    assert repr(parse_query(comparison)) == repr(parse_query(comparison))
