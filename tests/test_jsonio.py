"""The deterministic JSON renderer against the recursive renderer it replaced."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cayleypst.jsonio import dumps
from conftest import recursive_dumps

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
int_rows = st.lists(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=4), max_size=6)
documents = st.recursive(
    st.one_of(scalars, int_rows),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_dumps_matches_recursive_renderer(document):
    assert dumps(document) == recursive_dumps(document)


def test_rows_of_ints_keep_their_bytes():
    rows = [[1, 2], [3], [-4, 50]]
    assert dumps(rows) == "[\n  [1, 2],\n  [3],\n  [-4, 50]\n]"
    # bools, floats, nested lists and tuples are not plain ints and take the general path
    for mixed in ([[1], [True]], [[1], [2.0]], [[1], []], [[1], [[2]]], [[1], (2,)]):
        assert dumps(mixed) == recursive_dumps(mixed)
    assert dumps({"a": [[True, False]]}) == '{\n  "a": [\n    [true, false]\n  ]\n}'
