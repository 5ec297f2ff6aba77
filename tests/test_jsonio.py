"""The deterministic JSON renderer against the recursive renderer it replaced."""

import itertools

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from cayleypst import jsonio
from cayleypst.jsonio import dumps, pieces
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
    # bools, floats, nested lists and tuples render like any other list
    for mixed in ([[1], [True]], [[1], [2.0]], [[1], []], [[1], [[2]]], [[1], (2,)]):
        assert dumps(mixed) == recursive_dumps(mixed)
    assert dumps({"a": [[True, False]]}) == '{\n  "a": [\n    [true, false]\n  ]\n}'


@st.composite
def int_arrays(draw):
    """n x r, n x 2 x r (like exported edges) or n x 0 x r int arrays around the block size."""
    r = draw(st.integers(0, 3))
    inner = draw(st.sampled_from([(r,), (2, r), (0, r)]))
    block = jsonio._BLOCK_VALUES // max(1, int(np.prod(inner)))
    n = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 3 * block + 1]) | st.integers(0, 4 * block))
    seed = draw(st.integers(0, 2**32 - 1))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.intp]))
    info = np.iinfo(dtype)
    return np.random.default_rng(seed).integers(info.min, info.max, (n, *inner), dtype=dtype, endpoint=True)


# no shrinking: the values come from a seeded generator, and shrinking arrays
# of tens of thousands of values takes minutes
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(int_arrays(), st.integers(0, 2))
@example(np.zeros((2, 0, 3), dtype=np.int64), 0)
def test_int_arrays_render_like_their_lists_in_blocks(array, depth):
    document, listed = array, array.tolist()
    for _ in range(depth):
        document, listed = {"k": [document, 7]}, {"k": [listed, 7]}
    expected = recursive_dumps(listed)
    assert dumps(document) == expected
    parts = list(pieces(document))
    assert "".join(parts) == expected
    # one piece per block of rows at least, and none much longer than a block's text
    assert len(parts) >= array.size // jsonio._BLOCK_VALUES
    assert max(map(len, parts)) <= 64 * jsonio._BLOCK_VALUES


@pytest.mark.parametrize(
    "array", [np.arange(3), np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), np.array(5)]
)
def test_only_int_arrays_of_two_or_more_axes_render(array):
    with pytest.raises(TypeError, match="array to JSON"):
        dumps({"a": array})


@settings(max_examples=100, deadline=None)
@given(st.lists(documents, max_size=5))
def test_an_iterator_renders_like_its_list(items):
    # a list of scalars only keeps to one line; an iterator gives each item its own
    if items and all(jsonio._is_scalar(item) for item in items):
        items.append([[1]])
    assert dumps(iter(items)) == dumps(items)
    assert dumps({"k": (item for item in items)}) == dumps({"k": items})


def test_an_iterator_is_consumed_as_it_renders():
    pulled = []

    def rows():
        for i in range(3):
            pulled.append(i)
            yield {"i": i}

    text = pieces({"rows": rows()})
    assert "".join(itertools.islice(text, 3)) == '{\n  "rows": [\n    {\n      "i": 0'
    assert pulled == [0]
    assert "".join(text).endswith('"i": 2\n    }\n  ]\n}')
    assert pulled == [0, 1, 2]
