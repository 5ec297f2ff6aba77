"""Index-backed connection sets and per-group index tables against element-wise definitions."""

import copy
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cayleypst import (
    AbelianGroup,
    ConnectionSet,
    GroupMismatchError,
    characterize_pst,
    enumerate_pst_sets,
    integral_spectrum,
    is_power_closed,
    list_power_classes,
    partition_by_two_part,
    scalar_multiple_set,
    two_part,
)
from cayleypst import cli, groups, jsonio, pst, spectra, walk
from cayleypst.groups import MAX_ORDER, _primitive_root, _tables, _unit_generators
from conftest import (
    brute_cyclic_subgroup,
    brute_element_order,
    brute_power_classes,
    brute_transfer_sets,
    elem,
    frozenset_connection_set,
    group,
)


def factor_lists(max_order, cyclic_sylow2=False):
    """Hypothesis strategy: up to three cyclic factors with product <= max_order."""
    lists = st.lists(st.integers(2, max_order), min_size=1, max_size=3).filter(
        lambda fs: math.prod(fs) <= max_order
    )
    if cyclic_sylow2:
        lists = lists.filter(lambda fs: sum(n % 2 == 0 for n in fs) <= 1)
    return lists.map(lambda fs: AbelianGroup(tuple(fs)))


@st.composite
def group_and_subset(draw, max_order=64):
    """A group and an arbitrary subset of it (any size, not necessarily inverse-closed)."""
    g = draw(factor_lists(max_order))
    picked = draw(st.sets(st.integers(0, g.order - 1), max_size=g.order))
    return g, frozenset(g.element_at(i) for i in picked)


def coords_of(sets):
    return [[x.coords for x in c] for c in sets]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(factor_lists(128, cyclic_sylow2=True))
def test_enumerate_matches_element_oracle(g):
    assume(len(brute_power_classes(g)) <= 9)
    found = enumerate_pst_sets(g, cross_validate=False)
    assert coords_of(found) == coords_of(brute_transfer_sets(g))


def test_enumerate_matches_element_oracle_on_census_groups():
    for spec in ("Z4xZ3", "Z8xZ3", "Z16", "Z4xZ5", "Z2xZ9", "Z12xZ3"):
        g = group(spec)
        found = enumerate_pst_sets(g, cross_validate=True)
        assert coords_of(found) == coords_of(brute_transfer_sets(g)), spec


@settings(max_examples=60, deadline=None)
@given(group_and_subset())
def test_is_power_closed_matches_definition(case):
    g, subset = case
    expected = all(
        {y for y in g.elements() if brute_cyclic_subgroup(g, y) == brute_cyclic_subgroup(g, x)}
        <= subset
        for x in subset
    )
    assert is_power_closed(subset) is expected


@settings(max_examples=60, deadline=None)
@given(group_and_subset())
def test_partition_by_two_part_matches_definition(case):
    g, subset = case
    expected = {}
    for x in subset:
        expected.setdefault(two_part(brute_element_order(g, x))[0], set()).add(x)
    buckets = partition_by_two_part(subset)
    assert list(buckets) == sorted(expected)
    assert buckets == {k: frozenset(v) for k, v in expected.items()}
    assert all(type(v) is frozenset for v in buckets.values())


@settings(max_examples=60, deadline=None)
@given(group_and_subset(), st.one_of(st.integers(1, 40), st.integers(10**20, 10**30)))
def test_scalar_multiple_set_matches_definition(case, k):
    g, subset = case
    expected = set()
    for x in subset:
        acc = g.identity
        for _ in range(k % math.lcm(*g.factors)):
            acc = acc + x
        expected.add(acc)
    assert scalar_multiple_set(k, subset) == expected


coordinate_values = st.one_of(
    st.integers(-100, 100),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(10**20, 10**30).map(lambda v: v * (-1) ** (v % 2)),
    st.booleans(),
)


@st.composite
def group_and_rows(draw):
    """A group and coordinate rows: often inverse-closed, sometimes with the identity or a bad row."""
    g = draw(factor_lists(64))
    rows = draw(st.lists(st.lists(coordinate_values, min_size=g.rank, max_size=g.rank), max_size=8))
    if draw(st.booleans()):
        rows += [[-c for c in row] for row in rows]
    if draw(st.booleans()):
        rows.append([0] * g.rank)
    if draw(st.integers(0, 9)) == 0:
        rows.append(draw(st.lists(coordinate_values, max_size=4)))
    return g, draw(st.permutations(rows))


def built_or_refused(build):
    try:
        return build()
    except ValueError:
        return ValueError


@settings(max_examples=200, deadline=None)
@given(group_and_rows())
def test_from_coordinates_matches_from_elements(case):
    g, rows = case
    expected = built_or_refused(lambda: ConnectionSet.from_elements(g, [g.element(r) for r in rows]))
    found = built_or_refused(lambda: ConnectionSet.from_coordinates(g, rows))
    assert found == expected
    if found is not ValueError:
        assert found.loops_allowed == expected.loops_allowed
        small = [[int(c) % n for c, n in zip(row, g.factors)] for row in rows]
        assert ConnectionSet.from_coordinates(g, np.array(small, dtype=np.intp).reshape(-1, g.rank)) == found


@pytest.mark.parametrize(
    "rows", [[[1.0], [3]], [["1"], ["3"]], [[None], [3]], [[1, 0], [3]], [1, 3], [[[1]], [[3]]], [[]]]
)
def test_from_coordinates_refuses_what_is_not_integer_rows(rows):
    with pytest.raises(ValueError, match=r"expected rows of 1 integer coordinates for Z4"):
        ConnectionSet.from_coordinates(group("Z4"), rows)


def test_from_coordinates_refuses_a_short_row_beyond_int64():
    # reduced as Python numbers, one coordinate would broadcast across both factors
    with pytest.raises(ValueError, match=r"expected rows of 2 integer coordinates for Z2xZ2"):
        ConnectionSet.from_coordinates(group("Z2xZ2"), [[10**20]])


@settings(max_examples=40, deadline=None)
@given(group_and_subset(max_order=48))
def test_connection_set_routes_agree_on_inverse_closures(case):
    """The index-backed ConnectionSet answers like the raw frozenset it was built from."""
    g, subset = case
    closed = frozenset(subset | {-x for x in subset}) - {g.identity}
    c = ConnectionSet(g, closed)
    assert c.elements == closed
    assert [x.coords for x in c] == sorted(x.coords for x in closed)
    assert c.indices.tolist() == sorted(g.index_of(x) for x in closed)
    assert is_power_closed(c) == is_power_closed(closed)
    assert partition_by_two_part(c) == partition_by_two_part(closed)
    assert scalar_multiple_set(3, c) == scalar_multiple_set(3, closed)


@settings(max_examples=40, deadline=None)
@given(factor_lists(96))
def test_power_classes_match_generated_subgroups(g):
    classes = list_power_classes(g)
    assert {cls for cls in classes if g.identity not in cls} == set(brute_power_classes(g))
    keys = [(brute_element_order(g, next(iter(cls))), min(x.coords for x in cls)) for cls in classes]
    assert keys == sorted(keys)


def test_unit_generators_generate_every_unit():
    for n in range(2, 400):
        reached = {1 % n}
        for unit, unit_order in _unit_generators(n):
            assert pow(unit, unit_order, n) == 1 % n
            assert all(pow(unit, unit_order // q, n) != 1 for q in groups._prime_factors(unit_order))
            powers = {pow(unit, j, n) for j in range(unit_order)}
            reached = {(r * p) % n for r in reached for p in powers}
        assert reached == {t % n for t in range(1, n + 1) if math.gcd(t, n) == 1}, n


def test_primitive_root_lifts_when_it_fails_modulo_p_squared():
    # 5 is the least primitive root modulo 40487, but 5**40486 = 1 modulo 40487**2
    p = 40487
    assert pow(5, p - 1, p * p) == 1
    root = _primitive_root(p, 2)
    phi = p * (p - 1)
    assert all(pow(root, phi // q, p * p) != 1 for q in groups._prime_factors(phi))


@pytest.mark.parametrize("spec", ["Z8xZ3xZ5", "Z2xZ12xZ9", "Z7", "Z16xZ2"])
def test_index_helpers_match_elementwise_arithmetic(spec):
    g = group(spec)
    everything = np.arange(g.order)
    odd = groups._odd_component_multiplier(g)
    tables = [
        groups._coordinate_rows(g, everything).tolist(),
        *(groups._multiples(g, k, everything).tolist() for k in (-1, 2, 4, odd)),
        groups._orders(g, everything).tolist(),
        groups._valuations(g, everything).tolist(),
    ]
    for x, coords, neg, times2, times4, odd_part, order, valuation in zip(g.elements(), *tables):
        i = g.index_of(x)
        assert g.element_at(i) == x and tuple(coords) == x.coords
        assert (neg, times2, times4) == (g.index_of(-x), g.index_of(2 * x), g.index_of(4 * x))
        assert order == brute_element_order(g, x)
        assert valuation == two_part(brute_element_order(g, x))[0]
        assert brute_element_order(g, g.element_at(odd_part)) % 2 == 1
        assert two_part(brute_element_order(g, x - g.element_at(odd_part)))[1] == 1
    for k in (-1, 2, 3, 4, odd, 5 * g.order + 7):
        # the table of every multiple, built without coordinates, against the helper
        assert groups._multiple_table(g, k).tolist() == groups._multiples(g, k, everything).tolist()
    picked = np.array([0, g.order - 1, 1])
    assert groups._orders(g, picked).tolist() == [tables[5][i] for i in picked]
    assert not _tables(g).class_id.flags.writeable


def test_connection_set_is_read_only_and_hashable():
    z12 = group("Z12")
    c = ConnectionSet(z12, frozenset({elem(z12, 2), elem(z12, 10)}))
    with pytest.raises(ValueError):
        c.indices[0] = 3
    with pytest.raises(AttributeError):
        c.loops_allowed = True
    same = ConnectionSet.from_elements(z12, [elem(z12, 10), elem(z12, 2)])
    assert c == same and hash(c) == hash(same)
    looped = ConnectionSet.from_elements(z12, [z12.identity, elem(z12, 2), elem(z12, 10)])
    assert c != looped
    assert c != ConnectionSet(group("Z4xZ3"), frozenset())
    assert pickle.loads(pickle.dumps(looped)) == looped
    assert copy.deepcopy(looped) == looped and copy.copy(c) == c


def test_validation_messages_are_kept():
    z12 = group("Z12")
    with pytest.raises(ValueError) as identity:
        ConnectionSet(z12, frozenset({z12.identity, elem(z12, 3), elem(z12, 9)}))
    assert str(identity.value) == (
        "identity may not appear in a connection set; "
        "use ConnectionSet.from_elements to strip loops"
    )
    with pytest.raises(ValueError) as missing:
        ConnectionSet(z12, frozenset({elem(z12, 5), elem(z12, 7), elem(z12, 3), elem(z12, 2)}))
    # 2 and 3 both lack inverses; the first in canonical order is named
    assert str(missing.value) == "set is not inverse-closed: missing inverse of (2)@Z12"
    g = group("Z4xZ3")
    with pytest.raises(ValueError, match=r"missing inverse of \(1,2\)@Z4xZ3$"):
        ConnectionSet(g, frozenset({elem(g, 1, 2), elem(g, 3, 0), elem(g, 1, 0)}))
    with pytest.raises(GroupMismatchError, match=r"element \(1\)@Z4 is not bound to Z12"):
        ConnectionSet(z12, frozenset({elem(group("Z4"), 1)}))


def test_binding_check_is_shared():
    c = ConnectionSet(group("Z4"), frozenset({elem(group("Z4"), 1), elem(group("Z4"), 3)}))
    message = "connection set is bound to Z4, not Z8"
    with pytest.raises(GroupMismatchError, match=message):
        characterize_pst(group("Z8"), c)
    with pytest.raises(GroupMismatchError, match=message):
        integral_spectrum(group("Z8"), c)


def test_index_tables_refuse_groups_above_the_cap():
    huge = AbelianGroup((MAX_ORDER + 1,))
    with pytest.raises(ValueError, match=str(MAX_ORDER)):
        _tables(huge)
    with pytest.raises(ValueError, match=str(MAX_ORDER)):
        ConnectionSet(huge, frozenset({huge.element([1]), huge.element([-1])}))


def test_tables_are_built_only_when_read():
    _tables.cache_clear()
    g = group("Z2xZ3xZ7xZ5")
    c = ConnectionSet(g, frozenset({elem(g, 1, 0, 0, 0)}))
    # validation negates the set's own members and reads no table
    assert "class_id" not in vars(_tables(g))
    integral_spectrum(g, ConnectionSet(g, frozenset()))
    assert "class_id" not in vars(_tables(g))
    assert is_power_closed(c)
    assert "class_id" in vars(_tables(g)) and "class_members" not in vars(_tables(g))


def element_arrays(tables):
    """Names of the arrays kept on a group's tables with one entry per element."""
    return sorted(
        name
        for name, value in vars(tables).items()
        if isinstance(value, np.ndarray) and len(value) >= tables.group.order
    )


@pytest.mark.parametrize(
    "spec, text, power_closed",
    [
        ("Z2xZ3xZ7xZ5", "{(1,0,0,0),(0,1,0,0),(0,2,0,0)}", True),
        # {1, 6} of Z7 is not a power class, so the set is checked member by member
        ("Z2xZ3xZ7xZ5", "{(1,0,0,0),(0,0,1,0),(0,0,6,0)}", False),
        ("Z4xZ3xZ7", "{(2,0,0),(0,1,0),(0,2,0)}", True),
        ("Z4xZ3xZ7", "{(2,0,0),(0,0,1),(0,0,6)}", False),
    ],
)
def test_a_check_keeps_no_element_table_but_the_class_ids(spec, text, power_closed, capsys):
    _tables.cache_clear()
    g = group(spec)
    assert cli.main(["check", "-g", spec, "-c", text, "--cross-validate"]) == 0
    assert json.loads(capsys.readouterr().out)["cross_validation"]["agrees"] is True
    assert is_power_closed(groups.parse_connection_set(g, text)) is power_closed
    assert element_arrays(_tables(g)) == ["class_id"]


# The class-route build's peak, in |G|-length int64 arrays above its start:
# the labels and one multiplication map in the label pass, then the labels
# and the class ids.  The bound leaves half an array for temporaries.
CLASS_BUILD_ARRAYS = 2.5


def test_the_class_route_build_peaks_at_two_element_arrays():
    _tables.cache_clear()
    g = group("Z65536")
    c = ConnectionSet.from_coordinates(g, [[16384], [49152]])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert characterize_pst(g, c).verdict.value == "PST"
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= CLASS_BUILD_ARRAYS * 8 * g.order, peak / (8 * g.order)
    assert element_arrays(_tables(g)) == ["class_id"]


def test_sets_from_class_indices_build_no_elements_until_read():
    g = group("Z8xZ3")
    found = enumerate_pst_sets(g)
    assert len(found) == 16
    assert all(c._elements is None for c in found)
    assert characterize_pst(g, found[0]).verdict.value == "PST"
    assert found[0]._elements is None
    assert len(found[0].elements) == len(found[0])


CACHED = {
    groups: ("_tables", "parse_group"),
}


def test_every_cache_is_bounded():
    for module in (groups, spectra, walk, pst, cli, jsonio):
        caches = {name for name, fn in vars(module).items() if hasattr(fn, "cache_info")}
        assert caches >= set(CACHED.get(module, ())), module.__name__
        for name in caches:
            maxsize = getattr(module, name).cache_info().maxsize
            assert maxsize is not None and maxsize >= 512, f"{module.__name__}.{name}"


@st.composite
def raw_connection_inputs(draw):
    """A group and a list of elements: duplicates, the identity and one foreign element allowed."""
    g = draw(factor_lists(48))
    picked = draw(st.lists(st.integers(0, g.order - 1), max_size=2 * g.order))
    elements = [g.element_at(i) for i in picked]
    if draw(st.booleans()):
        # close under inverses most of the time, so validation passes as well as fails
        elements += [-x for x in elements]
    foreign = draw(st.sampled_from([None, "element", "identity"]))
    if foreign is not None:
        other = AbelianGroup((*g.factors, 2)) if draw(st.booleans()) else AbelianGroup((g.order + 1,))
        stranger = other.identity if foreign == "identity" else other.element_at(other.order - 1)
        elements.insert(draw(st.integers(0, len(elements))), stranger)
    return g, elements


def outcome(build):
    try:
        return build()
    except (ValueError, GroupMismatchError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(raw_connection_inputs(), st.booleans())
def test_sets_from_coordinates_match_the_frozenset_route(case, strip_identity):
    g, elements = case
    build = ConnectionSet.from_elements if strip_identity else ConnectionSet
    built = outcome(lambda: build(g, iter(elements)))
    expected = outcome(lambda: frozenset_connection_set(g, elements, strip_identity))
    if isinstance(built, ConnectionSet):
        assert (built.indices.tolist(), built.elements, built.loops_allowed) == expected
    else:
        assert built == expected


def test_sets_from_elements_build_no_elements_until_read():
    g = group("Z4xZ3")
    c = ConnectionSet.from_elements(g, [g.identity, elem(g, 1, 1), elem(g, 3, 2), elem(g, 1, 1)])
    assert c._elements is None
    assert c.indices.tolist() == [4, 11] and c.loops_allowed is True
    assert c.elements == {elem(g, 1, 1), elem(g, 3, 2)}
    with pytest.raises(GroupMismatchError, match=r"element \(0\)@Z5 is not bound to Z4xZ3"):
        ConnectionSet.from_elements(g, [group("Z5").identity])
