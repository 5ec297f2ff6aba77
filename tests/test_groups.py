"""Group arithmetic, structural elements, power classes, and parsing."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleypst import (
    AbelianGroup,
    ConnectionSet,
    GroupMismatchError,
    element_order,
    is_power_closed,
    list_power_classes,
    order_four_pair,
    parse_connection_set,
    parse_element,
    parse_group,
    partition_by_two_part,
    power_class,
    power_class_key,
    scalar_multiple_set,
    subgroup_4m,
    sylow2_cyclic,
    two_part,
    unique_involution,
)
from conftest import (
    brute_cyclic_subgroup,
    brute_element_order,
    class_unions,
    cset,
    elem,
    group,
)


def test_parse_group_examples():
    g = parse_group("Z4xZ3xZ3")
    assert g.factors == (4, 3, 3)
    assert (g.order, g.d, g.m) == (36, 2, 9)
    assert parse_group("Z2").factors == (2,)
    assert (parse_group("Z2").d, parse_group("Z2").m) == (1, 1)
    assert (parse_group("Z5").d, parse_group("Z5").m) == (0, 5)


def test_parse_group_tolerant_and_roundtrip():
    assert parse_group(" z4 X Z3x z3 ") == parse_group("Z4xZ3xZ3")
    g = parse_group("Z8xZ5")
    assert parse_group(str(g)) == g


@pytest.mark.parametrize("bad", ["", "Z1", "Z0", "Z4x", "4x3", "Z4yZ3", "xZ4", "Z-3"])
def test_parse_group_rejects(bad):
    with pytest.raises(ValueError):
        parse_group(bad)


def test_group_reads_each_factor_as_an_integer():
    # a float or a string is refused, not truncated or parsed
    for bad in (4.5, "4"):
        with pytest.raises(ValueError) as err:
            AbelianGroup((bad, 3))
        assert str(err.value) == f"a cyclic factor order must be an integer, got {bad!r}"
    g = AbelianGroup((np.int64(4), 3))
    assert g == group("Z4xZ3") and all(type(n) is int for n in g.factors)


def test_two_part_examples():
    assert two_part(12) == (2, 3)
    assert two_part(1) == (0, 1)
    assert two_part(8) == (3, 1)


def test_two_part_reconstructs():
    for n in range(1, 300):
        k, m = two_part(n)
        assert m % 2 == 1
        assert (1 << k) * m == n
    with pytest.raises(ValueError):
        two_part(0)


def test_element_construction_reduces_and_validates():
    g = group("Z4xZ3xZ3")
    assert g.element((5, -1, 3)).coords == (1, 2, 0)
    with pytest.raises(ValueError):
        g.element((1, 2))
    assert g.identity.coords == (0, 0, 0)


def test_element_reads_each_coordinate_as_an_integer():
    g = group("Z4xZ3xZ3")
    # integers of any kind reduce as before, to plain ints
    for coords in [(5, -1, 3), np.array([5, -1, 3]), (np.int64(5), np.int32(-1), True * 3)]:
        x = g.element(coords)
        assert x.coords == (1, 2, 0) and all(type(c) is int for c in x.coords)
    assert g.element((True, False, 0)).coords == (1, 0, 0)
    # nothing is truncated: floats, strings and numpy floats are refused, by position
    for coords, position in [
        ((1.7, 2, 0), 0),
        ((1, "3", 0), 1),
        ((1, 2, np.float64(1.0)), 2),
        (np.array([1.0, 2.0, 0.0]), 0),
        ((1, 2, None), 2),
    ]:
        message = f"coordinate {position} of an element of Z4xZ3xZ3 must be an integer, got "
        with pytest.raises(ValueError, match=message):
            g.element(coords)
    z4xz3 = group("Z4xZ3")
    for coords in ([1.7, 2.9], ["3", True]):
        with pytest.raises(ValueError):
            z4xz3.element(coords)


def test_element_arithmetic():
    g = group("Z4xZ3xZ3")
    x = elem(g, 3, 2, 1)
    y = elem(g, 2, 2, 2)
    assert (x + y).coords == (1, 1, 0)
    assert (x - y).coords == (1, 0, 2)
    assert (-x).coords == (1, 1, 2)
    assert (x + (-x)) == g.identity
    assert (x + g.identity) == x
    assert (5 * x).coords == (3, 1, 2)
    assert (0 * x) == g.identity


def test_cross_group_arithmetic_is_an_error():
    x = elem(group("Z4"), 1)
    y = elem(group("Z2"), 1)
    with pytest.raises(GroupMismatchError):
        x + y
    with pytest.raises(GroupMismatchError):
        element_order(group("Z2"), x)


def test_element_order_examples():
    g = group("Z4xZ3xZ3")
    assert element_order(g, g.identity) == 1
    assert element_order(g, elem(g, 1, 0, 0)) == 4
    assert element_order(g, elem(g, 2, 1, 0)) == 6


@pytest.mark.parametrize("spec", ["Z12", "Z4xZ3", "Z2xZ9", "Z8"])
def test_element_order_matches_repeated_addition(spec):
    g = group(spec)
    for x in g.elements():
        assert element_order(g, x) == brute_element_order(g, x)
        assert g.order % element_order(g, x) == 0


def test_sylow2_cyclic_examples():
    assert sylow2_cyclic(group("Z4xZ3xZ3"))
    assert not sylow2_cyclic(group("Z2xZ2"))
    assert sylow2_cyclic(group("Z8xZ3"))
    assert sylow2_cyclic(group("Z5"))


def test_unique_involution_examples():
    assert unique_involution(group("Z4xZ3xZ3")).coords == (2, 0, 0)
    assert unique_involution(group("Z2")).coords == (1,)
    assert unique_involution(group("Z6")).coords == (3,)


@pytest.mark.parametrize("spec", ["Z2", "Z6", "Z12", "Z8xZ3", "Z2xZ9"])
def test_unique_involution_is_the_only_order_two_element(spec):
    g = group(spec)
    involutions = [x for x in g.elements() if element_order(g, x) == 2]
    assert involutions == [unique_involution(g)]


def test_unique_involution_preconditions():
    with pytest.raises(ValueError):
        unique_involution(group("Z5"))
    with pytest.raises(ValueError):
        unique_involution(group("Z2xZ2"))


def test_order_four_pair_examples():
    g = group("Z4xZ3xZ3")
    assert [x.coords for x in order_four_pair(g)] == [(1, 0, 0), (3, 0, 0)]
    assert [x.coords for x in order_four_pair(group("Z4"))] == [(1,), (3,)]
    assert [x.coords for x in order_four_pair(group("Z8xZ5"))] == [(2, 0), (6, 0)]


@pytest.mark.parametrize("spec", ["Z4", "Z8", "Z12", "Z16xZ3", "Z4xZ9"])
def test_order_four_pair_is_the_only_order_four_pair(spec):
    g = group(spec)
    b, b_inv = order_four_pair(g)
    assert b_inv == -b
    order_four = {x for x in g.elements() if element_order(g, x) == 4}
    assert order_four == {b, b_inv}
    # structural relations: 2b = a and 2a = 0
    a = unique_involution(g)
    assert 2 * b == a
    assert 2 * a == g.identity


def test_order_four_pair_preconditions():
    with pytest.raises(ValueError):
        order_four_pair(group("Z6"))
    with pytest.raises(ValueError):
        order_four_pair(group("Z2xZ4"))


def test_power_class_examples():
    z8 = group("Z8")
    assert {x.coords[0] for x in power_class(z8, elem(z8, 1))} == {1, 3, 5, 7}
    g = group("Z4xZ3xZ3")
    assert power_class(g, g.identity) == frozenset({g.identity})
    z12 = group("Z12")
    assert {x.coords[0] for x in power_class(z12, elem(z12, 2))} == {2, 10}


@pytest.mark.parametrize("spec", ["Z12", "Z8", "Z9", "Z4xZ3"])
def test_power_class_matches_subgroup_equality(spec):
    g = group(spec)
    for x in g.elements():
        mine = power_class(g, x)
        sub = brute_cyclic_subgroup(g, x)
        brute = {y for y in g.elements() if brute_cyclic_subgroup(g, y) == sub}
        assert mine == brute
        # inverse-closed, uniform order, contains its element
        assert x in mine
        assert {-y for y in mine} == mine
        assert {element_order(g, y) for y in mine} == {element_order(g, x)}


def test_list_power_classes_z12_frozen():
    z12 = group("Z12")
    classes = [sorted(x.coords[0] for x in cls) for cls in list_power_classes(z12)]
    assert classes == [[0], [6], [4, 8], [3, 9], [2, 10], [1, 5, 7, 11]]


def test_list_power_classes_counts():
    assert len(list_power_classes(group("Z2"))) == 2
    # direct enumeration of cyclic subgroups: orders 1,2,4 give one class
    # each, orders 3,6,12 give four classes each
    assert len(list_power_classes(group("Z4xZ3xZ3"))) == 15


@pytest.mark.parametrize("spec", ["Z12", "Z4xZ3xZ3", "Z2xZ9", "Z16"])
def test_list_power_classes_partitions(spec):
    g = group(spec)
    classes = list_power_classes(g)
    union = set()
    total = 0
    for cls in classes:
        assert union.isdisjoint(cls)
        union.update(cls)
        total += len(cls)
    assert total == g.order
    assert union == set(g.elements())
    # sorted by (member order, key)
    keys = [(element_order(g, next(iter(cls))), power_class_key(cls)) for cls in classes]
    assert keys == sorted(keys)


def test_is_power_closed():
    z8 = group("Z8")
    assert is_power_closed(cset(z8, [(1,), (3,), (5,), (7,)]))
    assert is_power_closed(cset(z8, []))
    z12 = group("Z12")
    # raw sets need not be inverse-closed
    assert not is_power_closed({elem(z12, 2)})
    assert is_power_closed({elem(z12, 2), elem(z12, 10)})


def test_partition_by_two_part(z433_sets):
    g, with_a, with_b = z433_sets
    assert {k: len(v) for k, v in partition_by_two_part(with_a).items()} == {0: 4, 1: 5, 2: 8}
    assert {k: len(v) for k, v in partition_by_two_part(with_b).items()} == {0: 4, 1: 4, 2: 10}
    assert unique_involution(g) in partition_by_two_part(with_a)[1]
    b, b_inv = order_four_pair(g)
    assert {b, b_inv} <= partition_by_two_part(with_b)[2]


def test_partition_by_two_part_odd_group_and_z8():
    z9 = group("Z3xZ3")
    c = cset(z9, [(1, 0), (2, 0), (0, 1), (0, 2)])
    assert list(partition_by_two_part(c)) == [0]
    z8 = group("Z8")
    odd = cset(z8, [(1,), (3,), (5,), (7,)])
    assert list(partition_by_two_part(odd)) == [3]


@pytest.mark.parametrize("spec", ["Z12", "Z8xZ3"])
def test_partition_by_two_part_covers_disjointly(spec):
    g = group(spec)
    for c in class_unions(g):
        buckets = partition_by_two_part(c)
        seen = set()
        for k, part in buckets.items():
            assert part
            assert seen.isdisjoint(part)
            seen.update(part)
            assert {-x for x in part} == set(part)
            for x in part:
                assert two_part(element_order(g, x))[0] == k
        assert seen == set(c.elements)


def test_scalar_multiple_set_examples():
    g = group("Z4xZ3xZ3")
    s = {elem(g, 1, 1, 0), elem(g, 3, 2, 0)}
    assert scalar_multiple_set(1, s) == frozenset(s)
    assert scalar_multiple_set(4, s) == {elem(g, 0, 1, 0), elem(g, 0, 2, 0)}
    z6 = group("Z6")
    assert scalar_multiple_set(2, {elem(z6, 3)}) == {z6.identity}
    with pytest.raises(ValueError):
        scalar_multiple_set(0, s)


@pytest.mark.parametrize("spec,k", [("Z9", 2), ("Z9", 4), ("Z3xZ3", 2), ("Z15", 4)])
def test_power_class_commutes_with_odd_scalars(spec, k):
    g = group(spec)
    for x in g.elements():
        assert power_class(g, k * x) == scalar_multiple_set(k, power_class(g, x))


def test_subgroup_4m_identity_case():
    g = group("Z4xZ3xZ3")
    emb = subgroup_4m(g)
    assert emb.group == g
    assert emb.elements == set(g.elements())
    x = elem(g, 3, 1, 2)
    assert emb.to_subgroup(x).coords == x.coords


def test_subgroup_4m_z8xz3():
    g = group("Z8xZ3")
    emb = subgroup_4m(g)
    assert emb.group.factors == (4, 3)
    assert len(emb.elements) == 12
    assert {x.coords[0] for x in emb.elements} == {0, 2, 4, 6}
    assert emb.to_subgroup(elem(g, 6, 2)).coords == (3, 2)
    with pytest.raises(ValueError):
        emb.to_subgroup(elem(g, 1, 0))


def test_subgroup_4m_z16():
    g = group("Z16")
    emb = subgroup_4m(g)
    assert emb.group.factors == (4,)
    assert {x.coords[0] for x in emb.elements} == {0, 4, 8, 12}


@pytest.mark.parametrize("spec", ["Z8xZ3", "Z16", "Z32", "Z16xZ3", "Z24", "Z3xZ16xZ5"])
def test_subgroup_4m_structure(spec):
    g = group(spec)
    emb = subgroup_4m(g)
    assert len(emb.elements) == 4 * g.m
    assert emb.group.order == 4 * g.m
    assert emb.group.d == 2
    # membership rule: order divides 4m
    members = {x for x in g.elements() if (4 * g.m) % element_order(g, x) == 0}
    assert members == set(emb.elements)
    assert {x for x in g.elements() if x in emb} == members
    # relabeling round-trips and is a homomorphism
    sub_elems = sorted(emb.elements, key=lambda x: x.coords)
    for x in sub_elems[:12]:
        assert emb.from_subgroup(emb.to_subgroup(x)) == x
        for y in sub_elems[:12]:
            assert emb.to_subgroup(x + y) == emb.to_subgroup(x) + emb.to_subgroup(y)


def test_subgroup_4m_preconditions():
    with pytest.raises(ValueError):
        subgroup_4m(group("Z6"))
    with pytest.raises(ValueError):
        subgroup_4m(group("Z2xZ4"))


def test_connection_set_validation():
    z12 = group("Z12")
    with pytest.raises(ValueError):
        ConnectionSet(z12, frozenset({elem(z12, 2)}))
    with pytest.raises(ValueError):
        ConnectionSet(z12, frozenset({z12.identity, elem(z12, 2), elem(z12, 10)}))
    ok = ConnectionSet(z12, frozenset({elem(z12, 2), elem(z12, 10)}))
    assert not ok.loops_allowed
    assert len(ok) == 2


def test_connection_set_strips_identity_with_flag():
    z12 = group("Z12")
    stripped = ConnectionSet.from_elements(z12, [z12.identity, elem(z12, 3), elem(z12, 9)])
    assert stripped.loops_allowed
    assert z12.identity not in stripped
    plain = ConnectionSet.from_elements(z12, [elem(z12, 3), elem(z12, 9)])
    assert not plain.loops_allowed
    assert plain.elements == stripped.elements


def test_connection_set_iteration_is_canonical():
    g = group("Z4xZ3")
    c = cset(g, [(3, 2), (1, 1), (2, 0)])
    assert [x.coords for x in c] == [(1, 1), (2, 0), (3, 2)]


def test_parse_element():
    g = group("Z4xZ3xZ3")
    assert parse_element(g, " ( 2 , 0 , 0 ) ").coords == (2, 0, 0)
    z5 = group("Z5")
    assert parse_element(z5, "7").coords == (2,)
    assert parse_element(z5, "(-1)").coords == (4,)
    with pytest.raises(ValueError):
        parse_element(g, "2")
    with pytest.raises(ValueError):
        parse_element(g, "(1,2)")
    with pytest.raises(ValueError):
        parse_element(z5, "()")


def test_parse_connection_set():
    z4 = group("Z4")
    c = parse_connection_set(z4, "{1, 3}")
    assert {x.coords[0] for x in c.elements} == {1, 3}
    g = group("Z2xZ9")
    c2 = parse_connection_set(g, "{(1,0), (0,1), (0,8)}")
    assert len(c2) == 3
    assert len(parse_connection_set(z4, "{}")) == 0
    with pytest.raises(ValueError):
        parse_connection_set(z4, "1,3")
    with pytest.raises(ValueError):
        parse_connection_set(z4, "{1,}")
    with pytest.raises(ValueError):
        parse_connection_set(g, "{(1,0}")
    with pytest.raises(ValueError):
        parse_connection_set(z4, "{1}")  # not inverse-closed


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2, 40), min_size=1, max_size=3),
    st.lists(st.integers(2, 40), min_size=1, max_size=3),
)
def test_group_equality_and_hash_follow_factors_only(first, second):
    g, h = AbelianGroup(tuple(first)), AbelianGroup(list(second))
    assert (g == h) is (first == second)
    assert (g != h) is (first != second)
    twin = AbelianGroup(tuple(first))
    assert g == twin and hash(g) == hash(twin) == hash(tuple(first))
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert copied == g and hash(copied) == hash(g) and {copied: 1}[g] == 1
    assert g != tuple(first) and g != str(g)
    # elements of equal groups are equal; the groups need not be the same object
    assert g.element([1] * g.rank) == twin.element([1] * g.rank)
