"""Group arithmetic, structural elements, power classes, and parsing."""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleypst import (
    AbelianGroup,
    ConnectionSet,
    GroupElement,
    GroupMismatchError,
    check_4m_conditions,
    is_power_closed,
    list_power_classes,
    parse_connection_set,
    parse_element,
    parse_group,
    reduce_to_4m,
    sylow2_cyclic,
    unique_involution,
)
from cayleypst.groups import _multiples, _valuations
from conftest import (
    brute_cyclic_subgroup,
    brute_element_order,
    brute_subgroup_4m,
    class_of,
    class_unions,
    cset,
    elem,
    group,
    two_part,
)


def order_four_pair(g):
    """The order-four pair b, -b, read off the group's transfer indices."""
    return [g.element_at(i) for i in g._transfer_indices[1:]]


def two_part_buckets(c):
    """The members of a set by the 2-adic valuation of their order, through groups._valuations."""
    valuation = _valuations(c.group, c.indices)
    return {
        int(k): {c.group.element_at(i) for i in c.indices[valuation == k].tolist()}
        for k in np.unique(valuation)
    }


def multiple_set(k, elements):
    """The set {k*g} of elements of one group, through groups._multiples at their indices."""
    g = next(iter(elements)).group
    indices = np.array([g.index_of(x) for x in elements])
    return {g.element_at(i) for i in _multiples(g, k, indices).tolist()}


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
    # a generator is read once, so its bad factor is still named
    with pytest.raises(ValueError, match="must be an integer, got 4.5$"):
        AbelianGroup(n for n in (4, 4.5))
    # a factor list that is no sequence at all is refused with one error, not a chained TypeError
    for bad in (4, None, 4.5):
        with pytest.raises(ValueError) as err:
            AbelianGroup(bad)
        assert str(err.value) == f"a group needs a sequence of factors, got {bad!r}"
        assert err.value.__cause__ is None and err.value.__context__ is None


def test_two_part_examples():
    # a group keeps its order as 2**d * m with m odd
    assert (group("Z12").d, group("Z12").m) == (2, 3)
    assert (group("Z3").d, group("Z3").m) == (0, 3)
    assert (group("Z8").d, group("Z8").m) == (3, 1)
    assert (group("Z4xZ6").d, group("Z4xZ6").m) == (3, 3)


def test_two_part_reconstructs():
    for n in range(2, 301):
        g = AbelianGroup((n,))
        assert g.m % 2 == 1
        assert (1 << g.d) * g.m == n
        assert (g.d, g.m) == two_part(n)
    with pytest.raises(ValueError):
        AbelianGroup((0,))


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


def test_group_element_reads_each_coordinate_as_an_integer():
    g = group("Z4xZ3")
    for coords, position in [((1.5, 0), 0), ((1, np.float64(2.0)), 1), ((1, "2"), 1)]:
        message = f"coordinate {position} of an element of Z4xZ3 must be an integer, got "
        with pytest.raises(ValueError, match=message):
            GroupElement(g, coords)
    # a bool and a numpy int are integers, stored as plain ints
    for coords, expected in [((True, 0), (1, 0)), ((np.int64(3), np.int32(2)), (3, 2))]:
        x = GroupElement(g, coords)
        assert x.coords == expected and all(type(c) is int for c in x.coords)
        assert x == g.element(expected) and g.index_of(x) == 3 * expected[0] + expected[1]
    assert str(GroupElement(g, (True, 0))) == "(1,0)"
    with pytest.raises(ValueError, match="out of range for Z4"):
        GroupElement(g, (np.int64(4), 0))


def test_element_at_reads_the_index_as_an_integer():
    z8 = group("Z8")
    # nothing is truncated or parsed: a float, a string and a numpy float are refused
    for index in (2.7, "3", np.float64(2)):
        message = re.escape(f"an element index must be an integer, got {index!r}")
        with pytest.raises(ValueError, match=message):
            z8.element_at(index)
    # numpy integers, such as an entry of an index array, and bools are integers
    for index, expected in [(np.int64(3), (3,)), (np.uint8(2), (2,)), (True, (1,))]:
        x = z8.element_at(index)
        assert x.coords == expected and all(type(c) is int for c in x.coords)
    assert group("Z4xZ3").element_at(np.int32(11)).coords == (3, 2)
    with pytest.raises(IndexError):
        z8.element_at(np.int64(8))


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
        group("Z2").index_of(x)


def test_element_order_examples():
    g = group("Z4xZ3xZ3")
    assert g.identity.order == 1
    assert elem(g, 1, 0, 0).order == 4
    assert elem(g, 2, 1, 0).order == 6


@pytest.mark.parametrize("spec", ["Z12", "Z4xZ3", "Z2xZ9", "Z8"])
def test_element_order_matches_repeated_addition(spec):
    g = group(spec)
    for x in g.elements():
        assert x.order == brute_element_order(g, x)
        assert g.order % x.order == 0


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
    involutions = [x for x in g.elements() if x.order == 2]
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
    order_four = {x for x in g.elements() if brute_element_order(g, x) == 4}
    assert order_four == {b, b_inv}
    # structural relations: 2b = a and 2a = 0
    a = unique_involution(g)
    assert 2 * b == a
    assert 2 * a == g.identity


def test_order_four_pair_preconditions():
    # Z6 has no element of order four, and Z2xZ4 two pairs; the group keeps no pair for
    # either, and the order-4m decisions, which read b, refuse both
    for spec in ("Z6", "Z2xZ4"):
        g = group(spec)
        assert len([x for x in g.elements() if x.order == 4]) != 2
        assert g._transfer_indices is None or g.d < 2
        with pytest.raises(ValueError):
            check_4m_conditions(g, cset(g, []))


def test_power_class_examples():
    z8 = group("Z8")
    assert {x.coords[0] for x in class_of(z8, elem(z8, 1))} == {1, 3, 5, 7}
    g = group("Z4xZ3xZ3")
    assert class_of(g, g.identity) == frozenset({g.identity})
    z12 = group("Z12")
    assert {x.coords[0] for x in class_of(z12, elem(z12, 2))} == {2, 10}


@pytest.mark.parametrize("spec", ["Z12", "Z8", "Z9", "Z4xZ3"])
def test_power_class_matches_subgroup_equality(spec):
    g = group(spec)
    for x in g.elements():
        mine = class_of(g, x)
        sub = brute_cyclic_subgroup(g, x)
        brute = {y for y in g.elements() if brute_cyclic_subgroup(g, y) == sub}
        assert mine == brute
        # inverse-closed, uniform order, contains its element
        assert x in mine
        assert {-y for y in mine} == mine
        assert {y.order for y in mine} == {x.order}


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
    keys = [(next(iter(cls)).order, min(x.coords for x in cls)) for cls in classes]
    assert keys == sorted(keys)


def test_is_power_closed():
    z8 = group("Z8")
    assert is_power_closed(cset(z8, [(1,), (3,), (5,), (7,)]))
    assert is_power_closed(cset(z8, []))
    z12 = group("Z12")
    # {1, 11} is inverse-closed, but 5 and 7 generate the same subgroup as 1
    assert not is_power_closed(cset(z12, [(1,), (11,)]))
    assert is_power_closed(cset(z12, [(2,), (10,)]))


def test_partition_by_two_part(z433_sets):
    g, with_a, with_b = z433_sets
    assert {k: len(v) for k, v in two_part_buckets(with_a).items()} == {0: 4, 1: 5, 2: 8}
    assert {k: len(v) for k, v in two_part_buckets(with_b).items()} == {0: 4, 1: 4, 2: 10}
    assert unique_involution(g) in two_part_buckets(with_a)[1]
    b, b_inv = order_four_pair(g)
    assert {b, b_inv} <= two_part_buckets(with_b)[2]


def test_partition_by_two_part_odd_group_and_z8():
    z9 = group("Z3xZ3")
    c = cset(z9, [(1, 0), (2, 0), (0, 1), (0, 2)])
    assert list(two_part_buckets(c)) == [0]
    z8 = group("Z8")
    odd = cset(z8, [(1,), (3,), (5,), (7,)])
    assert list(two_part_buckets(odd)) == [3]


@pytest.mark.parametrize("spec", ["Z12", "Z8xZ3"])
def test_partition_by_two_part_covers_disjointly(spec):
    g = group(spec)
    for c in class_unions(g):
        buckets = two_part_buckets(c)
        seen = set()
        for k, part in buckets.items():
            assert part
            assert seen.isdisjoint(part)
            seen.update(part)
            assert {-x for x in part} == set(part)
            for x in part:
                assert two_part(brute_element_order(g, x))[0] == k
        assert seen == set(c.elements)


def test_scalar_multiple_set_examples():
    g = group("Z4xZ3xZ3")
    s = {elem(g, 1, 1, 0), elem(g, 3, 2, 0)}
    assert multiple_set(1, s) == s
    assert multiple_set(4, s) == {elem(g, 0, 1, 0), elem(g, 0, 2, 0)}
    z6 = group("Z6")
    assert multiple_set(2, {elem(z6, 3)}) == {z6.identity}
    # k is read modulo |G|, so 0 and -1 are multiples too
    assert multiple_set(0, s) == {g.identity}
    assert multiple_set(-1, s) == {-x for x in s}


@pytest.mark.parametrize("spec,k", [("Z9", 2), ("Z9", 4), ("Z3xZ3", 2), ("Z15", 4)])
def test_power_class_commutes_with_odd_scalars(spec, k):
    g = group(spec)
    for x in g.elements():
        assert class_of(g, k * x) == multiple_set(k, class_of(g, x))


def reduced_everything(g):
    """reduce_to_4m of the set of every non-identity element: the subgroup and its members."""
    everything = ConnectionSet(g, frozenset(g.elements()) - {g.identity})
    sub, reduced = reduce_to_4m(g, everything)
    return sub, set(reduced.elements) | {sub.identity}


def test_subgroup_4m_identity_case():
    g = group("Z4xZ3xZ3")
    sub, members = reduced_everything(g)
    assert sub == g
    assert members == set(g.elements())
    _, relabel = brute_subgroup_4m(g)
    x = elem(g, 3, 1, 2)
    assert relabel[x].coords == x.coords


def test_subgroup_4m_z8xz3():
    g = group("Z8xZ3")
    sub, members = reduced_everything(g)
    assert sub.factors == (4, 3)
    assert len(members) == 12
    _, relabel = brute_subgroup_4m(g)
    assert {x.coords[0] for x in relabel} == {0, 2, 4, 6}
    assert relabel[elem(g, 6, 2)].coords == (3, 2)
    assert elem(g, 1, 0) not in relabel


def test_subgroup_4m_z16():
    g = group("Z16")
    sub, members = reduced_everything(g)
    assert sub.factors == (4,)
    assert {x.coords[0] for x in members} == {0, 1, 2, 3}
    assert {x.coords[0] for x in brute_subgroup_4m(g)[1]} == {0, 4, 8, 12}


@pytest.mark.parametrize("spec", ["Z8xZ3", "Z16", "Z32", "Z16xZ3", "Z24", "Z3xZ16xZ5"])
def test_subgroup_4m_structure(spec):
    g = group(spec)
    sub, relabel = brute_subgroup_4m(g)
    assert len(relabel) == 4 * g.m
    assert sub.order == 4 * g.m
    assert sub.d == 2
    # reduce_to_4m keeps the members, those of order dividing 4m, and relabels them like the oracle
    assert reduced_everything(g) == (sub, set(relabel.values()))
    # the relabelling is one to one and a homomorphism
    assert len(set(relabel.values())) == len(relabel)
    members = sorted(relabel, key=lambda x: x.coords)
    for x in members[:12]:
        for y in members[:12]:
            assert relabel[x + y] == relabel[x] + relabel[y]


def test_subgroup_4m_preconditions():
    for spec in ("Z6", "Z2xZ4", "Z3"):
        g = group(spec)
        message = f"{g} has no subgroup of order 4m with m odd and d >= 2"
        with pytest.raises(ValueError, match=message):
            reduce_to_4m(g, cset(g, []))


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
    assert parse_element(z5, "+7").coords == (2,)
    # ASCII digits with an optional sign: no underscores, no other digits, no second sign
    for text in ("1_0", "(1_0)", "\u0662", "(\u0662)", "+-1", "--1", "1.0", "0x1"):
        with pytest.raises(ValueError, match="invalid integer literal"):
            parse_element(z5, text)


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


def test_whitespace_inside_a_token_is_refused_not_joined():
    # padding at the ends and around a separator is stripped; inside a token it never joins digits
    with pytest.raises(ValueError, match="bad factor 'Z1 6'"):
        parse_group("Z1 6")
    with pytest.raises(ValueError, match="bad element literal '1 0' for Z5"):
        parse_element(group("Z5"), "1 0")
    with pytest.raises(ValueError, match="bad element literal '1 7' for Z100"):
        parse_connection_set(group("Z100"), "{1 7,8 3}")
    for text in ("(- 1)", "(1, 0 0)"):
        with pytest.raises(ValueError, match="invalid integer literal"):
            parse_element(group("Z5xZ5"), text)


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
