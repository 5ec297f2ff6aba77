"""Index-backed connection sets and per-group index tables against element-wise definitions."""

import copy
import itertools
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
    CapExceededError,
    ConnectionSet,
    GroupMismatchError,
    characterize_pst,
    enumerate_pst_sets,
    integral_spectrum,
    is_power_closed,
    list_power_classes,
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
    two_part,
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
    found = enumerate_pst_sets(g)
    assert coords_of(found) == coords_of(brute_transfer_sets(g))


def test_enumerate_matches_element_oracle_on_census_groups():
    for spec in ("Z4xZ3", "Z8xZ3", "Z16", "Z4xZ5", "Z2xZ9", "Z12xZ3"):
        g = group(spec)
        found = enumerate_pst_sets(g)
        assert coords_of(found) == coords_of(brute_transfer_sets(g)), spec


def sorted_indices(g, subset):
    return np.array(sorted(map(g.index_of, subset)), dtype=np.intp)


@settings(max_examples=60, deadline=None)
@given(group_and_subset())
def test_is_power_closed_matches_definition(case):
    g, subset = case
    generated = {y: brute_cyclic_subgroup(g, y) for y in g.elements()}

    def power_closed(members):
        return all({y for y in generated if generated[y] == generated[x]} <= members for x in members)

    # any subset through the class mask that is_power_closed reads, and a set's inverse closure
    assert (groups._union_mask(g, sorted_indices(g, subset)) is not None) is power_closed(subset)
    closure = frozenset(subset | {-x for x in subset}) - {g.identity}
    assert is_power_closed(ConnectionSet(g, closure)) is power_closed(closure)


@settings(max_examples=60, deadline=None)
@given(group_and_subset())
def test_partition_by_two_part_matches_definition(case):
    g, subset = case
    indices = sorted_indices(g, subset)
    expected = [two_part(brute_element_order(g, g.element_at(i)))[0] for i in indices.tolist()]
    valuations = groups._valuations(g, indices)
    assert valuations.tolist() == expected and valuations.dtype == np.intp


@settings(max_examples=60, deadline=None)
@given(
    group_and_subset(),
    st.one_of(st.integers(1, 40), st.integers(10**20, 10**30), st.sampled_from([-1, 10**20])),
)
def test_scalar_multiple_set_matches_definition(case, k):
    g, subset = case
    indices = sorted_indices(g, subset)
    expected = []
    for x in map(g.element_at, indices.tolist()):
        acc = g.identity
        for _ in range(k % math.lcm(*g.factors)):
            acc = acc + x
        expected.append(g.index_of(acc))
    assert groups._multiples(g, k, indices).tolist() == expected


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


padding = st.sampled_from(["", " ", "  ", "\t", "\n "])


@st.composite
def padded_set_literals(draw):
    """An inverse-closed set of a group of order <= 64, its coordinate rows and a padded literal."""
    g = draw(factor_lists(64))
    picked = draw(st.sets(st.integers(1, g.order - 1), max_size=12))
    indices = picked | {g.index_of(-g.element_at(i)) for i in picked}
    rows = [
        [c + n * draw(st.integers(-1, 1)) for c, n in zip(g.element_at(i).coords, g.factors)]
        for i in draw(st.permutations(sorted(indices)))
    ]

    def entry(row):
        if g.rank == 1 and draw(st.booleans()):
            return str(row[0])
        joined = "".join(f"{draw(padding)},{draw(padding)}{c}" for c in row[1:])
        return f"({draw(padding)}{row[0]}{joined}{draw(padding)})"

    entries = "".join(f"{draw(padding)},{draw(padding)}{entry(row)}" for row in rows[1:])
    first = entry(rows[0]) if rows else ""
    literal = f"{draw(padding)}{{{draw(padding)}{first}{entries}{draw(padding)}}}{draw(padding)}"
    return g, rows, literal


@settings(max_examples=100, deadline=None)
@given(padded_set_literals())
def test_a_set_literal_takes_the_set_file_route(tmp_path_factory, case):
    g, rows, literal = case
    found = groups.parse_connection_set(g, literal)
    assert found == ConnectionSet.from_coordinates(g, rows)
    path = tmp_path_factory.mktemp("export") / "set.json"
    assert cli.main(["export", "-g", str(g), "-c", literal, "--format", "json", "--out", str(path)]) == 0
    assert cli._load_connection_set(g, f"@{path}") == found


def test_a_set_literal_builds_no_element_per_member(monkeypatch):
    g = group("Z4xZ3xZ3")

    def refuse(*args):
        raise AssertionError("a set literal built a GroupElement")

    monkeypatch.setattr(groups, "_element", refuse)
    c = groups.parse_connection_set(g, "{(2,0,0), (1,1,0), (3,2,0)}")
    assert c.indices.tolist() == [12, 18, 33] and not c.loops_allowed


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
    # power-closure, the valuations and the multiples at the set's indices, element by element
    classes = brute_power_classes(g)
    assert is_power_closed(c) == all(cls <= closed or cls.isdisjoint(closed) for cls in classes)
    valuations = [two_part(brute_element_order(g, x))[0] for x in c]
    assert groups._valuations(g, c.indices).tolist() == valuations
    assert groups._multiples(g, 3, c.indices).tolist() == [g.index_of(3 * x) for x in c]


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
    # pairs of indices, shaped like the ends of exported edges, against numpy's unravelling
    pairs = np.stack((everything, everything[::-1]), axis=-1)
    unravelled = np.stack(np.unravel_index(pairs, g.factors), axis=-1)
    assert np.array_equal(groups._coordinate_rows(g, pairs), unravelled)
    for k in (-1, 2, 3, 4, odd, 5 * g.order + 7):
        # the table of every multiple, built without coordinates, against the helper
        assert groups._multiple_table(g, k).tolist() == groups._multiples(g, k, everything).tolist()
    picked = np.array([0, g.order - 1, 1])
    assert groups._orders(g, picked).tolist() == [tables[5][i] for i in picked]
    assert not _tables(g).class_id.flags.writeable


def refuse(monkeypatch, name):
    """Make groups.<name> raise, so that a test shows a step never calls it."""

    def refused(*args):
        raise AssertionError(f"groups.{name} was called")

    monkeypatch.setattr(groups, name, refused)


def test_connection_set_is_read_only_and_hashable(monkeypatch):
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
    # pickle and copy rebuild from the indices, validated again: no element is made
    refuse(monkeypatch, "_element")
    for copied in (pickle.loads(pickle.dumps(looped)), copy.deepcopy(looped)):
        assert copied == looped and copied.loops_allowed
    assert copy.copy(c) == c


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
    # the one exception of every size cap, a ValueError, so the CLI exits 2
    huge = AbelianGroup((MAX_ORDER + 1,))
    message = f"Z{MAX_ORDER + 1} has {MAX_ORDER + 1} elements, above the cap of {MAX_ORDER} "
    with pytest.raises(CapExceededError, match=message):
        _tables(huge)
    with pytest.raises(CapExceededError, match=message):
        ConnectionSet(huge, frozenset({huge.element([1]), huge.element([-1])}))
    with pytest.raises(CapExceededError, match=message):
        ConnectionSet.from_coordinates(huge, [[1], [MAX_ORDER]])


def test_tables_are_built_only_when_read():
    _tables.cache_clear()
    g = group("Z2xZ3xZ7xZ5")
    c = ConnectionSet(g, frozenset({elem(g, 1, 0, 0, 0)}))
    # validation negates the set's own members and reads no table
    assert "class_id" not in vars(_tables(g))
    # the empty graph never moves: its walk row reads no table
    walk.transition_amplitude(g, ConnectionSet(g, frozenset()), g.identity, g.identity, 1.0)
    assert "class_id" not in vars(_tables(g))
    assert is_power_closed(c)
    assert "class_id" in vars(_tables(g)) and "class_members" not in vars(_tables(g))


def test_the_empty_set_scans_build_no_class_ids():
    _tables.cache_clear()
    g = group("Z1048576")
    empty = ConnectionSet(g, frozenset())
    # the empty graph never moves: both scans read the identity row, built without tables
    assert walk.detect_pst_numeric(g, empty, math.pi / 2) is None
    assert walk.is_periodic_numeric(g, empty, math.pi / 2)
    assert "class_id" not in vars(_tables(g))


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
# above 4096 elements the labels, one multiplication map and its gather, all
# int32 (1.5 arrays), and a block of 2^14 int64 products while a map is built
# (a quarter array on Z65536), 1.75 in all.  The bound leaves a quarter array.
CLASS_BUILD_ARRAYS = 2.0


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


def test_sets_from_class_indices_build_no_elements_until_read(monkeypatch):
    g = group("Z8xZ3")
    # the census makes the transfer pair and each detection's target, but no set's members
    refuse(monkeypatch, "_elements_at")
    found = enumerate_pst_sets(g)
    assert len(found) == 16
    assert characterize_pst(g, found[0]).verdict.value == "PST"
    monkeypatch.undo()
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


def test_sets_from_elements_build_no_elements_until_read(monkeypatch):
    g = group("Z4xZ3")
    raw = [g.identity, elem(g, 1, 1), elem(g, 3, 2), elem(g, 1, 1)]
    refuse(monkeypatch, "_element")
    c = ConnectionSet.from_elements(g, raw)
    assert c.indices.tolist() == [4, 11] and c.loops_allowed is True
    # membership is a search of the indices: it makes no element either
    assert raw[1] in c and raw[0] not in c
    monkeypatch.undo()
    assert c.elements == {elem(g, 1, 1), elem(g, 3, 2)}
    with pytest.raises(GroupMismatchError, match=r"element \(0\)@Z5 is not bound to Z4xZ3"):
        ConnectionSet.from_elements(g, [group("Z5").identity])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_membership_is_frozenset_membership(data):
    g = data.draw(factor_lists(48))
    picked = data.draw(st.sets(st.integers(1, g.order - 1), max_size=g.order))
    members = frozenset(g.element_at(i) for i in picked)
    c = ConnectionSet(g, members | {-x for x in members})
    # an equal group built again, a wider one, one of another order, and non-elements
    others = [g, AbelianGroup(g.factors), AbelianGroup((*g.factors, 2)), AbelianGroup((g.order + 1,))]
    probes = st.one_of(
        st.sampled_from(others).flatmap(lambda h: st.integers(0, h.order - 1).map(h.element_at)),
        st.tuples(*(st.integers(0, n - 1) for n in g.factors)),
        st.none() | st.integers() | st.text(max_size=3) | st.just(c),
    )
    for probe in data.draw(st.lists(probes, max_size=20)):
        assert (probe in c) is (probe in c.elements)
        assert probe not in ConnectionSet(g, frozenset())


def test_membership_and_spectrum_equality_keep_no_element_array():
    g = group("Z1048576")
    # the 524,288 odd elements: the generators of the group, one power class
    c = ConnectionSet.from_coordinates(g, np.arange(1, g.order, 2)[:, None])
    first, second = integral_spectrum(g, c), integral_spectrum(g, copy.copy(c))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert g.element_at(12345) in c and g.element_at(2) not in c
        member_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        assert first == second
        equal_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # a uint8 array over the group would be 1 MB, and the members as elements 132 MB
    assert member_peak < 1 << 20 and equal_peak < 1 << 20, (member_peak, equal_peak)


def all_factor_lists(limit, prefix=()):
    """Every list of cyclic factors, each >= 2 and in any order, whose product is at most limit."""
    for n in range(2, limit // math.prod(prefix) + 1):
        yield prefix + (n,)
        yield from all_factor_lists(limit, prefix + (n,))


def check_transfer_elements(g):
    """The involution and the order-four pair, and their indices, against the elements' orders.

    Every element of order 2 or 4 is killed by 4, and those of Z_n are the
    multiples of n / gcd(n, 4), so they are listed in canonical order here.
    """
    killed_by_4 = itertools.product(*(range(0, n, n // math.gcd(n, 4)) for n in g.factors))
    by_order = {2: [], 4: []}
    for x in map(g.element, killed_by_4):
        by_order.get(x.order, []).append(x)
    involutions, order_four = by_order[2], by_order[4]
    empty = ConnectionSet._from_indices(g, np.empty(0, dtype=np.intp))
    if len(order_four) != 2:
        # the subgroup of order 4m exists exactly when the order-four pair does
        with pytest.raises(ValueError, match="has no subgroup of order 4m"):
            pst.reduce_to_4m(g, empty)
    if len(involutions) != 1:
        with pytest.raises(ValueError):
            groups.unique_involution(g)
        assert g._transfer_indices is None and g._even_axis is None
        return
    # the involution's one nonzero coordinate is n/2 on the even factor Z_n
    (j,) = [i for i, coordinate in enumerate(involutions[0].coords) if coordinate]
    n = 2 * involutions[0].coords[j]
    assert g._even_axis == (j, n, math.prod(g.factors[j + 1 :])) and g.factors[j] == n
    indices = g._transfer_indices
    assert groups.unique_involution(g) == involutions[0]
    assert indices[0] == g.index_of(involutions[0])
    if len(order_four) != 2:
        return
    assert [g.element_at(i) for i in indices[1:]] == order_four
    assert list(indices[1:]) == [g.index_of(x) for x in order_four]
    # the subgroup of order 4m divides the even factor by 2**(d-2) and keeps the others
    factors = list(g.factors)
    factors[j] >>= g.d - 2
    assert pst.reduce_to_4m(g, empty)[0].factors == tuple(factors)


def test_transfer_indices_are_the_transfer_elements():
    small = [f for f in all_factor_lists(128) if sum(n % 2 == 0 for n in f) <= 1]
    assert len(small) == 601
    # the facts take no order cap: Z2^40 is far above it
    for factors in [*small, (4194304,), (2, 2097152), (1 << 40,), (1 << 40, 3)]:
        check_transfer_elements(AbelianGroup(factors))


def python_coordinates(factors, index):
    """Test-only oracle: the coordinates of a canonical index, by divmod in Python ints."""
    coords = []
    for n in reversed(factors):
        index, c = divmod(index, n)
        coords.append(c)
    return coords[::-1]


def python_index(factors, coords):
    """Test-only oracle: the canonical index of coordinates, in Python ints."""
    index = 0
    for n, c in zip(factors, coords):
        index = index * n + c
    return index


def test_the_index_maps_answer_past_the_cap():
    # the maps at given indices read the group's facts, and only the index tables take the cap;
    # on Z3^30 and Z847288609443 (3^25) a coordinate times a scalar passes int64, and on
    # Z2^40 the wrap of int64 would cancel, since 2^40 divides 2^64
    for factors in [(1 << 40,), (3**30,), (1 << 20, 3**25)]:
        g = AbelianGroup(factors)
        picked = [1, 6, 3 << 20, 5 << 37, g.order - 1, g.order // 2, g.order // 3]
        indices, coords = np.array(picked), [python_coordinates(factors, i) for i in picked]
        assert groups._coordinate_rows(g, indices).tolist() == coords
        assert [list(g.element_at(i).coords) for i in picked] == coords
        for k in (-1, 2, 3, 4, 5, 10**20):
            multiples = [[k * c % n for c, n in zip(row, factors)] for row in coords]
            expected = [python_index(factors, row) for row in multiples]
            assert groups._multiples(g, k, indices).tolist() == expected
        # the orders and their valuations, from each element's coordinates in Python ints
        orders = [math.lcm(*(n // math.gcd(n, c) for c, n in zip(row, factors))) for row in coords]
        valuations = [two_part(order)[0] for order in orders]
        assert groups._orders(g, indices).tolist() == orders
        assert groups._valuations(g, indices).tolist() == valuations
        assert factors != (1 << 40,) or valuations[:5] == [40, 39, 20, 3, 40]
        with pytest.raises(CapExceededError, match=f"above the cap of {MAX_ORDER}"):
            _tables(g)
    # place values past int64: the group builds, and element_at and index_of are inverse
    g = AbelianGroup((1 << 30,) * 4)
    for i in [0, 5, (1 << 63) - 1, 1 << 63, (1 << 64) + 5, (1 << 90) + 7, g.order - 1]:
        x = g.element_at(i)
        assert x.coords == tuple(python_coordinates(g.factors, i)) and g.index_of(x) == i


def test_the_index_of_a_coordinate_row_round_trips():
    # groups._row_index inverts groups._coordinate_rows on every factor list of order <= 64,
    # on a list of rows and on pairs of them, shaped like the ends of exported edges
    for factors in all_factor_lists(64):
        g = AbelianGroup(factors)
        everything = np.arange(g.order)
        rows = groups._coordinate_rows(g, everything)
        assert groups._row_index(g, rows).tolist() == everything.tolist()
        pairs = np.stack((everything, everything[::-1]), axis=-1)
        assert np.array_equal(groups._row_index(g, groups._coordinate_rows(g, pairs)), pairs)
        assert all(g.index_of(x) == i for i, x in enumerate(g.elements()))
    # past int64: (Z2^30)^4 has indices above 2^64, and the rows hold Python ints
    for factors in [(3**30,), (3,) * 30, (1 << 20, 3**25), (2,) * 20 + (3,) * 25, (1 << 30,) * 4]:
        g = AbelianGroup(factors)
        picked = [0, 1, 5, g.order // 3, g.order // 2, g.order - 1]
        if g.order > 1 << 64:
            picked += [1 << 63, (1 << 64) + 5, (1 << 90) + 7]
        rows = groups._coordinate_rows(g, np.array(picked, dtype=g._radix[1].dtype))
        assert rows.tolist() == [python_coordinates(factors, i) for i in picked]
        assert groups._row_index(g, rows).tolist() == picked
        assert [g.index_of(g.element_at(i)) for i in picked] == picked


def test_element_arithmetic_is_the_index_maps():
    # +, -, unary - and *k reduce through groups._reduced; each against the index maps, with
    # every element paired once with a random partner, on every factor list of order <= 64
    rng = np.random.default_rng(64)
    for factors in all_factor_lists(64):
        g = AbelianGroup(factors)
        everything = np.arange(g.order)
        rows, elements = groups._coordinate_rows(g, everything), list(g.elements())
        for i, j in zip(everything.tolist(), rng.permutation(g.order).tolist()):
            x, y = elements[i], elements[j]
            for result, summed in ((x + y, rows[i] + rows[j]), (x - y, rows[i] - rows[j])):
                expected = groups._row_indices(g, np.mod(summed, factors)[None]).tolist()
                assert [g.index_of(result)] == expected
        negated = groups._multiples(g, -1, everything).tolist()
        assert [g.index_of(-x) for x in elements] == negated
        for k in (-1, 0, 2, 3, 5, g.order + 1, 10**20):
            multiples = groups._multiples(g, k, everything).tolist()
            assert [g.index_of(k * x) for x in elements] == multiples
            assert [g.index_of(x * k) for x in elements] == multiples


def test_elements_at_are_the_rows_of_numpy_unravelling():
    # numpy's unravel_index is the independent oracle of groups._coordinate_rows
    for factors in all_factor_lists(64):
        g = AbelianGroup(factors)
        everything = np.arange(g.order)
        unravelled = np.stack(np.unravel_index(everything, factors), axis=-1).tolist()
        coords = [x.coords for x in groups._elements_at(g, everything)]
        assert [list(c) for c in coords] == unravelled
        assert all(type(c) is int for row in coords for c in row)


def test_validation_and_the_member_maps_build_no_index_tables():
    _tables.cache_clear()
    g = group("Z4xZ3xZ7")
    c = ConnectionSet.from_coordinates(g, [[1, 0, 0], [3, 0, 0], [0, 1, 2], [0, 2, 5]])
    assert ConnectionSet(g, c.elements) == ConnectionSet.from_elements(g, c.elements) == c
    assert sorted(set(groups._valuations(g, c.indices).tolist())) == [0, 2]
    doubled = {elem(g, 2, 0, 0), elem(g, 0, 2, 4), elem(g, 0, 1, 3)}
    assert set(groups._multiples(g, 2, c.indices).tolist()) == set(map(g.index_of, doubled))
    assert _tables.cache_info().misses == 0


def test_a_group_pickles_as_its_factors():
    g = AbelianGroup((8, 3))
    # the facts' arrays are not pickled: a copy computes them again from the factors
    assert b"numpy" not in pickle.dumps(g)
    for copied in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert copied == g and copied._transfer_indices == g._transfer_indices == (12, 6, 18)
        assert copied._even_axis == g._even_axis == (0, 8, 3)
        for mine, theirs in zip(copied._radix, g._radix):
            assert np.array_equal(mine, theirs) and not mine.flags.writeable


@pytest.mark.parametrize("spec", ["Z255255", "Z4xZ3xZ5xZ7xZ11", "Z9xZ3xZ5xZ49"])
def test_class_ids_above_4096_elements_are_the_unit_orbits(spec):
    # above 4096 elements the maps are int32: on Z255255 some k * i is above 2^31, and its
    # factor is no power of 2, so a product that wrapped would show
    g = group(spec)
    tables, everything, exponent = _tables(g), np.arange(g.order), math.lcm(*g.factors)
    for unit, _ in _unit_generators(exponent):
        assert np.array_equal(tables.class_id[groups._multiples(g, unit, everything)], tables.class_id)
    # an orbit of an element of order m has phi(m) members, so no two orbits share an id
    divisors, _, phi = groups._divisor_functions(exponent)
    totient = dict(zip(divisors.tolist(), phi.tolist()))
    assert tables.class_size.tolist() == [totient[m] for m in tables.class_order.tolist()]
    assert (tables.class_reps[tables.class_id] <= everything).all()
    assert tables.class_id[tables.class_reps].tolist() == list(range(len(tables.class_reps)))
