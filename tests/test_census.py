"""The census against its closed form, and what the sets it returns keep."""

import tracemalloc

import numpy as np
import pytest

from cayleypst import AbelianGroup, CapExceededError, enumerate_pst_sets, groups, pst
from cayleypst.groups import _tables
from conftest import brute_cyclic_subgroup, group


def small_groups(max_order):
    """Every non-decreasing list of cyclic factors (each >= 2) with product <= max_order."""
    found = []

    def extend(prefix, product, smallest):
        for n in range(smallest, max_order // product + 1):
            found.append(AbelianGroup(prefix + (n,)))
            extend(prefix + (n,), product * n, n)

    extend((), 1, 2)
    return found


def test_each_class_rep_is_the_least_member_of_its_class():
    # the census sorts its sets by these keys: index order is coordinate order
    wide = [group("x".join(["Z2"] * 9)), group("Z4x" + "x".join(["Z3"] * 5))]
    for g in small_groups(128) + wide:
        tables = _tables(g)
        assert tables.class_reps.tolist() == [int(m[0]) for m in tables.class_members], g


def brute_odd_cyclic_subgroups(g):
    """The cyclic subgroups of the odd-order part of g, by generating each one."""
    odd = [x for x in g.elements() if x.order % 2]
    return len({brute_cyclic_subgroup(g, x) for x in odd})


def test_the_census_count_is_the_closed_form():
    # every group of order <= 128 with a cyclic Sylow-2-subgroup and at most 16 classes
    census = [
        g
        for g in small_groups(128)
        if groups.sylow2_cyclic(g) and len(_tables(g).class_size) <= 16
    ]
    assert len(census) == 279
    for g in census:
        assert len(enumerate_pst_sets(g)) == pst._census_count(g), g


@pytest.mark.parametrize(
    "spec", ["Z3", "Z9xZ3", "Z2", "Z2xZ15", "Z4", "Z12xZ3", "Z8xZ9", "Z32xZ3", "Z3xZ16xZ5"]
)
def test_the_closed_form_counts_the_cyclic_subgroups_of_the_odd_part(spec):
    g = group(spec)
    expected = 0 if g.d == 0 else 2 ** (brute_odd_cyclic_subgroups(g) * (g.d - 1))
    assert pst._census_count(g) == expected


def test_the_closed_form_needs_no_census():
    g = group("Z4xZ3xZ5xZ7")
    # the odd part is cyclic of order 105, with one cyclic subgroup per divisor
    assert pst._census_count(g) == 2 ** 8 == 256
    with pytest.raises(CapExceededError):
        enumerate_pst_sets(g)


def test_the_factors_count_the_power_classes():
    # with a cyclic Sylow-2-subgroup of order 2^d, N(d+1) classes, where N counts the odd part's
    wide = ["Z4x" + "x".join(["Z3"] * 5), "Z4194304", "Z2x" + "x".join(["Z3"] * 10)]
    listed = [g for g in small_groups(256) if groups.sylow2_cyclic(g)]
    assert len(listed) == 732
    for g in listed + [group(spec) for spec in wide + ["Z8xZ9xZ25xZ7", "Z64xZ9xZ7"]]:
        assert pst._odd_cyclic_subgroups(g) * (g.d + 1) == len(_tables(g).class_size), g


@pytest.mark.parametrize(
    "spec, count", [("Z4194304", 23), ("Z4x" + "x".join(["Z3"] * 10), 88575)]
)
def test_the_census_refuses_before_it_builds_a_table(spec, count):
    _tables.cache_clear()
    g = group(spec)
    message = (
        f"{spec} has {count} power classes, and 2^{count} is above the cap of "
        f"{groups.MAX_ORDER} (cayleypst.groups.MAX_ORDER)"
    )
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError) as err:
            enumerate_pst_sets(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 1 << 20
    assert "class_id" not in vars(_tables(g))


def test_a_group_above_the_order_cap_is_refused_before_its_classes_are_counted(monkeypatch):
    # counting the classes of Z4xZ(10^18 + 3) would trial-divide its prime factor
    def refused(group):
        raise AssertionError("the classes were counted")

    monkeypatch.setattr(pst, "_odd_cyclic_subgroups", refused)
    g = AbelianGroup((4, 10**18 + 3))
    with pytest.raises(CapExceededError) as err:
        enumerate_pst_sets(g)
    assert str(err.value) == (
        f"{g} has {g.order} elements, above the cap of {groups.MAX_ORDER} (cayleypst.groups.MAX_ORDER)"
    )


def test_a_count_off_the_closed_form_is_an_internal_error(monkeypatch):
    g = group("Z8xZ3")
    monkeypatch.setattr(pst, "_census_count", lambda group: 15)
    with pytest.raises(RuntimeError, match="internal error: the census of Z8xZ3 found 16 sets"):
        enumerate_pst_sets(g)


@pytest.mark.parametrize("spec", ["Z4xZ3xZ3", "Z8xZ9", "Z32xZ3"])
def test_kept_class_arrays_own_their_data(spec):
    g = group(spec)
    sets = enumerate_pst_sets(g)
    assert sets
    sums = _tables(g).class_sums
    for c in sets:
        for kept in (c._class_mask, c._sums):
            assert kept.base is None and not kept.flags.writeable
        assert np.array_equal(c._sums, sums @ c._class_mask)
