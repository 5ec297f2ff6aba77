"""The class-space routes against their references.

The spectrum and the walk row against the dense character table and the FFT
kernel; the structural conditions against the member-level conditions; the
class scan against the row scan; the criterion against a character loop.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import cayleypst
from cayleypst import (
    AbelianGroup,
    CapExceededError,
    ConnectionSet,
    NonIntegralSpectrumError,
    Verdict,
    character_criterion,
    character_table,
    characterize_pst,
    dense_expm,
    detect_pst_numeric,
    enumerate_pst_sets,
    integral_spectrum,
    transition_amplitude,
    transition_matrix,
)
from cayleypst import cli, groups, is_periodic_numeric, list_power_classes, pst, spectra, walk
from cayleypst.groups import MAX_ORDER, _class_mask, _tables
from cayleypst.spectra import MAX_CLASSES, _character_transform, _indicator, _sums
from cayleypst.walk import _identity_row
from conftest import (
    brute_element_order,
    cset,
    group,
    loop_character_criterion,
    random_class_union,
    two_part,
)

# Groups whose Sylow-2-subgroup is not cyclic, and Z2^9, whose 512 power
# classes are above MAX_CLASSES.
NAMED = ["Z2xZ2xZ3", "Z6xZ6xZ5", "Z2xZ2xZ2xZ2", "x".join(["Z2"] * 9)]

groups_to_512 = st.one_of(
    st.sampled_from(NAMED).map(group),
    st.lists(st.integers(2, 64), min_size=1, max_size=4)
    .filter(lambda fs: math.prod(fs) <= 512)
    .map(lambda fs: AbelianGroup(tuple(fs))),
)


def class_indicators(g):
    """|G| x k 0/1 matrix: column K is the indicator of power class K."""
    tables = _tables(g)
    indicators = np.zeros((g.order, len(tables.class_size)))
    indicators[np.arange(g.order), tables.class_id] = 1.0
    return indicators


@settings(max_examples=30, deadline=None)
@given(groups_to_512)
@example(group("Z6xZ6xZ5"))
@example(group("Z2xZ2xZ3"))
def test_class_sums_are_the_table_summed_over_classes(g):
    tables = _tables(g)
    sums = tables.class_sums
    assert sums.dtype == np.min_scalar_type(-g.order - 1) and not sums.flags.writeable
    assert np.array_equal(sums, np.rint(sums)) and np.abs(sums).max() <= g.order
    # every character of a dual class has the same sum over each class
    dense = character_table(g) @ class_indicators(g)
    assert np.abs(dense - sums[tables.class_id]).max() < 1e-9


@pytest.mark.parametrize("spec, dtype", [("Z127", np.int8), ("Z128", np.int16)])
def test_class_sums_at_the_edges_of_their_type(spec, dtype):
    g = group(spec)
    sums = _tables(g).class_sums
    assert sums.dtype == dtype
    # no entry wrapped: the narrow matrix is the table summed over classes, rounded
    dense = character_table(g) @ class_indicators(g)
    assert np.array_equal(sums[_tables(g).class_id], np.rint(dense.real))


@pytest.mark.parametrize("rank, dtype", [(8, np.uint8), (9, np.uint16)])
def test_class_ids_at_the_edges_of_their_type(rank, dtype):
    # every element of Z2^rank is its own power class: 2^rank ids
    tables = _tables(group("x".join(["Z2"] * rank)))
    assert tables.class_id.dtype == dtype and not tables.class_id.flags.writeable
    assert sorted(tables.class_id.tolist()) == list(range(2**rank))
    assert tables.class_id[tables.class_reps].tolist() == list(range(2**rank))


@settings(max_examples=30, deadline=None)
@given(groups_to_512)
@example(group("x".join(["Z2"] * 9)))
def test_class_members_are_the_stable_argsort_of_the_ids(g):
    tables = _tables(g)
    order = np.argsort(tables.class_id.astype(np.intp), kind="stable")
    expected = np.split(order, np.cumsum(tables.class_size)[:-1])
    assert len(tables.class_members) == len(expected)
    for members, want in zip(tables.class_members, expected):
        assert members.tolist() == want.tolist()


def test_a_listing_of_the_classes_is_not_kept():
    # the cached tables keep class_id but not the listing, which is 2 MB of int64 here
    tables = _tables(group("Z262144"))
    tables.class_size
    tracemalloc.start()
    try:
        tables.class_members
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1 << 19


@settings(max_examples=30, deadline=None)
@given(groups_to_512, st.integers(0, 2**32 - 1))
@example(group("Z6xZ6xZ5"), 0)
@example(group("Z127"), 1)
@example(group("Z128"), 2)
def test_class_transform_gives_the_bytes_of_a_float64_class_sum_matrix(g, seed):
    tables = _tables(g)
    assume(len(tables.class_size) <= MAX_CLASSES)
    rng = np.random.default_rng(seed)
    k = len(tables.class_size)
    real = rng.standard_normal(k)
    for values in (real, real + 1j * rng.standard_normal(k)):
        for inverse in (False, True):
            expected = tables.class_sums.astype(np.float64).dot(values) / (g.order if inverse else 1)
            found = spectra._class_transform(g, values, inverse)
            assert found.dtype == expected.dtype and found.tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(groups_to_512, st.integers(0, 2**32 - 1))
@example(group("x".join(["Z2"] * 9)), 5)
def test_integral_spectrum_is_the_rounded_table_sum(g, seed):
    c = random_class_union(g, random.Random(seed))
    expected = np.rint((character_table(g) @ _indicator(g, c)).real).astype(np.int64)
    assert np.array_equal(integral_spectrum(g, c).values, expected)


@settings(max_examples=30, deadline=None)
@given(groups_to_512, st.integers(0, 2**32 - 1))
@example(group("Z6xZ6xZ5"), 1)
def test_class_route_row_matches_the_fft_row(g, seed):
    empty = ConnectionSet(g, frozenset())
    for c in (empty, random_class_union(g, random.Random(seed))):
        if len(c):
            # every power-closed set has class sums, the same by the product and by the FFT
            fresh = ConnectionSet._from_indices(g, c.indices.copy())
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spectra, "MAX_CLASSES", 0)
                by_fft = _sums(g, fresh)
            assert np.array_equal(_sums(g, c), by_fft)
        exact = integral_spectrum(g, c).values
        for t in (math.pi / 2, 1.0, 1e6):
            # the FFT kernel is fed the exact spectrum: at t = 1e6 a round-off of
            # 1e-15 in an eigenvalue would move its phase by 1e-9
            fft_row = _character_transform(g, np.exp(1j * t * exact), inverse=True)
            assert np.abs(_identity_row(g, c, t) - fft_row).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_fft_route_row_of_a_power_closed_set_uses_the_exact_spectrum(seed):
    # Z3^6 has 365 power classes, above MAX_CLASSES: its rows go through the FFT
    g = group("x".join(["Z3"] * 6))
    assert len(_tables(g).class_size) > MAX_CLASSES
    c = random_class_union(g, random.Random(seed))
    exact = integral_spectrum(g, c).values
    for t in (1e8, 1e10):
        # t multiplies any round-off in an eigenvalue, so only the exact integers hold at large t
        exact_row = _character_transform(g, np.exp(1j * t * exact), inverse=True)
        assert np.abs(_identity_row(g, c, t) - exact_row).max() < 1e-12


def test_production_never_reads_the_character_table(monkeypatch, capsys):
    def refuse(group):
        raise AssertionError(f"character table of {group} built outside the tests")

    def refuse_elements(group):
        raise AssertionError(f"an object for every element of {group} built outside the tests")

    g = group("Z4xZ3xZ3")
    rng = random.Random(3)
    sets = [random_class_union(g, rng) for _ in range(4)] + [ConnectionSet(g, frozenset())]
    monkeypatch.setattr(spectra, "character_table", refuse)
    monkeypatch.setattr(walk, "character_table", refuse)
    monkeypatch.setattr(groups, "_canonical_elements", refuse_elements)
    for c in sets:
        report = characterize_pst(g, c)
        assert character_criterion(g, c) == (report.verdict is Verdict.PST)
        detection = detect_pst_numeric(g, c, math.pi / 2)
        assert (detection is not None) == (report.verdict is Verdict.PST)
        gap = transition_matrix(g, c, 0.9).entries - dense_expm(g, c, 0.9).entries
        assert np.abs(gap).max() < 1e-9
    z5 = group("Z5")
    with pytest.raises(NonIntegralSpectrumError) as err:
        integral_spectrum(z5, cset(z5, [(1,), (4,)]))
    assert err.value.index == (1,) and isinstance(err.value.value, complex)
    assert len(enumerate_pst_sets(group("Z8xZ3"))) == 16
    cube = group("x".join(["Z2"] * 9))
    c = cset(cube, [tuple(int(i == j) for i in range(9)) for j in range(9)])
    assert len(_tables(cube).class_size) > MAX_CLASSES
    assert characterize_pst(cube, c).verdict is Verdict.OUT_OF_SCOPE
    assert integral_spectrum(cube, c).eigenvalues == {9 - 2 * k: math.comb(9, k) for k in range(10)}
    # the 9-cube has transfer between antipodes at pi/2
    assert detect_pst_numeric(cube, c, math.pi / 2).target.coords == (1,) * 9
    # a sweep-style decision: the group parsed, the set built from elements
    h = groups.parse_group("Z8xZ9")
    c = ConnectionSet.from_elements(h, [h.element(x) for x in [(4, 0), (2, 3), (6, 6), (0, 0)]])
    report = characterize_pst(h, c)
    detection = detect_pst_numeric(h, c, pst.TRANSFER_TIME)
    assert (detection is not None) == (report.verdict is Verdict.PST)
    with pytest.raises(NonIntegralSpectrumError):
        character_criterion(h, c)
    gap = transition_matrix(h, c, 1.0).entries - dense_expm(h, c, 1.0).entries
    assert np.abs(gap).max() < 1e-9
    # every command
    pair = ["-g", "Z8xZ3", "-c", "{(2,0),(6,0)}"]
    for argv in (
        ["check", *pair, "--cross-validate"],
        ["spectrum", *pair],
        ["walk", *pair, "-t", "pi/2", "--target", "(4,0)"],
        ["enumerate", "-g", "Z8xZ3"],
        ["classes", "-g", "Z8xZ3"],
        *(["export", *pair, "--format", form] for form in ("adjacency", "dot", "json")),
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    big = group("Z4194304")
    reduced_group, reduced = pst.reduce_to_4m(big, cset(big, [(1 << 20,), (3 << 20,)]))
    assert reduced_group == group("Z4") and reduced.indices.tolist() == [1, 3]


def test_character_table_is_capped_like_every_square_matrix():
    assert groups.CapExceededError is cayleypst.CapExceededError
    for spec in ("Z4096", "Z65536"):
        with pytest.raises(CapExceededError) as err:
            character_table(group(spec))
        assert str(err.value) == (
            f"{spec} has {spec[1:]} elements, too many for a |G| x |G| matrix: "
            f"|G|^2 is above the cap of {MAX_ORDER} (cayleypst.groups.MAX_ORDER)"
        )


@st.composite
def cyclic_sylow2_groups(draw, min_d=2):
    """Groups of order <= 256 with one factor 2^d * u (u odd, d >= min_d), in any position, and odd others."""
    d = draw(st.integers(min_d, 6))
    factors = draw(st.lists(st.sampled_from([3, 5, 7, 9, 15, 25, 27]), max_size=3))
    first = (1 << d) * draw(st.sampled_from([1, 1, 3, 5]))
    factors.insert(draw(st.integers(0, len(factors))), first)
    factors = [n for n in factors if n > 1]
    assume(factors and math.prod(factors) <= 256)
    return AbelianGroup(tuple(factors))


def near_transfer_set(g, rng, with_a, with_b):
    """A power-closed set built like a transfer set, perhaps spoiled, with a and {b, -b} as asked.

    S is a random union of odd-order classes; the set is S + {0, a, b, -b},
    plus random classes of valuation >= 3, and half the time one random class
    is toggled.  The pieces come from element arithmetic, not from the tables.
    """
    a = groups.unique_involution(g)
    b, b_inv = map(g.element_at, g._transfer_indices[1:])
    classes = [cls for cls in list_power_classes(g) if g.identity not in cls]
    valuation = {cls: two_part(brute_element_order(g, next(iter(cls))))[0] for cls in classes}
    members = set()
    for cls in classes:
        if valuation[cls] == 0 and rng.random() < 0.5:
            members.update(x + shift for x in cls for shift in (g.identity, a, b, b_inv))
        elif valuation[cls] >= 3 and rng.random() < 0.5:
            members.update(cls)
    if rng.random() < 0.5:
        members ^= set(rng.choice(classes))
    members -= {a, b, b_inv}
    members |= ({a} if with_a else set()) | ({b, b_inv} if with_b else set())
    return ConnectionSet(g, frozenset(members))


def row_scan(g, row):
    """The scan of a whole identity row: first off-diagonal entry of modulus 1 - 1e-9 or more."""
    hits = np.flatnonzero(np.abs(row[1:]) >= 1.0 - 1e-9) + 1
    return (g.element_at(hits[0]), complex(row[hits[0]])) if len(hits) else None


def test_per_class_tables_hold_for_every_member():
    for spec in ("Z4xZ3xZ3", "Z8xZ9", "Z5xZ32xZ3", "Z2xZ2xZ3", "Z9", "Z12xZ5"):
        g = group(spec)
        tables = _tables(g)
        members = [[g.element_at(i) for i in m.tolist()] for m in tables.class_members]
        valuation = []
        for k, elements in enumerate(members):
            assert tables.class_id[tables.class_reps[k]] == k
            orders = {brute_element_order(g, x) for x in elements}
            assert orders == {tables.class_order[k]}
            valuation.append(two_part(orders.pop())[0])
        if not (groups.sylow2_cyclic(g) and g.d >= 2):
            # no involution a and no order-four pair b, -b: nothing for the pickers to read
            with pytest.raises(ValueError):
                tables.condition_pickers
            continue
        a, b, core, fourfold, twofold = tables.condition_pickers
        pair = sorted(g._transfer_indices[1:])
        assert tables.class_members[a].tolist() == [g.index_of(groups.unique_involution(g))]
        assert tables.class_members[b].tolist() == pair
        # the pickers read a list of class ids at the core classes and at their images
        ids = list(range(len(members)))
        assert list(core(ids)) == [k for k, v in enumerate(valuation) if v == 2 and k != b]
        for k, four, two in zip(core(ids), fourfold(ids), twofold(ids)):
            assert {tables.class_id[g.index_of(4 * x)] for x in members[k]} == {four}
            assert {tables.class_id[g.index_of(2 * x)] for x in members[k]} == {two}
        assert sorted(fourfold(ids)) == [k for k, v in enumerate(valuation) if v == 0][1:]
        assert sorted(twofold(ids)) == [k for k, v in enumerate(valuation) if v == 1 and k != a]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 64), min_size=1, max_size=4)
    .filter(lambda fs: math.prod(fs) <= 128)
    .map(lambda fs: AbelianGroup(tuple(fs)))
)
@example(group("Z4x" + "x".join(["Z3"] * 5)))
def test_class_orders_are_the_orders_of_the_representatives(g):
    tables = _tables(g)
    orders = tables.class_order
    assert orders.tolist() == groups._orders(g, tables.class_reps).tolist()
    assert not orders.flags.writeable and orders.tolist() == sorted(orders.tolist())


@settings(max_examples=60, deadline=None)
@given(cyclic_sylow2_groups(), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@example(group("Z4xZ3xZ3"), 0, True, False)
@example(group("Z3xZ32xZ5"), 7, False, True)
def test_class_conditions_equal_the_member_conditions(g, seed, with_a, with_b):
    c = near_transfer_set(g, random.Random(seed), with_a, with_b)
    tables = _tables(g)
    by_class = pst._class_conditions(tables, _class_mask(c))
    by_member = pst._member_conditions(g, c)
    assert list(by_class.items()) == list(by_member.items())
    assert all(type(ok) is bool for ok in by_class.values())
    # a set made from its class mask is the same set, with the same report
    made = ConnectionSet._from_class_mask(g, _class_mask(c).copy())
    assert made == c and np.array_equal(_class_mask(made), _class_mask(c))
    assert characterize_pst(g, made) == characterize_pst(g, c)


@settings(max_examples=60, deadline=None)
@given(
    cyclic_sylow2_groups(),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.floats(0.1, 50.0),
)
@example(group("Z4xZ3xZ3"), 0, True, False, 1.0)
def test_class_scan_matches_the_row_scan(g, seed, with_a, with_b, t_other):
    c = near_transfer_set(g, random.Random(seed), with_a, with_b)
    report = characterize_pst(g, c)
    for t in (math.pi / 2, math.pi, t_other):
        row = _identity_row(g, c, t)
        detection = detect_pst_numeric(g, c, t)
        expected = row_scan(g, row)
        if expected is None:
            assert detection is None
        else:
            assert detection.target == expected[0]
            # bit for bit: the class amplitude is the row entry
            assert np.complex128(detection.phase).tobytes() == np.complex128(expected[1]).tobytes()
        assert is_periodic_numeric(g, c, t) == bool(abs(row[0]) >= 1.0 - 1e-9)
    assert pst.scan_agrees(report, detect_pst_numeric(g, c, math.pi / 2))


@settings(max_examples=60, deadline=None)
@given(cyclic_sylow2_groups(min_d=0), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@example(group("Z4xZ3xZ3"), 0, True, False)
@example(group("Z2xZ9"), 0, True, False)
@example(group("Z27"), 0, True, False)
def test_class_space_criterion_matches_the_character_loop(g, seed, with_a, with_b):
    rng = random.Random(seed)
    if g.d >= 2:
        c = near_transfer_set(g, rng, with_a, with_b)
    else:
        c = random_class_union(g, rng)
    assert len(_tables(g).class_size) <= MAX_CLASSES
    assert character_criterion(g, c) == loop_character_criterion(g, c)


def test_class_space_criterion_reads_no_spectrum(monkeypatch):
    def refuse(spectrum):
        raise AssertionError("the class-space criterion spread the spectrum over |G|")

    # Z4xZ3^5 has 366 power classes, above MAX_CLASSES: its class values come from the FFT
    for spec in ("Z8xZ9", "Z4x" + "x".join(["Z3"] * 5)):
        g, rng = group(spec), random.Random(5)
        sets = [near_transfer_set(g, rng, with_a, not with_a) for with_a in (True, False)] * 4
        # the oracle reads the |G| values, so it runs before they are refused
        expected = [loop_character_criterion(g, c) for c in sets]
        with monkeypatch.context() as patch:
            patch.setattr(spectra.Spectrum, "values", property(refuse))
            assert [character_criterion(g, c) for c in sets] == expected
        assert any(expected) and not all(expected)
        for c in sets:
            # the walk row is over the power classes too, and the sums kept are per class
            assert walk._row(g, c, math.pi / 2)[1] is _tables(g)
            assert len(c._sums) == len(_tables(g).class_size)


@pytest.mark.parametrize("seed", [0, 1])
def test_off_the_class_route_the_criterion_and_scan_match_their_references(seed):
    # Z4xZ3^5 has more than MAX_CLASSES power classes: the criterion and the
    # scan read the FFT; the structural conditions are decided on classes all the same
    g = group("Z4x" + "x".join(["Z3"] * 5))
    tables = _tables(g)
    assert len(tables.class_size) > MAX_CLASSES
    rng = random.Random(seed)
    for c in (near_transfer_set(g, rng, True, False), random_class_union(g, rng)):
        assert character_criterion(g, c) == loop_character_criterion(g, c)
        assert pst._class_conditions(tables, _class_mask(c)) == pst._member_conditions(g, c)
        detection = detect_pst_numeric(g, c, math.pi / 2)
        assert pst.scan_agrees(characterize_pst(g, c), detection)
        expected = row_scan(g, _identity_row(g, c, math.pi / 2))
        assert (detection is None) == (expected is None)


def test_a_set_that_is_not_power_closed_takes_two_transforms(monkeypatch):
    # a sweep decision: the verdict, the scan at pi/2 and the criterion's witness
    g = group("Z8xZ3")
    literal = [(1, 0), (7, 0), (0, 1), (0, 2)]
    with pytest.raises(NonIntegralSpectrumError) as fresh:
        integral_spectrum(g, cset(g, literal))
    transforms = []
    ifftn = np.fft.ifftn

    def counted(*args, **kwargs):
        transforms.append(kwargs.get("norm"))
        return ifftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", counted)
    c = cset(g, literal)
    assert characterize_pst(g, c).verdict is Verdict.NO_PST
    assert detect_pst_numeric(g, c, math.pi / 2) is None
    with pytest.raises(NonIntegralSpectrumError) as err:
        character_criterion(g, c)
    assert transforms == ["forward", "backward"]
    assert str(err.value) == str(fresh.value)
    assert err.value.index == fresh.value.index


groups_to_256 = groups_to_512.filter(lambda g: g.order <= 256)


@settings(max_examples=40, deadline=None)
@given(groups_to_256, st.integers(0, 2**32 - 1))
@example(group("Z4xZ3xZ3"), 0)
@example(group("Z2xZ2xZ3"), 1)
def test_a_set_keeps_its_class_spectrum(g, seed):
    c = random_class_union(g, random.Random(seed))
    tables = _tables(g)
    assume(len(tables.class_size) <= MAX_CLASSES)
    per_class = _sums(g, c)
    # computed once, kept, and owning its data
    assert c._sums is per_class and _sums(g, c) is per_class
    assert per_class.base is None and not per_class.flags.writeable
    assert np.array_equal(per_class, tables.class_sums @ _class_mask(c))
    # every character's sum over the set is its dual class's entry
    dense = character_table(g) @ _indicator(g, c)
    assert np.abs(dense - per_class[tables.class_id]).max() < 1e-9
    assert np.array_equal(integral_spectrum(g, c).values, per_class.astype(np.int64)[tables.class_id])
    # with one inverse pair split off a class of more than two members, the set is not
    # power-closed, and it keeps one sum per character instead
    members = max(tables.class_members, key=len).tolist()
    if len(members) > 2:
        pair = {members[0], g.index_of(-g.element_at(members[0]))}
        kept = sorted((set(c.indices.tolist()) | set(members)) - pair)
        split = ConnectionSet._from_indices(g, np.array(kept, dtype=np.intp))
        assert not groups.is_power_closed(split)
        sums = _sums(g, split)
        assert len(sums) == g.order and not sums.flags.writeable
        assert split._sums is sums and _sums(g, split) is sums
        assert np.abs(sums - character_table(g) @ _indicator(g, split)).max() < 1e-9


def census_candidates(g):
    """Every candidate of the census, as characterize_pst receives it: spectrum from its block."""
    seen = []
    characterize = pst.characterize_pst

    def record(group, connection_set):
        seen.append(connection_set)
        return characterize(group, connection_set)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pst, "characterize_pst", record)
        enumerate_pst_sets(g)
    return seen


def test_every_route_keeps_real_float64_sums():
    def kept(g, c):
        sums = _sums(g, c)
        assert sums.dtype == np.float64 and sums.base is None and not sums.flags.writeable
        assert c._sums is sums and _sums(g, c) is sums
        return sums

    # a power-closed set by the S product, and one above MAX_CLASSES by the FFT
    for spec, seed in (("Z8xZ9", 0), ("Z4x" + "x".join(["Z3"] * 5), 1)):
        g = group(spec)
        kept(g, random_class_union(g, random.Random(seed)))
    # census candidates, whose sums come from their block
    z8x3 = group("Z8xZ3")
    for c in census_candidates(z8x3):
        assert len(kept(z8x3, c)) == len(_tables(z8x3).class_size)
    # a set that is not power-closed keeps the real parts of its FFT sums
    split = cset(z8x3, [(1, 0), (7, 0), (0, 1), (0, 2)])
    assert not groups.is_power_closed(split)
    sums = kept(z8x3, split)
    dense = character_table(z8x3) @ _indicator(z8x3, split)
    assert len(sums) == z8x3.order and np.abs(dense.imag).max() < 1e-9
    assert np.abs(sums - dense.real).max() < 1e-9


def same_complex(x, y):
    return np.complex128(x).tobytes() == np.complex128(y).tobytes()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(cyclic_sylow2_groups(min_d=0), st.floats(0.1, 50.0), st.integers(0, 2**32 - 1))
@example(group("Z8xZ3"), 1.0, 0)
@example(group("Z2xZ9"), 1.0, 0)
def test_block_spectra_decide_like_spectra_computed_on_demand(g, t_other, seed):
    tables = _tables(g)
    assume(len(tables.class_size) <= 10)
    candidates = census_candidates(g)
    assert len(candidates) == 2 ** (len(tables.class_size) - 1)
    rng = random.Random(seed)
    for c in candidates:
        # the same members, with nothing kept: its spectrum is computed on demand
        fresh = ConnectionSet._from_indices(g, c.indices.copy())
        assert fresh._sums is None
        block = c._sums
        assert block.base is None and not block.flags.writeable
        assert block.tobytes() == _sums(g, fresh).tobytes()
        assert block.tobytes() == (tables.class_sums @ _class_mask(c)).tobytes()
        assert np.array_equal(integral_spectrum(g, c).values, integral_spectrum(g, fresh).values)
        assert character_criterion(g, c) == character_criterion(g, fresh)
        target = g.element_at(rng.randrange(g.order))
        for t in (math.pi / 2, t_other):
            found, expected = detect_pst_numeric(g, c, t), detect_pst_numeric(g, fresh, t)
            assert (found is None) == (expected is None)
            if found is not None:
                assert found.target == expected.target and same_complex(found.phase, expected.phase)
            assert is_periodic_numeric(g, c, t) == is_periodic_numeric(g, fresh, t)
            assert same_complex(
                transition_amplitude(g, c, g.identity, target, t),
                transition_amplitude(g, fresh, g.identity, target, t),
            )


def test_a_class_route_amplitude_gathers_no_row(monkeypatch):
    g, rng = group("Z8xZ9"), random.Random(7)
    sets = [near_transfer_set(g, rng, with_a, not with_a) for with_a in (True, False)]
    rows = {(id(c), t): _identity_row(g, c, t) for c in sets for t in (math.pi / 2, 2.5)}

    def refuse(*args):
        raise AssertionError("a |G|-length row was built for one amplitude")

    monkeypatch.setattr(walk, "_character_transform", refuse)
    monkeypatch.setattr(walk, "_identity_row", refuse)
    source = g.element((3, 4))
    for c in sets:
        for t in (math.pi / 2, 2.5):
            for target in g.elements():
                amplitude = transition_amplitude(g, c, source, target, t)
                assert same_complex(amplitude, rows[id(c), t][g.index_of(target - source)])
