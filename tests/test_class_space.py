"""The class-space spectral route against the dense character table and the FFT kernel."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    transition_matrix,
)
from cayleypst import groups, spectra, walk
from cayleypst.groups import MAX_ORDER, _tables
from cayleypst.spectra import MAX_CLASSES, _character_transform, _class_spectrum, _indicator
from cayleypst.walk import _identity_row
from conftest import cset, group, random_class_union

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
    assert sums.dtype == np.float64 and not sums.flags.writeable
    assert np.array_equal(sums, np.rint(sums)) and np.abs(sums).max() <= g.order
    # every character of a dual class has the same sum over each class
    dense = character_table(g) @ class_indicators(g)
    assert np.abs(dense - sums[tables.class_id]).max() < 1e-9


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
            on_class_route = len(_tables(g).class_size) <= MAX_CLASSES
            assert (_class_spectrum(g, c) is not None) == on_class_route
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


def test_production_never_reads_the_character_table(monkeypatch):
    def refuse(group):
        raise AssertionError(f"character table of {group} built outside the tests")

    monkeypatch.setattr(spectra, "character_table", refuse)
    monkeypatch.setattr(walk, "character_table", refuse)
    g = group("Z4xZ3xZ3")
    rng = random.Random(3)
    for c in [random_class_union(g, rng) for _ in range(4)] + [ConnectionSet(g, frozenset())]:
        report = characterize_pst(g, c)
        assert character_criterion(g, c) == (report.verdict is Verdict.PST)
        detection = detect_pst_numeric(g, c, math.pi / 2)
        assert (detection is not None) == (report.verdict is Verdict.PST)
        gap = transition_matrix(g, c, 0.9).entries - dense_expm(g, c, 0.9).entries
        assert np.abs(gap).max() < 1e-9
    z5 = group("Z5")
    with pytest.raises(NonIntegralSpectrumError) as err:
        integral_spectrum(z5, cset(z5, [(1,), (4,)]))
    assert err.value.index.indices == (1,) and isinstance(err.value.value, complex)
    assert len(enumerate_pst_sets(group("Z8xZ3"), cross_validate=True)) == 16
    cube = group("x".join(["Z2"] * 9))
    c = cset(cube, [tuple(int(i == j) for i in range(9)) for j in range(9)])
    assert len(_tables(cube).class_size) > MAX_CLASSES
    assert characterize_pst(cube, c).verdict is Verdict.OUT_OF_SCOPE
    assert integral_spectrum(cube, c).eigenvalues == {9 - 2 * k: math.comb(9, k) for k in range(10)}
    # the 9-cube has transfer between antipodes at pi/2
    assert detect_pst_numeric(cube, c, math.pi / 2).target.coords == (1,) * 9


def test_character_table_is_capped_like_every_square_matrix():
    assert groups.CapExceededError is walk.CapExceededError is cayleypst.CapExceededError
    for spec in ("Z4096", "Z65536"):
        with pytest.raises(CapExceededError) as err:
            character_table(group(spec))
        assert str(err.value) == (
            f"{spec} has {spec[1:]} elements, too many for a |G| x |G| matrix: "
            f"|G|^2 is above the cap of {MAX_ORDER} (cayleypst.groups.MAX_ORDER)"
        )
