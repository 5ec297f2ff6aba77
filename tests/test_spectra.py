"""Characters, integer spectra, the integrality criterion, and delta."""

import copy
import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleypst import (
    AbelianGroup,
    ConnectionSet,
    NonIntegralSpectrumError,
    Spectrum,
    adjacency_matrix,
    character_table,
    delta,
    integral_spectrum,
    is_power_closed,
    list_power_classes,
    odd_eigenvalue_exists,
)
from cayleypst import spectra
from cayleypst.spectra import _character_transform, _indicator
from conftest import (
    class_unions,
    cset,
    group,
    inverse_closed_subsets,
    random_class_union,
)


def test_character_value_examples():
    # rows are characters, columns elements, both in canonical order
    table = character_table(group("Z4"))
    assert table[0, 3] == pytest.approx(1)
    assert table[1, 1] == pytest.approx(1j)
    assert table[2, 3] == pytest.approx(-1)


def test_character_count_and_trivial():
    g = group("Z4xZ3")
    table = character_table(g)
    assert table.shape == (g.order, g.order)
    # the rows are orthogonal, so no character repeats
    assert np.allclose(table @ table.conj().T, g.order * np.eye(g.order))
    assert np.allclose(table[0], 1)


@pytest.mark.parametrize("spec", ["Z12", "Z4xZ3", "Z5", "Z2xZ9"])
def test_character_unit_modulus_and_multiplicativity(spec):
    g = group(spec)
    rng = random.Random(901)
    elements = list(g.elements())
    table = character_table(g)
    assert np.abs(np.abs(table) - 1).max() < 1e-12
    for _ in range(60):
        j = rng.randrange(g.order)
        x = rng.choice(elements)
        y = rng.choice(elements)
        product = table[j, g.index_of(x)] * table[j, g.index_of(y)]
        assert table[j, g.index_of(x + y)] == pytest.approx(product, abs=1e-12)


def test_character_sum_examples():
    z4 = group("Z4")
    c = cset(z4, [(1,), (3,)])
    sums = character_table(z4) @ _indicator(z4, c)
    assert sums == pytest.approx([2, 0, -2, 0], abs=1e-12)
    assert _character_transform(z4, _indicator(z4, c)) == pytest.approx(sums, abs=1e-12)


@pytest.mark.parametrize("spec", ["Z12", "Z4xZ3", "Z2xZ9"])
def test_character_sums_real_for_inverse_closed(spec):
    g = group(spec)
    rng = random.Random(407)
    sets = list(class_unions(g))
    table = character_table(g)
    for c in rng.sample(sets, min(12, len(sets))):
        assert np.abs((table @ _indicator(g, c)).imag).max() < 1e-9
        assert np.abs(_character_transform(g, _indicator(g, c)).imag).max() < 1e-9


def test_integral_spectrum_examples():
    z4 = group("Z4")
    s = integral_spectrum(z4, cset(z4, [(1,), (3,)]))
    assert s.eigenvalues == {2: 1, 0: 2, -2: 1}
    z2 = group("Z2")
    assert integral_spectrum(z2, cset(z2, [(1,)])).eigenvalues == {1: 1, -1: 1}


def test_integral_spectrum_reference_36_vertex(z433_sets):
    g, with_a, _ = z433_sets
    s = integral_spectrum(g, with_a)
    assert all(value % 2 for value in s.eigenvalues)
    assert s.eigenvalues.get(-1, 0) == g.order // 2 == 18
    assert sum(s.eigenvalues.values()) == g.order
    assert next(iter(s.eigenvalues)) == len(with_a)


def test_integral_spectrum_rejects_non_power_closed():
    z5 = group("Z5")
    with pytest.raises(NonIntegralSpectrumError) as err:
        integral_spectrum(z5, cset(z5, [(1,), (4,)]))
    assert err.value.index == (1,)
    z12 = group("Z12")
    with pytest.raises(NonIntegralSpectrumError):
        integral_spectrum(z12, cset(z12, [(1,), (11,)]))
    # the witness is the first sum more than 1e-7 off an integer, not the first irrational one:
    # the sums 2 cos(2 pi j / 65536) of characters 1 to 3 are irrational but within 1e-7 of 2
    z65536 = group("Z65536")
    gaps = [2 - 2 * math.cos(2 * math.pi * j / 65536) for j in range(1, 5)]
    assert all(0 < gap < 1e-7 for gap in gaps[:3]) and gaps[3] > 1e-7
    with pytest.raises(NonIntegralSpectrumError) as err:
        integral_spectrum(z65536, cset(z65536, [(1,), (65535,)]))
    assert err.value.index == (4,)


def test_degree_is_trivial_eigenvalue_and_maximum():
    for spec in ("Z12", "Z4xZ3", "Z2xZ9"):
        g = group(spec)
        for c in class_unions(g):
            s = integral_spectrum(g, c)
            # the trivial character comes first
            assert s.values[0] == len(c)
            assert next(iter(s.eigenvalues)) == len(c)


@pytest.mark.parametrize("spec", ["Z2", "Z4", "Z6", "Z8", "Z9", "Z2xZ4", "Z12", "Z3xZ3"])
def test_integral_iff_power_closed_exhaustive(spec):
    g = group(spec)
    for c in inverse_closed_subsets(g):
        closed = is_power_closed(c)
        try:
            integral_spectrum(g, c)
            succeeded = True
        except NonIntegralSpectrumError:
            succeeded = False
        assert succeeded == closed, f"{spec}: {sorted(x.coords for x in c.elements)}"


@pytest.mark.parametrize("spec", ["Z12", "Z4xZ3", "Z2xZ9", "Z8"])
def test_spectrum_matches_dense_eigensolver(spec):
    g = group(spec)
    rng = random.Random(52)
    sets = list(class_unions(g))
    for c in rng.sample(sets, min(10, len(sets))):
        s = integral_spectrum(g, c)
        mine = sorted(
            value for value, mult in s.eigenvalues.items() for _ in range(mult)
        )
        dense = np.linalg.eigvalsh(adjacency_matrix(g, c).astype(float))
        assert np.allclose(sorted(dense), mine, atol=1e-6)


def test_delta_examples():
    z4 = group("Z4")
    assert delta(integral_spectrum(z4, cset(z4, [(1,), (3,)]))) == 2
    z2 = group("Z2")
    assert delta(integral_spectrum(z2, cset(z2, [(1,)]))) == 2
    # a single distinct eigenvalue has no defined gap
    assert delta(integral_spectrum(z4, cset(z4, []))) is None
    # Z3's classes are {0} and {1, 2}
    constant = Spectrum._from_classes(group("Z3"), np.full(2, 3))
    assert constant.values.tolist() == [3, 3, 3] and delta(constant) is None


@pytest.mark.parametrize("spec", ["Z12", "x".join(["Z2"] * 7), "Z5", "Z4x" + "x".join(["Z3"] * 5)])
def test_the_empty_set_spectrum_is_held_per_class(spec):
    # Z4xZ3^5 has 366 power classes, above MAX_CLASSES: its class transform is the FFT
    g = group(spec)
    spectrum = integral_spectrum(g, cset(g, []))
    assert spectrum.eigenvalues == {0: g.order} and "values" not in vars(spectrum)
    assert spectrum.values.tolist() == [0] * g.order and not spectrum.values.flags.writeable


def test_odd_eigenvalue_exists():
    z5 = group("Z5")
    assert odd_eigenvalue_exists(z5, cset(z5, [(1,), (2,), (3,), (4,)]))
    assert not odd_eigenvalue_exists(z5, cset(z5, []))


@pytest.mark.parametrize("spec", ["Z3", "Z5", "Z7", "Z9", "Z3xZ3", "Z15"])
def test_odd_eigenvalue_for_small_odd_groups(spec):
    g = group(spec)
    for c in class_unions(g, include_empty=False):
        assert odd_eigenvalue_exists(g, c)


def test_spectrum_json_sorted_descending():
    z4 = group("Z4")
    doc = integral_spectrum(z4, cset(z4, [(1,), (3,)])).to_json_dict()
    assert doc == {"eigenvalues": [[2, 1], [0, 2], [-2, 1]]}


# Groups of more than 256 vertices, where a dense table is large; it is the
# oracle of both the FFT kernel and the class-space route.
FFT_GROUPS = ["Z512", "Z4xZ75", "Z8xZ5xZ7"]


def assert_transform_matches_table(g, table, rng):
    values = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    assert np.abs(_character_transform(g, values) - table @ values).max() < 1e-9
    inverse = _character_transform(g, values, inverse=True)
    assert np.abs(inverse - values @ table / g.order).max() < 1e-9


@pytest.mark.parametrize("spec", FFT_GROUPS)
def test_fft_character_sums_match_table(spec):
    g = group(spec)
    assert g.order > 256
    table = character_table(g)
    assert_transform_matches_table(g, table, np.random.default_rng(g.order))


@pytest.mark.parametrize("spec", FFT_GROUPS)
def test_fft_integral_spectrum_matches_table_route(spec, monkeypatch):
    g = group(spec)
    rng = random.Random(77)
    closed = random_class_union(g, rng)
    cls = max(list_power_classes(g), key=len)
    generator = min(cls, key=lambda x: x.coords)
    split = ConnectionSet(g, frozenset({generator, -generator}))
    assert len(cls) > 2 and not is_power_closed(split)
    table = character_table(g)
    expected = np.rint((table @ _indicator(g, closed)).real).astype(int).tolist()
    sums = table @ _indicator(g, split)
    witness = int(np.argmax(np.abs(sums - np.rint(sums.real)) > spectra._INTEGRALITY_TOL))
    class_route = integral_spectrum(g, closed)
    # with no class-space route, every set takes the FFT
    monkeypatch.setattr(spectra, "MAX_CLASSES", 0)
    fft_route = integral_spectrum(g, closed)
    assert class_route.values.tolist() == fft_route.values.tolist() == expected
    with pytest.raises(NonIntegralSpectrumError) as fft_err:
        integral_spectrum(g, split)
    assert fft_err.value.index == np.unravel_index(witness, g.factors)


@st.composite
def fft_sized_groups(draw):
    factors = draw(st.lists(st.integers(2, 12), max_size=2))
    rest = math.prod(factors)
    last = draw(st.integers(-(-257 // rest), 1024 // rest))
    return AbelianGroup((*factors, last))


@settings(max_examples=8, deadline=None)
@given(fft_sized_groups(), st.integers(0, 2**32 - 1))
def test_fft_route_matches_table_property(g, seed):
    assert 256 < g.order <= 1024
    table = character_table(g)
    assert_transform_matches_table(g, table, np.random.default_rng(seed))
    c = random_class_union(g, random.Random(seed))
    expected = np.rint((table @ _indicator(g, c)).real).astype(int).tolist()
    assert integral_spectrum(g, c).values.tolist() == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 12), min_size=1, max_size=3).filter(lambda fs: math.prod(fs) <= 96),
    st.integers(0, 2**32 - 1),
)
def test_array_spectrum_matches_the_table(factors, seed):
    g = AbelianGroup(tuple(factors))
    c = random_class_union(g, random.Random(seed))
    spectrum = integral_spectrum(g, c)
    table = character_table(g)
    sums = np.rint((table @ _indicator(g, c)).real).astype(int).tolist()
    assert spectrum.values.tolist() == sums and not spectrum.values.flags.writeable
    counts = Counter(sums)
    assert list(spectrum.eigenvalues.items()) == [(v, counts[v]) for v in sorted(counts, reverse=True)]
    assert all(type(v) is int for pair in spectrum.eigenvalues.items() for v in pair)
    gaps = [max(sums) - v for v in counts if v != max(sums)]
    assert delta(spectrum) == (math.gcd(*gaps) if gaps else None)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2, 16), min_size=1, max_size=3).filter(lambda fs: math.prod(fs) <= 64),
    st.integers(0, 2**32 - 1),
)
def test_delta_and_odd_eigenvalues_match_the_multiset(factors, seed):
    # both read the class eigenvalues; the oracles read the multiset
    g = AbelianGroup(tuple(factors))
    c = random_class_union(g, random.Random(seed))
    spectrum = integral_spectrum(g, c)
    top = next(iter(spectrum.eigenvalues))
    assert delta(spectrum) == (math.gcd(*(top - v for v in spectrum.eigenvalues)) or None)
    assert odd_eigenvalue_exists(g, c) == any(v % 2 for v in spectrum.eigenvalues)


@pytest.mark.parametrize("spec, seed", [("Z8xZ9", 1), ("Z4xZ3xZ5", 2), ("Z2xZ2xZ3", 3)])
def test_a_class_route_spectrum_counts_without_spreading_its_values(spec, seed):
    g = group(spec)
    c = random_class_union(g, random.Random(seed))
    assert len(c)
    spectrum = integral_spectrum(g, c)
    document = spectrum.to_json_dict()
    # the multiset comes from the class eigenvalues and sizes, not from a |G| array
    assert "values" not in vars(spectrum)
    sums = np.rint((character_table(g) @ _indicator(g, c)).real).astype(int).tolist()
    counts = Counter(sums)
    assert document == {"eigenvalues": [[v, counts[v]] for v in sorted(counts, reverse=True)]}
    assert spectrum.values.tolist() == sums and not spectrum.values.flags.writeable


def test_spectrum_equality_copies_and_bad_mappings():
    z4 = group("Z4")
    s = integral_spectrum(z4, cset(z4, [(1,), (3,)]))
    assert s != integral_spectrum(z4, cset(z4, [(2,)]))
    assert s != integral_spectrum(group("Z2xZ2"), cset(group("Z2xZ2"), [(0, 1), (1, 0)]))
    assert pickle.loads(pickle.dumps(s)) == s and copy.deepcopy(s) == s
    with pytest.raises(AttributeError):
        s.values = None
    with pytest.raises(ValueError):
        s.values[0] = 7
    # a spectrum comes from integral_spectrum: no constructor takes a mapping, or nothing
    for args in [({0: 2, 1: 0},), ({},), ()]:
        with pytest.raises(TypeError):
            Spectrum(*args)


def test_integrality_is_decided_by_power_closure(monkeypatch):
    z5 = group("Z5")
    split = cset(z5, [(1,), (4,)])
    # no tolerance, however loose, makes a set that is not power-closed integral
    monkeypatch.setattr(spectra, "_INTEGRALITY_TOL", 0.9)
    with pytest.raises(NonIntegralSpectrumError):
        integral_spectrum(z5, split)
    monkeypatch.undo()
    # a power-closed set whose FFT sums come out off an integer is a numeric
    # fault; Z2^9 has 512 power classes, too many for the class-sum product
    cube = group("x".join(["Z2"] * 9))
    closed = cset(cube, [tuple(int(i == j) for i in range(9)) for j in range(9)])
    exact = spectra._character_transform
    monkeypatch.setattr(spectra, "_character_transform", lambda *args: exact(*args) + 1e-3)
    with pytest.raises(RuntimeError, match="internal error"):
        integral_spectrum(cube, closed)
    # the class-sum product takes no FFT, so the same fault cannot reach it
    assert integral_spectrum(z5, cset(z5, [(1,), (2,), (3,), (4,)])).eigenvalues == {4: 1, -1: 4}
