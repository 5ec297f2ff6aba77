"""Characters, integer spectra, the integrality criterion, and delta."""

import copy
import math
import pickle
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleypst import (
    AbelianGroup,
    ConnectionSet,
    GroupMismatchError,
    NonIntegralSpectrumError,
    Spectrum,
    adjacency_matrix,
    all_character_indices,
    character_index,
    character_sum,
    character_table,
    character_value,
    delta,
    integral_spectrum,
    is_power_closed,
    list_power_classes,
    odd_eigenvalue_exists,
)
from cayleypst import spectra
from cayleypst.spectra import TABLE_MAX_ORDER, _character_transform, _indicator
from conftest import (
    class_unions,
    cset,
    elem,
    group,
    inverse_closed_subsets,
    random_class_union,
)


def test_character_value_examples():
    z4 = group("Z4")
    trivial = character_index(z4, (0,))
    assert character_value(trivial, elem(z4, 3)) == pytest.approx(1)
    assert character_value(character_index(z4, (1,)), elem(z4, 1)) == pytest.approx(1j)
    assert character_value(character_index(z4, (2,)), elem(z4, 3)) == pytest.approx(-1)


def test_character_value_group_mismatch():
    with pytest.raises(GroupMismatchError):
        character_value(character_index(group("Z4"), (1,)), elem(group("Z8"), 1))


def test_character_count_and_trivial():
    g = group("Z4xZ3")
    indices = all_character_indices(g)
    assert len(indices) == g.order
    assert len(set(indices)) == g.order
    assert indices[0].is_trivial
    for x in g.elements():
        assert character_value(indices[0], x) == pytest.approx(1)


@pytest.mark.parametrize("spec", ["Z12", "Z4xZ3", "Z5", "Z2xZ9"])
def test_character_unit_modulus_and_multiplicativity(spec):
    g = group(spec)
    rng = random.Random(901)
    elements = list(g.elements())
    indices = all_character_indices(g)
    for _ in range(60):
        j = rng.choice(indices)
        x = rng.choice(elements)
        y = rng.choice(elements)
        assert abs(abs(character_value(j, x)) - 1) < 1e-12
        product = character_value(j, x) * character_value(j, y)
        assert character_value(j, x + y) == pytest.approx(product, abs=1e-12)


def test_character_sum_examples():
    z4 = group("Z4")
    c = cset(z4, [(1,), (3,)])
    assert character_sum(character_index(z4, (0,)), c) == pytest.approx(2)
    assert character_sum(character_index(z4, (1,)), c) == pytest.approx(0, abs=1e-12)
    assert character_sum(character_index(z4, (2,)), c) == pytest.approx(-2)


@pytest.mark.parametrize("spec", ["Z12", "Z4xZ3", "Z2xZ9"])
def test_character_sums_real_for_inverse_closed(spec):
    g = group(spec)
    rng = random.Random(407)
    sets = list(class_unions(g))
    for c in rng.sample(sets, min(12, len(sets))):
        for j in all_character_indices(g):
            assert abs(character_sum(j, c).imag) < 1e-9


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
    assert s.multiplicity(-1) == g.order // 2 == 18
    assert s.total_multiplicity == g.order
    assert s.max_eigenvalue == len(with_a)


def test_integral_spectrum_rejects_non_power_closed():
    z5 = group("Z5")
    with pytest.raises(NonIntegralSpectrumError) as err:
        integral_spectrum(z5, cset(z5, [(1,), (4,)]))
    assert err.value.index.group == z5
    z12 = group("Z12")
    with pytest.raises(NonIntegralSpectrumError):
        integral_spectrum(z12, cset(z12, [(1,), (11,)]))


def test_degree_is_trivial_eigenvalue_and_maximum():
    for spec in ("Z12", "Z4xZ3", "Z2xZ9"):
        g = group(spec)
        for c in class_unions(g):
            s = integral_spectrum(g, c)
            trivial = all_character_indices(g)[0]
            assert s.by_character[trivial] == len(c)
            assert s.max_eigenvalue == len(c)


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
    constant = Spectrum({j: 3 for j in all_character_indices(group("Z3"))})
    assert delta(constant) is None


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


# Groups above TABLE_MAX_ORDER, whose character sums come from the FFT; the
# dense table is the oracle.
FFT_GROUPS = ["Z512", "Z4xZ75", "Z8xZ5xZ7"]


def assert_transform_matches_table(g, table, rng):
    values = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    assert np.abs(_character_transform(g, values) - table @ values).max() < 1e-9
    inverse = _character_transform(g, values, inverse=True)
    assert np.abs(inverse - values @ table / g.order).max() < 1e-9


@pytest.mark.parametrize("spec", FFT_GROUPS)
def test_fft_character_sums_match_table(spec):
    g = group(spec)
    assert g.order > TABLE_MAX_ORDER
    table = character_table.__wrapped__(g)
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
    tables_before = character_table.cache_info().currsize
    fft_spectrum = integral_spectrum(g, closed)
    with pytest.raises(NonIntegralSpectrumError) as fft_err:
        integral_spectrum(g, split)
    assert character_table.cache_info().currsize == tables_before
    monkeypatch.setattr(spectra, "TABLE_MAX_ORDER", g.order)
    assert integral_spectrum(g, closed).by_character == fft_spectrum.by_character
    with pytest.raises(NonIntegralSpectrumError) as table_err:
        integral_spectrum(g, split)
    assert fft_err.value.index == table_err.value.index


@st.composite
def fft_sized_groups(draw):
    factors = draw(st.lists(st.integers(2, 12), max_size=2))
    rest = math.prod(factors)
    last = draw(st.integers(-(-(TABLE_MAX_ORDER + 1) // rest), 1024 // rest))
    return AbelianGroup((*factors, last))


@settings(max_examples=8, deadline=None)
@given(fft_sized_groups(), st.integers(0, 2**32 - 1))
def test_fft_route_matches_table_property(g, seed):
    assert TABLE_MAX_ORDER < g.order <= 1024
    table = character_table.__wrapped__(g)
    assert_transform_matches_table(g, table, np.random.default_rng(seed))
    c = random_class_union(g, random.Random(seed))
    expected = np.rint((table @ _indicator(g, c)).real).astype(int).tolist()
    assert list(integral_spectrum(g, c).by_character.values()) == expected


def test_character_indices_die_with_their_spectrum():
    # by_character is cached on the spectrum only, so no per-vertex object outlives it
    g = group("Z4xZ3")
    spectrum = integral_spectrum(g, cset(g, [(1, 0), (3, 0)]))
    index = weakref.ref(next(iter(spectrum.by_character)))
    del spectrum
    assert index() is None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 12), min_size=1, max_size=3).filter(lambda fs: math.prod(fs) <= 96),
    st.integers(0, 2**32 - 1),
)
def test_array_spectrum_matches_the_character_dict(factors, seed):
    g = AbelianGroup(tuple(factors))
    c = random_class_union(g, random.Random(seed))
    spectrum = integral_spectrum(g, c)
    table = character_table.__wrapped__(g)
    sums = np.rint((table @ _indicator(g, c)).real).astype(int).tolist()
    expected = dict(zip(all_character_indices(g), sums))
    assert spectrum.by_character == expected
    assert list(spectrum.by_character) == all_character_indices(g)
    assert spectrum.values.tolist() == sums and not spectrum.values.flags.writeable
    counts = Counter(sums)
    assert list(spectrum.eigenvalues.items()) == [(v, counts[v]) for v in sorted(counts, reverse=True)]
    assert all(type(v) is int for pair in spectrum.eigenvalues.items() for v in pair)
    from_dict = Spectrum(dict(reversed(expected.items())))
    assert from_dict == spectrum and from_dict.eigenvalues == spectrum.eigenvalues
    assert from_dict.by_character == expected
    gaps = [max(sums) - v for v in counts if v != max(sums)]
    assert delta(spectrum) == (math.gcd(*gaps) if gaps else None)


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
    partial = dict(list(s.by_character.items())[:3])
    with pytest.raises(ValueError, match="every character"):
        Spectrum(partial)
    with pytest.raises(ValueError, match="every character"):
        Spectrum({})


def test_integrality_is_decided_by_power_closure(monkeypatch):
    z5 = group("Z5")
    split = cset(z5, [(1,), (4,)])
    # no tolerance, however loose, makes a set that is not power-closed integral
    monkeypatch.setattr(spectra, "INTEGRALITY_TOL", 0.9)
    with pytest.raises(NonIntegralSpectrumError):
        integral_spectrum(z5, split)
    monkeypatch.undo()
    # a power-closed set whose sums come out off an integer is a numeric fault
    closed = cset(z5, [(1,), (2,), (3,), (4,)])
    exact = spectra._character_transform
    monkeypatch.setattr(spectra, "_character_transform", lambda g, v: exact(g, v) + 1e-3)
    with pytest.raises(RuntimeError, match="internal error"):
        integral_spectrum(z5, closed)
