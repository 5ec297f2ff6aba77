"""Walk numerics: two production routes, a truncated-series cross-check, detection."""

import math
import random

import numpy as np
import pytest

from cayleypst import (
    CapExceededError,
    ConnectionSet,
    adjacency_matrix,
    dense_expm,
    detect_pst_numeric,
    is_periodic_numeric,
    list_power_classes,
    character_table,
    transition_amplitude,
    transition_matrix,
)
from cayleypst.spectra import TABLE_MAX_ORDER, _indicator
from cayleypst.walk import DENSE_ORDER_CAP, _identity_row
from conftest import class_unions, cset, elem, group, random_class_union


def expm_via_series(a, t):
    """Third, test-only route: scaling and squaring of a truncated Taylor series.

    The matrix is scaled so that degree*|t|/2**s <= 1/2, run through the series
    truncated at order 20, and squared back s times.  It shares nothing with
    the eigendecomposition in dense_expm or with the character route.
    """
    bound = int(a.sum(axis=1).max(initial=0)) * abs(t)
    squarings = 0 if bound <= 0.5 else math.ceil(math.log2(bound / 0.5))
    scaled = (1j * t / (1 << squarings)) * a
    eye = np.eye(len(a), dtype=np.complex128)
    result = eye.copy()
    for k in range(20, 0, -1):
        result = eye + (scaled @ result) / k
    for _ in range(squarings):
        result = result @ result
    return result


def test_time_zero_is_identity():
    g = group("Z4xZ3")
    c = cset(g, [(1, 0), (3, 0), (0, 1), (0, 2)])
    for u in (transition_matrix(g, c, 0.0), dense_expm(g, c, 0.0)):
        assert np.allclose(u.entries, np.eye(g.order), atol=1e-12)
    assert transition_amplitude(g, c, g.identity, g.identity, 0.0) == pytest.approx(1)
    assert transition_amplitude(g, c, g.identity, elem(g, 1, 0), 0.0) == pytest.approx(
        0, abs=1e-12
    )


def test_single_edge_closed_form():
    z2 = group("Z2")
    c = cset(z2, [(1,)])
    for t in (0.3, 1.0, math.pi / 2, 5.0):
        expected = np.array(
            [[math.cos(t), 1j * math.sin(t)], [1j * math.sin(t), math.cos(t)]]
        )
        assert np.allclose(transition_matrix(z2, c, t).entries, expected, atol=1e-12)
        assert np.allclose(dense_expm(z2, c, t).entries, expected, atol=1e-12)
    amp = transition_amplitude(z2, c, z2.identity, elem(z2, 1), math.pi / 2)
    assert amp == pytest.approx(1j)


def test_empty_set_gives_identity_walk():
    g = group("Z6")
    empty = cset(g, [])
    u = transition_matrix(g, empty, 2.7)
    assert np.allclose(u.entries, np.eye(6), atol=1e-12)
    assert is_periodic_numeric(g, empty, 2.7)


@pytest.mark.parametrize("spec", ["Z8", "Z4xZ3", "Z2xZ2xZ3", "Z3xZ3"])
def test_two_routes_and_eigensolver_agree(spec):
    g = group(spec)
    rng = random.Random(17)
    for _ in range(6):
        c = random_class_union(g, rng)
        t = rng.uniform(0, 2 * math.pi)
        u_char = transition_matrix(g, c, t).entries
        u_dense = dense_expm(g, c, t).entries
        u_series = expm_via_series(adjacency_matrix(g, c), t)
        assert np.max(np.abs(u_char - u_dense)) < 1e-9
        assert np.max(np.abs(u_char - u_series)) < 1e-9


def test_dense_route_on_a_degenerate_spectrum():
    # the 7-cube: eigenvalues 7 - 2k with multiplicities C(7, k), so eigh
    # returns an arbitrary basis of each eigenspace; exp(itA) must not depend on it
    g = group("x".join(["Z2"] * 7))
    c = cset(g, [tuple(int(i == j) for i in range(7)) for j in range(7)])
    assert len(np.unique(np.round(np.linalg.eigvalsh(adjacency_matrix(g, c))))) == 8
    u_dense = dense_expm(g, c, 10.0).entries
    u_char = transition_matrix(g, c, 10.0).entries
    assert np.max(np.abs(u_dense - u_char)) < 1e-9
    assert np.max(np.abs(u_dense - expm_via_series(adjacency_matrix(g, c), 10.0))) < 1e-9


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ9", "Z8xZ3"])
def test_unitarity_and_circulant_structure(spec):
    g = group(spec)
    rng = random.Random(23)
    n = g.order
    for _ in range(4):
        c = random_class_union(g, rng)
        t = rng.uniform(0, 2 * math.pi)
        u = dense_expm(g, c, t).entries
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-9
        # entry (g, h) depends only on h - g
        elements = list(g.elements())
        row0 = u[0]
        for gi in range(0, n, max(1, n // 5)):
            for hi in range(n):
                diff = elements[hi] - elements[gi]
                assert abs(u[gi, hi] - row0[g.index_of(diff)]) < 1e-9


def test_amplitude_symmetry():
    g = group("Z4xZ3")
    rng = random.Random(31)
    for _ in range(4):
        c = random_class_union(g, rng)
        t = rng.uniform(0, 2 * math.pi)
        u = transition_matrix(g, c, t).entries
        assert np.max(np.abs(np.abs(u) - np.abs(u).T)) < 1e-9


def test_transfer_implies_periodicity_at_doubled_time():
    z4 = group("Z4")
    c = cset(z4, [(1,), (3,)])
    t = math.pi / 2
    assert detect_pst_numeric(z4, c, t) is not None
    assert is_periodic_numeric(z4, c, 2 * t)
    z2 = group("Z2")
    assert not is_periodic_numeric(z2, cset(z2, [(1,)]), math.pi / 2)


def test_disjoint_split_factorizes():
    g = group("Z8xZ3")
    rng = random.Random(47)
    classes = [cls for cls in list_power_classes(g) if g.identity not in cls]
    for _ in range(5):
        first, second = set(), set()
        for cls in classes:
            (first if rng.random() < 0.5 else second).update(cls)
        c_all = ConnectionSet(g, frozenset(first | second))
        d1 = ConnectionSet(g, frozenset(first))
        d2 = ConnectionSet(g, frozenset(second))
        t = rng.uniform(0, 2 * math.pi)
        u = transition_matrix(g, c_all, t).entries
        product = transition_matrix(g, d1, t).entries @ transition_matrix(g, d2, t).entries
        assert np.max(np.abs(u - product)) < 1e-9


def test_integral_graphs_are_periodic_at_two_pi():
    for spec in ("Z4", "Z12", "Z2xZ9"):
        g = group(spec)
        for c in class_unions(g, include_empty=False):
            assert is_periodic_numeric(g, c, 2 * math.pi)


def test_detection_examples():
    z2 = group("Z2")
    hit = detect_pst_numeric(z2, cset(z2, [(1,)]), math.pi / 2)
    assert hit is not None
    assert hit.source == z2.identity
    assert hit.target.coords == (1,)
    assert hit.phase == pytest.approx(1j)
    z6 = group("Z6")
    assert detect_pst_numeric(z6, cset(z6, [(1,), (5,)]), math.pi / 2) is None


def test_detection_on_reference_36_vertex(z433_sets):
    g, with_a, with_b = z433_sets
    for c in (with_a, with_b):
        hit = detect_pst_numeric(g, c, math.pi / 2)
        assert hit is not None and hit.target.coords == (2, 0, 0)
        assert abs(abs(hit.phase) - 1) < 1e-9
        # transfer at pi/2 means no return to the start yet
        assert not is_periodic_numeric(g, c, math.pi / 2)


@pytest.mark.parametrize("spec", ["Z5", "Z12", "Z300", "Z4xZ3xZ3"])
def test_identity_row_is_a_unit_vector_at_every_time(spec):
    # a unit row has at most one entry of modulus near 1, so the scan needs no ambiguity check
    g = group(spec)
    c = cset(g, [(1,) * g.rank, (-1,) * g.rank])
    for t in (math.pi / 2, 1e16, 1e20, 1e100, 1e300):
        assert abs(np.linalg.norm(_identity_row(g, c, t)) - 1) < 1e-9, t


def test_dense_cap():
    g = group(f"Z{2 * DENSE_ORDER_CAP}")
    c = cset(g, [(DENSE_ORDER_CAP,)])
    with pytest.raises(CapExceededError, match=f"exceeds the dense cap {DENSE_ORDER_CAP}"):
        dense_expm(g, c, 1.0)


def test_square_matrices_are_capped_at_max_order_entries():
    z4096 = group("Z4096")
    c = cset(z4096, [(1,), (4095,)])
    for build in (
        lambda: adjacency_matrix(z4096, c),
        lambda: transition_matrix(z4096, c, 1.0),
    ):
        with pytest.raises(CapExceededError, match="above the cap of 4194304"):
            build()
    # the row routes stay O(|G|) and are not capped
    assert detect_pst_numeric(z4096, cset(z4096, [(1024,), (3072,)]), math.pi / 2) is not None
    z2048 = group("Z2048")
    u = transition_matrix(z2048, cset(z2048, [(512,), (1536,)]), math.pi / 2).entries
    assert u.shape == (2048, 2048)
    assert abs(abs(u[5, 1029]) - 1) < 1e-9


def test_transition_matrix_json_shape():
    z2 = group("Z2")
    doc = transition_matrix(z2, cset(z2, [(1,)]), math.pi / 2).to_json_dict()
    assert doc["vertices"] == [[0], [1]]
    assert len(doc["entries"]) == 2 and len(doc["entries"][0]) == 2
    re, im = doc["entries"][0][1]
    assert re == pytest.approx(0, abs=1e-12)
    assert im == pytest.approx(1)


@pytest.mark.parametrize("spec", ["Z512", "Z4xZ75", "Z8xZ5xZ7"])
def test_fft_identity_row_matches_table(spec):
    g = group(spec)
    assert g.order > TABLE_MAX_ORDER
    c = random_class_union(g, random.Random(g.order))
    table = character_table.__wrapped__(g)
    for t in (math.pi / 2, 0.7):
        phases = np.exp(1j * t * (table @ _indicator(g, c)))
        expected = phases @ table / g.order
        assert np.abs(_identity_row(g, c, t) - expected).max() < 1e-9


def test_fft_detection_above_table_size():
    z1024 = group("Z1024")
    c = cset(z1024, [(256,), (768,)])
    found = detect_pst_numeric(z1024, c, math.pi / 2)
    assert found is not None
    assert found.target == elem(z1024, 512)
    assert abs(found.phase) == pytest.approx(1, abs=1e-9)
    assert is_periodic_numeric(z1024, c, math.pi)
    amp = transition_amplitude(z1024, c, elem(z1024, 3), elem(z1024, 515), math.pi / 2)
    assert abs(amp) == pytest.approx(1, abs=1e-9)
