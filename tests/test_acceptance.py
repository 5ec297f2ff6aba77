"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and instance counts.
"""

import math
import random
import time
from dataclasses import astuple, dataclass

import numpy as np
import pytest

from cayleypst import (
    AbelianGroup,
    ConnectionSet,
    NonIntegralSpectrumError,
    Verdict,
    character_criterion,
    characterize_pst,
    delta,
    dense_expm,
    detect_pst_numeric,
    integral_spectrum,
    is_periodic_numeric,
    is_power_closed,
    list_power_classes,
    parity_report,
    parse_group,
    reduce_to_4m,
    transition_amplitude,
    transition_matrix,
    unique_involution,
)
from conftest import class_unions, inverse_closed_subsets, two_part, z433_transfer_sets

HALF_PI = math.pi / 2

# every abelian group with cyclic Sylow-2-subgroup and order <= 36
SWEEP_GROUPS = [
    "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z3xZ3", "Z10", "Z12",
    "Z4xZ3", "Z15", "Z16", "Z8xZ3", "Z4xZ5", "Z4xZ7", "Z2xZ9", "Z2xZ3xZ3",
    "Z32", "Z4xZ9", "Z4xZ3xZ3",
]

# all abelian groups of order <= 16, up to isomorphism
SMALL_GROUPS_16 = [
    "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z4xZ2", "Z2xZ2xZ2",
    "Z9", "Z3xZ3", "Z10", "Z11", "Z12", "Z2xZ6", "Z13", "Z14", "Z15",
    "Z16", "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2",
]

# all odd-order abelian groups of order <= 27, up to isomorphism
ODD_GROUPS_27 = [
    "Z3", "Z5", "Z7", "Z9", "Z3xZ3", "Z11", "Z13", "Z15", "Z17", "Z19",
    "Z21", "Z23", "Z25", "Z5xZ5", "Z27", "Z9xZ3", "Z3xZ3xZ3",
]

# all cyclic-Sylow-2 groups with d >= 2 and order <= 48, up to isomorphism
D2_GROUPS_48 = [
    "Z4", "Z8", "Z16", "Z32", "Z4xZ3", "Z4xZ5", "Z4xZ7", "Z4xZ9",
    "Z4xZ3xZ3", "Z4xZ11", "Z8xZ3", "Z8xZ5", "Z16xZ3",
]


@dataclass
class SweepRecord:
    connection_set: ConnectionSet
    report: object
    criterion: bool
    detection: object


@pytest.fixture(scope="module")
def sweep():
    """Three independent PST decisions for every class union of every group."""
    started = time.perf_counter()
    results = {}
    for spec in SWEEP_GROUPS:
        g = parse_group(spec)
        records = []
        for cset in class_unions(g):
            report = characterize_pst(g, cset)
            criterion = character_criterion(g, cset)
            detection = detect_pst_numeric(g, cset, HALF_PI)
            records.append(SweepRecord(cset, report, criterion, detection))
        results[spec] = (g, records)
    elapsed = time.perf_counter() - started
    return results, elapsed


def _emit(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


def test_criterion_01_reference_36_vertex_example():
    started = time.perf_counter()
    g, with_a, with_b = z433_transfer_sets()
    involution = unique_involution(g)
    ok = True
    for cset in (with_a, with_b):
        report = characterize_pst(g, cset)
        ok &= report.verdict is Verdict.PST
        ok &= report.pair == (g.identity, involution) and involution.coords == (2, 0, 0)
        ok &= report.time == "pi/2" and abs(report.time_value - HALF_PI) < 1e-15
        amplitude = transition_amplitude(g, cset, g.identity, involution, HALF_PI)
        ok &= abs(amplitude) >= 1 - 1e-9
        character_route = transition_matrix(g, cset, HALF_PI).entries
        dense_route = dense_expm(g, cset, HALF_PI).entries
        ok &= float(np.max(np.abs(character_route - dense_route))) <= 1e-9
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    _emit(1, "reference 36-vertex example", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_02_three_way_agreement(sweep):
    results, elapsed = sweep
    instances = 0
    positives = 0
    mismatches = []
    for spec, (g, records) in results.items():
        for record in records:
            instances += 1
            algebraic = record.report.verdict is Verdict.PST
            numeric = record.detection is not None
            if not (algebraic == record.criterion == numeric):
                mismatches.append((spec, record))
            elif algebraic:
                positives += 1
                if record.detection.target != record.report.pair[1]:
                    mismatches.append((spec, record))
    ok = not mismatches and elapsed < 300.0
    _emit(
        2,
        "exhaustive three-way agreement",
        ok,
        f"{instances} sets across {len(results)} groups, {positives} positive, {elapsed:.1f}s",
    )
    assert not mismatches, mismatches[:3]
    assert elapsed < 300.0


def test_criterion_03_transfer_time_gap_is_two(sweep):
    results, _ = sweep
    checked = 0
    bad = []
    for spec, (g, records) in results.items():
        for record in records:
            if record.report.verdict is Verdict.PST:
                checked += 1
                gap = delta(integral_spectrum(g, record.connection_set))
                if gap != 2:
                    bad.append((spec, record.connection_set, gap))
    _emit(3, "every positive has gap delta = 2", not bad, f"{checked} positives")
    assert not bad, bad[:3]


def test_criterion_04_reduction_preserves_verdicts(sweep):
    results, _ = sweep
    checked = 0
    bad = []
    for spec, (g, records) in results.items():
        if g.d < 2:
            continue
        for record in records:
            checked += 1
            reduced = characterize_pst(*reduce_to_4m(g, record.connection_set))
            if reduced.verdict != record.report.verdict:
                bad.append((spec, record.connection_set))
    _emit(4, "order-4m reduction preserves verdicts", not bad, f"{checked} instances")
    assert not bad, bad[:3]


def test_criterion_05_integral_iff_power_closed():
    checked = 0
    bad = []
    for spec in SMALL_GROUPS_16:
        g = parse_group(spec)
        for cset in inverse_closed_subsets(g):
            checked += 1
            closed = is_power_closed(cset)
            try:
                integral_spectrum(g, cset)
                succeeded = True
            except NonIntegralSpectrumError:
                succeeded = False
            if succeeded != closed:
                bad.append((spec, cset))
    _emit(
        5,
        "integral spectrum iff power-closed",
        not bad,
        f"{checked} subsets across {len(SMALL_GROUPS_16)} groups",
    )
    assert not bad, bad[:3]


def test_criterion_06_odd_order_groups_have_odd_eigenvalue():
    checked = 0
    bad = []
    for spec in ODD_GROUPS_27:
        g = parse_group(spec)
        for cset in class_unions(g, include_empty=False):
            checked += 1
            spectrum = integral_spectrum(g, cset)
            if not any(value % 2 for value in spectrum.eigenvalues):
                bad.append((spec, cset))
    _emit(6, "odd-order integral graphs have an odd eigenvalue", not bad, f"{checked} sets")
    assert not bad, bad[:3]


def test_criterion_07_parity_facts():
    checked = 0
    bad = []
    for spec in D2_GROUPS_48:
        g = parse_group(spec)
        for cset in class_unions(g):
            checked += 1
            if not all(astuple(parity_report(g, cset))):
                bad.append((spec, cset))
    _emit(
        7,
        "parity facts for every power-closed set",
        not bad,
        f"{checked} sets across {len(D2_GROUPS_48)} groups",
    )
    assert not bad, bad[:3]


def test_criterion_08_positive_d2_spectra(sweep):
    results, _ = sweep
    checked = 0
    bad = []
    for spec, (g, records) in results.items():
        if g.d != 2:
            continue
        involution = unique_involution(g)
        for record in records:
            if record.report.verdict is not Verdict.PST:
                continue
            checked += 1
            eigenvalues = integral_spectrum(g, record.connection_set).eigenvalues
            half = g.order // 2
            if involution in record.connection_set:
                good = all(v % 2 for v in eigenvalues) and eigenvalues.get(-1, 0) == half
            else:
                good = all(v % 2 == 0 for v in eigenvalues) and eigenvalues.get(0, 0) == half
            if not good:
                bad.append((spec, record.connection_set))
    _emit(8, "spectra of positive order-4m instances", not bad, f"{checked} positives")
    assert not bad, bad[:3]


def test_criterion_09_high_valuation_classes_periodic():
    checked = 0
    bad = []
    for spec in ("Z8xZ3", "Z16"):
        g = parse_group(spec)
        identity = g.identity
        by_valuation = {}
        for cls in list_power_classes(g):
            if identity in cls:
                continue
            k = two_part(next(iter(cls)).order)[0]
            by_valuation.setdefault(k, []).append(cls)
        for k, classes in by_valuation.items():
            if k < 3:
                continue
            for mask in range(1, 1 << len(classes)):
                members = set()
                for i, cls in enumerate(classes):
                    if (mask >> i) & 1:
                        members.update(cls)
                cset = ConnectionSet(g, frozenset(members))
                checked += 1
                divisor = 1 << (k - 1)
                spectrum = integral_spectrum(g, cset)
                if not is_periodic_numeric(g, cset, HALF_PI):
                    bad.append((spec, k, "not periodic"))
                if any(value % divisor for value in spectrum.eigenvalues):
                    bad.append((spec, k, "eigenvalue not divisible"))
    _emit(9, "valuation >= 3 parts periodic at pi/2", not bad, f"{checked} sets")
    assert not bad, bad


def test_criterion_10_walk_self_consistency():
    rng = random.Random(20260808)
    factor_pool = [2, 3, 4, 5, 6, 7, 8, 9]

    def random_group():
        while True:
            rank = rng.randint(1, 3)
            factors = tuple(rng.choice(factor_pool) for _ in range(rank))
            if math.prod(factors) <= 64:
                return AbelianGroup(factors)

    checked = 0
    bad = []
    for _ in range(100):
        g = random_group()
        identity = g.identity
        classes = [cls for cls in list_power_classes(g) if identity not in cls]
        first, second = set(), set()
        for cls in classes:
            if rng.random() < 0.5:
                (first if rng.random() < 0.5 else second).update(cls)
        cset = ConnectionSet(g, frozenset(first | second))
        t = rng.uniform(0.0, 2 * math.pi)
        u = transition_matrix(g, cset, t).entries
        checked += 1

        unitarity = float(np.max(np.abs(u @ u.conj().T - np.eye(g.order))))
        symmetry = float(np.max(np.abs(np.abs(u) - np.abs(u).T)))
        product = (
            transition_matrix(g, ConnectionSet(g, frozenset(first)), t).entries
            @ transition_matrix(g, ConnectionSet(g, frozenset(second)), t).entries
        )
        factorization = float(np.max(np.abs(u - product)))
        agreement = float(np.max(np.abs(u - dense_expm(g, cset, t).entries)))
        worst = max(unitarity, symmetry, factorization, agreement)
        if worst > 1e-9:
            bad.append((str(g), t, worst))
    _emit(10, "walk self-consistency on random samples", not bad, f"{checked} samples")
    assert not bad, bad[:3]
