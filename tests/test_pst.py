"""The characterization engine: verdicts, reductions, criteria, enumeration."""

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleypst import (
    AbelianGroup,
    CapExceededError,
    ConnectionSet,
    CrossValidationError,
    NonIntegralSpectrumError,
    Verdict,
    character_criterion,
    characterize_pst,
    check_4m_conditions,
    delta,
    detect_pst_numeric,
    enumerate_pst_sets,
    integral_spectrum,
    list_power_classes,
    parity_report,
    reduce_to_4m,
    sylow2_cyclic,
    transition_matrix,
    unique_involution,
)
import cayleypst.pst
from conftest import (
    CONDITIONS_4M,
    MEMBER_CONDITIONS,
    PARITY_FACTS,
    brute_member_flags,
    brute_subgroup_4m,
    class_unions,
    cset,
    group,
    inverse_closed_subsets,
    loop_character_criterion,
    random_class_union,
    z433_transfer_sets,
)


def test_reference_36_vertex_sets_have_transfer(z433_sets):
    g, with_a, with_b = z433_sets
    for c in (with_a, with_b):
        report = characterize_pst(g, c)
        assert report.verdict is Verdict.PST
        assert report.pair[0] == g.identity
        assert report.pair[1].coords == (2, 0, 0)
        assert report.time == "pi/2"
        assert report.time_value == pytest.approx(math.pi / 2)
        assert all(report.conditions.values())


def test_odd_order_never_has_transfer():
    z5 = group("Z5")
    report = characterize_pst(z5, cset(z5, [(1,), (4,)]))
    assert report.verdict is Verdict.NO_PST
    assert report.conditions == {"odd_order_case": False}
    assert report.pair is None and report.time is None


def test_order_2m_matching_rule():
    z6 = group("Z6")
    matching = characterize_pst(z6, cset(z6, [(3,)]))
    assert matching.verdict is Verdict.PST
    assert matching.pair[1].coords == (3,)
    assert matching.conditions == {"matching_case": True}
    hexagon = characterize_pst(z6, cset(z6, [(1,), (5,)]))
    assert hexagon.verdict is Verdict.NO_PST
    z2 = group("Z2")
    assert characterize_pst(z2, cset(z2, [(1,)])).verdict is Verdict.PST


def test_four_cycle_and_matching_in_z4():
    z4 = group("Z4")
    square = characterize_pst(z4, cset(z4, [(1,), (3,)]))
    assert square.verdict is Verdict.PST
    assert square.pair[1].coords == (2,)
    assert characterize_pst(z4, cset(z4, [(2,)])).verdict is Verdict.PST
    both = characterize_pst(z4, cset(z4, [(1,), (2,), (3,)]))
    assert both.verdict is Verdict.NO_PST
    assert not both.conditions["exactly_one_of_a_b"]
    assert both.diagnostics


def test_verdict_out_of_scope_iff_noncyclic_sylow2():
    for spec in ("Z2xZ2", "Z2xZ4", "Z2xZ2xZ3", "Z4", "Z6", "Z15", "Z8xZ3"):
        g = group(spec)
        report = characterize_pst(g, cset(g, []))
        assert (report.verdict is Verdict.OUT_OF_SCOPE) == (not sylow2_cyclic(g))


def test_empty_set_is_never_positive():
    for spec in ("Z2", "Z4", "Z5", "Z12"):
        g = group(spec)
        assert characterize_pst(g, cset(g, [])).verdict is not Verdict.PST


def test_involution_alone_is_a_matching_for_higher_d():
    # {a} gives a perfect matching for every cyclic-Sylow-2 group; the
    # structural conditions and the numeric scan must both accept it
    for spec in ("Z4", "Z8", "Z12", "Z16", "Z4xZ9"):
        g = group(spec)
        a = unique_involution(g)
        c = ConnectionSet(g, frozenset({a}))
        assert characterize_pst(g, c).verdict is Verdict.PST
        assert detect_pst_numeric(g, c, math.pi / 2).target == a


def test_higher_valuation_classes_do_not_disturb_transfer():
    z16 = group("Z16")
    c = cset(z16, [(4,), (12,), (2,), (6,), (10,), (14,)])
    assert characterize_pst(z16, c).verdict is Verdict.PST
    assert detect_pst_numeric(z16, c, math.pi / 2).target.coords == (8,)


def test_report_json_shape(z433_sets):
    g, with_a, _ = z433_sets
    doc = characterize_pst(g, with_a).to_json_dict()
    assert list(doc) == ["verdict", "pair", "time", "time_value", "conditions", "diagnostics"]
    assert doc["verdict"] == "PST"
    assert doc["pair"] == [[0, 0, 0], [2, 0, 0]]
    assert doc["time"] == "pi/2"
    assert doc["time_value"] == pytest.approx(math.pi / 2)


def test_result_types_compare_without_raising(z433_sets):
    g, with_a, _ = z433_sets
    report = characterize_pst(g, with_a)
    assert report == characterize_pst(g, with_a)
    # its conditions are a dict, so a report is unhashable, and says so by its own name
    with pytest.raises(TypeError, match="unhashable type: 'PstReport'"):
        hash(report)
    # a transition matrix holds an array, so == and hash() go by identity
    first, second = (transition_matrix(g, with_a, math.pi / 2) for _ in range(2))
    assert first == first and (first == second) is False
    assert hash(first) != hash(second)


def test_check_4m_conditions(z433_sets):
    g, with_a, with_b = z433_sets
    assert check_4m_conditions(g, with_a).verdict is Verdict.PST
    assert check_4m_conditions(g, with_b).verdict is Verdict.PST
    z4 = group("Z4")
    assert check_4m_conditions(z4, cset(z4, [(2,)])).verdict is Verdict.PST
    bad = check_4m_conditions(z4, cset(z4, [(1,), (2,), (3,)]))
    assert bad.verdict is Verdict.NO_PST
    assert not bad.conditions["exactly_one_of_a_b"]


def test_check_4m_requires_d_exactly_two():
    z8 = group("Z8")
    with pytest.raises(ValueError):
        check_4m_conditions(z8, cset(z8, [(4,)]))
    z6 = group("Z6")
    with pytest.raises(ValueError):
        check_4m_conditions(z6, cset(z6, [(3,)]))


@pytest.mark.parametrize("spec", ["Z4", "Z12", "Z4xZ3", "Z4xZ5"])
def test_check_4m_agrees_with_general_characterization(spec):
    g = group(spec)
    for c in class_unions(g):
        assert check_4m_conditions(g, c).verdict == characterize_pst(g, c).verdict


def test_member_level_flags_match_the_element_oracle():
    # every inverse-closed set, most of them not power-closed, so the member route decides them
    checked = 0
    for spec in ("Z4", "Z8", "Z12", "Z4xZ3", "Z16", "Z20", "Z8xZ3"):
        g = group(spec)
        flags = brute_member_flags(g)
        for c in inverse_closed_subsets(g):
            checked += 1
            expected = flags(c.elements)
            found = cayleypst.pst._member_conditions(g, c)
            assert list(found.items()) == [(name, expected[name]) for name in MEMBER_CONDITIONS]
            if g.d == 2:
                found = check_4m_conditions(g, c).conditions
                assert list(found.items()) == [(name, expected[name]) for name in CONDITIONS_4M]
            if expected["power_closed"]:
                found = dataclasses.asdict(parity_report(g, c))
                assert list(found.items()) == [(name, expected[name]) for name in PARITY_FACTS]
    assert checked == 5524


def test_reduce_to_4m_examples():
    g = group("Z4xZ3xZ3")
    reduced_group, reduced_set = reduce_to_4m(g, cset(g, [(1, 0, 0), (3, 0, 0)]))
    assert reduced_group == g
    assert len(reduced_set) == 2

    z8xz3 = group("Z8xZ3")
    order8 = cset(z8xz3, [(1, 0), (3, 0), (5, 0), (7, 0)])
    reduced_group, reduced_set = reduce_to_4m(z8xz3, order8)
    assert reduced_group.factors == (4, 3)
    assert len(reduced_set) == 0

    z16 = group("Z16")
    mixed = cset(z16, [(4,), (12,), (8,)])
    reduced_group, reduced_set = reduce_to_4m(z16, mixed)
    assert reduced_group.factors == (4,)
    assert {x.coords[0] for x in reduced_set.elements} == {1, 2, 3}


@pytest.mark.parametrize("spec", ["Z3xZ16xZ5", "Z5xZ32", "Z8xZ9"])
def test_reduce_to_4m_relabels_like_to_subgroup(spec):
    g = group(spec)
    sub, relabel = brute_subgroup_4m(g)
    elements = list(g.elements())
    rng = random.Random(g.order)
    for _ in range(10):
        picked = rng.sample(elements, 12)
        c = ConnectionSet.from_elements(g, picked + [-x for x in picked])
        kept = frozenset(relabel[x] for x in c if x in relabel)
        assert reduce_to_4m(g, c) == (sub, ConnectionSet(sub, kept))


def test_reduce_to_4m_preserves_verdicts():
    for spec in ("Z8", "Z16", "Z8xZ3"):
        g = group(spec)
        for c in class_unions(g):
            before = characterize_pst(g, c).verdict
            after = characterize_pst(*reduce_to_4m(g, c)).verdict
            assert before == after, f"{spec}: {sorted(x.coords for x in c.elements)}"


def test_character_criterion_examples(z433_sets):
    z2 = group("Z2")
    assert character_criterion(z2, cset(z2, [(1,)]))
    g, with_a, _ = z433_sets
    assert character_criterion(g, with_a)
    z6 = group("Z6")
    assert not character_criterion(z6, cset(z6, [(1,), (5,)]))


def test_character_criterion_edge_cases():
    z5 = group("Z5")
    assert not character_criterion(z5, cset(z5, [(1,), (2,), (3,), (4,)]))
    z4 = group("Z4")
    assert not character_criterion(z4, cset(z4, []))  # no gap defined
    z12 = group("Z12")
    with pytest.raises(NonIntegralSpectrumError):
        character_criterion(z12, cset(z12, [(1,), (11,)]))


def test_parity_report_reference_sets(z433_sets):
    g, with_a, with_b = z433_sets
    for c in (with_a, with_b):
        assert all(dataclasses.astuple(parity_report(g, c)))
    z4 = group("Z4")
    assert all(dataclasses.astuple(parity_report(z4, cset(z4, [(2,)]))))
    assert all(dataclasses.astuple(parity_report(z4, cset(z4, [(1,), (3,)]))))


def test_parity_report_preconditions():
    z6 = group("Z6")
    with pytest.raises(ValueError):
        parity_report(z6, cset(z6, [(3,)]))
    z12 = group("Z12")
    with pytest.raises(ValueError):
        parity_report(z12, cset(z12, [(1,), (11,)]))  # not power-closed


def test_enumerate_small_groups():
    z2 = group("Z2")
    found = enumerate_pst_sets(z2)
    assert [sorted(x.coords[0] for x in c.elements) for c in found] == [[1]]
    z4 = group("Z4")
    found = enumerate_pst_sets(z4)
    assert [sorted(x.coords[0] for x in c.elements) for c in found] == [[2], [1, 3]]
    assert enumerate_pst_sets(group("Z3")) == []


def test_enumerate_is_cross_validated_and_canonical():
    z12 = group("Z12")
    found = enumerate_pst_sets(z12)
    sizes = [len(c) for c in found]
    assert sizes == sorted(sizes)
    for c in found:
        assert characterize_pst(z12, c).verdict is Verdict.PST
        assert detect_pst_numeric(z12, c, math.pi / 2) is not None
    # every positive has gap exactly two
    for c in found:
        assert delta(integral_spectrum(z12, c)) == 2


def test_enumerate_rejects_out_of_scope_and_cap():
    with pytest.raises(ValueError):
        enumerate_pst_sets(group("Z2xZ2"))
    with pytest.raises(CapExceededError, match="24 power classes, and 2\\^24 is above the cap"):
        enumerate_pst_sets(group("Z4xZ3xZ5xZ7"))


def test_enumerate_cross_validation_mismatch_aborts(monkeypatch):
    # force the numeric route to stay silent so the first positive candidate
    # triggers the abort path
    monkeypatch.setattr(cayleypst.pst, "detect_pst_numeric", lambda *a, **k: None)
    with pytest.raises(CrossValidationError) as err:
        enumerate_pst_sets(group("Z4"))
    assert err.value.connection_set is not None


def test_errors_survive_pickling():
    z5 = group("Z5")
    with pytest.raises(NonIntegralSpectrumError) as spectral:
        integral_spectrum(z5, cset(z5, [(1,), (4,)]))
    copy = pickle.loads(pickle.dumps(spectral.value))
    assert (copy.index, copy.value, str(copy)) == (
        spectral.value.index,
        spectral.value.value,
        str(spectral.value),
    )
    z8 = group("Z8")
    c = cset(z8, [(2,), (6,)])
    for detection in (None, detect_pst_numeric(z8, c, math.pi / 2)):
        err = CrossValidationError(c, characterize_pst(z8, c), detection)
        copy = pickle.loads(pickle.dumps(err))
        assert (copy.connection_set, copy.report, copy.detection, str(copy)) == (
            err.connection_set,
            err.report,
            err.detection,
            str(err),
        )


def test_enumerate_cross_validates_above_order_128(monkeypatch):
    # order 160: every census is checked against the numeric scan, at any order
    monkeypatch.setattr(cayleypst.pst, "detect_pst_numeric", lambda *a, **k: None)
    with pytest.raises(CrossValidationError):
        enumerate_pst_sets(group("Z32xZ5"))


def test_scan_agrees_compares_verdict_target_and_scope():
    from cayleypst.pst import scan_agrees
    from cayleypst.walk import PstDetection

    g, with_a, _ = z433_transfer_sets()
    positive = characterize_pst(g, with_a)
    negative = characterize_pst(g, cset(g, [(0, 1, 0), (0, 2, 0)]))
    out_of_scope = characterize_pst(group("Z2xZ2"), cset(group("Z2xZ2"), [(0, 1)]))
    hit = PstDetection(g.identity, unique_involution(g), 1j)
    elsewhere = PstDetection(g.identity, g.element((0, 1, 0)), 1j)
    assert scan_agrees(positive, hit) is True
    assert scan_agrees(positive, elsewhere) is False
    assert scan_agrees(positive, None) is False
    assert scan_agrees(negative, None) is True
    assert scan_agrees(negative, hit) is False
    assert scan_agrees(out_of_scope, None) is None
    assert scan_agrees(out_of_scope, hit) is None


@st.composite
def groups_by_two_part(draw):
    """Groups of order <= 180 with d = 0, 1, 2 or 3; a few have a non-cyclic Sylow-2-subgroup."""
    factors = draw(st.lists(st.sampled_from([3, 5, 7, 9, 15]), max_size=2))
    d = draw(st.integers(0, 3))
    if d:
        slot = draw(st.integers(0, len(factors)))
        if slot == len(factors):
            factors.append(2**d)
        else:
            factors[slot] *= 2**d
    if draw(st.integers(0, 5)) == 0:
        factors.append(2)
    return AbelianGroup(tuple(factors or [3]))


def criterion_outcome(criterion, g, c):
    try:
        return criterion(g, c)
    except (NonIntegralSpectrumError, ValueError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(groups_by_two_part(), st.integers(0, 2**32 - 1))
def test_vectorized_character_criterion_matches_the_character_loop(g, seed):
    assume(g.order <= 180)
    rng = random.Random(seed)
    candidates = [random_class_union(g, rng) for _ in range(3)]
    # one inverse pair out of a class of more than two elements: not power-closed
    cls = max(list_power_classes(g), key=len)
    if len(cls) > 2:
        x = min(cls, key=lambda y: y.coords)
        candidates.append(ConnectionSet(g, [x, -x]))
    if sylow2_cyclic(g) and len(list_power_classes(g)) <= 8:
        candidates += enumerate_pst_sets(g)
    for c in candidates:
        expected = criterion_outcome(loop_character_criterion, g, c)
        assert criterion_outcome(character_criterion, g, c) == expected, c
