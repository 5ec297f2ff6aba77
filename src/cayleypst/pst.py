"""Exact decision procedures for perfect state transfer on translation graphs.

Three independent routes are provided: the structural conditions on the
connection set (the main characterization), a character-phase identity over
the integer spectrum, and the numeric row scan from the walk module.  They
must always agree on groups with a cyclic Sylow-2-subgroup; the enumeration
helper can enforce that agreement candidate by candidate.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .groups import (
    MAX_ORDER,
    AbelianGroup,
    CapExceededError,
    ConnectionSet,
    GroupElement,
    _class_mask,
    _divisor_functions,
    _even_factor_index,
    _multiples,
    _odd_component_multiplier,
    _require_bound_set,
    _tables,
    _valuations,
    is_power_closed,
    power_class_indices,
    subgroup_4m,
    sylow2_cyclic,
    two_part,
)
from .spectra import _class_spectrum, integral_spectrum
from .walk import detect_pst_numeric

TRANSFER_TIME = math.pi / 2
_TIME_LABEL = "pi/2"
CROSS_VALIDATE_MAX_ORDER = 128
# Census candidates whose class masks, and then spectra, are built in one numpy call.
_CANDIDATE_BLOCK = 512


class Verdict(str, enum.Enum):
    PST = "PST"
    NO_PST = "NoPST"
    OUT_OF_SCOPE = "OutOfScope"


class CrossValidationError(Exception):
    """The structural verdict and the numeric row scan disagree.

    Carries the offending connection set; this should never fire and means a
    genuine bug somewhere.
    """

    def __init__(self, connection_set: ConnectionSet, report: "PstReport", detection):
        self.connection_set = connection_set
        self.report = report
        self.detection = detection
        numeric = "fired" if detection is not None else "found nothing"
        super().__init__(
            f"structural verdict {report.verdict.value} but the numeric scan {numeric} "
            f"for {connection_set!r}"
        )


@dataclass(frozen=True)
class PstReport:
    """Outcome of a transfer check: verdict, pair, time, and per-condition flags."""

    verdict: Verdict
    pair: tuple[GroupElement, GroupElement] | None
    time: str | None
    time_value: float | None
    conditions: dict[str, bool]
    diagnostics: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "pair": None if self.pair is None else [list(g.coords) for g in self.pair],
            "time": self.time,
            "time_value": self.time_value,
            "conditions": dict(self.conditions),
            "diagnostics": list(self.diagnostics),
        }


def _report(verdict, pair, time, time_value, conditions, diagnostics) -> PstReport:
    """A report from fields already of the right types; skips the frozen dataclass's __init__."""
    report = object.__new__(PstReport)
    state = report.__dict__
    state["verdict"] = verdict
    state["pair"] = pair
    state["time"] = time
    state["time_value"] = time_value
    state["conditions"] = conditions
    state["diagnostics"] = diagnostics
    return report


def _positive(tables, conditions: dict[str, bool]) -> PstReport:
    return _report(Verdict.PST, tables.transfer_pair, _TIME_LABEL, TRANSFER_TIME, conditions, ())


def _negative(conditions: dict[str, bool], diagnostics: tuple[str, ...]) -> PstReport:
    return _report(Verdict.NO_PST, None, None, None, conditions, diagnostics)


def _decided(tables, conditions: dict[str, bool]) -> PstReport:
    """The verdict of a dict of conditions: transfer iff all of them hold."""
    failed = tuple([f"condition {name} failed" for name, ok in conditions.items() if not ok])
    if failed:
        return _negative(conditions, failed)
    return _positive(tables, conditions)


def _valuation_buckets(connection_set: ConnectionSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted member indices of C_0, C_1 and C_2 (element order 2**k * odd, k = 0, 1, 2)."""
    indices = connection_set.indices
    valuation = _valuations(connection_set.group, indices)
    return indices[valuation == 0], indices[valuation == 1], indices[valuation == 2]


def _same_set(sorted_indices: np.ndarray, values: np.ndarray) -> bool:
    """True iff the distinct `values` are exactly the sorted, distinct `sorted_indices`."""
    # Python sets beat np.unique on the few dozen indices of a typical set
    return sorted(set(values.tolist())) == sorted_indices.tolist()


def scan_agrees(report: PstReport, detection) -> bool | None:
    """Whether a numeric row scan at pi/2 confirms a verdict.

    True when the scan fired exactly for a PST verdict and found its target;
    None for an OutOfScope verdict, which claims nothing.
    """
    if report.verdict is Verdict.OUT_OF_SCOPE:
        return None
    claimed = report.verdict is Verdict.PST
    if (detection is not None) != claimed:
        return False
    return not claimed or detection.target == report.pair[1]


def _member_conditions(tables, connection_set: ConnectionSet) -> dict[str, bool]:
    """The four conditions for d >= 2, member by member, for any connection set."""
    a, b, b_inv = tables.transfer_indices
    members = connection_set.indices.tolist()
    c0, c1, c2 = _valuation_buckets(connection_set)
    core = c2[(c2 != b) & (c2 != b_inv)]
    return {
        "power_closed": is_power_closed(connection_set),
        "exactly_one_of_a_b": (a in members) != (b in members),
        "c0_equals_4c2": _same_set(c0, _multiples(tables.group, 4, core)),
        "c1_equals_2c2": _same_set(c1[c1 != a], _multiples(tables.group, 2, core)),
    }


def _class_conditions(tables, mask: np.ndarray) -> dict[str, bool]:
    """The four conditions for d >= 2 of a power-closed set, from its 0/1 class mask.

    x2 and x4 map a power class onto a power class, so both sides of
    C_0 = 4*(C_2 minus {b, -b}) and C_1 minus {a} = 2*(C_2 minus {b, -b}) are
    unions of classes, and each holds iff every class of C_2 other than
    {b, -b} is met exactly when its image is (_IndexTables.condition_pickers).
    {a} and {b, -b} are classes of their own.
    """
    a, b, core, fourfold, twofold = tables.condition_pickers
    # k is small: Python lists beat numpy calls on arrays this short
    meets = mask.tolist()
    met = core(meets)
    return {
        "power_closed": True,
        "exactly_one_of_a_b": meets[a] != meets[b],
        "c0_equals_4c2": fourfold(meets) == met,
        "c1_equals_2c2": twofold(meets) == met,
    }


def characterize_pst(group: AbelianGroup, connection_set: ConnectionSet) -> PstReport:
    """Decide perfect state transfer from the structure of the connection set.

    Groups whose Sylow-2-subgroup is not cyclic yield an OutOfScope verdict
    rather than an error.  Writing |G| = 2**d * m with m odd: d = 0 never has
    transfer; d = 1 has it exactly for the perfect matching C = {a}; for
    d >= 2 transfer holds iff C is power-closed, exactly one of a (the
    involution) and b (an order-four element) lies in C, and the valuation
    buckets satisfy C_0 = 4*(C_2 minus {b, -b}) and C_1 minus {a} = 2*(C_2
    minus {b, -b}).  Positive verdicts always name the pair (identity, a) and
    the time pi/2.  A power-closed set is decided on its class mask; only a
    set that is not power-closed is checked member by member.
    """
    _require_bound_set(group, connection_set)
    tables = _tables(group)
    # the class route first: it is the census's and most sweeps' case
    if group.d >= 2 and tables.sylow2_cyclic and is_power_closed(connection_set):
        return _decided(tables, _class_conditions(tables, _class_mask(connection_set)))
    if not tables.sylow2_cyclic:
        return _report(
            Verdict.OUT_OF_SCOPE,
            None,
            None,
            None,
            {},
            (f"the Sylow-2-subgroup of {group} is not cyclic; the characterization does not apply",),
        )
    if group.d == 0:
        return _negative(
            {"odd_order_case": False},
            ("a Cayley graph of an odd-order group never admits perfect state transfer",),
        )
    if group.d == 1:
        involution = tables.transfer_pair[1]
        if connection_set.indices.tolist() == [group.index_of(involution)]:
            return _positive(tables, {"matching_case": True})
        return _negative(
            {"matching_case": False},
            (
                "for groups of order 2m with m odd, only the perfect matching "
                f"C = {{{involution}}} admits transfer",
            ),
        )
    return _decided(tables, _member_conditions(tables, connection_set))


def check_4m_conditions(group: AbelianGroup, connection_set: ConnectionSet) -> PstReport:
    """Transfer conditions specialized to groups of order exactly 4m, m odd.

    The valuation-1 and valuation-2 buckets factor through the odd-order part
    as C_1 = {a} + C_1* and C_2 = {b, -b} + C_2*; transfer holds iff C is
    power-closed, exactly one of a and b lies in C, and
    C_0 = C_1* minus {0} = C_2* minus {0}.
    """
    _require_bound_set(group, connection_set)
    if not sylow2_cyclic(group) or group.d != 2:
        raise ValueError(f"{group} must have order 4m with m odd (d = 2 exactly)")
    tables = _tables(group)
    a, b, _ = tables.transfer_indices
    members = connection_set.indices.tolist()
    c0, c1, c2 = _valuation_buckets(connection_set)
    odd = _odd_component_multiplier(group)
    c1_star = _multiples(group, odd, c1)
    c2_star = _multiples(group, odd, c2)
    # the identity has index 0
    conditions = {
        "power_closed": is_power_closed(connection_set),
        "exactly_one_of_a_b": (a in members) != (b in members),
        "c0_equals_c1_star": _same_set(c0, c1_star[c1_star != 0]),
        "c0_equals_c2_star": _same_set(c0, c2_star[c2_star != 0]),
    }
    return _decided(tables, conditions)


def reduce_to_4m(
    group: AbelianGroup, connection_set: ConnectionSet
) -> tuple[AbelianGroup, ConnectionSet]:
    """Project onto the order-4m subgroup: transfer survives both directions.

    Returns the relabeled subgroup and the intersected connection set (the
    elements of valuation at most 2).
    """
    _require_bound_set(group, connection_set)
    embedding = subgroup_4m(group)
    inner, scale = math.prod(group.factors[embedding.even_index + 1 :]), embedding.scale
    # an index is low + inner * high with low < inner; high, whose last place is the
    # even coordinate, is a multiple of scale exactly on a member, and high / scale relabels it
    high, low = np.divmod(connection_set.indices, inner)
    member = high % scale == 0
    kept = high[member] // scale * inner + low[member]
    return embedding.group, ConnectionSet._from_indices(embedding.group, kept)


def character_criterion(group: AbelianGroup, connection_set: ConnectionSet) -> bool:
    """Third decision route: the transfer-phase identity over all characters.

    True iff chi(a) = (-1)**((|C| - chi(C)) / delta) for every character chi,
    where a is the unique involution and delta the gcd of eigenvalue gaps;
    this holds exactly when transfer from the identity to a occurs at time
    pi/delta.  Returns False when no involution exists (odd order) or when
    delta is undefined (a single eigenvalue); propagates
    NonIntegralSpectrumError for non-power-closed sets.  On the class-space
    route it reads the k class eigenvalues, not the |G|-length spectrum.
    """
    _require_bound_set(group, connection_set)
    per_class = _class_spectrum(group, connection_set) if len(connection_set) else None
    if per_class is None:
        # every character; NonIntegralSpectrumError unless the set is power-closed
        values, characters = integral_spectrum(group, connection_set).values, np.arange(group.order)
    else:
        # one character of each dual power class
        values, characters = per_class.astype(np.int64), _tables(group).class_reps
    if group.d == 0:
        return False
    even = _even_factor_index(group)  # ValueError unless the Sylow-2-subgroup is cyclic
    # a is n/2 on the even factor Z_n and 0 elsewhere, so chi_j(a) = (-1)**j_e, with
    # j_e the character's coordinate on that factor; units are odd and n is even,
    # so j_e has one parity across a dual power class
    n, inner = group.factors[even], math.prod(group.factors[even + 1 :])
    gap = int(np.gcd.reduce(values.max() - values))
    if not gap:
        return False
    # |C| is the top eigenvalue, so the gap divides every |C| - chi(C)
    steps = (len(connection_set) - values) // gap
    return bool((steps % 2 == characters // inner % n % 2).all())


@dataclass(frozen=True)
class ParityReport:
    """Size parities of the valuation buckets against membership of a and b."""

    c0_even: bool
    c2_even: bool
    c1_odd_iff_a: bool
    c2_div4_iff_no_b: bool

    @property
    def all_hold(self) -> bool:
        return self.c0_even and self.c2_even and self.c1_odd_iff_a and self.c2_div4_iff_no_b

    def to_json_dict(self) -> dict:
        return asdict(self)


def parity_report(group: AbelianGroup, connection_set: ConnectionSet) -> ParityReport:
    """Evaluate the four parity facts that every power-closed set must satisfy.

    Requires a cyclic Sylow-2-subgroup of order at least four and a
    power-closed set.
    """
    _require_bound_set(group, connection_set)
    if not sylow2_cyclic(group) or group.d < 2:
        raise ValueError(f"{group} needs a cyclic Sylow-2-subgroup of order >= 4")
    if not is_power_closed(connection_set):
        raise ValueError("parity facts require a power-closed connection set")
    tables = _tables(group)
    a, b, _ = tables.transfer_indices
    members = connection_set.indices.tolist()
    c0, c1, c2 = _valuation_buckets(connection_set)
    return ParityReport(
        c0_even=len(c0) % 2 == 0,
        c2_even=len(c2) % 2 == 0,
        c1_odd_iff_a=(len(c1) % 2 == 1) == (a in members),
        c2_div4_iff_no_b=(len(c2) % 4 == 0) == (b not in members),
    )


def _census_count(group: AbelianGroup) -> int:
    """How many power-closed connection sets admit transfer: 2^(N(d-1)), or 0 for odd order.

    N is the number of cyclic subgroups of the odd part, read from the
    factors alone: an element of order m generates a cyclic subgroup with
    phi(m) generators, and the elements whose order divides e number the
    product of gcd(e, n_i), so Moebius inversion counts those of order m.
    The group needs a cyclic Sylow-2-subgroup.
    """
    if group.d == 0:
        return 0
    odd_exponent = two_part(math.lcm(*group.factors))[1]
    divisors, mu, phi = (row.tolist() for row in _divisor_functions(odd_exponent))
    moebius = dict(zip(divisors, mu))
    dividing = {e: math.prod(math.gcd(e, n) for n in group.factors) for e in divisors}
    cyclic = sum(
        sum(moebius[m // e] * dividing[e] for e in divisors if m % e == 0) // totient
        for m, totient in zip(divisors, phi)
    )
    return 1 << (cyclic * (group.d - 1))


def enumerate_pst_sets(
    group: AbelianGroup,
    cross_validate: bool | None = None,
) -> list[ConnectionSet]:
    """Census of every power-closed connection set that admits transfer.

    Iterates all unions of non-identity power classes.  With cross-validation
    on, every candidate (positive and negative) is compared against the
    numeric row scan at time pi/2; any disagreement raises
    CrossValidationError carrying the counterexample.  When cross_validate is
    None it defaults to on for orders up to 128 and off (with a warning)
    above.  Results are ordered by (size, lexicographic class keys).  A group
    with 2^classes above groups.MAX_ORDER raises CapExceededError.  The count
    found must be the closed form of _census_count, or RuntimeError is raised.
    """
    if not sylow2_cyclic(group):
        raise ValueError(f"{group} is out of scope: its Sylow-2-subgroup is not cyclic")
    tables = _tables(group)
    count = len(tables.class_size)
    if 1 << count > MAX_ORDER:
        raise CapExceededError(
            f"{group} has {count} power classes, and 2^{count} is "
            f"above the cap of {MAX_ORDER} (cayleypst.groups.MAX_ORDER)"
        )
    if cross_validate is None:
        cross_validate = group.order <= CROSS_VALIDATE_MAX_ORDER
        if not cross_validate:
            warnings.warn(
                f"cross-validation disabled for |{group}| = {group.order} > "
                f"{CROSS_VALIDATE_MAX_ORDER}; pass cross_validate=True to force it",
                RuntimeWarning,
                stacklevel=2,
            )
    # the identity is power class 0, never chosen: bit i of candidate n marks class i + 1
    total = 1 << (count - 1)
    # a class's key is its least member's index
    keys = [int(members[0]) for members in power_class_indices(group)]
    found: list[tuple[int, tuple, ConnectionSet]] = []
    for start in range(0, total, _CANDIDATE_BLOCK):
        numbers = np.arange(start, min(start + _CANDIDATE_BLOCK, total))
        masks = (numbers[:, None] << 1 >> np.arange(count) & 1).astype(np.float64)
        # S @ mask of every candidate, exact: the entries are integers held in float64.
        # einsum runs numpy's own loop: a BLAS matrix product would touch the BLAS
        # work buffer, about 0.2 MB more peak RSS
        block_spectra = np.einsum("ck,dk->cd", masks, tables.class_sums)
        for mask, spectrum in zip(masks, block_spectra):
            # copies: a row of a block would keep the whole block alive in every set found
            candidate = ConnectionSet._from_class_mask(group, mask.copy(), spectrum.copy())
            report = characterize_pst(group, candidate)
            if cross_validate:
                detection = detect_pst_numeric(group, candidate, TRANSFER_TIME)
                if not scan_agrees(report, detection):
                    raise CrossValidationError(candidate, report, detection)
            if report.verdict is Verdict.PST:
                chosen = sorted(keys[i] for i in np.flatnonzero(mask))
                found.append((len(candidate), tuple(chosen), candidate))
    if len(found) != _census_count(group):
        raise RuntimeError(
            f"internal error: the census of {group} found {len(found)} sets, "
            f"not the {_census_count(group)} of the closed form"
        )
    # index order is lexicographic coordinate order, so the keys sort as coordinates would
    found.sort(key=lambda item: item[:2])
    return [candidate for _, _, candidate in found]
