"""Exact decision procedures for perfect state transfer on translation graphs.

Three independent routes are provided: the structural conditions on the
connection set (the main characterization), a character-phase identity over
the integer spectrum, and the numeric row scan from the walk module.  They
must always agree on groups with a cyclic Sylow-2-subgroup; the census
enforces that agreement candidate by candidate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .groups import (
    AbelianGroup,
    ConnectionSet,
    GroupElement,
    _check_cap,
    _class_mask,
    _divisor_functions,
    _multiples,
    _odd_component_multiplier,
    _require_bound_set,
    _tables,
    _valuations,
    check_order,
    is_power_closed,
    unique_involution,
)
from .spectra import delta, integral_spectrum
from .walk import detect_pst_numeric

TRANSFER_TIME = math.pi / 2
_TIME_LABEL = "pi/2"
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

    def __reduce__(self):
        return type(self), (self.connection_set, self.report, self.detection)


@dataclass(frozen=True)
class PstReport:
    """Outcome of a transfer check: verdict, pair, time, and per-condition flags."""

    verdict: Verdict
    pair: tuple[GroupElement, GroupElement] | None
    time: str | None
    time_value: float | None
    conditions: dict[str, bool]
    diagnostics: tuple[str, ...]
    # the conditions dict is unhashable, so hash() names this class instead of dict
    __hash__ = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "pair": None if self.pair is None else [list(g.coords) for g in self.pair],
            "time": self.time,
            "time_value": self.time_value,
            "conditions": dict(self.conditions),
            "diagnostics": list(self.diagnostics),
        }


def _negative(conditions: dict[str, bool], diagnostics: tuple[str, ...]) -> PstReport:
    return PstReport(Verdict.NO_PST, None, None, None, conditions, diagnostics)


def _decided(group: AbelianGroup, conditions: dict[str, bool]) -> PstReport:
    """The verdict of a dict of conditions: transfer iff all of them hold, from 0 to a at pi/2."""
    failed = tuple([f"condition {name} failed" for name, ok in conditions.items() if not ok])
    if failed:
        return _negative(conditions, failed)
    pair = (group.identity, unique_involution(group))
    return PstReport(Verdict.PST, pair, _TIME_LABEL, TRANSFER_TIME, conditions, ())


def _member_buckets(connection_set: ConnectionSet) -> tuple:
    """Whether a and b are in C, and the sorted member indices of C_0, C_1 and C_2.

    C_k holds the members of order 2**k * odd; the group must have a and b (d >= 2).
    C is inverse-closed, so b is a member exactly when -b is.
    """
    group, indices = connection_set.group, connection_set.indices
    a, b, _ = group._transfer_indices
    members, valuation = indices.tolist(), _valuations(group, indices)
    return (a in members, b in members, *(indices[valuation == k] for k in (0, 1, 2)))


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


def _member_conditions(group: AbelianGroup, connection_set: ConnectionSet) -> dict[str, bool]:
    """The four conditions for d >= 2, member by member, for any connection set."""
    has_a, has_b, c0, c1, c2 = _member_buckets(connection_set)
    a, b, b_inv = group._transfer_indices
    core = c2[(c2 != b) & (c2 != b_inv)]
    return {
        "power_closed": is_power_closed(connection_set),
        "exactly_one_of_a_b": has_a != has_b,
        "c0_equals_4c2": _same_set(c0, _multiples(group, 4, core)),
        "c1_equals_2c2": _same_set(c1[c1 != a], _multiples(group, 2, core)),
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
    # the class route first: it is the census's and most sweeps' case
    if group.d >= 2 and group._sylow2_cyclic and is_power_closed(connection_set):
        return _decided(group, _class_conditions(_tables(group), _class_mask(connection_set)))
    if not group._sylow2_cyclic:
        scope = f"the Sylow-2-subgroup of {group} is not cyclic; the characterization does not apply"
        return PstReport(Verdict.OUT_OF_SCOPE, None, None, None, {}, (scope,))
    if group.d == 0:
        return _negative(
            {"odd_order_case": False},
            ("a Cayley graph of an odd-order group never admits perfect state transfer",),
        )
    if group.d == 1:
        if connection_set.indices.tolist() == [group._transfer_indices[0]]:
            return _decided(group, {"matching_case": True})
        return _negative(
            {"matching_case": False},
            (
                "for groups of order 2m with m odd, only the perfect matching "
                f"C = {{{unique_involution(group)}}} admits transfer",
            ),
        )
    return _decided(group, _member_conditions(group, connection_set))


def check_4m_conditions(group: AbelianGroup, connection_set: ConnectionSet) -> PstReport:
    """Transfer conditions specialized to groups of order exactly 4m, m odd.

    The valuation-1 and valuation-2 buckets factor through the odd-order part
    as C_1 = {a} + C_1* and C_2 = {b, -b} + C_2*; transfer holds iff C is
    power-closed, exactly one of a and b lies in C, and
    C_0 = C_1* minus {0} = C_2* minus {0}.
    """
    _require_bound_set(group, connection_set)
    if group._transfer_indices is None or group.d != 2:
        raise ValueError(f"{group} must have order 4m with m odd (d = 2 exactly)")
    has_a, has_b, c0, c1, c2 = _member_buckets(connection_set)
    odd = _odd_component_multiplier(group)
    c1_star = _multiples(group, odd, c1)
    c2_star = _multiples(group, odd, c2)
    # the identity has index 0
    conditions = {
        "power_closed": is_power_closed(connection_set),
        "exactly_one_of_a_b": has_a != has_b,
        "c0_equals_c1_star": _same_set(c0, c1_star[c1_star != 0]),
        "c0_equals_c2_star": _same_set(c0, c2_star[c2_star != 0]),
    }
    return _decided(group, conditions)


def reduce_to_4m(
    group: AbelianGroup, connection_set: ConnectionSet
) -> tuple[AbelianGroup, ConnectionSet]:
    """Project onto the order-4m subgroup: transfer survives both directions.

    Returns the relabeled subgroup and the intersected connection set (the
    elements of valuation at most 2).
    """
    _require_bound_set(group, connection_set)
    if group._even_axis is None or group.d < 2:
        raise ValueError(f"{group} has no subgroup of order 4m with m odd and d >= 2")
    # the elements of order dividing 4m are those whose even coordinate is a multiple of
    # scale = 2**(d-2); divided by scale, it is a coordinate of Z_{n/scale} in place of Z_n
    j, n, place = group._even_axis
    scale = 1 << (group.d - 2)
    subgroup = AbelianGroup(group.factors[:j] + (n // scale,) + group.factors[j + 1 :])
    # an index is low + place * high with low < place; high, whose last place is the
    # even coordinate, is a multiple of scale exactly on a member, and high / scale relabels it
    high, low = np.divmod(connection_set.indices, place)
    member = high % scale == 0
    kept = high[member] // scale * place + low[member]
    return subgroup, ConnectionSet._from_indices(subgroup, kept)


def character_criterion(group: AbelianGroup, connection_set: ConnectionSet) -> bool:
    """Third decision route: the transfer-phase identity over all characters.

    True iff chi(a) = (-1)**((|C| - chi(C)) / delta) for every character chi,
    where a is the unique involution and delta the gcd of eigenvalue gaps;
    this holds exactly when transfer from the identity to a occurs at time
    pi/delta.  Returns False when no involution exists (odd order) or when
    delta is undefined (a single eigenvalue); propagates
    NonIntegralSpectrumError for non-power-closed sets.  It reads the spectrum
    and delta, from the set's real, float64 sums: the k class eigenvalues.
    """
    spectrum = integral_spectrum(group, connection_set)
    if group.d == 0:
        return False
    if group._even_axis is None:
        raise ValueError(f"{group} does not have exactly one even factor")
    _, n, place = group._even_axis
    # a is n/2 on the even factor Z_n and 0 elsewhere, so chi_j(a) = (-1)**j_e, with
    # j_e the character's coordinate on that factor; units are odd and n is even,
    # so j_e has one parity across a dual power class
    gap = delta(spectrum)
    if gap is None:
        return False
    # |C| is the top eigenvalue, so the gap divides every |C| - chi(C)
    values, characters = spectrum._per_class, _tables(group).class_reps
    steps = (len(connection_set) - values) // gap
    return bool((steps % 2 == characters // place % n % 2).all())


@dataclass(frozen=True)
class ParityReport:
    """Size parities of the valuation buckets against membership of a and b."""

    c0_even: bool
    c2_even: bool
    c1_odd_iff_a: bool
    c2_div4_iff_no_b: bool


def parity_report(group: AbelianGroup, connection_set: ConnectionSet) -> ParityReport:
    """Evaluate the four parity facts that every power-closed set must satisfy.

    Requires a cyclic Sylow-2-subgroup of order at least four and a
    power-closed set.
    """
    _require_bound_set(group, connection_set)
    if group._transfer_indices is None or group.d < 2:
        raise ValueError(f"{group} needs a cyclic Sylow-2-subgroup of order >= 4")
    if not is_power_closed(connection_set):
        raise ValueError("parity facts require a power-closed connection set")
    has_a, has_b, c0, c1, c2 = _member_buckets(connection_set)
    return ParityReport(
        c0_even=len(c0) % 2 == 0,
        c2_even=len(c2) % 2 == 0,
        c1_odd_iff_a=(len(c1) % 2 == 1) == has_a,
        c2_div4_iff_no_b=(len(c2) % 4 == 0) == (not has_b),
    )


def _odd_cyclic_subgroups(group: AbelianGroup) -> int:
    """N, the number of cyclic subgroups of the odd part, read from the factors alone.

    An element of order m generates a cyclic subgroup with phi(m) generators,
    and the elements whose order divides e number the product of gcd(e, n_i),
    so Moebius inversion counts those of order m.  The group needs a cyclic
    Sylow-2-subgroup, of order 2^d; it then has N(d+1) power classes.
    """
    # the one even factor holds all of 2^d, so the exponent's odd part is lcm / 2^d
    odd_exponent = math.lcm(*group.factors) >> group.d
    divisors, mu, phi = (row.tolist() for row in _divisor_functions(odd_exponent))
    moebius = dict(zip(divisors, mu))
    dividing = {e: math.prod(math.gcd(e, n) for n in group.factors) for e in divisors}
    return sum(
        sum(moebius[m // e] * dividing[e] for e in divisors if m % e == 0) // totient
        for m, totient in zip(divisors, phi)
    )


def _census_count(group: AbelianGroup) -> int:
    """How many power-closed connection sets admit transfer: 2^(N(d-1)), or 0 for odd order."""
    return 1 << (_odd_cyclic_subgroups(group) * (group.d - 1)) if group.d else 0


def enumerate_pst_sets(group: AbelianGroup) -> list[ConnectionSet]:
    """Census of every power-closed connection set that admits transfer.

    Iterates all unions of non-identity power classes, and compares every
    candidate (positive and negative) against the numeric row scan at time
    pi/2; any disagreement raises CrossValidationError carrying the
    counterexample.  A scan reads the k class amplitudes, so it costs the
    same at every order.  Results are ordered by (size, lexicographic class
    keys).  A group with more than groups.MAX_ORDER elements, or with
    2^classes above it, raises CapExceededError before any table is built:
    the class count, N(d+1), comes from the factors.  The count found must
    be the closed form of _census_count, or RuntimeError is raised.
    """
    if not group._sylow2_cyclic:
        raise ValueError(f"{group} is out of scope: its Sylow-2-subgroup is not cyclic")
    # the order first: counting a huge factor's divisors is trial division
    check_order(group)
    count = _odd_cyclic_subgroups(group) * (group.d + 1)
    _check_cap(group, 1 << count, f"{count} power classes, and 2^{count} is")
    tables = _tables(group)
    # the identity is power class 0, never chosen: bit i of candidate n marks class i + 1
    total = 1 << (count - 1)
    # a class's key is its least member's index
    keys = tables.class_reps.tolist()
    found: list[tuple[int, tuple, ConnectionSet]] = []
    for start in range(0, total, _CANDIDATE_BLOCK):
        numbers = np.arange(start, min(start + _CANDIDATE_BLOCK, total))
        masks = (numbers[:, None] << 1 >> np.arange(count) & 1).astype(np.float64)
        # S @ mask of every candidate, exact: einsum casts the narrow integer S to float64.
        # einsum runs numpy's own loop: a BLAS matrix product would touch the BLAS
        # work buffer, about 0.2 MB more peak RSS
        block_sums = np.einsum("ck,dk->cd", masks, tables.class_sums)
        for mask, sums in zip(masks, block_sums):
            # copies: a row of a block would keep the whole block alive in every set found
            candidate = ConnectionSet._from_class_mask(group, mask.copy(), sums.copy())
            report = characterize_pst(group, candidate)
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
