"""Shared helpers: group shortcuts, reference connection sets, subset generators."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from cayleypst import (
    AbelianGroup,
    ConnectionSet,
    GroupMismatchError,
    integral_spectrum,
    list_power_classes,
    parse_group,
    unique_involution,
)


def group(spec):
    return parse_group(spec)


def elem(g, *coords):
    return g.element(coords)


def cset(g, coords_list):
    return ConnectionSet.from_elements(g, [g.element(c) for c in coords_list])


def two_part(n):
    """Split a positive integer as 2**k * m with m odd, returning (k, m), by halving."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k, n


def class_of(g, x):
    """The power class of list_power_classes that holds x."""
    return next(cls for cls in list_power_classes(g) if x in cls)


def z433_transfer_sets():
    """Two 36-vertex reference sets known to admit transfer from 0 to (2,0,0).

    Built from the two order-3 generators: their classes, those classes
    shifted by the involution, those classes shifted by the order-four pair,
    plus either the involution alone or the order-four pair alone.
    """
    g = parse_group("Z4xZ3xZ3")
    b = g.element((1, 0, 0))
    a = g.element((2, 0, 0))
    g1 = g.element((0, 1, 0))
    g2 = g.element((0, 0, 1))
    base = class_of(g, g1) | class_of(g, g2)
    shifted_a = frozenset(a + h for h in base)
    shifted_b = frozenset(b + h for h in base) | frozenset(-b + h for h in base)
    with_a = ConnectionSet(g, base | shifted_a | shifted_b | {a})
    with_b = ConnectionSet(g, base | shifted_a | shifted_b | {b, -b})
    return g, with_a, with_b


@pytest.fixture(scope="session")
def z433_sets():
    return z433_transfer_sets()


def class_unions(g, include_empty=True):
    """Every union of non-identity power classes, as ConnectionSets."""
    identity = g.identity
    classes = [cls for cls in list_power_classes(g) if identity not in cls]
    start = 0 if include_empty else 1
    for mask in range(start, 1 << len(classes)):
        members = set()
        for i, cls in enumerate(classes):
            if (mask >> i) & 1:
                members.update(cls)
        yield ConnectionSet(g, frozenset(members))


def random_class_union(g, rng):
    """A union of non-identity power classes, each kept with probability 1/2."""
    identity = g.identity
    members = set()
    for cls in list_power_classes(g):
        if identity not in cls and rng.random() < 0.5:
            members.update(cls)
    return ConnectionSet(g, frozenset(members))


def inverse_closed_subsets(g):
    """Every inverse-closed identity-free subset (unions of {x, -x} orbits)."""
    identity = g.identity
    orbits = []
    seen = set()
    for x in g.elements():
        if x == identity or x in seen:
            continue
        orbit = frozenset({x, -x})
        orbits.append(orbit)
        seen.update(orbit)
    for mask in range(1 << len(orbits)):
        members = set()
        for i, orbit in enumerate(orbits):
            if (mask >> i) & 1:
                members.update(orbit)
        yield ConnectionSet(g, frozenset(members))


def brute_element_order(g, x):
    """Order by repeated addition; independent of the lcm formula."""
    count = 1
    acc = x
    while acc != g.identity:
        acc = acc + x
        count += 1
    return count


def brute_cyclic_subgroup(g, x):
    out = {g.identity}
    acc = x
    while acc not in out:
        out.add(acc)
        acc = acc + x
    return frozenset(out)


def brute_power_classes(g):
    """Non-identity power classes: elements grouped by the cyclic subgroup they generate."""
    by_subgroup = {}
    for x in g.elements():
        if x != g.identity:
            by_subgroup.setdefault(brute_cyclic_subgroup(g, x), set()).add(x)
    return [frozenset(cls) for cls in by_subgroup.values()]


def brute_subgroup_4m(g):
    """The subgroup of order 4m (d >= 2, one even factor), relabelled, from its definition.

    Its members are the elements whose order divides 4m, found by
    brute_element_order.  Each is relabelled by dividing its coordinate on the
    even factor Z_n by 2**(d-2), as an element of the group with Z_n/2**(d-2)
    in place of Z_n.  Returns that group and the map from members to labels.
    """
    (j,) = [i for i, n in enumerate(g.factors) if n % 2 == 0]
    scale = 2 ** (g.d - 2)
    factors = list(g.factors)
    factors[j] //= scale
    sub = AbelianGroup(tuple(factors))
    relabel = {}
    for x in g.elements():
        if 4 * g.m % brute_element_order(g, x) == 0:
            coords = list(x.coords)
            coords[j] //= scale
            relabel[x] = sub.element(coords)
    return sub, relabel


# the four conditions for d >= 2, the facts of parity_report and those of check_4m_conditions,
# each in the order its function reports them
MEMBER_CONDITIONS = ("power_closed", "exactly_one_of_a_b", "c0_equals_4c2", "c1_equals_2c2")
PARITY_FACTS = ("c0_even", "c2_even", "c1_odd_iff_a", "c2_div4_iff_no_b")
CONDITIONS_4M = ("power_closed", "exactly_one_of_a_b", "c0_equals_c1_star", "c0_equals_c2_star")


def brute_member_flags(g):
    """The transfer flags of any set of elements of g, read element by element.

    Returns a function of a set of members.  For d <= 1 it gives matching_case
    (C = {a}); for d >= 2 the MEMBER_CONDITIONS and the PARITY_FACTS, and for
    d = 2 the CONDITIONS_4M too, each named as the library names it.  Orders
    come from brute_element_order, the power classes from brute_power_classes,
    and the odd part of x is the multiple y of x of odd order with x - y of
    2-power order.  The group must have a cyclic Sylow-2-subgroup.
    """
    orders = {x: brute_element_order(g, x) for x in g.elements()}
    valuation = {x: two_part(n)[0] for x, n in orders.items()}
    classes = brute_power_classes(g)
    a = next((x for x, n in orders.items() if n == 2), None)
    b, b_inv = [x for x, n in orders.items() if n == 4] if g.d >= 2 else (None, None)

    def odd_part(x):
        multiples = (k * x for k in range(orders[x]))
        return next(y for y in multiples if orders[y] % 2 and two_part(orders[x - y])[1] == 1)

    odd = {x: odd_part(x) for x in orders} if g.d == 2 else None

    def flags(members):
        if g.d <= 1:
            return {"matching_case": g.d == 1 and members == {a}}
        c0, c1, c2 = ({x for x in members if valuation[x] == k} for k in (0, 1, 2))
        core = c2 - {b, b_inv}
        has_a, has_b = a in members, b in members
        found = {
            "power_closed": all(cls <= members or cls.isdisjoint(members) for cls in classes),
            "exactly_one_of_a_b": has_a != has_b,
            "c0_equals_4c2": c0 == {4 * x for x in core},
            "c1_equals_2c2": c1 - {a} == {2 * x for x in core},
            "c0_even": len(c0) % 2 == 0,
            "c2_even": len(c2) % 2 == 0,
            "c1_odd_iff_a": (len(c1) % 2 == 1) == has_a,
            "c2_div4_iff_no_b": (len(c2) % 4 == 0) == (not has_b),
        }
        if g.d == 2:
            found["c0_equals_c1_star"] = c0 == {odd[x] for x in c1} - {g.identity}
            found["c0_equals_c2_star"] = c0 == {odd[x] for x in c2} - {g.identity}
        return found

    return flags


def brute_transfer_sets(g):
    """Census by the GroupElement mask loop, ordered like enumerate_pst_sets.

    Every union of non-identity power classes is built as a frozenset and
    decided by the transfer conditions element by element (brute_member_flags;
    the group must have a cyclic Sylow-2-subgroup); results are sorted by
    (size, sorted class keys), each key being the class's lexicographically
    smallest coordinates.
    """
    classes = brute_power_classes(g)
    flags = brute_member_flags(g)
    conditions = MEMBER_CONDITIONS if g.d >= 2 else ("matching_case",)
    found = []
    for mask in range(1 << len(classes)):
        chosen = [cls for i, cls in enumerate(classes) if (mask >> i) & 1]
        members = frozenset().union(*chosen)
        flagged = flags(members)
        if all(flagged[name] for name in conditions):
            keys = tuple(sorted(min(x.coords for x in cls) for cls in chosen))
            found.append((len(members), keys, ConnectionSet(g, members)))
    found.sort(key=lambda item: item[:2])
    return [c for _, _, c in found]


def frozenset_connection_set(g, elements, strip_identity):
    """Members' indices, elements and loop flag the way sets were built from a frozenset.

    The elements are collected into a set, bound to `g` one by one and
    validated element-wise; raises what that construction raised.
    """
    members = set(elements)
    loops = False
    if strip_identity:
        loops = g.identity in members
        members.discard(g.identity)
    for x in members:
        if x.group != g:
            raise GroupMismatchError(f"element {x!r} is not bound to {g}")
    if g.identity in members:
        raise ValueError(
            "identity may not appear in a connection set; "
            "use ConnectionSet.from_elements to strip loops"
        )
    unpaired = [x for x in members if -x not in members]
    if unpaired:
        first = min(unpaired, key=g.index_of)
        raise ValueError(f"set is not inverse-closed: missing inverse of {first!r}")
    return sorted(g.index_of(x) for x in members), frozenset(members), loops


def loop_character_criterion(g, c):
    """The transfer-phase identity checked character by character, with the sign at a."""
    spectrum = integral_spectrum(g, c)
    if g.d == 0:
        return False
    involution = unique_involution(g)
    values = spectrum.values.tolist()
    distinct = sorted(set(values), reverse=True)
    if len(distinct) < 2:
        return False
    gap = math.gcd(*(distinct[0] - value for value in distinct[1:]))
    # the characters' coordinate tuples, in canonical order
    for indices, eigenvalue in zip(np.ndindex(*g.factors), values):
        difference = len(c) - eigenvalue
        if difference % gap:
            return False
        wanted = -1 if (difference // gap) % 2 else 1
        parity = 0
        for j, x, n in zip(indices, involution.coords, g.factors):
            # involution coordinates are 0 or n/2, so 2*j*x is a multiple of n
            parity += (2 * j * x) // n
        if (-1 if parity % 2 else 1) != wanted:
            return False
    return True


def _scalar_json(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} in JSON output")
        return f"{value:.17g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(value).__name__} as a JSON scalar")


def _is_scalar_json(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def recursive_dumps(value, _level: int = 0) -> str:
    """The deterministic JSON renderer with one recursive call per value, as first written."""
    if _is_scalar_json(value):
        return _scalar_json(value)
    pad = "  " * _level
    inner = "  " * (_level + 1)
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(_is_scalar_json(item) for item in items):
            return "[" + ", ".join(_scalar_json(item) for item in items) + "]"
        body = ",\n".join(inner + recursive_dumps(item, _level + 1) for item in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{inner}{json.dumps(key)}: {recursive_dumps(item, _level + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")
