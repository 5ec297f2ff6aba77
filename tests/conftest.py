"""Shared helpers: group shortcuts, reference connection sets, subset generators."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from cayleypst import (
    ConnectionSet,
    GroupMismatchError,
    integral_spectrum,
    parse_group,
    power_class,
    two_part,
    unique_involution,
)


def group(spec):
    return parse_group(spec)


def elem(g, *coords):
    return g.element(coords)


def cset(g, coords_list):
    return ConnectionSet.from_elements(g, [g.element(c) for c in coords_list])


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
    base = power_class(g, g1) | power_class(g, g2)
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
    from cayleypst import list_power_classes

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
    from cayleypst import list_power_classes

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


def brute_transfer_sets(g):
    """Census by the GroupElement mask loop, ordered like enumerate_pst_sets.

    Every union of non-identity power classes is built as a frozenset and
    decided by the transfer conditions element by element (the group must
    have a cyclic Sylow-2-subgroup); results are sorted by (size, sorted
    class keys), each key being the class's lexicographically smallest
    coordinates.
    """
    classes = brute_power_classes(g)
    orders = {x: brute_element_order(g, x) for x in g.elements()}
    a = next((x for x, n in orders.items() if n == 2), None)
    b, b_inv = [x for x, n in orders.items() if n == 4] if g.d >= 2 else (None, None)

    def transfers(members):
        if g.d <= 1:
            return g.d == 1 and members == {a}
        buckets = {k: {x for x in members if two_part(orders[x])[0] == k} for k in (0, 1, 2)}
        core = buckets[2] - {b, b_inv}
        return (
            (a in members) != (b in members)
            and buckets[0] == {4 * x for x in core}
            and buckets[1] - {a} == {2 * x for x in core}
        )

    found = []
    for mask in range(1 << len(classes)):
        chosen = [cls for i, cls in enumerate(classes) if (mask >> i) & 1]
        members = frozenset().union(*chosen)
        if transfers(members):
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
