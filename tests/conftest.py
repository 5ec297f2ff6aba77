"""Shared helpers: group shortcuts, reference connection sets, subset generators."""

from __future__ import annotations

import pytest

from cayleypst import ConnectionSet, parse_group, power_class, two_part


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
