"""Finite abelian group arithmetic for translation-graph analysis.

A group is an ordered product of cyclic factors; elements are coordinate
tuples bound to their group.  Connection sets (inverse-closed, identity-free
subsets) defined here determine every graph the rest of the package studies.
All values are immutable and safe to share.

Each element also has a canonical index: the mixed-radix number of its
coordinates, so index order is lexicographic coordinate order.  A
ConnectionSet is held as the sorted array of its members' indices, and the
set algebra (validation, power-closure, valuation buckets, scalar
multiples) runs on numpy index arrays.  Negation, element orders and
their 2-adic valuations, and the x2, x4 and odd-part maps are computed at
the indices asked about.  Each group caches one table over all its
elements, the power-class ids (and the class member lists once read), and
per power class its valuation, the classes of 2g and 4g and the exact
class-sum matrix of its characters, each built on first use.  They take
O(|G|) memory, so index-backed operations refuse groups of more than
MAX_ORDER elements.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

# Largest group order with index tables; every |G| in the tests and the
# benchmark is far below it.
MAX_ORDER = 1 << 22
# Bound of every per-group cache: above the 496 groups of order <= 128 that
# a research sweep cycles through, so such a sweep never recomputes.
GROUP_CACHE_SIZE = 512


class GroupMismatchError(ValueError):
    """Arithmetic or comparison attempted across two different groups."""


class CapExceededError(ValueError):
    """A size cap was exceeded."""


def two_part(n: int) -> tuple[int, int]:
    """Split a positive integer as 2**k * m with m odd, returning (k, m)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    k = (n & -n).bit_length() - 1
    return k, n >> k


@dataclass(frozen=True, eq=False)
class AbelianGroup:
    """Product of cyclic groups Z_n1 x ... x Z_nr, in the order written.

    Two groups are equal only if their factor lists match; no invariant-factor
    normalization is performed.  `order` is the product of the factors,
    `d` its 2-adic valuation and `m` its odd part, so order == 2**d * m.
    """

    factors: tuple[int, ...]
    order: int = field(init=False, repr=False)
    d: int = field(init=False, repr=False)
    m: int = field(init=False, repr=False)
    # groups key every per-group cache, so the hash is computed once
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            factors = tuple(map(operator.index, self.factors))
        except TypeError:
            bad = next(n for n in self.factors if not hasattr(n, "__index__"))
            raise ValueError(f"a cyclic factor order must be an integer, got {bad!r}") from None
        if not factors:
            raise ValueError("a group needs at least one cyclic factor")
        bad = [n for n in factors if n < 2]
        if bad:
            raise ValueError(f"cyclic factor orders must be >= 2, got {bad}")
        object.__setattr__(self, "factors", factors)
        order = math.prod(factors)
        d, m = two_part(order)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_hash", hash(factors))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)

    def __repr__(self) -> str:
        return f"AbelianGroup({self})"

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def identity(self) -> GroupElement:
        return _element(self, (0,) * len(self.factors))

    def element(self, coords: Iterable[int]) -> GroupElement:
        """Build an element, reducing each coordinate modulo its factor.

        A coordinate must be an integer (a Python or numpy int, or a bool):
        a float or a string raises ValueError instead of being truncated.
        """
        raw = tuple(coords)
        factors = self.factors
        if len(raw) != len(factors):
            raise ValueError(f"expected {len(factors)} coordinates for {self}, got {len(raw)}")
        try:
            reduced = tuple(map(operator.mod, map(operator.index, raw), factors))
        except TypeError:
            for position, value in enumerate(raw):
                try:
                    operator.index(value)
                except TypeError:
                    raise ValueError(
                        f"coordinate {position} of an element of {self} must be an integer, "
                        f"got {value!r}"
                    ) from None
            raise
        # _element, inlined: sweeps build elements by the hundred thousand
        g = object.__new__(GroupElement)
        state = g.__dict__
        state["group"] = self
        state["coords"] = reduced
        return g

    def elements(self) -> Iterator[GroupElement]:
        """All elements in canonical (lexicographic coordinate) order."""
        return _canonical_elements(self)

    def index_of(self, g: GroupElement) -> int:
        """Position of g in the canonical element order (its mixed-radix value)."""
        _require_bound(self, g)
        index = 0
        for c, n in zip(g.coords, self.factors):
            index = index * n + c
        return index

    def element_at(self, index: int) -> GroupElement:
        index = int(index)
        if not 0 <= index < self.order:
            raise IndexError(f"element index {index} out of range for {self}")
        coords = []
        for n in reversed(self.factors):
            index, c = divmod(index, n)
            coords.append(c)
        return _element(self, tuple(reversed(coords)))


@dataclass(frozen=True)
class GroupElement:
    """A coordinate tuple of residues, bound to its group."""

    group: AbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.group.factors):
            raise ValueError(
                f"element has {len(self.coords)} coordinates but {self.group} "
                f"has {len(self.group.factors)} factors"
            )
        for c, n in zip(self.coords, self.group.factors):
            if not 0 <= c < n:
                raise ValueError(
                    f"coordinate {c} out of range for Z{n}; "
                    "use AbelianGroup.element to reduce"
                )

    def __repr__(self) -> str:
        return f"({','.join(str(c) for c in self.coords)})@{self.group}"

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def __add__(self, other: GroupElement) -> GroupElement:
        if not isinstance(other, GroupElement):
            return NotImplemented
        _require_bound(self.group, other)
        return _element(
            self.group,
            tuple((a + b) % n for a, b, n in zip(self.coords, other.coords, self.group.factors)),
        )

    def __sub__(self, other: GroupElement) -> GroupElement:
        if not isinstance(other, GroupElement):
            return NotImplemented
        _require_bound(self.group, other)
        return _element(
            self.group,
            tuple((a - b) % n for a, b, n in zip(self.coords, other.coords, self.group.factors)),
        )

    def __neg__(self) -> GroupElement:
        return _element(
            self.group, tuple((-c) % n for c, n in zip(self.coords, self.group.factors))
        )

    def __mul__(self, k: int) -> GroupElement:
        if not isinstance(k, int):
            return NotImplemented
        return _element(
            self.group, tuple((k * c) % n for c, n in zip(self.coords, self.group.factors))
        )

    __rmul__ = __mul__

    @property
    def order(self) -> int:
        return _element_order(self)


def _element(group: AbelianGroup, coords: tuple[int, ...]) -> GroupElement:
    """An element from coordinates already reduced modulo the factors; checks nothing."""
    g = object.__new__(GroupElement)
    state = g.__dict__
    state["group"] = group
    state["coords"] = coords
    return g


def _require_bound(group: AbelianGroup, g: GroupElement) -> None:
    if g.group is not group and g.group != group:
        raise GroupMismatchError(f"element {g!r} is not bound to {group}")


def _require_bound_set(group: AbelianGroup, connection_set: ConnectionSet) -> None:
    if connection_set.group is not group and connection_set.group != group:
        raise GroupMismatchError(
            f"connection set is bound to {connection_set.group}, not {group}"
        )


def check_order(group: AbelianGroup) -> None:
    """Raise ValueError when the group is too large for index tables (MAX_ORDER)."""
    if group.order > MAX_ORDER:
        raise ValueError(
            f"{group} has {group.order} elements, above the cap of {MAX_ORDER} "
            "(cayleypst.groups.MAX_ORDER)"
        )


def check_square(group: AbelianGroup) -> None:
    """Raise CapExceededError when a |G| x |G| matrix would have more than MAX_ORDER entries."""
    if group.order**2 > MAX_ORDER:
        raise CapExceededError(
            f"{group} has {group.order} elements, too many for a |G| x |G| matrix: "
            f"|G|^2 is above the cap of {MAX_ORDER} (cayleypst.groups.MAX_ORDER)"
        )


def _canonical_elements(group: AbelianGroup) -> Iterator[GroupElement]:
    return (
        _element(group, coords)
        for coords in itertools.product(*(range(n) for n in group.factors))
    )


def _element_order(g: GroupElement) -> int:
    result = 1
    for c, n in zip(g.coords, g.group.factors):
        result = math.lcm(result, n // math.gcd(n, c))
    return result


def element_order(group: AbelianGroup, g: GroupElement) -> int:
    """Least positive k with k*g = identity (lcm of coordinate orders)."""
    _require_bound(group, g)
    return _element_order(g)


def sylow2_cyclic(group: AbelianGroup) -> bool:
    """True iff at most one factor is even, i.e. the Sylow-2-subgroup is cyclic."""
    return sum(1 for n in group.factors if n % 2 == 0) <= 1


def _even_factor_index(group: AbelianGroup) -> int:
    evens = [i for i, n in enumerate(group.factors) if n % 2 == 0]
    if len(evens) != 1:
        raise ValueError(f"{group} does not have exactly one even factor")
    return evens[0]


def unique_involution(group: AbelianGroup) -> GroupElement:
    """The single element of order two (needs cyclic Sylow-2 and even order)."""
    if not sylow2_cyclic(group) or group.d < 1:
        raise ValueError(f"{group} has no unique element of order two")
    j = _even_factor_index(group)
    coords = [0] * group.rank
    coords[j] = group.factors[j] // 2
    return GroupElement(group, tuple(coords))


def order_four_pair(group: AbelianGroup) -> tuple[GroupElement, GroupElement]:
    """The inverse pair of order-four elements, smaller coordinate first.

    Exists exactly when the Sylow-2-subgroup is cyclic of order >= 4.
    """
    if not sylow2_cyclic(group) or group.d < 2:
        raise ValueError(f"{group} has no unique pair of elements of order four")
    j = _even_factor_index(group)
    quarter = group.factors[j] // 4
    coords = [0] * group.rank
    coords[j] = quarter
    first = GroupElement(group, tuple(coords))
    coords[j] = 3 * quarter
    second = GroupElement(group, tuple(coords))
    return first, second


def _odd_component_multiplier(group: AbelianGroup) -> int:
    """Integer k with k = 0 mod 2**d and k = 1 mod m; k*g is the odd-order part of g."""
    two_power = 1 << group.d
    return two_power * pow(two_power, -1, group.m)


def _prime_factors(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _divisor_functions(n: int) -> np.ndarray:
    """Rows: the divisors of n in increasing order, their Moebius values and their totients."""
    rows = [(1, 1, 1)]
    for p, k in _prime_factors(n).items():
        rows = [
            (d * p**j, mu * (1, -1, 0)[min(j, 2)], phi * (p**j - p ** (j - 1) if j else 1))
            for d, mu, phi in rows
            for j in range(k + 1)
        ]
    return np.array(sorted(rows)).T


def _primitive_root(p: int, k: int) -> int:
    """A generator of the units modulo p**k, for an odd prime p."""
    cofactors = [(p - 1) // q for q in _prime_factors(p - 1)]
    root = next(r for r in range(2, p) if all(pow(r, c, p) != 1 for c in cofactors))
    # a primitive root modulo p generates modulo every p**k unless r**(p-1) = 1 mod p**2
    if k > 1 and pow(root, p - 1, p * p) == 1:
        root += p
    return root


def _unit_generators(n: int) -> list[tuple[int, int]]:
    """Units generating the multiplicative group modulo n, each with its order.

    One generator per cyclic factor of that group: a primitive root modulo
    each odd prime power of n, and -1 and 5 modulo its power of two, each
    lifted by the Chinese remainder theorem to be 1 modulo the rest of n.
    """
    found = []
    for p, k in _prime_factors(n).items():
        q = p**k
        if p == 2:
            local = ([(q - 1, 2)] if k >= 2 else []) + ([(5, q // 4)] if k >= 3 else [])
        else:
            local = [(_primitive_root(p, k), q - q // p)]
        rest = n // q
        for unit, unit_order in local:
            found.append((1 + rest * ((unit - 1) * pow(rest, -1, q) % q), unit_order))
    return found


def _multiples(group: AbelianGroup, k: int, indices: np.ndarray) -> np.ndarray:
    """Canonical indices of k*g for the elements g with these canonical indices."""
    factors, places = _tables(group).radix
    # each factor divides |G|: reduce k so that no product leaves int64
    return places.ravel() @ (indices // places * (k % group.order) % factors)


def _multiple_table(group: AbelianGroup, k: int) -> np.ndarray:
    """Canonical index of k*g for every element g: an outer sum of one column per factor."""
    table = None
    for n in group.factors:
        column = np.arange(n)
        column *= k % n
        column %= n
        if table is not None:
            table *= n
            column = np.add.outer(table, column).ravel()
        table = column
    return table


def _orders(group: AbelianGroup, indices: np.ndarray) -> np.ndarray:
    """Orders of the elements with these canonical indices: the lcm of their coordinate orders."""
    factors, places = _tables(group).radix
    return np.lcm.reduce(factors // np.gcd(factors, indices // places % factors), axis=0)


def _valuations(group: AbelianGroup, indices: np.ndarray) -> np.ndarray:
    """2-adic valuations of the orders of the elements with these canonical indices."""
    orders = _orders(group, indices)
    return np.log2(orders & -orders).astype(np.intp)


def _coordinate_rows(group: AbelianGroup, indices: np.ndarray) -> np.ndarray:
    """Coordinates of the elements with these indices along a new last axis; a view if cyclic."""
    if group.rank == 1:
        return indices[..., None]
    return np.stack(np.unravel_index(indices, group.factors), axis=-1)


def _picker(ids: list[int]):
    """The entries of a list at `ids`; two pickers of one length read comparable values."""
    return operator.itemgetter(*ids) if ids else lambda values: ()


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _IndexTables:
    """Read-only numpy tables of one group, each built on first use.

    The one per-element table is `class_id`, the power class of every
    element, and `class_members` lists the classes once something reads
    them.  Everything else is per power class, or computed at the indices
    a caller asks about (_multiples, _orders, _valuations).
    """

    def __init__(self, group: AbelianGroup) -> None:
        self.group = group

    @cached_property
    def class_id(self) -> np.ndarray:
        """Power-class number of each element, in list_power_classes order."""
        # A power class is an orbit under multiplication by the units modulo
        # the exponent (they map onto the units modulo every element order).
        # Per generating unit u, a min-label pass over the maps by u, u^2,
        # u^4, ... covers every cycle, so each element ends up labelled with
        # the least index of its class.  A small group composes each map
        # from the last, in fewer numpy calls; a big one builds each afresh
        # and overwrites it with the labels it gathers, two |G| arrays at a time.
        group = self.group
        exponent = math.lcm(*group.factors)
        label = np.arange(group.order)
        for unit, unit_order in _unit_generators(exponent):
            rounds = (unit_order - 1).bit_length()
            if group.order <= 1 << 12:
                step = _multiple_table(group, unit)
                for _ in range(rounds):
                    np.minimum(label, label[step], out=label)
                    step = step[step]
                continue
            for _ in range(rounds):
                gathered = _multiple_table(group, unit)
                # take reads each index before it writes that place
                np.take(label, gathered, out=gathered, mode="clip")
                np.minimum(label, gathered, out=label)
                del gathered
                unit = unit * unit % exponent
        # the least member of each class is its key, and every label is a key
        lookup = np.zeros(group.order, dtype=np.intp)
        lookup[label] = 1
        keys = np.flatnonzero(lookup)
        self.class_reps = _frozen(keys[np.lexsort((keys, _orders(group, keys)))])
        # each key's class number at the key's index, then each label's in place
        lookup[self.class_reps] = np.arange(len(keys))
        np.take(lookup, label, out=label, mode="clip")
        return _frozen(label)

    @cached_property
    def class_size(self) -> np.ndarray:
        return _frozen(np.bincount(self.class_id))

    @cached_property
    def class_reps(self) -> np.ndarray:
        """The least member of each power class; any member represents its class."""
        self.class_id  # the labelling finds them
        return self.__dict__["class_reps"]

    @cached_property
    def class_valuation(self) -> np.ndarray:
        """2-adic valuation of the element order of each power class."""
        return _frozen(_valuations(self.group, self.class_reps))

    @cached_property
    def class_buckets(self) -> tuple[list[int], list[int], list[int]]:
        """Ids of the power classes of valuation 0, 1 and 2, in class order."""
        return tuple(np.flatnonzero(self.class_valuation == k).tolist() for k in range(3))

    @cached_property
    def class_times2(self) -> np.ndarray:
        """Power class of 2g for g in each class; x2 maps a power class onto a power class."""
        return _frozen(self.class_id[_multiples(self.group, 2, self.class_reps)])

    @cached_property
    def class_times4(self) -> np.ndarray:
        """Power class of 4g for g in each class."""
        return _frozen(self.class_id[_multiples(self.group, 4, self.class_reps)])

    @cached_property
    def condition_pickers(self) -> tuple:
        """What the four conditions for d >= 2 read of a class mask, for groups with a and b.

        The classes {a} and {b, -b}, then three pickers over a mask's list:
        the classes of valuation 2 other than {b, -b}, and their images
        under x4 and under x2.  Each image is a class of the same odd-order
        cyclic subgroup, so x4 maps them one to one onto the classes of
        valuation 0 other than the identity's, and x2 onto those of
        valuation 1 other than {a}.  So C_0 = 4*(C_2 minus {b, -b}) holds iff
        the first two pickers read the same, and C_1 minus {a} = 2*(C_2 minus
        {b, -b}) iff the first and the last do.
        """
        a, b = self.transfer_classes
        bucket0, bucket1, bucket2 = self.class_buckets
        core = [i for i in bucket2 if i != b]
        fourfold = self.class_times4[core].tolist()
        twofold = self.class_times2[core].tolist()
        # the identity's class comes first in class order
        if sorted(fourfold) != bucket0[1:] or sorted(twofold) != [i for i in bucket1 if i != a]:
            raise RuntimeError(f"internal error: x2 or x4 is not one to one on {self.group}")
        return a, b, _picker(core), _picker(fourfold), _picker(twofold)

    @cached_property
    def class_sums(self) -> np.ndarray:
        """Exact class-sum matrix: S[D, K] is the sum over power class K of any character in D.

        A character is indexed like an element and the pairing <j, g> =
        sum of j_i g_i / n_i is symmetric, so its dual classes are the power
        classes; both axes are in list_power_classes order, and any member
        represents its class.  For K of order m and s = m * <r_D, r_K> mod m,
        the sum is the Ramanujan sum c_m(s) = mu(m/gcd(m,s)) * phi(m) /
        phi(m/gcd(m,s)).  The entries are integers of modulus at most |G|,
        held as float64 so that every product with S is exact.
        """
        (factors, places), reps = self.radix, self.class_reps
        coords, m = reps // places % factors, _orders(self.group, reps)
        # m * r_K is the identity, so each m * r_K,i / n_i is an integer
        scaled = coords * m // factors
        s = (coords.T @ scaled) % m
        # m and m/gcd(m, s) divide the exponent: look their functions up among its divisors
        divisors, mu, phi = _divisor_functions(math.lcm(*self.group.factors))
        q = np.searchsorted(divisors, m // np.gcd(m, s))
        return _frozen((mu[q] * (phi[np.searchsorted(divisors, m)] // phi[q])).astype(np.float64))

    @cached_property
    def class_members(self) -> tuple[np.ndarray, ...]:
        """Sorted member indices of each power class, in list_power_classes order."""
        # the narrowest type that holds the ids sorts fastest
        narrow = self.class_id.astype(np.min_scalar_type(len(self.class_size) - 1))
        by_class = _frozen(np.argsort(narrow, kind="stable"))
        return tuple(np.split(by_class, np.cumsum(self.class_size)[:-1]))

    # per-group constants, each O(1)

    @cached_property
    def radix(self) -> tuple[np.ndarray, np.ndarray]:
        """The factors and the place value of each in a canonical index, as columns."""
        factors = np.array(self.group.factors)[:, None]
        return _frozen(factors), _frozen(self.group.order // np.cumprod(factors, axis=0))

    @cached_property
    def sylow2_cyclic(self) -> bool:
        return sylow2_cyclic(self.group)

    @cached_property
    def transfer_pair(self) -> tuple[GroupElement, GroupElement]:
        """The identity and the unique involution a: the pair of every positive verdict."""
        return self.group.identity, unique_involution(self.group)

    @cached_property
    def transfer_indices(self) -> tuple[int, int, int]:
        """Indices of the involution a and of the order-four pair b, -b."""
        special = (self.transfer_pair[1], *order_four_pair(self.group))
        return tuple(self.group.index_of(g) for g in special)

    @cached_property
    def transfer_classes(self) -> tuple[int, int]:
        """Power classes of the involution a and of the order-four pair: {a} and {b, -b}."""
        a, b, _ = self.transfer_indices
        return int(self.class_id[a]), int(self.class_id[b])


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def _tables(group: AbelianGroup) -> _IndexTables:
    check_order(group)
    return _IndexTables(group)


def _elements_at(group: AbelianGroup, indices: np.ndarray) -> list[GroupElement]:
    """The elements with these canonical indices, in the same order."""
    coords = np.unravel_index(indices, group.factors)
    return [_element(group, c) for c in zip(*(row.tolist() for row in coords))]


def _sorted_indices(group: AbelianGroup, elements: Iterable[GroupElement]) -> np.ndarray:
    """Sorted distinct canonical indices of elements of `group`, from their coordinates."""
    check_order(group)
    coords: list[int] = []
    for g in elements:
        if g.group is not group:
            _require_bound(group, g)
        coords.extend(g.coords)
    return _row_indices(group, np.array(coords, dtype=np.intp).reshape(-1, group.rank))


def _row_indices(group: AbelianGroup, rows: np.ndarray) -> np.ndarray:
    """Sorted distinct canonical indices of coordinate rows already reduced modulo the factors."""
    indices = np.ravel_multi_index(tuple(rows.T), group.factors)
    # Python's set and sort beat np.unique on the few dozen members of a typical set
    return np.array(sorted(set(indices.tolist())), dtype=np.intp)


def _index_set(elements) -> tuple[AbelianGroup | None, np.ndarray]:
    """Group and sorted member indices of a ConnectionSet or an iterable of elements.

    The group is None for an empty iterable, which has no group to read.
    """
    if isinstance(elements, ConnectionSet):
        return elements.group, elements.indices
    elems = list(elements)
    if not elems:
        return None, np.empty(0, dtype=np.intp)
    group = elems[0].group
    return group, _sorted_indices(group, elems)


def power_class(group: AbelianGroup, g: GroupElement) -> frozenset[GroupElement]:
    """All generators of the cyclic subgroup generated by g."""
    tables = _tables(group)
    members = tables.class_members[tables.class_id[group.index_of(g)]]
    return frozenset(_elements_at(group, members))


def power_class_key(cls: Iterable[GroupElement]) -> tuple[int, ...]:
    """Canonical key of a power class: its lexicographically smallest member."""
    return min(g.coords for g in cls)


def power_class_indices(group: AbelianGroup) -> tuple[np.ndarray, ...]:
    """Sorted member indices of each power class, in list_power_classes order."""
    return _tables(group).class_members


def list_power_classes(group: AbelianGroup) -> list[frozenset[GroupElement]]:
    """Partition of the group into power classes, sorted by (element order, key)."""
    return [frozenset(_elements_at(group, members)) for members in power_class_indices(group)]


def is_power_closed(connection_set) -> bool:
    """True iff the set is a union of power classes.

    Accepts a ConnectionSet or any iterable of elements, so sets that are not
    inverse-closed can still be classified.  A ConnectionSet keeps the answer.
    """
    if isinstance(connection_set, ConnectionSet):
        closed = connection_set._power_closed
        if closed is None:
            tables = _tables(connection_set.group)
            closed = _is_class_union(tables, _class_mask(connection_set), connection_set.indices)
            object.__setattr__(connection_set, "_power_closed", closed)
        return closed
    group, indices = _index_set(connection_set)
    if group is None:
        return True
    tables = _tables(group)
    return _is_class_union(tables, _classes_met(tables, indices), indices)


def _is_class_union(tables: _IndexTables, met: np.ndarray, indices: np.ndarray) -> bool:
    # the classes a set meets hold all of its elements, and more unless it is their union
    return bool(met @ tables.class_size == len(indices))


def _classes_met(tables: _IndexTables, indices: np.ndarray) -> np.ndarray:
    """0/1 float64 mask of the power classes that contain one of these elements."""
    counts = np.bincount(tables.class_id[indices], minlength=len(tables.class_size))
    return _frozen((counts > 0).astype(np.float64))


def _class_mask(connection_set: ConnectionSet) -> np.ndarray:
    """The mask of the power classes a set meets, computed once and kept on the set."""
    mask = connection_set._class_mask
    if mask is None:
        mask = _classes_met(_tables(connection_set.group), connection_set.indices)
        object.__setattr__(connection_set, "_class_mask", mask)
    return mask


def partition_by_two_part(connection_set) -> dict[int, frozenset[GroupElement]]:
    """Split a set by the 2-adic valuation of element order.

    Bucket k holds the elements of order 2**k * odd.  Only nonempty buckets
    appear, with keys in increasing order.
    """
    group, indices = _index_set(connection_set)
    if group is None:
        return {}
    valuation = _valuations(group, indices)
    return {
        int(k): frozenset(_elements_at(group, indices[valuation == k]))
        for k in np.unique(valuation)
    }


def scalar_multiple_set(k: int, elements) -> frozenset[GroupElement]:
    """Elementwise scalar multiple {k*g}; collisions merge."""
    if k < 1:
        raise ValueError(f"scalar must be a positive integer, got {k}")
    group, indices = _index_set(elements)
    if group is None:
        return frozenset()
    return frozenset(_elements_at(group, np.unique(_multiples(group, k, indices))))


class ConnectionSet:
    """Validated inverse-closed, identity-free subset of one group.

    `indices` is the sorted, read-only array of the members' canonical
    indices; `elements`, the frozenset of members, is built from it on first
    use.  `loops_allowed` records that the identity was present in the raw
    input and stripped (a loop at every vertex, which never affects
    transfer).  The mask of the power classes it meets is also kept once
    read, and so is whether the set is power-closed: the spectrum, the walk
    and the structural conditions all start from them.  So are its exact
    class spectrum (spectra._class_spectrum) and its character sums, once
    the FFT has computed them (spectra._character_sums).  Every kept array
    owns its data.
    """

    __slots__ = (
        "group",
        "indices",
        "loops_allowed",
        "_elements",
        "_class_mask",
        "_power_closed",
        "_class_spectrum",
        "_character_sums",
    )

    def __init__(
        self, group: AbelianGroup, elements: Iterable[GroupElement], loops_allowed: bool = False
    ) -> None:
        self._init(group, _sorted_indices(group, elements), loops_allowed)

    @classmethod
    def _from_indices(
        cls, group: AbelianGroup, indices: np.ndarray, loops_allowed: bool = False
    ) -> ConnectionSet:
        """A set from the sorted, distinct canonical indices of its members."""
        connection_set = cls.__new__(cls)
        connection_set._init(group, indices, loops_allowed)
        return connection_set

    @classmethod
    def _from_class_mask(
        cls, group: AbelianGroup, mask: np.ndarray, spectrum: np.ndarray | None = None
    ) -> ConnectionSet:
        """The union of the power classes marked 1 in a 0/1 float64 class mask.

        The identity's class must be unmarked.  Power classes are
        inverse-closed, so nothing is validated, and the set keeps the mask
        and, when given, its class spectrum S @ mask.  Both must own their data.
        """
        connection_set = cls.__new__(cls)
        indices = mask[_tables(group).class_id].nonzero()[0]
        spectrum = None if spectrum is None else _frozen(spectrum)
        connection_set._store(group, indices, False, _frozen(mask), True, spectrum)
        return connection_set

    def _init(self, group, indices, loops_allowed) -> None:
        if len(indices) and indices[0] == 0:
            raise ValueError(
                "identity may not appear in a connection set; "
                "use ConnectionSet.from_elements to strip loops"
            )
        negated = _multiples(group, -1, indices)
        if np.sort(negated).tolist() != indices.tolist():
            first = indices[np.argmin(np.isin(negated, indices))]
            raise ValueError(
                f"set is not inverse-closed: missing inverse of {group.element_at(first)!r}"
            )
        self._store(group, indices, loops_allowed, None, None)

    def _store(
        self, group, indices, loops_allowed, class_mask, power_closed, class_spectrum=None
    ) -> None:
        # every slot, in __slots__ order, through the slots' own setters
        slot = _SLOT_SETTERS
        slot[0](self, group)
        slot[1](self, _frozen(indices))
        slot[2](self, loops_allowed)
        slot[3](self, None)
        slot[4](self, class_mask)
        slot[5](self, power_closed)
        slot[6](self, class_spectrum)
        slot[7](self, None)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"ConnectionSet is immutable; cannot set {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which never assigns attributes
        return ConnectionSet, (self.group, self.elements, self.loops_allowed)

    @classmethod
    def from_elements(cls, group: AbelianGroup, elements: Iterable[GroupElement]) -> ConnectionSet:
        """Build a connection set, silently stripping the identity if present."""
        return cls._stripped(group, _sorted_indices(group, elements))

    @classmethod
    def from_coordinates(cls, group: AbelianGroup, rows) -> ConnectionSet:
        """Build a connection set from integer coordinate rows, one per element, like from_elements.

        `rows` is an array, or a list of rows, of one integer per factor.  Each
        coordinate is reduced modulo its factor, an identity is stripped, and
        the set must be inverse-closed.  A float, any other non-integer or a
        row of the wrong length raises ValueError.
        """
        check_order(group)
        try:
            array = np.asarray(rows) if len(rows) else np.empty((0, group.rank), dtype=np.intp)
            if array.dtype.kind not in "bi" and array.shape[1:] == (group.rank,):
                # integers beyond int64, unsigned ones or no integers: reduce as Python numbers
                array = np.array(np.mod(np.asarray(rows, dtype=object), group.factors).tolist())
        except (ValueError, TypeError):
            array = None
        if array is None or array.dtype.kind not in "bi" or array.shape[1:] != (group.rank,):
            raise ValueError(f"expected rows of {group.rank} integer coordinates for {group}")
        return cls._stripped(group, _row_indices(group, np.mod(array, group.factors)))

    @classmethod
    def _stripped(cls, group: AbelianGroup, indices: np.ndarray) -> ConnectionSet:
        """A set from sorted distinct indices, with the identity, if there, taken as a loop."""
        # the identity has index 0
        had_identity = bool(len(indices) and indices[0] == 0)
        return cls._from_indices(group, indices[1:] if had_identity else indices, had_identity)

    @property
    def elements(self) -> frozenset[GroupElement]:
        if self._elements is None:
            object.__setattr__(self, "_elements", frozenset(self.sorted_elements()))
        return self._elements

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.sorted_elements())

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.elements

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConnectionSet):
            return NotImplemented
        return (
            self.group == other.group
            and self.loops_allowed == other.loops_allowed
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.group, self.indices.tobytes(), self.loops_allowed))

    def sorted_elements(self) -> list[GroupElement]:
        return _elements_at(self.group, self.indices)

    def __repr__(self) -> str:
        coords = [g.coords for g in self.sorted_elements()]
        return f"ConnectionSet({coords}@{self.group})"


# The setters of ConnectionSet's slots, bound once: __setattr__ refuses every
# assignment, and these cost half of object.__setattr__ in the census loop.
_SLOT_SETTERS = tuple(getattr(ConnectionSet, name).__set__ for name in ConnectionSet.__slots__)


@dataclass(frozen=True)
class Subgroup4m:
    """The subgroup of elements whose order divides 4m, with its relabeling.

    The surviving coordinates of the even factor are divided by 2**(d-2), so
    the induced group replaces that factor 2**d * u by 4u; the other factors
    are untouched.  `to_subgroup` and `from_subgroup` are mutually inverse.
    `elements`, the members in the parent group, is built on first read.
    """

    parent: AbelianGroup
    group: AbelianGroup
    even_index: int
    scale: int

    @cached_property
    def elements(self) -> frozenset[GroupElement]:
        return frozenset(map(self.from_subgroup, self.group.elements()))

    def __contains__(self, g: GroupElement) -> bool:
        return g.group == self.parent and not g.coords[self.even_index] % self.scale

    def to_subgroup(self, g: GroupElement) -> GroupElement:
        _require_bound(self.parent, g)
        if g.coords[self.even_index] % self.scale:
            raise ValueError(f"{g!r} is not in the order-4m subgroup")
        coords = list(g.coords)
        coords[self.even_index] //= self.scale
        return GroupElement(self.group, tuple(coords))

    def from_subgroup(self, g: GroupElement) -> GroupElement:
        _require_bound(self.group, g)
        coords = list(g.coords)
        coords[self.even_index] *= self.scale
        return GroupElement(self.parent, tuple(coords))


def subgroup_4m(group: AbelianGroup) -> Subgroup4m:
    """Embedding of the unique subgroup of order 4m (requires d >= 2)."""
    if not sylow2_cyclic(group) or group.d < 2:
        raise ValueError(f"{group} has no subgroup of order 4m with m odd and d >= 2")
    j = _even_factor_index(group)
    scale = 1 << (group.d - 2)
    sub_factors = list(group.factors)
    sub_factors[j] //= scale
    return Subgroup4m(group, AbelianGroup(tuple(sub_factors)), j, scale)


_FACTOR_RE = re.compile(r"[Zz](\d+)")


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def parse_group(text: str) -> AbelianGroup:
    """Parse a group written as Z<n> factors joined by 'x', e.g. 'Z4xZ3xZ3'.

    Case-insensitive and whitespace-tolerant; every factor must be >= 2.
    Groups are immutable, so one text always gives the same cached group.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ValueError("empty group specification")
    factors = []
    for part in re.split(r"[xX]", compact):
        match = _FACTOR_RE.fullmatch(part)
        if not match:
            raise ValueError(f"malformed group specification {text!r}: bad factor {part!r}")
        n = int(match.group(1))
        if n < 2:
            raise ValueError(f"cyclic factor orders must be >= 2, got Z{n}")
        factors.append(n)
    return AbelianGroup(tuple(factors))


def parse_element(group: AbelianGroup, text: str) -> GroupElement:
    """Parse '(2,0,0)' (or a bare integer for single-factor groups)."""
    compact = re.sub(r"\s+", "", text)
    try:
        if compact.startswith("(") and compact.endswith(")"):
            inner = compact[1:-1]
            if not inner:
                raise ValueError("empty tuple")
            return group.element(int(p) for p in inner.split(","))
        if group.rank == 1:
            return group.element([int(compact)])
    except ValueError as exc:
        raise ValueError(f"bad element literal {text!r} for {group}: {exc}") from None
    raise ValueError(
        f"bad element literal {text!r}: {group} needs a coordinate tuple like "
        f"({','.join('0' * group.rank)})"
    )


def _split_top_level(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in set literal")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth:
        raise ValueError("unbalanced parentheses in set literal")
    parts.append("".join(current))
    cleaned = [p.strip() for p in parts]
    if any(not p for p in cleaned):
        raise ValueError("empty entry in set literal")
    return cleaned


def parse_connection_set(group: AbelianGroup, text: str) -> ConnectionSet:
    """Parse a set literal like '{(1,0),(3,0)}' or '{1,3}'; '{}' is the empty set."""
    stripped = text.strip()
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise ValueError(f"set literal must be brace-wrapped, got {text!r}")
    inner = stripped[1:-1].strip()
    if not inner:
        return ConnectionSet.from_elements(group, [])
    items = _split_top_level(inner)
    return ConnectionSet.from_elements(group, (parse_element(group, item) for item in items))
