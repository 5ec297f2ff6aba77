"""Finite abelian group arithmetic for translation-graph analysis.

A group is an ordered product of cyclic factors; elements are coordinate
tuples bound to their group.  Connection sets (inverse-closed, identity-free
subsets) defined here determine every graph the rest of the package studies.
All values are immutable and safe to share.

Each element also has a canonical index: the mixed-radix number of its
coordinates, so index order is lexicographic coordinate order.  One codec
turns integers into coordinates: _reduced reduces integer coordinates modulo
the factors for every element operator, _coordinate_rows is the one map from
indices to coordinates, and _row_index the one map back.  A ConnectionSet is
held as the sorted array of its members' indices, and the set algebra
(validation, power-closure, valuation buckets, scalar multiples) runs on
numpy index arrays.  A group
holds the O(1) facts of its factors, computed with it: whether its
Sylow-2-subgroup is cyclic, the place values of an index, its even factor
Z_n when it has just one (the even axis), and the indices of a, b and -b on
that axis.  From those, negation, element orders and their 2-adic
valuations, and the x2, x4 and odd-part maps are computed at the indices
asked about.  The group's index tables (_tables) hold one table over all its
elements, the power-class ids (and the class member lists once read), and
per power class its least member, its element order (both found with the
ids), the exact class-sum matrix of its characters and what the transfer
conditions read, each built on first use in the narrowest integer type that
holds it.  The ids take O(|G|) memory, so the tables and set building refuse
groups of more than MAX_ORDER elements; the facts take no cap, and the maps
at given indices are exact at any order: the place-value columns are int64,
or Python ints once |G| passes 2^31.  MAX_ORDER is the one size budget:
_check_cap reads it before |G|, |G|^2 or 2^classes of work.
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
_GROUP_CACHE_SIZE = 512


class GroupMismatchError(ValueError):
    """Arithmetic or comparison attempted across two different groups."""


class CapExceededError(ValueError):
    """A size cap was exceeded."""


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
    # O(1) facts of the factors, capped by no order: whether the Sylow-2-subgroup is cyclic,
    # the factors and place values of an index as read-only columns (int64, or Python ints
    # past |G| = 2^31), and, if exactly one factor Z_n is even (else None), its even axis
    # (position, n, place value p) and the indices n/2 p of the involution a and n/4 p,
    # 3n/4 p of b, -b (b only if 4 | |G|)
    _sylow2_cyclic: bool = field(init=False, repr=False)
    _radix: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    _even_axis: tuple[int, int, int] | None = field(init=False, repr=False)
    _transfer_indices: tuple[int, int, int] | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.factors, Iterable):
            raise ValueError(f"a group needs a sequence of factors, got {self.factors!r}")
        factors = tuple(self.factors)
        bad = [n for n in factors if not hasattr(n, "__index__")]
        if bad:
            raise ValueError(f"a cyclic factor order must be an integer, got {bad[0]!r}")
        factors = tuple(map(operator.index, factors))
        if not factors:
            raise ValueError("a group needs at least one cyclic factor")
        bad = [n for n in factors if n < 2]
        if bad:
            raise ValueError(f"cyclic factor orders must be >= 2, got {bad}")
        object.__setattr__(self, "factors", factors)
        order = math.prod(factors)
        d = (order & -order).bit_length() - 1
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", order >> d)
        object.__setattr__(self, "_hash", hash(factors))
        # set here, not on first read: an attribute added later (as functools.cached_property
        # adds one) moves a group's attributes into a dict, and every later read is slower
        evens = [i for i, n in enumerate(factors) if n % 2 == 0]
        object.__setattr__(self, "_sylow2_cyclic", len(evens) <= 1)
        # a place value is the product of the later factors, in Python ints: no int64 wraps here
        places = list(itertools.accumulate(factors[:0:-1], operator.mul, initial=1))[::-1]
        # a coordinate times a scalar reduced modulo |G| is below |G|^2: int64 holds it up to
        # |G| = 2^31, and past that the columns are Python ints, exact at any size
        dtype = object if order > 1 << 31 else np.int64
        radix = tuple(_frozen(np.array(column, dtype)[:, None]) for column in (factors, places))
        object.__setattr__(self, "_radix", radix)
        axis = transfer = None
        if len(evens) == 1:
            j = evens[0]
            axis = j, factors[j], places[j]
            transfer = tuple(k * factors[j] // 4 * places[j] for k in (2, 1, 3))
        object.__setattr__(self, "_even_axis", axis)
        object.__setattr__(self, "_transfer_indices", transfer)

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

    def __reduce__(self):
        # pickle and copy carry the factors only, and the facts are computed again
        return AbelianGroup, (self.factors,)

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
            return _reduced(self, map(operator.index, raw))
        except TypeError:
            for position, value in enumerate(raw):
                _coordinate(self, position, value)
            raise

    def elements(self) -> Iterator[GroupElement]:
        """All elements in canonical (lexicographic coordinate) order."""
        return _canonical_elements(self)

    def index_of(self, g: GroupElement) -> int:
        """Position of g in the canonical element order (its mixed-radix value)."""
        _require_bound(self, g)
        return int(_row_index(self, np.array(g.coords)))

    def element_at(self, index: int) -> GroupElement:
        """The element with this canonical index; a float or a string raises ValueError."""
        try:
            index = operator.index(index)
        except TypeError:
            raise ValueError(f"an element index must be an integer, got {index!r}") from None
        if not 0 <= index < self.order:
            raise IndexError(f"element index {index} out of range for {self}")
        coords = _coordinate_rows(self, np.array(index, self._radix[1].dtype))
        return _element(self, tuple(coords.tolist()))


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
        coords = tuple(_coordinate(self.group, i, c) for i, c in enumerate(self.coords))
        for c, n in zip(coords, self.group.factors):
            if not 0 <= c < n:
                raise ValueError(
                    f"coordinate {c} out of range for Z{n}; "
                    "use AbelianGroup.element to reduce"
                )
        object.__setattr__(self, "coords", coords)

    def __repr__(self) -> str:
        return f"({','.join(str(c) for c in self.coords)})@{self.group}"

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def __add__(self, other: GroupElement) -> GroupElement:
        if not isinstance(other, GroupElement):
            return NotImplemented
        _require_bound(self.group, other)
        return _reduced(self.group, map(operator.add, self.coords, other.coords))

    def __sub__(self, other: GroupElement) -> GroupElement:
        if not isinstance(other, GroupElement):
            return NotImplemented
        _require_bound(self.group, other)
        return _reduced(self.group, map(operator.sub, self.coords, other.coords))

    def __neg__(self) -> GroupElement:
        return _reduced(self.group, map(operator.neg, self.coords))

    def __mul__(self, k: int) -> GroupElement:
        if not isinstance(k, int):
            return NotImplemented
        return _reduced(self.group, (k * c for c in self.coords))

    __rmul__ = __mul__

    @property
    def order(self) -> int:
        result = 1
        for c, n in zip(self.coords, self.group.factors):
            result = math.lcm(result, n // math.gcd(n, c))
        return result


def _coordinate(group: AbelianGroup, position: int, value) -> int:
    """A coordinate as a plain int; a float or a string raises ValueError, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(
            f"coordinate {position} of an element of {group} must be an integer, got {value!r}"
        ) from None


def _element(group: AbelianGroup, coords: tuple[int, ...]) -> GroupElement:
    """An element from coordinates already reduced modulo the factors; checks nothing."""
    g = object.__new__(GroupElement)
    state = g.__dict__
    state["group"] = group
    state["coords"] = coords
    return g


def _reduced(group: AbelianGroup, coords: Iterable[int]) -> GroupElement:
    """An element from integer coordinates, each reduced modulo its factor; checks nothing else."""
    return _element(group, tuple(map(operator.mod, coords, group.factors)))


def _require_bound(group: AbelianGroup, g: GroupElement) -> None:
    if g.group is not group and g.group != group:
        raise GroupMismatchError(f"element {g!r} is not bound to {group}")


def _require_bound_set(group: AbelianGroup, connection_set: ConnectionSet) -> None:
    if connection_set.group is not group and connection_set.group != group:
        raise GroupMismatchError(
            f"connection set is bound to {connection_set.group}, not {group}"
        )


def _check_cap(group: AbelianGroup, entries: int, what: str) -> None:
    """The one size rule, read before the work it guards: refuse `entries` above MAX_ORDER."""
    if entries > MAX_ORDER:
        message = f"{group} has {what} above the cap of {MAX_ORDER} (cayleypst.groups.MAX_ORDER)"
        raise CapExceededError(message)


def check_order(group: AbelianGroup) -> None:
    """Raise CapExceededError when the group is too large for index tables (MAX_ORDER)."""
    _check_cap(group, group.order, f"{group.order} elements,")


def check_square(group: AbelianGroup) -> None:
    """Raise CapExceededError when a |G| x |G| matrix would have more than MAX_ORDER entries."""
    what = f"{group.order} elements, too many for a |G| x |G| matrix: |G|^2 is"
    _check_cap(group, group.order**2, what)


def _canonical_elements(group: AbelianGroup) -> Iterator[GroupElement]:
    return (
        _element(group, coords)
        for coords in itertools.product(*(range(n) for n in group.factors))
    )


def sylow2_cyclic(group: AbelianGroup) -> bool:
    """True iff at most one factor is even, i.e. the Sylow-2-subgroup is cyclic."""
    return group._sylow2_cyclic


def unique_involution(group: AbelianGroup) -> GroupElement:
    """The single element of order two (needs cyclic Sylow-2 and even order: one even factor)."""
    if group._transfer_indices is None:
        raise ValueError(f"{group} has no unique element of order two")
    return group.element_at(group._transfer_indices[0])


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
    factors, places = group._radix
    # each factor divides |G|: reduce k so that no product leaves the columns' type (_radix)
    return _row_index(group, (indices // places * (k % group.order) % factors).T)


def _multiple_table(group: AbelianGroup, k: int, dtype=np.intp) -> np.ndarray:
    """Canonical index of k*g for every element g: an outer sum of one column per factor."""
    table = None
    for n in group.factors:
        column = np.empty(n, dtype)
        # k*i mod n in int64 for 2^14 values of i at a time: no int64 copy of a long column
        for start in range(0, n, 1 << 14):
            product = np.arange(start, min(start + (1 << 14), n)) * (k % n)
            np.remainder(product, n, out=column[start : start + (1 << 14)])
        if table is not None:
            table *= n
            column = np.add.outer(table, column).ravel()
        table = column
    return table


def _orders(group: AbelianGroup, indices: np.ndarray) -> np.ndarray:
    """Orders of the elements with these canonical indices: the lcm of their coordinate orders."""
    factors, places = group._radix
    # one rank x len(indices) array, overwritten by the coordinates, their gcds and their orders
    orders = indices // places
    np.remainder(orders, factors, out=orders)
    np.gcd(factors, orders, out=orders)
    np.floor_divide(factors, orders, out=orders)
    return np.lcm.reduce(orders, axis=0)


def _valuations(group: AbelianGroup, indices: np.ndarray) -> np.ndarray:
    """2-adic valuations of the orders of the elements with these canonical indices."""
    orders = _orders(group, indices)
    # a power of two and its log2 are exact in float64, whichever integer type held it
    return np.log2((orders & -orders).astype(np.float64)).astype(np.intp)


def _coordinate_rows(group: AbelianGroup, indices: np.ndarray) -> np.ndarray:
    """Coordinates of the elements with these indices along a new last axis; a view if cyclic."""
    if group.rank == 1:
        return indices[..., None]
    # one array of the result's size and no other: each index over each place value, reduced
    factors, places = group._radix
    rows = indices[..., None] // places.ravel()
    return np.remainder(rows, factors.ravel(), out=rows)


def _row_index(group: AbelianGroup, rows: np.ndarray) -> np.ndarray:
    """Canonical indices of coordinates along the last axis, reduced modulo the factors."""
    return rows @ group._radix[1][:, 0]


def _picker(ids: list[int]):
    """The entries of a list at `ids`; two pickers of one length read comparable values."""
    return operator.itemgetter(*ids) if ids else lambda values: ()


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _IndexTables:
    """Read-only numpy tables of one group, each built on first use.

    The one per-element table is `class_id`, the power class of every
    element; `class_members` lists the classes on each read and is not
    kept.  Everything else is per power class; the O(1) facts they read,
    like the maps at given indices (_multiples, _orders), live on the group.
    """

    def __init__(self, group: AbelianGroup) -> None:
        self.group = group

    @cached_property
    def _power_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """class_id, class_reps and class_order, from one labelling of the elements."""
        # A power class is an orbit under multiplication by the units modulo
        # the exponent (they map onto the units modulo every element order).
        # Per generating unit u, a min-label pass over the maps by u, u^2,
        # u^4, ... covers every cycle, so each element ends up labelled with
        # the least index of its class.  A small group composes each map
        # from the last, in fewer numpy calls; a big one builds each afresh,
        # in int32 (every index is below MAX_ORDER), three |G| arrays at a time.
        group = self.group
        exponent = math.lcm(*group.factors)
        small = group.order <= 1 << 12
        label = np.arange(group.order, dtype=np.intp if small else np.int32)
        for unit, unit_order in _unit_generators(exponent):
            rounds = (unit_order - 1).bit_length()
            if small:
                step = _multiple_table(group, unit)
                for _ in range(rounds):
                    np.minimum(label, label[step], out=label)
                    step = step[step]
                continue
            for _ in range(rounds):
                # label[map] gathers with the int32 map itself; np.take would copy it to intp
                np.minimum(label, label[_multiple_table(group, unit, np.int32)], out=label)
                unit = unit * unit % exponent
        # the least member of each class is its key, and every label is a key
        lookup = np.zeros(group.order, dtype=bool)
        lookup[label] = True
        keys = np.flatnonzero(lookup)
        orders = _orders(group, keys)
        by_order = np.lexsort((keys, orders))
        reps = keys[by_order]
        # each key's class number at the key's index, then at each label, over the label: freed
        # temporaries as wide as the labels leave the heap, where narrow ones would stay in it
        lookup = np.zeros(group.order, dtype=label.dtype)
        lookup[reps] = np.arange(len(keys))
        label[...] = lookup[label]
        ids = label.astype(np.min_scalar_type(len(keys) - 1))
        return _frozen(ids), _frozen(reps), _frozen(orders[by_order])

    @cached_property
    def class_id(self) -> np.ndarray:
        """Power-class number of each element, in list_power_classes order; the narrowest uint."""
        return self._power_classes[0]

    @cached_property
    def class_reps(self) -> np.ndarray:
        """The least member of each power class; any member represents its class."""
        return self._power_classes[1]

    @cached_property
    def class_order(self) -> np.ndarray:
        """The element order of each power class: the classes are sorted by it."""
        return self._power_classes[2]

    @cached_property
    def class_size(self) -> np.ndarray:
        return _frozen(np.bincount(self.class_id))

    @cached_property
    def condition_pickers(self) -> tuple:
        """What the four conditions for d >= 2 read of a class mask, for groups with a and b.

        The classes {a} and {b, -b}, then three pickers over a mask's list:
        the classes of valuation 2 other than {b, -b}, and their images
        under x4 and under x2, which map a power class onto a power class.
        Each image is a class of the same odd-order cyclic subgroup, so x4
        maps them one to one onto the classes of valuation 0 other than the
        identity's, and x2 onto those of valuation 1 other than {a}.  So
        C_0 = 4*(C_2 minus {b, -b}) holds iff the first two pickers read the
        same, and C_1 minus {a} = 2*(C_2 minus {b, -b}) iff the first and the
        last do.
        """
        if self.group._transfer_indices is None:
            raise ValueError(f"{self.group} does not have exactly one even factor")
        # the classes of the involution a and of the order-four element b
        a, b = self.class_id[list(self.group._transfer_indices[:2])].tolist()
        # 2**valuation of each class's element order
        two_power = self.class_order & -self.class_order
        core = [i for i in np.flatnonzero(two_power == 4).tolist() if i != b]
        reps = self.class_reps[core]
        fourfold = self.class_id[_multiples(self.group, 4, reps)].tolist()
        twofold = self.class_id[_multiples(self.group, 2, reps)].tolist()
        # the identity's class comes first in class order
        odd = np.flatnonzero(two_power == 1).tolist()[1:]
        halves = [i for i in np.flatnonzero(two_power == 2).tolist() if i != a]
        if sorted(fourfold) != odd or sorted(twofold) != halves:
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
        phi(m/gcd(m,s)).  The entries are integers of modulus at most |G|, held
        in the narrowest signed type that holds +-|G| (int8 up to 127 elements);
        every product casts S to float64 or complex128, so it is exact.
        """
        rows, m = _coordinate_rows(self.group, self.class_reps), self.class_order
        # m * r_K is the identity, so each m * r_K,i / n_i is an integer
        scaled = rows.T * m // self.group._radix[0]
        s = (rows @ scaled) % m
        # m and m/gcd(m, s) divide the exponent: look their functions up among its divisors
        divisors, mu, phi = _divisor_functions(math.lcm(*self.group.factors))
        q = np.searchsorted(divisors, m // np.gcd(m, s))
        sums = mu[q] * (phi[np.searchsorted(divisors, m)] // phi[q])
        return _frozen(sums.astype(np.min_scalar_type(-self.group.order - 1)))

    @property
    def class_members(self) -> tuple[np.ndarray, ...]:
        """Sorted member indices of each power class, built per read: class_id's stable argsort, split."""
        by_class = _frozen(np.argsort(self.class_id, kind="stable"))
        return tuple(np.split(by_class, np.cumsum(self.class_size)[:-1]))


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def _tables(group: AbelianGroup) -> _IndexTables:
    check_order(group)
    return _IndexTables(group)


def _elements_at(group: AbelianGroup, indices: np.ndarray) -> list[GroupElement]:
    """The elements with these canonical indices, in the same order."""
    return [_element(group, tuple(row)) for row in _coordinate_rows(group, indices).tolist()]


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
    indices = _row_index(group, rows)
    # Python's set and sort beat np.unique on the few dozen members of a typical set
    return np.array(sorted(set(indices.tolist())), dtype=np.intp)


def list_power_classes(group: AbelianGroup) -> list[frozenset[GroupElement]]:
    """Partition of the group into power classes, sorted by (element order, key)."""
    return [frozenset(_elements_at(group, members)) for members in _tables(group).class_members]


def is_power_closed(connection_set: ConnectionSet) -> bool:
    """True iff the set is a union of power classes; answered from its kept class mask."""
    return _class_mask(connection_set) is not None


def _union_mask(group: AbelianGroup, indices: np.ndarray) -> np.ndarray | None:
    """0/1 float64 mask of the power classes these elements are the union of, or None."""
    tables = _tables(group)
    counts = np.bincount(tables.class_id[indices], minlength=len(tables.class_size))
    met = (counts > 0).astype(np.float64)
    # the classes a set meets hold all of its elements, and more unless it is their union
    return _frozen(met) if met @ tables.class_size == len(indices) else None


def _class_mask(connection_set: ConnectionSet) -> np.ndarray | None:
    """The mask of the power classes a set is the union of, None unless it is power-closed.

    Computed once and kept on the set, as False for a set that is not power-closed.
    """
    mask = connection_set._class_mask
    if mask is None:
        mask = _union_mask(connection_set.group, connection_set.indices)
        object.__setattr__(connection_set, "_class_mask", False if mask is None else mask)
    return None if mask is False else mask


class ConnectionSet:
    """Validated inverse-closed, identity-free subset of one group.

    `indices` is the sorted, read-only array of the members' canonical
    indices, and membership searches it; `elements`, the frozenset of
    members, is built on each read.  `loops_allowed` records that the
    identity was present in the raw input and stripped (a loop at every
    vertex, which never affects transfer).  Two derived values are kept once
    read, each from one producer: the mask of the power classes the set is
    the union of, or False when it is not power-closed (_class_mask), and its
    character sums, one per dual power class for a power-closed set and one
    per character otherwise (spectra._sums).  The spectrum, the walk and the
    structural conditions all start from them.  No kept array is a view into
    a larger one, so no set keeps more alive than its own values.
    """

    __slots__ = ("group", "indices", "loops_allowed", "_class_mask", "_sums")

    def __init__(self, group: AbelianGroup, elements: Iterable[GroupElement]) -> None:
        self._init(group, _sorted_indices(group, elements), False)

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
        cls, group: AbelianGroup, mask: np.ndarray, sums: np.ndarray | None = None
    ) -> ConnectionSet:
        """The union of the power classes marked 1 in a 0/1 float64 class mask.

        The identity's class must be unmarked.  Power classes are
        inverse-closed, so nothing is validated, and the set keeps the mask
        and, when given, its class sums S @ mask.  Both must own their data.
        """
        connection_set = cls.__new__(cls)
        indices = mask[_tables(group).class_id].nonzero()[0]
        sums = None if sums is None else _frozen(sums)
        connection_set._store(group, indices, False, _frozen(mask), sums)
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
        self._store(group, indices, loops_allowed, None)

    def _store(self, group, indices, loops_allowed, class_mask, sums=None) -> None:
        # every slot, in __slots__ order: __setattr__ refuses every assignment
        store = object.__setattr__
        store(self, "group", group)
        store(self, "indices", _frozen(indices))
        store(self, "loops_allowed", loops_allowed)
        store(self, "_class_mask", class_mask)
        store(self, "_sums", sums)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"ConnectionSet is immutable; cannot set {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild from the indices, validated again, and never assign attributes
        return ConnectionSet._from_indices, (self.group, self.indices, self.loops_allowed)

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
        return frozenset(_elements_at(self.group, self.indices))

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(_elements_at(self.group, self.indices))

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, g) -> bool:
        if not isinstance(g, GroupElement) or g.group != self.group:
            return False
        index = self.group.index_of(g)
        at = self.indices.searchsorted(index)
        return at < len(self.indices) and self.indices[at] == index

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

    def __repr__(self) -> str:
        coords = [g.coords for g in _elements_at(self.group, self.indices)]
        return f"ConnectionSet({coords}@{self.group})"


_FACTOR_RE = re.compile(r"[Zz]([0-9]+)")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
# whitespace around a separator is padding; whitespace inside a token is an error
_PADDING_RE = re.compile(r"\s*([xX(),{}])\s*")
# a comma outside parentheses separates two entries of a set literal
_ENTRY_COMMA_RE = re.compile(r",(?![^(]*\))")


def _unpadded(text: str) -> str:
    """Text with whitespace stripped at the ends and where it pads a separator."""
    return _PADDING_RE.sub(r"\1", text.strip())


def _parse_integer(text: str) -> int:
    """An integer literal: ASCII digits with an optional sign (int() alone takes '1_0' too)."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"invalid integer literal {text!r}: use ASCII digits and an optional sign")
    return int(text)


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def parse_group(text: str) -> AbelianGroup:
    """Parse a group written as Z<n> factors joined by 'x', e.g. 'Z4xZ3xZ3'.

    Case-insensitive; whitespace may pad the ends and each 'x', but may not
    split a factor ('Z1 6' is refused).  Every factor must be >= 2.  Groups
    are immutable, so one text always gives the same cached group.
    """
    compact = _unpadded(text)
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


def _literal_row(group: AbelianGroup, text: str) -> list[int]:
    """The integers of one unpadded element literal, of length group.rank."""
    try:
        if text.startswith("(") and text.endswith(")"):
            row = [_parse_integer(p) for p in text[1:-1].split(",")]
        elif group.rank == 1:
            row = [_parse_integer(text)]
        else:
            raise ValueError(f"write a coordinate tuple like ({','.join('0' * group.rank)})")
        if len(row) != group.rank:
            raise ValueError(f"expected {group.rank} coordinates, got {len(row)}")
    except ValueError as exc:
        raise ValueError(f"bad element literal {text!r} for {group}: {exc}") from None
    return row


def parse_element(group: AbelianGroup, text: str) -> GroupElement:
    """Parse '(2,0,0)' (or a bare integer for single-factor groups)."""
    return group.element(_literal_row(group, _unpadded(text)))


def parse_connection_set(group: AbelianGroup, text: str) -> ConnectionSet:
    """Parse a set literal like '{(1,0),(3,0)}' or '{1,3}'; '{}' is the empty set.

    The entries' rows go to ConnectionSet.from_coordinates, like a set file's.
    """
    compact = _unpadded(text)
    if not (compact.startswith("{") and compact.endswith("}")):
        raise ValueError(f"set literal must be brace-wrapped, got {text!r}")
    entries = _ENTRY_COMMA_RE.split(compact[1:-1]) if compact != "{}" else []
    return ConnectionSet.from_coordinates(group, [_literal_row(group, e) for e in entries])
