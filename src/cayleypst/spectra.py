"""Characters of abelian groups and exact integer spectra of translation graphs.

Every character is simultaneously an eigenvector of every Cayley graph of its
group; the eigenvalue attached to a connection set is the character sum over
that set.  The sums are integers exactly when the set is power-closed, which
decides integrality.

A power-closed set is a union of power classes, and the sum of a character
over one power class is a Ramanujan sum that depends only on the character's
dual power class.  So its whole spectrum is the exact integer class-sum
matrix S of the group (k x k for k power classes) times the set's class
mask: no float is rounded and no |G| x |G| table is built.  Groups of at
most MAX_CLASSES power classes take this class-space route.  Every other
case (a set that is not power-closed, or a group with more classes) takes
the one FFT kernel: the vector of all character sums is numpy's ifftn over
`group.factors`, in O(|G| log |G|) time and O(|G|) memory, and its sums are
rounded to integers.  A set keeps its class spectrum or its sums, so it
pays for one product or one forward transform.  The dense character table
is a test oracle only.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .groups import (
    AbelianGroup,
    ConnectionSet,
    _class_mask,
    _frozen,
    _require_bound_set,
    _tables,
    check_square,
    is_power_closed,
)

INTEGRALITY_TOL = 1e-7
# Most power classes for the class-space route, which keeps its class-sum
# matrix no larger than 256 x 256; groups with more classes use the FFT.
MAX_CLASSES = 256


class NonIntegralSpectrumError(Exception):
    """The set is not power-closed, so some eigenvalue is not an integer.

    `index` is the coordinate tuple of the character whose sum is `value`.
    """

    def __init__(self, index: tuple[int, ...], value: complex):
        self.index = index
        self.value = value
        super().__init__(f"character {index} gives non-integral eigenvalue {value.real:.9g}")


def character_table(group: AbelianGroup) -> np.ndarray:
    """Full |G| x |G| character table; rows are characters, columns elements.

    Both axes follow the canonical element order, so table[j] @ indicator(C)
    is the eigenvalue vector of X(G, C).  The table is symmetric.  No
    production path reads it: it is the oracle that the class-space and FFT
    routes are tested against.  Groups whose |G|^2 is above groups.MAX_ORDER
    raise CapExceededError.
    """
    check_square(group)
    table = np.ones((1, 1), dtype=np.complex128)
    for n in group.factors:
        grid = np.outer(np.arange(n), np.arange(n)) % n
        block = np.exp(2j * np.pi * grid / n)
        # the Kronecker product table (x) block, without np.kron's per-call overhead
        size = len(table) * n
        table = (table[:, None, :, None] * block[None, :, None, :]).reshape(size, size)
    table.setflags(write=False)
    return table


def _character_transform(
    group: AbelianGroup, values: np.ndarray, inverse: bool = False
) -> np.ndarray:
    """Character sums of a vector over the group, in canonical order.

    Forward: entry j is sum over g of chi_j(g) * values[g], i.e. table @ values,
    which maps the indicator of C to the eigenvalues.  Inverse: entry g is
    sum over j of values[j] * chi_j(g) / |G|, i.e. values @ table / |G|, which
    maps eigenvalue phases to the identity row of the walk.  Both are numpy's
    ifftn over the factor shape, whose sign exp(+2*pi*i j.g/n) is the
    table's; the norm moves the 1/|G|.
    """
    norm = "backward" if inverse else "forward"
    return np.fft.ifftn(np.reshape(values, group.factors), norm=norm).ravel()


def _indicator(group: AbelianGroup, connection_set: ConnectionSet) -> np.ndarray:
    _require_bound_set(group, connection_set)
    vec = np.zeros(group.order)
    vec[connection_set.indices] = 1.0
    return vec


def _character_sums(connection_set: ConnectionSet) -> np.ndarray:
    """Every character sum of a set, by the FFT, computed once and kept on the set."""
    sums = connection_set._character_sums
    if sums is None:
        group = connection_set.group
        sums = _character_transform(group, _indicator(group, connection_set))
        sums.setflags(write=False)
        object.__setattr__(connection_set, "_character_sums", sums)
    return sums


def _class_spectrum(group: AbelianGroup, connection_set: ConnectionSet) -> np.ndarray | None:
    """Eigenvalue of each dual power class, S @ mask, exact; None off the class-space route.

    The route takes a power-closed set on a group of at most MAX_CLASSES
    power classes.  The spectrum is computed once and kept on the set; a
    census candidate arrives with it, from one product over its block.
    """
    per_class = connection_set._class_spectrum
    if per_class is None:
        if not is_power_closed(connection_set):
            return None
        tables = _tables(group)
        if len(tables.class_size) > MAX_CLASSES:
            return None
        per_class = tables.class_sums @ _class_mask(connection_set)
        per_class.setflags(write=False)
        object.__setattr__(connection_set, "_class_spectrum", per_class)
    return per_class


class Spectrum:
    """Exact integer eigenvalues of an integral translation graph.

    `values` is the read-only int64 array of eigenvalues in canonical
    character order; `eigenvalues`, the multiset keyed by value in
    descending order, is derived on first read.  A spectrum from the
    class-space route holds only the eigenvalue and the size of each dual
    power class: it spreads them into `values` when that is read, and
    `eigenvalues` and `to_json_dict` never do.
    """

    def __init__(self) -> None:
        raise TypeError("a Spectrum comes from integral_spectrum; it has no public constructor")

    @classmethod
    def _from_values(cls, group: AbelianGroup, values: np.ndarray) -> Spectrum:
        spectrum = cls.__new__(cls)
        spectrum.__dict__.update(group=group, values=_frozen(values), _classes=None)
        return spectrum

    @classmethod
    def _from_classes(cls, group: AbelianGroup, values: np.ndarray, sizes: np.ndarray) -> Spectrum:
        """The spectrum whose dual power classes, of these sizes, have these int64 eigenvalues."""
        spectrum = cls.__new__(cls)
        spectrum.__dict__.update(group=group, _classes=(_frozen(values), sizes))
        return spectrum

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"Spectrum is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"Spectrum({self.eigenvalues}@{self.group})"

    @cached_property
    def values(self) -> np.ndarray:
        per_class, _ = self._classes
        return _frozen(per_class[_tables(self.group).class_id])

    @cached_property
    def eigenvalues(self) -> dict[int, int]:
        if self._classes is None:
            distinct, counts = np.unique(self.values, return_counts=True)
        else:
            per_class, sizes = self._classes
            distinct, which = np.unique(per_class, return_inverse=True)
            # the sizes sum to |G|, well inside float64's exact integers
            counts = np.bincount(which, weights=sizes).astype(np.int64)
        return dict(zip(distinct[::-1].tolist(), counts[::-1].tolist()))

    @property
    def distinct(self) -> tuple[int, ...]:
        return tuple(self.eigenvalues)

    @property
    def max_eigenvalue(self) -> int:
        return next(iter(self.eigenvalues))

    @property
    def total_multiplicity(self) -> int:
        return sum(self.eigenvalues.values())

    def multiplicity(self, value: int) -> int:
        return self.eigenvalues.get(value, 0)

    def to_json_dict(self) -> dict:
        return {"eigenvalues": [[value, mult] for value, mult in self.eigenvalues.items()]}


def integral_spectrum(group: AbelianGroup, connection_set: ConnectionSet) -> Spectrum:
    """Evaluate every character sum as an exact integer.

    The spectrum is integral exactly when the set is power-closed, and
    is_power_closed decides it.  On the class-space route the sums are exact
    integers and nothing is rounded.  On the FFT route, a set that is not
    power-closed raises NonIntegralSpectrumError naming the first character
    in canonical order whose sum is off an integer by more than
    INTEGRALITY_TOL; a power-closed set whose sums are that far off is a
    numeric fault: RuntimeError.
    """
    _require_bound_set(group, connection_set)
    if not len(connection_set):
        # the empty graph: no power-class table and no FFT
        return Spectrum._from_values(group, np.zeros(group.order, dtype=np.int64))
    per_class = _class_spectrum(group, connection_set)
    if per_class is not None:
        return Spectrum._from_classes(group, per_class.astype(np.int64), _tables(group).class_size)
    sums = _character_sums(connection_set)
    nearest = np.rint(sums.real)
    residual = np.abs(sums - nearest)
    if not is_power_closed(connection_set):
        off = residual > INTEGRALITY_TOL
        # some sum is not an integer; should rounding hide all of them, name the farthest
        first = int(np.argmax(off) if off.any() else np.argmax(residual))
        index = tuple(int(c) for c in np.unravel_index(first, group.factors))
        raise NonIntegralSpectrumError(index, complex(sums[first]))
    if residual.max() > INTEGRALITY_TOL:
        worst = int(np.argmax(residual))
        raise RuntimeError(
            f"internal error: character sum {complex(sums[worst])} of a power-closed set "
            f"is {residual[worst]:.3g} off an integer"
        )
    return Spectrum._from_values(group, nearest.astype(np.int64))


def delta(spectrum: Spectrum) -> int | None:
    """Gcd of the gaps from the top eigenvalue down to each other one.

    Returns None when there is a single distinct eigenvalue (a graph with no
    transfer time; never 0, so pi/delta is always well defined when not None).
    """
    # the distinct eigenvalues, in descending order
    values = np.array(spectrum.distinct)
    return int(np.gcd.reduce(values[0] - values)) or None


def odd_eigenvalue_exists(group: AbelianGroup, connection_set: ConnectionSet) -> bool:
    """True iff the integral spectrum contains an odd eigenvalue."""
    spectrum = integral_spectrum(group, connection_set)
    return any(value % 2 for value in spectrum.eigenvalues)
