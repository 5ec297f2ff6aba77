"""Characters of abelian groups and exact integer spectra of translation graphs.

Every character is simultaneously an eigenvector of every Cayley graph of its
group; the eigenvalue attached to a connection set is the character sum over
that set.  The sums are evaluated in double precision and rounded to
integers; they are integers exactly when the set is power-closed, which
decides integrality.

Over the factor shape, the vector of all character sums is one
multidimensional DFT.  Up to TABLE_MAX_ORDER vertices the sums come from the
cached dense character table (a matvec beats an FFT call there); above it
they come from numpy's FFT over `group.factors`, in O(|G| log |G|) time and
O(|G|) memory, and no table is built.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .groups import (
    GROUP_CACHE_SIZE,
    AbelianGroup,
    ConnectionSet,
    GroupElement,
    GroupMismatchError,
    _canonical_elements,
    _require_bound_set,
    is_power_closed,
)

INTEGRALITY_TOL = 1e-7
# Largest order whose character sums use the dense table; larger groups use
# the FFT.  The two cost the same near 256 vertices.
TABLE_MAX_ORDER = 256


class NonIntegralSpectrumError(Exception):
    """The set is not power-closed, so some eigenvalue is not an integer."""

    def __init__(self, index: "CharacterIndex", value: complex):
        self.index = index
        self.value = value
        super().__init__(
            f"character {index.indices} gives non-integral eigenvalue "
            f"{value.real:.9g}{value.imag:+.3g}i"
        )


@dataclass(frozen=True)
class CharacterIndex:
    """Index tuple (j_1, ..., j_r) selecting one character of the group."""

    group: AbelianGroup
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.group.factors):
            raise ValueError(
                f"character index has {len(self.indices)} entries but {self.group} "
                f"has {len(self.group.factors)} factors"
            )
        for j, n in zip(self.indices, self.group.factors):
            if not 0 <= j < n:
                raise ValueError(f"character index entry {j} out of range for Z{n}")

    def __repr__(self) -> str:
        return f"chi{self.indices}@{self.group}"

    @property
    def is_trivial(self) -> bool:
        return not any(self.indices)


def character_index(group: AbelianGroup, indices) -> CharacterIndex:
    """Build a character index, reducing entries modulo the factor orders."""
    raw = tuple(int(j) for j in indices)
    if len(raw) != len(group.factors):
        raise ValueError(f"expected {len(group.factors)} index entries for {group}")
    return CharacterIndex(group, tuple(j % n for j, n in zip(raw, group.factors)))


def all_character_indices(group: AbelianGroup) -> list[CharacterIndex]:
    """All |G| character indices in canonical order; the first is trivial."""
    return [CharacterIndex(group, g.coords) for g in _canonical_elements(group)]


def character_value(index: CharacterIndex, g: GroupElement) -> complex:
    """Value of the character at one element: a product of roots of unity."""
    if index.group != g.group:
        raise GroupMismatchError(f"{index!r} and {g!r} belong to different groups")
    value = 1.0 + 0.0j
    for j, c, n in zip(index.indices, g.coords, index.group.factors):
        value *= cmath.exp(2j * cmath.pi * ((j * c) % n) / n)
    return value


def character_sum(index: CharacterIndex, connection_set: ConnectionSet) -> complex:
    """Eigenvalue of the Cayley graph for this character's eigenvector.

    Elements are summed in canonical order so results are reproducible.
    """
    if index.group != connection_set.group:
        raise GroupMismatchError(f"{index!r} is not a character of {connection_set.group}")
    return sum((character_value(index, g) for g in connection_set), 0.0 + 0.0j)


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def character_table(group: AbelianGroup) -> np.ndarray:
    """Full |G| x |G| character table; rows are characters, columns elements.

    Both axes follow the canonical element order, so table[j] @ indicator(C)
    is the eigenvalue vector of X(G, C).  The table is symmetric.  It backs
    the character sums of groups of at most TABLE_MAX_ORDER vertices and is
    the reference the FFT route is tested against.
    """
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
    maps eigenvalue phases to the identity row of the walk.  Above
    TABLE_MAX_ORDER both are numpy's ifftn over the factor shape, whose sign
    exp(+2*pi*i j.g/n) is the table's; the norm moves the 1/|G|.
    """
    if group.order <= TABLE_MAX_ORDER:
        table = character_table(group)
        return (values @ table) / group.order if inverse else table @ values
    norm = "backward" if inverse else "forward"
    return np.fft.ifftn(np.reshape(values, group.factors), norm=norm).ravel()


def _indicator(group: AbelianGroup, connection_set: ConnectionSet) -> np.ndarray:
    _require_bound_set(group, connection_set)
    vec = np.zeros(group.order)
    vec[connection_set.indices] = 1.0
    return vec


class Spectrum:
    """Exact integer eigenvalues of an integral translation graph.

    `values` is the read-only int64 array of eigenvalues in canonical
    character order.  `eigenvalues`, the multiset keyed by value in
    descending order, and `by_character`, which maps every character index
    to its eigenvalue, are derived from it on first read.  The constructor
    takes the `by_character` mapping, covering every character of one group.
    """

    def __init__(self, by_character: dict[CharacterIndex, int]) -> None:
        characters = list(by_character)
        group = characters[0].group if characters else None
        if group is None or len(characters) != group.order or any(
            index.group != group for index in characters
        ):
            raise ValueError("a spectrum needs one eigenvalue for every character of one group")
        rows = np.array([index.indices for index in characters], dtype=np.intp)
        values = np.empty(group.order, dtype=np.int64)
        values[np.ravel_multi_index(tuple(rows.T), group.factors)] = list(by_character.values())
        self._init(group, values)

    @classmethod
    def _from_values(cls, group: AbelianGroup, values: np.ndarray) -> Spectrum:
        spectrum = cls.__new__(cls)
        spectrum._init(group, values)
        return spectrum

    def _init(self, group: AbelianGroup, values: np.ndarray) -> None:
        values.setflags(write=False)
        self.__dict__.update(group=group, values=values)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"Spectrum is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"Spectrum({self.eigenvalues}@{self.group})"

    @cached_property
    def eigenvalues(self) -> dict[int, int]:
        distinct, counts = np.unique(self.values, return_counts=True)
        return dict(zip(distinct[::-1].tolist(), counts[::-1].tolist()))

    @cached_property
    def by_character(self) -> dict[CharacterIndex, int]:
        return dict(zip(all_character_indices(self.group), self.values.tolist()))

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
    is_power_closed decides it.  For a set that is not, raises
    NonIntegralSpectrumError naming the first character in canonical order
    whose sum is off an integer by more than INTEGRALITY_TOL.  A power-closed
    set whose sums are that far off is a numeric fault: RuntimeError.
    """
    sums = _character_transform(group, _indicator(group, connection_set))
    nearest = np.rint(sums.real)
    residual = np.abs(sums - nearest)
    # the empty set is power-closed; it needs no power-class table
    if len(connection_set) and not is_power_closed(connection_set):
        off = residual > INTEGRALITY_TOL
        # some sum is not an integer; should rounding hide all of them, name the farthest
        first = int(np.argmax(off) if off.any() else np.argmax(residual))
        index = character_index(group, np.unravel_index(first, group.factors))
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
    values = spectrum.values
    return int(np.gcd.reduce(values.max() - values)) or None


def odd_eigenvalue_exists(group: AbelianGroup, connection_set: ConnectionSet) -> bool:
    """True iff the integral spectrum contains an odd eigenvalue."""
    spectrum = integral_spectrum(group, connection_set)
    return any(value % 2 for value in spectrum.eigenvalues)
