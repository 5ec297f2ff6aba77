"""Characters of abelian groups and exact integer spectra of translation graphs.

Every character is simultaneously an eigenvector of every Cayley graph of its
group; the eigenvalue attached to a connection set is the character sum over
that set.  The sums are integers exactly when the set is power-closed, which
decides integrality.

A power-closed set is a union of power classes, and the sum of a character
over one power class is a Ramanujan sum that depends only on the character's
dual power class.  So the spectrum of a power-closed set is a vector over
the power classes: the integer class-sum matrix S of the group (k x k for k
power classes) times the set's class mask, by one class transform, rounded.
That is the exact product on at most MAX_CLASSES classes, and above that the
one FFT kernel, numpy's ifftn over `group.factors` in O(|G| log |G|) time and
O(|G|) memory.  Only a set that is not power-closed takes the FFT of its own
indicator, one sum per character, which names a sum that is not an integer.
A set keeps its real, float64 sums (C is inverse-closed), per class or per
character (_sums), so it pays for one transform.  The dense character table
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
)

_INTEGRALITY_TOL = 1e-7
# Most power classes for the exact class-sum product, which keeps its matrix
# no larger than 256 x 256; groups with more classes use the FFT.
MAX_CLASSES = 256


class NonIntegralSpectrumError(Exception):
    """The set is not power-closed, so some eigenvalue is not an integer.

    `index` is the coordinate tuple of the character whose sum is `value`.
    """

    def __init__(self, index: tuple[int, ...], value: complex):
        self.index = index
        self.value = value
        super().__init__(f"character {index} gives non-integral eigenvalue {value.real:.9g}")

    def __reduce__(self):
        return type(self), (self.index, self.value)


def character_table(group: AbelianGroup) -> np.ndarray:
    """Full |G| x |G| character table; rows are characters, columns elements.

    Both axes follow the canonical element order, so table[j] @ indicator(C)
    is the eigenvalue vector of X(G, C).  The table is symmetric.  No
    production path reads it: it is the oracle that the class transform and
    the FFT are tested against.  Groups whose |G|^2 is above groups.MAX_ORDER
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


def _class_transform(group: AbelianGroup, values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """S @ values for a vector over the power classes, divided by |G| when inverse.

    The product casts the narrow integer S to float64 or complex128, giving
    the bytes of a float64 S.  Above MAX_CLASSES classes it is the FFT of the
    vector spread over the elements, read at one member of each class.
    """
    tables = _tables(group)
    if len(tables.class_size) > MAX_CLASSES:
        return _character_transform(group, values[tables.class_id], inverse)[tables.class_reps]
    return tables.class_sums.dot(values) / (group.order if inverse else 1)


def _sums(group: AbelianGroup, connection_set: ConnectionSet) -> np.ndarray:
    """The real, float64 character sums of a set, computed once and kept on the set.

    A power-closed set has one sum per dual power class, S @ mask rounded; a
    census candidate arrives with it, from one product over its block, and a
    sum that rounding moves by more than _INTEGRALITY_TOL is a numeric fault:
    RuntimeError.  Any other set has one sum per character, an owned copy of
    the FFT's real part: C is inverse-closed, so the rest is round-off.
    """
    sums = connection_set._sums
    if sums is None:
        mask = _class_mask(connection_set)
        if mask is None:
            sums = _character_transform(group, _indicator(group, connection_set)).real.copy()
        else:
            product = _class_transform(group, mask)
            sums = np.rint(product.real)
            residual = np.abs(product - sums)
            if residual.max() > _INTEGRALITY_TOL:
                worst = int(np.argmax(residual))
                raise RuntimeError(
                    f"internal error: character sum {complex(product[worst])} of a power-closed "
                    f"set is {residual[worst]:.3g} off an integer"
                )
        sums.setflags(write=False)
        object.__setattr__(connection_set, "_sums", sums)
    return sums


class Spectrum:
    """Exact integer eigenvalues of an integral translation graph.

    Every spectrum, the empty set's too, holds only the eigenvalue of each
    dual power class; equal groups have one class partition, so two spectra
    are equal when those are.  `values`, the read-only int64 array of
    eigenvalues in canonical character order, spreads them over the
    characters on each read and is not kept; `eigenvalues`, the multiset
    keyed by value in descending order, is counted from the group's class
    sizes, so neither it nor `to_json_dict` ever spreads them.
    """

    def __init__(self) -> None:
        raise TypeError("a Spectrum comes from integral_spectrum; it has no public constructor")

    @classmethod
    def _from_classes(cls, group: AbelianGroup, values: np.ndarray) -> Spectrum:
        """The spectrum whose dual power classes have these int64 eigenvalues."""
        spectrum = cls.__new__(cls)
        spectrum.__dict__.update(group=group, _per_class=_frozen(values))
        return spectrum

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"Spectrum is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.group == other.group and np.array_equal(self._per_class, other._per_class)

    def __repr__(self) -> str:
        return f"Spectrum({self.eigenvalues}@{self.group})"

    @property
    def values(self) -> np.ndarray:
        return _frozen(self._per_class[_tables(self.group).class_id])

    @cached_property
    def eigenvalues(self) -> dict[int, int]:
        distinct, which = np.unique(self._per_class, return_inverse=True)
        # the sizes sum to |G|, well inside float64's exact integers
        counts = np.bincount(which, weights=_tables(self.group).class_size).astype(np.int64)
        return dict(zip(distinct[::-1].tolist(), counts[::-1].tolist()))

    def to_json_dict(self) -> dict:
        return {"eigenvalues": [[value, mult] for value, mult in self.eigenvalues.items()]}


def integral_spectrum(group: AbelianGroup, connection_set: ConnectionSet) -> Spectrum:
    """Evaluate every character sum as an exact integer.

    The spectrum is integral exactly when the set is power-closed, and its
    class mask decides it.  Every spectrum holds one eigenvalue per dual
    power class, the set's sums (_sums); the empty set is the union of no
    classes, so its spectrum is all zeros.  A set that is not
    power-closed raises NonIntegralSpectrumError naming the first character
    in canonical order whose sum, by the FFT, is off an integer by more than
    _INTEGRALITY_TOL.
    """
    _require_bound_set(group, connection_set)
    sums = _sums(group, connection_set)
    if _class_mask(connection_set) is not None:
        return Spectrum._from_classes(group, sums.astype(np.int64))
    residual = np.abs(sums - np.rint(sums))
    off = residual > _INTEGRALITY_TOL
    # some sum is not an integer; should rounding hide all of them, name the farthest
    first = int(np.argmax(off) if off.any() else np.argmax(residual))
    raise NonIntegralSpectrumError(group.element_at(first).coords, complex(sums[first]))


def delta(spectrum: Spectrum) -> int | None:
    """Gcd of the gaps from the top eigenvalue down to each other one.

    Returns None when there is a single distinct eigenvalue (a graph with no
    transfer time; never 0, so pi/delta is always well defined when not None).
    It reads the class eigenvalues, from the set's real, float64 sums.
    """
    values = spectrum._per_class
    return int(np.gcd.reduce(values.max() - values)) or None


def odd_eigenvalue_exists(group: AbelianGroup, connection_set: ConnectionSet) -> bool:
    """True iff some class eigenvalue, of the set's real, float64 sums, is odd."""
    return bool((integral_spectrum(group, connection_set)._per_class % 2).any())
