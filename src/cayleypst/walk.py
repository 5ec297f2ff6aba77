"""Continuous-time quantum walk numerics for translation graphs.

Two independent routes to the transition matrix exp(i*t*A): a closed form
through the character decomposition, and a dense symmetric eigendecomposition
of the adjacency matrix.  The dense route shares no character machinery and
serves as the low-tech cross-check for everything else.  Each |G| x |G|
matrix is refused above 2048 vertices, by check_square, before any work.

The character route needs only the row at the identity vertex.  For a
power-closed set it is constant on power classes (multiplying by a unit is a
graph automorphism that fixes the identity): S @ exp(i*t*S @ mask) / |G|,
with S the class-sum matrix, one class transform each way and no |G| x |G|
table.  The numeric scans and a single amplitude read those k class
amplitudes and never gather the |G| entries.  A set that is not power-closed
takes two FFTs over the factor shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import (
    AbelianGroup,
    ConnectionSet,
    GroupElement,
    _IndexTables,
    _class_mask,
    _require_bound,
    _require_bound_set,
    _tables,
    check_square,
)
from .spectra import _character_transform, _class_transform, _indicator, _sums
from .spectra import character_table  # noqa: F401  (perfbench/tracer.py rebinds walk.character_table)

# An identity row is a unit vector, so at most one entry can reach 1 - _SCAN_TOL,
# and such an entry leaves the diagonal a modulus of at most sqrt(2 * _SCAN_TOL):
# a diagonal entry above _DIAGONAL_BOUND settles the scan with no hit.
_SCAN_TOL = 1e-9
_DIAGONAL_BOUND = 1e-4


def _difference_index(group: AbelianGroup) -> np.ndarray:
    """Index table D[g, h] = canonical index of h - g; groups above 2048 vertices are refused.

    The one |G| x |G| array is of the narrowest signed type that holds +-|G|
    (int16 under the cap), so it holds every difference and modulus below.
    Kronecker steps block * size + table build it from the last factor to
    the first, each over the last in the same memory.
    """
    check_square(group)
    index = np.zeros(group.order**2, dtype=np.min_scalar_type(-group.order - 1))
    size = 1
    for n in reversed(group.factors):
        # the table of the later factors, copied before its memory is overwritten
        table = index[: size * size].reshape(1, size, 1, size).copy()
        # coordinates scaled by size, so mod n * size leaves ((h - g) mod n) * size
        step = np.arange(0, n * size, size, dtype=index.dtype)
        block = index[: (n * size) ** 2].reshape(n, size, n, size)
        np.subtract(step[:, None], step[:, None, None, None], out=block)
        block %= n * size
        block += table
        size *= n
    return index.reshape(group.order, group.order)


def adjacency_matrix(group: AbelianGroup, connection_set: ConnectionSet) -> np.ndarray:
    """0/1 adjacency matrix in canonical vertex order: A[g, h] = 1 iff h - g in C."""
    index = _difference_index(group)
    return _indicator(group, connection_set)[index]


def _check_time(t: float, size: int) -> None:
    """Refuse a time that is not finite, or whose bound t * |C| on every phase is not."""
    if not math.isfinite(t):
        raise ValueError(f"time {t!r} is not a finite number")
    if not math.isfinite(t * size):
        raise ValueError(f"time {t!r} is too large: the phase t * |C| overflows for |C| = {size}")


def _row(
    group: AbelianGroup, connection_set: ConnectionSet, t: float
) -> tuple[np.ndarray, _IndexTables | None]:
    """The identity row, one amplitude per slot, and the tables that index it or None.

    One phase expression, exp(i * t * sums), reads the set's real, float64
    sums.  A power-closed set's are exact class sums (t would scale any
    round-off); its slots are power classes, indexed by the power-class
    tables.  Any other set's slots are elements, by the FFT, with no tables.
    """
    _require_bound_set(group, connection_set)
    size = len(connection_set)
    _check_time(t, size)
    if not size:
        # the empty graph never moves
        return np.eye(1, group.order, dtype=np.complex128)[0], None
    phases = 1j * t * _sums(group, connection_set)
    np.exp(phases, out=phases)
    if _class_mask(connection_set) is None:
        return _character_transform(group, phases, inverse=True), None
    return _class_transform(group, phases, inverse=True), _tables(group)


def _identity_row(group: AbelianGroup, connection_set: ConnectionSet, t: float) -> np.ndarray:
    """Row of the transition matrix at the identity vertex, via characters."""
    row, tables = _row(group, connection_set, t)
    return row if tables is None else row[tables.class_id]


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """exp(i*t*A) for a translation graph, indexed in canonical vertex order."""

    group: AbelianGroup
    time: float
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)


def transition_amplitude(
    group: AbelianGroup,
    connection_set: ConnectionSet,
    source: GroupElement,
    target: GroupElement,
    t: float,
) -> complex:
    """Single amplitude U(t)[source, target] through the character decomposition.

    Equals (1/|G|) * sum over characters of exp(i*t*chi(C)) * chi(target - source).
    For a power-closed set it is the amplitude of the power class of
    target - source.
    """
    _require_bound(group, source)
    _require_bound(group, target)
    index = group.index_of(target - source)
    row, tables = _row(group, connection_set, t)
    # for a power-closed set, read the class amplitude and gather no row
    return complex(row[index if tables is None else tables.class_id[index]])


def transition_matrix(group: AbelianGroup, connection_set: ConnectionSet, t: float) -> TransitionMatrix:
    """Full transition matrix via characters; entry (g, h) depends only on h - g."""
    index = _difference_index(group)
    return TransitionMatrix(group, float(t), _identity_row(group, connection_set, t)[index])


def dense_expm(
    group: AbelianGroup,
    connection_set: ConnectionSet,
    t: float,
) -> TransitionMatrix:
    """Independent dense route: exp(i*t*A) from the eigendecomposition of A.

    A is real symmetric, so A = V diag(w) V^T with V orthogonal and
    exp(i*t*A) = V diag(exp(i*t*w)) V^T.  No character code is involved; this
    is the cross-validation oracle.  Like every |G| x |G| matrix it is
    refused above 2048 vertices, by adjacency_matrix, before any is built.
    """
    _check_time(t, len(connection_set))
    values, vectors = np.linalg.eigh(adjacency_matrix(group, connection_set))
    # the real and imaginary parts, V diag(cos tw) V^T and V diag(sin tw) V^T, as real products
    entries = np.empty((group.order, group.order), dtype=np.complex128)
    entries.real = (vectors * np.cos(t * values)) @ vectors.T
    entries.imag = (vectors * np.sin(t * values)) @ vectors.T
    return TransitionMatrix(group, float(t), entries)


@dataclass(frozen=True)
class PstDetection:
    """A near-unit off-diagonal amplitude found on the identity row."""

    source: GroupElement
    target: GroupElement
    phase: complex


def detect_pst_numeric(
    group: AbelianGroup,
    connection_set: ConnectionSet,
    t: float,
) -> PstDetection | None:
    """Scan the identity row of U(t) for an off-diagonal amplitude of modulus ~1.

    Translation invariance makes the identity row representative of every
    vertex.  Returns the entry whose modulus reaches 1 - 1e-9, or None; the
    row is a unit vector, so no two entries can, and none can while the
    diagonal entry is above 1e-4, which is read first.  For a power-closed
    set the k class amplitudes are scanned instead of the |G| entries: a
    class of two or more members would carry twice the row's norm, so a hit
    is a one-member class, and its member and amplitude are the row's.
    """
    row, tables = _row(group, connection_set, t)
    if abs(row[0]) > _DIAGONAL_BOUND:
        return None
    hit = int(np.abs(row[1:]).argmax()) + 1
    if abs(row[hit]) < 1.0 - _SCAN_TOL:
        return None
    target = hit if tables is None else tables.class_reps[hit]
    return PstDetection(group.identity, group.element_at(target), complex(row[hit]))


def is_periodic_numeric(
    group: AbelianGroup,
    connection_set: ConnectionSet,
    t: float,
) -> bool:
    """True iff |U(t)| at the identity diagonal entry is within 1e-9 of 1.

    By translation invariance this settles periodicity of every vertex.  The
    identity is a power class of its own, the first, so for a power-closed
    set its amplitude is the first class amplitude.
    """
    row, _ = _row(group, connection_set, t)
    return bool(abs(row[0]) >= 1.0 - _SCAN_TOL)
