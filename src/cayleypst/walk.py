"""Continuous-time quantum walk numerics for translation graphs.

Two independent routes to the transition matrix exp(i*t*A): a closed form
through the character decomposition, and a dense symmetric eigendecomposition
of the adjacency matrix.  The dense route shares no character machinery and
serves as the low-tech cross-check for everything else.

The character route needs only the row at the identity vertex.  For a
power-closed set on a group of at most spectra.MAX_CLASSES power classes it
is constant on power classes (multiplying by a unit is a graph automorphism
that fixes the identity), so it is S @ exp(i*t*S @ mask) / |G| with S the
exact class-sum matrix: one small matvec each way, and no |G| x |G| table.
The numeric scans and a single amplitude read those k class amplitudes
and never gather the |G| entries.  Every other set takes two FFTs over the
factor shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import (
    AbelianGroup,
    CapExceededError,  # noqa: F401  (re-exported: one class for every size cap)
    ConnectionSet,
    GroupElement,
    _IndexTables,
    _coordinate_rows,
    _require_bound,
    _require_bound_set,
    _tables,
    check_square,
    is_power_closed,
)
from .spectra import (
    _character_sums,
    _character_transform,
    _class_spectrum,
    _indicator,
    integral_spectrum,
)
from .spectra import character_table  # noqa: F401  (perfbench/tracer.py rebinds walk.character_table)

DENSE_ORDER_CAP = 512
# An identity row is a unit vector, so at most one entry can reach 1 - _SCAN_TOL,
# and such an entry leaves the diagonal a modulus of at most sqrt(2 * _SCAN_TOL):
# a diagonal entry above _DIAGONAL_BOUND settles the scan with no hit.
_SCAN_TOL = 1e-9
_DIAGONAL_BOUND = 1e-4


def _difference_index(group: AbelianGroup) -> np.ndarray:
    """Index table D[g, h] = canonical index of h - g; groups above 2048 vertices are refused."""
    check_square(group)
    coords = np.unravel_index(np.arange(group.order), group.factors)
    return np.ravel_multi_index(
        tuple(row[None, :] - row[:, None] for row in coords), group.factors, mode="wrap"
    )


def adjacency_matrix(group: AbelianGroup, connection_set: ConnectionSet) -> np.ndarray:
    """0/1 adjacency matrix in canonical vertex order: A[g, h] = 1 iff h - g in C."""
    indicator = _indicator(group, connection_set)
    return indicator[_difference_index(group)]


def _row(
    group: AbelianGroup, connection_set: ConnectionSet, t: float
) -> tuple[np.ndarray, _IndexTables | None]:
    """The identity row, one amplitude per slot, and the tables that index it or None.

    On the class-space route a slot is a power class and the power-class
    tables are returned; otherwise a slot is an element, by the FFT, and
    the tables are None.  There an inverse-closed set's sums are real, so
    their round-off imaginary parts stay out of the phases, and a
    power-closed set takes its exact eigenvalues, since t would scale their
    round-off.  No eigenvalue exceeds |C| in modulus, so a finite t * |C|
    bounds every phase.
    """
    _require_bound_set(group, connection_set)
    size = len(connection_set)
    if not math.isfinite(t * size):
        raise ValueError(f"time {t!r} is too large: the phase t * |C| overflows for |C| = {size}")
    if not size:
        # the empty graph never moves
        return np.eye(1, group.order, dtype=np.complex128)[0], None
    per_class = _class_spectrum(group, connection_set)
    if per_class is not None:
        tables = _tables(group)
        phases = 1j * t * per_class
        np.exp(phases, out=phases)
        # the arithmetic of S @ exp(i*t*spectrum) / |G|, with fewer temporaries
        row = tables.class_sums.dot(phases)
        row /= group.order
        return row, tables
    if is_power_closed(connection_set):
        eigenvalues = integral_spectrum(group, connection_set).values
    else:
        eigenvalues = _character_sums(connection_set).real
    return _character_transform(group, np.exp(1j * t * eigenvalues), inverse=True), None


def _identity_row(group: AbelianGroup, connection_set: ConnectionSet, t: float) -> np.ndarray:
    """Row of the transition matrix at the identity vertex, via characters."""
    row, tables = _row(group, connection_set, t)
    return row if tables is None else row[tables.class_id]


@dataclass(frozen=True)
class TransitionMatrix:
    """exp(i*t*A) for a translation graph, indexed in canonical vertex order."""

    group: AbelianGroup
    time: float
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)

    def amplitude(self, source: GroupElement, target: GroupElement) -> complex:
        gi = self.group.index_of(source)
        hi = self.group.index_of(target)
        return complex(self.entries[gi, hi])

    def to_json_dict(self) -> dict:
        return {
            "time": self.time,
            "vertices": _coordinate_rows(self.group, np.arange(self.group.order)).tolist(),
            "entries": [[[z.real, z.imag] for z in row] for row in self.entries],
        }


def transition_amplitude(
    group: AbelianGroup,
    connection_set: ConnectionSet,
    source: GroupElement,
    target: GroupElement,
    t: float,
) -> complex:
    """Single amplitude U(t)[source, target] through the character decomposition.

    Equals (1/|G|) * sum over characters of exp(i*t*chi(C)) * chi(target - source).
    On the class-space route it is the amplitude of the power class of
    target - source.
    """
    _require_bound(group, source)
    _require_bound(group, target)
    index = group.index_of(target - source)
    row, tables = _row(group, connection_set, t)
    # on the class-space route, read the class amplitude and gather no row
    return complex(row[index if tables is None else tables.class_id[index]])


def transition_matrix(group: AbelianGroup, connection_set: ConnectionSet, t: float) -> TransitionMatrix:
    """Full transition matrix via characters; entry (g, h) depends only on h - g."""
    row = _identity_row(group, connection_set, t)
    return TransitionMatrix(group, float(t), row[_difference_index(group)])


def dense_expm(
    group: AbelianGroup,
    connection_set: ConnectionSet,
    t: float,
) -> TransitionMatrix:
    """Independent dense route: exp(i*t*A) from the eigendecomposition of A.

    A is real symmetric, so A = V diag(w) V^T with V orthogonal and
    exp(i*t*A) = V diag(exp(i*t*w)) V^T.  No character code is involved; this
    is the cross-validation oracle.  Groups above DENSE_ORDER_CAP vertices
    raise CapExceededError.
    """
    if group.order > DENSE_ORDER_CAP:
        raise CapExceededError(f"|{group}| = {group.order} exceeds the dense cap {DENSE_ORDER_CAP}")
    values, vectors = np.linalg.eigh(adjacency_matrix(group, connection_set))
    return TransitionMatrix(group, float(t), (vectors * np.exp(1j * t * values)) @ vectors.T)


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
    diagonal entry is above 1e-4, which is read first.  On the class-space
    route the k class amplitudes are scanned instead of the |G| entries: a
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
    identity is a power class of its own, the first, so on the class-space
    route its amplitude is the first class amplitude.
    """
    row, _ = _row(group, connection_set, t)
    return bool(abs(row[0]) >= 1.0 - _SCAN_TOL)
