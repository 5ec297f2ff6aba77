"""Continuous-time quantum walk numerics for translation graphs.

Two independent routes to the transition matrix exp(i*t*A): a closed form
through the character decomposition, and a dense symmetric eigendecomposition
of the adjacency matrix.  The dense route shares no character machinery and
serves as the low-tech cross-check for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import (
    GROUP_CACHE_SIZE,
    MAX_ORDER,
    AbelianGroup,
    ConnectionSet,
    GroupElement,
    _require_bound,
    _tables,
)
from .spectra import _character_transform, _indicator
from .spectra import character_table  # noqa: F401  (perfbench/tracer.py rebinds walk.character_table)

DENSE_ORDER_CAP = 512
# An identity row is a unit vector, so at most one entry can reach 1 - _SCAN_TOL.
_SCAN_TOL = 1e-9


class CapExceededError(ValueError):
    """A size cap was exceeded."""


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def _difference_index(group: AbelianGroup) -> np.ndarray:
    """Index table D[g, h] = canonical index of h - g; its |G|^2 entries are capped at MAX_ORDER."""
    if group.order**2 > MAX_ORDER:
        raise CapExceededError(
            f"{group} has {group.order} elements, too many for a |G| x |G| matrix: "
            f"|G|^2 is above the cap of {MAX_ORDER} (cayleypst.groups.MAX_ORDER)"
        )
    coords = _tables(group).coords
    table = np.ravel_multi_index(
        tuple(row[None, :] - row[:, None] for row in coords), group.factors, mode="wrap"
    )
    table.setflags(write=False)
    return table


def adjacency_matrix(group: AbelianGroup, connection_set: ConnectionSet) -> np.ndarray:
    """0/1 adjacency matrix in canonical vertex order: A[g, h] = 1 iff h - g in C."""
    indicator = _indicator(group, connection_set)
    return indicator[_difference_index(group)]


def _identity_row(group: AbelianGroup, connection_set: ConnectionSet, t: float) -> np.ndarray:
    """Row of the transition matrix at the identity vertex, via characters.

    An inverse-closed set has real character sums; keeping their round-off
    imaginary parts out of the phases keeps the row a unit vector at every t.
    No eigenvalue exceeds |C| in modulus, so a finite t * |C| bounds every phase.
    """
    size = len(connection_set)
    if not math.isfinite(t * size):
        raise ValueError(f"time {t!r} is too large: the phase t * |C| overflows for |C| = {size}")
    eigenvalues = _character_transform(group, _indicator(group, connection_set)).real
    return _character_transform(group, np.exp(1j * t * eigenvalues), inverse=True)


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
            "vertices": _tables(self.group).coords.T.tolist(),
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
    """
    _require_bound(group, source)
    _require_bound(group, target)
    row = _identity_row(group, connection_set, t)
    return complex(row[group.index_of(target - source)])


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
    row is a unit vector, so no two entries can.
    """
    row = _identity_row(group, connection_set, t)
    hits = (np.flatnonzero(np.abs(row[1:]) >= 1.0 - _SCAN_TOL) + 1).tolist()
    if not hits:
        return None
    target = group.element_at(hits[0])
    return PstDetection(group.identity, target, complex(row[hits[0]]))


def is_periodic_numeric(
    group: AbelianGroup,
    connection_set: ConnectionSet,
    t: float,
) -> bool:
    """True iff |U(t)| at the identity diagonal entry is within 1e-9 of 1.

    By translation invariance this settles periodicity of every vertex.
    """
    row = _identity_row(group, connection_set, t)
    return bool(abs(row[0]) >= 1.0 - _SCAN_TOL)
