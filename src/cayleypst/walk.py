"""Continuous-time quantum walk numerics for translation graphs.

Two independent routes to the transition matrix exp(i*t*A): a closed form
through the character decomposition, and a dense symmetric eigendecomposition
of the adjacency matrix.  The dense route shares no character machinery and
serves as the low-tech cross-check for everything else.
"""

from __future__ import annotations

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


class CapExceededError(ValueError):
    """A configured size cap was exceeded."""


class AmbiguousTransferError(Exception):
    """Several off-diagonal amplitudes are near modulus one: tolerance too loose."""

    def __init__(self, group: AbelianGroup, targets: list[GroupElement], tol: float):
        self.group = group
        self.targets = targets
        self.tol = tol
        listing = ", ".join(str(t) for t in targets)
        super().__init__(
            f"{len(targets)} near-unit off-diagonal amplitudes in {group} at tol={tol}: {listing}"
        )


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
    """Row of the transition matrix at the identity vertex, via characters."""
    eigenvalues = _character_transform(group, _indicator(group, connection_set))
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
    cap: int = DENSE_ORDER_CAP,
) -> TransitionMatrix:
    """Independent dense route: exp(i*t*A) from the eigendecomposition of A.

    A is real symmetric, so A = V diag(w) V^T with V orthogonal and
    exp(i*t*A) = V diag(exp(i*t*w)) V^T.  No character code is involved; this
    is the cross-validation oracle.
    """
    if group.order > cap:
        raise CapExceededError(f"|{group}| = {group.order} exceeds the dense cap {cap}")
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
    tol: float = 1e-9,
) -> PstDetection | None:
    """Scan the identity row of U(t) for an off-diagonal amplitude of modulus ~1.

    Translation invariance makes the identity row representative of every
    vertex.  Returns None when nothing reaches 1 - tol; raises
    AmbiguousTransferError when more than one entry does (tolerance too loose).
    """
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tolerance must lie in (0, 0.5), got {tol}")
    row = _identity_row(group, connection_set, t)
    hits = (np.flatnonzero(np.abs(row[1:]) >= 1.0 - tol) + 1).tolist()
    if not hits:
        return None
    if len(hits) > 1:
        raise AmbiguousTransferError(group, [group.element_at(i) for i in hits], tol)
    target = group.element_at(hits[0])
    return PstDetection(group.identity, target, complex(row[hits[0]]))


def is_periodic_numeric(
    group: AbelianGroup,
    connection_set: ConnectionSet,
    t: float,
    tol: float = 1e-9,
) -> bool:
    """True iff |U(t)| at the identity diagonal entry is within tol of 1.

    By translation invariance this settles periodicity of every vertex.
    """
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tolerance must lie in (0, 0.5), got {tol}")
    row = _identity_row(group, connection_set, t)
    return bool(abs(row[0]) >= 1.0 - tol)
