"""Resource-sharing composition of linear systems.

Two subsystems are glued along shared state variables.  The glue is a 0/1
coupling matrix K with one column per composite state: ``K x`` replicates
each composite state into the stacked subsystem coordinates that share it,
and ``K^T`` sums stacked-coordinate dynamics back onto composite
coordinates.  With ``A_s = blockdiag(A1, A2)`` and ``B_s = blockdiag`` of
the input matrices, the composite open loop is

    A_c = K^T A_s K,    B_c = K^T B_s,

costs compose as ``Q_c = K^T blockdiag(Q1, Q2) K`` with the input weight
staying block diagonal, and block feedback gains push through as
``F_c = blockdiag(F1, F2) K``.

Composite state ordering: subsystem-1 states in their original order
(shared states sit at their subsystem-1 position), then the non-shared
subsystem-2 states in their original order.  ``K`` is built from one
junction array that maps each stacked state to its composite column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NotPDError, NotPSDError, PatternError, ShapeError
from .matkit import block_diag, definiteness, require_matrix, require_square


@dataclass(frozen=True)
class LinearSystem:
    """State-space pair ``xdot = A x + B u`` with a display name."""

    name: str
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = require_square(self.A, f"{self.name}.A")
        b = require_matrix(self.B, f"{self.name}.B")
        if a.shape[0] < 1:
            raise ShapeError(f"{self.name}.A must be at least 1x1")
        if b.shape[0] != a.shape[0]:
            raise ShapeError(
                f"{self.name}.B has {b.shape[0]} rows, expected {a.shape[0]}"
            )
        if b.shape[1] < 1:
            raise ShapeError(f"{self.name}.B must have at least one input column")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class CostWeights:
    """Quadratic cost pair: ``Q`` symmetric PSD, ``R`` symmetric PD."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        q = require_square(self.Q, "state weight Q")
        r = require_square(self.R, "input weight R")
        dq = definiteness(q)
        if not (dq.symmetric and dq.psd):
            raise NotPSDError(
                f"state weight must be symmetric PSD; symmetric={dq.symmetric}, "
                f"min eigenvalue {dq.min_eigenvalue:.6e}"
            )
        dr = definiteness(r)
        if not (dr.symmetric and dr.pd):
            raise NotPDError(
                f"input weight must be symmetric PD; symmetric={dr.symmetric}, "
                f"min eigenvalue {dr.min_eigenvalue:.6e}"
            )
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)


@dataclass(frozen=True)
class CompositionPattern:
    """Which states are shared: ``pairs[i] = (j, k)`` identifies state ``j``
    of subsystem 1 with state ``k`` of subsystem 2.  Indices are zero-based
    and each state may appear in at most one pair.

    This class owns the pattern rules.  Pairs are checked in order, and for
    each pair the range of ``j``, the range of ``k``, then the uniqueness of
    ``j`` and of ``k``; the first violation raises ``PatternError`` with a
    message that starts with its path, such as ``pairs[0][1]: ...``."""

    n1: int
    n2: int
    pairs: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise PatternError(
                f"state dimensions must be positive, got n1={self.n1}, n2={self.n2}"
            )
        norm = []
        seen_first: set[int] = set()
        seen_second: set[int] = set()
        for i, pair in enumerate(self.pairs):
            if len(pair) != 2:
                raise PatternError(
                    f"pairs[{i}]: expected a pair [j, k] of two integers"
                )
            j, k = int(pair[0]), int(pair[1])
            if not 0 <= j < self.n1:
                raise PatternError(
                    f"pairs[{i}][0]: index {j} out of range [0, {self.n1}) for subsystem 1"
                )
            if not 0 <= k < self.n2:
                raise PatternError(
                    f"pairs[{i}][1]: index {k} out of range [0, {self.n2}) for subsystem 2"
                )
            if j in seen_first:
                raise PatternError(
                    f"pairs[{i}]: subsystem-1 state {j} is shared more than once"
                )
            if k in seen_second:
                raise PatternError(
                    f"pairs[{i}]: subsystem-2 state {k} is shared more than once"
                )
            seen_first.add(j)
            seen_second.add(k)
            norm.append((j, k))
        object.__setattr__(self, "pairs", tuple(norm))

    @property
    def k_shared(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class CompositionMatrix:
    """The 0/1 coupling matrix.

    Row ``s`` (a stacked state) has its single 1 in the column of the
    composite state it belongs to.  Structural facts: every row of ``K`` has
    exactly one 1; every column has one 1 (exclusive state) or two 1s split
    across the two subsystem blocks (shared state); hence ``K^T K`` is
    diagonal with entries in {1, 2}.
    """

    K: np.ndarray


class CompositeDims(NamedTuple):
    n1: int
    n2: int
    shared: int
    m1: int
    m2: int


@dataclass(frozen=True)
class CompositeSystem:
    """Composite open loop plus the stacked pieces it was built from."""

    A: np.ndarray
    B: np.ndarray
    A_stacked: np.ndarray
    B_stacked: np.ndarray
    coupling: CompositionMatrix
    dims: CompositeDims

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def build_composition_matrix(pattern: CompositionPattern) -> CompositionMatrix:
    """Construct the coupling matrix for a sharing pattern.

    Composite states are ordered subsystem-1 first, then the non-shared
    subsystem-2 states; a shared state occupies the position of its
    subsystem-1 member.  ``K`` is built from one junction array holding the
    composite column of each stacked state.
    """
    n1, n2 = pattern.n1, pattern.n2
    second = np.full(n2, -1)
    for j, k in pattern.pairs:
        second[k] = j
    exclusive = second < 0
    second[exclusive] = n1 + np.arange(np.count_nonzero(exclusive))
    junction = np.concatenate([np.arange(n1), second])
    kmat = np.zeros((n1 + n2, n1 + n2 - pattern.k_shared))
    kmat[np.arange(n1 + n2), junction] = 1.0
    return CompositionMatrix(kmat)


def _coupling_array(coupling) -> np.ndarray:
    if isinstance(coupling, CompositionMatrix):
        return coupling.K
    return require_matrix(coupling, "coupling matrix")


def compose_open_loop(
    sys1: LinearSystem, sys2: LinearSystem, pattern: CompositionPattern
) -> CompositeSystem:
    """Stack two subsystems and reduce along the sharing pattern."""
    if (pattern.n1, pattern.n2) != (sys1.n, sys2.n):
        raise ShapeError(
            f"pattern is for dimensions ({pattern.n1}, {pattern.n2}) but the "
            f"subsystems have ({sys1.n}, {sys2.n}) states"
        )
    coupling = build_composition_matrix(pattern)
    a_stacked = block_diag(sys1.A, sys2.A)
    b_stacked = block_diag(sys1.B, sys2.B)
    kmat = coupling.K
    return CompositeSystem(
        A=kmat.T @ a_stacked @ kmat,
        B=kmat.T @ b_stacked,
        A_stacked=a_stacked,
        B_stacked=b_stacked,
        coupling=coupling,
        dims=CompositeDims(sys1.n, sys2.n, pattern.k_shared, sys1.m, sys2.m),
    )


def compose_cost(
    weights1: CostWeights, weights2: CostWeights, coupling
) -> tuple[np.ndarray, np.ndarray]:
    """Composite cost pair: states reduce through the coupling matrix, inputs
    stay block diagonal (inputs are never shared)."""
    kmat = _coupling_array(coupling)
    n1 = weights1.Q.shape[0]
    n2 = weights2.Q.shape[0]
    if kmat.shape[0] != n1 + n2:
        raise ShapeError(
            f"coupling matrix has {kmat.shape[0]} rows, expected {n1 + n2}"
        )
    q_c = kmat.T @ block_diag(weights1.Q, weights2.Q) @ kmat
    r_c = block_diag(weights1.R, weights2.R)
    d = definiteness(q_c)
    if not (d.symmetric and d.psd):
        raise NotPSDError(
            "composite state weight lost positive semidefiniteness; "
            f"min eigenvalue {d.min_eigenvalue:.6e}"
        )
    return q_c, r_c


def compose_gains(f1, f2, coupling) -> np.ndarray:
    """Push block feedback gains through the coupling: ``blockdiag(F1, F2) K``."""
    f1_arr = require_matrix(f1, "F1")
    f2_arr = require_matrix(f2, "F2")
    kmat = _coupling_array(coupling)
    stacked = block_diag(f1_arr, f2_arr)
    if kmat.shape[0] != stacked.shape[1]:
        raise ShapeError(
            f"coupling matrix has {kmat.shape[0]} rows but the stacked gain "
            f"acts on {stacked.shape[1]} states"
        )
    return stacked @ kmat


def closed_loop_matrix(composite: CompositeSystem, f) -> np.ndarray:
    """Closed-loop state matrix ``A_c + B_c F`` for ``u = F x``."""
    f_arr = require_matrix(f, "feedback gain")
    if f_arr.shape != (composite.m, composite.n):
        raise ShapeError(
            f"feedback gain is {f_arr.shape}, expected "
            f"{(composite.m, composite.n)}"
        )
    return composite.A + composite.B @ f_arr
