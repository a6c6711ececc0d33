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
``F_c = blockdiag(F1, F2) K``.  ``K`` is a plain s x c array, which every
gate takes as it is.

Composite state ordering: subsystem-1 states in their original order
(shared states sit at their subsystem-1 position), then the non-shared
subsystem-2 states in their original order.  ``K`` is built from one
junction array that maps each stacked state to its composite column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import PatternError, ShapeError
# definiteness and require_matrix stay importable from here only because
# perfbench's tracer wraps them under these names.
from .matkit import (
    block_diag,
    conform,
    definiteness,
    require_definite,
    require_matrix,
)


@dataclass(frozen=True)
class LinearSystem:
    """State-space pair ``xdot = A x + B u`` with a display name."""

    name: str
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a, b = conform(
            (self.A, f"{self.name}.A", "n", "n"), (self.B, f"{self.name}.B", "n", "m")
        )
        if a.shape[0] < 1:
            raise ShapeError(f"{self.name}.A must be at least 1x1")
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
    """Quadratic cost pair: ``Q`` symmetric PSD, ``R`` symmetric PD, each
    stored as ``0.5 (M + M^T)`` by the weight gate ``require_definite``
    (for ``lqr``'s sampled weights, its stacked form), so exactly
    symmetric.  ``q_pd`` keeps the gate's verdict that ``Q`` is also PD."""

    Q: np.ndarray
    R: np.ndarray
    q_pd: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q, d = require_definite(self.Q, "state weight Q")
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "q_pd", d.pd)
        object.__setattr__(
            self, "R", require_definite(self.R, "input weight R", pd=True)[0]
        )


def _trusted(cls, **fields):
    """A ``LinearSystem`` or ``CostWeights`` holding ``fields`` as given,
    without running its gate again: for arrays that a stacked gate has
    already checked, such as ``lqr``'s sampled trials."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _integer(value, path: str, error=PatternError) -> int:
    """``value`` by ``operator.index`` (not a ``bool``), else ``error``
    naming ``path``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    except OverflowError:
        raise error(f"{path}: integer is too large to be a state index") from None
    raise error(f"{path}: expected an integer, got {type(value).__name__}")


@dataclass(frozen=True)
class CompositionPattern:
    """Which states are shared: ``pairs[i] = (j, k)`` identifies state ``j``
    of subsystem 1 with state ``k`` of subsystem 2.  Indices are zero-based
    and each state may appear in at most one pair.

    This class owns every pattern rule: ``n1, n2 >= 1`` are integers, and
    every pair is two integers (``operator.index``, ``bool`` excluded)
    before any pair is checked for the range of ``j``, of ``k``, then the
    uniqueness of ``j`` and of ``k``.  The first violation raises
    ``PatternError`` with its path first, such as ``pairs[0][1]: ...``."""

    n1: int
    n2: int
    pairs: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        sizes = _integer(self.n1, "n1"), _integer(self.n2, "n2")
        if min(sizes) < 1:
            raise PatternError(
                f"state dimensions must be positive, got n1={sizes[0]}, n2={sizes[1]}"
            )
        pairs = []
        for i, pair in enumerate(self.pairs):
            try:  # a string or a mapping unpacks, but is not a pair
                j, k = () if isinstance(pair, (str, dict)) else pair
            except (TypeError, ValueError):
                raise PatternError(f"pairs[{i}]: expected a pair [j, k] of two integers") from None
            pairs.append((_integer(j, f"pairs[{i}][0]"), _integer(k, f"pairs[{i}][1]")))
        seen = (set(), set())
        for i, pair in enumerate(pairs):
            for side, (index, size) in enumerate(zip(pair, sizes)):
                if not 0 <= index < size:
                    raise PatternError(f"pairs[{i}][{side}]: index {index} out of "
                                       f"range [0, {size}) for subsystem {side + 1}")
            for side, index in enumerate(pair):
                if index in seen[side]:
                    raise PatternError(f"pairs[{i}]: subsystem-{side + 1} state "
                                       f"{index} is shared more than once")
                seen[side].add(index)
        object.__setattr__(self, "n1", sizes[0])
        object.__setattr__(self, "n2", sizes[1])
        object.__setattr__(self, "pairs", tuple(pairs))

    @property
    def k_shared(self) -> int:
        return len(self.pairs)


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
    coupling: np.ndarray
    dims: CompositeDims

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def build_composition_matrix(pattern: CompositionPattern) -> np.ndarray:
    """The 0/1 coupling matrix ``K``, s x c, of a sharing pattern.

    Composite states are ordered subsystem-1 first, then the non-shared
    subsystem-2 states; a shared state occupies the position of its
    subsystem-1 member.  ``K`` is built from one junction array holding the
    composite column of each stacked state, so row ``s`` (a stacked state)
    has its single 1 in the column of the composite state it belongs to.
    Every column has one 1 (exclusive state) or two 1s split across the two
    subsystem blocks (shared state); hence ``K^T K`` is diagonal with
    entries in {1, 2}.
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
    return kmat


def compose_open_loop(
    sys1: LinearSystem, sys2: LinearSystem, pattern: CompositionPattern
) -> CompositeSystem:
    """Stack two subsystems and reduce along the sharing pattern."""
    if (pattern.n1, pattern.n2) != (sys1.n, sys2.n):
        raise ShapeError(
            f"pattern is for dimensions ({pattern.n1}, {pattern.n2}) but the "
            f"subsystems have ({sys1.n}, {sys2.n}) states"
        )
    kmat = build_composition_matrix(pattern)
    a_stacked = block_diag(sys1.A, sys2.A)
    b_stacked = block_diag(sys1.B, sys2.B)
    return CompositeSystem(
        A=kmat.T @ a_stacked @ kmat,
        B=kmat.T @ b_stacked,
        A_stacked=a_stacked,
        B_stacked=b_stacked,
        coupling=kmat,
        dims=CompositeDims(sys1.n, sys2.n, pattern.k_shared, sys1.m, sys2.m),
    )


def compose_cost(
    weights1: CostWeights, weights2: CostWeights, coupling
) -> tuple[np.ndarray, np.ndarray]:
    """Composite cost pair: states reduce through the coupling matrix, inputs
    stay block diagonal (inputs are never shared)."""
    _, kmat = conform(
        (block_diag(weights1.Q, weights2.Q), "blockdiag(Q1, Q2)", "s", "s"),
        (coupling, "coupling matrix", "s", "c"),
    )
    return _compose_cost(weights1, weights2, kmat)[:2]


def _compose_cost(
    weights1: CostWeights, weights2: CostWeights, kmat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The body of ``compose_cost`` on a coupling matrix of matching rows,
    with the verdict that the composite ``Q`` is PD.  No gate decides it
    again: ``K^T K >= I``, so ``v^T K^T Q_s K v >= lambda_min(Q_s) ||K v||^2
    >= lambda_min(Q_s)`` for a unit ``v``, and PD weights give a PD ``Q_c``."""
    q_c = kmat.T @ block_diag(weights1.Q, weights2.Q) @ kmat
    return (
        0.5 * (q_c + q_c.T),
        block_diag(weights1.R, weights2.R),
        weights1.q_pd and weights2.q_pd,
    )


def compose_gains(f1, f2, coupling) -> np.ndarray:
    """Push block feedback gains through the coupling: ``blockdiag(F1, F2) K``."""
    f1_arr, f2_arr = conform((f1, "F1", "m1", "n1"), (f2, "F2", "m2", "n2"))
    stacked, kmat = conform(
        (block_diag(f1_arr, f2_arr), "blockdiag(F1, F2)", "m", "s"),
        (coupling, "coupling matrix", "s", "c"),
    )
    return stacked @ kmat


def closed_loop_matrix(composite: CompositeSystem, f) -> np.ndarray:
    """Closed-loop state matrix ``A_c + B_c F`` for ``u = F x``."""
    (f_arr,) = conform((f, "feedback gain", composite.m, composite.n))
    return composite.A + composite.B @ f_arr
