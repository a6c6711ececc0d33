"""Reference helpers the tests share, written in plain numpy so the suite
runs without scipy and its oracles stay independent of the package."""

import numpy as np


def block_diag(a, b) -> np.ndarray:
    """``[[a, 0], [0, b]]`` assembled by ``np.block``, not by
    ``matkit.block_diag``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.block([
        [a, np.zeros((a.shape[0], b.shape[1]))],
        [np.zeros((b.shape[0], a.shape[1])), b],
    ])


def sample_system(rng, n, m):
    """``(A, B)`` as ``lqr.sample_instance`` draws them, one matrix at a
    time: ``A`` from ``uniform(-2, 2)``, shifted left of ``Re = -0.5`` by
    its own ``eigvals``, then ``B`` from ``uniform(-1, 1)``."""
    a = rng.uniform(-2.0, 2.0, size=(n, n))
    max_re = float(np.linalg.eigvals(a).real.max())
    if max_re > -0.5:
        a = a - (max_re + 0.5) * np.eye(n)
    return a, rng.uniform(-1.0, 1.0, size=(n, m))


def sample_weights(rng, n, m):
    """``(Q, R)`` as ``lqr.sample_instance`` draws them: Gram matrices of
    standard normal factors, plus ``0.1 I``."""
    g = rng.standard_normal((n, n))
    h = rng.standard_normal((m, m))
    return g.T @ g + 0.1 * np.eye(n), h.T @ h + 0.1 * np.eye(m)
