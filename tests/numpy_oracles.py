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
