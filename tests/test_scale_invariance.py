"""Scaling Q and R by the same constant is a change of cost units.

It scales every Riccati solution by that constant and leaves every gain
and every verdict of the three checks unchanged, so the package's verdicts
must not move with it either.
"""

import warnings

import numpy as np
import pytest

from rsmlqr.lqr import _sample_system, _sample_weights, evaluate_composition
from rsmlqr.rsm import CompositionPattern, CostWeights

SCALES = (1e-3, 1.0, 1e3, 1e6, 1e8)


def twins(count=60, seed=3):
    """Two copies of one sampled subsystem sharing every state."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        system = _sample_system(rng, "twin", n, m)
        weights = _sample_weights(rng, n, m)
        pattern = CompositionPattern(n, n, tuple((i, i) for i in range(n)))
        yield system, system, pattern, weights, weights


def partial_pairs(count=60, seed=4):
    """Two sampled subsystems sharing some, but not all, of their states."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n1, n2 = (int(n) for n in rng.integers(2, 5, size=2))
        m1, m2 = (int(m) for m in rng.integers(1, 3, size=2))
        sys1 = _sample_system(rng, "sub1", n1, m1)
        sys2 = _sample_system(rng, "sub2", n2, m2)
        w1 = _sample_weights(rng, n1, m1)
        w2 = _sample_weights(rng, n2, m2)
        k = int(rng.integers(1, min(n1, n2)))
        first = rng.choice(n1, size=k, replace=False).tolist()
        second = rng.choice(n2, size=k, replace=False).tolist()
        yield sys1, sys2, CompositionPattern(n1, n2, tuple(zip(first, second))), w1, w2


def verdicts(sys1, sys2, pattern, w1, w2, c):
    """(exact, necessary, sufficient) with both weight pairs scaled by ``c``."""
    scaled1 = CostWeights(c * w1.Q, c * w1.R)
    scaled2 = CostWeights(c * w2.Q, c * w2.R)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = evaluate_composition(sys1, sys2, pattern, scaled1, scaled2).report
    return (
        report.exact.equivalent,
        report.necessary.passes,
        report.sufficient.predicts_compositional,
    )


@pytest.mark.parametrize("instances", [twins, partial_pairs], ids=["twins", "partial"])
def test_verdicts_do_not_depend_on_cost_units(instances):
    for i, instance in enumerate(instances()):
        base = verdicts(*instance, 1.0)
        for c in SCALES:
            assert verdicts(*instance, c) == base, (i, c)
