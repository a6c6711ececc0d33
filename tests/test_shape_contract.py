"""Every public gate states its dimensions through ``matkit.conform``.

The table below passes each gate's arguments one at a time with one wrong
dimension and asserts a ``ShapeError`` whose message names that argument:
either as the argument whose shape disagrees (the message starts with its
name) or as the argument that bound the dimension (``from <name> (``).
"""

import numpy as np
import pytest

from rsmlqr.errors import ShapeError
from rsmlqr.lqr import (
    check_exact_condition,
    check_necessary_condition,
    check_sufficient_condition,
    compare_gains,
    lqr_composite,
    lqr_subsystem,
)
from rsmlqr.matkit import is_controllable, is_observable, require_square
from rsmlqr.riccati import (
    RiccatiSolution,
    care_residual,
    rectangular_riccati_residual,
    solve_care,
    solve_lyapunov,
)
from rsmlqr.rsm import (
    CompositionPattern,
    CostWeights,
    LinearSystem,
    build_composition_matrix,
    closed_loop_matrix,
    compose_cost,
    compose_gains,
    compose_open_loop,
)
from rsmlqr.sim import (
    Trajectory,
    closed_loop_cost,
    optimality_gap,
    quadrature_cost,
    simulate,
)


def grow(x, axis=0):
    """``x`` with one more row (axis 0), column (axis 1) or entry."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.zeros_like(x.take([0], axis=axis))], axis=axis)


# One subsystem of order 2 with one input ...
A = np.array([[-1.0, 1.0], [0.0, -2.0]])
B = np.array([[1.0], [0.5]])
F = np.array([[-0.1, -0.2]])
I1, I2, I3 = np.eye(1), np.eye(2), np.eye(3)
X0 = np.ones(2)
SUB1 = LinearSystem("sub1", A, B)
# ... glued to one of order 1 along one state: stacked order 3, composite
# order 2, two inputs.
PATTERN = CompositionPattern(2, 1, ((1, 0),))
K = build_composition_matrix(PATTERN)
COMPOSITE = compose_open_loop(SUB1, LinearSystem("sub2", [[-3.0]], [[1.0]]), PATTERN)
A_S, B_S = COMPOSITE.A_stacked, COMPOSITE.B_stacked
F_C = np.array([[-0.1, 0.0], [0.0, -0.2]])
TRAJECTORY = simulate(A + B @ F, X0, 1.0, 0.1)

# gate, valid keyword arguments, and per argument either the name the
# message must carry (grown along axis 0), a (name, axis) pair, or a
# (name, wrong value) pair for arguments that are not arrays
GATES = [
    (care_residual, dict(a=A, b=B, q=I2, r=I1, p=I2),
     dict(a="A", b="B", q="Q", r="R", p="P")),
    (solve_care, dict(a=A, b=B, q=I2, r=I1),
     dict(a="A", b="B", q="Q", r="R")),
    (rectangular_riccati_residual,
     dict(a_s=A_S, b_s=B_S, k=K, q_c=I2, r_s=I2, x=K),
     dict(a_s="stacked state matrix", b_s="stacked input matrix",
          k="coupling matrix", q_c="composite state weight",
          r_s="stacked input weight", x="X")),
    (solve_lyapunov, dict(a_cl=A, w=I2),
     dict(a_cl="closed-loop matrix", w="W")),
    (check_exact_condition, dict(p_stacked=I3, coupling=K, p_composite=I2),
     dict(p_stacked="stacked Riccati solution", coupling="coupling matrix",
          p_composite="composite Riccati solution")),
    (check_necessary_condition, dict(p_stacked=I3, coupling=K),
     dict(p_stacked="stacked Riccati solution", coupling="coupling matrix")),
    (check_sufficient_condition,
     dict(a_stacked=A_S, b_stacked=B_S, coupling=K, q_composite=I2,
          r_stacked=I2, p_stacked=I3),
     dict(a_stacked="stacked state matrix", b_stacked="stacked input matrix",
          coupling="coupling matrix", q_composite="composite state weight",
          r_stacked="stacked input weight",
          p_stacked="stacked Riccati solution")),
    (compare_gains, dict(f_direct=F, f_composed=F),
     dict(f_direct="direct gain", f_composed="composed gain")),
    (lqr_subsystem, dict(system=SUB1, weights=CostWeights(I2, I1)),
     {"system": ("sub1: state weight Q",
                 LinearSystem("sub1", np.diag([-1.0, -2.0, -3.0]), np.ones((3, 1)))),
      "weights": ("sub1: state weight Q", CostWeights(I3, I1)),
      "weights.R": ("sub1: input weight R", CostWeights(I2, I2))}),
    (lqr_composite, dict(composite=COMPOSITE, q=I2, r=I2),
     dict(q="composite state weight", r="composite input weight")),
    (compose_cost,
     dict(weights1=CostWeights(I2, I1), weights2=CostWeights(I1, I1), coupling=K),
     {"weights1": ("blockdiag(Q1, Q2)", CostWeights(I3, I1)),
      "weights2": ("blockdiag(Q1, Q2)", CostWeights(I2, I1)),
      "coupling": "coupling matrix"}),
    (compose_gains, dict(f1=F, f2=[[-0.3]], coupling=K),
     dict(f1=("blockdiag(F1, F2)", 1), f2=("blockdiag(F1, F2)", 1),
          coupling="coupling matrix")),
    (closed_loop_matrix, dict(composite=COMPOSITE, f=F_C),
     dict(f="feedback gain")),
    (LinearSystem, dict(name="sys", A=A, B=B), dict(A="sys.A", B="sys.B")),
    (closed_loop_cost, dict(a=A, b=B, f=F, q=I2, r=I1, x0=X0),
     dict(a="A", b="B", f="F", q="Q", r="R", x0="initial state")),
    (simulate, dict(a_cl=A, x0=X0, horizon=1.0, step=0.1),
     dict(a_cl="closed-loop matrix", x0="initial state")),
    (optimality_gap,
     dict(composite=COMPOSITE, q=I2, r=I2, f_composed=F_C,
          direct=RiccatiSolution(I2, F_C, 0.0, -1.0), x0=X0),
     {"q": "Q", "r": "R", "f_composed": "F", "x0": "initial state",
      "direct": ("direct Riccati solution",
                 RiccatiSolution(I3, F_C, 0.0, -1.0))}),
    (quadrature_cost, dict(trajectory=TRAJECTORY, weight=I2),
     {"weight": "weight",
      "trajectory": ("trajectory states",
                     Trajectory(TRAJECTORY.times, grow(TRAJECTORY.states, 1)))}),
    (is_controllable, dict(a=A, b=B),
     dict(a="state matrix", b="input matrix")),
    (is_observable, dict(a=A, c=B.T),
     dict(a="state matrix", c=("output matrix", 1))),
    (require_square, dict(m=A, name="M"), dict(m="M")),
]


def _cases():
    for gate, kwargs, wrong in GATES:
        for label, spec in wrong.items():
            arg = label.split(".")[0]
            name, how = (spec, 0) if isinstance(spec, str) else spec
            value = grow(kwargs[arg], how) if isinstance(how, int) else how
            yield pytest.param(
                gate, {**kwargs, arg: value}, name, id=f"{gate.__name__}-{label}"
            )


@pytest.mark.parametrize("gate, kwargs, name", _cases())
def test_wrong_dimension_names_the_argument(gate, kwargs, name):
    with pytest.raises(ShapeError) as info:
        gate(**kwargs)
    msg = str(info.value)
    assert msg.startswith(f"{name} has ") or f" from {name} (" in msg, msg


@pytest.mark.parametrize("gate, kwargs, _", GATES)
def test_valid_arguments_pass(gate, kwargs, _):
    gate(**kwargs)
