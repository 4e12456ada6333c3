"""Closed-form predictions and structural decompositions.

The synchronous frequency of the limited network admits a closed form
once the saturated node sets are known: free nodes share the imbalance
in proportion to 1/m_i, saturated nodes contribute their limit. The
active sets are taken from the independent QP oracle's bisection
(without its angle recovery), and the formula value is cross-checked
against the oracle multiplier, so the two derivations confirm each
other.

The edge-coordinate Hessian V B^T M B V is rank n-1; its
eigendecomposition splits edge space into a strictly convex part and a
kernel whose coordinates the edge dynamics never move. Both pieces are
exposed for the conservation and uniqueness checks built on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .graph import RANK_RTOL
from .problem import FlowProblem

# Tolerance for the formula-vs-oracle frequency cross-check.
PREDICTION_TOL = 1e-9


@dataclass(frozen=True)
class FrequencyPrediction:
    """Synchronous frequency deviation and the classification behind it.

    case is "balanced" (loads exactly cover setpoints, omega_s = 0),
    "below_dispatch" (total load under total setpoint, omega_s > 0), or
    "above_dispatch" (total load over total setpoint, omega_s < 0).
    active_lower / active_upper are the node sets held at their limits
    in the formula.
    """

    case: str
    omega_s: float
    active_lower: frozenset[int]
    active_upper: frozenset[int]


def predict(p: FlowProblem) -> FrequencyPrediction:
    """Closed-form synchronous frequency of the limited network.

    Takes the active sets from the oracle's dual bisection
    (:func:`oracle.solve_injections`, which recovers no angles), then
    evaluates

        omega_s = (sum_free P*_i + sum_up P_u,i + sum_lo P_lo,i
                   - sum_i P_L,i) / sum_free (1 / m_i)

    independently of the oracle multiplier nu, and raises RuntimeError
    if the two disagree beyond 1e-9. The balanced case requires exact
    equality of the load and setpoint sums, which keeps the sign of
    omega_s aligned with the sign of the imbalance even when it is at
    roundoff scale.
    """
    sol = oracle.solve_injections(p)
    lower = sol.at_lower
    upper = sol.at_upper
    free = np.ones(p.n, dtype=bool)
    free[list(lower)] = False
    free[list(upper)] = False
    if not free.any():
        raise RuntimeError(
            "every node is at a limit; total load cannot lie strictly "
            "between the limit sums"
        )

    numerator = (
        float(np.sum(p.p_star[free]))
        + float(np.sum(p.p_hi[list(upper)]))
        + float(np.sum(p.p_lo[list(lower)]))
        - float(np.sum(p.p_load))
    )
    omega_s = numerator / float(np.sum(1.0 / p.m[free]))

    if abs(omega_s - sol.nu) > PREDICTION_TOL:
        raise RuntimeError(
            f"formula value {omega_s:.15g} disagrees with oracle "
            f"multiplier {sol.nu:.15g}"
        )

    diff = float(np.sum(p.p_star)) - float(np.sum(p.p_load))
    if diff == 0.0:
        case = "balanced"
        omega_s = 0.0
    elif diff > 0.0:
        case = "below_dispatch"
    else:
        case = "above_dispatch"
    return FrequencyPrediction(
        case=case, omega_s=omega_s, active_lower=lower, active_upper=upper
    )


@dataclass(frozen=True, eq=False)
class EdgeSplit:
    """Eigendecomposition of the edge-coordinate Hessian V B^T M B V.

    gamma_plus holds the eigenvectors of the n-1 positive eigenvalues,
    gamma_zero spans the kernel (empty for trees), and eigenvalues is
    the full spectrum ordered to match the columns of
    [gamma_plus gamma_zero].
    """

    gamma_plus: np.ndarray  # (e, n-1)
    gamma_zero: np.ndarray  # (e, e-n+1)
    eigenvalues: np.ndarray  # (e,)


def edge_split(p: FlowProblem) -> EdgeSplit:
    """Split edge space into the strictly convex part and the kernel.

    Eigenvalues below 1e-9 * lambda_max count as zero; for a connected
    graph their number must equal e - (n - 1), anything else means the
    decomposition went numerically wrong and raises.
    """
    t = p.transform
    v = t.sqrt_w
    hessian = v[:, None] * (t.B.T @ ((p.m[:, None]) * t.B)) * v
    w, u = np.linalg.eigh(hessian)
    zero = w < RANK_RTOL * w[-1]
    n_zero = int(zero.sum())
    expected = p.graph.e - (p.n - 1)
    if n_zero != expected:
        raise RuntimeError(
            f"kernel dimension {n_zero} does not match e - (n - 1) = {expected}"
        )
    order = np.concatenate([np.flatnonzero(~zero), np.flatnonzero(zero)])
    return EdgeSplit(
        gamma_plus=u[:, ~zero],
        gamma_zero=u[:, zero],
        eigenvalues=w[order],
    )
