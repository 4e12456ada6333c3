"""Independent ground-truth solver for the constrained flow problem.

Feasible injections are exactly {P : P_lo <= P <= P_hi, 1^T P = 1^T P_L},
so the flow problem collapses to a separable box-constrained QP with a
single equality constraint. Its KKT conditions give, per component,

    p_i = clip(P*_i - nu / m_i, P_lo,i, P_hi,i),

where nu is the multiplier of the equality constraint. The map
nu -> sum_i clip(...) is continuous and nonincreasing, so nu is found by
bisection. This solver shares no code path with the dynamics or the
closed-form frequency prediction and serves as their oracle; nu itself
equals the synchronous frequency deviation the dynamics converge to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import EdgeTransform
from .problem import FlowProblem, validate

# Bisection stops once the clip-sum matches the total load this closely.
BISECTION_TOL = 1e-12
MAX_BISECTIONS = 200
# recover_theta accepts a right-hand side whose sum is at most this
# fraction of (1 + its norm).
BALANCE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class InjectionSolution:
    """Optimal injections and multipliers, without the angles.

    ``nu`` is the equality-constraint multiplier, which equals the
    synchronous frequency deviation (pu). Duals for inactive
    constraints are exactly zero by construction.
    """

    p_opt: np.ndarray
    nu: float
    lambda_lo: np.ndarray
    lambda_hi: np.ndarray

    @property
    def at_lower(self) -> frozenset[int]:
        """Nodes clipped at their lower limit (strictly positive dual)."""
        return frozenset(np.flatnonzero(self.lambda_lo > 0).tolist())

    @property
    def at_upper(self) -> frozenset[int]:
        """Nodes clipped at their upper limit (strictly positive dual)."""
        return frozenset(np.flatnonzero(self.lambda_hi > 0).tolist())


@dataclass(frozen=True, eq=False)
class OracleSolution(InjectionSolution):
    """Optimal injections and multipliers plus the angles behind them.

    ``theta`` is the unique zero-mean angle vector with
    L theta = p_opt - P_L.
    """

    theta: np.ndarray


def solve_injections(p: FlowProblem) -> InjectionSolution:
    """Optimal injections, multiplier and duals by monotone dual bisection.

    The bracket [nu_min, nu_max] is chosen so all components clip to the
    upper (resp. lower) limit at its ends, which under the feasibility
    assumptions puts the root strictly inside. A bracket failure
    therefore signals a violated assumption 1.
    """
    report = validate(p)
    if not report.passed:
        raise ValueError(f"cannot solve an infeasible problem; {report}")

    total_load = float(p.p_load.sum())

    def clip_sum(nu: float) -> float:
        return float(np.clip(p.p_star - nu / p.m, p.p_lo, p.p_hi).sum())

    lo = float(np.min(p.m * (p.p_star - p.p_hi))) - 1.0
    hi = float(np.max(p.m * (p.p_star - p.p_lo))) + 1.0
    if clip_sum(lo) - total_load <= 0 or clip_sum(hi) - total_load >= 0:
        raise ValueError("bisection bracket failure: assumption 1 violated")
    nu = 0.5 * (lo + hi)
    for _ in range(MAX_BISECTIONS):
        nu = 0.5 * (lo + hi)
        miss = clip_sum(nu) - total_load
        if abs(miss) < BISECTION_TOL:
            break
        if miss > 0:  # clip-sum too large, root lies at larger nu
            lo = nu
        else:
            hi = nu
    unclipped = p.p_star - nu / p.m
    p_opt = np.clip(unclipped, p.p_lo, p.p_hi)

    # Per-component stationarity m_i(p_i - P*_i) + nu = sqrt(k_I,i) *
    # (lambda_lo,i - lambda_hi,i) fixes the dual on each clipped
    # component; clipping guarantees the recovered values are >= 0.
    sqrt_ki = p.sqrt_k_i
    lambda_lo = np.zeros(p.n)
    lambda_hi = np.zeros(p.n)
    at_upper = unclipped > p.p_hi
    at_lower = unclipped < p.p_lo
    lambda_hi[at_upper] = (
        -(p.m[at_upper] * (p.p_hi[at_upper] - p.p_star[at_upper]) + nu)
        / sqrt_ki[at_upper]
    )
    lambda_lo[at_lower] = (
        p.m[at_lower] * (p.p_lo[at_lower] - p.p_star[at_lower]) + nu
    ) / sqrt_ki[at_lower]
    return InjectionSolution(
        p_opt=p_opt, nu=float(nu), lambda_lo=lambda_lo, lambda_hi=lambda_hi
    )


def solve(p: FlowProblem) -> OracleSolution:
    """Solve the flow problem: :func:`solve_injections`, then the angles
    by :func:`recover_theta`."""
    sol = solve_injections(p)
    return OracleSolution(
        p_opt=sol.p_opt,
        nu=sol.nu,
        lambda_lo=sol.lambda_lo,
        lambda_hi=sol.lambda_hi,
        theta=recover_theta(p.transform, sol.p_opt, p.p_load),
    )


def recover_theta(t: EdgeTransform, p_opt: np.ndarray, p_load: np.ndarray) -> np.ndarray:
    """Zero-mean theta with L theta = p_opt - p_load.

    Such a theta exists iff the right-hand side is orthogonal to the
    all-ones vector. Grounding node 0 (theta_0 = 0) removes the shift
    family theta + c*1 and leaves the reduced Laplacian L[1:, 1:], which
    is nonsingular for a connected graph; subtracting the mean of that
    solution gives the same zero-mean representative as the
    Moore-Penrose solve, at the cost of one dense LU instead of an SVD.
    """
    p_opt = np.asarray(p_opt, dtype=float)
    p_load = np.asarray(p_load, dtype=float)
    rhs = p_opt - p_load
    if abs(rhs.sum()) > BALANCE_TOL * (1.0 + np.linalg.norm(rhs)):
        raise ValueError(
            f"right-hand side not balanced: sum(p_opt - p_load) = {rhs.sum():g}"
        )
    theta = np.zeros(len(rhs))
    theta[1:] = np.linalg.solve(t.L[1:, 1:], rhs[1:])
    return theta - theta.mean()
