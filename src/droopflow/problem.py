"""Constrained flow problem instances and KKT residual evaluation.

The problem minimizes (1/2)||P - P*||^2_M over injections P = L theta + P_L
subject to box limits P_l <= P <= P_u. After substituting the network
equation and scaling the box constraints by K_I = diag(sqrt(k_I,i)), the
reduced objective in nodal coordinates is

    (1/2)||L theta||^2_M + (P_L - P*)^T M L theta.

KKT residuals are reported separately for stationarity, primal and dual
feasibility, and complementary slackness in both the nodal and the edge
coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (
    EdgeTransform,
    NetworkGraph,
    build_transform,
    laplacian_apply,
    project_off_consensus,
)

# Tolerance (pu power) for deciding that an injection sits at a limit.
DEFAULT_ACTIVE_TOL = 1e-5

RESIDUAL_NAMES = (
    "stationarity",
    "primal_feasibility",
    "dual_feasibility",
    "complementary_slackness",
)


def _vec(x, n: int, name: str) -> np.ndarray:
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.shape != (n,):
        raise ValueError(f"expected {name} of shape ({n},), got {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class FlowProblem:
    """One constrained flow problem instance, all quantities per-unit.

    Gains must be finite and strictly positive; the feasibility assumptions on the
    limits, loads, and setpoints are checked by :func:`validate` so that
    deliberately infeasible instances remain constructible.
    """

    graph: NetworkGraph
    p_star: np.ndarray
    p_load: np.ndarray
    p_lo: np.ndarray
    p_hi: np.ndarray
    m: np.ndarray
    k_p: np.ndarray
    k_i: np.ndarray
    transform: EdgeTransform = field(init=False)
    sqrt_k_i: np.ndarray = field(init=False)
    """Diagonal of K_I, the square roots of the integral gains."""

    def __post_init__(self) -> None:
        n = self.graph.n
        for name in ("p_star", "p_load", "p_lo", "p_hi", "m", "k_p", "k_i"):
            v = _vec(getattr(self, name), n, name)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        for name in ("m", "k_p", "k_i"):
            v = getattr(self, name)
            bad = np.flatnonzero(~np.isfinite(v)).tolist()
            if bad:
                raise ValueError(f"{name} must be finite, NaN or infinite at nodes {bad}")
            if not np.all(v > 0):
                bad = np.flatnonzero(v <= 0).tolist()
                raise ValueError(f"{name} must be strictly positive, offending nodes {bad}")
        object.__setattr__(self, "transform", build_transform(self.graph))
        sk = np.sqrt(self.k_i)
        sk.setflags(write=False)
        object.__setattr__(self, "sqrt_k_i", sk)

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the feasibility assumption checks."""

    passed: bool
    violations: tuple[str, ...]

    def __str__(self) -> str:
        if self.passed:
            return "valid: feasibility assumptions hold"
        return "invalid:\n" + "\n".join(f"  - {v}" for v in self.violations)


def validate(p: FlowProblem) -> ValidationReport:
    """Check the feasibility assumptions on limits, loads, and setpoints.

    Assumption 1 (feasible injection limits and disturbances) requires
    P_l,i < P_u,i for every node and sum(P_l) < sum(P_L) < sum(P_u);
    assumption 2 (feasible references) requires P_l,i < P*_i < P_u,i.
    Together they certify existence of a strictly feasible theta. NaN or
    infinite setpoints, loads or limits are reported first, by node, and
    the assumptions are not evaluated on them.
    """
    violations: list[str] = []
    for name in ("p_star", "p_load", "p_lo", "p_hi"):
        bad = np.flatnonzero(~np.isfinite(getattr(p, name))).tolist()
        if bad:
            violations.append(f"{name}: NaN or infinite at nodes {bad}")
    if violations:
        return ValidationReport(passed=False, violations=tuple(violations))
    bad = np.flatnonzero(p.p_lo >= p.p_hi).tolist()
    if bad:
        violations.append(f"limits: p_lo < p_hi violated at nodes {bad}")
    lo, load, hi = p.p_lo.sum(), p.p_load.sum(), p.p_hi.sum()
    if not lo < load:
        violations.append(f"load: sum(p_lo) = {lo:g} not < sum(p_load) = {load:g}")
    if not load < hi:
        violations.append(f"load: sum(p_load) = {load:g} not < sum(p_hi) = {hi:g}")
    bad = np.flatnonzero((p.p_star <= p.p_lo) | (p.p_star >= p.p_hi)).tolist()
    if bad:
        violations.append(f"setpoints: p_lo < p_star < p_hi violated at nodes {bad}")
    return ValidationReport(passed=not violations, violations=tuple(violations))


def injections(p: FlowProblem, theta: np.ndarray) -> np.ndarray:
    """Network injections P = L theta + P_L."""
    theta = _vec(theta, p.n, "theta")
    return laplacian_apply(p.transform, theta) + p.p_load


def violation(p: FlowProblem, p_net: np.ndarray) -> np.ndarray:
    """Constraint function g stacked as (lower block, upper block).

    ``p_net`` is the network part L theta of the injections. A positive
    component means the corresponding limit is violated.
    """
    p_net = _vec(p_net, p.n, "p_net")
    inj = p_net + p.p_load
    return np.concatenate([p.p_lo - inj, inj - p.p_hi])


@dataclass(frozen=True, eq=False)
class KKTPoint:
    """A candidate primal-dual point with its residual breakdown.

    ``primal`` holds theta (nodal coordinates) or eta (edge coordinates)
    depending on ``coords``. Residuals are nonnegative scalars; the point
    is a KKT point when all of them are below tolerance, a bound each
    caller sets against ``max_residual``. Candidate duals
    are not clamped: dual infeasibility is reported, not hidden.
    """

    primal: np.ndarray
    coords: str  # "nodal" or "edge"
    lambda_lo: np.ndarray
    lambda_hi: np.ndarray
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _residuals(
    p: FlowProblem,
    p_net: np.ndarray,
    lambda_lo: np.ndarray,
    lambda_hi: np.ndarray,
    stationarity: float,
) -> dict[str, float]:
    g = violation(p, p_net)
    sqrt_ki = p.sqrt_k_i
    slack = float(
        np.linalg.norm(lambda_lo * (sqrt_ki * (p.p_lo - p_net - p.p_load)))
        + np.linalg.norm(lambda_hi * (sqrt_ki * (p_net + p.p_load - p.p_hi)))
    )
    return {
        "stationarity": stationarity,
        "primal_feasibility": float(np.linalg.norm(np.maximum(g, 0.0))),
        "dual_feasibility": float(
            np.linalg.norm(np.maximum(-np.concatenate([lambda_lo, lambda_hi]), 0.0))
        ),
        "complementary_slackness": slack,
    }


def _stationarity_vector(
    p: FlowProblem, p_net: np.ndarray, lambda_lo: np.ndarray, lambda_hi: np.ndarray
) -> np.ndarray:
    return p.m * (p_net + p.p_load - p.p_star) + p.sqrt_k_i * (lambda_hi - lambda_lo)


def kkt_residual_nodal(
    p: FlowProblem, theta: np.ndarray, lambda_lo: np.ndarray, lambda_hi: np.ndarray
) -> KKTPoint:
    """Evaluate the KKT residuals of (theta, lambda) in nodal coordinates.

    Stationarity requires M(L theta + P_L - P*) + K_I(lambda_hi - lambda_lo)
    to lie in ker(B^T) = span(1); the residual is the norm of the
    off-consensus component, which characterizes the same subspace as
    multiplying by B^T but is graph-independent and better conditioned.
    """
    theta = _vec(theta, p.n, "theta")
    lambda_lo = _vec(lambda_lo, p.n, "lambda_lo")
    lambda_hi = _vec(lambda_hi, p.n, "lambda_hi")
    p_net = laplacian_apply(p.transform, theta)
    s = _stationarity_vector(p, p_net, lambda_lo, lambda_hi)
    stationarity = float(np.linalg.norm(project_off_consensus(s)))
    return KKTPoint(
        primal=theta,
        coords="nodal",
        lambda_lo=lambda_lo,
        lambda_hi=lambda_hi,
        residuals=_residuals(p, p_net, lambda_lo, lambda_hi, stationarity),
    )


def kkt_residual_edge(
    p: FlowProblem, eta: np.ndarray, lambda_lo: np.ndarray, lambda_hi: np.ndarray
) -> KKTPoint:
    """Evaluate the KKT residuals of (eta, lambda) in edge coordinates.

    Same as the nodal residuals with the network injection part taken as
    B V eta, except stationarity is ||B^T (...)|| to match the edge-form
    optimality condition literally.
    """
    t = p.transform
    eta = _vec(eta, p.graph.e, "eta")
    lambda_lo = _vec(lambda_lo, p.n, "lambda_lo")
    lambda_hi = _vec(lambda_hi, p.n, "lambda_hi")
    flow = t.sqrt_w * eta
    p_net = np.bincount(t.tail, flow, p.n) - np.bincount(t.head, flow, p.n)
    s = _stationarity_vector(p, p_net, lambda_lo, lambda_hi)
    stationarity = float(np.linalg.norm(s[t.tail] - s[t.head]))
    return KKTPoint(
        primal=eta,
        coords="edge",
        lambda_lo=lambda_lo,
        lambda_hi=lambda_hi,
        residuals=_residuals(p, p_net, lambda_lo, lambda_hi, stationarity),
    )


@dataclass(frozen=True)
class ActiveSets:
    """Nodes whose injections sit at their lower/upper limit."""

    at_lower: frozenset[int]
    at_upper: frozenset[int]


def active_sets(p: FlowProblem, theta: np.ndarray) -> ActiveSets:
    """Classify nodes at their limits, |P_i - limit| <= DEFAULT_ACTIVE_TOL.

    A node within that tolerance of both limits means the limits are
    less than twice it apart, which the feasibility assumptions preclude
    for a sane tolerance; it is rejected as a validation error.
    """
    tol = DEFAULT_ACTIVE_TOL
    inj = injections(p, theta)
    lower = np.abs(inj - p.p_lo) <= tol
    upper = np.abs(inj - p.p_hi) <= tol
    both = np.flatnonzero(lower & upper).tolist()
    if both:
        raise ValueError(f"nodes {both} within tol={tol:g} of both limits")
    return ActiveSets(
        at_lower=frozenset(np.flatnonzero(lower).tolist()),
        at_upper=frozenset(np.flatnonzero(upper).tolist()),
    )
