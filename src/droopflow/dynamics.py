"""Projected dynamics for the constrained flow problem.

Three systems are one control law seen in three sets of coordinates,
driven by one rate function and one projected forward-Euler integrator:

* ``networked``: per-node droop plus PI limiting terms; each node only
  needs its own injection, duals, and parameters.
* ``droop``: the same controller written with unscaled integrator states
  mu = sqrt(k_I) * lambda and raw integral gains k_I.
* ``edge_pd``: primal-dual gradient flow of the problem in edge
  coordinates eta = V B^T theta; its rate is V B^T applied to the same
  nodal law.

Dual multipliers evolve inside the nonnegative orthant via the tangent
cone projection, which :func:`rhs` applies. The integrator uses the
clamp form max(0, lambda + h * rate) on the unprojected rate instead,
which coincides with Euler on the projected rate: when lambda > 0 the
projection is inactive, and when lambda = 0 both updates produce
max(0, h * rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problem import FlowProblem

# Integration aborts once the state norm exceeds this bound.
DIVERGENCE_LIMIT = 1e9
DEFAULT_STEP = 1e-3  # s

# Settling thresholds for frequency synchronization.
SPREAD_TOL = 1e-4  # pu, max over tail of (max_i - min_i) omega
DRIFT_TOL = 1e-6  # pu/s, slope of the mean frequency over the tail


class IntegrationError(RuntimeError):
    """State diverged; carries the step index where it was detected."""

    def __init__(self, step: int, t: float):
        super().__init__(f"state diverged at step {step} (t = {t:g} s)")
        self.step = step
        self.t = t


@dataclass(frozen=True, eq=False)
class PrimalDualState:
    """Primal point (theta or eta) plus nonnegative dual multipliers."""

    primal: np.ndarray
    lambda_lo: np.ndarray
    lambda_hi: np.ndarray

    def __post_init__(self) -> None:
        for name in ("primal", "lambda_lo", "lambda_hi"):
            object.__setattr__(
                self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            )
        if np.any(self.lambda_lo < 0) or np.any(self.lambda_hi < 0):
            raise ValueError("dual multipliers must be nonnegative")


def zero_state(p: FlowProblem, coords: str = "nodal") -> PrimalDualState:
    """All-zero state (controller off) of the requested coordinate type."""
    dim = p.n if coords == "nodal" else p.graph.e
    return PrimalDualState(np.zeros(dim), np.zeros(p.n), np.zeros(p.n))


@dataclass(frozen=True)
class System:
    """One coordinate form of the limiting controller.

    ``coords`` picks the primal variable (nodal angles theta or edge
    coordinates eta); ``dual_kind`` picks the integrator states (scaled
    lambda or unscaled mu = sqrt(k_I) * lambda).
    """

    name: str
    coords: str  # "nodal" or "edge"
    dual_kind: str  # "lambda" or "mu"


NETWORKED = System("networked", "nodal", "lambda")
DROOP = System("droop", "nodal", "mu")
EDGE_PD = System("edge_pd", "edge", "lambda")


def _rates(system: System, p: FlowProblem, primal, lam_lo, lam_hi):
    # Returns (dprimal, dlam_lo, dlam_hi, omega, injections) with the
    # dual rates not yet projected; the integrator's clamp does that.
    # The two limiting terms -k_p [P - P_hi]_+ + k_p [P_lo - P]_+ are
    # the single k_p (clip(P, P_lo, P_hi) - P).
    t = p.transform
    if system.coords == "nodal":
        inj = t.L @ primal + p.p_load
    else:
        sqrt_w = t.V.diagonal()
        inj = t.B @ (sqrt_w * primal) + p.p_load
    if system.dual_kind == "lambda":
        scale = gain = p.sqrt_k_i
    else:
        scale, gain = 1.0, p.k_i
    omega = (
        p.m * (p.p_star - inj)
        + p.k_p * (inj.clip(p.p_lo, p.p_hi) - inj)
        - scale * (lam_hi - lam_lo)
    )
    dprimal = omega if system.coords == "nodal" else sqrt_w * (t.B.T @ omega)
    return dprimal, gain * (p.p_lo - inj), gain * (inj - p.p_hi), omega, inj


def rhs(system: System, p: FlowProblem, s: PrimalDualState):
    """Right-hand side (dprimal, ddual_lo, ddual_hi, omega, injections).

    The dual rates are projected onto the tangent cone of the
    nonnegative orthant: unchanged where the dual is positive, clipped
    at zero from below where it is zero. omega is the nodal frequency;
    for nodal coordinates it is the primal rate itself.
    """
    dprimal, dlo, dhi, omega, inj = _rates(system, p, s.primal, s.lambda_lo, s.lambda_hi)
    dlo = np.where(s.lambda_lo > 0, dlo, np.maximum(dlo, 0.0))
    dhi = np.where(s.lambda_hi > 0, dhi, np.maximum(dhi, 0.0))
    return dprimal, dlo, dhi, omega, inj


def networked_rhs(p: FlowProblem, s: PrimalDualState):
    """Networked dynamics: each node's rates use only its own injection,
    duals and parameters."""
    return rhs(NETWORKED, p, s)


def droop_rhs(p: FlowProblem, s: PrimalDualState):
    """Droop control with unscaled integrator states mu = sqrt(k_I) * lambda."""
    return rhs(DROOP, p, s)


def edge_pd_rhs(p: FlowProblem, s: PrimalDualState):
    """Edge-coordinate primal-dual flow: deta = V B^T omega at injections
    B V eta + P_L, so deta always lies in Im(V B^T)."""
    return rhs(EDGE_PD, p, s)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled simulation output; one row per sample instant."""

    times: np.ndarray  # (S,)
    primal: np.ndarray  # (S, n) or (S, e)
    lambda_lo: np.ndarray  # (S, n)
    lambda_hi: np.ndarray  # (S, n)
    omega: np.ndarray  # (S, n)
    injections: np.ndarray  # (S, n)
    coords: str
    dual_kind: str = "lambda"

    def __post_init__(self) -> None:
        if len(self.times) == 0:
            raise ValueError("empty trajectory")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def state_at(self, k: int) -> PrimalDualState:
        return PrimalDualState(self.primal[k], self.lambda_lo[k], self.lambda_hi[k])

    @property
    def final_state(self) -> PrimalDualState:
        return self.state_at(-1)

    def column_labels(self) -> list[str]:
        primal_name = "theta" if self.coords == "nodal" else "eta"
        dual_name = "lam" if self.dual_kind == "lambda" else "mu"
        labels = ["t"]
        labels += [f"{primal_name}_{i}" for i in range(self.primal.shape[1])]
        labels += [f"omega_{i}" for i in range(self.omega.shape[1])]
        labels += [f"P_{i}" for i in range(self.injections.shape[1])]
        labels += [f"{dual_name}_lo_{i}" for i in range(self.lambda_lo.shape[1])]
        labels += [f"{dual_name}_hi_{i}" for i in range(self.lambda_hi.shape[1])]
        return labels

    def rows(self) -> np.ndarray:
        return np.column_stack(
            [
                self.times,
                self.primal,
                self.omega,
                self.injections,
                self.lambda_lo,
                self.lambda_hi,
            ]
        )


def integrate(
    system: System,
    p: FlowProblem,
    s0: PrimalDualState,
    h: float = DEFAULT_STEP,
    t_end: float = 10.0,
    sample_every: int = 1,
    t0: float = 0.0,
    stop_when: Callable[[FlowProblem, PrimalDualState, float], bool] | None = None,
    check_every: int = 1000,
) -> Trajectory:
    """Projected forward Euler over [t0, t0 + t_end].

    The primal is advanced explicitly; duals are clamped to the
    nonnegative orthant after each step, so they remain feasible at
    every sample. ``stop_when`` is polled every ``check_every`` steps
    and truncates the run when it returns True. A first-order fixed-step
    scheme is used on purpose: the right-hand side is discontinuous at
    constraint boundaries, where smooth high-order integrators lose
    their order advantage, and the clamp preserves the dual constraint
    set exactly.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be finite and positive, got {h}")
    if not math.isfinite(t_end):
        raise ValueError(f"horizon t_end must be finite, got {t_end}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    n_steps = max(1, int(round(t_end / h)))

    primal = s0.primal.copy()
    lam_lo = s0.lambda_lo.copy()
    lam_hi = s0.lambda_hi.copy()

    times: list[float] = []
    primals: list[np.ndarray] = []
    lams_lo: list[np.ndarray] = []
    lams_hi: list[np.ndarray] = []
    omegas: list[np.ndarray] = []
    injs: list[np.ndarray] = []

    def record(k: int, omega: np.ndarray, inj: np.ndarray) -> None:
        times.append(t0 + k * h)
        primals.append(primal.copy())
        lams_lo.append(lam_lo.copy())
        lams_hi.append(lam_hi.copy())
        omegas.append(omega)
        injs.append(inj)

    guard_every = min(check_every, 250)
    k = 0
    while k < n_steps:
        dprimal, dlam_lo, dlam_hi, omega, inj = _rates(system, p, primal, lam_lo, lam_hi)
        if k % sample_every == 0:
            record(k, omega, inj)
        primal = primal + h * dprimal
        lam_lo = np.maximum(lam_lo + h * dlam_lo, 0.0)
        lam_hi = np.maximum(lam_hi + h * dlam_hi, 0.0)
        k += 1
        if k % guard_every == 0:
            norm = np.sqrt(primal @ primal + lam_lo @ lam_lo + lam_hi @ lam_hi)
            if not norm < DIVERGENCE_LIMIT:
                raise IntegrationError(step=k, t=t0 + k * h)
        if (
            stop_when is not None
            and k % check_every == 0
            and k < n_steps
            and stop_when(p, PrimalDualState(primal, lam_lo, lam_hi), t0 + k * h)
        ):
            break

    final = _rates(system, p, primal, lam_lo, lam_hi)
    record(k, final[3], final[4])

    return Trajectory(
        times=np.asarray(times),
        primal=np.asarray(primals),
        lambda_lo=np.asarray(lams_lo),
        lambda_hi=np.asarray(lams_hi),
        omega=np.asarray(omegas),
        injections=np.asarray(injs),
        coords=system.coords,
        dual_kind=system.dual_kind,
    )


@dataclass(frozen=True)
class SyncMetrics:
    """Synchronization summary over the tail of a trajectory."""

    omega_s_estimate: float
    max_spread: float
    mean_drift: float
    settled: bool


def sync_metrics(
    traj: Trajectory,
    tail_fraction: float = 0.2,
    spread_tol: float = SPREAD_TOL,
    drift_tol: float = DRIFT_TOL,
) -> SyncMetrics:
    """Estimate the synchronous frequency over the trajectory tail.

    The estimate is the mean of all nodal frequencies over the last
    ``tail_fraction`` of samples; the run counts as settled when the
    frequencies agree within ``spread_tol`` on that window and their
    mean drifts slower than ``drift_tol``.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    s = traj.n_samples
    k0 = min(int(np.ceil((1.0 - tail_fraction) * s)), max(s - 2, 0))
    t = traj.times[k0:]
    omega = traj.omega[k0:]
    estimate = float(omega.mean())
    max_spread = float((omega.max(axis=1) - omega.min(axis=1)).max())
    if len(t) >= 2 and t[-1] > t[0]:
        drift = float(np.polyfit(t, omega.mean(axis=1), 1)[0])
    else:
        drift = 0.0
    return SyncMetrics(
        omega_s_estimate=estimate,
        max_spread=max_spread,
        mean_drift=drift,
        settled=max_spread < spread_tol and abs(drift) < drift_tol,
    )
