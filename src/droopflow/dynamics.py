"""Projected dynamics for the constrained flow problem.

Three systems are one control law seen in three sets of coordinates,
driven by one rate kernel and one projected forward-Euler integrator:

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

The kernel works on one stacked per-node buffer with rows

    u = P* - P,  pen = clip(P, P_lo, P_hi) - P,  1,  theta,  dual_lo,  dual_hi

(theta only in nodal coordinates; edge runs keep eta apart, since it is
per edge). Every nodal rate is linear in these rows with per-node
coefficients fixed by the problem and the dual scaling:

    omega      = m u + k_p pen + s dual_lo - s dual_hi
    d dual_lo  =  g u + g (P_lo - P*) 1
    d dual_hi  = -g u + g (P* - P_hi) 1

with (s, g) = (sqrt(k_I), sqrt(k_I)) for lambda duals and (1, k_I) for
mu duals. So a (3, rows, n) coefficient array, built once per call,
gives all three rates from one multiply and one sum over the rows, and
in nodal coordinates the last three rows are the state itself: one
in-place ``+= h * rates`` advances theta and both duals. Below about
n = 130 the Euler loop is bound by numpy's per-call overhead, not by
arithmetic, so fewer and larger calls per step are what make it faster;
there the nodal injections are one dense ``L @ theta``. On larger sparse
networks that product costs O(n^2), and the kernel takes it from the
edge endpoints in O(e) instead: :func:`graph.laplacian_apply` in the
form the transform chose from n and e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import laplacian_apply, to_edge_coords
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


def _kernel(system: System, p: FlowProblem, s: PrimalDualState):
    # Stacks s into a fresh buffer (layout in the module docstring) and
    # returns (buf, primal, rates, inj, evaluate). evaluate() refreshes
    # inj, the u and pen rows and rates = (omega, d dual_lo, d dual_hi),
    # unprojected, from the state rows of buf, or from primal in edge
    # coordinates; callers advance those in place between calls.
    n = p.n
    nodal = system.coords == "nodal"
    if system.dual_kind == "lambda":
        scale = gain = p.sqrt_k_i
    else:
        scale, gain = np.ones(n), p.k_i
    zero = np.zeros(n)
    coef = np.array(
        [
            [p.m, p.k_p, zero, zero, scale, -scale],
            [gain, zero, gain * (p.p_lo - p.p_star), zero, zero, zero],
            [-gain, zero, gain * (p.p_star - p.p_hi), zero, zero, zero],
        ]
    )
    if not nodal:
        coef = np.delete(coef, 3, axis=1)
    buf = np.empty(coef.shape[1:])
    buf[2] = 1.0
    buf[-2] = s.lambda_lo
    buf[-1] = s.lambda_hi
    if nodal:
        buf[3] = s.primal
        primal = buf[3]
    else:
        primal = s.primal.copy()
    u, pen = buf[0], buf[1]
    prod = np.empty_like(coef)
    rates = np.empty((3, n))
    inj = np.empty(n)
    flow = np.empty_like(primal)
    t = p.transform
    # Bound to locals: evaluate() runs once per Euler step.
    tail, head, sqrt_w = t.tail, t.head, t.sqrt_w
    p_load, p_star, p_lo, p_hi = p.p_load, p.p_star, p.p_lo, p.p_hi
    add, subtract, multiply = np.add, np.subtract, np.multiply
    maximum, minimum, reduce = np.maximum, np.minimum, np.add.reduce
    bincount = np.bincount

    def evaluate() -> None:
        # P = L theta + P_L, in the form the transform picked for its
        # size; in edge coordinates B (V eta) scatters each edge flow
        # onto its tail (+) and head (-).
        if nodal:
            laplacian_apply(t, primal, inj)
        else:
            multiply(sqrt_w, primal, out=flow)
            subtract(bincount(tail, flow, n), bincount(head, flow, n), out=inj)
        add(inj, p_load, out=inj)
        subtract(p_star, inj, out=u)
        maximum(inj, p_lo, out=pen)  # clip(P, P_lo, P_hi), without np.clip's wrapper
        minimum(pen, p_hi, out=pen)
        subtract(pen, inj, out=pen)
        multiply(coef, buf, out=prod)
        reduce(prod, axis=1, out=rates)

    return buf, primal, rates, inj, evaluate


def rhs(system: System, p: FlowProblem, s: PrimalDualState):
    """Right-hand side (dprimal, ddual_lo, ddual_hi, omega, injections).

    The dual rates are projected onto the tangent cone of the
    nonnegative orthant: unchanged where the dual is positive, clipped
    at zero from below where it is zero. omega is the nodal frequency;
    for nodal coordinates it is the primal rate itself. The rates come
    from the kernel :func:`integrate` steps with.
    """
    _, _, rates, inj, evaluate = _kernel(system, p, s)
    evaluate()
    omega, dlo, dhi = rates
    # deta = V B^T omega: the map that takes theta to eta, applied to omega.
    dprimal = omega if system.coords == "nodal" else to_edge_coords(p.transform, omega)
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


def check_time_grid(h: float, t_end: float) -> None:
    """Reject a step or a horizon that is not finite and positive, with a
    ValueError naming the argument."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be finite and positive, got {h}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"horizon t_end must be finite and positive, got {t_end}")


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

    The state is advanced in place in the kernel's buffer, never in
    ``s0``; ``stop_when`` receives a copy it may keep. Samples are
    written into preallocated arrays, not lists.
    """
    check_time_grid(h, t_end)
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    n_steps = max(1, int(round(t_end / h)))

    buf, primal, rates, inj, evaluate = _kernel(system, p, s0)
    omega = rates[0]
    lam_lo, lam_hi = duals = buf[-2:]
    floor = np.zeros_like(duals)
    edge = system.coords == "edge"
    t = p.transform
    tail, head, sqrt_w = t.tail, t.head, t.sqrt_w
    if edge:
        state, state_rate = duals, rates[1:]
    else:
        state, state_rate = buf[3:], rates  # theta, lam_lo, lam_hi

    # One row per multiple of sample_every below the last step, plus the
    # final state. Capacity doubles on demand up to that count, so a long
    # horizon that stop_when cuts short reserves only what it samples.
    rows = -(-n_steps // sample_every) + 1
    sources = (primal, lam_lo, lam_hi, omega, inj)
    samples = [np.empty((min(rows, 1024), x.size)) for x in sources]
    j = 0

    def record() -> None:
        nonlocal j
        if j == len(samples[0]):
            for i, old in enumerate(samples):
                samples[i] = np.empty((min(rows, 2 * j), old.shape[1]))
                samples[i][:j] = old
        for rec, x in zip(samples, sources):
            rec[j] = x
        j += 1

    guard_every = min(check_every, 250)
    next_sample, next_guard = 0, guard_every
    next_check = check_every if stop_when is not None else -1
    k = 0
    while k < n_steps:
        evaluate()
        if k == next_sample:
            record()
            next_sample += sample_every
        if edge:  # to_edge_coords(t, omega), without its argument checks
            primal += h * (sqrt_w * (omega[tail] - omega[head]))
        state += h * state_rate
        np.maximum(duals, floor, out=duals)
        k += 1
        if k == next_guard:
            next_guard += guard_every
            norm = np.sqrt(primal @ primal + lam_lo @ lam_lo + lam_hi @ lam_hi)
            if not norm < DIVERGENCE_LIMIT:
                raise IntegrationError(step=k, t=t0 + k * h)
        if k == next_check:
            next_check += check_every
            if k < n_steps and stop_when(
                p, PrimalDualState(primal.copy(), lam_lo.copy(), lam_hi.copy()), t0 + k * h
            ):
                break

    evaluate()
    record()
    steps = np.append(np.arange(0, k, sample_every), k)

    primals, lams_lo, lams_hi, omegas, injs = (rec[:j] for rec in samples)
    return Trajectory(
        times=t0 + steps * h,
        primal=primals,
        lambda_lo=lams_lo,
        lambda_hi=lams_hi,
        omega=omegas,
        injections=injs,
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


def sync_metrics(traj: Trajectory, tail_fraction: float = 0.2) -> SyncMetrics:
    """Estimate the synchronous frequency over the trajectory tail.

    The estimate is the mean of all nodal frequencies over the last
    ``tail_fraction`` of samples; the run counts as settled when the
    frequencies agree within ``SPREAD_TOL`` on that window and their
    mean drifts slower than ``DRIFT_TOL``.
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
        settled=max_spread < SPREAD_TOL and abs(drift) < DRIFT_TOL,
    )
