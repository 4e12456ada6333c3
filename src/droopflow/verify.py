"""Randomized invariant batteries behind the ``verify`` subcommand.

Each battery draws its own instances from a child generator, runs one
check per trial, and returns a BatteryResult with the failure messages
and the worst observed margins. ``run_suite`` wires them together
deterministically from (trials, seed): same arguments, same instances,
same verdicts.

The oracle entry point is injectable (``solve_fn``) so the suite can be
turned against a deliberately wrong solver as a negative control; the
oracle-residual and frequency-agreement batteries must then fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import instances, oracle
from .analysis import edge_split, predict
from .dynamics import (
    DEFAULT_STEP,
    EDGE_PD,
    DROOP,
    NETWORKED,
    SPREAD_TOL,
    PrimalDualState,
    SyncMetrics,
    Trajectory,
    integrate,
    sync_metrics,
    zero_state,
)
from .graph import laplacian_apply, to_edge_coords
from .problem import FlowProblem, KKTPoint, kkt_residual_nodal, violation

# Battery tolerances. The dynamics thresholds are the acceptance
# numbers; the settle detector stops a little tighter than the final
# checks so borderline instances do not flap, and the radial battery
# settles tighter still, since it compares two runs with each other.
ORACLE_RESIDUAL_TOL = 1e-8
FINAL_RESIDUAL_TOL = 1e-4
FINAL_VIOLATION_TOL = 1e-5
OMEGA_AGREEMENT_TOL = 1e-3
FIELD_GAP_TOL = 1e-6
KERNEL_DRIFT_TOL = 1e-8
RADIAL_MATCH_TOL = 1e-4
MU_LAMBDA_TOL = 1e-8
SHIFT_TOL = 1e-9
SETTLE_RESIDUAL_TOL = 2e-5
SETTLE_VIOLATION_TOL = 5e-6
RADIAL_SETTLE_RESIDUAL_TOL = 1e-7
RADIAL_SETTLE_VIOLATION_TOL = 1e-8

T_MAX = 500.0  # s, settling budget per run
SETTLE_POLL_STEPS = 1000  # steps between two quiescence tests
FIELD_GAP_HORIZON = 10.0  # s, coinciding-fields runs
TRIAL_HORIZON = 20.0  # s, kernel, dual-form and shift runs


@dataclass(frozen=True)
class BatteryResult:
    name: str
    trials: int
    failures: tuple[str, ...]
    details: dict[str, float] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[BatteryResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            detail = "  ".join(f"{k}={v:.3g}" for k, v in sorted(r.details.items()))
            lines.append(
                f"{status} {r.name:<26} trials={r.trials:<5} [{r.duration_s:6.2f} s]  {detail}"
            )
            for msg in r.failures[:10]:
                lines.append(f"     {msg}")
            if len(r.failures) > 10:
                lines.append(f"     ... {len(r.failures) - 10} more failures")
        return "\n".join(lines)


def _battery(name: str, trials: int):
    """Decorator: collect per-trial failure strings and time the run."""

    def wrap(run_trial: Callable[[int, dict], None]) -> BatteryResult:
        failures: list[str] = []
        details: dict[str, float] = {}
        start = time.perf_counter()
        for k in range(trials):
            try:
                run_trial(k, details)
            except AssertionError as e:
                failures.append(f"trial {k}: {e}")
        return BatteryResult(
            name=name,
            trials=trials,
            failures=tuple(failures),
            details=details,
            duration_s=time.perf_counter() - start,
        )

    return wrap


def _worse(details: dict, key: str, value: float) -> None:
    details[key] = max(details.get(key, -np.inf), value)


@dataclass(frozen=True)
class SettleResult:
    """Outcome of integrating the networked dynamics until quiescent."""

    trajectory: Trajectory  # dense tail used for the metrics
    kkt: KKTPoint
    metrics: SyncMetrics
    settled_at: float  # s, end of the coarse phase
    max_violation: float  # at the final state


def settle_networked(
    p: FlowProblem,
    s0: PrimalDualState | None = None,
    residual_tol: float = SETTLE_RESIDUAL_TOL,
    violation_tol: float = SETTLE_VIOLATION_TOL,
) -> SettleResult:
    """Integrate until the KKT residuals clear the settle thresholds.

    Runs a coarsely sampled phase at ``DEFAULT_STEP`` that tests for
    quiescence every ``SETTLE_POLL_STEPS`` steps, then a densely sampled
    continuation used for the synchronization metrics, keeping the total
    horizon within ``T_MAX``. ``s0`` defaults to the zero state.
    """
    if s0 is None:
        s0 = zero_state(p)

    def quiescent(prob: FlowProblem, s: PrimalDualState, t: float) -> bool:
        pt = kkt_residual_nodal(prob, s.primal, s.lambda_lo, s.lambda_hi)
        if pt.max_residual >= residual_tol:
            return False
        g = violation(prob, laplacian_apply(prob.transform, s.primal))
        return float(g.max()) < violation_tol

    h = DEFAULT_STEP
    tail_min = 5.0
    coarse = integrate(
        NETWORKED,
        p,
        s0,
        h=h,
        t_end=T_MAX - tail_min,
        sample_every=10_000,
        stop_when=quiescent,
        check_every=SETTLE_POLL_STEPS,
    )
    t0 = float(coarse.times[-1])
    tail = min(max(tail_min, 0.25 * t0), T_MAX - t0)
    dense = integrate(
        NETWORKED,
        p,
        coarse.final_state,
        h=h,
        t_end=tail,
        sample_every=max(1, int(round(tail / h / 1000))),
        t0=t0,
    )
    s = dense.final_state
    kkt = kkt_residual_nodal(p, s.primal, s.lambda_lo, s.lambda_hi)
    g = violation(p, laplacian_apply(p.transform, s.primal))
    return SettleResult(
        trajectory=dense,
        kkt=kkt,
        metrics=sync_metrics(dense, tail_fraction=1.0),
        settled_at=t0,
        max_violation=float(g.max()),
    )


def check_oracle_kkt(
    trials: int,
    rng: np.random.Generator,
    solve_fn: Callable = oracle.solve,
) -> BatteryResult:
    """Oracle output satisfies the nodal KKT residuals to ORACLE_RESIDUAL_TOL."""

    @_battery("oracle_kkt", trials)
    def result(k: int, details: dict) -> None:
        p = instances.random_problem(rng, balanced=(k % 10 == 9))
        sol = solve_fn(p)
        pt = kkt_residual_nodal(p, sol.theta, sol.lambda_lo, sol.lambda_hi)
        _worse(details, "worst_residual", pt.max_residual)
        assert pt.max_residual < ORACLE_RESIDUAL_TOL, (
            f"max KKT residual {pt.max_residual:.3e} (n={p.n}, e={p.graph.e})"
        )

    return result


def check_dynamics_convergence(
    trials: int,
    rng: np.random.Generator,
    solve_fn: Callable = oracle.solve,
) -> BatteryResult:
    """Networked dynamics reach a KKT point and the predicted frequency.

    Per trial: settle from the zero state, then check final residuals
    and limit violations, tail frequency spread, agreement of the
    measured synchronous frequency with the closed-form prediction, and
    the sign and active-set laws of the prediction itself.
    """

    @_battery("dynamics_convergence", trials)
    def result(k: int, details: dict) -> None:
        if k % 5 == 4:
            p = instances.random_problem(rng, balanced=True)
        else:
            p = instances.well_separated_problem(rng)
        res = settle_networked(p)
        pred = predict(p)
        nu = float(solve_fn(p).nu)

        _worse(details, "worst_residual", res.kkt.max_residual)
        _worse(details, "worst_violation", res.max_violation)
        _worse(details, "worst_spread", res.metrics.max_spread)
        _worse(details, "worst_omega_err", abs(res.metrics.omega_s_estimate - nu))
        _worse(details, "worst_settle_s", res.settled_at)

        assert res.kkt.max_residual < FINAL_RESIDUAL_TOL, (
            f"final KKT residual {res.kkt.max_residual:.3e} after {res.settled_at:.0f}s"
        )
        assert res.max_violation < FINAL_VIOLATION_TOL, (
            f"limit violation {res.max_violation:.3e}"
        )
        assert res.metrics.max_spread < SPREAD_TOL, (
            f"tail frequency spread {res.metrics.max_spread:.3e}"
        )
        assert abs(res.metrics.omega_s_estimate - nu) < OMEGA_AGREEMENT_TOL, (
            f"omega_s estimate {res.metrics.omega_s_estimate:.6f} vs predicted {nu:.6f}"
        )

        diff = float(np.sum(p.p_star)) - float(np.sum(p.p_load))
        assert np.sign(pred.omega_s) == np.sign(diff), (
            f"sign(omega_s)={np.sign(pred.omega_s)} but sign(sum P* - sum P_L)={np.sign(diff)}"
        )
        assert not (pred.active_lower and pred.active_upper), (
            f"both active sets nonempty: {sorted(pred.active_lower)}, {sorted(pred.active_upper)}"
        )
        if diff > 0:
            assert not pred.active_upper, "load below dispatch but upper set nonempty"
        if diff < 0:
            assert not pred.active_lower, "load above dispatch but lower set nonempty"

    return result


def check_coinciding_fields(trials: int, rng: np.random.Generator) -> BatteryResult:
    """Nodal and edge runs stay together when started together.

    From matched initial conditions eta0 = V B^T theta0 (same duals),
    the supremum over ``FIELD_GAP_HORIZON`` of ||V B^T theta(t) - eta(t)||
    at ``DEFAULT_STEP`` must stay under ``FIELD_GAP_TOL``. The gap at
    half the step is recorded in the details (min/max ratio across
    trials) for the step-refinement analysis. The two forward-Euler
    recursions are exactly conjugate (each edge step is V B^T applied to
    the nodal step), so the gap is rounding noise for any reasonable h
    and the ratio does not approach 2: the step-refinement acceptance
    test, which expects a first-order contraction, fails by design.
    """

    @_battery("coinciding_fields", trials)
    def result(k: int, details: dict) -> None:
        p = instances.random_problem(rng)
        s_nodal = instances.random_state(rng, p, coords="nodal")
        h = DEFAULT_STEP
        gaps = {}
        for step in (h, h / 2):
            gaps[step] = _field_gap(p, s_nodal, step, FIELD_GAP_HORIZON)
        _worse(details, "worst_gap", gaps[h])
        ratio = gaps[h] / gaps[h / 2] if gaps[h / 2] > 0 else np.inf
        details["min_ratio"] = min(details.get("min_ratio", np.inf), ratio)
        _worse(details, "max_ratio", ratio)
        assert gaps[h] < FIELD_GAP_TOL, f"sup gap {gaps[h]:.3e} at h={h:g}"

    return result


def _field_gap(p: FlowProblem, s_nodal: PrimalDualState, h: float, horizon: float) -> float:
    t = p.transform
    s_edge = PrimalDualState(
        to_edge_coords(t, s_nodal.primal), s_nodal.lambda_lo, s_nodal.lambda_hi
    )
    nodal = integrate(NETWORKED, p, s_nodal, h=h, t_end=horizon)
    edge = integrate(EDGE_PD, p, s_edge, h=h, t_end=horizon)
    theta = nodal.primal  # one sample per row; map each through V B^T
    mapped = t.sqrt_w * (theta[:, t.tail] - theta[:, t.head])
    return float(np.max(np.linalg.norm(mapped - edge.primal, axis=1)))


def check_edge_kernel_conservation(
    trials: int, rng: np.random.Generator
) -> BatteryResult:
    """Kernel coordinates of eta are constants of the edge dynamics."""

    @_battery("edge_kernel_conservation", trials)
    def result(k: int, details: dict) -> None:
        n = int(rng.integers(3, 9))
        p = instances.random_problem(rng, graph=instances.random_cyclic_graph(rng, n))
        split = edge_split(p)
        s = instances.random_state(rng, p, coords="nodal")
        eta0 = to_edge_coords(p.transform, s.primal)
        eta0 = eta0 + split.gamma_zero @ rng.uniform(-0.3, 0.3, split.gamma_zero.shape[1])
        traj = integrate(
            EDGE_PD,
            p,
            PrimalDualState(eta0, s.lambda_lo, s.lambda_hi),
            h=DEFAULT_STEP,
            t_end=TRIAL_HORIZON,
            sample_every=10,
        )
        coords = traj.primal @ split.gamma_zero
        drift = float(np.max(np.abs(coords - coords[0])))
        _worse(details, "worst_drift", drift)
        assert drift < KERNEL_DRIFT_TOL, f"kernel coordinate drift {drift:.3e}"

    return result


def check_radial_uniqueness(trials: int, rng: np.random.Generator) -> BatteryResult:
    """On trees the settled edge state is independent of the start.

    Two random starts per tree are settled to the radial thresholds and
    their final edge states compared.
    """

    @_battery("radial_uniqueness", trials)
    def result(k: int, details: dict) -> None:
        p = instances.well_separated_problem(rng, tree=True)
        finals = []
        for _ in range(2):
            s0 = instances.random_state(rng, p, coords="nodal")
            res = settle_networked(
                p,
                s0=s0,
                residual_tol=RADIAL_SETTLE_RESIDUAL_TOL,
                violation_tol=RADIAL_SETTLE_VIOLATION_TOL,
            )
            finals.append(to_edge_coords(p.transform, res.trajectory.final_state.primal))
        dist = float(np.linalg.norm(finals[0] - finals[1]))
        _worse(details, "worst_distance", dist)
        assert dist < RADIAL_MATCH_TOL, f"final edge states differ by {dist:.3e}"

    return result


def check_mu_lambda_equivalence(
    trials: int, rng: np.random.Generator
) -> BatteryResult:
    """Scaled-dual droop form reproduces the lambda form step for step."""

    @_battery("mu_lambda_equivalence", trials)
    def result(k: int, details: dict) -> None:
        p = instances.random_problem(rng)
        s_lam = instances.random_state(rng, p, coords="nodal")
        s_mu = PrimalDualState(
            s_lam.primal, p.sqrt_k_i * s_lam.lambda_lo, p.sqrt_k_i * s_lam.lambda_hi
        )
        lam = integrate(NETWORKED, p, s_lam, h=DEFAULT_STEP, t_end=TRIAL_HORIZON, sample_every=10)
        mu = integrate(DROOP, p, s_mu, h=DEFAULT_STEP, t_end=TRIAL_HORIZON, sample_every=10)
        dev = max(
            float(np.max(np.abs(lam.primal - mu.primal))),
            float(np.max(np.abs(lam.lambda_lo * p.sqrt_k_i - mu.lambda_lo))),
            float(np.max(np.abs(lam.lambda_hi * p.sqrt_k_i - mu.lambda_hi))),
            float(np.max(np.abs(lam.omega - mu.omega))),
        )
        _worse(details, "worst_deviation", dev)
        assert dev < MU_LAMBDA_TOL, f"max deviation {dev:.3e} between dual forms"

    return result


def check_shift_invariance(trials: int, rng: np.random.Generator) -> BatteryResult:
    """Adding c*1 to theta0 shifts theta and changes nothing else."""

    @_battery("shift_invariance", trials)
    def result(k: int, details: dict) -> None:
        p = instances.random_problem(rng)
        s = instances.random_state(rng, p, coords="nodal")
        c = float(rng.uniform(-2.0, 2.0))
        shifted = PrimalDualState(s.primal + c, s.lambda_lo, s.lambda_hi)
        a = integrate(NETWORKED, p, s, h=DEFAULT_STEP, t_end=TRIAL_HORIZON, sample_every=10)
        b = integrate(NETWORKED, p, shifted, h=DEFAULT_STEP, t_end=TRIAL_HORIZON, sample_every=10)
        dev = max(
            float(np.max(np.abs(b.primal - a.primal - c))),
            float(np.max(np.abs(b.lambda_lo - a.lambda_lo))),
            float(np.max(np.abs(b.lambda_hi - a.lambda_hi))),
            float(np.max(np.abs(b.omega - a.omega))),
        )
        fa = a.final_state
        fb = b.final_state
        ra = kkt_residual_nodal(p, fa.primal, fa.lambda_lo, fa.lambda_hi).residuals
        rb = kkt_residual_nodal(p, fb.primal, fb.lambda_lo, fb.lambda_hi).residuals
        dev = max(dev, max(abs(ra[name] - rb[name]) for name in ra))
        _worse(details, "worst_deviation", dev)
        assert dev < SHIFT_TOL, f"shift changed the trajectory by {dev:.3e}"

    return result


_BATTERIES: tuple[Callable, ...] = (
    check_oracle_kkt,
    check_dynamics_convergence,
    check_coinciding_fields,
    check_edge_kernel_conservation,
    check_radial_uniqueness,
    check_mu_lambda_equivalence,
    check_shift_invariance,
)


def run_suite(
    trials: int = 100,
    seed: int = 42,
    solve_fn: Callable = oracle.solve,
) -> SuiteReport:
    """Run every battery with ``trials`` instances each.

    Deterministic in (trials, seed): each battery gets its own child
    generator spawned from the seed, so adding trials to one battery
    never reshuffles another.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    streams = np.random.SeedSequence(seed).spawn(len(_BATTERIES))
    results = []
    for battery, stream in zip(_BATTERIES, streams):
        rng = np.random.default_rng(stream)
        if battery in (check_oracle_kkt, check_dynamics_convergence):
            results.append(battery(trials, rng, solve_fn=solve_fn))
        else:
            results.append(battery(trials, rng))
    return SuiteReport(tuple(results))
