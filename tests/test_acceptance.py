"""Acceptance suite: the checks this package commits to, one test each.

Every test states its tolerance inline and runs the documented number of
randomized instances; the random streams are fixed so failures
reproduce. One test, ``test_field_gap_contracts_with_half_step``, is a
known failure kept on purpose: the nodal and edge integrations are
exactly conjugate maps of each other, so their gap is rounding noise and
does not contract when the step is halved. It is left failing, with the
measured ratios in the message, rather than weakened to match the
implementation; see the docstring of ``verify.check_coinciding_fields``
and the standing note on this test in ROADMAP.md for the analysis.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import droopflow
from droopflow import load_scenario, oracle, predict
from droopflow.cli import run
from droopflow.instances import random_problem, random_state, well_separated_problem
from droopflow.verify import (
    _field_gap,
    check_coinciding_fields,
    check_edge_kernel_conservation,
    check_mu_lambda_equivalence,
    check_oracle_kkt,
    check_radial_uniqueness,
    check_shift_invariance,
    settle_networked,
)

BUNDLED = Path(droopflow.__file__).parent / "scenarios" / "nine_bus.scenario"


def _stream(k: int) -> np.random.Generator:
    return np.random.default_rng([42, k])


def _report(battery) -> str:
    return "; ".join(battery.failures[:5]) or "ok"


def test_oracle_kkt_on_1000_random_instances():
    start = time.perf_counter()
    battery = check_oracle_kkt(1000, _stream(1))
    elapsed = time.perf_counter() - start
    assert battery.passed, _report(battery)
    assert battery.details["worst_residual"] < 1e-8
    assert elapsed < 10.0, f"oracle battery took {elapsed:.1f} s, budget is 10 s"


@pytest.fixture(scope="module")
def dynamics_runs():
    """100 networked-dynamics runs settled to their limits, shared by the
    convergence, synchronization, and active-set tests below."""
    rng = _stream(2)
    runs = []
    for k in range(100):
        if k % 5 == 4:
            p = random_problem(rng, balanced=True)
        else:
            p = well_separated_problem(rng)
        res = settle_networked(p)
        runs.append((p, res, predict(p), float(oracle.solve(p).nu)))
    return runs


def test_dynamics_settle_to_kkt_points(dynamics_runs):
    worst_residual = max(res.kkt.max_residual for _, res, _, _ in dynamics_runs)
    worst_violation = max(res.kkt.max_violation for _, res, _, _ in dynamics_runs)
    assert worst_residual < 1e-4, f"worst final KKT residual {worst_residual:.3e}"
    assert worst_violation < 1e-5, f"worst final limit violation {worst_violation:.3e}"


def test_frequencies_synchronize_to_the_prediction(dynamics_runs):
    worst_spread = max(res.metrics.max_spread for _, res, _, _ in dynamics_runs)
    worst_est_err = max(
        abs(res.metrics.omega_s_estimate - pred.omega_s)
        for _, res, pred, _ in dynamics_runs
    )
    worst_formula_err = max(
        abs(pred.omega_s - nu) for _, _, pred, nu in dynamics_runs
    )
    assert worst_spread < 1e-4, f"worst tail frequency spread {worst_spread:.3e}"
    assert worst_est_err < 1e-3, f"worst measured-vs-predicted gap {worst_est_err:.3e}"
    assert worst_formula_err <= 1e-9, (
        f"formula disagrees with oracle multiplier by {worst_formula_err:.3e}"
    )


def test_sign_and_active_set_laws_on_all_runs(dynamics_runs):
    for p, _, pred, _ in dynamics_runs:
        diff = float(np.sum(p.p_star)) - float(np.sum(p.p_load))
        assert np.sign(pred.omega_s) == np.sign(diff)
        assert not (pred.active_lower and pred.active_upper)
        if diff > 0:
            assert not pred.active_upper
        if diff < 0:
            assert not pred.active_lower
        if diff == 0.0:
            assert pred.omega_s == 0.0
            assert not pred.active_lower and not pred.active_upper


def test_matched_nodal_and_edge_runs_coincide():
    battery = check_coinciding_fields(20, _stream(5))
    assert battery.passed, _report(battery)
    assert battery.details["worst_gap"] < 1e-6


def test_field_gap_contracts_with_half_step():
    rng = _stream(55)
    ratios = []
    for _ in range(20):
        p = random_problem(rng)
        s0 = random_state(rng, p)
        gap = _field_gap(p, s0, h=1e-3, horizon=10.0)
        half = _field_gap(p, s0, h=5e-4, horizon=10.0)
        ratios.append(gap / half if half > 0 else float("inf"))
    assert min(ratios) >= 1.8, (
        "halving the step should shrink the nodal/edge gap by >= 1.8x, "
        f"measured ratios span [{min(ratios):.3f}, {max(ratios):.3f}]; "
        "the two recursions are conjugate, so the gap is rounding noise "
        "with no first-order h dependence to contract"
    )


def test_cycle_space_coordinates_are_conserved():
    battery = check_edge_kernel_conservation(20, _stream(6))
    assert battery.passed, _report(battery)
    assert battery.details["worst_drift"] < 1e-8


def test_radial_networks_settle_to_unique_flows():
    battery = check_radial_uniqueness(20, _stream(7))
    assert battery.passed, _report(battery)
    assert battery.details["worst_distance"] < 1e-4


def test_scaled_dual_form_reproduces_lambda_form():
    battery = check_mu_lambda_equivalence(20, _stream(8))
    assert battery.passed, _report(battery)
    assert battery.details["worst_deviation"] < 1e-8


def test_consensus_shifts_leave_dynamics_invariant():
    battery = check_shift_invariance(20, _stream(9))
    assert battery.passed, _report(battery)
    assert battery.details["worst_deviation"] < 1e-9


def test_bundled_scenario_saturates_converters_in_order():
    start = time.perf_counter()
    report = run(load_scenario(BUNDLED))
    elapsed = time.perf_counter() - start

    assert report.completed
    saturated = [set(s.saturated_upper) for s in report.segments]
    assert saturated == [set(), set(), set(), {1}, {1, 2}, {0, 1, 2}]
    first_hit = {n: min(k for k, s in enumerate(saturated) if n in s) for n in (0, 1, 2)}
    assert first_hit[1] < first_hit[2] < first_hit[0]

    assert report.all_agree, "per-segment frequency agreement flag went false"

    balanced = [s for s in report.segments if s.prediction.case == "balanced"]
    assert len(balanced) == 1
    assert abs(balanced[0].metrics.omega_s_estimate) < 1e-4

    assert elapsed < 60.0, f"scenario run took {elapsed:.1f} s, budget is 60 s"
