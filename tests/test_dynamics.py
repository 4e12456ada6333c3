import numpy as np
import pytest

from droopflow import (
    DROOP,
    EDGE_PD,
    NETWORKED,
    IntegrationError,
    NetworkGraph,
    PrimalDualState,
    Trajectory,
    droop_rhs,
    edge_pd_rhs,
    integrate,
    injections,
    networked_rhs,
    rhs,
    solve,
    sync_metrics,
    to_edge_coords,
    zero_state,
)
from droopflow.analysis import edge_split
from droopflow.instances import random_problem, random_state
from droopflow.verify import _field_gap

from conftest import balanced_two_node, example_e, grid_graph, make_problem, triangle_graph


def path_problem(n=4):
    g = NetworkGraph(n, [(i, i + 1) for i in range(n - 1)], np.ones(n - 1))
    return make_problem(
        g,
        p_star=np.zeros(n),
        p_load=np.linspace(0.2, -0.2, n),
        p_lo=-np.ones(n),
        p_hi=np.ones(n),
        m=np.linspace(0.8, 1.2, n),
    )


def test_interior_reduction_to_pure_droop():
    p = balanced_two_node()
    theta = np.array([0.1, -0.05])
    s = PrimalDualState(theta, np.zeros(2), np.zeros(2))
    dtheta, dlo, dhi, omega, inj = networked_rhs(p, s)
    # with limits slack and duals at zero only the droop term survives
    assert np.array_equal(dtheta, p.m * (p.p_star - inj))
    assert np.array_equal(omega, dtheta)
    assert np.array_equal(inj, injections(p, theta))
    assert np.all(dlo == 0) and np.all(dhi == 0)


def test_dual_rate_positive_on_violation():
    p = example_e()  # p_hi[0] = 0.25, injection at theta = 0 is 0.5
    s = zero_state(p)
    _, dlo, dhi, _, inj = networked_rhs(p, s)
    assert inj[0] > p.p_hi[0]
    assert dhi[0] == pytest.approx(p.sqrt_k_i[0] * (inj[0] - p.p_hi[0]))
    assert dhi[0] > 0
    assert np.all(dlo == 0)  # lower limits slack, duals at zero stay put


def test_rates_are_local_to_the_closed_neighborhood(rng):
    p = path_problem(4)
    theta = rng.normal(size=4)
    lam_lo = np.abs(rng.normal(size=4))
    lam_hi = np.abs(rng.normal(size=4))
    base = networked_rhs(p, PrimalDualState(theta, lam_lo, lam_hi))

    # perturb everything outside node 0's closed neighborhood {0, 1}
    theta2, lo2, hi2 = theta.copy(), lam_lo.copy(), lam_hi.copy()
    theta2[2:] += rng.normal(size=2)
    lo2[2:] += np.abs(rng.normal(size=2))
    hi2[2:] += np.abs(rng.normal(size=2))
    pert = networked_rhs(p, PrimalDualState(theta2, lo2, hi2))

    for a, b in zip(base[:3], pert[:3]):
        assert a[0] == b[0]  # bitwise: node 0 never sees the change


def test_rhs_vanishes_modulo_consensus_at_optimum(rng):
    problems = [example_e(), random_problem(rng), random_problem(rng)]
    for p in problems:
        sol = solve(p)
        s = PrimalDualState(sol.theta, sol.lambda_lo, sol.lambda_hi)
        dtheta, dlo, dhi, omega, _ = networked_rhs(p, s)
        assert np.all(np.abs(dtheta - sol.nu) < 1e-8)
        assert np.all(np.abs(dlo) < 1e-8) and np.all(np.abs(dhi) < 1e-8)
        assert np.array_equal(omega, dtheta)


def test_droop_matches_networked_at_unit_integral_gain(rng):
    p = random_problem(rng)  # random k_i, exercised through the rescaling
    p_unit = make_problem(
        p.graph, p.p_star, p.p_load, p.p_lo, p.p_hi, p.m, k_p=p.k_p
    )
    s = random_state(rng, p_unit)
    a = networked_rhs(p_unit, s)
    b = droop_rhs(p_unit, s)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_droop_is_networked_in_rescaled_duals(rng):
    p = random_problem(rng)
    s = random_state(rng, p)
    mu = PrimalDualState(s.primal, p.sqrt_k_i * s.lambda_lo, p.sqrt_k_i * s.lambda_hi)
    dtheta, dlo, dhi, _, _ = networked_rhs(p, s)
    dtheta_mu, dmu_lo, dmu_hi, _, _ = droop_rhs(p, mu)
    assert np.allclose(dtheta_mu, dtheta, atol=1e-13)
    assert np.allclose(dmu_lo, p.sqrt_k_i * dlo, atol=1e-13)
    assert np.allclose(dmu_hi, p.sqrt_k_i * dhi, atol=1e-13)


def test_edge_rate_stays_in_cycle_free_subspace(rng):
    p = random_problem(rng, graph=triangle_graph((1.0, 2.0, 3.0)))
    split = edge_split(p)
    s = random_state(rng, p, coords="edge")
    deta, _, _, _, _ = edge_pd_rhs(p, s)
    assert np.all(np.abs(split.gamma_zero.T @ deta) < 1e-12)


def test_edge_rates_ignore_kernel_component(rng):
    p = random_problem(rng, graph=triangle_graph())
    split = edge_split(p)
    s = random_state(rng, p, coords="edge")
    shifted = PrimalDualState(
        s.primal + split.gamma_zero @ np.array([0.8]), s.lambda_lo, s.lambda_hi
    )
    a = edge_pd_rhs(p, s)
    b = edge_pd_rhs(p, shifted)
    for x, y in zip(a, b):
        assert np.allclose(x, y, atol=1e-12)


def test_edge_field_is_pushforward_of_nodal_field(rng):
    p = random_problem(rng)
    s = random_state(rng, p)
    eta = to_edge_coords(p.transform, s.primal)
    s_edge = PrimalDualState(eta, s.lambda_lo, s.lambda_hi)
    dtheta, dlo_n, dhi_n, _, _ = networked_rhs(p, s)
    deta, dlo_e, dhi_e, omega, _ = edge_pd_rhs(p, s_edge)
    assert np.allclose(omega, dtheta, atol=1e-12)
    assert np.allclose(deta, to_edge_coords(p.transform, dtheta), atol=1e-12)
    assert np.allclose(dlo_e, dlo_n, atol=1e-12)
    assert np.allclose(dhi_e, dhi_n, atol=1e-12)


def test_integrate_clamps_duals_at_zero():
    p = balanced_two_node()
    s0 = PrimalDualState(np.zeros(2), np.array([0.01, 0.0]), np.zeros(2))
    traj = integrate(NETWORKED, p, s0, h=1e-3, t_end=0.1)
    assert np.all(traj.lambda_lo >= 0) and np.all(traj.lambda_hi >= 0)
    assert traj.lambda_lo[-1, 0] == 0.0  # decays onto the boundary, then sticks


def test_integrate_stationary_at_balanced_optimum():
    p = balanced_two_node()
    sol = solve(p)
    s0 = PrimalDualState(sol.theta, sol.lambda_lo, sol.lambda_hi)
    traj = integrate(NETWORKED, p, s0, h=1e-3, t_end=10.0, sample_every=100)
    assert np.max(np.abs(traj.primal - sol.theta)) < 1e-6
    assert np.max(np.abs(traj.omega)) < 1e-6


def test_integrate_detects_divergence():
    p = make_problem(
        balanced_two_node().graph,
        p_star=(0.0, 0.0),
        p_load=(0.5, -0.5),
        p_lo=(-1.0, -1.0),
        p_hi=(1.0, 1.0),
        m=(1e5, 1e5),  # h * m far beyond the stable step
    )
    s0 = PrimalDualState(np.array([0.3, -0.3]), np.zeros(2), np.zeros(2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as err:
            integrate(NETWORKED, p, s0, h=1e-3, t_end=5.0)
    assert err.value.step > 0
    assert "diverged" in str(err.value)


def test_integrate_sample_grid():
    p = balanced_two_node()
    traj = integrate(NETWORKED, p, zero_state(p), h=0.25, t_end=1.0, sample_every=2)
    assert np.array_equal(traj.times, [0.0, 0.5, 1.0])
    off = integrate(
        NETWORKED, p, zero_state(p), h=0.25, t_end=1.0, sample_every=2, t0=1.5
    )
    assert np.array_equal(off.times, [1.5, 2.0, 2.5])


def test_integrate_stop_when_truncates():
    p = balanced_two_node()
    traj = integrate(
        NETWORKED,
        p,
        zero_state(p),
        h=1e-3,
        t_end=1.0,
        stop_when=lambda p, s, t: True,
        check_every=10,
    )
    assert traj.times[-1] == pytest.approx(0.01)
    assert traj.n_samples == 11


def test_integrate_long_horizon_cut_short_keeps_every_sample():
    p = balanced_two_node()
    s0 = PrimalDualState(np.array([0.3, -0.2]), np.array([0.1, 0.0]), np.zeros(2))
    # a horizon whose full sample grid could never be held in memory
    cut = integrate(
        NETWORKED, p, s0, h=1e-3, t_end=1e9,
        stop_when=lambda p, s, t: t >= 3.0, check_every=500,
    )
    full = integrate(NETWORKED, p, s0, h=1e-3, t_end=3.0)
    coarse = integrate(NETWORKED, p, s0, h=1e-3, t_end=3.0, sample_every=1000)
    assert cut.n_samples == full.n_samples == 3001
    for name in ("times", "primal", "lambda_lo", "lambda_hi", "omega", "injections"):
        assert np.array_equal(getattr(cut, name), getattr(full, name)), name
        assert np.array_equal(getattr(full, name)[::1000], getattr(coarse, name)), name


def test_integrate_rejects_bad_arguments():
    p = balanced_two_node()
    with pytest.raises(ValueError):
        integrate(NETWORKED, p, zero_state(p), h=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        integrate(NETWORKED, p, zero_state(p), h=1e-3, t_end=1.0, sample_every=0)
    with pytest.raises(ValueError, match="check_every"):
        integrate(NETWORKED, p, zero_state(p), h=1e-3, t_end=1.0, check_every=0)
    for h, t_end in (
        (float("nan"), 1.0), (float("inf"), 1.0), (1e-3, float("inf")), (1e-3, -5.0), (1e-3, 0.0)
    ):
        with pytest.raises(ValueError, match="h must be|t_end must be"):
            integrate(NETWORKED, p, zero_state(p), h=h, t_end=t_end)


@pytest.mark.parametrize("system", [NETWORKED, DROOP, EDGE_PD], ids=lambda s: s.name)
def test_one_integrate_step_is_euler_on_rhs(rng, system):
    # States beyond each limit with about a third of the duals at exactly
    # zero, where the limiting terms and the dual clamp are live.
    # The last instance, a 16 x 16 grid, takes the index form of L theta.
    h = 1e-3
    for k in range(41):
        p = random_problem(rng, graph=grid_graph(rng, 16) if k == 40 else None)
        assert p.transform.index_form == (k == 40)
        theta = rng.normal(0.0, 0.6, p.n)
        lo, hi = (np.abs(rng.normal(0.0, 0.5, p.n)) * (rng.random(p.n) >= 0.35) for _ in range(2))
        primal = theta if system.coords == "nodal" else to_edge_coords(p.transform, theta)
        s0 = PrimalDualState(primal, lo, hi)
        before = [x.copy() for x in (s0.primal, s0.lambda_lo, s0.lambda_hi)]
        dprimal, dlo, dhi, omega, inj = rhs(system, p, s0)
        traj = integrate(system, p, s0, h=h, t_end=h)

        assert traj.n_samples == 2
        for got, want in (
            (traj.primal[1], primal + h * dprimal),
            (traj.lambda_lo[1], np.maximum(lo + h * dlo, 0.0)),
            (traj.lambda_hi[1], np.maximum(hi + h * dhi, 0.0)),
            (traj.omega[0], omega),
            (traj.injections[0], inj),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        # the loop updates its own buffers in place, never the caller's
        for x, y in zip((s0.primal, s0.lambda_lo, s0.lambda_hi), before):
            assert np.array_equal(x, y)


def test_state_rejects_negative_duals():
    with pytest.raises(ValueError, match="nonnegative"):
        PrimalDualState(np.zeros(2), np.array([-1e-9, 0.0]), np.zeros(2))


def test_edge_kernel_component_conserved_under_integration(rng):
    p = random_problem(rng, graph=triangle_graph((2.0, 1.0, 1.5)))
    split = edge_split(p)
    eta0 = to_edge_coords(p.transform, rng.normal(size=3)) + split.gamma_zero @ [0.37]
    s0 = PrimalDualState(eta0, np.zeros(3), np.zeros(3))
    traj = integrate(EDGE_PD, p, s0, h=1e-3, t_end=5.0, sample_every=500)
    z0 = split.gamma_zero.T @ eta0
    z_end = split.gamma_zero.T @ traj.primal[-1]
    assert np.all(np.abs(z_end - z0) < 1e-10)


def test_column_labels_follow_coordinates():
    p = balanced_two_node()
    mu_traj = integrate(DROOP, p, zero_state(p), h=0.1, t_end=0.1)
    assert "mu_lo_0" in mu_traj.column_labels()
    assert "lam_lo_0" not in mu_traj.column_labels()
    edge_traj = integrate(EDGE_PD, p, zero_state(p, coords="edge"), h=0.1, t_end=0.1)
    assert edge_traj.column_labels()[1] == "eta_0"


def _synthetic_traj(times, omega):
    s, n = omega.shape
    zeros = np.zeros((s, n))
    return Trajectory(
        times=times,
        primal=zeros,
        lambda_lo=zeros,
        lambda_hi=zeros,
        omega=omega,
        injections=zeros,
        coords="nodal",
    )


def test_sync_metrics_on_synthetic_trajectories():
    t = np.linspace(0.0, 10.0, 51)
    flat = _synthetic_traj(t, np.full((51, 2), 0.3))
    m = sync_metrics(flat)
    assert m.settled
    assert m.omega_s_estimate == pytest.approx(0.3)
    assert m.max_spread == 0.0

    drifting = _synthetic_traj(t, np.repeat(t[:, None], 2, axis=1))
    md = sync_metrics(drifting)
    assert not md.settled
    assert md.mean_drift == pytest.approx(1.0, abs=1e-8)

    spread = _synthetic_traj(t, np.column_stack([np.zeros(51), np.full(51, 1e-3)]))
    ms = sync_metrics(spread)
    assert not ms.settled
    assert ms.max_spread == pytest.approx(1e-3)

    with pytest.raises(ValueError):
        sync_metrics(flat, tail_fraction=0.0)


def test_trajectory_rejects_bad_time_axis():
    with pytest.raises(ValueError):
        _synthetic_traj(np.array([0.0, 0.0]), np.zeros((2, 1)))


def test_nodal_and_edge_runs_coincide_quickly(rng):
    p = random_problem(rng)
    s0 = random_state(rng, p, scale=0.2)
    gap = _field_gap(p, s0, h=1e-3, horizon=2.0)
    assert gap < 1e-6
