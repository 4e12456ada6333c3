import numpy as np
import pytest

from droopflow import recover_theta, solve
from droopflow.instances import random_problem, well_separated_problem

from conftest import (
    balanced_two_node,
    example_e,
    example_e_mirror,
    make_problem,
    two_node_graph,
)


def test_balanced_instance_interior_solution():
    sol = solve(balanced_two_node())
    assert sol.nu == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(sol.p_opt, [0.0, 0.0], atol=1e-9)
    assert np.allclose(sol.theta, [-0.25, 0.25], atol=1e-9)
    assert not sol.at_lower and not sol.at_upper
    assert np.all(sol.lambda_lo == 0) and np.all(sol.lambda_hi == 0)


def test_unbalanced_interior_solution():
    p = make_problem(
        two_node_graph(),
        p_star=(0.0, 0.0),
        p_load=(0.5, -0.1),
        p_lo=(-0.3, -0.3),
        p_hi=(0.3, 0.3),
        m=(1.0, 1.0),
    )
    sol = solve(p)
    assert sol.nu == pytest.approx(-0.2, abs=1e-9)
    assert np.allclose(sol.p_opt, [0.2, 0.2], atol=1e-9)


def test_upper_clipped_solution():
    sol = solve(example_e())
    assert sol.nu == pytest.approx(-0.5, abs=1e-9)
    assert np.allclose(sol.p_opt, [0.25, 0.25], atol=1e-9)
    assert sol.at_upper == frozenset({0})
    assert sol.at_lower == frozenset()
    assert sol.lambda_hi[0] == pytest.approx(0.35, abs=1e-9)
    assert sol.lambda_hi[1] == 0.0
    assert np.all(sol.lambda_lo == 0)


def test_lower_clipped_mirror_solution():
    sol = solve(example_e_mirror())
    assert sol.nu == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(sol.p_opt, [-0.25, -0.25], atol=1e-9)
    assert sol.at_lower == frozenset({0})
    assert sol.at_upper == frozenset()
    assert sol.lambda_lo[0] == pytest.approx(0.35, abs=1e-9)


def test_recover_theta_examples():
    t = balanced_two_node().transform
    theta = recover_theta(t, np.zeros(2), np.array([0.5, -0.5]))
    assert np.allclose(theta, [-0.25, 0.25], atol=1e-12)
    assert np.allclose(recover_theta(t, np.ones(2), np.ones(2)), 0.0, atol=1e-12)
    with pytest.raises(ValueError, match="balanced"):
        recover_theta(t, np.array([0.5, 0.0]), np.zeros(2))


def test_recovered_theta_is_zero_mean(rng):
    for _ in range(10):
        p = random_problem(rng)
        sol = solve(p)
        assert abs(sol.theta.mean()) < 1e-12
        assert np.allclose(
            p.transform.L @ sol.theta, sol.p_opt - p.p_load, atol=1e-10
        )


def test_infeasible_problem_rejected():
    p = make_problem(
        two_node_graph(),
        p_star=(0.0, 0.0),
        p_load=(1.5, 1.0),  # exceeds sum of upper limits
        p_lo=(-1.0, -1.0),
        p_hi=(1.0, 1.0),
        m=(1.0, 1.0),
    )
    with pytest.raises(ValueError, match="infeasible"):
        solve(p)


def test_duals_clean_off_active_set(rng):
    for _ in range(30):
        p = random_problem(rng)
        sol = solve(p)
        assert np.all(sol.lambda_lo >= 0) and np.all(sol.lambda_hi >= 0)
        # no node carries both duals
        assert np.all(sol.lambda_lo * sol.lambda_hi == 0)
        interior = (sol.p_opt - p.p_lo > 1e-9) & (p.p_hi - sol.p_opt > 1e-9)
        assert np.all(sol.lambda_lo[interior] == 0.0)
        assert np.all(sol.lambda_hi[interior] == 0.0)


def test_free_component_stationarity(rng):
    for _ in range(30):
        p = random_problem(rng)
        sol = solve(p)
        free_mask = np.ones(p.n, dtype=bool)
        free_mask[list(sol.at_lower | sol.at_upper)] = False
        resid = p.m * (sol.p_opt - p.p_star) + sol.nu
        assert free_mask.any()  # assumption 1 keeps at least one node unclipped
        assert np.all(np.abs(resid[free_mask]) < 1e-9)


def test_power_balance_at_solution(rng):
    for _ in range(30):
        p = random_problem(rng)
        sol = solve(p)
        assert abs(sol.p_opt.sum() - p.p_load.sum()) < 1e-10


def test_solution_minimizes_over_feasible_directions(rng):
    def fobj(p, q):
        return 0.5 * (q - p.p_star) @ (p.m * (q - p.p_star))

    accepted = 0
    for _ in range(10):
        p = well_separated_problem(rng)
        sol = solve(p)
        base = fobj(p, sol.p_opt)
        for _ in range(20):
            d = rng.normal(size=p.n)
            d -= d.mean()  # stay on the power-balance hyperplane
            for t in (1e-4, 1e-3, 1e-2):
                q = sol.p_opt + t * d
                if np.all(q >= p.p_lo) and np.all(q <= p.p_hi):
                    accepted += 1
                    assert fobj(p, q) >= base - 1e-12
    assert accepted > 50


def test_nu_sign_matches_dispatch_imbalance(rng):
    signs = set()
    for k in range(40):
        balanced = k % 10 == 0
        p = random_problem(rng, balanced=balanced)
        sol = solve(p)
        diff = p.p_star.sum() - p.p_load.sum()
        if balanced:
            assert abs(sol.nu) < 1e-9
        elif diff > 0:
            assert sol.nu > 0
            signs.add(1)
        else:
            assert sol.nu < 0
            signs.add(-1)
    assert signs == {1, -1}
