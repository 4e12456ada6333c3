import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droopflow import (
    active_sets,
    injections,
    kkt_residual_edge,
    kkt_residual_nodal,
    laplacian_apply,
    solve,
    to_edge_coords,
    validate,
    violation,
)
from droopflow.instances import random_problem
from droopflow.problem import RESIDUAL_NAMES

from conftest import (
    balanced_two_node,
    example_e,
    make_problem,
    triangle_graph,
    two_node_graph,
)


def test_validate_passes_strict_instance():
    p = make_problem(
        two_node_graph(),
        p_star=(0.0, 0.0),
        p_load=(0.5, -0.1),
        p_lo=(-1.0, -1.0),
        p_hi=(1.0, 1.0),
        m=(1.0, 1.0),
    )
    report = validate(p)
    assert report.passed
    assert not report.violations


def test_validate_boundary_setpoint_fails():
    p = make_problem(
        two_node_graph(),
        p_star=(0.0, 1.0),  # node 1 setpoint sits on its upper limit
        p_load=(0.5, -0.1),
        p_lo=(-1.0, -1.0),
        p_hi=(1.0, 1.0),
        m=(1.0, 1.0),
    )
    report = validate(p)
    assert not report.passed
    assert any("1" in v for v in report.violations)


def test_validate_load_sum_at_upper_limit_fails():
    p = make_problem(
        two_node_graph(),
        p_star=(0.0, 0.0),
        p_load=(1.0, 1.0),  # sum equals sum of upper limits
        p_lo=(-1.0, -1.0),
        p_hi=(1.0, 1.0),
        m=(1.0, 1.0),
    )
    assert not validate(p).passed


def test_constructor_rejects_nonpositive_gains():
    with pytest.raises(ValueError, match="m"):
        make_problem(
            two_node_graph(),
            p_star=(0.0, 0.0),
            p_load=(0.1, 0.0),
            p_lo=(-1.0, -1.0),
            p_hi=(1.0, 1.0),
            m=(1.0, 0.0),
        )


def test_injections_at_zero_and_consensus():
    p = balanced_two_node()
    assert np.array_equal(injections(p, np.zeros(2)), p.p_load)
    assert np.allclose(injections(p, 2.5 * np.ones(2)), p.p_load, atol=1e-14)


def test_injections_two_node_value():
    p = balanced_two_node()
    assert np.allclose(injections(p, np.array([-0.25, 0.25])), [0.0, 0.0], atol=1e-14)


def test_injection_sum_conserved(rng):
    for _ in range(20):
        p = random_problem(rng)
        theta = rng.normal(size=p.n)
        assert np.sum(injections(p, theta)) == pytest.approx(
            np.sum(p.p_load), abs=1e-12
        )


def test_violation_componentwise():
    p = make_problem(
        two_node_graph(),
        p_star=(0.5, 0.0),
        p_load=(0.5, 0.3),
        p_lo=(0.2, -1.0),
        p_hi=(1.1, 2.0),
        m=(1.0, 1.0),
    )
    g = violation(p, np.array([0.7, -0.7]))  # node 0 injects 1.2, above 1.1
    assert g[0] == pytest.approx(-1.0)
    assert g[2] == pytest.approx(0.1)
    feasible = violation(p, np.array([0.0, 0.0]))
    assert np.all(feasible < 0)


def test_kkt_residual_names_and_nonnegativity(rng):
    p = random_problem(rng)
    pt = kkt_residual_nodal(p, rng.normal(size=p.n), np.zeros(p.n), np.zeros(p.n))
    assert set(pt.residuals) == set(RESIDUAL_NAMES)
    assert all(v >= 0 for v in pt.residuals.values())


def test_negative_dual_is_reported_not_hidden():
    p = balanced_two_node()
    lam = np.array([-0.2, 0.0])
    pt = kkt_residual_nodal(p, np.zeros(2), lam, np.zeros(2))
    assert pt.residuals["dual_feasibility"] == pytest.approx(0.2)


def test_kkt_residuals_shift_invariant(rng):
    p = random_problem(rng, n=5)
    theta = rng.normal(size=5)
    lam_lo = np.abs(rng.normal(size=5))
    lam_hi = np.abs(rng.normal(size=5))
    a = kkt_residual_nodal(p, theta, lam_lo, lam_hi)
    b = kkt_residual_nodal(p, theta + 3.1, lam_lo, lam_hi)
    for name in RESIDUAL_NAMES:
        assert a.residuals[name] == pytest.approx(b.residuals[name], abs=1e-10)


def test_oracle_point_accepted_in_both_coordinates():
    p = example_e()
    sol = solve(p)
    nodal = kkt_residual_nodal(p, sol.theta, sol.lambda_lo, sol.lambda_hi)
    eta = to_edge_coords(p.transform, sol.theta)
    edge = kkt_residual_edge(p, eta, sol.lambda_lo, sol.lambda_hi)
    assert nodal.max_residual < 1e-8
    assert edge.max_residual < 1e-8


def test_edge_residual_ignores_kernel_component(rng):
    from droopflow.analysis import edge_split

    p = random_problem(rng, graph=triangle_graph((1.0, 2.0, 3.0)))
    split = edge_split(p)
    eta = rng.normal(size=p.graph.e)
    lam_lo = np.abs(rng.normal(size=3))
    lam_hi = np.abs(rng.normal(size=3))
    a = kkt_residual_edge(p, eta, lam_lo, lam_hi)
    shifted = eta + split.gamma_zero @ np.array([0.7])
    b = kkt_residual_edge(p, shifted, lam_lo, lam_hi)
    for name in RESIDUAL_NAMES:
        assert a.residuals[name] == pytest.approx(b.residuals[name], abs=1e-9)


def test_zero_candidate_primal_residual():
    # at theta = 0 the injections equal the loads, which sit outside the box here
    p = make_problem(
        two_node_graph(),
        p_star=(0.0, 0.0),
        p_load=(0.6, -0.5),
        p_lo=(-0.5, -1.0),
        p_hi=(0.5, 1.0),
        m=(1.0, 1.0),
    )
    pt = kkt_residual_nodal(p, np.zeros(2), np.zeros(2), np.zeros(2))
    assert pt.residuals["primal_feasibility"] > 0


def test_active_sets_interior_and_example():
    p = example_e()
    sol = solve(p)
    sets = active_sets(p, sol.theta)
    assert sets.at_upper == frozenset({0})
    assert sets.at_lower == frozenset()

    interior = balanced_two_node()
    s2 = active_sets(interior, solve(interior).theta)
    assert not s2.at_lower and not s2.at_upper


def test_active_sets_ambiguous_node_rejected():
    p = make_problem(
        two_node_graph(),
        p_star=(0.0, 0.0),
        p_load=(1e-7, 0.0),
        p_lo=(-1e-6, -1.0),
        p_hi=(1e-6, 1.0),
        m=(1.0, 1.0),
    )
    with pytest.raises(ValueError, match="both"):
        active_sets(p, np.zeros(2))


def test_validation_report_string_lists_conditions():
    p = make_problem(
        two_node_graph(),
        p_star=(0.0, 2.0),
        p_load=(5.0, 5.0),
        p_lo=(-1.0, -1.0),
        p_hi=(1.0, 1.0),
        m=(1.0, 1.0),
    )
    report = validate(p)
    assert not report.passed
    text = str(report)
    assert "load" in text or "sum" in text


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["p_star", "p_load", "p_lo", "p_hi"]),
    node=st.integers(0, 2),
    value=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
def test_validate_names_nonfinite_data_by_node(field, node, value):
    data = {
        "p_star": np.zeros(3),
        "p_load": np.array([0.2, -0.1, 0.0]),
        "p_lo": -np.ones(3),
        "p_hi": np.ones(3),
    }
    data[field][node] = value
    p = make_problem(triangle_graph(), m=np.ones(3), **data)
    report = validate(p)
    assert not report.passed
    assert report.violations == (f"{field}: NaN or infinite at nodes [{node}]",)


def test_max_violation_is_the_largest_constraint_component(rng):
    # Scales up to 30 put some injections far outside their limits and
    # others strictly inside, so both signs of the maximum occur.
    signs = set()
    for _ in range(40):
        p = random_problem(rng)
        t = p.transform
        scale = 10.0 ** rng.uniform(-3, 1.5)
        lam_lo, lam_hi = rng.normal(size=(2, p.n))
        theta = rng.normal(0.0, scale, p.n)
        pt = kkt_residual_nodal(p, theta, lam_lo, lam_hi)
        assert pt.max_violation == float(violation(p, laplacian_apply(t, theta)).max())
        eta = rng.normal(0.0, scale, p.graph.e)
        flow = t.sqrt_w * eta  # B V eta, node by node
        p_net = np.bincount(t.tail, flow, p.n) - np.bincount(t.head, flow, p.n)
        assert np.allclose(p_net, t.B @ flow, rtol=0, atol=1e-12 * scale)
        pt = kkt_residual_edge(p, eta, lam_lo, lam_hi)
        assert pt.max_violation == float(violation(p, p_net).max())
        signs.add(pt.max_violation > 0)
    assert signs == {True, False}
