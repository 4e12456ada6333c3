import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droopflow import (
    EDGE_PD,
    NETWORKED,
    PrimalDualState,
    injections,
    integrate,
    kkt_residual_edge,
    kkt_residual_nodal,
    predict,
    rhs,
    solve,
)
from droopflow.graph import (
    NetworkGraph,
    build_transform,
    laplacian_apply,
    project_off_consensus,
    to_edge_coords,
)
from droopflow.instances import random_graph, random_problem, random_state
from droopflow.oracle import recover_theta

from conftest import grid_graph, make_problem, triangle_graph, two_node_graph


def test_two_node_laplacian():
    t = build_transform(two_node_graph())
    assert np.array_equal(t.L, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_triangle_laplacian_spectrum():
    t = build_transform(triangle_graph())
    assert np.allclose(np.sort(np.linalg.eigvalsh(t.L)), [0.0, 3.0, 3.0], atol=1e-12)


def test_incidence_columns_sum_to_zero(rng):
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 9)))
        t = build_transform(g)
        assert np.array_equal(np.sort(t.B, axis=0)[0], -np.ones(g.e))
        assert np.array_equal(np.sort(t.B, axis=0)[-1], np.ones(g.e))
        assert np.all(t.B.sum(axis=0) == 0)
        # L = B W B^T with W = V V
        w = t.sqrt_w**2
        assert np.allclose(t.L, (t.B * w) @ t.B.T, atol=1e-14)
        assert np.linalg.norm(t.L @ np.ones(g.n)) < 1e-12


def test_edge_coords_consensus_is_zero():
    t = build_transform(triangle_graph((2.0, 5.0, 1.0)))
    assert np.allclose(to_edge_coords(t, 3.7 * np.ones(3)), 0.0, atol=1e-14)


def test_edge_coords_two_node():
    t = build_transform(two_node_graph())
    assert np.allclose(to_edge_coords(t, np.array([-0.25, 0.25])), [-0.5])


def test_edge_coords_path():
    # orientation is tail (lower index) minus head, so theta=(0,1,1)
    # gives B^T theta = (-1, 0) before the sqrt-weight scaling
    g = NetworkGraph(3, [(0, 1), (1, 2)], np.array([1.0, 4.0]))
    t = build_transform(g)
    eta = to_edge_coords(t, np.array([0.0, 1.0, 1.0]))
    assert np.allclose(eta, [-1.0, 0.0])


def test_edge_coords_shift_invariant(rng):
    g = random_graph(rng, 6)
    t = build_transform(g)
    theta = rng.normal(size=6)
    assert np.allclose(
        to_edge_coords(t, theta), to_edge_coords(t, theta + 11.3), atol=1e-12
    )


def test_edge_coords_dimension_mismatch():
    t = build_transform(two_node_graph())
    with pytest.raises(ValueError):
        to_edge_coords(t, np.zeros(3))


def test_project_off_consensus_examples():
    assert np.allclose(project_off_consensus(np.ones(4)), 0.0)
    assert np.allclose(project_off_consensus(np.array([1.0, -1.0])), [1.0, -1.0])
    assert np.allclose(project_off_consensus(np.array([3.0, 1.0, 2.0])), [1.0, -1.0, 0.0])


def test_consensus_projection_characterizes_incidence_kernel(rng):
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 8)))
        t = build_transform(g)
        v = rng.normal(size=g.n)
        assert np.linalg.norm(t.B.T @ project_off_consensus(v)) == pytest.approx(
            np.linalg.norm(t.B.T @ v), abs=1e-12
        )
        assert np.linalg.norm(t.B.T @ (v - project_off_consensus(v))) < 1e-12


def test_incidence_rank(rng):
    from droopflow.instances import random_tree

    for _ in range(10):
        g = random_tree(rng, int(rng.integers(2, 9)))
        s = np.linalg.svd(build_transform(g).B, compute_uv=False)
        assert np.sum(s > 1e-9 * s[0]) == g.e
    tri = triangle_graph()
    s = np.linalg.svd(build_transform(tri).B, compute_uv=False)
    assert np.sum(s > 1e-9 * s[0]) == tri.e - 1


def test_graph_validation():
    with pytest.raises(ValueError):
        NetworkGraph(1, [], np.array([]))
    with pytest.raises(ValueError):
        NetworkGraph(3, [(0, 0)], np.ones(1))
    with pytest.raises(ValueError):
        NetworkGraph(3, [(0, 3)], np.ones(1))
    with pytest.raises(ValueError):
        NetworkGraph(3, [(0, 1), (1, 0)], np.ones(2))  # duplicate after normalization
    with pytest.raises(ValueError):
        NetworkGraph(3, [(0, 1), (1, 2)], np.array([1.0, 0.0]))  # nonpositive weight
    with pytest.raises(ValueError):
        NetworkGraph(4, [(0, 1), (2, 3)], np.ones(2))  # disconnected
    with pytest.raises(ValueError):
        NetworkGraph(3, [(0, 1)], np.ones(1))  # node 2 unreachable


def test_edges_are_normalized():
    g = NetworkGraph(3, [(1, 0), (2, 1)], np.ones(2))
    assert g.edges == ((0, 1), (1, 2))


def test_transform_matrices_read_only():
    t = build_transform(two_node_graph())
    with pytest.raises(ValueError):
        t.B[0, 0] = 5.0
    assert t.B is t.B  # built once, on first access
    for a in (t.tail, t.head, t.sqrt_w, t.L):
        with pytest.raises(ValueError):
            a[0] = 5.0


@settings(max_examples=60, deadline=None)
@given(
    edge=st.integers(0, 2),
    weight=st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -2.5]),
)
def test_graph_names_bad_weights_by_edge(edge, weight):
    edges = [(1, 0), (2, 0), (2, 1)]  # normalized to (0, 1), (0, 2), (1, 2)
    weights = np.ones(3)
    weights[edge] = weight
    with pytest.raises(ValueError) as err:
        NetworkGraph(3, edges, weights)
    i, j = sorted(edges[edge])
    assert str(err.value) == (
        f"edge weights must be finite and positive: edge {edge} ({i}, {j}) has weight {weight:g}"
    )


def _index_form_cases(rng):
    # Random graphs at n = 2-8 and a 16 x 16 grid (n = 256, e = 480).
    graphs = [random_graph(rng, int(rng.integers(2, 9))) for _ in range(30)]
    return graphs + [grid_graph(rng, 16)]


def test_edge_coords_match_dense_incidence(rng):
    for g in _index_form_cases(rng):
        t = build_transform(g)
        theta = rng.normal(0.0, 1.0, g.n)
        dense = np.sqrt(g.weights) * (t.B.T @ theta)
        assert np.array_equal(to_edge_coords(t, theta), dense)


def test_edge_injections_match_dense_incidence(rng):
    for g in _index_form_cases(rng):
        ones = np.ones(g.n)
        p = make_problem(
            g, rng.normal(size=g.n), rng.normal(size=g.n), -ones, ones, ones + rng.random(g.n)
        )
        t = p.transform
        eta = rng.normal(0.0, 1.0, g.e)
        s = PrimalDualState(eta, rng.random(g.n), rng.random(g.n))
        inj = rhs(EDGE_PD, p, s)[4]
        assert np.allclose(inj, t.B @ (t.sqrt_w * eta) + p.p_load, rtol=0.0, atol=1e-14)


def test_recover_theta_matches_pseudoinverse(rng):
    for g in _index_form_cases(rng):
        t = build_transform(g)
        x = rng.normal(0.0, 1.0, g.n)
        p_load = rng.normal(0.0, 1.0, g.n)
        b = x - x.mean()
        theta = recover_theta(t, b + p_load, p_load)
        rhs_ = (b + p_load) - p_load
        assert abs(theta.mean()) < 1e-12
        assert np.allclose(t.L @ theta, rhs_, rtol=0.0, atol=1e-10)
        assert np.allclose(theta, np.linalg.pinv(t.L) @ rhs_, rtol=0.0, atol=1e-10)


def test_small_networks_keep_the_dense_product_and_meshes_take_the_index_form(rng):
    # A tree has the fewest edges for its n, so it is the graph most in
    # favour of the index form: every network of the batteries and the
    # bundled scenario (n <= 9) stays dense, the 16 x 16 and 32 x 32
    # grids do not.
    for n in range(2, 10):
        path = NetworkGraph(n, [(i, i + 1) for i in range(n - 1)], np.ones(n - 1))
        assert not build_transform(path).index_form
    for side in (16, 32):
        assert build_transform(grid_graph(rng, side)).index_form


def test_laplacian_apply_matches_the_dense_product_in_both_forms(rng):
    graphs = _index_form_cases(rng) + [grid_graph(rng, 32)]
    assert {build_transform(g).index_form for g in graphs} == {False, True}
    for g in graphs:
        t = build_transform(g)
        theta = rng.normal(0.0, 1.0, g.n)
        for form in (False, True):
            got = laplacian_apply(dataclasses.replace(t, index_form=form), theta)
            np.testing.assert_allclose(got, t.L @ theta, rtol=0.0, atol=1e-13)
        out = np.empty(g.n)
        assert laplacian_apply(t, theta, out) is out
        np.testing.assert_allclose(out, t.L @ theta, rtol=0.0, atol=1e-13)


def test_runs_and_residuals_leave_the_dense_incidence_unbuilt(rng):
    for g in (random_graph(rng, 6), grid_graph(rng, 16)):
        p = random_problem(rng, graph=g)
        t = p.transform
        s = random_state(rng, p)
        eta = to_edge_coords(t, s.primal)
        integrate(NETWORKED, p, s, h=1e-3, t_end=0.05)
        integrate(EDGE_PD, p, PrimalDualState(eta, s.lambda_lo, s.lambda_hi), h=1e-3, t_end=0.05)
        sol = solve(p)
        predict(p)
        injections(p, sol.theta)
        kkt_residual_nodal(p, sol.theta, sol.lambda_lo, sol.lambda_hi)
        kkt_residual_edge(p, to_edge_coords(t, sol.theta), sol.lambda_lo, sol.lambda_hi)
        assert "B" not in t.__dict__
