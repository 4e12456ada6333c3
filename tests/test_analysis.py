import numpy as np
import pytest

from droopflow import edge_split, oracle, predict, solve
from droopflow.instances import (
    random_cyclic_graph,
    random_problem,
    random_tree,
)

from conftest import (
    balanced_two_node,
    example_e,
    example_e_mirror,
    make_problem,
    triangle_graph,
)


def test_predict_balanced_case_is_exact():
    pred = predict(balanced_two_node())
    assert pred.case == "balanced"
    assert pred.omega_s == 0.0
    assert pred.active_lower == frozenset() and pred.active_upper == frozenset()


def test_predict_clipped_cases():
    over = predict(example_e())
    assert over.case == "above_dispatch"
    assert over.omega_s == pytest.approx(-0.5, abs=1e-9)
    assert over.active_upper == frozenset({0})
    assert over.active_lower == frozenset()

    under = predict(example_e_mirror())
    assert under.case == "below_dispatch"
    assert under.omega_s == pytest.approx(0.5, abs=1e-9)
    assert under.active_lower == frozenset({0})
    assert under.active_upper == frozenset()


def test_predict_recovers_no_angles(rng, monkeypatch):
    expected = [(p, predict(p)) for p in (random_problem(rng) for _ in range(20))]

    def refuse(*args):
        raise AssertionError("recover_theta called")

    monkeypatch.setattr(oracle, "recover_theta", refuse)
    with pytest.raises(AssertionError, match="recover_theta called"):
        solve(expected[0][0])
    for p, want in expected:
        assert predict(p) == want


def test_prediction_matches_oracle_multiplier(rng):
    for k in range(40):
        p = random_problem(rng, balanced=(k % 4 == 0))
        pred = predict(p)
        assert abs(pred.omega_s - solve(p).nu) <= 1e-9


def test_sign_and_active_set_laws(rng):
    cases = set()
    for k in range(60):
        p = random_problem(rng, balanced=(k % 6 == 0))
        pred = predict(p)
        cases.add(pred.case)
        if pred.case == "balanced":
            assert pred.omega_s == 0.0
            assert not pred.active_lower and not pred.active_upper
        elif pred.case == "below_dispatch":
            assert pred.omega_s > 0
            assert not pred.active_upper  # raising frequency only unloads nodes
        else:
            assert pred.omega_s < 0
            assert not pred.active_lower
    assert cases == {"balanced", "below_dispatch", "above_dispatch"}


def test_prediction_independent_of_graph(rng):
    n = 6
    data = dict(
        p_star=rng.uniform(-0.3, 0.3, n),
        p_lo=-rng.uniform(0.8, 1.5, n),
        p_hi=rng.uniform(0.8, 1.5, n),
        m=rng.uniform(0.5, 1.5, n),
    )
    load = rng.uniform(-0.2, 0.6, n)
    a = predict(make_problem(random_tree(rng, n), p_load=load, **data))
    b = predict(make_problem(random_cyclic_graph(rng, n), p_load=load, **data))
    assert a.omega_s == b.omega_s  # bitwise: only node data enters
    assert a.case == b.case
    assert a.active_lower == b.active_lower
    assert a.active_upper == b.active_upper


def test_edge_split_triangle():
    p = make_problem(
        triangle_graph(),
        p_star=np.zeros(3),
        p_load=(0.1, -0.1, 0.0),
        p_lo=-np.ones(3),
        p_hi=np.ones(3),
        m=np.ones(3),
    )
    split = edge_split(p)
    assert np.allclose(split.eigenvalues, [3.0, 3.0, 0.0], atol=1e-12)
    assert split.gamma_plus.shape == (3, 2)
    assert split.gamma_zero.shape == (3, 1)
    # the single cycle direction, up to sign
    assert np.allclose(np.abs(split.gamma_zero.ravel()), 1 / np.sqrt(3), atol=1e-12)


def test_edge_split_tree_has_empty_kernel(rng):
    p = random_problem(rng, graph=random_tree(rng, 7))
    split = edge_split(p)
    assert split.gamma_zero.shape == (6, 0)
    assert np.all(split.eigenvalues > 0)


def test_edge_split_orthonormal_and_reconstructs(rng):
    for _ in range(5):
        p = random_problem(rng, graph=random_cyclic_graph(rng, 6))
        split = edge_split(p)
        g = np.hstack([split.gamma_plus, split.gamma_zero])
        e = p.graph.e
        assert g.shape == (e, e)
        assert np.allclose(g.T @ g, np.eye(e), atol=1e-12)
        t = p.transform
        v = t.sqrt_w
        hessian = v[:, None] * (t.B.T @ (p.m[:, None] * t.B)) * v
        rebuilt = g @ np.diag(split.eigenvalues) @ g.T
        assert np.linalg.norm(rebuilt - hessian) < 1e-10
        assert np.linalg.norm(hessian @ split.gamma_zero) < 1e-10
