import numpy as np
import pytest

from droopflow import FlowProblem, NetworkGraph


def make_problem(graph, p_star, p_load, p_lo, p_hi, m, k_p=None, k_i=None):
    n = graph.n
    ones = np.ones(n)
    return FlowProblem(
        graph,
        p_star=np.asarray(p_star, dtype=float),
        p_load=np.asarray(p_load, dtype=float),
        p_lo=np.asarray(p_lo, dtype=float),
        p_hi=np.asarray(p_hi, dtype=float),
        m=np.asarray(m, dtype=float),
        k_p=ones if k_p is None else np.asarray(k_p, dtype=float),
        k_i=ones if k_i is None else np.asarray(k_i, dtype=float),
    )


def two_node_graph(w=1.0):
    return NetworkGraph(2, [(0, 1)], np.array([w]))


def example_e():
    """Two nodes, node 0 clipped at its upper limit, nu = -0.5."""
    return make_problem(
        two_node_graph(),
        p_star=(0.1, 0.0),
        p_load=(0.5, 0.0),
        p_lo=(-1.0, -1.0),
        p_hi=(0.25, 1.0),
        m=(1.0, 2.0),
    )


def example_e_mirror():
    """Sign-flipped twin of example_e: node 0 at its lower limit, nu = +0.5."""
    return make_problem(
        two_node_graph(),
        p_star=(-0.1, 0.0),
        p_load=(-0.5, 0.0),
        p_lo=(-0.25, -1.0),
        p_hi=(1.0, 1.0),
        m=(1.0, 2.0),
    )


def balanced_two_node():
    return make_problem(
        two_node_graph(),
        p_star=(0.0, 0.0),
        p_load=(0.5, -0.5),
        p_lo=(-1.0, -1.0),
        p_hi=(1.0, 1.0),
        m=(1.0, 1.0),
    )


def triangle_graph(weights=(1.0, 1.0, 1.0)):
    return NetworkGraph(3, [(0, 1), (0, 2), (1, 2)], np.asarray(weights, dtype=float))


def grid_graph(rng, side):
    """side x side grid, n = side^2 and e = 2 side (side - 1); a 16 x 16
    grid or larger takes the index form of L theta."""
    idx = np.arange(side * side).reshape(side, side)
    edges = [(int(a), int(b)) for a, b in zip(idx[:, :-1].ravel(), idx[:, 1:].ravel())]
    edges += [(int(a), int(b)) for a, b in zip(idx[:-1].ravel(), idx[1:].ravel())]
    return NetworkGraph(side * side, edges, rng.uniform(0.5, 3.0, len(edges)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
