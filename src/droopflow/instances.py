"""Seeded random instance generators for tests and the verify suite.

All generators draw from a caller-supplied ``numpy.random.Generator``,
so a battery is reproducible from (trials, seed) alone. Sizes default
to n in [2, 8]: large enough to exercise cycles and saturation
patterns, small enough that thousands of oracle solves stay cheap.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from .dynamics import PrimalDualState
from .graph import NetworkGraph
from .problem import FlowProblem

# Chance that random_graph adds each non-tree edge.
EXTRA_EDGE_PROB = 0.3
# well_separated_problem rejects a draw whose unclipped optimum comes
# within this distance (pu) of a limit, and gives up after MAX_TRIES.
ACTIVE_SET_MARGIN = 0.02
MAX_TRIES = 200


def random_tree(rng: np.random.Generator, n: int) -> NetworkGraph:
    """Uniformly shuffled random spanning tree on n nodes."""
    order = rng.permutation(n)
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((int(order[i]), int(order[j])))
    weights = rng.uniform(0.5, 3.0, n - 1)
    return NetworkGraph(n, edges, weights)


def random_graph(rng: np.random.Generator, n: int) -> NetworkGraph:
    """Random connected graph: a spanning tree plus Bernoulli chords."""
    tree = random_tree(rng, n)
    edges = list(tree.edges)
    present = set(edges)
    weights = list(tree.weights)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.random() < EXTRA_EDGE_PROB:
                edges.append((i, j))
                weights.append(float(rng.uniform(0.5, 3.0)))
    return NetworkGraph(n, edges, weights)


def random_cyclic_graph(rng: np.random.Generator, n: int) -> NetworkGraph:
    """Random connected graph guaranteed to contain at least one cycle."""
    if n < 3:
        raise ValueError("a simple cyclic graph needs n >= 3")
    while True:
        g = random_graph(rng, n)
        if g.e > n - 1:
            return g


def random_problem(
    rng: np.random.Generator,
    n: int | None = None,
    graph: NetworkGraph | None = None,
    balanced: bool = False,
) -> FlowProblem:
    """Random feasible instance satisfying both standing assumptions.

    Limits straddle zero, setpoints sit strictly inside them, and the
    total load lands strictly between the limit sums. With
    ``balanced=True`` the load vector is adjusted so its sum equals the
    setpoint sum exactly in floating point (retrying on the rare draws
    where roundoff refuses to cancel).
    """
    if graph is None:
        if n is None:
            n = int(rng.integers(2, 9))
        graph = random_graph(rng, n)
    n = graph.n
    p_lo = -rng.uniform(0.5, 1.5, n)
    p_hi = rng.uniform(0.5, 1.5, n)
    width = p_hi - p_lo
    p_star = p_lo + rng.uniform(0.15, 0.85, n) * width
    m = rng.uniform(0.5, 1.5, n)
    k_p = rng.uniform(0.25, 1.0, n)
    k_i = rng.uniform(0.5, 2.0, n)

    for _ in range(100):
        total = float(np.sum(p_lo)) + rng.uniform(0.15, 0.85) * float(np.sum(width))
        x = rng.normal(0.0, 0.5, n)
        p_load = x - x.mean() + total / n
        if balanced:
            p_load = _balance_exactly(p_load, p_star)
            if p_load is None:
                continue
        return FlowProblem(graph, p_star, p_load, p_lo, p_hi, m, k_p, k_i)
    raise RuntimeError("failed to draw an exactly balanced load vector")


def _balance_exactly(p_load: np.ndarray, p_star: np.ndarray) -> np.ndarray | None:
    # Shift so the sums match, then push the last ulps of mismatch into
    # one entry until the computed sums are equal bit for bit.
    target = float(np.sum(p_star))
    p_load = p_load + (target - float(np.sum(p_load))) / len(p_load)
    for _ in range(8):
        d = float(np.sum(p_load)) - target
        if d == 0.0:
            return p_load
        p_load = p_load.copy()
        p_load[0] -= d
    return None


def well_separated_problem(rng: np.random.Generator, tree: bool = False) -> FlowProblem:
    """Random instance whose optimal active set is unambiguous.

    Rejects draws where any node's unclipped value p*_i - nu / m_i comes
    within ``ACTIVE_SET_MARGIN`` of either limit: a constraint active or
    inactive by a hair makes the integral state creep for a long time,
    which is a property of the instance, not of the dynamics under test.
    With ``tree=True`` the graph is a random spanning tree.
    """
    for _ in range(MAX_TRIES):
        graph = random_tree(rng, int(rng.integers(2, 9))) if tree else None
        p = random_problem(rng, graph=graph)
        sol = oracle.solve_injections(p)
        unclipped = p.p_star - sol.nu / p.m
        gap = np.minimum(np.abs(unclipped - p.p_lo), np.abs(unclipped - p.p_hi))
        if np.min(gap) >= ACTIVE_SET_MARGIN:
            return p
    raise RuntimeError(
        f"no instance with active-set margin {ACTIVE_SET_MARGIN} in {MAX_TRIES} tries"
    )


def random_state(
    rng: np.random.Generator,
    p: FlowProblem,
    coords: str = "nodal",
    scale: float = 0.3,
) -> PrimalDualState:
    """Random warm start: Gaussian primal, folded-Gaussian duals."""
    dim = p.n if coords == "nodal" else p.graph.e
    return PrimalDualState(
        rng.normal(0.0, scale, dim),
        np.abs(rng.normal(0.0, scale, p.n)),
        np.abs(rng.normal(0.0, scale, p.n)),
    )
