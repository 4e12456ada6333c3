"""Graph algebra for network flow problems.

Edge endpoints and weights, the Laplacian, and the edge-coordinate
transform ``eta = V B^T theta`` that maps nodal variables to weighted
differences across edges, evaluated in O(e) from the edge endpoints.
The nodal product ``L theta`` is taken densely on small networks and
from the edge endpoints on large sparse ones (:func:`laplacian_apply`).
Everything downstream (problem definitions, dynamics, analysis) builds
on these objects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Relative cutoff below which singular/eigen values count as zero.
RANK_RTOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Simple connected undirected graph with positive edge weights.

    Parameters
    ----------
    n : int
        Number of nodes (>= 2), indexed 0..n-1.
    edges : sequence of (int, int)
        Node-index pairs. Pairs are normalized so that the tail is the
        lower index; this fixes the orientation of every edge and makes
        incidence-based outputs deterministic.
    weights : array_like
        Finite, strictly positive weight per edge (per-unit susceptance in the
        power application).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"graph needs at least 2 nodes, got n={self.n}")
        edges = []
        for i, j in self.edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            edges.append((i, j) if i < j else (j, i))
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges are not allowed")
        weights = _readonly(np.atleast_1d(np.asarray(self.weights, dtype=float)))
        if weights.shape != (len(edges),):
            raise ValueError(
                f"expected {len(edges)} weights, got shape {weights.shape}"
            )
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0))).tolist()
        if bad:
            listed = ", ".join(f"edge {k} {edges[k]} has weight {weights[k]:g}" for k in bad)
            raise ValueError(f"edge weights must be finite and positive: {listed}")
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "weights", weights)
        if not _connected(self.n, self.edges):
            raise ValueError("graph is not connected")

    @property
    def e(self) -> int:
        """Number of edges."""
        return len(self.edges)


def _connected(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
    # breadth-first search from node 0
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return all(seen)


# Cost of one product L theta in microseconds, fit on an Intel Xeon
# core (numpy 2.4, one BLAS thread) from n = 4 to 1024: the dense
# matrix-vector product costs about DENSE_US + DENSE_US_PER_ENTRY * n^2,
# the index form about INDEX_US + INDEX_US_PER_EDGE * e. The index form's
# fixed cost is four numpy calls to the dense form's one, so below about
# n = 130 the dense product wins for any e.
DENSE_US, DENSE_US_PER_ENTRY = 0.9, 1.2e-4
INDEX_US, INDEX_US_PER_EDGE = 2.9, 7.0e-3


@dataclass(frozen=True, eq=False)
class EdgeTransform:
    """Edge index form of the incidence factorization L = B W B^T.

    Products with the incidence B and the weight root V = diag(sqrt(w))
    are evaluated from the endpoints of each edge, so they cost O(e):
    ``V B^T x`` is ``sqrt_w * (x[tail] - x[head])`` and ``B y`` scatters
    ``+y`` onto the tails and ``-y`` onto the heads.

    Attributes
    ----------
    tail, head : ndarray of intp, shape (e,)
        Lower and higher endpoint of each edge, in ``g.edges`` order.
    w : ndarray, shape (e,)
        Edge weights, the diagonal of W.
    sqrt_w : ndarray, shape (e,)
        Square roots of the edge weights, the diagonal of V.
    L : ndarray, shape (n, n)
        Dense Laplacian L = B W B^T, for solves; products with it go
        through :func:`laplacian_apply`.
    index_form : bool
        Whether :func:`laplacian_apply` takes L theta from the edge
        endpoints instead of the dense L, fixed by n and e alone.
    """

    tail: np.ndarray
    head: np.ndarray
    w: np.ndarray
    sqrt_w: np.ndarray
    L: np.ndarray
    index_form: bool

    @cached_property
    def B(self) -> np.ndarray:
        """Dense oriented incidence, shape (n, e): +1 at the tail and -1
        at the head of each edge. Built once, on first access."""
        cols = np.arange(len(self.tail))
        B = np.zeros((self.L.shape[0], len(self.tail)))
        B[self.tail, cols] = 1.0
        B[self.head, cols] = -1.0
        B.setflags(write=False)
        return B


def build_transform(g: NetworkGraph) -> EdgeTransform:
    """Build the edge endpoints, weights, and Laplacian of ``g``.

    Deterministic for a given edge ordering: edge k is g.edges[k], with
    its tail at the lower index. L is assembled from the endpoints:
    -w_k at (tail, head) and (head, tail), and on the diagonal each
    node's weighted degree, summed in edge order. A dense product
    (B W) B^T accumulates in that same order on small graphs, so their
    nodal trajectories keep its rounding. ``index_form`` picks the
    cheaper product with L by the cost model above.
    """
    n = g.n
    ends = np.array(g.edges, dtype=np.intp).T.copy()
    ends.setflags(write=False)
    tail, head = ends
    w = g.weights
    L = np.zeros((n, n))
    L[tail, head] = -w  # NetworkGraph rejects duplicate edges
    L[head, tail] = -w
    np.fill_diagonal(L, np.bincount(ends.T.ravel(), np.repeat(w, 2), n))
    index_us = INDEX_US + INDEX_US_PER_EDGE * g.e
    dense_us = DENSE_US + DENSE_US_PER_ENTRY * n * n
    return EdgeTransform(
        tail=tail,
        head=head,
        w=w,
        sqrt_w=_readonly(np.sqrt(w)),
        L=_readonly(L),
        index_form=index_us < dense_us,
    )


def laplacian_apply(
    t: EdgeTransform, theta: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Network part of the injections, L theta, into ``out`` if given.

    Dense, or, where ``t.index_form`` is set, in O(e) from the edges:
    ``f = w * (theta[tail] - theta[head])`` scattered with ``+f`` onto
    the tails and ``-f`` onto the heads. The two agree to rounding.
    """
    if not t.index_form:
        return np.matmul(t.L, theta, out=out)
    n = len(theta)
    f = t.w * (theta[t.tail] - theta[t.head])
    return np.subtract(np.bincount(t.tail, f, n), np.bincount(t.head, f, n), out=out)


def to_edge_coords(t: EdgeTransform, theta: np.ndarray) -> np.ndarray:
    """Map nodal angles to weighted edge differences eta = V B^T theta."""
    theta = np.asarray(theta, dtype=float)
    n = t.L.shape[0]
    if theta.shape != (n,):
        raise ValueError(f"expected theta of shape ({n},), got {theta.shape}")
    return t.sqrt_w * (theta[t.tail] - theta[t.head])


def project_off_consensus(v: np.ndarray) -> np.ndarray:
    """Remove the consensus component: v - mean(v) * 1.

    The result is orthogonal to the all-ones vector, so its norm
    measures membership of span(1) = ker(B^T).
    """
    v = np.asarray(v, dtype=float)
    return v - v.mean()
