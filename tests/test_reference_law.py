"""The controller law typed from the paper, one node at a time.

The reference below is plain scalar Python: droop plus proportional-
integral limiting at each converter, with the integrator states either
scaled (lambda, dual gain sqrt(k_I)) or unscaled (mu = sqrt(k_I) lambda,
dual gain k_I). It shares no code with ``droopflow.dynamics``, so a
defect in the package's rate function cannot hide in both. The states
drawn here sit beyond each limit and put duals at exactly zero, where
the limiting terms and the dual projection are live; at the optimum
those terms vanish and end-state checks cannot see them.
"""

import math

import numpy as np
import pytest

from droopflow import (
    DROOP,
    NETWORKED,
    FlowProblem,
    PrimalDualState,
    droop_rhs,
    edge_pd_rhs,
    integrate,
    networked_rhs,
)
from droopflow.instances import random_problem

from conftest import grid_graph

# Rounding level for O(1) quantities summed over a handful of neighbours.
RTOL = 1e-12
ATOL = 1e-12


def _injections(p, theta):
    # P_i = P_L,i + sum over lines (i, j) of w_ij (theta_i - theta_j)
    inj = [float(x) for x in p.p_load]
    for (a, b), w in zip(p.graph.edges, p.graph.weights):
        flow = float(w) * (float(theta[a]) - float(theta[b]))
        inj[a] += flow
        inj[b] -= flow
    return inj


def _projected(x, v):
    # rate of a state confined to [0, inf): free inside, pushed back at 0
    return v if x > 0 else max(v, 0.0)


def reference_law(p, theta, dual_lo, dual_hi, dual_kind):
    """Per-node rates (omega, d dual_lo, d dual_hi) and injections.

    omega_i = m_i (P*_i - P_i)
              - k_p,i max(P_i - P_hi,i, 0) + k_p,i max(P_lo,i - P_i, 0)
              - s_i (dual_hi,i - dual_lo,i)
    d dual_lo,i = proj(g_i (P_lo,i - P_i)),  d dual_hi,i = proj(g_i (P_i - P_hi,i))

    with (s_i, g_i) = (sqrt(k_I,i), sqrt(k_I,i)) for lambda duals and
    (1, k_I,i) for mu duals.
    """
    inj = _injections(p, theta)
    omega, d_lo, d_hi = [], [], []
    for i in range(p.n):
        P = inj[i]
        m, k_p, k_i = float(p.m[i]), float(p.k_p[i]), float(p.k_i[i])
        lo, hi, star = float(p.p_lo[i]), float(p.p_hi[i]), float(p.p_star[i])
        if dual_kind == "lambda":
            scale = gain = math.sqrt(k_i)
        else:
            scale, gain = 1.0, k_i
        w = (
            m * (star - P)
            - k_p * max(P - hi, 0.0)
            + k_p * max(lo - P, 0.0)
            - scale * (float(dual_hi[i]) - float(dual_lo[i]))
        )
        omega.append(w)
        d_lo.append(_projected(float(dual_lo[i]), gain * (lo - P)))
        d_hi.append(_projected(float(dual_hi[i]), gain * (P - hi)))
    return np.array(omega), np.array(d_lo), np.array(d_hi), np.array(inj)


def _edge_coords(p, theta):
    # eta_k = sqrt(w_k) (theta_tail - theta_head), tail = lower index
    return np.array(
        [math.sqrt(float(w)) * (float(theta[a]) - float(theta[b]))
         for (a, b), w in zip(p.graph.edges, p.graph.weights)]
    )


def _edge_rate(p, omega):
    return np.array(
        [math.sqrt(float(w)) * (omega[a] - omega[b])
         for (a, b), w in zip(p.graph.edges, p.graph.weights)]
    )


def _live_state(rng, p):
    """(p, theta, dual_lo, dual_hi) with limits and projections live.

    A wide theta drives injections past both limits; about a third of
    the duals sit at exactly zero.
    """
    theta = rng.normal(0.0, 0.6, p.n)
    duals = []
    for _ in range(2):
        d = np.abs(rng.normal(0.0, 0.5, p.n))
        d[rng.random(p.n) < 0.35] = 0.0
        duals.append(d)
    return p, theta, duals[0], duals[1]


def _grid_problem(rng):
    # large enough that the kernel takes L theta in index form
    p = random_problem(rng, graph=grid_graph(rng, 16))
    assert p.transform.index_form
    return p


@pytest.fixture(scope="module")
def live_states():
    rng = np.random.default_rng(20241108)
    cases = [_live_state(rng, random_problem(rng)) for _ in range(200)]
    cases.append(_live_state(rng, _grid_problem(rng)))
    # the draw must reach every branch of the law, or the comparison
    # below says nothing about it
    above = below = inside = zero_pushed = zero_held = 0
    for p, theta, lo, hi in cases:
        inj = np.array(_injections(p, theta))
        above += int(np.sum(inj > p.p_hi))
        below += int(np.sum(inj < p.p_lo))
        inside += int(np.sum((inj > p.p_lo) & (inj < p.p_hi)))
        zero_pushed += int(np.sum((hi == 0) & (inj > p.p_hi)))
        zero_held += int(np.sum((hi == 0) & (inj < p.p_hi)))
    assert min(above, below, inside, zero_pushed, zero_held) > 20
    return cases


@pytest.mark.parametrize("dual_kind", ["lambda", "mu"])
def test_nodal_rates_match_the_reference_law(live_states, dual_kind):
    rhs = networked_rhs if dual_kind == "lambda" else droop_rhs
    for p, theta, lo, hi in live_states:
        omega, d_lo, d_hi, inj = reference_law(p, theta, lo, hi, dual_kind)
        dtheta, dlo, dhi, w, P = rhs(p, PrimalDualState(theta, lo, hi))
        for got, want in ((dtheta, omega), (w, omega), (dlo, d_lo), (dhi, d_hi), (P, inj)):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def test_edge_rates_match_the_reference_law(live_states):
    for p, theta, lo, hi in live_states:
        omega, d_lo, d_hi, inj = reference_law(p, theta, lo, hi, "lambda")
        eta = _edge_coords(p, theta)
        deta, dlo, dhi, w, P = edge_pd_rhs(p, PrimalDualState(eta, lo, hi))
        np.testing.assert_allclose(deta, _edge_rate(p, omega), rtol=RTOL, atol=ATOL)
        for got, want in ((w, omega), (dlo, d_lo), (dhi, d_hi), (P, inj)):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def _doubled(p):
    return FlowProblem(
        p.graph, 2 * p.p_star, 2 * p.p_load, 2 * p.p_lo, 2 * p.p_hi, p.m, p.k_p, p.k_i
    )


@pytest.mark.parametrize("system", [NETWORKED, DROOP], ids=lambda s: s.name)
def test_doubling_every_power_doubles_the_trajectory_exactly(system):
    # The law is positively homogeneous in (P*, P_L, limits, state), and
    # multiplying by 2 is exact in binary floating point, so any additive
    # offset or absolute threshold in the loop shows as a mismatch.
    rng = np.random.default_rng(77)
    for k in range(11):
        p = random_problem(rng) if k < 10 else _grid_problem(rng)
        s = PrimalDualState(
            rng.normal(0.0, 0.6, p.n),
            np.abs(rng.normal(0.0, 0.5, p.n)) * (rng.random(p.n) < 0.6),
            np.abs(rng.normal(0.0, 0.5, p.n)) * (rng.random(p.n) < 0.6),
        )
        s2 = PrimalDualState(2 * s.primal, 2 * s.lambda_lo, 2 * s.lambda_hi)
        a = integrate(system, p, s, h=1e-3, t_end=2.0, sample_every=50)
        b = integrate(system, _doubled(p), s2, h=1e-3, t_end=2.0, sample_every=50)
        assert np.array_equal(a.times, b.times)
        for name in ("primal", "lambda_lo", "lambda_hi", "omega", "injections"):
            assert np.array_equal(2 * getattr(a, name), getattr(b, name)), name
