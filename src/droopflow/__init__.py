"""Constrained network flow: problems, oracle, projected dynamics.

The package models a network of droop-controlled injection sources with
box power limits. It provides the optimization problem the limiting
controller solves implicitly, an independent QP oracle for it, the
projected primal-dual dynamics in nodal and edge coordinates, the
closed-form synchronous-frequency prediction, and a scenario-driven
simulation CLI.
"""

from .analysis import (
    EdgeSplit,
    FrequencyPrediction,
    edge_split,
    predict,
)
from .dynamics import (
    DROOP,
    EDGE_PD,
    NETWORKED,
    IntegrationError,
    PrimalDualState,
    SyncMetrics,
    System,
    Trajectory,
    droop_rhs,
    edge_pd_rhs,
    integrate,
    networked_rhs,
    rhs,
    sync_metrics,
    zero_state,
)
from .graph import (
    EdgeTransform,
    NetworkGraph,
    build_transform,
    laplacian_apply,
    project_off_consensus,
    to_edge_coords,
)
from .oracle import (
    InjectionSolution,
    OracleSolution,
    recover_theta,
    solve,
    solve_injections,
)
from .problem import (
    DEFAULT_ACTIVE_TOL,
    ActiveSets,
    FlowProblem,
    KKTPoint,
    ValidationReport,
    active_sets,
    injections,
    kkt_residual_edge,
    kkt_residual_nodal,
    validate,
    violation,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .verify import SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "ActiveSets",
    "DEFAULT_ACTIVE_TOL",
    "DROOP",
    "EDGE_PD",
    "EdgeSplit",
    "EdgeTransform",
    "FlowProblem",
    "FrequencyPrediction",
    "InjectionSolution",
    "IntegrationError",
    "KKTPoint",
    "NETWORKED",
    "NetworkGraph",
    "OracleSolution",
    "PrimalDualState",
    "Scenario",
    "ScenarioError",
    "SuiteReport",
    "SyncMetrics",
    "System",
    "Trajectory",
    "ValidationReport",
    "active_sets",
    "build_transform",
    "droop_rhs",
    "edge_pd_rhs",
    "edge_split",
    "injections",
    "integrate",
    "kkt_residual_edge",
    "kkt_residual_nodal",
    "laplacian_apply",
    "load_scenario",
    "networked_rhs",
    "predict",
    "project_off_consensus",
    "recover_theta",
    "rhs",
    "run_suite",
    "solve",
    "solve_injections",
    "sync_metrics",
    "to_edge_coords",
    "validate",
    "violation",
    "zero_state",
]
