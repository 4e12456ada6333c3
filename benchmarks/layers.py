"""Span recorder and per-layer metrics for the traced benchmark runs.

``Tracer`` replaces public droopflow functions at the module attribute
each caller looks up (``droopflow.verify.integrate``,
``droopflow.oracle.solve``, ...), records one span per call in memory
(name, start, end, parent) and puts every original back when the
``with`` block ends. A span's self time is its duration minus the
durations of its direct children, so the self times of all spans in one
rep add up to the rep's wall time.

The layers are the package's modules; a span name is
``<module>.<function>``. Spans the benchmark opens itself are named
``bench.*`` and their self time is reported as ``trace.other_s``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from dataclasses import dataclass, field

import droopflow
from droopflow import cli, dynamics, instances, oracle, problem, scenario, verify

LAYERS = (
    "dynamics",
    "verify",
    "oracle",
    "analysis",
    "problem",
    "graph",
    "instances",
    "scenario",
    "cli",
)

# Battery details copied into ``verify.<battery>.<detail>``, with units.
BATTERY_DETAILS = {
    "oracle_kkt": {"worst_residual": "pu"},
    "dynamics_convergence": {
        "worst_residual": "pu",
        "worst_violation": "pu",
        "worst_spread": "pu",
        "worst_omega_err": "pu",
        "worst_settle_s": "s",
    },
    "coinciding_fields": {"worst_gap": "pu", "min_ratio": "ratio", "max_ratio": "ratio"},
    "edge_kernel_conservation": {"worst_drift": "pu"},
    "radial_uniqueness": {"worst_distance": "pu"},
    "mu_lambda_equivalence": {"worst_deviation": "pu"},
    "shift_invariance": {"worst_deviation": "pu"},
}

# Every per-layer metric a traced run reports, with its unit. Layers a
# workload does not reach report 0.
PER_LAYER = {
    "dynamics.integrate_s": "s",
    "dynamics.integrate_calls": "count",
    "dynamics.steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.samples": "count",
    "dynamics.rhs_us": "us",
    "dynamics.sync_metrics_s": "s",
    "verify.settle_s": "s",
    "verify.settle_calls": "count",
    "verify.settle_polls": "count",
    "verify.settled_at_sum_s": "s",
    **{f"verify.{b}_s": "s" for b in BATTERY_DETAILS},
    **{
        f"verify.{b}.{d}": unit
        for b, details in BATTERY_DETAILS.items()
        for d, unit in details.items()
    },
    "oracle.solve_s": "s",
    "oracle.solve_calls": "count",
    "oracle.recover_theta_s": "s",
    "analysis.predict_s": "s",
    "analysis.predict_calls": "count",
    "analysis.edge_split_s": "s",
    "problem.kkt_nodal_s": "s",
    "problem.kkt_nodal_calls": "count",
    "problem.kkt_edge_s": "s",
    "graph.build_transform_s": "s",
    "graph.build_transform_calls": "count",
    "graph.to_edge_coords_s": "s",
    "instances.generate_s": "s",
    "scenario.load_s": "s",
    "cli.run_self_s": "s",
    "cli.bytes_written": "B",
    "cli.rows_written": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Span | None
    outer: bool  # no ancestor belongs to the same layer
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder that patches module attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        layer = name.split(".", 1)[0]
        outer = all(s.layer != layer for s in self._stack)
        span = Span(name, time.perf_counter(), parent, outer)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, fn, name: str, on_return=None):
        """Traced version of ``fn``; ``on_return`` may add to the span's info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_return is not None:
                on_return(span, result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_return))

    def __enter__(self) -> Tracer:
        _instrument(self)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for s in self.spans if s.layer == layer)

    def layer_total_s(self, layer: str) -> float:
        return sum(s.duration for s in self.spans if s.layer == layer and s.outer)


_INTEGRATE_SIGNATURE = inspect.signature(dynamics.integrate)


def _record_trajectory(span: Span, traj, args, kwargs) -> None:
    # Steps are counted from outside, from the sample times and the step
    # the caller asked for, not from any counter inside the integrator.
    bound = _INTEGRATE_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    h = bound.arguments["h"]
    span.info["steps"] = round((float(traj.times[-1]) - float(traj.times[0])) / h)
    span.info["samples"] = traj.n_samples
    system = bound.arguments["system"]
    span.info["rhs_case"] = (system.coords, bound.arguments["p"], bound.arguments["s0"])


def _record_settle(span: Span, result, args, kwargs) -> None:
    span.info["settled_at"] = float(result.settled_at)


def _instrument(t: Tracer) -> None:
    """Patch every lookup site the workloads reach droopflow through."""
    for owner in (verify, cli, dynamics):
        t.patch(owner, "integrate", "dynamics.integrate", _record_trajectory)
    for owner in (verify, cli):
        t.patch(owner, "sync_metrics", "dynamics.sync_metrics")
    t.patch(verify, "settle_networked", "verify.settle_networked", _record_settle)
    t.patch(verify, "run_suite", "verify.run_suite")
    # oracle.solve is reached as an attribute of the oracle module by
    # analysis, instances, cli and the benchmark; verify binds it as a
    # default argument, so the runner passes oracle.solve explicitly.
    t.patch(oracle, "solve", "oracle.solve")
    t.patch(oracle, "recover_theta", "oracle.recover_theta")
    for owner in (verify, cli, droopflow.analysis):
        t.patch(owner, "predict", "analysis.predict")
    t.patch(verify, "edge_split", "analysis.edge_split")
    for owner in (verify, cli, problem):
        t.patch(owner, "kkt_residual_nodal", "problem.kkt_residual_nodal")
    t.patch(problem, "kkt_residual_edge", "problem.kkt_residual_edge")
    t.patch(problem, "build_transform", "graph.build_transform")
    for owner in (verify, droopflow.graph):
        t.patch(owner, "to_edge_coords", "graph.to_edge_coords")
    for fn in ("random_problem", "well_separated_problem", "random_state", "random_cyclic_graph"):
        t.patch(instances, fn, f"instances.{fn}")
    for owner in (cli, scenario):
        t.patch(owner, "load_scenario", "scenario.load_scenario")
    t.patch(scenario.Scenario, "segment_problem", "scenario.segment_problem")
    t.patch(cli, "main", "cli.main")
    t.patch(cli, "run", "cli.run")


def rhs_us(tracer: Tracer) -> float:
    """Microbenchmark of the right-hand side on the rep's own problems.

    Times ``networked_rhs`` (nodal runs) or ``edge_pd_rhs`` (edge runs)
    once per distinct (problem, coordinates) pair seen by ``integrate``
    and weights each by the steps taken on it: the kernel's share of a
    step, as opposed to the record, clamp and guard work around it.
    """
    cases: dict[tuple[int, str], list] = {}
    for span in tracer.named("dynamics.integrate"):
        coords, p, s0 = span.info["rhs_case"]
        case = cases.setdefault((id(p), coords), [coords, p, s0, 0])
        case[3] += span.info["steps"]
    weighted = steps = 0.0
    for coords, p, s0, n_steps in cases.values():
        fn = dynamics.edge_pd_rhs if coords == "edge" else dynamics.networked_rhs
        weighted += n_steps * _time_call_us(fn, p, s0)
        steps += n_steps
    return weighted / steps if steps else 0.0


def _time_call_us(fn, *args, min_calls: int = 20, min_s: float = 0.005) -> float:
    best = float("inf")
    for _ in range(3):
        calls = 0
        start = time.perf_counter()
        while calls < min_calls or time.perf_counter() - start < min_s:
            fn(*args)
            calls += 1
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def layer_metrics(tracer: Tracer, details: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers of one traced rep, from its spans and the details
    the workload returned (battery results, artifact sizes). The rhs
    microbenchmark, the overhead ratio and the fail ratio span several
    reps and are added by the runner."""
    t = tracer
    integrate = t.named("dynamics.integrate")
    steps = sum(s.info["steps"] for s in integrate)
    polls = [s for s in t.named("problem.kkt_residual_nodal")
             if s.parent is not None and s.parent.name == "dynamics.integrate"]
    roots = [s for s in t.spans if s.parent is None]
    m = {
        "dynamics.integrate_s": t.total_s("dynamics.integrate"),
        "dynamics.integrate_calls": len(integrate),
        "dynamics.steps": steps,
        "dynamics.us_per_step": t.self_s("dynamics.integrate") / steps * 1e6 if steps else 0.0,
        "dynamics.samples": sum(s.info["samples"] for s in integrate),
        "dynamics.sync_metrics_s": t.total_s("dynamics.sync_metrics"),
        "verify.settle_s": t.total_s("verify.settle_networked"),
        "verify.settle_calls": len(t.named("verify.settle_networked")),
        "verify.settle_polls": len(polls),
        "verify.settled_at_sum_s": sum(
            s.info["settled_at"] for s in t.named("verify.settle_networked")
        ),
        "oracle.solve_s": t.total_s("oracle.solve"),
        "oracle.solve_calls": len(t.named("oracle.solve")),
        "oracle.recover_theta_s": t.total_s("oracle.recover_theta"),
        "analysis.predict_s": t.self_s("analysis.predict"),
        "analysis.predict_calls": len(t.named("analysis.predict")),
        "analysis.edge_split_s": t.total_s("analysis.edge_split"),
        "problem.kkt_nodal_s": t.total_s("problem.kkt_residual_nodal"),
        "problem.kkt_nodal_calls": len(t.named("problem.kkt_residual_nodal")),
        "problem.kkt_edge_s": t.total_s("problem.kkt_residual_edge"),
        "graph.build_transform_s": t.total_s("graph.build_transform"),
        "graph.build_transform_calls": len(t.named("graph.build_transform")),
        "graph.to_edge_coords_s": t.total_s("graph.to_edge_coords"),
        "instances.generate_s": t.layer_total_s("instances"),
        "scenario.load_s": t.total_s("scenario.load_scenario"),
        "cli.run_self_s": t.self_s("cli.run"),
        "trace.wall_s": sum(s.duration for s in roots),
        "trace.other_s": t.layer_self_s("bench"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.layer_self_s(layer)
    for name in PER_LAYER:
        m.setdefault(name, details.get(name, 0.0))
    return m


def median_metrics(reps: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in reps) for k in reps[0]}
