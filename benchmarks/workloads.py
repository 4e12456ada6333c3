"""The benchmark's workloads: verify_suite, scenario_sim and large_mesh.

Each workload has ``setup(seed, small)``, which builds its inputs from
the seed alone, and ``run(inputs)``, whose timed phase reaches droopflow
only through public entry points, looked up as module attributes at
call time so that a traced run sees every call. ``run`` returns an
``Outcome``: the wall time of the timed phase, the correctness checks
attempted and failed, and details for the per-layer metrics. Every
tolerance comes from ``droopflow.verify``; none is restated here.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from droopflow import analysis, cli, dynamics, graph, oracle, problem, scenario, verify
from droopflow.dynamics import DEFAULT_STEP, EDGE_PD, NETWORKED, IntegrationError
from droopflow.verify import FIELD_GAP_TOL, ORACLE_RESIDUAL_TOL

from layers import BATTERY_DETAILS

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "src" / "droopflow" / "scenarios" / "nine_bus.scenario"
SCRATCH = ROOT / ".bench_run"


@dataclass
class Outcome:
    wall_s: float
    attempted: int = 0
    failed: int = 0
    details: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


class VerifySuite:
    """``run_suite(trials, seed)``, exactly as ``droopflow verify`` runs it.

    Why: the main verification traffic, all of it small instances
    (n in [2, 8]) where the per-step Euler kernel and batching across
    instances show; the oracle and graph layers do almost nothing here.
    Settle times differ from instance to instance, so the trial count
    sets the seed-to-seed spread of the wall time: over ten seeds its
    interquartile range was about 10% of the median at 8 trials and 4%
    at 12 (2-core AMD EPYC). Ten trials keep a whole run of this
    workload, a traced rep plus a timed one, near a minute.
    """

    name = "verify_suite"
    TRIALS = 10

    def setup(self, seed: int, small: bool) -> dict:
        return {"trials": 1 if small else self.TRIALS, "seed": seed}

    def run(self, inputs: dict, solve_fn=None) -> Outcome:
        # oracle.solve is looked up here, not bound at import, so a
        # traced rep hands run_suite the traced solver.
        solve_fn = oracle.solve if solve_fn is None else solve_fn
        trials = inputs["trials"]
        start = time.perf_counter()
        try:
            report = verify.run_suite(trials=trials, seed=inputs["seed"], solve_fn=solve_fn)
        except Exception:
            traceback.print_exc()
            out = Outcome(time.perf_counter() - start)
            out.attempted = out.failed = trials * len(BATTERY_DETAILS)
            return out
        out = Outcome(time.perf_counter() - start)
        for r in report.results:
            out.attempted += r.trials
            out.failed += len(r.failures)
            out.details[f"verify.{r.name}_s"] = r.duration_s
            for key, value in r.details.items():
                out.details[f"verify.{r.name}.{key}"] = value
        return out


class ScenarioSim:
    """``droopflow simulate`` on the bundled nine_bus scenario, unchanged.

    Why: one long sequential chain (240k steps in 6 segments at n=3,
    2,400 samples), which batching cannot help; the only workload that
    parses a scenario, samples densely, builds segment reports and
    writes CSV. The input is the shipped file, so the seed changes
    nothing.
    """

    name = "scenario_sim"

    def setup(self, seed: int, small: bool) -> dict:
        return {"scenario": scenario.load_scenario(SCENARIO)}

    def run(self, inputs: dict) -> Outcome:
        SCRATCH.mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(dir=SCRATCH))
        try:
            stdout = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                status = cli.main(["simulate", str(SCENARIO), "--out", str(out_dir)])
            out = Outcome(time.perf_counter() - start)
            self._check(out, status, out_dir, inputs["scenario"].n_segments)
        finally:
            shutil.rmtree(out_dir)
        return out

    @staticmethod
    def _check(out: Outcome, status: int, out_dir: Path, n_segments: int) -> None:
        out.check(status == 0)
        report = out_dir / f"{SCENARIO.stem}_report.txt"
        text = report.read_text() if report.exists() else ""
        lines = [line.strip() for line in text.splitlines()]
        reported = sum(line.startswith("segment ") for line in lines)
        out.check("DIVERGED" not in text and reported == n_segments)
        agreement = [line == "agreement: True" for line in lines if line.startswith("agreement:")]
        for k in range(n_segments):
            out.check(k < len(agreement) and agreement[k])
        files = sorted(out_dir.iterdir())
        out.details["cli.bytes_written"] = sum(f.stat().st_size for f in files)
        out.details["cli.rows_written"] = sum(
            f.read_text().count("\n") - 1 for f in files if f.suffix == ".csv"
        )


def mesh_graph(rng: np.random.Generator, side: int) -> graph.NetworkGraph:
    """side x side grid, n = side^2 and e = 2 side (side - 1), seeded weights.

    ``instances.random_graph`` is not used: its O(n^2) pair loop with
    chord probability 0.3 gives e ~ n^2 / 6 at n = 1000.
    """
    edges = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                edges.append((i, i + 1))
            if r + 1 < side:
                edges.append((i, i + side))
    return graph.NetworkGraph(side * side, edges, rng.uniform(0.5, 3.0, len(edges)))


def mesh_problem(rng: np.random.Generator, g: graph.NetworkGraph) -> problem.FlowProblem:
    """Converter parameters and loads drawn as ``instances.random_problem`` draws them."""
    n = g.n
    p_lo = -rng.uniform(0.5, 1.5, n)
    p_hi = rng.uniform(0.5, 1.5, n)
    width = p_hi - p_lo
    p_star = p_lo + rng.uniform(0.15, 0.85, n) * width
    m = rng.uniform(0.5, 1.5, n)
    k_p = rng.uniform(0.25, 1.0, n)
    k_i = rng.uniform(0.5, 2.0, n)
    total = float(np.sum(p_lo)) + rng.uniform(0.15, 0.85) * float(np.sum(width))
    x = rng.normal(0.0, 0.5, n)
    p_load = x - x.mean() + total / n
    return problem.FlowProblem(g, p_star, p_load, p_lo, p_hi, m, k_p, k_i)


class LargeMesh:
    """Oracle, prediction, matched nodal/edge runs and KKT residuals at n = 1024.

    Why: a 32 x 32 grid (e = 1984), the size the distributed-dispatch
    reading of droop control is about. Dense graph algebra dominates:
    the n x e incidence, e x e weight root and n x n Laplacian, and the
    pinv in the oracle's theta recovery. Per-call overhead matters
    little here.
    """

    name = "large_mesh"
    SIDE = 32
    STEPS = 1000
    SAMPLE_EVERY = 100

    def setup(self, seed: int, small: bool) -> dict:
        rng = np.random.default_rng(seed)
        p = mesh_problem(rng, mesh_graph(rng, 6 if small else self.SIDE))
        s0 = dynamics.PrimalDualState(
            rng.normal(0.0, 0.3, p.n),
            np.abs(rng.normal(0.0, 0.3, p.n)),
            np.abs(rng.normal(0.0, 0.3, p.n)),
        )
        s0_edge = dynamics.PrimalDualState(
            graph.to_edge_coords(p.transform, s0.primal), s0.lambda_lo, s0.lambda_hi
        )
        return {"problem": p, "s0": s0, "s0_edge": s0_edge}

    def run(self, inputs: dict) -> Outcome:
        p = inputs["problem"]
        t = p.transform
        start = time.perf_counter()
        sol = oracle.solve(p)
        try:
            analysis.predict(p)
            predicted = True
        except RuntimeError:
            predicted = False
        runs = {}
        for system, s0 in ((NETWORKED, inputs["s0"]), (EDGE_PD, inputs["s0_edge"])):
            try:
                runs[system.coords] = dynamics.integrate(
                    system,
                    p,
                    s0,
                    h=DEFAULT_STEP,
                    t_end=self.STEPS * DEFAULT_STEP,
                    sample_every=self.SAMPLE_EVERY,
                )
            except IntegrationError:
                pass
        gap = np.inf
        if len(runs) == 2:
            nodal, edge = runs["nodal"], runs["edge"]
            gap = max(
                float(np.linalg.norm(graph.to_edge_coords(t, nodal.primal[k]) - edge.primal[k]))
                for k in range(nodal.n_samples)
            )
        kkt_nodal = problem.kkt_residual_nodal(p, sol.theta, sol.lambda_lo, sol.lambda_hi)
        kkt_edge = problem.kkt_residual_edge(
            p, graph.to_edge_coords(t, sol.theta), sol.lambda_lo, sol.lambda_hi
        )
        out = Outcome(time.perf_counter() - start)
        out.check(predicted)
        out.check(kkt_nodal.max_residual < ORACLE_RESIDUAL_TOL)
        out.check(kkt_edge.max_residual < ORACLE_RESIDUAL_TOL)
        out.check(gap < FIELD_GAP_TOL)
        return out


WORKLOADS = {w.name: w for w in (VerifySuite(), ScenarioSim(), LargeMesh())}
