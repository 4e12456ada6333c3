"""Command line front end: simulate, predict, oracle, verify.

``simulate`` integrates the networked dynamics through a scenario's
load schedule, chaining the final state of each segment into the next,
and writes a wide CSV, a plot-ready long CSV, and a text report.
``predict`` and ``oracle`` expose the closed-form frequency prediction
and the QP oracle for single segments. ``verify`` runs the randomized
invariant suite. Exit status is 0 only when every requested check
passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from . import verify as verify_mod
from .analysis import FrequencyPrediction, predict
from .dynamics import (
    NETWORKED,
    IntegrationError,
    SyncMetrics,
    Trajectory,
    check_time_grid,
    integrate,
    sync_metrics,
)
from .problem import ActiveSets, FlowProblem, KKTPoint, active_sets, kkt_residual_nodal
from .scenario import Scenario, ScenarioError, load_scenario
from .verify import FINAL_RESIDUAL_TOL, OMEGA_AGREEMENT_TOL

# A node counts as saturated in reports when its injection ends within
# this distance of a limit. Looser than the KKT active-set tolerance on
# purpose: a segment can push a node to within a hair of its limit
# without the constraint going active in the exact solution.
SATURATION_TOL = 2e-3

# A segment must span a whole number of steps: its span / h may differ
# from an integer by this fraction of it, which absorbs the rounding of
# the division (40 s at h = 1e-3 gives 40000.000000000004 steps).
STEP_ROUNDING_TOL = 1e-9
# A run may take at most this many steps in all, about 40 times the
# bundled scenario. At about 8.5 µs per step (n = 3, one core of a Xeon
# VM) that is some 85 s of integration, and at the bundled file's
# sample_every = 100 it holds 10^5 samples, about 53 MB of CSV.
MAX_RUN_STEPS = 10_000_000


@dataclass(frozen=True)
class SegmentReport:
    """Everything the run learned about one load segment."""

    index: int
    t_start: float
    t_stop: float
    prediction: FrequencyPrediction
    metrics: SyncMetrics
    kkt: KKTPoint
    active: ActiveSets
    final_injections: np.ndarray  # pu
    saturated_lower: tuple[int, ...]
    saturated_upper: tuple[int, ...]
    agreement: bool


@dataclass(frozen=True)
class RunReport:
    """Segment reports plus run-level bookkeeping and artifact paths."""

    scenario_name: str
    base_power: float
    h: float
    segments: tuple[SegmentReport, ...]
    diverged_segment: int | None = None
    csv_path: Path | None = None
    long_csv_path: Path | None = None
    report_path: Path | None = None

    @property
    def completed(self) -> bool:
        return self.diverged_segment is None

    @property
    def all_agree(self) -> bool:
        return self.completed and all(s.agreement for s in self.segments)

    def final_injections_mw(self, k: int) -> np.ndarray:
        return self.segments[k].final_injections * self.base_power

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.scenario_name}",
            f"base_power: {self.base_power:g} MVA    h: {self.h:g} s    "
            f"segments: {len(self.segments)}",
        ]
        for s in self.segments:
            pred = s.prediction
            lines += [
                "",
                f"segment {s.index}  t = [{s.t_start:g}, {s.t_stop:g}) s   case: {pred.case}",
                f"  omega_s predicted: {pred.omega_s: .6e} pu    "
                f"estimated: {s.metrics.omega_s_estimate: .6e} pu    "
                f"|error|: {abs(s.metrics.omega_s_estimate - pred.omega_s):.2e}",
                f"  final KKT residual: {s.kkt.max_residual:.2e}    "
                f"limit violation: {s.kkt.max_violation:.2e}    "
                f"tail spread: {s.metrics.max_spread:.2e}",
                f"  active lower: {sorted(s.active.at_lower)}    "
                f"active upper: {sorted(s.active.at_upper)}",
                f"  saturated lower: {list(s.saturated_lower)}    "
                f"saturated upper: {list(s.saturated_upper)}",
                f"  final P (MW): "
                + " ".join(f"{x:.6g}" for x in s.final_injections * self.base_power),
                f"  agreement: {s.agreement}",
            ]
        if self.diverged_segment is not None:
            lines += ["", f"DIVERGED in segment {self.diverged_segment}; report is partial"]
        return "\n".join(lines) + "\n"


def _predict_segment(scenario: Scenario, k: int, p: FlowProblem) -> FrequencyPrediction:
    """``predict`` on segment k, with its failure named by segment."""
    try:
        return predict(p)
    except RuntimeError as e:
        raise ScenarioError(
            f"segment {k} (t_start = {scenario.starts[k]:g}): {e}"
        ) from None


def _segment_report(
    scenario: Scenario, k: int, p: FlowProblem, pred: FrequencyPrediction, traj: Trajectory
) -> SegmentReport:
    t_start, t_stop = scenario.segment_span(k)
    final = traj.final_state
    kkt = kkt_residual_nodal(p, final.primal, final.lambda_lo, final.lambda_hi)
    inj = traj.injections[-1]
    metrics = sync_metrics(traj)
    agreement = (
        abs(metrics.omega_s_estimate - pred.omega_s) < OMEGA_AGREEMENT_TOL
        and kkt.max_residual < FINAL_RESIDUAL_TOL
    )
    return SegmentReport(
        index=k,
        t_start=t_start,
        t_stop=t_stop,
        prediction=pred,
        metrics=metrics,
        kkt=kkt,
        active=active_sets(p, final.primal),
        final_injections=inj,
        saturated_lower=tuple(int(i) for i in np.flatnonzero(inj <= p.p_lo + SATURATION_TOL)),
        saturated_upper=tuple(int(i) for i in np.flatnonzero(inj >= p.p_hi - SATURATION_TOL)),
        agreement=agreement,
    )


def _write_artifacts(
    report: RunReport, trajectories: list[Trajectory], out_dir: Path, stem: str
) -> RunReport:
    csv_path = out_dir / f"{stem}_trajectory.csv"
    long_path = out_dir / f"{stem}_trajectory_long.csv"
    report_path = out_dir / f"{stem}_report.txt"

    labels = trajectories[0].column_labels()
    wide = [",".join(labels)]
    long = ["t,series,value"]
    for k, traj in enumerate(trajectories):
        rows = traj.rows()
        if k + 1 < len(trajectories):
            # Segments are [t_start, t_stop): the boundary row belongs to
            # the next segment, which starts from the same state.
            rows = rows[:-1]
        for row in rows:
            wide.append(",".join(f"{x:.12g}" for x in row))
            for label, x in zip(labels[1:], row[1:]):
                long.append(f"{row[0]:.12g},{label},{x:.12g}")
    csv_path.write_text("\n".join(wide) + "\n")
    long_path.write_text("\n".join(long) + "\n")

    report = replace(
        report, csv_path=csv_path, long_csv_path=long_path, report_path=report_path
    )
    report_path.write_text(report.to_text())
    return report


def run(
    scenario: Scenario,
    out_dir: Path | str | None = None,
    h: float | None = None,
    t_end: float | None = None,
    stem: str = "run",
) -> RunReport:
    """Integrate a scenario segment by segment and report per segment.

    The final state of each segment seeds the next, so duals stay
    nonnegative across boundaries by construction. A step or horizon
    that ``integrate`` would refuse, a segment that does not span a
    whole number of steps, a run of more than ``MAX_RUN_STEPS`` steps, a
    segment ``predict`` cannot classify and an ``out_dir`` that cannot
    be created are all rejected before the first segment runs.
    Divergence in any segment aborts the run and returns the partial
    report with ``diverged_segment`` set.
    """
    h = scenario.h if h is None else h
    t_end_run = scenario.t_end if t_end is None else t_end
    check_time_grid(h, t_end_run)

    plan = []
    total_steps = 0.0
    for k in range(scenario.n_segments):
        t_start, t_stop = scenario.segment_span(k)
        t_stop = min(t_stop, t_end_run) if k + 1 < scenario.n_segments else t_end_run
        if t_stop <= t_start:
            break
        steps = (t_stop - t_start) / h
        total_steps += steps
        if total_steps > MAX_RUN_STEPS:
            raise ScenarioError(
                f"the run takes more than {MAX_RUN_STEPS:,} steps of h = {h:g} s "
                f"(passed in segment {k})"
            )
        if round(steps) < 1 or abs(steps - round(steps)) > STEP_ROUNDING_TOL * steps:
            raise ScenarioError(
                f"segment {k} (t_start = {t_start:g}): span {t_stop - t_start:g} s "
                f"is not a whole number of steps of h = {h:g} s"
            )
        p = scenario.segment_problem(k)
        plan.append((k, t_start, t_stop, p, _predict_segment(scenario, k, p)))
    if out_dir is not None:
        out_dir = Path(out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ValueError(f"cannot create output directory {out_dir}: {e.strerror}") from None

    state = scenario.initial_state
    trajectories: list[Trajectory] = []
    segments: list[SegmentReport] = []
    diverged: int | None = None
    for k, t_start, t_stop, p, pred in plan:
        try:
            traj = integrate(
                NETWORKED,
                p,
                state,
                h=h,
                t_end=t_stop - t_start,
                sample_every=scenario.sample_every,
                t0=t_start,
            )
        except IntegrationError:
            diverged = k
            break
        trajectories.append(traj)
        segments.append(_segment_report(scenario, k, p, pred, traj))
        state = traj.final_state

    report = RunReport(
        scenario_name=stem,
        base_power=scenario.base_power,
        h=h,
        segments=tuple(segments),
        diverged_segment=diverged,
    )
    if out_dir is not None and trajectories:
        report = _write_artifacts(report, trajectories, out_dir, stem)
    return report


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    stem = Path(args.scenario).stem
    report = run(
        scenario, out_dir=args.out, h=args.h, t_end=args.t_end, stem=stem
    )
    sys.stdout.write(report.to_text())
    if report.csv_path is not None:
        print(f"\nwrote {report.csv_path}")
        print(f"wrote {report.long_csv_path}")
        print(f"wrote {report.report_path}")
    return 0 if report.completed else 1


def _segment_indices(args: argparse.Namespace, scenario: Scenario) -> list[int]:
    if args.segment is None:
        return list(range(scenario.n_segments))
    if not 0 <= args.segment < scenario.n_segments:
        raise ScenarioError(
            f"segment {args.segment} out of range 0..{scenario.n_segments - 1}"
        )
    return [args.segment]


def _cmd_predict(args: argparse.Namespace) -> int:
    csv = None if args.csv is None else Path(args.csv)
    if csv is not None and (csv.is_dir() or not csv.parent.is_dir()):
        raise ValueError(f"--csv {csv} is not a file path in an existing directory")
    scenario = load_scenario(args.scenario)
    indices = _segment_indices(args, scenario)
    preds = [_predict_segment(scenario, k, scenario.segment_problem(k)) for k in indices]
    csv_rows = []
    for k, pred in zip(indices, preds):
        print(f"segment: {k}")
        print(f"t_start: {scenario.starts[k]:g}")
        print(f"case: {pred.case}")
        print(f"omega_s: {pred.omega_s:.12g}")
        print(f"active_lower: {sorted(pred.active_lower)}")
        print(f"active_upper: {sorted(pred.active_upper)}")
        print()
        csv_rows.append(
            f"{k},{scenario.starts[k]:.12g},{pred.case},{pred.omega_s:.12g},"
            f"\"{sorted(pred.active_lower)}\",\"{sorted(pred.active_upper)}\""
        )
    if csv is not None:
        header = "segment,t_start,case,omega_s,active_lower,active_upper"
        exists = csv.exists()
        with csv.open("a") as f:
            if not exists:
                f.write(header + "\n")
            f.write("\n".join(csv_rows) + "\n")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    for k in _segment_indices(args, scenario):
        p = scenario.segment_problem(k)
        sol = oracle_mod.solve(p)
        pt = kkt_residual_nodal(p, sol.theta, sol.lambda_lo, sol.lambda_hi)
        print(f"segment: {k}")
        print(f"nu: {sol.nu:.12g}")
        print("p_opt_pu: " + " ".join(f"{x:.12g}" for x in sol.p_opt))
        print(
            "p_opt_mw: "
            + " ".join(f"{x:.12g}" for x in sol.p_opt * scenario.base_power)
        )
        print(f"at_lower: {sorted(sol.at_lower)}")
        print(f"at_upper: {sorted(sol.at_upper)}")
        print("lambda_lo: " + " ".join(f"{x:.12g}" for x in sol.lambda_lo))
        print("lambda_hi: " + " ".join(f"{x:.12g}" for x in sol.lambda_hi))
        print(f"kkt_max_residual: {pt.max_residual:.3e}")
        print()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_mod.run_suite(trials=args.trials, seed=args.seed)
    print(report.summary())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="droopflow",
        description="Constrained network flow dynamics: simulate, predict, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a scenario's load schedule")
    p_sim.add_argument("scenario", help="scenario file path")
    p_sim.add_argument("--out", default=".", help="output directory for CSV and report")
    p_sim.add_argument("--h", type=float, default=None, help="override step size")
    p_sim.add_argument("--t-end", type=float, default=None, help="override end time")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_pred = sub.add_parser("predict", help="closed-form frequency prediction")
    p_pred.add_argument("scenario")
    p_pred.add_argument("--segment", type=int, default=None, help="segment index (default: all)")
    p_pred.add_argument("--csv", default=None, help="append predictions to this CSV")
    p_pred.set_defaults(fn=_cmd_predict)

    p_or = sub.add_parser("oracle", help="solve a segment's flow problem directly")
    p_or.add_argument("scenario")
    p_or.add_argument("--segment", type=int, default=None, help="segment index (default: all)")
    p_or.set_defaults(fn=_cmd_oracle)

    p_ver = sub.add_parser("verify", help="run the randomized invariant suite")
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader of stdout is gone: end quietly as SIGPIPE would, with
        # stdout pointed at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as e:  # ScenarioError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
