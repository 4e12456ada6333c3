"""droopflow benchmark runner.

Run from the repository root:

    python3 benchmarks/run.py --workload verify_suite --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): verify_suite,
scenario_sim, large_mesh. One workload runs in this one process, with
BLAS pinned to a single thread before numpy is imported, against the
package under ``src/`` of the checkout the script sits in.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``wall_s``: median wall time of the timed phase over the reps that
  fit in ``--seconds`` (at least one);
* ``setup_s``: median, over this process and a few fresh child
  processes, of the time to import droopflow and build the inputs;
* ``steps_per_s``: Euler instance-steps of one rep, counted from a
  traced warm-up rep, divided by ``wall_s``;
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

``--trace 1`` runs traced and untraced reps (setup plus timed phase)
alternately, at least two traced and one untraced, and reports the per-layer metrics of ``layers.PER_LAYER``
(medians over the traced reps), including the rhs microbenchmark and
``trace.overhead_ratio``.

Every rep's outputs are checked; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}`` where failed /
attempted is the fail ratio. The line before it records the
environment and the raw samples.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 60
MIN_TRACED_REPS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def _import_droopflow():
    """Import the package from this checkout's ``src/`` or exit nonzero."""
    if not (SRC / "droopflow" / "__init__.py").is_file():
        sys.exit(f"error: no droopflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import droopflow
    import workloads

    if not Path(droopflow.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: droopflow imported from {droopflow.__file__}, not {SRC}")
    return workloads


def _setup_in_child(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + (["--small"] if args.small else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _traced_rep(workload, seed: int, small: bool):
    from layers import Tracer

    with Tracer() as tracer:
        outcome = tracer.call("bench.rep", _setup_and_run, workload, seed, small)
    return tracer, outcome


def _setup_and_run(workload, seed: int, small: bool):
    return workload.run(workload.setup(seed, small))


def _untraced_rep_s(workload, seed: int, small: bool):
    start = time.perf_counter()
    outcome = _setup_and_run(workload, seed, small)
    return time.perf_counter() - start, outcome


def _end_to_end(args, workload, inputs, setup_s: float, tally: list) -> tuple[dict, dict]:
    setup = [setup_s] + [_setup_in_child(args) for _ in range(SETUP_CHILDREN)]
    tracer, warm = _traced_rep(workload, args.seed, args.small)
    tally.append(warm)
    steps = sum(s.info["steps"] for s in tracer.named("dynamics.integrate"))
    walls = []
    begin = time.perf_counter()
    while not walls or _next_rep_fits(begin, statistics.median(walls), args.seconds):
        out = workload.run(inputs)
        tally.append(out)
        walls.append(out.wall_s)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "steps_per_s": steps / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"wall_s": walls, "setup_s": setup, "steps": steps}
    return metrics, samples


def _next_rep_fits(begin: float, rep_s: float, seconds: float) -> bool:
    """Whether one more rep of about ``rep_s`` ends within ``seconds`` of ``begin``."""
    return time.perf_counter() - begin + rep_s <= seconds


def _per_layer(args, workload, tally: list) -> tuple[dict, dict]:
    from layers import layer_metrics, median_metrics, rhs_us

    traced, untraced, reps, steps = [], [], [], []
    begin = time.perf_counter()
    while len(traced) < MIN_TRACED_REPS or not untraced or _next_rep_fits(
        begin, (time.perf_counter() - begin) / (len(traced) + len(untraced)), args.seconds
    ):
        if len(traced) > len(untraced):
            wall, out = _untraced_rep_s(workload, args.seed, args.small)
            tally.append(out)
            untraced.append(wall)
            continue
        tracer, out = _traced_rep(workload, args.seed, args.small)
        tally.append(out)
        traced.append(tracer.spans[-1].duration)
        reps.append(layer_metrics(tracer, out.details))
        steps.append(reps[-1]["dynamics.steps"])
    metrics = median_metrics(reps)
    metrics["dynamics.rhs_us"] = rhs_us(tracer)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    # The step count is deterministic in the inputs: every traced rep
    # must count the same.
    tally.append(_step_check(steps))
    samples = {"traced_s": traced, "untraced_s": untraced, "steps": steps}
    return metrics, samples


def _step_check(steps: list):
    from workloads import Outcome

    out = Outcome(0.0)
    out.check(len(set(steps)) == 1)
    return out


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    import ctypes

    import numpy as np

    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ[v] for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest size of each workload, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    start = time.perf_counter()
    workloads = _import_droopflow()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.small)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(repr(setup_s))
        return 0

    tally: list = []
    if args.trace:
        from layers import PER_LAYER

        metrics, samples = _per_layer(args, workload, tally)
        units = PER_LAYER
    else:
        metrics, samples = _end_to_end(args, workload, inputs, setup_s, tally)
        units = END_TO_END
    attempted = sum(o.attempted for o in tally)
    failed = sum(o.failed for o in tally)
    if args.trace:
        metrics["fail_ratio"] = failed / attempted
    print(json.dumps({"env": _environment(args), "samples": samples}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
