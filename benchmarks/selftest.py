"""Self-test of the benchmark, every workload at its smallest size.

Run from the repository root:

    python3 benchmarks/selftest.py

Asserts that every metric BENCHMARK.json names is emitted, finite and
with its unit, in both trace modes; that the fail ratio is 0; and, as
the negative control the ``verify`` docstring describes, that a
deliberately wrong solver passed as ``run_suite(solve_fn=...)`` makes
verify_suite's fail ratio positive. Exits nonzero on the first failure.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--small"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}"
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(workload: str, trace: int) -> None:
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, (
        f"{workload} trace={trace}: emitted and declared metrics differ: "
        f"{sorted(set(metrics) ^ {m['name'] for m in declared})}"
    )
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']} != {m['unit']}"
        assert math.isfinite(got["value"]), f"{m['name']}: value {got['value']}"
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], (
        f"{workload} trace={trace}: fail ratio {result['failed']}/{result['attempted']}"
    )


def check_negative_control() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from droopflow import oracle

    import workloads

    def wrong_solve(p):
        sol = oracle.solve(p)
        return dataclasses.replace(sol, nu=sol.nu + 0.1, theta=sol.theta * 1.1)

    suite = workloads.WORKLOADS["verify_suite"]
    out = suite.run(suite.setup(seed=1, small=True), solve_fn=wrong_solve)
    assert out.failed > 0, f"wrong solver passed every check ({out.attempted} attempted)"


def main() -> int:
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_metrics(w["name"], trace)
            print(f"ok {w['name']} trace={trace}")
    check_negative_control()
    print("ok negative control")
    return 0


if __name__ == "__main__":
    sys.exit(main())
