"""The benchmark's tracer still finds every name it patches.

``benchmarks/layers.py`` wraps droopflow functions by module attribute
and binds ``dynamics.integrate``'s signature by parameter name, so a
rename under ``src/`` would otherwise break only a benchmark run.
"""

import inspect
from pathlib import Path

from droopflow import cli, dynamics, oracle, problem, scenario, verify

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers

    def patch_points():
        return (
            verify.integrate,
            cli.integrate,
            verify.settle_networked,
            oracle.solve,
            scenario.Scenario.segment_problem,
            problem.build_transform,
            verify.kkt_residual_nodal,
            cli.kkt_residual_nodal,
            problem.kkt_residual_nodal,
        )

    originals = patch_points()
    with layers.Tracer():
        assert all(now is not then for now, then in zip(patch_points(), originals))
    assert all(now is then for now, then in zip(patch_points(), originals))
    params = inspect.signature(dynamics.integrate).parameters
    assert {"system", "p", "s0", "h"} <= set(params)
