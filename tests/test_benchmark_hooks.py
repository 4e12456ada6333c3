"""The benchmark's tracer still finds every name it patches.

``benchmarks/layers.py`` wraps droopflow functions by module attribute
and binds ``dynamics.integrate``'s signature by parameter name, so a
rename under ``src/`` would otherwise break only a benchmark run.
"""

import inspect
from pathlib import Path

from droopflow import cli, dynamics, oracle, verify

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers

    originals = (verify.integrate, cli.integrate, verify.settle_networked, oracle.solve)
    with layers.Tracer():
        assert verify.integrate is not originals[0]
    assert (verify.integrate, cli.integrate, verify.settle_networked, oracle.solve) == originals
    params = inspect.signature(dynamics.integrate).parameters
    assert {"system", "p", "s0", "h"} <= set(params)
