"""Scenario files: a diffable text format for segmented simulations.

Grammar (line oriented; ``#`` starts a comment, blank lines ignored)::

    [graph]
    nodes = <int>
    edge = <i> <j> <weight>          # one line per edge

    [converters]
    base_power = <MVA>
    node = <p_star> <p_lo> <p_hi> <m> <k_p> <k_i>   # one line per node,
                                                    # in node order, per-unit

    [schedule]
    segment = <t_start> <P_L_0> ... <P_L_{n-1}>     # strictly increasing
                                                    # t_start, first at 0

    [sim]
    h = <step seconds>              # default 1e-3
    t_end = <seconds>               # required, > last t_start
    sample_every = <int>            # default 1
    theta0 = <n floats>             # optional, default zeros
    lambda_lo0 = <n floats>         # optional, default zeros
    lambda_hi0 = <n floats>         # optional, default zeros

Every load segment must yield a valid flow problem (limits ordered,
setpoints interior, total load strictly between the limit sums); a
violating segment is rejected at load time with its index, because a
schedule that breaks the standing assumptions mid-run would otherwise
fail far from the place that caused it. The problems built for that
check are the ones the loaded :class:`Scenario` hands out, so each
segment's problem is built once per load. Every number must be finite,
counts must be integers, and ``base_power`` and ``h`` must be positive;
a value that breaks this is rejected with its line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import DEFAULT_STEP, PrimalDualState
from .graph import NetworkGraph
from .problem import FlowProblem, validate


class ScenarioError(ValueError):
    """Malformed or invalid scenario file; messages carry line numbers."""


@dataclass(frozen=True, eq=False)
class Scenario:
    """Parsed and validated scenario: one flow problem per load segment.

    ``problems[k]`` is segment k's problem, built once at load time and
    validated there; its graph, setpoints, limits and gains are the
    scenario's, shared by every segment. ``starts[k]`` is the time
    segment k begins; the last one runs until ``t_end``.
    """

    base_power: float  # MVA, converts per-unit powers in reports
    starts: tuple[float, ...]
    problems: tuple[FlowProblem, ...]
    h: float
    t_end: float
    sample_every: int
    initial_state: PrimalDualState

    @property
    def n_segments(self) -> int:
        return len(self.problems)

    def segment_span(self, k: int) -> tuple[float, float]:
        """Start and stop time of segment k within [0, t_end]."""
        stop = self.starts[k + 1] if k + 1 < self.n_segments else self.t_end
        return self.starts[k], stop

    def segment_problem(self, k: int) -> FlowProblem:
        return self.problems[k]


_SECTIONS = ("graph", "converters", "schedule", "sim")


def _floats(value: str, lineno: int, key: str, count: int | None = None) -> list[float]:
    try:
        xs = [float(tok) for tok in value.split()]
    except ValueError:
        raise ScenarioError(f"line {lineno}: '{key}' expects numbers, got {value!r}") from None
    if count is not None and len(xs) != count:
        raise ScenarioError(
            f"line {lineno}: '{key}' expects {count} values, got {len(xs)}"
        )
    return xs


def _scalar(
    entries: list[tuple[int, str]],
    section: str,
    key: str,
    default=None,
    integer: bool = False,
    positive: bool = False,
):
    """The key's one finite value; ``integer`` and ``positive`` add checks."""
    if not entries:
        if default is None:
            raise ScenarioError(f"[{section}] is missing required key '{key}'")
        return default
    if len(entries) > 1:
        lines = ", ".join(str(ln) for ln, _ in entries)
        raise ScenarioError(f"'{key}' given more than once (lines {lines})")
    lineno, value = entries[0]
    x = _floats(value, lineno, key, 1)[0]
    if not math.isfinite(x):
        raise ScenarioError(f"line {lineno}: '{key}' must be finite, got {value!r}")
    if integer and x != int(x):
        raise ScenarioError(f"line {lineno}: '{key}' must be an integer, got {value!r}")
    if positive and not x > 0:
        raise ScenarioError(f"line {lineno}: '{key}' must be positive, got {value!r}")
    return int(x) if integer else x


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file.

    Raises ScenarioError with a line number for syntax problems and with
    a segment index for assumption violations. Nothing lazy: a scenario
    that loads will simulate.
    """
    text = Path(path).read_text()
    section: str | None = None
    by_key: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"line {lineno}: malformed section header {line!r}")
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ScenarioError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ScenarioError(f"line {lineno}: content before any [section] header")
        key, eq, value = line.partition("=")
        if not eq:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        by_key.setdefault((section, key.strip()), []).append((lineno, value.strip()))

    def entries(section: str, key: str) -> list[tuple[int, str]]:
        return by_key.pop((section, key), [])

    n = _scalar(entries("graph", "nodes"), "graph", "nodes", integer=True)
    edges = []
    weights = []
    for lineno, value in entries("graph", "edge"):
        i, j, w = _floats(value, lineno, "edge", 3)
        if i != int(i) or j != int(j):
            raise ScenarioError(f"line {lineno}: edge endpoints must be integers")
        edges.append((int(i), int(j)))
        weights.append(w)
    try:
        graph = NetworkGraph(n, edges, np.asarray(weights))
    except ValueError as e:
        raise ScenarioError(f"[graph]: {e}") from e

    base_power = _scalar(
        entries("converters", "base_power"), "converters", "base_power", positive=True
    )
    rows = [
        _floats(value, lineno, "node", 6) for lineno, value in entries("converters", "node")
    ]
    if len(rows) != n:
        raise ScenarioError(f"[converters] has {len(rows)} node lines, graph has {n} nodes")
    p_star, p_lo, p_hi, m, k_p, k_i = (np.asarray(col) for col in zip(*rows))

    starts: list[float] = []
    loads: list[np.ndarray] = []
    for lineno, value in entries("schedule", "segment"):
        xs = _floats(value, lineno, "segment", n + 1)
        if not math.isfinite(xs[0]):
            raise ScenarioError(f"line {lineno}: segment start must be finite, got {xs[0]}")
        starts.append(xs[0])
        loads.append(np.asarray(xs[1:]))
    if not starts:
        raise ScenarioError("[schedule] must contain at least one segment")
    if starts[0] != 0.0:
        raise ScenarioError(f"first segment must start at t = 0, got {starts[0]:g}")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ScenarioError(f"segment start times must be strictly increasing: {starts}")

    h = _scalar(entries("sim", "h"), "sim", "h", default=DEFAULT_STEP, positive=True)
    t_end = _scalar(entries("sim", "t_end"), "sim", "t_end")
    sample_every = _scalar(
        entries("sim", "sample_every"), "sim", "sample_every", default=1,
        integer=True, positive=True,
    )
    if t_end <= starts[-1]:
        raise ScenarioError(
            f"t_end = {t_end:g} leaves no time for the last segment (starts at {starts[-1]:g})"
        )

    def initial(key: str) -> np.ndarray:
        rows = entries("sim", key)
        if not rows:
            return np.zeros(n)
        if len(rows) > 1:
            raise ScenarioError(f"'{key}' given more than once")
        lineno, value = rows[0]
        x = np.asarray(_floats(value, lineno, key, n))
        bad = np.flatnonzero(~np.isfinite(x)).tolist()
        if bad:
            raise ScenarioError(f"line {lineno}: '{key}' is NaN or infinite at nodes {bad}")
        return x

    try:
        state0 = PrimalDualState(initial("theta0"), initial("lambda_lo0"), initial("lambda_hi0"))
    except ValueError as e:
        raise ScenarioError(f"[sim] initial state: {e}") from e

    leftovers = sorted(f"[{s}] {k}" for s, k in by_key)
    if leftovers:
        raise ScenarioError(f"unknown keys: {', '.join(leftovers)}")

    problems = []
    for k, (start, p_load) in enumerate(zip(starts, loads)):
        try:
            p = FlowProblem(graph, p_star, p_load, p_lo, p_hi, m, k_p, k_i)
        except ValueError as e:
            raise ScenarioError(f"segment {k} (t = {start:g}): {e}") from e
        report = validate(p)
        if not report.passed:
            raise ScenarioError(f"segment {k} (t = {start:g}) fails validation: {report}")
        problems.append(p)

    return Scenario(
        base_power=float(base_power),
        starts=tuple(starts),
        problems=tuple(problems),
        h=float(h),
        t_end=float(t_end),
        sample_every=sample_every,
        initial_state=state0,
    )
