import contextlib
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import droopflow
from droopflow import ScenarioError, cli, integrate, load_scenario, oracle, problem
from droopflow.cli import main, run
from droopflow.verify import run_suite

BUNDLED = Path(droopflow.__file__).parent / "scenarios" / "nine_bus.scenario"

MINI = """\
# two converters on one line, load step and recovery
[graph]
nodes = 2
edge = 0 1 2.0

[converters]
base_power = 10
node = 0.0 -1.0 0.3 1.0 0.5 1.0
node = 0.0 -1.0 1.0 1.0 0.5 1.0

[schedule]
segment = 0  0.1 0.0
segment = 20 0.5 0.2
segment = 40 0.1 0.0

[sim]
h = 1e-3
t_end = 60
sample_every = 20
"""


def write_scenario(tmp_path, text, name="case.scenario"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_bundled_scenario_parses():
    sc = load_scenario(BUNDLED)
    assert sc.segment_problem(0).n == 3
    assert sc.n_segments == 6
    assert sc.base_power == 100.0
    assert sc.segment_span(0) == (0.0, 40.0)
    assert sc.segment_span(5) == (200.0, 240.0)
    # segment 1 is dispatched exactly: float sums match bitwise
    p = sc.segment_problem(1)
    assert float(np.sum(p.p_star)) == float(np.sum(p.p_load))
    assert np.all(sc.initial_state.primal == 0)
    # each segment's problem is the one validated at load time
    assert all(sc.segment_problem(k) is sc.segment_problem(k) for k in range(6))


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda s: s.replace("segment = 20 0.5 0.2", "segment = 20 5.0 5.0"), "segment 1"),
        (lambda s: s.replace("segment = 0  0.1 0.0\n", "segment = 0  3.0 3.0\n"), "segment 0"),
        (
            lambda s: "\n".join(l for l in s.splitlines() if not l.startswith("segment")),
            "at least one segment",
        ),
        (lambda s: s.replace("segment = 0 ", "segment = 1 "), "start at t = 0"),
        (lambda s: s.replace("segment = 20 ", "segment = 0 "), "strictly increasing"),
        (lambda s: s.replace("node = 0.0 -1.0 0.3", "node = a -1.0 0.3"), "line 8"),
        (lambda s: s.replace("h = 1e-3", "h = 1e-3\nfoo = 3"), "unknown keys"),
        (lambda s: s.replace("[sim]", "[simulation]"), "unknown section"),
        (lambda s: s.replace("t_end = 60", "t_end = 60\nt_end = 70"), "more than once"),
        (lambda s: s.replace("node = 0.0 -1.0 1.0 1.0 0.5 1.0\n", ""), "node lines"),
        (lambda s: s.replace("t_end = 60", "t_end = 40"), "leaves no time"),
        (lambda s: s.replace("h = 1e-3", "h = 0"), "must be positive"),
        (
            lambda s: s.replace("h = 1e-3", "h = 1e-3\nlambda_lo0 = -1 0"),
            "initial state",
        ),
        (lambda s: "nodes = 2\n" + s, "before any"),
        (lambda s: s.replace("t_end = 60\n", ""), "missing required key"),
        (lambda s: s.replace("edge = 0 1 2.0", "edge = 0 1 2.0\nedge = 1 0 1.0"), "graph"),
        (lambda s: s.replace("nodes = 2", "nodes = 2.7"), "line 3: 'nodes' must be an integer"),
        (
            lambda s: s.replace("sample_every = 20", "sample_every = 2.5"),
            "line 19: 'sample_every' must be an integer",
        ),
        (
            lambda s: s.replace("sample_every = 20", "sample_every = 0"),
            "line 19: 'sample_every' must be positive",
        ),
        (
            lambda s: s.replace("base_power = 10", "base_power = -1"),
            "line 7: 'base_power' must be positive",
        ),
        (
            lambda s: s.replace("segment = 20 ", "segment = nan "),
            "line 13: segment start must be finite",
        ),
        (lambda s: s + "theta0 = 0.0 inf\n", "line 20: 'theta0' is NaN or infinite"),
    ],
)
def test_rejects_malformed_scenarios(tmp_path, mangle, message):
    path = write_scenario(tmp_path, mangle(MINI))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


def test_run_is_deterministic(tmp_path):
    path = write_scenario(tmp_path, MINI)
    sc = load_scenario(path)
    a = run(sc, out_dir=tmp_path / "a", stem="case")
    b = run(sc, out_dir=tmp_path / "b", stem="case")
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    assert a.long_csv_path.read_bytes() == b.long_csv_path.read_bytes()
    assert a.to_text() == b.to_text()


def test_run_chains_segments_and_tracks_saturation(tmp_path):
    sc = load_scenario(write_scenario(tmp_path, MINI))
    report = run(sc, out_dir=tmp_path / "out", stem="mini")
    assert report.completed
    assert len(report.segments) == 3

    s1 = report.segments[1]
    assert s1.prediction.case == "above_dispatch"
    assert s1.prediction.active_upper == frozenset({0})
    assert s1.saturated_upper == (0,)
    assert s1.kkt.max_violation < 1e-5
    assert report.all_agree

    # pu -> MW conversion is an exact scaling
    for k in range(3):
        assert np.array_equal(
            report.final_injections_mw(k),
            report.segments[k].final_injections * sc.base_power,
        )

    # duals stay nonnegative through every recorded sample of the run
    data = np.loadtxt(report.csv_path, delimiter=",", skiprows=1)
    lam = data[:, 7:11]
    assert lam.min() >= 0.0
    # segment 1 pumps the upper dual at node 0
    assert lam[:, 2].max() > 1e-3

    text = report.report_path.read_text()
    assert "segment 2" in text and "omega_s predicted" in text


def test_cli_simulate_writes_artifacts(tmp_path, capsys):
    path = write_scenario(tmp_path, MINI, name="mini.scenario")
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "segment 0" in captured
    for suffix in ("trajectory.csv", "trajectory_long.csv", "report.txt"):
        assert (out / f"mini_{suffix}").exists()


def _recorded_run(tmp_path, monkeypatch):
    """Run MINI through the CLI path, keeping every segment's trajectory."""
    trajectories = []

    def recording(*args, **kwargs):
        trajectories.append(integrate(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(cli, "integrate", recording)
    sc = load_scenario(write_scenario(tmp_path, MINI))
    return run(sc, out_dir=tmp_path / "out", stem="mini"), trajectories


def test_wide_csv_round_trip(tmp_path, monkeypatch):
    report, trajectories = _recorded_run(tmp_path, monkeypatch)
    lines = report.csv_path.read_text().strip().split("\n")
    assert lines[0] == (
        "t,theta_0,theta_1,omega_0,omega_1,P_0,P_1,"
        "lam_lo_0,lam_lo_1,lam_hi_0,lam_hi_1"
    )
    # each segment but the last hands its boundary row to the next one
    expected = np.vstack(
        [t.rows()[:-1] for t in trajectories[:-1]] + [trajectories[-1].rows()]
    )
    parsed = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert parsed.shape == expected.shape
    assert np.allclose(parsed, expected, rtol=1e-11, atol=1e-300)


def test_long_csv_shape(tmp_path, monkeypatch):
    report, trajectories = _recorded_run(tmp_path, monkeypatch)
    wide_rows = len(report.csv_path.read_text().strip().split("\n")) - 1
    lines = report.long_csv_path.read_text().strip().split("\n")
    assert lines[0] == "t,series,value"
    assert len(lines) == 1 + wide_rows * (len(trajectories[0].column_labels()) - 1)
    assert lines[1].startswith("0,theta_0,")


def test_bundled_scenario_csv_has_one_row_per_timestamp(tmp_path, monkeypatch):
    builds = []
    build_transform = problem.build_transform

    def counting(*args, **kwargs):
        builds.append(args)
        return build_transform(*args, **kwargs)

    monkeypatch.setattr(problem, "build_transform", counting)
    assert main(["simulate", str(BUNDLED), "--out", str(tmp_path)]) == 0
    assert len(builds) == 6  # one problem per segment, built at load time
    wide = np.loadtxt(tmp_path / "nine_bus_trajectory.csv", delimiter=",", skiprows=1)
    assert len(wide) == 2401  # 0, 0.1, ..., 240 s: no boundary appears twice
    assert np.all(np.diff(wide[:, 0]) > 0)
    long_lines = (tmp_path / "nine_bus_trajectory_long.csv").read_text().strip().split("\n")
    assert len(long_lines) == 1 + 2401 * 15


def test_cli_predict_prints_and_appends_csv(tmp_path, capsys):
    path = write_scenario(tmp_path, MINI)
    assert main(["predict", str(path), "--segment", "1"]) == 0
    out = capsys.readouterr().out
    assert "case: above_dispatch" in out
    assert "active_upper: [0]" in out

    csv = tmp_path / "pred.csv"
    assert main(["predict", str(path), "--csv", str(csv)]) == 0
    assert main(["predict", str(path), "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0].startswith("segment,t_start,case,omega_s")
    assert len(lines) == 1 + 2 * 3  # header written once, rows appended


def test_cli_oracle_reports_solution(tmp_path, capsys):
    path = write_scenario(tmp_path, MINI)
    assert main(["oracle", str(path), "--segment", "1"]) == 0
    out = capsys.readouterr().out
    assert "nu:" in out and "at_upper: [0]" in out and "p_opt_mw:" in out


def test_cli_verify_smoke(capsys):
    assert main(["verify", "--trials", "1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_error_exits(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "missing.scenario")]) == 2
    path = write_scenario(tmp_path, MINI)
    assert main(["predict", str(path), "--segment", "9"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["simulate", str(path), "--out", str(tmp_path), "--h", "nan"]) == 2
    assert "step size h" in capsys.readouterr().err
    assert main(["simulate", str(path), "--out", str(tmp_path), "--t-end", "inf"]) == 2
    assert "horizon t_end" in capsys.readouterr().err
    assert main(["simulate", str(path), "--out", str(tmp_path), "--t-end=-5"]) == 2
    assert "horizon t_end must be finite and positive, got -5" in capsys.readouterr().err


def test_suite_catches_a_corrupted_solver():
    def corrupted(p, tol=1e-12):
        sol = oracle.solve(p)
        bump = np.zeros(p.n)
        bump[0] = 0.05
        bump -= bump.mean()
        return dataclasses.replace(sol, nu=sol.nu + 0.1, theta=sol.theta + bump)

    report = run_suite(trials=2, seed=3, solve_fn=corrupted)
    assert not report.passed
    failing = {r.name for r in report.results if not r.passed}
    assert {"oracle_kkt", "dynamics_convergence"} <= failing
    # batteries that never touch the solver stay green
    assert "edge_kernel_conservation" not in failing


NONFINITE = st.sampled_from(["nan", "inf", "-inf"])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("nonfinite")


def _main_err(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _with_token(text, line, token, value):
    # replace whitespace-separated token `token` of 1-based line `line`
    lines = text.splitlines()
    tokens = lines[line - 1].split()
    tokens[token] = value
    lines[line - 1] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(["p_star", "p_lo", "p_hi", "p_load"]),
    node=st.integers(0, 1),
    value=NONFINITE,
)
def test_predict_rejects_nonfinite_problem_data(scratch, field, node, value):
    if field == "p_load":  # segment = 0  P_L_0 P_L_1 (line 12)
        text = _with_token(MINI, 12, 3 + node, value)
    else:  # node = p_star p_lo p_hi m k_p k_i (lines 8 and 9)
        col = ("p_star", "p_lo", "p_hi").index(field)
        text = _with_token(MINI, 8 + node, 2 + col, value)
    path = write_scenario(scratch, text)
    code, err = _main_err(["predict", str(path)])
    assert code == 2
    assert f"{field}: NaN or infinite at nodes [{node}]" in err


@settings(max_examples=40, deadline=None)
@given(gain=st.sampled_from(["m", "k_p", "k_i"]), node=st.integers(0, 1), value=NONFINITE)
def test_predict_rejects_nonfinite_gains(scratch, gain, node, value):
    col = ("m", "k_p", "k_i").index(gain)  # node = p_star p_lo p_hi m k_p k_i
    path = write_scenario(scratch, _with_token(MINI, 8 + node, 5 + col, value))
    code, err = _main_err(["predict", str(path)])
    assert code == 2
    assert f"{gain} must be finite, NaN or infinite at nodes [{node}]" in err


@settings(max_examples=20, deadline=None)
@given(value=st.sampled_from(["nan", "inf", "-inf", "0", "-1"]))
def test_oracle_rejects_bad_edge_weight(scratch, value):
    path = write_scenario(scratch, _with_token(MINI, 4, 4, value))  # edge = 0 1 w
    code, err = _main_err(["oracle", str(path)])
    assert code == 2
    assert "edge 0 (0, 1) has weight" in err


@settings(max_examples=30, deadline=None)
@given(key=st.sampled_from(["h", "t_end", "base_power"]), value=NONFINITE)
def test_load_rejects_nonfinite_scalars_with_line(scratch, key, value):
    lineno = {"base_power": 7, "h": 17, "t_end": 18}[key]
    path = write_scenario(scratch, _with_token(MINI, lineno, 2, value))
    with pytest.raises(ScenarioError, match=f"line {lineno}: '{key}' must be finite"):
        load_scenario(path)
    code, err = _main_err(["predict", str(path)])
    assert code == 2 and f"line {lineno}" in err


@settings(max_examples=30, deadline=None)
@given(flag=st.sampled_from(["--h", "--t-end"]), value=NONFINITE)
def test_simulate_rejects_nonfinite_overrides_before_integrating(scratch, flag, value):
    path = write_scenario(scratch, MINI)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "integrate", lambda *a, **k: calls.append(a))
        code, err = _main_err(["simulate", str(path), "--out", str(scratch), f"{flag}={value}"])
    assert code == 2
    assert ("step size h" if flag == "--h" else "horizon t_end") in err
    assert calls == []


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_simulate_rejects_unusable_out_before_integrating(tmp_path, out):
    (tmp_path / "afile").write_text("keep\n")
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "integrate", lambda *a, **k: calls.append(a))
        code, err = _main_err(["simulate", str(BUNDLED), "--out", str(tmp_path / out)])
    assert code == 2
    assert f"error: cannot create output directory {tmp_path / out}" in err
    assert calls == []
    assert (tmp_path / "afile").read_text() == "keep\n"


@pytest.mark.parametrize("csv", [".", "afile/preds.csv"])
def test_predict_rejects_unusable_csv_before_predicting(tmp_path, csv):
    (tmp_path / "afile").write_text("keep\n")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code, err = _main_err(["predict", str(BUNDLED), "--csv", str(tmp_path / csv)])
    assert code == 2
    assert f"error: --csv {tmp_path / csv} is not a file path" in err
    assert stdout.getvalue() == ""


# Segments at 0, 0.4 and 2.6 steps of h = 1e-3: no span is a whole
# number of steps, so no segment could run for the time its rows show.
OFF_GRID = (
    MINI.replace("segment = 20 ", "segment = 0.0004 ")
    .replace("segment = 40 ", "segment = 0.0026 ")
    .replace("t_end = 60", "t_end = 0.005")
)


@pytest.mark.parametrize(
    "text,flags,message",
    [
        (OFF_GRID, [], "segment 0 (t_start = 0): span 0.0004 s"),
        (MINI, ["--h", "7e-4"], "segment 0 (t_start = 0): span 20 s"),
        (MINI, ["--t-end", "50.0005"], "segment 2 (t_start = 40): span 10.0005 s"),
        (MINI, ["--t-end", "40.0004"], "segment 2 (t_start = 40): span 0.0004 s"),
    ],
    ids=["file", "h_override", "t_end_override", "short_last_segment"],
)
def test_simulate_rejects_spans_off_the_step_grid(tmp_path, text, flags, message):
    path = write_scenario(tmp_path, text)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "integrate", lambda *a, **k: calls.append(a))
        code, err = _main_err(["simulate", str(path), "--out", str(tmp_path / "out"), *flags])
    assert code == 2
    assert f"error: {message}" in err and "is not a whole number of steps of h" in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_a_run_over_the_step_limit(tmp_path):
    def never(*args, **kwargs):
        raise AssertionError("integrate called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "integrate", never)
        code, err = _main_err(["simulate", str(BUNDLED), "--out", str(tmp_path), "--h", "1e-12"])
    assert code == 2
    assert f"more than {cli.MAX_RUN_STEPS:,} steps of h = 1e-12 s" in err
    assert list(tmp_path.iterdir()) == []


# Total load 1e-14 below sum(P_hi): the file loads, but the oracle puts
# both nodes at their upper limit and leaves predict no free node.
ALL_AT_LIMIT = """\
[graph]
nodes = 2
edge = 0 1 1.0
[converters]
base_power = 10
node = 0.0 -1.0 0.3 1.0 0.5 1.0
node = 0.0 -1.0 0.4 2.0 0.5 1.0
[schedule]
segment = 0  0.35 0.34999999999999
[sim]
t_end = 5
"""


def test_every_node_at_a_limit_is_named_by_segment(tmp_path):
    path = write_scenario(tmp_path, ALL_AT_LIMIT)
    message = "segment 0 (t_start = 0): every node is at a limit"

    code, err = _main_err(["predict", str(path)])
    assert code == 2
    assert f"error: {message}" in err

    out = tmp_path / "out"
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "integrate", lambda *a, **k: calls.append(a))
        code, err = _main_err(["simulate", str(path), "--out", str(out)])
    assert code == 2
    assert f"error: {message}" in err
    assert calls == []
    assert not out.exists()

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["oracle", str(path)]) == 0
    assert "at_upper: [0, 1]" in stdout.getvalue()

    # behind a valid segment: nothing is printed or appended
    later = write_scenario(
        tmp_path,
        ALL_AT_LIMIT.replace("segment = 0 ", "segment = 0  0.1 0.0\nsegment = 2 "),
        name="later.scenario",
    )
    csv = tmp_path / "preds.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code, err = _main_err(["predict", str(later), "--csv", str(csv)])
    assert code == 2
    assert "error: segment 1 (t_start = 2): every node is at a limit" in err
    assert stdout.getvalue() == ""
    assert not csv.exists()


@pytest.mark.parametrize("command", ["predict", "oracle"])
def test_closed_stdout_ends_quietly(command):
    # As in `droopflow predict nine_bus.scenario | (exec 0<&-; true)`:
    # the read end is closed before the command writes, so every write
    # to stdout fails with EPIPE. That is not unusable input (exit 2).
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(droopflow.__file__).parents[1])}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "droopflow", command, str(BUNDLED)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == ""
    assert done.returncode == 1
