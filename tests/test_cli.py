import inspect
import json

import pytest

from robosync.cli import build_parser, main
from robosync.experiments import necessity_experiment
from robosync.scenarios import (
    NECESSITY_TEMPLATES,
    builtin_bundle,
    bundle_to_json,
    random_vicinity_scenario,
)


@pytest.fixture
def clean_bundle(tmp_path):
    scenario, spec = random_vicinity_scenario(5)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(bundle_to_json(
        scenario, algorithm=spec, machine="svp", adversary_mode="nonrigid")))
    return path


def run(args):
    return main([str(a) for a in args])


def test_simulate_check_synthesize_flow(tmp_path, clean_bundle):
    trace = tmp_path / "trace.json"
    assert run(["simulate", "--scenario", clean_bundle, "--schedule", "async:40",
                "--seed", "5", "--out", trace]) == 0
    raw = json.loads(trace.read_text())
    assert raw["schema"] == 1 and raw["kind"] == "luminous"

    # the checker consumes the accepted-cycle core; build it via the API
    from robosync.engine import Trace
    from robosync.synchronizer import extract_core
    core = tmp_path / "core.json"
    core_trace = extract_core(Trace.from_json(raw))
    core.write_text(json.dumps(core_trace.to_json()))

    report = tmp_path / "report.json"
    assert run(["check", core, "--out", report]) == 0
    rep = json.loads(report.read_text())
    assert rep["all_pass"] is True

    synth = tmp_path / "synth.json"
    assert run(["synthesize", core, "--out", synth]) == 0
    result = json.loads(synth.read_text())
    assert result["similar"]["similar"] is True
    assert not result["refused"]


def test_simulate_fsync_halt_keeps_footprints_constant(tmp_path, clean_bundle):
    trace = tmp_path / "halt.json"
    assert run(["simulate", "--scenario", clean_bundle, "--schedule", "fsync:10",
                "--algo", "halt", "--machine", "none", "--seed", "1",
                "--out", trace]) == 0
    raw = json.loads(trace.read_text())
    assert raw["kind"] == "plain"
    for positions, row in zip(raw["scenario"]["positions"], raw["records"]):
        assert all(rec["pos_at_look"] == positions for rec in row)
        assert all(rec["pos_after_move"] == positions for rec in row)


def test_check_rejects_trap_trace(tmp_path):
    trace = tmp_path / "trap.json"
    assert run(["simulate", "--scenario", "builtin:greedy-trap",
                "--out", trace]) == 0
    report = tmp_path / "report.json"
    assert run(["check", trace, "--out", report]) == 1
    rep = json.loads(report.read_text())
    assert rep["verdicts"]["consistent"]["verdict"] == "fail"
    assert {"pair": [[0, 1], [3, 1]], "clause": 1} in \
        rep["verdicts"]["consistent"]["witnesses"]
    synth = tmp_path / "synth.json"
    assert run(["synthesize", trace, "--out", synth]) == 1
    assert json.loads(synth.read_text())["refused"] is True


def test_repro_commands(tmp_path):
    out = tmp_path / "out.json"
    assert run(["repro", "greedy-lemma", "--out", out]) == 0
    assert json.loads(out.read_text())["ok"] is True
    assert run(["repro", "colorbased-theorem", "--machine", "svp", "--out", out]) == 0
    assert run(["repro", "colorbased-theorem", "--machine", "greedy", "--out", out]) == 0
    assert json.loads(out.read_text())["j0"] == 1


def test_necessity_command(tmp_path):
    out = tmp_path / "necessity.json"
    assert run(["necessity", "--template", "control", "--seeds", "10",
                "--out", out]) == 0
    agg = json.loads(out.read_text())
    assert agg["clean_check_pass"] == 10
    assert run(["necessity", "--template", "stationarity", "--seeds", "25",
                "--out", out]) == 0
    agg = json.loads(out.read_text())
    assert agg["materialized"] > 0 and agg["found_given_violation"] == 0


def test_necessity_command_matches_the_api_defaults(tmp_path):
    out = tmp_path / "necessity.json"
    assert run(["necessity", "--template", "control", "--seeds", "10",
                "--out", out]) == 0
    assert json.loads(out.read_text()) == necessity_experiment("control", 10)
    args = build_parser().parse_args(["necessity", "--template", "control"])
    defaults = inspect.signature(necessity_experiment).parameters
    assert args.order_budget == defaults["order_budget"].default
    assert args.budget == defaults["node_budget"].default


def _combined_exit(codes) -> int:
    """1 if any template fails, else 3 if any is inconclusive, else 0."""
    codes = set(codes)
    return 1 if 1 in codes else 3 if 3 in codes else 0


def test_necessity_all_templates(tmp_path):
    out = tmp_path / "all.json"
    codes = [run(["necessity", "--template", name, "--seeds", "10", "--out", out])
             for name in NECESSITY_TEMPLATES]
    assert run(["necessity", "--template", "all", "--seeds", "10",
                "--out", out]) == _combined_exit(codes)
    assert json.loads(out.read_text()) == {"schema": 1, "aggregates": {
        name: necessity_experiment(name, 10) for name in sorted(NECESSITY_TEMPLATES)}}


# an aggregate that makes a single-template sweep exit with each code
AGGREGATE_FOR_EXIT = {
    0: {"materialized": 3, "found_given_violation": 0, "inconclusive_rate": 0.0},
    1: {"materialized": 3, "found_given_violation": 1, "inconclusive_rate": 0.0},
    3: {"materialized": 3, "found_given_violation": 0, "inconclusive_rate": 0.5},
}


@pytest.mark.parametrize("codes", [(0, 0, 0, 0, 0), (0, 3, 0, 0, 0),
                                   (3, 0, 1, 0, 3), (1, 1, 1, 1, 1)])
def test_necessity_all_exit_code_rule(tmp_path, monkeypatch, codes):
    import robosync.cli

    by_name = dict(zip(sorted(NECESSITY_TEMPLATES), codes))
    monkeypatch.setattr(robosync.cli, "necessity_experiment",
                        lambda name, seeds, **kwargs: AGGREGATE_FOR_EXIT[by_name[name]])
    out = tmp_path / "out.json"
    for name, code in by_name.items():
        assert run(["necessity", "--template", name, "--out", out]) == code
    assert run(["necessity", "--template", "all", "--out", out]) == _combined_exit(codes)


def test_open_at_horizon_and_budget_exhaustion_exit_3(tmp_path):
    from conftest import build_trace

    # the open-precedence-loop construction from the checker tests
    open_loop = build_trace(
        [(0, 0), (0.9, 1.1), (0, 1), (1.7, 0.5), (1, 0)], [
            [{"t": (0.0, 20.0, 20.5), "sees": {2, 4}}],
            [{"t": (21.0, 22.0, 22.5), "sees": {2}}],
            [{"t": (19.0, 19.25, 19.5), "sees": {0}}],
            [{"t": (23.0, 24.0, 24.5), "sees": {4, 1}}],
            [{"t": (19.75, 40.0, 40.5), "sees": {0, 3}}],
        ])
    path = tmp_path / "open.json"
    path.write_text(json.dumps(open_loop.to_json()))
    assert run(["check", path]) == 3

    # a sound trace whose order enumeration is cut off by a tiny budget
    lonely = build_trace([(0, 0), (5, 0), (10, 0)], [
        [{"t": (0.0, 0.25, 0.75)}],
        [{"t": (0.0, 0.25, 0.75)}],
        [{"t": (0.0, 0.25, 0.75)}],
    ])
    path = tmp_path / "lonely.json"
    path.write_text(json.dumps(lonely.to_json()))
    assert run(["check", path, "--budget", "1"]) == 3
    assert run(["check", path]) == 0


def test_input_errors_exit_2(tmp_path):
    assert run(["check", str(tmp_path / "missing.json")]) == 2
    assert run(["simulate", "--scenario", "builtin:nope"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"horizon": 1.0, "robots": [[
        {"j": 1, "o": 0.1, "s": 0.2, "f": 0.3}]]}))  # off the 1/64 grid
    bundle = tmp_path / "scn.json"
    scenario, spec = random_vicinity_scenario(1)
    bundle.write_text(json.dumps(bundle_to_json(scenario, algorithm=spec)))
    assert run(["simulate", "--scenario", bundle, "--schedule", bad]) == 2


def _set_cycle(record: dict, **fields) -> None:
    record["cycle"].update(fields)


TRACE_MUTATIONS = {
    "non-consecutive j": lambda recs: _set_cycle(recs[0][1], j=3),
    "row under the wrong robot": lambda recs: _set_cycle(recs[0][0], robot=1),
    "overlapping cycles": lambda recs: _set_cycle(recs[0][1], o=0.75),
    "no rows for the robots": lambda recs: recs.clear(),
    "visible robot past the last": lambda recs: recs[0][0].update(visible_set=[0, 99]),
    "negative visible robot": lambda recs: recs[0][0].update(visible_set=[-1, 0]),
    "visible robot of 1e400": lambda recs: recs[0][0].update(visible_set=[0, 1e400]),
    "infinite last move end": lambda recs: _set_cycle(recs[1][-1], f=float("inf")),
}


def _control_schedule(edit):
    data = builtin_bundle("necessity-control")["schedule"]
    edit(data)
    return "--schedule", data


def _trap_bundle(edit):
    data = builtin_bundle("greedy-trap")
    edit(data)
    return "--scenario", data


# each case gives the simulate flag that reads the file and the file's data
FILE_CASES = {
    "schedule entry without o":
        lambda: _control_schedule(lambda d: d["robots"][0][0].pop("o")),
    "schedule entry with a non-integer j":
        lambda: _control_schedule(lambda d: d["robots"][0][0].update(j="x")),
    "schedule row that is a number":
        lambda: _control_schedule(lambda d: d.update(robots=[5, *d["robots"][1:]])),
    "infinite schedule horizon":
        lambda: _control_schedule(lambda d: d.update(horizon=float("inf"))),
    "infinite schedule o":
        lambda: _control_schedule(lambda d: d["robots"][0][0].update(o=float("inf"))),
    "schedule o of 1e307":
        lambda: _control_schedule(lambda d: d["robots"][0][0].update(o=1e307)),
    "schedule j of 1e400":
        lambda: _control_schedule(lambda d: d["robots"][0][0].update(j=1e400)),
    "hull algorithm without lambda": lambda: ("--algo", {"kind": "hull_contraction"}),
    "scripted entry without snapshot":
        lambda: ("--algo", {"kind": "scripted", "script": [{"route": [[0, 0]]}]}),
    "algorithm file that is a list": lambda: ("--algo", []),
    "infinite frame rotation":
        lambda: _trap_bundle(lambda d: d["frames"][0].update(rotation="inf")),
    "NaN delta": lambda: _trap_bundle(lambda d: d.update(delta="nan")),
}


@pytest.fixture
def control_trace(tmp_path, capsys):
    trace = tmp_path / "control.json"
    assert run(["simulate", "--scenario", "builtin:necessity-control",
                "--out", trace]) == 0
    capsys.readouterr()
    return trace


CONTROL = ["simulate", "--scenario", "builtin:necessity-control"]
NO_ROBOTS = {"positions": [], "frames": [], "delta": 0.25}


def _simulate_no_robots(trace):
    path = trace.parent / "no-robots.json"
    path.write_text(json.dumps(NO_ROBOTS))
    return ["simulate", "--scenario", path, "--schedule", "fsync:2", "--algo", "halt",
            "--machine", "svp"]


def _check_no_robots(trace):
    raw = json.loads(trace.read_text())
    raw.update(scenario=NO_ROBOTS, records=[])
    trace.write_text(json.dumps(raw))
    return ["check", trace]


# each case gives the command line, given the path of a trace that passes
FLAG_CASES = {
    "fsync:x": lambda trace: [*CONTROL, "--algo", "halt", "--schedule", "fsync:x"],
    "async:-5": lambda trace: [*CONTROL, "--algo", "halt", "--schedule", "async:-5"],
    "async:1e308": lambda trace: [*CONTROL, "--algo", "halt", "--schedule", "async:1e308"],
    "fsync:1000000000":
        lambda trace: [*CONTROL, "--algo", "halt", "--schedule", "fsync:1000000000"],
    "async without a horizon":
        lambda trace: [*CONTROL, "--algo", "halt", "--schedule", "async"],
    "simulate a scenario with no robots": _simulate_no_robots,
    "check a trace with no robots": _check_no_robots,
    "NaN fairness window": lambda trace: [*CONTROL, "--fairness-window", "nan"],
    "negative check budget": lambda trace: ["check", trace, "--budget", "-3"],
    "negative order budget":
        lambda trace: ["necessity", "--template", "control", "--order-budget", "-1"],
}


@pytest.mark.parametrize("case", [*TRACE_MUTATIONS, *FILE_CASES, *FLAG_CASES])
def test_malformed_input_gives_one_line_and_exit_2(tmp_path, control_trace, capsys, case):
    if case in TRACE_MUTATIONS:
        raw = json.loads(control_trace.read_text())
        TRACE_MUTATIONS[case](raw["records"])
        control_trace.write_text(json.dumps(raw))
        args = ["check", control_trace]
    elif case in FILE_CASES:
        flag, data = FILE_CASES[case]()
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        opts = {"--scenario": "builtin:necessity-control", flag: path}
        args = ["simulate", *(x for pair in opts.items() for x in pair)]
    else:
        args = FLAG_CASES[case](control_trace)
    assert run(args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("input error:")
    assert "Traceback" not in err


def test_hull_run_on_a_lattice_whose_targets_round_onto_robots(tmp_path):
    # on a 4x4 lattice of spacing 0.6 the robot at (0.6, 0.6) computes the
    # local target (1.23e-17, 0), whose global image is its own position
    positions = [[0.6 * (k % 4), 0.6 * (k // 4)] for k in range(16)]
    scenario = tmp_path / "lattice.json"
    scenario.write_text(json.dumps({"positions": positions, "delta": 0.25,
                                    "frames": [{"rotation": 0.0, "unit": 1.0}] * 16}))
    for rounds in (1, 20):
        out = tmp_path / f"trace{rounds}.json"
        assert run(["simulate", "--scenario", scenario, "--schedule", f"fsync:{rounds}",
                    "--algo", "hull:0.5", "--out", out]) == 0
        assert sum(map(len, json.loads(out.read_text())["records"])) == 16 * rounds


def test_budget_is_only_a_search_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--scenario", "builtin:necessity-control", "--budget", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path, clean_bundle):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", "--scenario", clean_bundle, "--schedule", "async:30",
            "--seed", "9"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unexpected_exception_exits_3_with_one_line(control_trace, capsys, monkeypatch):
    import robosync.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(robosync.cli, "check_all", broken)
    assert run(["check", control_trace]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
