import inspect
import json

import pytest

from robosync.cli import build_parser, main
from robosync.experiments import necessity_experiment, synchronizer_end_to_end
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


def test_sweep_command(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["sweep", "--seeds", "2", "--horizon", "30", "--out", a]) == 0
    assert run(["sweep", "--seeds", "2", "--horizon", "30", "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text()) == {
        "schema": 1,
        "results": [synchronizer_end_to_end(seed, horizon=30.0) for seed in range(2)]}


def test_sweep_fails_unless_every_seed_checks_and_replays(tmp_path, monkeypatch):
    import robosync.cli

    def fake(seed, horizon, machine):
        return {"seed": seed, "all_checks_pass": seed != 2, "similar": True}

    monkeypatch.setattr(robosync.cli, "synchronizer_end_to_end", fake)
    assert run(["sweep", "--seeds", "2", "--out", tmp_path / "ok.json"]) == 0
    assert run(["sweep", "--seeds", "3", "--out", tmp_path / "bad.json"]) == 1


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


def _late_outsider(recs: list) -> None:
    """Robot 1's second record sees robot 99 too, with a snapshot point for
    it, so only the range check of its visible set refuses it."""
    rec = recs[1][1]
    rec["snapshot_local"].append([0.5, 0.5])
    rec["visible_set"] = [1, 99]


TRACE_MUTATIONS = {
    "non-consecutive j": lambda recs: _set_cycle(recs[0][1], j=3),
    "row under the wrong robot": lambda recs: _set_cycle(recs[0][0], robot=1),
    "overlapping cycles": lambda recs: _set_cycle(recs[0][1], o=0.75),
    "no rows for the robots": lambda recs: recs.clear(),
    "visible robot past the last": lambda recs: recs[0][0].update(visible_set=[0, 99]),
    "visible robot past the last in a later record": _late_outsider,
    "negative visible robot": lambda recs: recs[0][0].update(visible_set=[-1, 0]),
    "visible robot of 1e400": lambda recs: recs[0][0].update(visible_set=[0, 1e400]),
    "infinite last move end": lambda recs: _set_cycle(recs[1][-1], f=float("inf")),
    "j of 1.7": lambda recs: _set_cycle(recs[0][0], j=1.7),
    "j of true": lambda recs: _set_cycle(recs[0][0], j=True),
    'j of "1"': lambda recs: _set_cycle(recs[0][0], j="1"),
    "robot index of true": lambda recs: _set_cycle(recs[1][0], robot=True),
    "visible robot of 0.9": lambda recs: recs[0][0].update(visible_set=[0.9, 1]),
    "off-grid trace time": lambda recs: _set_cycle(recs[0][0], o=0.1),
    "trace cycle ends after the horizon": lambda recs: _set_cycle(recs[1][-1], f=1024.0),
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
    "schedule j of 1.7":
        lambda: _control_schedule(lambda d: d["robots"][0][0].update(j=1.7)),
    "schedule j of true":
        lambda: _control_schedule(lambda d: d["robots"][0][0].update(j=True)),
    "schedule j of 1e400":
        lambda: _control_schedule(lambda d: d["robots"][0][0].update(j=1e400)),
    "schedule cycle ends after the horizon":
        lambda: _control_schedule(lambda d: d["robots"][0][-1].update(f=d["horizon"] + 1)),
    "hull algorithm without lambda": lambda: ("--algo", {"kind": "hull_contraction"}),
    "scripted entry without snapshot":
        lambda: ("--algo", {"kind": "scripted", "script": [{"route": [[0, 0]]}]}),
    "algorithm file that is a list": lambda: ("--algo", []),
    'scenario machine of ["x"]': lambda: _trap_bundle(lambda d: d.update(machine=["x"])),
    'scenario machine of {"a": 1}': lambda: _trap_bundle(lambda d: d.update(machine={"a": 1})),
    "scenario adversary_mode of {}": lambda: _trap_bundle(lambda d: d.update(adversary_mode={})),
    "infinite frame rotation":
        lambda: _trap_bundle(lambda d: d["frames"][0].update(rotation="inf")),
    "NaN delta": lambda: _trap_bundle(lambda d: d.update(delta="nan")),
    'schedule o of "0.0"':
        lambda: _control_schedule(lambda d: d["robots"][0][0].update(o="0.0")),
    'hull lambda of "0.5"': lambda: ("--algo", {"kind": "hull_contraction", "lambda": "0.5"}),
    "scripted route vertex of [true, 0]":
        lambda: ("--algo", {"kind": "scripted",
                            "script": [{"snapshot": [[0, 0]], "route": [[0, 0], [True, 0]]}]}),
    # a script route starts at the local origin, and is refused at load
    # whether or not its entry fires
    "scripted route off the origin that fires":
        lambda: ("--algo", {"kind": "scripted",
                            "script": [{"snapshot": [[0, 0]], "route": [[1, 0], [1, 1]]}]}),
    "scripted route off the origin that never fires":
        lambda: ("--algo", {"kind": "scripted",
                            "script": [{"snapshot": [[5, 5]], "route": [[1, 0], [1, 1]]}]}),
    "scripted route with a zero-length segment that never fires":
        lambda: ("--algo", {"kind": "scripted",
                            "script": [{"snapshot": [[5, 5]], "route": [[0, 0], [0, 0]]}]}),
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


def _nested(*argv):
    """`argv` with FILE replaced by a file of 200,000 nested lists, which
    nests deeper than the JSON parser recurses."""
    def args(trace):
        path = trace.parent / "nested.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        return [path if arg == "FILE" else arg for arg in argv]
    return args


def _edited_check(edit):
    """The check command line on the passing trace, after `edit` of its JSON."""
    def args(trace):
        raw = json.loads(trace.read_text())
        edit(raw)
        trace.write_text(json.dumps(raw))
        return ["check", trace]
    return args


def _first_record(**fields):
    return _edited_check(lambda raw: raw["records"][0][0].update(fields))


def _trap_first_record(machine, **fields):
    """The check command line on a luminous greedy-trap trace under `machine`,
    after setting `fields` in its first record."""
    def args(trace):
        path = trace.parent / f"{machine}.json"
        assert run(["simulate", "--scenario", "builtin:greedy-trap", "--machine", machine,
                    "--out", path]) == 0
        return _first_record(**fields)(path)
    return args


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
    "check a trace with no robots":
        _edited_check(lambda raw: raw.update(scenario=NO_ROBOTS, records=[])),
    'pos_at_look of "12"': _first_record(pos_at_look="12"),
    'cycle o of "0.0"': _edited_check(lambda raw: _set_cycle(raw["records"][0][0], o="0.0")),
    'horizon of "6"': _edited_check(lambda raw: raw.update(horizon="6")),
    'z of "nan"': _first_record(z="nan"),
    "z of 7.0": _first_record(z=7.0),
    'mid-move sample of ["nan", "nan"]': _first_record(mid_move_samples=[["nan", "nan"]]),
    "position of [false, false]":
        _edited_check(lambda raw: raw["scenario"].update(positions=[[False, False], [3, 0]])),
    "NaN fairness window": lambda trace: [*CONTROL, "--fairness-window", "nan"],
    "negative check budget": lambda trace: ["check", trace, "--budget", "-3"],
    "negative order budget":
        lambda trace: ["necessity", "--template", "control", "--order-budget", "-1"],
    "sweep --horizon nan": lambda trace: ["sweep", "--horizon", "nan"],
    "sweep --seeds 0": lambda trace: ["sweep", "--seeds", "0"],
    "repro greedy-lemma --machine svp":
        lambda trace: ["repro", "greedy-lemma", "--machine", "svp"],
    'accepted of "no"': _trap_first_record("greedy", accepted="no"),
    "accepted of 1": _trap_first_record("greedy", accepted=1),
    "color_after of 5": _trap_first_record("greedy", color_after=5),
    'color_before of "X"': _trap_first_record("greedy", color_before="X"),
    'snapshot_colors of ["Q"]': _trap_first_record("greedy", snapshot_colors=["Q"]),
    'snapshot_colors of ["Bk"] for three points':
        _trap_first_record("greedy", snapshot_colors=["Bk"]),
    "visible_set of [] (svp)": _trap_first_record("svp", visible_set=[]),
    'snapshot coordinate of "0" (svp)':
        _trap_first_record("svp", snapshot_local=[["0", 0.0], [0.0, 1.0], [1.0, 0.0]]),
    "mid-move arc of NaN (svp)":
        _trap_first_record("svp", mid_move_samples=[[0.875, float("nan")]]),
    "snapshot_local of []": _first_record(snapshot_local=[]),
    # `check` never reads a snapshot point or a sample, so these are refused at load
    "snapshot coordinate of NaN": _first_record(snapshot_local=[[float("nan"), 0.0]]),
    "snapshot coordinate of false": _first_record(snapshot_local=[[False, 0.0]]),
    "snapshot row of three numbers": _first_record(snapshot_local=[[0.0, 0.0, 0.0]]),
    'mid-move arc of "0.25"': _first_record(mid_move_samples=[[0.5, "0.25"]]),
    "mid-move sample of three numbers": _first_record(mid_move_samples=[[0.5, 0.25, 0.0]]),
    "trace kind of 5": _edited_check(lambda raw: raw.update(kind=5)),
    'trace machine of ["x"]': _edited_check(lambda raw: raw.update(machine=["x"])),
    "check a deeply nested file": _nested("check", "FILE"),
    "simulate a deeply nested scenario": _nested("simulate", "--scenario", "FILE"),
    "simulate a deeply nested schedule": _nested(*CONTROL, "--algo", "halt", "--schedule", "FILE"),
    "out path in a missing directory":
        lambda trace: ["check", trace, "--out", trace.parent / "missing" / "report.json"],
    "out path is a directory": lambda trace: [*CONTROL, "--out", trace.parent],
    "synthesize out path is a directory":
        lambda trace: ["synthesize", trace, "--out", trace.parent],
    "repro out path is a directory":
        lambda trace: ["repro", "greedy-lemma", "--out", trace.parent],
    "sweep out path is a directory":
        lambda trace: ["sweep", "--seeds", "1", "--horizon", "20", "--out", trace.parent],
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


def test_a_passing_trace_with_no_cycles_reports_an_empty_natural_order(tmp_path):
    trace = tmp_path / "empty.json"
    assert run([*CONTROL, "--schedule", "fsync:0", "--out", trace]) == 0
    report, synth = tmp_path / "report.json", tmp_path / "synth.json"
    assert run(["check", trace, "--out", report]) == 0
    assert run(["synthesize", trace, "--out", synth]) == 0
    assert json.loads(report.read_text())["natural_order"] == []
    assert json.loads(synth.read_text())["plan"]["order"] == []


def test_the_replay_that_synthesize_writes_loads_as_a_trace(tmp_path, control_trace):
    # a replay's kind is "replay", which a trace may name besides plain,
    # luminous and core
    out, replay = tmp_path / "synth.json", tmp_path / "replay.json"
    assert run(["synthesize", control_trace, "--out", out]) == 0
    written = json.loads(out.read_text())["replay"]
    assert written["kind"] == "replay"
    replay.write_text(json.dumps(written))
    assert run(["check", replay]) == 0


def test_budget_is_only_a_search_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--scenario", "builtin:necessity-control", "--budget", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_simulate_takes_the_adversary_mode_from_the_bundle_only(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--scenario", "builtin:necessity-control", "--adversary", "rigid"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --adversary rigid" in capsys.readouterr().err


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


@pytest.mark.parametrize("window, code", [("0.5", 1), ("10", 0)])
def test_simulate_refuses_a_schedule_that_fails_the_fairness_window(tmp_path, capsys,
                                                                     window, code):
    # the control template's robots leave gaps of up to 2.75 between Looks
    out = tmp_path / "trace.json"
    assert run([*CONTROL, "--fairness-window", window, "--out", out]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "schedule fails the fairness proxy for robots [0, 1] (window 0.5)\n"
        assert not out.exists()
    else:
        assert err == "" and json.loads(out.read_text())["kind"] == "plain"


def test_an_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch):
    import robosync.cli
    from robosync.errors import InputError
    from robosync.jsonio import dump

    def never(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(robosync.cli, "necessity_experiment", never)
    assert run(["necessity", "--template", "all", "--seeds", "1", "--out", tmp_path]) == 2
    with pytest.raises(InputError) as refused:  # the message `dump` gives
        dump({}, str(tmp_path))
    assert capsys.readouterr().err == f"input error: {refused.value}\n"


def test_a_command_that_fails_after_the_out_check_leaves_the_out_path_as_it_was(
        tmp_path, control_trace, monkeypatch):
    import robosync.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(robosync.cli, "check_all", broken)
    out = tmp_path / "report.json"
    assert run(["necessity", "--template", "control", "--seeds", "0", "--out", out]) == 2
    assert run(["check", control_trace, "--out", out]) == 3
    assert not out.exists()
    out.write_text("kept")
    assert run(["check", control_trace, "--out", out]) == 3
    assert out.read_text() == "kept"
