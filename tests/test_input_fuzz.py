"""Mutation fuzz of the CLI's exit-code contract.

Valid inputs (the built-in bundles, their schedules and algorithms as
separate files, the control trace, a small luminous trace and a trace whose
precedence loop is open at the horizon) are mutated
one to three times and fed to `cli.main` in-process.  Whatever the input,
the exit code is one of 0-3, stderr holds no traceback and no internal
error, an input error is one line, and `check` and `synthesize` exit as
their reports say.  Exit 3 `simulation aborted` stays allowed: a mutated
position or route may make robots collide.
"""
import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import build_trace
from robosync.cli import main
from robosync.scenarios import BUILTIN_BUNDLES, builtin_bundle

BUDGET = ["--budget", "2000"]

REPLACEMENTS = [None, True, False, "x", "0.5", [], [1, 2], {}, {"a": 1},
                math.nan, 1e308, 2**70, 0.5, 1.7]


def _run(args: list) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(name, document, command line with FILE in place of the input path)."""
    work = tmp_path_factory.mktemp("fuzz")
    cases = []
    for name in sorted(BUILTIN_BUNDLES):
        bundle = builtin_bundle(name)
        cases.append((f"{name} bundle", bundle, ["simulate", "--scenario", "FILE"]))
        for flag in ("schedule", "algorithm"):
            cases.append((f"{name} {flag}", bundle[flag],
                          ["simulate", "--scenario", f"builtin:{name}",
                           "--schedule" if flag == "schedule" else "--algo", "FILE"]))
    traces = []
    for name, args in [
        ("control trace", ["--scenario", "builtin:necessity-control"]),
        ("luminous trace", ["--scenario", "builtin:greedy-trap", "--machine", "svp",
                            "--schedule", "async:12", "--seed", "3"]),
    ]:
        out = work / "trace.json"
        assert _run(["simulate", *args, "--out", out]) == (0, "")
        traces.append((name, json.loads(out.read_text())))
    # test_checker.py's two-cycle loop: `check` exits 3 on it
    traces.append(("open trace", build_trace(
        [(0, 0), (0.9, 1.1), (0, 1), (1.7, 0.5), (1, 0)], [
            [{"t": (0.0, 20.0, 20.5), "sees": {2, 4}}],
            [{"t": (21.0, 22.0, 22.5), "sees": {2}}],
            [{"t": (19.0, 19.25, 19.5), "sees": {0}}],
            [{"t": (23.0, 24.0, 24.5), "sees": {4, 1}}],
            [{"t": (19.75, 40.0, 40.5), "sees": {0, 3}}],
        ]).to_json()))
    for name, trace in traces:
        for command in ("check", "synthesize"):
            cases.append((f"{name} {command}", trace, [command, "FILE", *BUDGET]))
    return work, cases


def _slots(doc) -> list:
    """Every (container, key) of a value inside `doc`."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


@st.composite
def mutated(draw, cases):
    """A case's document after one to three mutations."""
    name, doc, argv = draw(st.sampled_from(cases))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        value = node[key]
        ops = ["replace", "drop"]
        if isinstance(node, list):
            ops += ["duplicate", "reorder"]
        if type(value) in (int, float):
            ops.append("shift")
        op = draw(st.sampled_from(ops))
        if op == "replace":
            node[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        elif op == "drop":
            del node[key]
        elif op == "duplicate":
            node.insert(key, copy.deepcopy(value))
        elif op == "reorder":
            other = draw(st.integers(0, len(node) - 1))
            node[key], node[other] = node[other], node[key]
        else:
            node[key] = value + draw(st.sampled_from([1, -1, 1 / 64, -1 / 64]))
    return name, doc, argv


def _check_exit(code: int, report: dict) -> None:
    """`check`'s exit code as its report says: 0 only when every condition
    passes, 1 only when some verdict fails, and open-at-horizon alone 3."""
    if report["all_pass"]:
        assert code == 0
    elif any(v["verdict"] == "fail" for v in report["verdicts"].values()):
        assert code == 1
    else:
        assert code == 3


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_mutated_input_keeps_the_exit_code_contract(inputs, data):
    work, cases = inputs
    name, doc, argv = data.draw(mutated(cases))
    path, out = work / "input.json", work / "out.json"
    path.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    code, err = _run([path if a == "FILE" else a for a in argv] + ["--out", out])
    assert code in (0, 1, 2, 3), (name, code, err)
    assert "Traceback" not in err and "internal error:" not in err, (name, err)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("input error:"), (name, err)
    if argv[0] == "check" and code != 2 and out.exists():
        _check_exit(code, json.loads(out.read_text()))
    if argv[0] == "synthesize" and code != 2 and out.exists():
        result = json.loads(out.read_text())
        if result["refused"]:
            _check_exit(code, result["report"])
        else:
            assert code == (0 if result["similar"]["similar"] else 1), (name, code)
